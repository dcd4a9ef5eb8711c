"""Binary model checkpoints.

Layout (all integers little-endian uint32, floats little-endian float32):

    magic   6 bytes  b"BLSTM1"
    version u32      currently 1
    dims    5 x u32  vocab_size, embed_dim, hidden, layers, classes
    payload:
      vocabulary block: vocab_size entries, each u32 byte length +
        UTF-8 surface, in id order
      tensor block: raw C-order float32 tensors, in the order of
        ModelParams.named_tensors():
          embedding.vectors [vocab_size, embed_dim]
          for each layer 0..L-1, for direction fwd then bwd, the cell's
          gate-fused blocks (nn_core.LstmCellParams), with d_in = embed_dim
          on layer 0 and 2*hidden above:
            U [4*hidden, d_in]    gate blocks i, f, c, o
            W [4*hidden, hidden]  gate blocks i, f, c, o
            V [3*hidden]          peephole blocks i, f, o
            b [4*hidden]          gate blocks i, f, c, o
          softmax.W [classes, 2*hidden]
          softmax.b [classes]
    checksum u32  CRC-32 of the payload bytes

Parameters are saved at float32 precision, so save -> load -> save is
byte-identical. A block is the C-order concatenation of its gate pieces,
so the bytes are unchanged from the earlier layout that stored each gate
as its own tensor. A tensor block holding a NaN or an infinity is
rejected on load.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .embeddings import EmbeddingTable
from .errors import CheckpointError
from .nn_core import BiLstmLayer, LstmCellParams, ModelParams, N_CLASSES
from .text_pipeline import Vocabulary

MAGIC = b"BLSTM1"
VERSION = 1
_HEADER = struct.Struct("<6s6I")
_LENGTH = struct.Struct("<I")


def _tensor_shapes(vocab_size: int, embed_dim: int, hidden: int, layers: int):
    """Expected tensor shapes in file order."""
    shapes = [(vocab_size, embed_dim)]
    for li in range(layers):
        d_in = embed_dim if li == 0 else 2 * hidden
        cell = [(4 * hidden, d_in), (4 * hidden, hidden), (3 * hidden,), (4 * hidden,)]
        shapes += cell * 2  # fwd, bwd
    shapes += [(N_CLASSES, 2 * hidden), (N_CLASSES,)]
    return shapes


def save_checkpoint(path, model: ModelParams, vocab: Vocabulary) -> None:
    if len(vocab) != model.embedding.vocab_size:
        raise ValueError("vocabulary size does not match the embedding table")
    parts: list[bytes] = []
    for surface in vocab.surfaces:
        raw = surface.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    cfg = model.config()
    shapes = _tensor_shapes(cfg.vocab_size, cfg.embed_dim, cfg.hidden, cfg.layers)
    for (name, arr), shape in zip(model.named_tensors(), shapes):
        if arr.shape != shape:
            raise ValueError(f"tensor {name} has shape {arr.shape}, expected {shape}")
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    payload = b"".join(parts)
    header = _HEADER.pack(
        MAGIC, VERSION, cfg.vocab_size, cfg.embed_dim, cfg.hidden, cfg.layers, N_CLASSES
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_checkpoint(path) -> tuple[ModelParams, Vocabulary]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    if len(blob) < _HEADER.size + 4:
        raise CheckpointError("corrupt checkpoint: truncated header")
    magic, version, vocab_size, embed_dim, hidden, layers, classes = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if magic != MAGIC:
        raise CheckpointError("corrupt checkpoint: bad magic")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if classes != N_CLASSES:
        raise CheckpointError(f"unsupported class count {classes}")

    payload = blob[_HEADER.size : -4]
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise CheckpointError("corrupt checkpoint: checksum mismatch")

    surfaces = []
    offset = 0
    try:
        for _ in range(vocab_size):
            (length,) = _LENGTH.unpack_from(payload, offset)
            offset += 4 + length
            surfaces.append(payload[offset - length : offset].decode("utf-8"))
        vocab = Vocabulary(surfaces)
    except struct.error as exc:  # a length field runs past the payload
        raise CheckpointError("corrupt checkpoint: truncated payload") from exc
    except ValueError as exc:  # bad UTF-8 or a malformed vocabulary
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc

    shapes = _tensor_shapes(vocab_size, embed_dim, hidden, layers)
    counts = [math.prod(shape) for shape in shapes]
    end = offset + 4 * sum(counts)
    if end != len(payload):
        problem = "truncated payload" if end > len(payload) else "trailing bytes in payload"
        raise CheckpointError(f"corrupt checkpoint: {problem}")
    block = np.frombuffer(payload, dtype="<f4", offset=offset)
    if not np.isfinite(block).all():
        raise CheckpointError("corrupt checkpoint: non-finite parameter values")
    tensors = [
        part.astype(np.float64).reshape(shape)
        for part, shape in zip(np.split(block, np.cumsum(counts)[:-1]), shapes)
    ]

    embedding = EmbeddingTable(vectors=tensors[0])
    cells = [
        LstmCellParams(*tensors[k : k + 4])
        for k in range(1, 1 + 8 * layers, 4)
    ]
    model = ModelParams(
        embedding=embedding,
        layers=[BiLstmLayer(fwd=f, bwd=b) for f, b in zip(cells[::2], cells[1::2])],
        softmax_W=tensors[-2],
        softmax_b=tensors[-1],
    )
    return model, vocab
