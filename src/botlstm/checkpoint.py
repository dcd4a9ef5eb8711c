"""Binary model checkpoints.

Layout (all integers little-endian uint32, floats little-endian float32):

    magic   6 bytes  b"BLSTM1"
    version u32      currently 1
    dims    5 x u32  vocab_size, embed_dim, hidden, layers, classes
    payload:
      vocabulary block: vocab_size entries, each u32 byte length +
        UTF-8 surface, in id order
      tensor block: raw C-order float32 tensors, in the order, and with
        the names and shapes, of ModelConfig.tensor_shapes(), which
        ModelParams.tensors follows:
          embedding.vectors [vocab_size, embed_dim]
          for each layer 0..L-1, for direction fwd then bwd, the cell's
          gate-fused blocks layers.{l}.{fwd|bwd}.{U|W|V|b}, with
          d_in = embed_dim on layer 0 and 2*hidden above:
            U [4*hidden, d_in]    gate blocks i, f, c, o
            W [4*hidden, hidden]  gate blocks i, f, c, o
            V [3*hidden]          peephole blocks i, f, o
            b [4*hidden]          gate blocks i, f, c, o
          softmax.W [classes, 2*hidden]
          softmax.b [classes]
    checksum u32  CRC-32 of the payload bytes

Parameters are saved at float32 precision, so save -> load -> save is
byte-identical. A model whose tensors' names, order or shapes differ from
this layout, or a finite value beyond float32's range, is refused before
the file is opened. The save then streams each tensor's bytes straight
from the model's arrays (a float32 copy only of a tensor that is not
already C-order little-endian float32) and keeps a running CRC, so it
allocates no copy of the model.

The loader checks the header before it reads the payload, so a file that
is not a checkpoint is refused unread. A tensor block holding a NaN or an
infinity is rejected on load. The checksum does not cover the header, so
the loader walks the header's tensor shapes only as far as the payload
reaches: a header that implies more tensor bytes than the file holds is
rejected before anything is allocated for them.
"""

from __future__ import annotations

import math
import struct
import zlib
from itertools import zip_longest

import numpy as np

from .errors import CheckpointError, InternalError
from .nn_core import ModelConfig, ModelParams, N_CLASSES
from .text_pipeline import Vocabulary

MAGIC = b"BLSTM1"
VERSION = 1
_HEADER = struct.Struct("<6s6I")
_LENGTH = struct.Struct("<I")


def save_checkpoint(path, model: ModelParams, vocab: Vocabulary) -> None:
    try:
        cfg = model.config()
    except KeyError as exc:
        raise ValueError(f"model has no tensor {exc.args[0]}") from exc
    if len(vocab) != cfg.vocab_size:
        raise ValueError("vocabulary size does not match the embedding table")
    vocab_block = bytearray()  # a bytes object per word traced ~26x the block's size
    for surface in vocab.surfaces:
        raw = surface.encode("utf-8")
        vocab_block += struct.pack("<I", len(raw)) + raw
    blocks: list[np.ndarray] = []
    for (name, arr), (expected, shape) in zip_longest(
        model.tensors.items(), cfg.tensor_shapes(), fillvalue=(None, None)
    ):
        if name != expected:
            raise ValueError(f"expected tensor {expected}, found {name}")
        if arr.shape != shape:
            raise ValueError(f"tensor {name} has shape {arr.shape}, expected {shape}")
        with np.errstate(over="ignore"):  # an overflow becomes inf, refused below
            block = np.ascontiguousarray(arr, dtype="<f4")  # arr itself when C-order <f4
        # a dtype that casts to float32 safely cannot overflow it
        if not np.can_cast(arr.dtype, "<f4") and (np.isinf(block) & np.isfinite(arr)).any():
            raise InternalError(f"tensor {name} overflows float32", module="checkpoint")
        blocks.append(block)
    header = _HEADER.pack(
        MAGIC, VERSION, cfg.vocab_size, cfg.embed_dim, cfg.hidden, cfg.layers, N_CLASSES
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vocab_block)
        crc = zlib.crc32(vocab_block)
        for block in blocks:  # straight from the tensors' memory, no bytes copy
            view = memoryview(block).cast("B")
            fh.write(view)
            crc = zlib.crc32(view, crc)
        fh.write(struct.pack("<I", crc))


def _read_header(head: bytes) -> ModelConfig:
    """Check the header's fields; the payload is not read yet."""
    if len(head) < _HEADER.size:
        raise CheckpointError("corrupt checkpoint: truncated header")
    magic, version, vocab_size, embed_dim, hidden, layers, classes = _HEADER.unpack(head)
    if magic != MAGIC:
        raise CheckpointError("corrupt checkpoint: bad magic")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if classes != N_CLASSES:
        raise CheckpointError(f"unsupported class count {classes}")
    try:
        return ModelConfig(vocab_size, embed_dim, hidden, layers)
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc


def load_checkpoint(path) -> tuple[ModelParams, Vocabulary]:
    try:
        # unbuffered: a buffered read() after the header copies the payload to
        # join it to the buffer's leftover
        with open(path, "rb", buffering=0) as fh:
            config = _read_header(fh.read(_HEADER.size))  # a wrong file is refused unread
            rest = fh.readall()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(rest) < 4:
        raise CheckpointError("corrupt checkpoint: truncated header")

    payload = memoryview(rest)[:-4]  # not a copy of the tensor bytes
    (stored_crc,) = struct.unpack("<I", rest[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise CheckpointError("corrupt checkpoint: checksum mismatch")

    surfaces = []
    offset = 0
    try:
        for _ in range(config.vocab_size):
            (length,) = _LENGTH.unpack_from(payload, offset)
            offset += 4 + length
            surfaces.append(str(payload[offset - length : offset], "utf-8"))
        vocab = Vocabulary(surfaces)
    except struct.error as exc:  # a length field runs past the payload
        raise CheckpointError("corrupt checkpoint: truncated payload") from exc
    except ValueError as exc:  # bad UTF-8 or a malformed vocabulary
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc

    tensors = {}
    for name, shape in config.tensor_shapes():  # stops at the first tensor past the payload
        count = math.prod(shape)
        if offset + 4 * count > len(payload):
            raise CheckpointError("corrupt checkpoint: truncated payload")
        tensors[name] = np.frombuffer(payload, "<f4", count, offset).reshape(shape)
        offset += 4 * count
    if offset != len(payload):
        raise CheckpointError("corrupt checkpoint: trailing bytes in payload")
    if not all(np.isfinite(t).all() for t in tensors.values()):
        raise CheckpointError("corrupt checkpoint: non-finite parameter values")
    # aligned, writeable copies: the raw views score about 10% slower
    return ModelParams({name: t.astype(np.float32) for name, t in tensors.items()}), vocab
