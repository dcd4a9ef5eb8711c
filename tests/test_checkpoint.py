import math
import struct
import zlib

import numpy as np
import pytest

from botlstm.checkpoint import (
    MAGIC, VERSION, _tensor_shapes, load_checkpoint, save_checkpoint,
)
from botlstm.datasets import synthetic
from botlstm.errors import CheckpointError
from botlstm.nn_core import ModelConfig, init_params


@pytest.fixture
def model_and_vocab():
    _, vocab, table = synthetic(seed=2, n_per_class=2)
    model = init_params(
        ModelConfig(vocab_size=len(vocab), embed_dim=table.dim, hidden=3, layers=2),
        rng_seed=1,
        embedding=table,
    )
    return model, vocab


class TestRoundTrip:
    def test_save_load_save_identical_bytes(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, model, vocab)
        loaded, loaded_vocab = load_checkpoint(p1)
        save_checkpoint(p2, loaded, loaded_vocab)
        assert p1.read_bytes() == p2.read_bytes()

    def test_two_loads_bit_identical(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        a, _ = load_checkpoint(path)
        b, _ = load_checkpoint(path)
        for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert np.array_equal(ta, tb), name

    def test_vocab_preserved(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        _, loaded_vocab = load_checkpoint(path)
        assert loaded_vocab == vocab

    def test_values_preserved_at_storage_precision(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        loaded, _ = load_checkpoint(path)
        for (name, orig), (_, got) in zip(
            model.named_tensors(), loaded.named_tensors()
        ):
            np.testing.assert_array_equal(
                got, orig.astype(np.float32).astype(np.float64), err_msg=name
            )

    def test_trainable_mask_reconstructed(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(
            loaded.embedding.trainable_mask, model.embedding.trainable_mask
        )

    def test_tensor_block_follows_documented_layout(self, tmp_path, model_and_vocab):
        # parse the file at the offsets the module docstring gives, so an
        # order change made alike in save and load still fails here
        model, vocab = model_and_vocab
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        blob = path.read_bytes()
        offset = 6 + 6 * 4  # magic, version, five dims
        for _ in range(len(vocab)):
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4 + length
        expected = [model.embedding.vectors]
        for layer in model.layers:
            for cell in (layer.fwd, layer.bwd):
                expected += [cell.U, cell.W, cell.V, cell.b]
        expected += [model.softmax_W, model.softmax_b]
        for k, tensor in enumerate(expected):
            stored = np.frombuffer(blob, dtype="<f4", count=tensor.size, offset=offset)
            np.testing.assert_array_equal(
                stored.reshape(tensor.shape), tensor.astype(np.float32), err_msg=str(k)
            )
            offset += 4 * tensor.size
        assert offset == len(blob) - 4  # only the checksum follows

    def test_shapes_preserved(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        loaded, _ = load_checkpoint(path)
        assert loaded.config() == model.config()


class TestCorruption:
    def _saved(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        return path

    def test_truncated_file(self, tmp_path, model_and_vocab):
        path = self._saved(tmp_path, model_and_vocab)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            load_checkpoint(path)

    def test_bit_flip_fails_checksum(self, tmp_path, model_and_vocab):
        path = self._saved(tmp_path, model_and_vocab)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path, model_and_vocab):
        path = self._saved(tmp_path, model_and_vocab)
        blob = bytearray(path.read_bytes())
        blob[:6] = b"NOTCKP"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tensor, value", [
        ("softmax.W", np.nan), ("embedding.vectors", np.inf),
    ])
    def test_non_finite_tensor_rejected(self, tmp_path, model_and_vocab, tensor, value):
        model, vocab = model_and_vocab
        dict(model.named_tensors())[tensor][1, 0] = value  # saved with a valid checksum
        path = self._saved(tmp_path, (model, vocab))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, delta, message", [
        (2, 1, "truncated payload"),
        (2, -1, "trailing bytes"),
        (1, 10**6, "corrupt checkpoint"),
    ], ids=["embed-dim-up", "embed-dim-down", "vocab-size-up"])
    def test_header_disagrees_with_payload(self, tmp_path, model_and_vocab,
                                           field, delta, message):
        # the checksum covers the payload only, so a header edit reaches the parser
        path = self._saved(tmp_path, model_and_vocab)
        blob = bytearray(path.read_bytes())
        offset = 6 + 4 * field  # after the magic: version, vocab_size, embed_dim
        (value,) = struct.unpack_from("<I", blob, offset)
        struct.pack_into("<I", blob, offset, value + delta)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["embed_dim", "hidden", "layers"])
    def test_zero_dimension_rejected(self, tmp_path, model_and_vocab, field):
        # a well-formed file: the payload has the size its header implies
        # and a valid checksum, but the model it describes has a zero size
        _, vocab = model_and_vocab
        dims = {"vocab_size": len(vocab), "embed_dim": 4, "hidden": 3, "layers": 2}
        dims[field] = 0
        words = [w.encode("utf-8") for w in vocab.surfaces]
        n_floats = sum(math.prod(shape) for shape in _tensor_shapes(**dims))
        payload = b"".join(struct.pack("<I", len(w)) + w for w in words)
        payload += np.zeros(n_floats, dtype="<f4").tobytes()
        path = tmp_path / "m.ckpt"
        path.write_bytes(
            struct.pack("<6s6I", MAGIC, VERSION, *dims.values(), 2)
            + payload + struct.pack("<I", zlib.crc32(payload))
        )
        with pytest.raises(CheckpointError, match=f"corrupt checkpoint: {field} must be positive"):
            load_checkpoint(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "missing.ckpt")
