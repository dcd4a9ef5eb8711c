import struct
import zlib

import numpy as np
import pytest

from conftest import traced_peak

from botlstm.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from botlstm.datasets import synthetic
from botlstm.errors import CheckpointError, InternalError
from botlstm.nn_core import ModelConfig, init_params
from botlstm.text_pipeline import Vocabulary


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
        assert list(a.tensors) == list(b.tensors)
        for name, ta in a.tensors.items():
            assert np.array_equal(ta, b.tensors[name]), name

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
        assert list(loaded.tensors) == list(model.tensors)
        for name, orig in model.tensors.items():
            np.testing.assert_array_equal(
                loaded.tensors[name], orig.astype(np.float32), err_msg=name
            )

    def test_loaded_tensors_are_aligned_writeable_float32(self, tmp_path, model_and_vocab):
        # views of the file's bytes would be read-only, and unaligned after a
        # vocabulary block of this length, and scored about 10% slower
        model, vocab = model_and_vocab
        assert sum(4 + len(w.encode("utf-8")) for w in vocab.surfaces) % 4 != 0
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        loaded, _ = load_checkpoint(path)
        for name, tensor in loaded.tensors.items():
            assert tensor.dtype == np.float32, name
            flags = tensor.flags
            assert flags.aligned and flags.c_contiguous and flags.writeable, (name, flags)

    def test_tensor_block_follows_documented_layout(self, tmp_path, model_and_vocab):
        # parse the file at the offsets the module docstring gives, in the
        # names written out below, so an order change made alike in save,
        # load and ModelConfig.tensor_shapes() still fails here
        names = [
            "embedding.vectors",
            "layers.0.fwd.U", "layers.0.fwd.W", "layers.0.fwd.V", "layers.0.fwd.b",
            "layers.0.bwd.U", "layers.0.bwd.W", "layers.0.bwd.V", "layers.0.bwd.b",
            "layers.1.fwd.U", "layers.1.fwd.W", "layers.1.fwd.V", "layers.1.fwd.b",
            "layers.1.bwd.U", "layers.1.bwd.W", "layers.1.bwd.V", "layers.1.bwd.b",
            "softmax.W", "softmax.b",
        ]
        model, vocab = model_and_vocab
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        blob = path.read_bytes()
        offset = 6 + 6 * 4  # magic, version, five dims
        for _ in range(len(vocab)):
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4 + length
        for name in names:
            tensor = model.tensors[name]
            stored = np.frombuffer(blob, dtype="<f4", count=tensor.size, offset=offset)
            np.testing.assert_array_equal(
                stored.reshape(tensor.shape), tensor.astype(np.float32), err_msg=name
            )
            offset += 4 * tensor.size
        assert offset == len(blob) - 4  # only the checksum follows

    @pytest.mark.parametrize("layout", [
        "float64", "big-endian", "fortran-order", "negative-stride",
    ])
    def test_tensor_layout_does_not_change_the_bytes(self, tmp_path, model_and_vocab, layout):
        # each tensor is written from a C-order little-endian float32 array,
        # whatever the dtype, byte order or strides the model holds it in
        model, vocab = model_and_vocab
        save_checkpoint(tmp_path / "c.ckpt", model, vocab)  # init gives C-order float32
        tensors = model.tensors
        if layout == "float64":
            tensors = {name: t.astype(np.float64) for name, t in tensors.items()}
        elif layout == "big-endian":
            tensors["softmax.W"] = tensors["softmax.W"].astype(">f4")
        elif layout == "fortran-order":
            tensors["embedding.vectors"] = np.asfortranarray(tensors["embedding.vectors"])
        else:
            tensors["layers.1.bwd.U"] = tensors["layers.1.bwd.U"][::-1, ::-1].copy()[::-1, ::-1]
            assert tensors["layers.1.bwd.U"].strides[0] < 0
        model.tensors = tensors
        save_checkpoint(tmp_path / "m.ckpt", model, vocab)
        assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "c.ckpt").read_bytes()

    def test_saving_allocates_no_copy_of_the_model(self, tmp_path):
        # the file is streamed from the tensors' own memory, and a float32
        # model needs no overflow check; the largest tensor is over a quarter
        # of the model, so a copy of any one tensor fails too
        _, vocab, _ = synthetic(seed=2, n_per_class=2)
        model = init_params(ModelConfig(len(vocab), 4096, hidden=16, layers=1), rng_seed=1)
        tensor_bytes = sum(t.nbytes for t in model.tensors.values())
        assert max(t.nbytes for t in model.tensors.values()) > 0.25 * tensor_bytes > 2**19
        _, peak = traced_peak(lambda: save_checkpoint(tmp_path / "m.ckpt", model, vocab))
        assert peak < 0.25 * tensor_bytes, (peak, tensor_bytes)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        for name, tensor in model.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], tensor, err_msg=name)

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
        model.tensors[tensor][1, 0] = value  # saved with a valid checksum
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
        V, D, H, L = dims.values()
        # embedding, the L layers' cells (U's D_in is D, then 2H), softmax
        n_floats = (V * D + min(L, 1) * 8 * H * (D + 2 * H * (L - 1))
                    + 2 * L * (4 * H * H + 7 * H) + 4 * H + 2)
        payload = b"".join(struct.pack("<I", len(w)) + w for w in words)
        payload += np.zeros(n_floats, dtype="<f4").tobytes()
        path = tmp_path / "m.ckpt"
        path.write_bytes(
            struct.pack("<6s6I", MAGIC, VERSION, *dims.values(), 2)
            + payload + struct.pack("<I", zlib.crc32(payload))
        )
        with pytest.raises(CheckpointError, match=f"corrupt checkpoint: {field} must be positive"):
            load_checkpoint(path)

    def test_huge_layer_count_rejected_within_the_file_size(self, tmp_path):
        # a flipped high bit in the layers field must not build 2^16 layers' shapes
        _, vocab, table = synthetic(seed=2, n_per_class=2)
        model = init_params(
            ModelConfig(len(vocab), table.dim, hidden=2, layers=1), rng_seed=1, embedding=table
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 6 + 4 * 4, 2**16 + 1)  # version, V, D, H, then layers
        path.write_bytes(bytes(blob))

        def refuse():
            with pytest.raises(CheckpointError, match="truncated payload"):
                load_checkpoint(path)

        _, peak = traced_peak(refuse)
        assert peak < 2**20, peak

    def test_wrong_file_refused_from_its_header(self, tmp_path):
        # a GloVe file passed as --checkpoint is refused without being read whole
        path = tmp_path / "glove.txt"
        row = "the " + " ".join(["0.123456"] * 200) + "\n"
        path.write_text(row * 3000)
        assert path.stat().st_size > 4 * 2**20

        def refuse():
            with pytest.raises(CheckpointError, match="bad magic"):
                load_checkpoint(path)

        _, peak = traced_peak(refuse)
        assert peak < 2**20, peak

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "missing.ckpt")


class TestSaveGuards:
    def test_vocabulary_size_must_match_the_embedding(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        short = Vocabulary(vocab.surfaces[:-1])
        with pytest.raises(ValueError, match="vocabulary size"):
            save_checkpoint(tmp_path / "m.ckpt", model, short)

    @pytest.mark.parametrize("edit, message", [
        ("drop layers.1.bwd.V", r"model has no tensor layers\.1\.bwd\.V"),
        ("drop embedding.vectors", r"model has no tensor embedding\.vectors"),
        ("drop softmax.b", r"expected tensor softmax\.b, found None"),
        ("rename layers.0.fwd.b", r"model has no tensor layers\.0\.fwd\.b"),
        ("rename softmax.W", r"expected tensor softmax\.W, found softmax\.w"),
        ("move softmax.W", r"expected tensor softmax\.W, found softmax\.b"),
        ("add extra", r"expected tensor None, found extra"),
    ])
    def test_tensor_names_must_follow_the_layout(
        self, tmp_path, model_and_vocab, edit, message
    ):
        # a missing, extra, renamed or moved key would shift every later
        # tensor in the file
        model, vocab = model_and_vocab
        verb, name = edit.split()
        tensors = model.tensors
        if verb == "drop":
            del tensors[name]
        elif verb == "rename":
            model.tensors = {
                (k[:-1] + k[-1].swapcase() if k == name else k): t for k, t in tensors.items()
            }
        elif verb == "move":
            tensors[name] = tensors.pop(name)
        else:
            tensors[name] = np.zeros(2)
        with pytest.raises(ValueError, match=message):
            save_checkpoint(tmp_path / "m.ckpt", model, vocab)
        assert not (tmp_path / "m.ckpt").exists()

    def test_wrong_layer_input_size_names_the_tensor(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        U = model.tensors["layers.1.fwd.U"]
        model.tensors["layers.1.fwd.U"] = np.zeros((U.shape[0], U.shape[1] + 1))
        with pytest.raises(ValueError, match=r"tensor layers\.1\.fwd\.U has shape"):
            save_checkpoint(tmp_path / "m.ckpt", model, vocab)
        assert not (tmp_path / "m.ckpt").exists()

    def test_float32_overflow_names_the_tensor_before_opening(self, tmp_path, model_and_vocab):
        model, vocab = model_and_vocab
        W = model.tensors["layers.0.bwd.W"].astype(np.float64)  # init gives float32
        W[2, 1] = 1e39  # finite in float64, inf in float32
        model.tensors["layers.0.bwd.W"] = W
        with pytest.raises(InternalError, match=r"tensor layers\.0\.bwd\.W overflows") as exc:
            save_checkpoint(tmp_path / "m.ckpt", model, vocab)
        assert exc.value.module == "checkpoint"
        assert not (tmp_path / "m.ckpt").exists()
