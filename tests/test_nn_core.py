import numpy as np
import pytest

from conftest import (
    cast_model,
    cell_shapes,
    cell_step,
    fd_tensor_gradient,
    max_rel_err,
    model_loss,
    random_cell,
    random_model,
    scalar_cell,
    scalar_cell_oracle,
    sequence_grads,
    traced_peak,
)

from botlstm.embeddings import (
    TRAINABLE_INIT_RANGE, TRAINABLE_ROWS, EmbeddingTable, embed_sequence,
)
from botlstm.nn_core import (
    ModelConfig,
    ModelParams,
    _cell,
    _direction_pass,
    _gates,
    _layer_output,
    backward_batch,
    forward_batch,
    init_params,
    sigmoid,
    stable_softmax,
)
from botlstm.text_pipeline import PAD_ID
from botlstm.trainer import CHUNK, SCORE_CHUNK


def zero_cell(hidden, d_in):
    return {t: np.zeros(s) for t, s in cell_shapes(hidden, d_in).items()}


class TestCellParams:
    def test_fields_are_the_four_blocks(self):
        p = random_cell(np.random.default_rng(3), 3, 2)
        assert list(p) == ["U", "W", "V", "b"]
        assert (p["U"].shape, p["W"].shape, p["V"].shape, p["b"].shape) == (
            (12, 2), (12, 3), (9,), (12,)
        )

    def test_cell_picks_the_named_blocks_of_params_and_grads(self):
        model = random_model(np.random.default_rng(3), 9, 2, 3, 2)
        for d in (model.tensors, model.zero_grads()):
            cell = _cell(d, 1, "bwd")
            assert list(cell) == ["U", "W", "V", "b"]
            for t, block in cell.items():
                assert block is d[f"layers.1.bwd.{t}"]  # not copied
        assert _cell(model.tensors, 1, "bwd")["U"].shape == (12, 6)

    def test_layers_are_the_fwd_bwd_cells_in_order(self):
        model = random_model(np.random.default_rng(4), 9, 2, 3, 3)
        assert len(model.layers) == 3
        for li, cells in enumerate(model.layers):
            for cell, direction in zip(cells, ("fwd", "bwd")):
                for t, block in cell.items():
                    assert block is model.tensors[f"layers.{li}.{direction}.{t}"]
        assert model.hidden == 3
        assert model.config() == ModelConfig(9, 2, 3, 3)


class TestCellForward:
    def test_zero_case(self):
        p = zero_cell(3, 2)
        h, c, i, f, _, o = cell_step(p, np.zeros(2), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_allclose(i, 0.5)
        np.testing.assert_allclose(f, 0.5)
        np.testing.assert_allclose(o, 0.5)

    def test_saturated_gates_preserve_cell(self):
        # bias 100 is a saturation surrogate: gates pin to ~1
        p = zero_cell(1, 1)
        p["b"][[0, 1, 3]] = 100.0  # gates i, f, o
        h, c, *_ = cell_step(p, np.zeros(1), np.zeros(1), np.array([3.0]))
        np.testing.assert_allclose(c, [3.0], atol=1e-12)
        np.testing.assert_allclose(h, [np.tanh(3.0)], atol=1e-12)
        assert abs(h[0] - 0.9951) < 1e-4

    def test_scalar_oracle_small(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            params = rng.standard_normal(15)
            x, h_prev, c_prev = rng.standard_normal(3)
            p = scalar_cell(params)
            h, c, *_ = cell_step(
                p, np.array([x]), np.array([h_prev]), np.array([c_prev])
            )
            oh, oc = scalar_cell_oracle(params, x, h_prev, c_prev)
            assert abs(h[0] - oh) < 1e-12
            assert abs(c[0] - oc) < 1e-12

    def test_forced_gates_reduce_to_vanilla_rnn(self):
        # i=1, f=0, o=1 turns the cell update into h = tanh(U_c x + W_c h_prev);
        # that state lives in c_t (h_t is its tanh-squashed readout)
        rng = np.random.default_rng(3)
        H, D = 4, 3
        p = zero_cell(H, D)
        U_c = p["U"][2 * H : 3 * H]
        W_c = p["W"][2 * H : 3 * H]
        U_c[:] = rng.uniform(-1, 1, (H, D))
        W_c[:] = rng.uniform(-1, 1, (H, H))
        p["b"][:H] = 100.0  # i
        p["b"][H : 2 * H] = -100.0  # f
        p["b"][3 * H :] = 100.0  # o
        for _ in range(50):
            x = rng.standard_normal(D)
            h_prev = rng.standard_normal(H)
            c_prev = rng.standard_normal(H)
            h, c, *_ = cell_step(p, x, h_prev, c_prev)
            rnn = np.tanh(U_c @ x + W_c @ h_prev)
            np.testing.assert_allclose(c, rnn, atol=1e-3)
            np.testing.assert_allclose(h, np.tanh(c), atol=1e-12)


class TestRunDirection:
    # _direction_pass scans a [T, B, D] batch; these run one column (B=1)

    def test_single_step_has_no_direction(self):
        rng = np.random.default_rng(5)
        p = random_cell(rng, 3, 4)
        x = rng.standard_normal((1, 1, 4))
        ran = np.ones((1, 1), dtype=bool)
        np.testing.assert_array_equal(
            _direction_pass(p, x, ran)[0], _direction_pass(p, x[::-1], ran)[0][::-1]
        )

    def test_zero_params_zero_states(self):
        p = zero_cell(3, 2)
        x = np.random.default_rng(0).standard_normal((5, 1, 2))
        out = _direction_pass(p, x, np.ones((5, 1), dtype=bool))[0][:, 0]
        np.testing.assert_array_equal(out, np.zeros((5, 3)))

    def test_inactive_steps_carry_state(self):
        rng = np.random.default_rng(11)
        p = random_cell(rng, 3, 2)
        x = rng.standard_normal((4, 1, 2))
        active = np.array([True, False, True, True])[:, None]
        out = _direction_pass(p, x, active)[0][:, 0]
        np.testing.assert_array_equal(out[1], out[0])
        compact = _direction_pass(p, x[[0, 2, 3]], np.ones((3, 1), dtype=bool))[0][:, 0]
        np.testing.assert_allclose(out[[0, 2, 3]], compact, atol=1e-15)

    def test_only_a_training_scan_keeps_c_and_gates(self):
        rng = np.random.default_rng(13)
        p = random_cell(rng, 3, 2)
        x = rng.standard_normal((4, 2, 2))
        ran = np.array([[True, True], [True, False], [True, False], [False, False]])
        h, c, gates = _direction_pass(p, x, ran)
        assert c is None and gates is None
        h_kept, c_kept, gates_kept = _direction_pass(p, x, ran, keep_gates=True)
        assert h_kept.tobytes() == h.tobytes()
        assert c_kept.shape == h.shape and gates_kept.shape == (4, 2, 12)


class TestBilstmForward:
    @pytest.fixture
    def model(self):
        return random_model(np.random.default_rng(21), 9, 4, 3, 2)

    def test_probabilities_normalized(self, model):
        rng = np.random.default_rng(2)
        for _ in range(30):
            ids = rng.integers(0, 9, size=rng.integers(1, 12))
            p = forward_batch(model, [ids]).probabilities[0]
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0.0)
            assert np.all(p < 1.0)

    def test_zero_softmax_uniform(self, model):
        model.tensors["softmax.W"][:] = 0.0
        model.tensors["softmax.b"][:] = 0.0
        trace = forward_batch(model, [[6, 7, 8]])
        np.testing.assert_array_equal(trace.probabilities[0], [0.5, 0.5])

    def test_eval_mode_deterministic(self, model):
        a = forward_batch(model, [[6, 1, 7]])
        b = forward_batch(model, [[6, 1, 7]])
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        np.testing.assert_array_equal(a.classifier_input, b.classifier_input)

    def test_empty_ids_rejected(self, model):
        with pytest.raises(ValueError, match="non-empty"):
            forward_batch(model, [[]])

    def test_bad_dropout_rate_rejected(self, model):
        with pytest.raises(ValueError, match="dropout_rate"):
            forward_batch(model, [[6]], dropout_rate=1.0, seeds=[0])
        with pytest.raises(ValueError, match="dropout_rate"):
            forward_batch(model, [[6]], dropout_rate=-0.1, seeds=[0])

    def test_boundary_padding_ignored(self, model):
        # state-carrying PAD steps: padding cannot change the classifier input
        # boundary or inner: a sequence's only inner PAD is the account
        # separator, or a tweet's literal "<PAD>" text
        plain = forward_batch(model, [[6, 7, 8]])
        for ids in ([0, 6, 7, 8, 0, 0], [6, 0, 7, 8]):
            padded = forward_batch(model, [ids])
            np.testing.assert_allclose(
                plain.classifier_input, padded.classifier_input, atol=1e-15
            )

    def test_direction_symmetry_block_swap(self):
        # swapping fwd/bwd parameter sets (and the concat column blocks they
        # read) while reversing the input block-swaps the classifier input
        rng = np.random.default_rng(33)
        H = 3
        model = random_model(rng, 9, 4, H, 3)
        ids = [6, 7, 8, 6, 7]

        def swap_cols(arr):
            return np.concatenate((arr[:, H:], arr[:, :H]), axis=1)

        swapped = {}
        for name, arr in model.tensors.items():
            if name.startswith("layers."):
                _, li, direction, t = name.split(".")
                other = "bwd" if direction == "fwd" else "fwd"
                arr = model.tensors[f"layers.{li}.{other}.{t}"]
                if t == "U" and li != "0":
                    arr = swap_cols(arr)
            elif name == "softmax.W":
                arr = swap_cols(arr)
            swapped[name] = arr
        swapped = ModelParams(swapped)

        orig = forward_batch(model, [ids])
        mirror = forward_batch(swapped, [list(reversed(ids))])
        np.testing.assert_allclose(
            mirror.classifier_input, swap_cols(orig.classifier_input), atol=1e-12
        )
        np.testing.assert_allclose(
            mirror.probabilities, orig.probabilities, atol=1e-12
        )

    def test_dropout_expectation(self, model):
        # inverted dropout keeps each unit's expected output: E[keep * scale] = 1
        n = 2_000
        trace = forward_batch(model, [[6, 7, 8, 6]] * n, 0.5, seeds=range(n))
        assert trace.dropout_scale == 2.0
        assert trace.keep.shape == (len(model.layers), 4, n, 2 * model.hidden)
        for keep in trace.keep:
            assert abs((keep * trace.dropout_scale).mean() - 1.0) < 0.02


class TestBackwardBasics:
    @pytest.fixture
    def model(self):
        return random_model(np.random.default_rng(55), 9, 4, 3, 2)

    def test_softmax_gradient_identity(self, model):
        grads = sequence_grads(model, [6, 1, 7], 0)
        expected = forward_batch(model, [[6, 1, 7]]).probabilities[0].copy()
        expected[0] -= 1.0
        np.testing.assert_array_equal(grads["softmax.b"], expected)

    def test_accumulation_linearity(self, model):
        # a trace serves one backward_batch: two runs under the same seed add up
        # to twice one run's gradients
        def run(grads):
            backward_batch(model, forward_batch(model, [[6, 1, 7]], 0.3, [5]), [1], grads)

        once, twice = model.zero_grads(), model.zero_grads()
        run(once)
        run(twice)
        run(twice)
        for name in once:
            np.testing.assert_array_equal(twice[name], 2.0 * once[name])

    def test_fixed_embedding_rows_get_zero_gradient(self, model):
        # frozen rows have no gradient entry at all: the dict is keyed and
        # shaped like trainable_tensors(), the embedding cut to rows 1..5
        grads = sequence_grads(model, [6, 1, 7, 8], 1)
        shapes = {name: t.shape for name, t in model.trainable_tensors()}
        assert {name: g.shape for name, g in grads.items()} == shapes
        assert shapes["embedding.vectors"] == (5, model.config().embed_dim)

    def test_pad_positions_send_no_embedding_gradient(self, model):
        grads = sequence_grads(model, [0, 6, 0, 7, 0], 1)
        np.testing.assert_array_equal(grads["embedding.vectors"], 0.0)

    def test_oov_gradient_matches_finite_differences(self, model):
        ids = [1, 6, 1, 7]
        grads = sequence_grads(model, ids, 0)
        rows = dict(model.trainable_tensors())["embedding.vectors"]
        fd = fd_tensor_gradient(model, rows, ids, 0)
        assert max_rel_err(fd, grads["embedding.vectors"]) < 1e-4

    def test_full_gradient_check_small_model(self):
        rng = np.random.default_rng(77)
        small = random_model(rng, 9, 3, 2, 2)
        ids = [6, 1, 0, 7]  # word, OOV, PAD, word
        grads = sequence_grads(small, ids, 1)
        for name, tensor in small.trainable_tensors():
            fd = fd_tensor_gradient(small, tensor, ids, 1)
            assert max_rel_err(fd, grads[name]) < 1e-4, name

    def test_gradient_check_through_seeded_dropout(self):
        # a fixed seed draws the same masks in every finite-difference call
        rng = np.random.default_rng(78)
        small = random_model(rng, 9, 3, 2, 2)
        ids = [1, 6, 7, 8]
        rate, seed = 0.4, 5
        trace = forward_batch(small, [ids], rate, [seed])
        assert not all(keep.all() for keep in trace.keep)
        grads = small.zero_grads()
        backward_batch(small, trace, [0], grads)
        for name, tensor in small.trainable_tensors():
            fd = fd_tensor_gradient(small, tensor, ids, 0, rate=rate, seed=seed)
            assert max_rel_err(fd, grads[name]) < 1e-4, name

    def test_label_validation(self, model):
        with pytest.raises(ValueError, match="label"):
            sequence_grads(model, [6], 2)

    @pytest.mark.parametrize("hidden, layers, match", [(3, 1, "depth"), (5, 2, "hidden size")])
    def test_trace_model_mismatch(self, model, hidden, layers, match):
        trace = forward_batch(model, [[6]], 0.0, [0])
        other = random_model(np.random.default_rng(1), 9, 4, hidden, layers)
        with pytest.raises(ValueError, match=match):
            backward_batch(other, trace, [0], other.zero_grads())

    def test_loss_finite_for_finite_params(self, model):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ids = rng.integers(1, 9, size=rng.integers(1, 10))
            assert np.isfinite(model_loss(model, ids, int(rng.integers(0, 2))))


class TestBatchedPath:
    """forward_batch/backward_batch against the one-sequence calls, column by column."""

    RATE = 0.3

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(91)
        model = random_model(rng, 12, 5, 4, 3)
        n = 2 * CHUNK + 5  # not a multiple of the chunk
        lengths = rng.integers(1, 13, size=n)
        lengths[:3] = (12, 6, 1)  # column 1 ends 6 steps before column 0
        seqs = [rng.integers(1, 12, size=k) for k in lengths]
        for s in seqs[3::3]:
            s[len(s) // 2] = PAD_ID  # internal (or, at length 1 or 2, boundary) PAD
        seqs[4][0] = PAD_ID
        labels = rng.integers(0, 2, size=n)
        seeds = rng.integers(0, np.iinfo(np.int64).max, size=n)
        return model, seqs, labels, seeds

    def test_forward_matches_one_sequence_calls(self, case):
        model, seqs, _, _ = case
        batch = forward_batch(model, seqs)
        for b, s in enumerate(seqs):
            one = forward_batch(model, [s])
            np.testing.assert_allclose(
                batch.probabilities[b], one.probabilities[0], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                batch.classifier_input[b], one.classifier_input[0], rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_paper_shape_sequence_scores_alike_alone_and_in_a_chunk(self, dtype):
        # bitwise: a sequence scored alone gets the bits of its row in a full
        # scoring chunk
        rng = np.random.default_rng(29)
        model = random_model(rng, vocab_size=60, dim=200, hidden=200, layers=3)
        for name, tensor in model.tensors.items():
            if name == "embedding.vectors":
                tensor[...] = rng.uniform(-1.0, 1.0, tensor.shape)
            else:
                tensor *= 3.0
        model = cast_model(model, dtype)
        lengths = rng.integers(1, 31, size=SCORE_CHUNK)
        lengths[:2] = (1, 30)
        seqs = [rng.integers(1, 60, size=k) for k in lengths]
        chunk = forward_batch(model, seqs)
        assert chunk.probabilities.dtype == dtype
        for b, s in enumerate(seqs):
            alone = forward_batch(model, [s])
            np.testing.assert_array_equal(alone.probabilities[0], chunk.probabilities[b])
            np.testing.assert_array_equal(alone.classifier_input[0], chunk.classifier_input[b])

    def test_chunked_gradient_sum_matches_per_sequence_sum(self, case):
        model, seqs, labels, seeds = case
        grads = model.zero_grads()
        for lo in range(0, len(seqs), CHUNK):
            trace = forward_batch(model, seqs[lo : lo + CHUNK], self.RATE, seeds[lo : lo + CHUNK])
            backward_batch(model, trace, labels[lo : lo + CHUNK], grads)
        ref = model.zero_grads()
        for s, label, seed in zip(seqs, labels, seeds):
            backward_batch(model, forward_batch(model, [s], self.RATE, [seed]), [label], ref)
        for name, g in ref.items():
            assert np.abs(grads[name] - g).max() <= 1e-10 * np.abs(g).max(), name

    def test_keep_masks_are_the_per_sequence_draws(self, case):
        model, seqs, _, seeds = case
        trace = forward_batch(model, seqs, self.RATE, seeds)
        assert trace.dropout_scale == 1.0 / (1.0 - self.RATE)
        width = 2 * model.hidden
        for b, (s, seed) in enumerate(zip(seqs, seeds)):
            rng = np.random.default_rng(int(seed))
            for keep in trace.keep:
                drawn = rng.random((len(s), width)) >= self.RATE
                assert np.array_equal(keep[: len(s), b], drawn)
                assert not keep[len(s) :, b].any()

    def test_training_trace_keeps_the_scans_gates(self, case):
        # each step's [i|f|g|o] is, bitwise, what _gates gives from the layer's
        # input and the h and c tracks, summed the way the scan sums them
        model, seqs, _, seeds = case
        trace = forward_batch(model, seqs, self.RATE, seeds)
        H = model.hidden
        ran = trace.ids != PAD_ID
        x = embed_sequence(model.tensors["embedding.vectors"], trace.ids)
        for li, cells in enumerate(model.layers):
            scans = zip(cells, trace.tracks[li], (x, x[::-1]), (ran, ran[::-1]))
            for p, (h, c, gates), X, r in scans:
                T, B, D = X.shape
                assert gates.shape == (T, B, 4 * H)
                XU = (X.reshape(T * B, D) @ p["U"].T).reshape(T, B, 4 * H)
                WT = np.ascontiguousarray(p["W"].T)
                zero = np.zeros((B, H))
                for t in range(T):
                    h_prev, c_prev = (h[t - 1], c[t - 1]) if t else (zero, zero)
                    _, _, *ifgo = _gates(XU[t] + h_prev @ WT + p["b"], p["V"], c_prev, H)
                    expected = np.concatenate(ifgo, axis=1)
                    assert gates[t][r[t]].tobytes() == expected[r[t]].tobytes(), (li, t)
            x = _layer_output(trace.tracks[li], trace.keep, li, trace.dropout_scale)

    def test_backward_spends_the_trace(self, case):
        # a second backward_batch is refused before it adds any gradient, and the
        # trace keeps its probabilities through both calls
        model, seqs, labels, seeds = case
        trace = forward_batch(model, seqs[:CHUNK], self.RATE, seeds[:CHUNK])
        probabilities = trace.probabilities.tobytes()
        backward_batch(model, trace, labels[:CHUNK], model.zero_grads())
        assert trace.tracks == []
        grads = model.zero_grads()
        with pytest.raises(ValueError, match="spent"):
            backward_batch(model, trace, labels[:CHUNK], grads)
        assert not any(g.any() for g in grads.values())
        assert trace.probabilities.tobytes() == probabilities

    def test_scoring_trace_keeps_no_gates_and_is_refused(self, case):
        model, seqs, _, _ = case
        trace = forward_batch(model, seqs)
        assert trace.tracks == []
        with pytest.raises(ValueError, match="pass seeds"):
            backward_batch(model, trace, [0] * len(seqs), model.zero_grads())

    def test_scoring_peak_does_not_grow_with_depth(self):
        # a scoring trace keeps no tracks and its pass holds one layer's
        # scans at a time, so six layers peak where three do
        rng = np.random.default_rng(4)
        seqs = [rng.integers(1, 50, size=30) for _ in range(16)]

        def peak(layers):
            model = init_params(ModelConfig(50, 32, 64, layers), rng_seed=0)
            trace, peak = traced_peak(lambda: forward_batch(model, seqs))
            assert trace.tracks == []
            return peak

        three, six = peak(3), peak(6)
        assert six <= 1.05 * three, f"L=6 peaks at {six / three:.2f}x L=3"

    def test_labels_checked(self, case):
        model, seqs, _, _ = case
        trace = forward_batch(model, seqs[:3])
        with pytest.raises(ValueError, match="label"):
            backward_batch(model, trace, [0, 1], model.zero_grads())
        with pytest.raises(ValueError, match="label"):
            backward_batch(model, trace, [0, 1, 2], model.zero_grads())

    def test_empty_input_rejected(self, case):
        model = case[0]
        with pytest.raises(ValueError, match="non-empty"):
            forward_batch(model, [])
        with pytest.raises(ValueError, match="non-empty"):
            forward_batch(model, [[6], []])

    @pytest.mark.parametrize("ids", [[1.7, 2.2], [True, False]], ids=["float", "bool"])
    def test_non_integer_ids_rejected(self, case, ids):
        # a cast would score [1.7, 2.2] as [1, 2] and [True, False] as [1, 0]
        with pytest.raises(ValueError, match="integers, got dtype (float64|bool)"):
            forward_batch(case[0], [[6, 7], ids])

    def test_dropout_needs_a_seed_per_sequence(self, case):
        model, seqs, _, seeds = case
        with pytest.raises(ValueError, match="seed"):
            forward_batch(model, seqs[:3], self.RATE)
        with pytest.raises(ValueError, match="seed"):
            forward_batch(model, seqs[:3], self.RATE, seeds[:2])

    def test_seed_count_checked_without_dropout(self, case):
        model, seqs, _, seeds = case
        with pytest.raises(ValueError, match="one seed per sequence"):
            forward_batch(model, seqs[:3], 0.0, seeds[:2])
        with pytest.raises(ValueError, match="one seed per sequence"):
            forward_batch(model, seqs[:3], 0.0, seeds[:4])


class TestInitParams:
    def test_seed_determinism(self):
        cfg = ModelConfig(vocab_size=10, embed_dim=4, hidden=5, layers=2)
        a = init_params(cfg, rng_seed=7)
        b = init_params(cfg, rng_seed=7)
        assert list(a.tensors) == list(b.tensors)
        for name, ta in a.tensors.items():
            np.testing.assert_array_equal(ta, b.tensors[name], err_msg=name)

    def test_matches_per_gate_draw_sequence(self):
        # the draws of the per-gate layout, in its order: embedding, then per
        # layer and direction U_i, U_f, U_c, U_o, W_i .. W_o, then softmax.W
        model = init_params(ModelConfig(10, 4, 5, 2), rng_seed=7)
        rng = np.random.default_rng(7)

        def glorot(fan_out, fan_in):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, (fan_out, fan_in))

        vectors = rng.uniform(-TRAINABLE_INIT_RANGE, TRAINABLE_INIT_RANGE, (10, 4))
        vectors[0] = 0.0
        expected = {"embedding.vectors": vectors}
        for li, d_in in enumerate((4, 10)):
            for direction in ("fwd", "bwd"):
                prefix = f"layers.{li}.{direction}"
                expected[f"{prefix}.U"] = np.concatenate([glorot(5, d_in) for _ in "ifco"])
                expected[f"{prefix}.W"] = np.concatenate([glorot(5, 5) for _ in "ifco"])
                expected[f"{prefix}.V"] = np.zeros(15)
                expected[f"{prefix}.b"] = np.concatenate(
                    (np.zeros(5), np.ones(5), np.zeros(10))
                )
        expected["softmax.W"] = glorot(2, 10)
        expected["softmax.b"] = np.zeros(2)
        got = model.tensors
        assert list(got) == list(expected)
        for name, tensor in expected.items():
            assert got[name].dtype == np.float32, name
            np.testing.assert_array_equal(got[name], tensor.astype(np.float32), err_msg=name)

    def test_forget_bias_one(self):
        model = init_params(ModelConfig(10, 4, 5, 2), rng_seed=0)
        for cells in model.layers:
            for cell in cells:
                np.testing.assert_array_equal(cell["b"][5:10], np.ones(5))  # forget
                np.testing.assert_array_equal(cell["b"][:5], np.zeros(5))
                np.testing.assert_array_equal(cell["b"][10:], np.zeros(10))
                np.testing.assert_array_equal(cell["V"], np.zeros(15))

    def test_glorot_bounds(self):
        model = init_params(ModelConfig(10, 4, 5, 3), rng_seed=1)
        for li, cells in enumerate(model.layers):
            d_in = 4 if li == 0 else 10
            u_limit = np.sqrt(6.0 / (d_in + 5))
            w_limit = np.sqrt(6.0 / 10)
            for cell in cells:
                assert cell["U"].shape == (20, d_in) and cell["W"].shape == (20, 5)
                assert np.max(np.abs(cell["U"])) <= u_limit
                assert np.max(np.abs(cell["W"])) <= w_limit
        s_limit = np.sqrt(6.0 / (10 + 2))
        assert np.max(np.abs(model.tensors["softmax.W"])) <= s_limit
        np.testing.assert_array_equal(model.tensors["softmax.b"], np.zeros(2))

    def test_layer_input_dims(self):
        model = init_params(ModelConfig(10, 4, 5, 3), rng_seed=0)
        assert model.tensors["layers.0.fwd.U"].shape[1] == 4
        assert model.tensors["layers.1.fwd.U"].shape[1] == 10
        assert model.tensors["layers.2.bwd.U"].shape[1] == 10

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=0, embed_dim=4, hidden=5, layers=1)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=4, embed_dim=4, hidden=-1, layers=1)

    @pytest.mark.parametrize("rows, dim", [(11, 4), (10, 5)], ids=["vocab-size", "dim"])
    def test_table_must_match_the_config(self, rows, dim):
        table = EmbeddingTable(vectors=np.zeros((rows, dim)))
        with pytest.raises(ValueError, match="does not match the configured vocab/dim"):
            init_params(ModelConfig(10, 4, 5, 1), rng_seed=0, embedding=table)

    def test_float64_table_gives_a_float32_model(self):
        table = EmbeddingTable(vectors=np.zeros((10, 4)))
        model = init_params(ModelConfig(10, 4, 5, 2), rng_seed=0, embedding=table)
        for name, tensor in model.tensors.items():
            assert tensor.dtype == np.float32, name

    def test_pad_row_zero_in_random_table(self):
        model = init_params(ModelConfig(10, 4, 5, 1), rng_seed=0)
        np.testing.assert_array_equal(model.tensors["embedding.vectors"][0], np.zeros(4))
        assert range(10)[TRAINABLE_ROWS] == range(1, 6)


class TestDtype:
    """The math runs in the dtype of the model's tensors."""

    @pytest.mark.parametrize("seed", range(5))
    def test_float32_gradients_match_float64(self, seed):
        rng = np.random.default_rng(seed)
        m32 = cast_model(random_model(rng, 9, 4, 3, 2), np.float32)
        m64 = cast_model(m32, np.float64)
        seqs = [rng.integers(1, 9, size=k) for k in (7, 4, 1)]
        seqs[0][3] = PAD_ID
        labels = [1, 0, 1]
        seeds = rng.integers(0, np.iinfo(np.int64).max, size=3)

        def run(model):
            trace = forward_batch(model, seqs, 0.3, seeds)
            dtypes = {a.dtype for scans in trace.tracks for scan in scans for a in scan}
            grads = model.zero_grads()
            backward_batch(model, trace, labels, grads)  # spends the tracks
            return trace, dtypes, grads

        (_, _, g64), (trace, dtypes, g32) = run(m64), run(m32)
        assert dtypes == {np.dtype(np.float32)}
        assert trace.probabilities.dtype == np.float32
        for name, g in g32.items():
            assert g.dtype == np.float32, name
            assert max_rel_err(g64[name], g, floor=1e-2) <= 1e-4, name


class TestNumericHelpers:
    def test_sigmoid_extremes(self):
        x = np.array([-1000.0, -100.0, 0.0, 100.0, 1000.0])
        s = sigmoid(x)
        assert s[0] == 0.0 and s[-1] == 1.0
        assert s[2] == 0.5
        assert np.all((s >= 0.0) & (s <= 1.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_equals_two_division_form_bitwise(self, dtype):
        # sigmoid divides once and picks its numerator without a branch;
        # the form with one division per branch gives the same IEEE result.
        # Edges: subnormals, and where float32 and float64 exp under- and
        # overflow (+-88.7, +-103.98; +-710)
        edges = [0.0, -0.0, 1e-40, -1e-40, 1e-300, -1e-300, 20.0, -20.0, 88.7, -88.7,
                 103.98, -103.98, 710.0, -710.0, np.inf, -np.inf, np.nan]
        x = np.concatenate((edges, np.random.default_rng(3).normal(0.0, 8.0, 1000))).astype(dtype)
        e = np.exp(-np.abs(x))
        old = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert old.dtype == dtype
        assert sigmoid(x).tobytes() == old.tobytes()

    def test_softmax_large_logits(self):
        p = stable_softmax(np.array([1000.0, -1000.0]))
        assert p[0] == 1.0 and p[1] == 0.0
        p = stable_softmax(np.array([3.0, 3.0]))
        np.testing.assert_allclose(p, [0.5, 0.5])
