import dataclasses

import numpy as np
import pytest

from conftest import (
    cell_step,
    fd_tensor_gradient,
    max_rel_err,
    model_loss,
    random_cell,
    random_model,
    scalar_cell,
    scalar_cell_oracle,
)

from botlstm.embeddings import TRAINABLE_INIT_RANGE
from botlstm.nn_core import (
    BiLstmLayer,
    LstmCellParams,
    ModelConfig,
    ModelParams,
    _direction_pass,
    backward,
    backward_batch,
    bilstm_forward,
    forward_batch,
    init_params,
    sigmoid,
    stable_softmax,
)
from botlstm.text_pipeline import PAD_ID
from botlstm.trainer import CHUNK


def zero_cell(hidden, d_in):
    z = np.zeros
    return LstmCellParams(
        U=z((4 * hidden, d_in)), W=z((4 * hidden, hidden)),
        V=z(3 * hidden), b=z(4 * hidden),
    )


class TestCellParams:
    def test_fields_are_the_four_blocks(self):
        p = random_cell(np.random.default_rng(3), 3, 2)
        assert [f.name for f in dataclasses.fields(p)] == ["U", "W", "V", "b"]
        assert [name for name, _ in p.named_tensors()] == ["U", "W", "V", "b"]
        assert (p.U.shape, p.W.shape, p.V.shape, p.b.shape) == (
            (12, 2), (12, 3), (9,), (12,)
        )
        assert (p.hidden_size, p.input_size) == (3, 2)


class TestCellForward:
    def test_zero_case(self):
        p = zero_cell(3, 2)
        h, c, i, f, _, o, _ = cell_step(p, np.zeros(2), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_allclose(i, 0.5)
        np.testing.assert_allclose(f, 0.5)
        np.testing.assert_allclose(o, 0.5)

    def test_saturated_gates_preserve_cell(self):
        # bias 100 is a saturation surrogate: gates pin to ~1
        p = zero_cell(1, 1)
        p.b[[0, 1, 3]] = 100.0  # gates i, f, o
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
        U_c = p.U[2 * H : 3 * H]
        W_c = p.W[2 * H : 3 * H]
        U_c[:] = rng.uniform(-1, 1, (H, D))
        W_c[:] = rng.uniform(-1, 1, (H, H))
        p.b[:H] = 100.0  # i
        p.b[H : 2 * H] = -100.0  # f
        p.b[3 * H :] = 100.0  # o
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
            _direction_pass(p, x, ran).h, _direction_pass(p, x[::-1], ran).h[::-1]
        )

    def test_zero_params_zero_states(self):
        p = zero_cell(3, 2)
        x = np.random.default_rng(0).standard_normal((5, 1, 2))
        out = _direction_pass(p, x, np.ones((5, 1), dtype=bool)).h[:, 0]
        np.testing.assert_array_equal(out, np.zeros((5, 3)))

    def test_inactive_steps_carry_state(self):
        rng = np.random.default_rng(11)
        p = random_cell(rng, 3, 2)
        x = rng.standard_normal((4, 1, 2))
        active = np.array([True, False, True, True])[:, None]
        out = _direction_pass(p, x, active).h[:, 0]
        np.testing.assert_array_equal(out[1], out[0])
        compact = _direction_pass(p, x[[0, 2, 3]], np.ones((3, 1), dtype=bool)).h[:, 0]
        np.testing.assert_allclose(out[[0, 2, 3]], compact, atol=1e-15)


class TestBilstmForward:
    @pytest.fixture
    def model(self):
        return random_model(np.random.default_rng(21), 9, 4, 3, 2)

    def test_probabilities_normalized(self, model):
        rng = np.random.default_rng(2)
        for _ in range(30):
            ids = rng.integers(0, 9, size=rng.integers(1, 12))
            trace = bilstm_forward(model, ids)
            assert abs(trace.probabilities.sum() - 1.0) <= 1e-12
            assert np.all(trace.probabilities > 0.0)
            assert np.all(trace.probabilities < 1.0)

    def test_zero_softmax_uniform(self, model):
        model.softmax_W[:] = 0.0
        model.softmax_b[:] = 0.0
        trace = bilstm_forward(model, [6, 7, 8])
        np.testing.assert_array_equal(trace.probabilities, [0.5, 0.5])

    def test_eval_mode_deterministic(self, model):
        a = bilstm_forward(model, [6, 1, 7])
        b = bilstm_forward(model, [6, 1, 7])
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        np.testing.assert_array_equal(a.classifier_input, b.classifier_input)

    def test_empty_ids_rejected(self, model):
        with pytest.raises(ValueError, match="non-empty"):
            bilstm_forward(model, [])

    def test_bad_dropout_rate_rejected(self, model):
        with pytest.raises(ValueError, match="dropout_rate"):
            forward_batch(model, [[6]], dropout_rate=1.0, seeds=[0])
        with pytest.raises(ValueError, match="dropout_rate"):
            forward_batch(model, [[6]], dropout_rate=-0.1, seeds=[0])

    def test_boundary_padding_ignored(self, model):
        # state-carrying PAD steps: padding cannot change the classifier input
        plain = bilstm_forward(model, [6, 7, 8])
        padded = bilstm_forward(model, [0, 6, 7, 8, 0, 0])
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

        swapped_layers = []
        for li, layer in enumerate(model.layers):
            fwd, bwd = layer.bwd, layer.fwd
            if li > 0:
                fwd = LstmCellParams(
                    **{
                        name: swap_cols(arr) if name == "U" else arr.copy()
                        for name, arr in fwd.named_tensors()
                    }
                )
                bwd = LstmCellParams(
                    **{
                        name: swap_cols(arr) if name == "U" else arr.copy()
                        for name, arr in bwd.named_tensors()
                    }
                )
            swapped_layers.append(BiLstmLayer(fwd=fwd, bwd=bwd))
        swapped = ModelParams(
            embedding=model.embedding,
            layers=swapped_layers,
            softmax_W=swap_cols(model.softmax_W),
            softmax_b=model.softmax_b,
        )

        orig = bilstm_forward(model, ids)
        mirror = bilstm_forward(swapped, list(reversed(ids)))
        np.testing.assert_allclose(
            mirror.classifier_input,
            np.concatenate((orig.classifier_input[H:], orig.classifier_input[:H])),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            mirror.probabilities, orig.probabilities, atol=1e-12
        )

    def test_dropout_expectation(self, model):
        # inverted dropout keeps each unit's expected output: E[keep * scale] = 1
        n = 2_000
        trace = forward_batch(model, [[6, 7, 8, 6]] * n, 0.5, seeds=range(n))
        assert trace.dropout_scale == 2.0
        for lt in trace.layers:
            assert abs((lt.keep * trace.dropout_scale).mean() - 1.0) < 0.02


class TestBackwardBasics:
    @pytest.fixture
    def model(self):
        return random_model(np.random.default_rng(55), 9, 4, 3, 2)

    def test_softmax_gradient_identity(self, model):
        trace = bilstm_forward(model, [6, 1, 7])
        grads = backward(model, trace, label=0)
        expected = trace.probabilities.copy()
        expected[0] -= 1.0
        np.testing.assert_array_equal(grads["softmax.b"], expected)

    def test_accumulation_linearity(self, model):
        trace = bilstm_forward(model, [6, 1, 7])
        g1 = backward(model, trace, label=1)
        g2 = backward(model, trace, label=1)
        for name in g1:
            np.testing.assert_array_equal(g1[name] + g2[name], 2.0 * g1[name])

    def test_fixed_embedding_rows_get_zero_gradient(self, model):
        # frozen rows have no gradient entry at all: the dict is keyed and
        # shaped like trainable_tensors(), the embedding cut to rows 1..5
        trace = bilstm_forward(model, [6, 1, 7, 8])
        grads = backward(model, trace, label=1)
        shapes = {name: t.shape for name, t in model.trainable_tensors()}
        assert {name: g.shape for name, g in grads.items()} == shapes
        assert shapes["embedding.vectors"] == (5, model.embedding.dim)

    def test_pad_positions_send_no_embedding_gradient(self, model):
        trace = bilstm_forward(model, [0, 6, 0, 7, 0])
        grads = backward(model, trace, label=1)
        np.testing.assert_array_equal(grads["embedding.vectors"], 0.0)

    def test_oov_gradient_matches_finite_differences(self, model):
        ids = [1, 6, 1, 7]
        trace = bilstm_forward(model, ids)
        grads = backward(model, trace, label=0)
        rows = dict(model.trainable_tensors())["embedding.vectors"]
        fd = fd_tensor_gradient(model, rows, ids, 0)
        assert max_rel_err(fd, grads["embedding.vectors"]) < 1e-4

    def test_full_gradient_check_small_model(self):
        rng = np.random.default_rng(77)
        small = random_model(rng, 9, 3, 2, 2)
        ids = [6, 1, 0, 7]  # word, OOV, PAD, word
        trace = bilstm_forward(small, ids)
        grads = backward(small, trace, 1)
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
        assert not all(lt.keep.all() for lt in trace.layers)
        grads = small.zero_grads()
        backward_batch(small, trace, [0], grads)
        for name, tensor in small.trainable_tensors():
            fd = fd_tensor_gradient(small, tensor, ids, 0, rate=rate, seed=seed)
            assert max_rel_err(fd, grads[name]) < 1e-4, name

    def test_label_validation(self, model):
        trace = bilstm_forward(model, [6])
        with pytest.raises(ValueError, match="label"):
            backward(model, trace, label=2)

    def test_trace_model_mismatch(self, model):
        trace = bilstm_forward(model, [6])
        other = random_model(np.random.default_rng(1), 9, 4, 3, 1)
        with pytest.raises(ValueError, match="depth"):
            backward(other, trace, label=0)

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
            one = bilstm_forward(model, s)
            np.testing.assert_allclose(
                batch.probabilities[b], one.probabilities, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                batch.classifier_input[b], one.classifier_input, rtol=0, atol=1e-12
            )

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
            for lt in trace.layers:
                drawn = rng.random((len(s), width)) >= self.RATE
                assert np.array_equal(lt.keep[: len(s), b], drawn)
                assert not lt.keep[len(s) :, b].any()

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

    def test_dropout_needs_a_seed_per_sequence(self, case):
        model, seqs, _, seeds = case
        with pytest.raises(ValueError, match="seed"):
            forward_batch(model, seqs[:3], self.RATE)
        with pytest.raises(ValueError, match="seed"):
            forward_batch(model, seqs[:3], self.RATE, seeds[:2])


class TestInitParams:
    def test_seed_determinism(self):
        cfg = ModelConfig(vocab_size=10, embed_dim=4, hidden=5, layers=2)
        a = init_params(cfg, rng_seed=7)
        b = init_params(cfg, rng_seed=7)
        for (name_a, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            np.testing.assert_array_equal(ta, tb, err_msg=name_a)

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
        got = dict(model.named_tensors())
        assert list(got) == list(expected)
        for name, tensor in expected.items():
            np.testing.assert_array_equal(got[name], tensor, err_msg=name)

    def test_forget_bias_one(self):
        model = init_params(ModelConfig(10, 4, 5, 2), rng_seed=0)
        for layer in model.layers:
            for cell in (layer.fwd, layer.bwd):
                np.testing.assert_array_equal(cell.b[5:10], np.ones(5))  # forget
                np.testing.assert_array_equal(cell.b[:5], np.zeros(5))
                np.testing.assert_array_equal(cell.b[10:], np.zeros(10))
                np.testing.assert_array_equal(cell.V, np.zeros(15))

    def test_glorot_bounds(self):
        model = init_params(ModelConfig(10, 4, 5, 3), rng_seed=1)
        for li, layer in enumerate(model.layers):
            d_in = 4 if li == 0 else 10
            u_limit = np.sqrt(6.0 / (d_in + 5))
            w_limit = np.sqrt(6.0 / 10)
            for cell in (layer.fwd, layer.bwd):
                assert cell.U.shape == (20, d_in) and cell.W.shape == (20, 5)
                assert np.max(np.abs(cell.U)) <= u_limit
                assert np.max(np.abs(cell.W)) <= w_limit
        s_limit = np.sqrt(6.0 / (10 + 2))
        assert np.max(np.abs(model.softmax_W)) <= s_limit
        np.testing.assert_array_equal(model.softmax_b, np.zeros(2))

    def test_layer_input_dims(self):
        model = init_params(ModelConfig(10, 4, 5, 3), rng_seed=0)
        assert model.layers[0].fwd.input_size == 4
        assert model.layers[1].fwd.input_size == 10
        assert model.layers[2].bwd.input_size == 10

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=0, embed_dim=4)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=4, embed_dim=4, hidden=-1)

    def test_pad_row_zero_in_random_table(self):
        model = init_params(ModelConfig(10, 4, 5, 1), rng_seed=0)
        np.testing.assert_array_equal(model.embedding.vectors[0], np.zeros(4))
        assert list(np.flatnonzero(model.embedding.trainable_mask)) == [1, 2, 3, 4, 5]


class TestNumericHelpers:
    def test_sigmoid_extremes(self):
        x = np.array([-1000.0, -100.0, 0.0, 100.0, 1000.0])
        s = sigmoid(x)
        assert s[0] == 0.0 and s[-1] == 1.0
        assert s[2] == 0.5
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_softmax_large_logits(self):
        p = stable_softmax(np.array([1000.0, -1000.0]))
        assert p[0] == 1.0 and p[1] == 0.0
        p = stable_softmax(np.array([3.0, 3.0]))
        np.testing.assert_allclose(p, [0.5, 0.5])
