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
    bilstm_forward,
    dropout_mask,
    init_params,
    sigmoid,
    stable_softmax,
)


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
    def test_single_step_has_no_direction(self):
        rng = np.random.default_rng(5)
        p = random_cell(rng, 3, 4)
        x = rng.standard_normal((1, 4))
        ran = np.ones(1, dtype=bool)
        np.testing.assert_array_equal(
            _direction_pass(p, x, ran).h, _direction_pass(p, x[::-1], ran).h[::-1]
        )

    def test_zero_params_zero_states(self):
        p = zero_cell(3, 2)
        x = np.random.default_rng(0).standard_normal((5, 2))
        out = _direction_pass(p, x, np.ones(5, dtype=bool)).h
        np.testing.assert_array_equal(out, np.zeros((5, 3)))

    def test_inactive_steps_carry_state(self):
        rng = np.random.default_rng(11)
        p = random_cell(rng, 3, 2)
        x = rng.standard_normal((4, 2))
        active = np.array([True, False, True, True])
        out = _direction_pass(p, x, active).h
        np.testing.assert_array_equal(out[1], out[0])
        compact = _direction_pass(p, x[[0, 2, 3]], np.ones(3, dtype=bool)).h
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
            bilstm_forward(model, [6], dropout_rate=1.0)
        with pytest.raises(ValueError, match="dropout_rate"):
            bilstm_forward(model, [6], dropout_rate=-0.1)

    def test_dropout_needs_rng(self, model):
        with pytest.raises(ValueError, match="rng"):
            bilstm_forward(model, [6], dropout_rate=0.5, train_mode=True)

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

    def test_dropout_expectation(self):
        rng = np.random.default_rng(44)
        rate = 0.5
        activation = rng.uniform(0.5, 1.5, (3, 4))
        total = np.zeros_like(activation)
        n = 10_000
        for _ in range(n):
            total += activation * dropout_mask(rng, activation.shape, rate)
        np.testing.assert_allclose(total / n, activation, rtol=0.02)


class TestBackwardBasics:
    @pytest.fixture
    def model(self):
        return random_model(np.random.default_rng(55), 9, 4, 3, 2)

    def test_softmax_gradient_identity(self, model):
        trace = bilstm_forward(model, [6, 1, 7], train_mode=True)
        grads = backward(model, trace, label=0)
        expected = trace.probabilities.copy()
        expected[0] -= 1.0
        np.testing.assert_array_equal(grads["softmax.b"], expected)

    def test_accumulation_linearity(self, model):
        trace = bilstm_forward(model, [6, 1, 7], train_mode=True)
        g1 = backward(model, trace, label=1)
        g2 = backward(model, trace, label=1)
        for name in g1:
            np.testing.assert_array_equal(g1[name] + g2[name], 2.0 * g1[name])

    def test_fixed_embedding_rows_get_zero_gradient(self, model):
        # frozen rows have no gradient entry at all: the dict is keyed and
        # shaped like trainable_tensors(), the embedding cut to rows 1..5
        trace = bilstm_forward(model, [6, 1, 7, 8], train_mode=True)
        grads = backward(model, trace, label=1)
        shapes = {name: t.shape for name, t in model.trainable_tensors()}
        assert {name: g.shape for name, g in grads.items()} == shapes
        assert shapes["embedding.vectors"] == (5, model.embedding.dim)

    def test_pad_positions_send_no_embedding_gradient(self, model):
        trace = bilstm_forward(model, [0, 6, 0, 7, 0], train_mode=True)
        grads = backward(model, trace, label=1)
        np.testing.assert_array_equal(grads["embedding.vectors"], 0.0)

    def test_oov_gradient_matches_finite_differences(self, model):
        ids = [1, 6, 1, 7]
        trace = bilstm_forward(model, ids, train_mode=True)
        grads = backward(model, trace, label=0)
        rows = dict(model.trainable_tensors())["embedding.vectors"]
        fd = fd_tensor_gradient(model, rows, ids, 0)
        assert max_rel_err(fd, grads["embedding.vectors"]) < 1e-4

    def test_full_gradient_check_small_model(self):
        rng = np.random.default_rng(77)
        small = random_model(rng, 9, 3, 2, 2)
        ids = [6, 1, 0, 7]  # word, OOV, PAD, word
        trace = bilstm_forward(small, ids, train_mode=True)
        grads = backward(small, trace, 1)
        for name, tensor in small.trainable_tensors():
            fd = fd_tensor_gradient(small, tensor, ids, 1)
            assert max_rel_err(fd, grads[name]) < 1e-4, name

    def test_gradient_check_through_dropout_masks(self):
        rng = np.random.default_rng(78)
        small = random_model(rng, 9, 3, 2, 2)
        ids = [6, 7, 8]
        rate = 0.4
        masks = [dropout_mask(rng, (3, 4), rate) for _ in range(2)]
        trace = bilstm_forward(
            small, ids, dropout_rate=rate, train_mode=True, dropout_masks=masks
        )
        grads = backward(small, trace, 0)
        for name, tensor in small.named_tensors():
            if name == "embedding.vectors":
                continue
            fd = fd_tensor_gradient(small, tensor, ids, 0, rate=rate, masks=masks)
            assert max_rel_err(fd, grads[name]) < 1e-4, name

    def test_label_validation(self, model):
        trace = bilstm_forward(model, [6], train_mode=True)
        with pytest.raises(ValueError, match="label"):
            backward(model, trace, label=2)

    def test_trace_model_mismatch(self, model):
        trace = bilstm_forward(model, [6], train_mode=True)
        other = random_model(np.random.default_rng(1), 9, 4, 3, 1)
        with pytest.raises(ValueError, match="depth"):
            backward(other, trace, label=0)

    def test_loss_finite_for_finite_params(self, model):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ids = rng.integers(1, 9, size=rng.integers(1, 10))
            assert np.isfinite(model_loss(model, ids, int(rng.integers(0, 2))))


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
