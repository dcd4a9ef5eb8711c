import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_model

from botlstm.checkpoint import load_checkpoint, save_checkpoint
from botlstm.datasets import LabeledSequence, make_examples, synthetic
from botlstm.errors import DataError, InternalError
from botlstm.metrics import BOT, HUMAN
from botlstm.nn_core import (
    ModelConfig, backward, backward_batch, bilstm_forward, forward_batch, init_params,
)
from botlstm.text_pipeline import OOV_ID
from botlstm.trainer import (
    CHUNK,
    LOSS_CLAMP,
    TrainingConfig,
    account_probabilities,
    batch_indices,
    dropout_schedule,
    evaluate,
    nll_loss,
    sgd_momentum_step,
    train,
)


class TestNllLoss:
    def test_uniform(self):
        assert abs(nll_loss([0.5, 0.5], 0) - math.log(2)) < 1e-12
        assert abs(nll_loss([0.5, 0.5], 1) - math.log(2)) < 1e-12

    def test_perfect(self):
        assert nll_loss([1.0, 0.0], 0) == 0.0

    def test_direct_evaluation(self):
        assert abs(nll_loss([0.9, 0.1], 1) - 2.302585092994046) < 1e-12

    def test_zero_probability_clamped(self):
        assert nll_loss([1.0, 0.0], 1) == LOSS_CLAMP
        assert LOSS_CLAMP == -math.log(1e-300)


class TestDropoutSchedule:
    def test_endpoints(self):
        cfg = TrainingConfig()
        assert dropout_schedule(1, cfg) == 0.5
        assert dropout_schedule(30, cfg) == 0.1

    def test_midpoint(self):
        cfg = TrainingConfig()
        expected = 0.5 - 0.4 * (14 / 29)
        assert abs(dropout_schedule(15, cfg) - expected) < 1e-12
        assert abs(dropout_schedule(15, cfg) - 0.3069) < 1e-4

    def test_single_epoch(self):
        cfg = TrainingConfig(epochs=1)
        assert dropout_schedule(1, cfg) == cfg.dropout_start

    def test_monotone_decreasing(self):
        cfg = TrainingConfig()
        rates = [dropout_schedule(e, cfg) for e in range(1, 31)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_out_of_range_rejected(self):
        cfg = TrainingConfig()
        with pytest.raises(ValueError):
            dropout_schedule(0, cfg)
        with pytest.raises(ValueError):
            dropout_schedule(31, cfg)


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.momentum == 0.9
        assert cfg.batch_size == 64
        assert cfg.epochs == 30
        assert cfg.dropout_start == 0.5
        assert cfg.dropout_end == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"momentum": 1.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"dropout_start": 0.2, "dropout_end": 0.3},
            {"dropout_start": 1.0},
            {"seed": -1},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestSgdMomentumStep:
    @pytest.fixture
    def model(self):
        return random_model(np.random.default_rng(1), 9, 3, 2, 1)

    def _zero_grads(self, model):
        return {name: np.zeros_like(t) for name, t in model.trainable_tensors()}

    def test_zero_momentum_is_plain_sgd(self, model):
        grads = self._zero_grads(model)
        grads["softmax.b"] = np.array([1.0, -2.0])
        before = model.softmax_b.copy()
        sgd_momentum_step(model, grads, {}, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(model.softmax_b, before - 0.1 * grads["softmax.b"])

    def test_zero_gradient_fixed_point(self, model):
        before = {name: t.copy() for name, t in model.named_tensors()}
        sgd_momentum_step(model, self._zero_grads(model), {}, lr=0.1, momentum=0.9)
        for name, t in model.named_tensors():
            np.testing.assert_array_equal(t, before[name])

    def test_two_step_momentum_trace(self, model):
        # scalar g=1 twice at mu=0.9, lr=0.01: shifts of -0.01 then -0.019
        velocity = {}
        start = model.softmax_b[0]
        grads = self._zero_grads(model)
        grads["softmax.b"][0] = 1.0
        sgd_momentum_step(model, grads, velocity, lr=0.01, momentum=0.9)
        np.testing.assert_allclose(model.softmax_b[0], start - 0.01, atol=1e-15)
        grads = self._zero_grads(model)
        grads["softmax.b"][0] = 1.0
        sgd_momentum_step(model, grads, velocity, lr=0.01, momentum=0.9)
        np.testing.assert_allclose(
            model.softmax_b[0], start - 0.01 - 0.019, atol=1e-15
        )

    def test_non_finite_gradient_named(self, model):
        grads = self._zero_grads(model)
        grads["softmax.W"][0, 0] = np.nan
        with pytest.raises(InternalError, match="softmax.W"):
            sgd_momentum_step(model, grads, {}, lr=0.1, momentum=0.9)

    def test_fixed_embedding_rows_untouched(self, model):
        fixed = ~model.embedding.trainable_mask
        before = model.embedding.vectors[fixed].copy()
        grads = self._zero_grads(model)
        grads["embedding.vectors"][:] = 1.0  # every trainable row moves
        sgd_momentum_step(model, grads, {}, lr=0.5, momentum=0.0)
        np.testing.assert_array_equal(model.embedding.vectors[fixed], before)

    def test_gradient_step_direction(self, model):
        rng = np.random.default_rng(3)
        before = {name: t.copy() for name, t in model.trainable_tensors()}
        grads = {name: rng.standard_normal(t.shape) for name, t in model.trainable_tensors()}
        sgd_momentum_step(model, grads, {}, lr=0.05, momentum=0.0)
        inner = sum(
            float(np.sum((t - before[name]) * grads[name]))
            for name, t in model.trainable_tensors()
        )
        assert inner <= 0.0


class TestTrainableRowsOnly:
    @pytest.mark.parametrize("vocab_size", [9, 400])
    def test_embedding_gradient_and_velocity_cover_five_rows(self, vocab_size):
        model = random_model(np.random.default_rng(2), vocab_size, 3, 2, 1)
        trace = bilstm_forward(model, [6, 1, 2, 0, 8])
        grads = backward(model, trace, 1)
        velocity = {}
        sgd_momentum_step(model, grads, velocity, lr=0.1, momentum=0.9)
        assert grads["embedding.vectors"].shape == (5, 3)
        assert velocity["embedding.vectors"].shape == (5, 3)


class TestParameterNames:
    def test_one_entry_per_cell_block(self):
        model = random_model(np.random.default_rng(3), 9, 3, 2, 3)
        trace = bilstm_forward(model, [6, 1, 7])
        grads = backward(model, trace, 0)
        velocity = {}
        sgd_momentum_step(model, grads, velocity, lr=0.1, momentum=0.9)
        blocks = [
            f"layers.{li}.{direction}.{block}"
            for li in range(3) for direction in ("fwd", "bwd") for block in "UWVb"
        ]
        names = ["embedding.vectors", *blocks, "softmax.W", "softmax.b"]
        assert len(names) == 3 + 8 * 3
        assert [name for name, _ in model.trainable_tensors()] == names
        assert sorted(grads) == sorted(names)
        assert sorted(velocity) == sorted(names)


class TestBatchIndices:
    def test_partition(self):
        order = np.arange(10)
        batches = list(batch_indices(order, 3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        np.testing.assert_array_equal(np.concatenate(batches), order)

    def test_permutation_covers_dataset(self):
        rng = np.random.default_rng(0)
        order = rng.permutation(23)
        batches = list(batch_indices(order, 5))
        assert sorted(np.concatenate(batches).tolist()) == list(range(23))


def _toy_setup(n_per_class=3, hidden=4, layers=1, seed=5):
    accounts, vocab, table = synthetic(seed=seed, n_per_class=n_per_class)
    examples, _ = make_examples(accounts, vocab)
    model = init_params(
        ModelConfig(vocab_size=len(vocab), embed_dim=table.dim,
                    hidden=hidden, layers=layers),
        rng_seed=seed,
        embedding=table,
    )
    return model, examples, vocab, accounts


class TestTrain:
    def test_empty_dataset_rejected(self):
        model, _, _, _ = _toy_setup()
        with pytest.raises(DataError):
            train(model, [], TrainingConfig())

    def test_loss_decreases_on_single_example(self):
        model, examples, _, _ = _toy_setup()
        example = examples[0]
        for lr in (0.01, 0.005, 0.0025):
            trial = _toy_setup()[0]
            before = nll_loss(
                bilstm_forward(trial, example.ids).probabilities, example.label
            )
            cfg = TrainingConfig(
                learning_rate=lr, epochs=1, batch_size=1,
                dropout_start=0.0, dropout_end=0.0, seed=1,
            )
            trial, _ = train(trial, [example], cfg)
            after = nll_loss(
                bilstm_forward(trial, example.ids).probabilities, example.label
            )
            if after <= before + 1e-9:
                return
        raise AssertionError("loss did not decrease at any tried learning rate")

    def test_seeded_determinism(self):
        results = []
        for _ in range(2):
            model, examples, _, _ = _toy_setup()
            cfg = TrainingConfig(epochs=2, batch_size=4, seed=9)
            model, history = train(model, examples, cfg)
            results.append((model, history))
        for (name, a), (_, b) in zip(
            results[0][0].named_tensors(), results[1][0].named_tensors()
        ):
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert [e.loss for e in results[0][1].epochs] == [
            e.loss for e in results[1][1].epochs
        ]

    def test_separable_toy_reaches_full_train_accuracy(self):
        model, examples, _, _ = _toy_setup(n_per_class=4, hidden=8, seed=2)
        cfg = TrainingConfig(epochs=30, batch_size=16, seed=2)
        model, history = train(model, examples, cfg)
        # the logged metric runs under dropout; the trained classifier itself
        # must separate the training accounts perfectly
        _, report = evaluate(model, examples)
        assert report.accuracy == 1.0
        assert history.epochs[-1].accuracy >= 0.9

    def test_history_contract(self):
        model, examples, _, _ = _toy_setup()
        cfg = TrainingConfig(epochs=4, batch_size=8, seed=3)
        _, history = train(model, examples, cfg)
        assert len(history.epochs) == 4
        assert [e.epoch for e in history.epochs] == [1, 2, 3, 4]
        assert [e.dropout for e in history.epochs] == [
            dropout_schedule(e, cfg) for e in range(1, 5)
        ]

    def test_history_csv(self, tmp_path):
        model, examples, _, _ = _toy_setup()
        cfg = TrainingConfig(epochs=1, batch_size=8, seed=3)
        _, history = train(model, examples, cfg)
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy,dropout,seconds"
        assert len(lines) == 2
        assert lines[1].startswith("1,")

    def test_fixed_rows_bitwise_stable(self):
        model, examples, _, _ = _toy_setup()
        fixed = ~model.embedding.trainable_mask
        before = model.embedding.vectors[fixed].copy()
        cfg = TrainingConfig(epochs=3, batch_size=4, seed=1)
        model, _ = train(model, examples, cfg)
        assert np.array_equal(model.embedding.vectors[fixed], before)

    @staticmethod
    def _one_step_and_hand_reduction(batch_size):
        """(trained, by_hand) models after one step on examples[:batch_size]."""
        model, examples, _, _ = _toy_setup()
        batch = examples[:batch_size]
        cfg = TrainingConfig(epochs=1, batch_size=len(batch), seed=4)
        model, _ = train(model, batch, cfg)

        # the same step by hand: per-example gradients under each example's
        # own dropout seed, summed in batch order, meaned, one momentum step
        by_hand = _toy_setup()[0]
        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(len(batch))
        seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(batch))
        rate = dropout_schedule(1, cfg)
        grad_sum = by_hand.zero_grads()
        for i, seed in zip(order, seeds):
            trace = forward_batch(by_hand, [batch[i].ids], rate, [seed])
            backward_batch(by_hand, trace, [batch[i].label], grad_sum)
        mean = {name: g * (1.0 / len(batch)) for name, g in grad_sum.items()}
        sgd_momentum_step(by_hand, mean, {}, cfg.learning_rate, cfg.momentum)
        return model, by_hand

    def test_one_step_matches_hand_reduction(self):
        model, by_hand = self._one_step_and_hand_reduction(6)
        # the trainer sums in chunks over a [T, B] batch, so the order of
        # its float additions differs from this per-example loop
        for (name, a), (_, b) in zip(model.named_tensors(), by_hand.named_tensors()):
            np.testing.assert_allclose(a, b, rtol=1e-12, err_msg=name)

    def test_step_over_several_chunks_matches_hand_reduction(self):
        model, by_hand = self._one_step_and_hand_reduction(2 * CHUNK + 5)
        for (name, a), (_, b) in zip(model.named_tensors(), by_hand.named_tensors()):
            np.testing.assert_allclose(a, b, rtol=1e-12, err_msg=name)

    def test_step_memory_is_bounded_by_the_chunk(self):
        # a step holds the gradient sum and the velocity (2x the trainable
        # bytes) plus one chunk's state tracks and BPTT temporaries: 4.3x in
        # all at this shape, where chunks of 32 measured 7.5x and the whole
        # batch of 64 at once 14x
        rng = np.random.default_rng(0)
        model = init_params(ModelConfig(vocab_size=500, embed_dim=64, hidden=64, layers=3),
                            rng_seed=0)
        data = [LabeledSequence(f"a{i}", i % 2, rng.integers(1, 500, size=20).tolist())
                for i in range(64)]
        trainable = sum(t.nbytes for _, t in model.trainable_tensors())
        tracemalloc.start()
        try:
            train(model, data, TrainingConfig(epochs=1, batch_size=64, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * trainable, f"step peak {peak / trainable:.1f}x the trainable bytes"


class TestEvaluate:
    def test_degenerate_all_bot_predictor(self):
        model, examples, _, _ = _toy_setup()
        model.softmax_W[:] = 0.0
        model.softmax_b[:] = 0.0  # p=[.5,.5] everywhere; ties resolve to bot
        counts, report = evaluate(model, examples)
        assert report.accuracy == 0.5
        assert report.recall == 1.0
        assert report.specificity == 0.0

    def test_manual_tally_on_six_accounts(self):
        model, _, vocab, accounts = _toy_setup(n_per_class=3)
        examples, _ = make_examples(accounts, vocab)
        counts, _ = evaluate(model, examples)

        # independent per-account tally
        sums, n, labels = {}, {}, {}
        for ex in examples:
            p = float(bilstm_forward(model, ex.ids).probabilities[BOT])
            sums[ex.account_id] = sums.get(ex.account_id, 0.0) + p
            n[ex.account_id] = n.get(ex.account_id, 0) + 1
            labels[ex.account_id] = ex.label
        tp = tn = fp = fn = 0
        for acct in sums:
            pred = BOT if sums[acct] / n[acct] >= 0.5 else HUMAN
            if labels[acct] == BOT:
                tp, fn = tp + (pred == BOT), fn + (pred == HUMAN)
            else:
                tn, fp = tn + (pred == HUMAN), fp + (pred == BOT)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn)
        assert counts.total == 6

    def test_each_account_counted_once(self):
        model, examples, _, accounts = _toy_setup(n_per_class=5)
        counts, _ = evaluate(model, examples)
        assert counts.total == len(accounts)

    def test_empty_dataset_rejected(self):
        model, _, _, _ = _toy_setup()
        with pytest.raises(DataError):
            evaluate(model, [])

    @staticmethod
    def _shuffled_lengths_set():
        """2*CHUNK + 5 sequences of 1-20 tokens from five interleaved accounts, unsorted."""
        rng = np.random.default_rng(7)
        model = random_model(rng, vocab_size=30, dim=4, hidden=3, layers=2)
        n = 2 * CHUNK + 5
        lengths = rng.permutation(np.arange(n) % 20 + 1)
        data = [
            LabeledSequence(f"acct{(3 * k) % 5}", (3 * k) % 5 % 2,
                            rng.integers(1, 30, size=int(n_ids)).tolist())
            for k, n_ids in enumerate(lengths)
        ]
        return model, data

    def test_scores_match_per_sequence_reference(self):
        model, data = self._shuffled_lengths_set()
        p_bot = [forward_batch(model, [ex.ids]).probabilities[0, BOT] for ex in data]
        expected = {}
        for ex, p in zip(data, p_bot):  # dataset order
            label, total, count = expected.get(ex.account_id, (ex.label, 0.0, 0))
            expected[ex.account_id] = (label, total + p, count + 1)
        scored = account_probabilities(model, data)
        assert list(scored) == list(expected)  # first-appearance order
        for acct, (label, total, count) in expected.items():
            assert scored[acct][0] == label
            assert abs(scored[acct][1] - total / count) < 1e-12

    def test_chunks_run_in_length_order(self, monkeypatch):
        model, data = self._shuffled_lengths_set()
        chunks = []

        def recording_forward(model, seqs, *args):
            chunks.append([list(s) for s in seqs])
            return forward_batch(model, seqs, *args)

        monkeypatch.setattr("botlstm.trainer.forward_batch", recording_forward)
        account_probabilities(model, data)
        assert [len(c) for c in chunks] == [CHUNK, CHUNK, CHUNK]
        # the short last chunk holds its 5 sequences first, then one-token fillers
        assert chunks[2][5:] == [[OOV_ID]] * (CHUNK - 5)
        # each chunk non-decreasing, and each chunk starting where the last ended
        flat = [len(s) for c in chunks[:2] + [chunks[2][:5]] for s in c]
        assert flat == sorted(len(ex.ids) for ex in data)

    @pytest.mark.parametrize("hidden", [8, 32])
    def test_a_tweets_p_bot_does_not_depend_on_the_other_tweets(self, hidden):
        # one tweet per account, so an account's mean is its tweet's p_bot
        rng = np.random.default_rng(11)
        model = random_model(rng, vocab_size=30, dim=8, hidden=hidden, layers=3)
        data = [
            LabeledSequence(f"acct{k:02d}", k % 2, rng.integers(1, 30, size=int(n)).tolist())
            for k, n in enumerate(rng.integers(1, 25, size=45))
        ]
        together = account_probabilities(model, data)
        alone, in_threes = {}, {}
        for ex in data:
            alone.update(account_probabilities(model, [ex]))
        for start in range(0, len(data), 3):
            in_threes.update(account_probabilities(model, data[start : start + 3]))
        shuffled = account_probabilities(model, [data[i] for i in rng.permutation(len(data))])
        assert alone == together  # bitwise: == on floats
        assert in_threes == together
        assert shuffled == together

    def test_extreme_checkpoint_scores_to_finite_probabilities(self, tmp_path):
        # a loaded checkpoint is finite float32, so every float64 value on the
        # way to the softmax stays bounded even with all weights at +-max
        accounts, vocab, table = synthetic(seed=4, n_per_class=5)
        model = init_params(
            ModelConfig(vocab_size=len(vocab), embed_dim=table.dim, hidden=8, layers=3),
            rng_seed=0, embedding=table,
        )
        rng = np.random.default_rng(0)
        for _, tensor in model.named_tensors():
            tensor[...] = np.finfo(np.float32).max * rng.choice([-1.0, 1.0], tensor.shape)
        path = tmp_path / "extreme.ckpt"
        save_checkpoint(path, model, vocab)
        loaded, _ = load_checkpoint(path)
        examples, _ = make_examples(accounts, vocab)
        assert len(examples) == 200
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            scored = account_probabilities(loaded, examples)
        p_bot = np.array([p for _, p in scored.values()])
        assert len(p_bot) == 10
        assert np.isfinite(p_bot).all() and ((p_bot >= 0.0) & (p_bot <= 1.0)).all()

    def test_perfect_model_on_trained_data(self):
        model, examples, _, _ = _toy_setup(n_per_class=4, hidden=8, seed=2)
        cfg = TrainingConfig(epochs=25, batch_size=16, seed=2)
        model, _ = train(model, examples, cfg)
        counts, report = evaluate(model, examples)
        assert report.accuracy == 1.0
        assert report.mcc == 1.0
