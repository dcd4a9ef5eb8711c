import logging
import math

import numpy as np
import pytest

from conftest import cast_model, random_model, sequence_grads, traced_peak

from botlstm.checkpoint import load_checkpoint, save_checkpoint
from botlstm.datasets import LabeledSequence, make_examples, synthetic
from botlstm.embeddings import TRAINABLE_ROWS
from botlstm.errors import DataError, InternalError
from botlstm.metrics import BOT, HUMAN, predicted_label
from botlstm.nn_core import ModelConfig, backward_batch, forward_batch, init_params
from botlstm.text_pipeline import OOV_ID, PAD_ID
from botlstm.trainer import (
    CHUNK,
    FLOAT32_MAX,
    LOSS_CLAMP,
    SCORE_CHUNK,
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
        before = model.tensors["softmax.b"].copy()
        sgd_momentum_step(model, grads, {}, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(model.tensors["softmax.b"], before - 0.1 * grads["softmax.b"])

    def test_zero_gradient_fixed_point(self, model):
        before = {name: t.copy() for name, t in model.tensors.items()}
        sgd_momentum_step(model, self._zero_grads(model), {}, lr=0.1, momentum=0.9)
        for name, t in model.tensors.items():
            np.testing.assert_array_equal(t, before[name])

    def test_two_step_momentum_trace(self, model):
        # scalar g=1 twice at mu=0.9, lr=0.01: shifts of -0.01 then -0.019
        velocity = {}
        start = model.tensors["softmax.b"][0]
        grads = self._zero_grads(model)
        grads["softmax.b"][0] = 1.0
        sgd_momentum_step(model, grads, velocity, lr=0.01, momentum=0.9)
        np.testing.assert_allclose(model.tensors["softmax.b"][0], start - 0.01, atol=1e-15)
        grads = self._zero_grads(model)
        grads["softmax.b"][0] = 1.0
        sgd_momentum_step(model, grads, velocity, lr=0.01, momentum=0.9)
        np.testing.assert_allclose(
            model.tensors["softmax.b"][0], start - 0.01 - 0.019, atol=1e-15
        )

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_gradient_named(self, model, value):
        grads = self._zero_grads(model)
        grads["softmax.W"][0, 0] = value
        with pytest.raises(InternalError, match=r"non-finite gradient for softmax\.W"):
            sgd_momentum_step(model, grads, {}, lr=0.1, momentum=0.9)

    def test_step_beyond_float32_named(self, model):
        # finite in float64, but no checkpoint can hold it
        grads = self._zero_grads(model)
        grads["layers.0.fwd.b"][0] = -1e39
        with pytest.raises(InternalError, match=r"layers\.0\.fwd\.b beyond float32"):
            sgd_momentum_step(model, grads, {}, lr=1.0, momentum=0.0)

    def test_step_to_largest_float32_accepted(self, model):
        grads = self._zero_grads(model)
        grads["softmax.b"][0] = model.tensors["softmax.b"][0] - FLOAT32_MAX
        sgd_momentum_step(model, grads, {}, lr=1.0, momentum=0.0)
        assert model.tensors["softmax.b"][0] == FLOAT32_MAX

    def test_fixed_embedding_rows_untouched(self, model):
        fixed = np.delete(np.arange(model.config().vocab_size), TRAINABLE_ROWS)
        before = model.tensors["embedding.vectors"][fixed].copy()
        grads = self._zero_grads(model)
        grads["embedding.vectors"][:] = 1.0  # every trainable row moves
        sgd_momentum_step(model, grads, {}, lr=0.5, momentum=0.0)
        np.testing.assert_array_equal(model.tensors["embedding.vectors"][fixed], before)

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
        grads = sequence_grads(model, [6, 1, 2, 0, 8], 1)
        velocity = {}
        sgd_momentum_step(model, grads, velocity, lr=0.1, momentum=0.9)
        assert grads["embedding.vectors"].shape == (5, 3)
        assert velocity["embedding.vectors"].shape == (5, 3)


class TestParameterNames:
    def test_one_entry_per_cell_block(self):
        model = random_model(np.random.default_rng(3), 9, 3, 2, 3)
        grads = sequence_grads(model, [6, 1, 7], 0)
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


def _shuffled_lengths_set(n=2 * CHUNK + 5):
    """n sequences of 1-20 tokens from five interleaved accounts, unsorted."""
    rng = np.random.default_rng(7)
    model = random_model(rng, vocab_size=30, dim=4, hidden=3, layers=2)
    lengths = rng.permutation(np.arange(n) % 20 + 1)
    data = [
        LabeledSequence(f"acct{(3 * k) % 5}", (3 * k) % 5 % 2,
                        rng.integers(1, 30, size=int(n_ids)).tolist())
        for k, n_ids in enumerate(lengths)
    ]
    return model, data


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
                forward_batch(trial, [example.ids]).probabilities[0], example.label
            )
            cfg = TrainingConfig(
                learning_rate=lr, epochs=1, batch_size=1,
                dropout_start=0.0, dropout_end=0.0, seed=1,
            )
            train(trial, [example], cfg)
            after = nll_loss(
                forward_batch(trial, [example.ids]).probabilities[0], example.label
            )
            if after <= before + 1e-9:
                return
        raise AssertionError("loss did not decrease at any tried learning rate")

    def test_seeded_determinism(self):
        results = []
        for _ in range(2):
            model, examples, _, _ = _toy_setup()
            cfg = TrainingConfig(epochs=2, batch_size=4, seed=9)
            history = train(model, examples, cfg)
            results.append((model, history))
        for name, a in results[0][0].tensors.items():
            np.testing.assert_array_equal(a, results[1][0].tensors[name], err_msg=name)
        assert [e["loss"] for e in results[0][1]] == [e["loss"] for e in results[1][1]]

    def test_separable_toy_reaches_full_train_accuracy(self):
        model, examples, _, _ = _toy_setup(n_per_class=4, hidden=8, seed=2)
        cfg = TrainingConfig(epochs=30, batch_size=16, seed=2)
        history = train(model, examples, cfg)
        # the logged metric runs under dropout; the trained classifier itself
        # must separate the training accounts perfectly
        report = evaluate(model, examples)
        assert report["accuracy"] == 1.0
        assert history[-1]["accuracy"] >= 0.9

    def test_history_contract(self):
        model, examples, _, _ = _toy_setup()
        cfg = TrainingConfig(epochs=4, batch_size=8, seed=3)
        history = train(model, examples, cfg)
        assert [list(e) for e in history] == [
            ["epoch", "loss", "accuracy", "dropout", "seconds", "clamped", "seq_per_s"]
        ] * 4
        assert [e["epoch"] for e in history] == [1, 2, 3, 4]
        assert [e["dropout"] for e in history] == [
            dropout_schedule(e, cfg) for e in range(1, 5)
        ]
        for e in history:
            assert e["seq_per_s"] == len(examples) / e["seconds"]

    def test_clamped_losses_are_counted_and_logged(self, caplog):
        # a bot bias of 200 underflows every human's float32 p(human) to 0
        model, examples, _, _ = _toy_setup()
        model.tensors["softmax.b"][:] = [0.0, 200.0]
        humans = [ex for ex in examples if ex.label == HUMAN]
        cfg = TrainingConfig(epochs=1, batch_size=len(humans), learning_rate=1e-6, seed=1)
        with caplog.at_level(logging.WARNING, logger="botlstm.trainer"):
            history = train(model, humans, cfg)
        assert history[0]["clamped"] == len(humans)
        assert history[0]["loss"] == pytest.approx(LOSS_CLAMP)
        assert f"epoch 1: {len(humans)} clamped zero-probability losses" in caplog.text

    def test_fixed_rows_bitwise_stable(self):
        model, examples, _, _ = _toy_setup()
        fixed = np.delete(np.arange(model.config().vocab_size), TRAINABLE_ROWS)
        before = model.tensors["embedding.vectors"][fixed].copy()
        cfg = TrainingConfig(epochs=3, batch_size=4, seed=1)
        train(model, examples, cfg)
        assert np.array_equal(model.tensors["embedding.vectors"][fixed], before)

    def test_models_from_one_table_train_apart(self):
        accounts, vocab, table = synthetic(seed=3, n_per_class=2)
        examples, _ = make_examples(accounts, vocab)
        config = ModelConfig(vocab_size=len(vocab), embed_dim=table.dim, hidden=4, layers=1)
        first, second = (init_params(config, rng_seed=3, embedding=table) for _ in range(2))
        vectors = table.vectors.copy()
        train(first, examples, TrainingConfig(epochs=1, seed=3))
        assert not np.array_equal(first.tensors["embedding.vectors"][OOV_ID], vectors[OOV_ID])
        np.testing.assert_array_equal(second.tensors["embedding.vectors"], vectors)
        np.testing.assert_array_equal(table.vectors, vectors)

    @staticmethod
    def _one_step_and_hand_reduction(make_set, batch_size):
        """(trained, by_hand) models after one step on the first batch_size examples.

        `make_set()` returns a fresh (model, examples) pair, the same each call.
        Both run on a float64 copy of its model, so that their difference is
        the order of the additions alone.
        """
        model, examples = make_set()
        batch = examples[:batch_size]
        cfg = TrainingConfig(epochs=1, batch_size=len(batch), seed=4)
        model = cast_model(model, np.float64)
        train(model, batch, cfg)

        # the same step by hand: per-example gradients under each example's
        # own dropout seed, summed in shuffled order, meaned, one momentum step
        by_hand = cast_model(make_set()[0], np.float64)
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

    # The toy set's tweets are 3-8 tokens long, the shuffled-lengths set's
    # 1-20, so sorting its batches changes each chunk's scan length far
    # more. In both, a seed that did not follow its example would show.
    HAND_REDUCTION_SETS = {
        "toy": lambda: _toy_setup()[:2],
        "shuffled lengths": _shuffled_lengths_set,
    }

    def _assert_step_matches_hand_reduction(self, batch_size):
        for set_name, make_set in self.HAND_REDUCTION_SETS.items():
            model, by_hand = self._one_step_and_hand_reduction(make_set, batch_size)
            # the trainer sums in length-ordered chunks over a [T, B] batch,
            # so the order of its float additions differs from this loop
            for name, a in model.tensors.items():
                np.testing.assert_allclose(
                    a, by_hand.tensors[name], rtol=1e-12, err_msg=f"{set_name}: {name}"
                )

    def test_one_step_matches_hand_reduction(self):
        self._assert_step_matches_hand_reduction(6)

    def test_step_over_several_chunks_matches_hand_reduction(self):
        self._assert_step_matches_hand_reduction(2 * CHUNK + 5)

    def test_chunks_run_in_length_order_within_each_batch(self, monkeypatch):
        model, data = _shuffled_lengths_set()
        position = {id(ex.ids): i for i, ex in enumerate(data)}
        chunks = []  # (dataset indices, seeds) per forward call

        def recording_forward(model, seqs, rate, seeds):
            chunks.append(([position[id(s)] for s in seqs], [int(x) for x in seeds]))
            return forward_batch(model, seqs, rate, seeds)

        monkeypatch.setattr("botlstm.trainer.forward_batch", recording_forward)
        cfg = TrainingConfig(epochs=1, batch_size=CHUNK + 4, seed=6)
        train(model, data, cfg)

        # the epoch's draws, as train makes them: the permutation, then one
        # seed per example of each batch in shuffled order
        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(len(data))
        batches = list(batch_indices(order, cfg.batch_size))
        assert [len(b) for b in batches] == [CHUNK + 4, CHUNK + 1]  # short last batch
        seed_of = {}
        for batch in batches:
            seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(batch))
            seed_of.update(zip(batch.tolist(), seeds.tolist()))

        length = [len(ex.ids) for ex in data]
        assert [len(idx) for idx, _ in chunks] == [CHUNK, 4, CHUNK, 1]
        for batch, batch_chunks in zip(batches, (chunks[:2], chunks[2:])):
            members = set(batch.tolist())
            held = []
            for idx, seeds in batch_chunks:
                assert [length[i] for i in idx] == sorted(length[i] for i in idx)
                assert set(idx) <= members  # no chunk mixes two batches
                assert seeds == [seed_of[i] for i in idx]
                held += idx
            assert sorted(held) == sorted(members)
            # stable: equal lengths keep their shuffled order
            assert held == sorted(batch.tolist(), key=lambda i: length[i])

    def test_one_batch_epoch_tallies_as_in_batch_order(self):
        # a sequence's probabilities do not depend on its chunk-mates at a
        # fixed chunk width, so a whole number of chunks gives the same
        # per-example values in length order as in batch order, and they
        # are tallied in batch order
        model, data = _shuffled_lengths_set()
        data = data[: 2 * CHUNK]
        cfg = TrainingConfig(epochs=1, batch_size=len(data), seed=8)
        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(len(data))
        seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(data))
        rate = dropout_schedule(1, cfg)
        loss_sum, n_correct = 0.0, 0
        for idx, chunk_seeds in zip(batch_indices(order, CHUNK), batch_indices(seeds, CHUNK)):
            probabilities = forward_batch(
                model, [data[i].ids for i in idx], rate, chunk_seeds
            ).probabilities
            for i, p in zip(idx, probabilities):
                loss_sum += nll_loss(p, data[i].label)
                n_correct += predicted_label(p[BOT]) == data[i].label

        (epoch,) = train(model, data, cfg)
        assert epoch["loss"] == loss_sum / len(data)
        assert epoch["accuracy"] == n_correct / len(data)

    def test_step_memory_is_bounded_by_the_chunk(self):
        # the second batch's step holds the gradient sum and the velocity,
        # made at the first batch's step (2x the trainable bytes), plus one
        # chunk's state tracks, gates and BPTT temporaries: 5.7x in all at
        # this shape, since BPTT frees each layer's tracks as it leaves them
        rng = np.random.default_rng(0)
        model = init_params(ModelConfig(vocab_size=500, embed_dim=64, hidden=64, layers=3),
                            rng_seed=0)
        data = [LabeledSequence(f"a{i}", i % 2, rng.integers(1, 500, size=20).tolist())
                for i in range(128)]
        trainable = sum(t.nbytes for _, t in model.trainable_tensors())
        _, peak = traced_peak(
            lambda: train(model, data, TrainingConfig(epochs=1, batch_size=64, seed=0)))
        assert peak < 6 * trainable, f"step peak {peak / trainable:.1f}x the trainable bytes"


class TestEvaluate:
    def test_degenerate_all_bot_predictor(self):
        model, examples, _, _ = _toy_setup()
        model.tensors["softmax.W"][:] = 0.0
        model.tensors["softmax.b"][:] = 0.0  # p=[.5,.5] everywhere; ties resolve to bot
        report = evaluate(model, examples)
        assert report["accuracy"] == 0.5
        assert report["recall"] == 1.0
        assert report["specificity"] == 0.0

    def test_manual_tally_on_six_accounts(self):
        model, _, vocab, accounts = _toy_setup(n_per_class=3)
        examples, _ = make_examples(accounts, vocab)
        report = evaluate(model, examples)

        # independent per-account tally
        sums, n, labels = {}, {}, {}
        for ex in examples:
            p = float(forward_batch(model, [ex.ids]).probabilities[0, BOT])
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
        assert (report["tp"], report["tn"], report["fp"], report["fn"]) == (tp, tn, fp, fn)
        assert tp + tn + fp + fn == 6

    def test_each_account_counted_once(self):
        model, examples, _, accounts = _toy_setup(n_per_class=5)
        report = evaluate(model, examples)
        assert report["tp"] + report["tn"] + report["fp"] + report["fn"] == len(accounts)

    def test_empty_dataset_rejected(self):
        model, _, _, _ = _toy_setup()
        with pytest.raises(DataError):
            evaluate(model, [])

    def test_non_finite_probability_refused(self):
        # finite float32 weights whose pre-activations overflow to inf - inf
        model = init_params(ModelConfig(vocab_size=10, embed_dim=8, hidden=6, layers=1),
                            rng_seed=0)
        model.tensors["embedding.vectors"][:] = 1.0
        model.tensors["layers.0.fwd.U"][:] = 3e38
        model.tensors["layers.0.fwd.W"][:] = -3e38
        # a's one step is PAD, so its state stays zero and its score finite;
        # b comes before c in the dataset but after it in length order
        data = [LabeledSequence("a", 0, [PAD_ID]), LabeledSequence("b", 1, [6, 7, 8]),
                LabeledSequence("c", 0, [6])]
        for score in (account_probabilities, evaluate):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DataError, match="account b scored a non-finite") as err:
                    score(model, data)
            assert err.value.module == "trainer"

    def test_scores_match_per_sequence_reference(self):
        model, data = _shuffled_lengths_set()
        p_bot = [forward_batch(model, [ex.ids]).probabilities[0, BOT] for ex in data]
        expected = {}
        for ex, p in zip(data, p_bot):  # dataset order
            total, count = expected.get(ex.account_id, (0.0, 0))
            expected[ex.account_id] = (total + p, count + 1)
        scored = account_probabilities(model, data)
        assert list(scored) == list(expected)  # first-appearance order
        for acct, (total, count) in expected.items():
            assert abs(scored[acct] - total / count) < 1e-12

    def test_chunks_run_in_length_order(self, monkeypatch):
        model, data = _shuffled_lengths_set(2 * SCORE_CHUNK + 5)  # not a multiple of the chunk
        chunks = []

        def recording_forward(model, seqs, *args):
            chunks.append([list(s) for s in seqs])
            return forward_batch(model, seqs, *args)

        monkeypatch.setattr("botlstm.trainer.forward_batch", recording_forward)
        account_probabilities(model, data)
        assert [len(c) for c in chunks] == [SCORE_CHUNK, SCORE_CHUNK, SCORE_CHUNK]
        # the short last chunk holds its 5 sequences first, then one-token fillers
        assert chunks[2][5:] == [[OOV_ID]] * (SCORE_CHUNK - 5)
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

    def test_extreme_checkpoint_scores_finite_or_is_refused(self, tmp_path):
        # a loaded checkpoint scores in its stored float32, where weights at
        # +-max can overflow: every account then scores a finite probability,
        # or scoring is a DataError naming an account, and nothing else
        accounts, vocab, table = synthetic(seed=4, n_per_class=5)
        model = init_params(
            ModelConfig(vocab_size=len(vocab), embed_dim=table.dim, hidden=8, layers=3),
            rng_seed=0, embedding=table,
        )
        rng = np.random.default_rng(0)
        for tensor in model.tensors.values():
            tensor[...] = np.finfo(np.float32).max * rng.choice([-1.0, 1.0], tensor.shape)
        path = tmp_path / "extreme.ckpt"
        save_checkpoint(path, model, vocab)
        loaded, _ = load_checkpoint(path)
        examples, _ = make_examples(accounts, vocab)
        assert len(examples) == 200
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                scored = account_probabilities(loaded, examples)
        except DataError as err:
            assert err.module == "trainer"
            named = {ex.account_id for ex in examples
                     if f"account {ex.account_id} scored a non-finite" in str(err)}
            assert len(named) == 1, str(err)
            return
        p_bot = np.array(list(scored.values()))
        assert len(p_bot) == 10
        assert np.isfinite(p_bot).all() and ((p_bot >= 0.0) & (p_bot <= 1.0)).all()

    def test_perfect_model_on_trained_data(self):
        model, examples, _, _ = _toy_setup(n_per_class=4, hidden=8, seed=2)
        cfg = TrainingConfig(epochs=25, batch_size=16, seed=2)
        train(model, examples, cfg)
        report = evaluate(model, examples)
        assert report["accuracy"] == 1.0
        assert report["mcc"] == 1.0
