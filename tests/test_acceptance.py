"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Criterion 9 (full-corpus run) needs the real data mounted and
skips otherwise.
"""

import itertools
import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    cell_step,
    fd_tensor_gradient,
    max_rel_err,
    random_model,
    scalar_cell,
    scalar_cell_oracle,
    sequence_grads,
)

from botlstm import cli
from botlstm.datasets import (
    Account,
    compose_test_set,
    make_examples,
    split_accounts,
    synthetic,
)
from botlstm.embeddings import TRAINABLE_ROWS
from botlstm.metrics import BOT, HUMAN, compute_metrics
from botlstm.nn_core import ModelConfig, forward_batch, init_params
from botlstm.text_pipeline import URL, build_vocabulary, tokenize
from botlstm.trainer import TrainingConfig, dropout_schedule, evaluate, train


def _report(name: str, detail: str):
    print(f"\nACCEPTANCE PASS {name}: {detail}")


def test_criterion_1_gradient_oracle():
    """Central differences match BPTT on >=20 random small models in <60s."""
    grid = list(itertools.product((2, 3, 5), (1, 2, 3), (1, 4, 9), (3, 5)))
    rng = np.random.default_rng(2024)
    picks = [grid[i] for i in rng.choice(len(grid), size=16, replace=False)]
    picks += [(2, 1, 1, 3), (5, 3, 9, 5), (2, 3, 9, 3), (5, 1, 4, 5)]
    assert len(picks) >= 20

    tic = time.perf_counter()
    worst = 0.0
    worst_at = ""
    for n, (hidden, layers, T, dim) in enumerate(picks):
        model = random_model(rng, vocab_size=9, dim=dim, hidden=hidden,
                             layers=layers, scale=0.5)
        # ids always exercise a word, the shared OOV row, and a meme row;
        # longer sequences also include PAD positions
        ids = [6, 1, 2] + rng.integers(0, 9, size=max(0, T - 3)).tolist()
        ids = ids[:T]
        label = int(rng.integers(0, 2))
        grads = sequence_grads(model, ids, label)
        # the embedding entry is the trainable-row view, perturbed in place
        for name, tensor in model.trainable_tensors():
            fd = fd_tensor_gradient(model, tensor, ids, label, eps=1e-4)
            err = max_rel_err(fd, grads[name])
            assert err < 1e-4, (
                f"model {n} (H={hidden} L={layers} T={T} dim={dim}) "
                f"tensor {name}: rel err {err:.3e}"
            )
            if err > worst:
                worst, worst_at = err, f"{name} (H={hidden} L={layers} T={T})"
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"
    _report(
        "criterion 1",
        f"{len(picks)} models, worst rel err {worst:.2e} at {worst_at}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_cell_equation_oracle():
    """Vectorized H=1 cell matches the scalar transcription to 1e-12."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        params = rng.standard_normal(15)
        x, h_prev, c_prev = rng.standard_normal(3)
        p = scalar_cell(params)
        h, c, *_ = cell_step(
            p, np.array([x]), np.array([h_prev]), np.array([c_prev])
        )
        oh, oc = scalar_cell_oracle(params, x, h_prev, c_prev)
        worst = max(worst, abs(h[0] - oh), abs(c[0] - oc))
        assert abs(h[0] - oh) < 1e-12
        assert abs(c[0] - oc) < 1e-12
    _report("criterion 2", f"1000 draws, worst |diff| {worst:.2e}")


def test_criterion_3_metrics_oracle():
    """All 14,640 confusion matrices match exact-arithmetic formulas."""
    import mpmath

    mpmath.mp.dps = 50
    checked = 0
    for tp, tn, fp, fn in itertools.product(range(11), repeat=4):
        total = tp + tn + fp + fn
        if total == 0:
            continue
        r = compute_metrics(tp=tp, tn=tn, fp=fp, fn=fn)

        def frac(num, den):
            return float(Fraction(num, den)) if den else 0.0

        precision = frac(tp, tp + fp)
        recall = frac(tp, tp + fn)
        assert abs(r["precision"] - precision) <= 1e-12
        assert abs(r["recall"] - recall) <= 1e-12
        assert abs(r["specificity"] - frac(tn, tn + fp)) <= 1e-12
        assert abs(r["accuracy"] - frac(tp + tn, total)) <= 1e-12
        if precision + recall:
            f = float(
                2 * Fraction(tp, tp + fp) * Fraction(tp, tp + fn)
                / (Fraction(tp, tp + fp) + Fraction(tp, tp + fn))
            )
        else:
            f = 0.0
        assert abs(r["f_measure"] - f) <= 1e-12
        den_sq = (tp + fn) * (tp + fp) * (tn + fp) * (tn + fn)
        if den_sq:
            mcc = float((tp * tn - fp * fn) / mpmath.sqrt(den_sq))
        else:
            mcc = 0.0
        assert abs(r["mcc"] - mcc) <= 1e-12
        checked += 1
    assert checked == 11**4 - 1

    # boundary cases hit exactly
    assert compute_metrics(tp=5, tn=5, fp=0, fn=0)["mcc"] == 1.0
    assert compute_metrics(tp=0, tn=0, fp=5, fn=5)["mcc"] == -1.0
    assert compute_metrics(tp=5, tn=5, fp=5, fn=5)["mcc"] == 0.0
    _report("criterion 3", f"{checked} confusion matrices, tolerance 1e-12")


def test_criterion_4_desk_scale_learning():
    """Default hyperparameters at hidden=32 reach >=0.95 held-out accuracy."""
    tic = time.perf_counter()
    accounts, vocab, table = synthetic(seed=7, n_per_class=50)
    train_accts, test_accts = split_accounts(accounts, 0.7, seed=7)
    train_ex, _ = make_examples(train_accts, vocab)
    test_ex, _ = make_examples(test_accts, vocab)

    model = init_params(
        ModelConfig(vocab_size=len(vocab), embed_dim=table.dim,
                    hidden=32, layers=3),
        rng_seed=7,
        embedding=table,
    )
    cfg = TrainingConfig(seed=7)  # lr .01, momentum .9, batch 64, 30 epochs,
    train(model, train_ex, cfg)  # dropout .5 -> .1
    report = evaluate(model, test_ex)
    elapsed = time.perf_counter() - tic

    url_rule_correct = sum(
        (sum(URL in tokenize(t) for t in a.tweets) / len(a.tweets) > 0.5)
        == (a.label == BOT)
        for a in test_accts
    )
    assert report["accuracy"] >= 0.95, f"held-out accuracy {report['accuracy']}"
    assert elapsed < 600.0, f"desk-scale run took {elapsed:.0f}s"
    _report(
        "criterion 4",
        f"held-out accuracy {report['accuracy']:.3f} "
        f"(trivial link rule {url_rule_correct / len(test_accts):.3f}), "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_training_determinism(tmp_path):
    """Identical config and seed give byte-identical checkpoints and JSON."""
    flags = [
        "--synthetic", "8", "--seed", "3", "--hidden", "6", "--layers", "2",
        "--embed-dim", "8", "--epochs", "2", "--batch-size", "4",
    ]
    ckpts = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"{run}.ckpt"
        rc = cli.main([
            "train", *flags,
            "--checkpoint", str(ckpt),
            "--history", str(tmp_path / f"{run}.csv"),
        ])
        assert rc == 0
        ckpts.append(ckpt)
    assert ckpts[0].read_bytes() == ckpts[1].read_bytes()

    reports = []
    for run, ckpt in zip(("a", "b"), ckpts):
        out = tmp_path / f"{run}.json"
        rc = cli.main([
            "evaluate", "--checkpoint", str(ckpt), "--synthetic", "8",
            "--seed", "3", "--output", str(out),
        ])
        assert rc == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    _report("criterion 5", "byte-identical checkpoints and evaluation JSON")


def test_criterion_6_dropout_schedule_endpoints():
    """Epoch 1 -> 0.50 and epoch 30 -> 0.10, exactly."""
    cfg = TrainingConfig()
    assert dropout_schedule(1, cfg) == 0.5
    assert dropout_schedule(30, cfg) == 0.1
    _report("criterion 6", "0.50 at epoch 1 and 0.10 at epoch 30, exact")


def test_criterion_7_test_set_composition():
    """Published corpus sizes give the published mixed-set account counts."""
    humans = [Account(f"h{i}", HUMAN, ["x"]) for i in range(3474)]
    bots1 = [Account(f"b{i}", BOT, ["x"]) for i in range(991)]
    bots3 = [Account(f"c{i}", BOT, ["x"]) for i in range(464)]
    set1 = compose_test_set(humans, bots1, per_class=991, seed=0)
    set2 = compose_test_set(humans, bots3, per_class=464, seed=0)
    assert len(set1) == 1982
    assert len(set2) == 928
    assert sum(a.label == BOT for a in set1) == 991
    assert sum(a.label == BOT for a in set2) == 464
    _report("criterion 7", "1,982 and 928 accounts at 50/50 composition")


def test_criterion_8_pipeline_invariants():
    """Vocabulary intersection, frozen rows, softmax drift, tokenizer fuzz."""
    # vocabulary intersection property over random corpora
    rng = np.random.default_rng(12)
    pool = [f"w{i}" for i in range(30)]
    for _ in range(50):
        corpus = [
            [pool[j] for j in rng.integers(0, 30, size=rng.integers(1, 8))]
            for _ in range(rng.integers(1, 10))
        ]
        known = {pool[j] for j in rng.integers(0, 30, size=10)}
        vocab = build_vocabulary(corpus, known)
        corpus_words = {tok for toks in corpus for tok in toks}
        non_reserved = set(vocab.surfaces[6:])
        assert non_reserved == corpus_words & known

    # frozen embedding rows bit-identical after 100 momentum steps
    accounts, vocab, table = synthetic(seed=9, n_per_class=5)
    examples, _ = make_examples(accounts, vocab)
    model = init_params(
        ModelConfig(vocab_size=len(vocab), embed_dim=table.dim,
                    hidden=4, layers=1),
        rng_seed=9,
        embedding=table,
    )
    fixed = np.delete(np.arange(model.config().vocab_size), TRAINABLE_ROWS)
    before = model.tensors["embedding.vectors"][fixed].copy()
    dataset = examples[:20]
    cfg = TrainingConfig(epochs=10, batch_size=2, seed=9)  # 10 steps x 10 epochs
    train(model, dataset, cfg)
    assert np.array_equal(model.tensors["embedding.vectors"][fixed], before)

    # softmax normalization drift
    probe = random_model(np.random.default_rng(3), 9, 4, 3, 2)
    worst_drift = 0.0
    for _ in range(200):
        ids = np.random.default_rng(4).integers(0, 9, size=7)
        p = forward_batch(probe, [ids]).probabilities[0]
        worst_drift = max(worst_drift, abs(float(p.sum()) - 1.0))
    assert worst_drift <= 1e-12

    # tokenizer determinism over 1e5 fuzzed strings
    import random as stdlib_random

    rnd = stdlib_random.Random(99)
    chars = (
        "abcdefghijklmnopqrstuvwxyzABCDEFGH0123456789"
        " \t\n  #@:/.,!?;'\"()[]<>_-~"
        "éü世界İ"
    )
    n_fuzz = 100_000
    for _ in range(n_fuzz):
        s = "".join(rnd.choice(chars) for _ in range(rnd.randrange(0, 30)))
        assert tokenize(s) == tokenize(s)
    _report(
        "criterion 8",
        f"intersection, 100-step frozen rows, drift {worst_drift:.1e}, "
        f"{n_fuzz} fuzzed strings",
    )


FULL_RUN_VARS = ("BOTLSTM_FULL_ACCOUNTS", "BOTLSTM_FULL_TWEETS", "BOTLSTM_FULL_GLOVE")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in FULL_RUN_VARS),
    reason="full-corpus data not mounted (set BOTLSTM_FULL_* to enable)",
)
def test_criterion_9_full_corpus_run(tmp_path):
    """Optional: with the real corpus mounted, emit a full metrics row."""
    ckpt = tmp_path / "full.ckpt"
    rc = cli.main([
        "train",
        "--accounts", os.environ["BOTLSTM_FULL_ACCOUNTS"],
        "--tweets", os.environ["BOTLSTM_FULL_TWEETS"],
        "--glove", os.environ["BOTLSTM_FULL_GLOVE"],
        "--checkpoint", str(ckpt),
        "--history", str(tmp_path / "history.csv"),
    ])
    assert rc == 0
    out = tmp_path / "metrics.json"
    rc = cli.main([
        "evaluate", "--checkpoint", str(ckpt),
        "--accounts", os.environ["BOTLSTM_FULL_ACCOUNTS"],
        "--tweets", os.environ["BOTLSTM_FULL_TWEETS"],
        "--output", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    expected_keys = {"precision", "recall", "specificity", "accuracy",
                     "f_measure", "mcc", "tp", "tn", "fp", "fn"}
    assert expected_keys <= set(payload)
    published = {"precision": 0.940, "recall": 0.976, "specificity": 0.935,
                 "accuracy": 0.961, "f_measure": 0.963, "mcc": 0.920}
    drift = {k: abs(payload[k] - v) for k, v in published.items()}
    _report("criterion 9", f"full run emitted; |delta| vs reference: {drift}")
