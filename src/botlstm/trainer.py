"""Mini-batch SGD training loop with classical momentum.

The batch gradient is the *mean* over examples, so the learning rate
keeps its meaning regardless of batch size. The dropout rate decays
linearly per epoch between its configured endpoints. Every example draws
its dropout masks from its own seeded generator.

Training and scoring run the batched recurrence in chunks of CHUNK
sequences. Each chunk's gradients are added into the batch sum in place,
so a step holds one chunk's trace and one gradient dict, whatever the
batch size. Training fills its chunks in dataset order, scoring in
length order (see `account_probabilities`).
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InternalError
from .metrics import (
    BOT, ConfusionCounts, MetricsReport, compute_metrics, predicted_label, tally,
)
from .nn_core import ModelParams, backward_batch, forward_batch
from .text_pipeline import OOV_ID
# Not used here: re-imported only so that bench/spans.install finds these
# names on this module to wrap, until the tracer wraps the batched entry
# points instead (ROADMAP item 1).
from .nn_core import backward, bilstm_forward  # noqa: F401

log = logging.getLogger(__name__)

#: Sequences per batched forward/backward call. It bounds what a training
#: step or a scoring pass holds live: one chunk's state tracks.
CHUNK = 16

#: Loss value substituted when the true class gets probability exactly 0.
LOSS_CLAMP = -math.log(1e-300)


@dataclass
class TrainingConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 30
    dropout_start: float = 0.5
    dropout_end: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.dropout_end <= self.dropout_start < 1.0:
            raise ValueError("need 0 <= dropout_end <= dropout_start < 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float
    dropout: float
    seconds: float
    clamped: int = 0


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "accuracy", "dropout", "seconds"])
            for e in self.epochs:
                writer.writerow(
                    [e.epoch, f"{e.loss:.10g}", f"{e.accuracy:.10g}",
                     f"{e.dropout:.10g}", f"{e.seconds:.6f}"]
                )


def nll_loss(probabilities, label: int) -> float:
    """-log p(label), clamped at -log(1e-300) when that probability is 0."""
    p = float(probabilities[label])
    if p <= 0.0:
        return LOSS_CLAMP
    return -math.log(p)


def dropout_schedule(epoch: int, cfg: TrainingConfig) -> float:
    """Linear decay from dropout_start (epoch 1) to dropout_end (last epoch)."""
    if not 1 <= epoch <= cfg.epochs:
        raise ValueError(f"epoch {epoch} outside 1..{cfg.epochs}")
    if cfg.epochs == 1:
        return cfg.dropout_start
    t = (epoch - 1) / (cfg.epochs - 1)
    return cfg.dropout_start * (1.0 - t) + cfg.dropout_end * t


def sgd_momentum_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
):
    """Classical momentum update: v <- mu*v - lr*g; theta <- theta + v.

    `grads` and `velocity` are keyed and shaped like `params.trainable_tensors()`,
    so frozen embedding rows are never touched. Mutates `params` and
    `velocity` in place and returns them.
    """
    for name, tensor in params.trainable_tensors():
        g = grads[name]
        if not np.isfinite(g).all():
            raise InternalError(f"non-finite gradient for {name}", module="trainer")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(tensor)
            velocity[name] = v
        v *= momentum
        v -= lr * g
        tensor += v
    return params, velocity


def _chunk_pass(model, chunk, rate: float, seeds, grad_sum):
    """Forward+backward for a few examples, adding their gradients into grad_sum.

    Returns each example's (loss, clamped, correct), in chunk order.
    """
    labels = [ex.label for ex in chunk]
    trace = forward_batch(model, [ex.ids for ex in chunk], rate, seeds)
    backward_batch(model, trace, labels, grad_sum)
    return [
        (nll_loss(p, label), bool(p[label] <= 0.0), predicted_label(p[BOT]) == label)
        for p, label in zip(trace.probabilities, labels)
    ]


def batch_indices(order, batch_size: int):
    """Split a sequence into consecutive batches (last may be short)."""
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def train(model: ModelParams, dataset, cfg: TrainingConfig):
    """Train `model` on a list of LabeledSequence for cfg.epochs epochs.

    Each epoch reshuffles with the seeded generator, walks batches of
    cfg.batch_size (last batch may be short), and applies one momentum
    step per batch on the mean gradient. Returns (model, TrainHistory).
    """
    if not dataset:
        raise DataError("training dataset is empty", module="trainer")
    rng = np.random.default_rng(cfg.seed)
    velocity: dict[str, np.ndarray] = {}
    history = TrainHistory()

    for epoch in range(1, cfg.epochs + 1):
        tic = time.perf_counter()
        rate = dropout_schedule(epoch, cfg)
        order = rng.permutation(len(dataset))
        loss_sum = 0.0
        n_correct = 0
        n_clamped = 0
        for batch_ids in batch_indices(order, cfg.batch_size):
            seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(batch_ids))
            grad_sum = model.zero_grads()
            for ids, chunk_seeds in zip(
                batch_indices(batch_ids, CHUNK), batch_indices(seeds, CHUNK)
            ):
                chunk = [dataset[i] for i in ids]
                for loss, clamped, correct in _chunk_pass(
                    model, chunk, rate, chunk_seeds, grad_sum
                ):
                    loss_sum += loss
                    n_clamped += clamped
                    n_correct += correct
            scale = 1.0 / len(batch_ids)
            for g in grad_sum.values():
                g *= scale
            sgd_momentum_step(model, grad_sum, velocity, cfg.learning_rate, cfg.momentum)
        if n_clamped:
            log.warning("epoch %d: %d clamped zero-probability losses", epoch, n_clamped)
        history.epochs.append(
            EpochStats(
                epoch=epoch,
                loss=loss_sum / len(dataset),
                accuracy=n_correct / len(dataset),
                dropout=rate,
                seconds=time.perf_counter() - tic,
                clamped=n_clamped,
            )
        )
    return model, history


def account_probabilities(model: ModelParams, dataset) -> dict[str, tuple[int, float]]:
    """Mean bot probability per account, keyed by account id.

    Accounts keep their first-appearance order; the returned values are
    (label, mean p_bot) pairs.

    Sequences are scored CHUNK at a time in stable length order, so a
    chunk's scan runs to a length its sequences share and little of it is
    padding. A short last chunk is filled up to CHUNK columns with
    one-token [OOV_ID] sequences, whose rows are dropped: every call then
    has the same width, so BLAS rounds each sequence's products the same
    way and its probability does not depend on the other sequences
    scored. Each account's sum then adds its probabilities in dataset
    order. Training keeps dataset order, since its chunks' gradients are
    summed and another order would round the sum differently.
    """
    if not dataset:
        raise DataError("evaluation dataset is empty", module="trainer")
    p_bot = np.empty(len(dataset))
    by_length = np.argsort([len(ex.ids) for ex in dataset], kind="stable")
    for idx in batch_indices(by_length, CHUNK):
        seqs = [dataset[i].ids for i in idx] + [[OOV_ID]] * (CHUNK - len(idx))
        p_bot[idx] = forward_batch(model, seqs).probabilities[: len(idx), BOT]
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    labels: dict[str, int] = {}
    for ex, p in zip(dataset, p_bot.tolist()):
        sums[ex.account_id] = sums.get(ex.account_id, 0.0) + p
        counts[ex.account_id] = counts.get(ex.account_id, 0) + 1
        labels[ex.account_id] = ex.label
    return {
        acct: (labels[acct], sums[acct] / counts[acct]) for acct in sums
    }


def evaluate(model: ModelParams, dataset) -> tuple[ConfusionCounts, MetricsReport]:
    """Score per account: mean bot probability, labelled by `predicted_label` (ties -> bot)."""
    per_account = account_probabilities(model, dataset)
    predictions = []
    labels = []
    for acct, (label, p_bot) in per_account.items():
        if p_bot == 0.5:
            log.warning("account %s scored exactly 0.5; predicting bot", acct)
        predictions.append(predicted_label(p_bot))
        labels.append(label)
    counts = tally(predictions, labels)
    return counts, compute_metrics(counts)
