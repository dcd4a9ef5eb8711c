"""Mini-batch SGD training loop with classical momentum.

The batch gradient is the *mean* over examples, so the learning rate
keeps its meaning regardless of batch size. The dropout rate decays
linearly per epoch between its configured endpoints. Every example draws
its dropout masks from its own seeded generator.

Training and scoring run the batched recurrence in chunks of CHUNK
sequences. Each chunk's gradients are added into the batch sum in place,
so a step holds one chunk's trace and one gradient dict, whatever the
batch size. Both fill their chunks in stable length order, so a chunk's
scan runs to a length its sequences share. Training sorts within each
mini-batch: the batch's members, their dropout seeds and its mean
gradient stay those of the shuffled order, and each example's loss is
tallied in that order. Only the order in which chunk gradients are added
differs from filling the chunks in shuffled order, which moves trained
parameters in their last bits. Scoring sorts the whole dataset (see
`account_probabilities`).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InternalError
from .metrics import BOT, compute_metrics, predicted_label, tally
from .nn_core import N_CLASSES, ModelParams, backward_batch, forward_batch
from .text_pipeline import OOV_ID
# Not used here: re-imported only so that bench/spans.install finds these
# names on this module to wrap, until the tracer wraps the batched entry
# points instead (ROADMAP item 1a).
from .nn_core import backward, bilstm_forward  # noqa: F401

log = logging.getLogger(__name__)

#: Sequences per batched forward/backward call. It bounds what a training
#: step or a scoring pass holds live: in scoring, one chunk's current
#: layer; in training, one chunk's state tracks and gates.
CHUNK = 16

#: Largest finite float32; a parameter beyond it cannot be checkpointed.
FLOAT32_MAX = float(np.finfo(np.float32).max)

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
) -> None:
    """Classical momentum update: v <- mu*v - lr*g; theta <- theta + v.

    `grads` and `velocity` are keyed and shaped like `params.trainable_tensors()`,
    so frozen embedding rows are never touched. Mutates `params` and
    `velocity` in place. A tensor that the step leaves non-finite or beyond
    float32's range, which a checkpoint cannot hold, is an InternalError
    naming it, raised at once so a diverging run stops at its first bad step.
    """
    for name, tensor in params.trainable_tensors():
        g = grads[name]
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(tensor)
            velocity[name] = v
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused below
            v *= momentum
            v -= lr * g
            tensor += v
        # NaN fails both comparisons
        if not (-FLOAT32_MAX <= tensor.min() and tensor.max() <= FLOAT32_MAX):
            if not np.isfinite(g).all():
                raise InternalError(f"non-finite gradient for {name}", module="trainer")
            raise InternalError(f"step leaves {name} beyond float32's range", module="trainer")


def batch_indices(order, batch_size: int):
    """Split a sequence into consecutive batches (last may be short)."""
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def train(model: ModelParams, dataset, cfg: TrainingConfig) -> list[dict]:
    """Train `model` in place on a list of LabeledSequence for cfg.epochs epochs.

    Each epoch reshuffles with the seeded generator, walks batches of
    cfg.batch_size (last batch may be short), and applies one momentum
    step per batch on the mean gradient. Each example draws its dropout
    seed in shuffled order and keeps it when the batch is cut into CHUNK
    columns in stable length order; its probability row is written back to
    its batch position, and the rows are tallied in shuffled order.
    Returns the history: one dict per epoch, keyed by the history CSV's
    columns in order (epoch, loss, accuracy, dropout, seconds, clamped,
    seq_per_s).
    """
    if not dataset:
        raise DataError("training dataset is empty", module="trainer")
    rng = np.random.default_rng(cfg.seed)
    velocity: dict[str, np.ndarray] = {}
    history = []

    for epoch in range(1, cfg.epochs + 1):
        tic = time.perf_counter()
        rate = dropout_schedule(epoch, cfg)
        order = rng.permutation(len(dataset))
        loss_sum, n_correct, n_clamped = 0.0, 0, 0
        for batch_ids in batch_indices(order, cfg.batch_size):
            seeds = rng.integers(0, np.iinfo(np.int64).max, size=len(batch_ids))
            batch = [dataset[i] for i in batch_ids]
            labels = np.array([ex.label for ex in batch])
            probabilities = np.empty((len(batch), N_CLASSES))
            grad_sum = model.zero_grads()
            by_length = np.argsort([len(ex.ids) for ex in batch], kind="stable")
            for pos in batch_indices(by_length, CHUNK):
                trace = forward_batch(model, [batch[k].ids for k in pos], rate, seeds[pos])
                backward_batch(model, trace, labels[pos], grad_sum)
                probabilities[pos] = trace.probabilities
            for p, label in zip(probabilities.tolist(), labels.tolist()):  # shuffled order
                loss_sum += nll_loss(p, label)
                n_clamped += p[label] <= 0.0
                n_correct += predicted_label(p[BOT]) == label
            scale = 1.0 / len(batch_ids)
            for g in grad_sum.values():
                g *= scale
            sgd_momentum_step(model, grad_sum, velocity, cfg.learning_rate, cfg.momentum)
        if n_clamped:
            log.warning("epoch %d: %d clamped zero-probability losses", epoch, n_clamped)
        seconds = time.perf_counter() - tic
        history.append({
            "epoch": epoch,
            "loss": loss_sum / len(dataset),
            "accuracy": n_correct / len(dataset),
            "dropout": rate,
            "seconds": seconds,
            "clamped": n_clamped,
            "seq_per_s": len(dataset) / seconds,
        })
    return history


def account_probabilities(model: ModelParams, dataset) -> dict[str, float]:
    """Mean bot probability per account, keyed by account id.

    Accounts keep their first-appearance order.

    Sequences are scored CHUNK at a time in stable length order, so a
    chunk's scan runs to a length its sequences share and little of it is
    padding. A short last chunk is filled up to CHUNK columns with
    one-token [OOV_ID] sequences, whose rows are dropped: every call then
    has the same width. At paper shape a sequence's probability has the
    same bits at any width (see `nn_core._matmul`), but BLAS's
    small-matrix kernels round a product of a few rows differently, so
    at small shapes it is the fill-up that keeps a sequence's
    probability from depending on the other sequences scored. Scoring
    runs with overflow and invalid-value warnings off. Each account's sum
    then adds its probabilities in dataset order. Training sorts the same way, but within each mini-batch (see
    `train`); its chunks are not filled up, since a short last chunk is
    as wide in any order. A non-finite probability, which a model with
    finite but huge float32 weights can give, is a DataError naming the
    first account (in dataset order) that scored one.
    """
    if not dataset:
        raise DataError("evaluation dataset is empty", module="trainer")
    p_bot = np.empty(len(dataset))
    by_length = np.argsort([len(ex.ids) for ex in dataset], kind="stable")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused below
        for idx in batch_indices(by_length, CHUNK):
            seqs = [dataset[i].ids for i in idx] + [[OOV_ID]] * (CHUNK - len(idx))
            p_bot[idx] = forward_batch(model, seqs).probabilities[: len(idx), BOT]
    if not np.isfinite(p_bot).all():
        bad = dataset[np.flatnonzero(~np.isfinite(p_bot))[0]].account_id
        raise DataError(f"account {bad} scored a non-finite bot probability", module="trainer")
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for ex, p in zip(dataset, p_bot.tolist()):
        sums[ex.account_id] = sums.get(ex.account_id, 0.0) + p
        counts[ex.account_id] = counts.get(ex.account_id, 0) + 1
    return {acct: sums[acct] / counts[acct] for acct in sums}


def evaluate(model: ModelParams, dataset) -> dict:
    """The metrics.json dict (see `compute_metrics`) over the dataset's accounts.

    Each account is labelled by `predicted_label` of its mean bot
    probability (ties -> bot) and judged against its examples' label.
    """
    labels = {ex.account_id: ex.label for ex in dataset}
    predictions = []
    for acct, p_bot in account_probabilities(model, dataset).items():
        if p_bot == 0.5:
            log.warning("account %s scored exactly 0.5; predicting bot", acct)
        predictions.append(predicted_label(p_bot))
    # both dicts hold the accounts in first-appearance order
    return compute_metrics(**tally(predictions, list(labels.values())))
