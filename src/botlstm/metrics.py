"""Confusion-matrix bookkeeping and the six evaluation metrics.

The positive class is "bot". Any metric whose denominator is zero is
reported as 0.0 and named in the report's `degenerate` tuple.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

HUMAN = 0
BOT = 1

LABEL_NAMES = {HUMAN: "human", BOT: "bot"}
LABEL_IDS = {"human": HUMAN, "bot": BOT}


def predicted_label(p_bot: float) -> int:
    """The class given to a bot probability: BOT from 0.5 up, so a tie is a bot."""
    return BOT if p_bot >= 0.5 else HUMAN


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    precision: float
    recall: float
    specificity: float
    accuracy: float
    f_measure: float
    mcc: float
    degenerate: tuple[str, ...] = ()


def tally(predictions, labels) -> ConfusionCounts:
    """Count TP/TN/FP/FN treating BOT as the positive class."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(labels)} labels"
        )
    if not labels:
        raise ValueError("cannot tally an empty prediction list")
    c = ConfusionCounts()
    for pred, label in zip(predictions, labels):
        if label == BOT:
            if pred == BOT:
                c.tp += 1
            else:
                c.fn += 1
        else:
            if pred == BOT:
                c.fp += 1
            else:
                c.tn += 1
    return c


def _ratio(num: float, den: float, name: str, degenerate: list[str]) -> float:
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def compute_metrics(c: ConfusionCounts) -> MetricsReport:
    """Evaluate precision/recall/specificity/accuracy/F/MCC from counts."""
    if c.total == 0:
        raise ValueError("cannot compute metrics for zero evaluated accounts")
    degenerate: list[str] = []
    precision = _ratio(c.tp, c.tp + c.fp, "precision", degenerate)
    recall = _ratio(c.tp, c.tp + c.fn, "recall", degenerate)
    specificity = _ratio(c.tn, c.tn + c.fp, "specificity", degenerate)
    accuracy = (c.tp + c.tn) / c.total
    f_measure = _ratio(
        2.0 * precision * recall, precision + recall, "f_measure", degenerate
    )
    mcc_den_sq = (c.tp + c.fn) * (c.tp + c.fp) * (c.tn + c.fp) * (c.tn + c.fn)
    if mcc_den_sq == 0:
        degenerate.append("mcc")
        mcc = 0.0
    else:
        mcc = (c.tp * c.tn - c.fp * c.fn) / math.sqrt(mcc_den_sq)
    return MetricsReport(
        precision=precision,
        recall=recall,
        specificity=specificity,
        accuracy=accuracy,
        f_measure=f_measure,
        mcc=mcc,
        degenerate=tuple(degenerate),
    )


def report_json(counts: ConfusionCounts, report: MetricsReport) -> str:
    """Serialize a report plus its counts as a deterministic JSON object."""
    payload = {
        "precision": report.precision,
        "recall": report.recall,
        "specificity": report.specificity,
        "accuracy": report.accuracy,
        "f_measure": report.f_measure,
        "mcc": report.mcc,
        "tp": counts.tp,
        "tn": counts.tn,
        "fp": counts.fp,
        "fn": counts.fn,
        "degenerate_metrics": list(report.degenerate),
    }
    return json.dumps(payload, indent=2) + "\n"
