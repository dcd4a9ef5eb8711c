"""Confusion-matrix bookkeeping and the six evaluation metrics.

The positive class is "bot". Any metric whose denominator is zero is
reported as 0.0 and named in the report's `degenerate_metrics` list.
"""

from __future__ import annotations

import json
import math

HUMAN = 0
BOT = 1

LABEL_NAMES = {HUMAN: "human", BOT: "bot"}
LABEL_IDS = {"human": HUMAN, "bot": BOT}


def predicted_label(p_bot: float) -> int:
    """The class given to a bot probability: BOT from 0.5 up, so a tie is a bot."""
    return BOT if p_bot >= 0.5 else HUMAN


def tally(predictions, labels) -> dict[str, int]:
    """Count {"tp", "tn", "fp", "fn"} treating BOT as the positive class."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(labels)} labels"
        )
    if not labels:
        raise ValueError("cannot tally an empty prediction list")
    counts = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for pred, label in zip(predictions, labels):
        if label == BOT:
            counts["tp" if pred == BOT else "fn"] += 1
        else:
            counts["fp" if pred == BOT else "tn"] += 1
    return counts


def _ratio(num: float, den: float, name: str, degenerate: list[str]) -> float:
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def compute_metrics(*, tp: int, tn: int, fp: int, fn: int) -> dict:
    """The metrics.json dict for these counts: the six metrics, the counts,
    then `degenerate_metrics`, the metrics reported as 0.0 for a zero
    denominator."""
    if min(tp, tn, fp, fn) < 0:
        raise ValueError("confusion counts must be non-negative")
    total = tp + tn + fp + fn
    if total == 0:
        raise ValueError("cannot compute metrics for zero evaluated accounts")
    degenerate: list[str] = []
    precision = _ratio(tp, tp + fp, "precision", degenerate)
    recall = _ratio(tp, tp + fn, "recall", degenerate)
    specificity = _ratio(tn, tn + fp, "specificity", degenerate)
    f_measure = _ratio(
        2.0 * precision * recall, precision + recall, "f_measure", degenerate
    )
    mcc_den_sq = (tp + fn) * (tp + fp) * (tn + fp) * (tn + fn)
    if mcc_den_sq == 0:
        degenerate.append("mcc")
        mcc = 0.0
    else:
        mcc = (tp * tn - fp * fn) / math.sqrt(mcc_den_sq)
    return {
        "precision": precision,
        "recall": recall,
        "specificity": specificity,
        "accuracy": (tp + tn) / total,
        "f_measure": f_measure,
        "mcc": mcc,
        "tp": tp,
        "tn": tn,
        "fp": fp,
        "fn": fn,
        "degenerate_metrics": degenerate,
    }


def report_json(report: dict) -> str:
    """Serialize a metrics report as a deterministic JSON object."""
    return json.dumps(report, indent=2) + "\n"
