"""Output checks. Each check is one attempted operation; a failed check
counts as a failed operation, like a command that exits non-zero."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from botlstm import (
    BOT, HUMAN, Account, bilstm_forward, load_checkpoint, load_dataset, make_examples,
)

#: Accounts whose predicted p_bot is recomputed from bilstm_forward.
SAMPLED_ACCOUNTS = 2


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def check_history(checks: Checks, path: Path) -> None:
    """Every epoch's loss is finite and, over several epochs, the last is below the first."""
    with open(path, encoding="utf-8", newline="") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    if checks.expect(bool(losses) and all(math.isfinite(x) for x in losses),
                     f"{path.name}: non-finite or missing epoch loss {losses}"):
        if len(losses) > 1:
            checks.expect(losses[-1] < losses[0],
                          f"{path.name}: loss did not fall ({losses[0]} -> {losses[-1]})")


def check_checkpoint(checks: Checks, path: Path, hidden: int, layers: int) -> None:
    """The checkpoint written by train reloads, with the trained shape."""
    try:
        model, _ = load_checkpoint(path)
    except Exception as exc:  # any failure to reload is the finding
        checks.expect(False, f"{path.name}: does not reload: {exc}")
        return
    checks.expect(model.hidden == hidden and len(model.layers) == layers,
                  f"{path.name}: reloaded H={model.hidden} L={len(model.layers)}")


def scored_accounts(checkpoint: Path, accounts_csv: Path, tweets_csv: Path) -> int:
    """Accounts with at least one sequence: the ones evaluate can score."""
    _, vocab = load_checkpoint(checkpoint)
    examples, _ = make_examples(load_dataset(accounts_csv, tweets_csv), vocab)
    return len({ex.account_id for ex in examples})


def check_evaluation(checks: Checks, metrics_json: Path, n_accounts: int) -> None:
    """Confusion counts sum to the accounts scored."""
    report = json.loads(metrics_json.read_text(encoding="utf-8"))
    total = report["tp"] + report["tn"] + report["fp"] + report["fn"]
    checks.expect(total == n_accounts,
                  f"{metrics_json.name}: counts sum to {total}, scored {n_accounts}")


def read_predictions(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def group_tweets(tweets_csv: Path) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    with open(tweets_csv, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["account_id"], []).append(row["tweet_text"])
    return groups


def _p_bot(row: dict) -> float:
    try:
        return float(row["p_bot"])
    except (TypeError, ValueError):
        return math.nan


def check_prediction_rows(checks: Checks, rows: list[dict], accounts: list[str]) -> None:
    """One row per account, with p_bot finite and in [0, 1]."""
    checks.expect(sorted(r["account_id"] for r in rows) == sorted(accounts),
                  f"predictions: {len(rows)} rows for {len(accounts)} accounts")
    bad = [r for r in rows if not 0.0 <= _p_bot(r) <= 1.0]  # NaN fails too
    checks.expect(not bad, f"predictions: p_bot outside [0, 1] for {len(bad)} account(s)")


def check_prediction_sample(checks: Checks, rows: list[dict], checkpoint: Path,
                            groups: dict[str, list[str]], seed: int) -> None:
    """For a seeded sample of accounts, p_bot is the mean of bilstm_forward's.

    predict writes p_bot with 6 decimals, so the recomputed mean is
    rounded the same way before the 1e-9 comparison.
    """
    model, vocab = load_checkpoint(checkpoint)
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(rows), min(SAMPLED_ACCOUNTS, len(rows)), replace=False)
    for i in sorted(picked):
        row = rows[i]
        account = Account(row["account_id"], HUMAN, groups[row["account_id"]])
        examples, _ = make_examples([account], vocab)
        total = 0.0
        for ex in examples:
            total += float(bilstm_forward(model, ex.ids).probabilities[BOT])
        expected = float(f"{total / len(examples):.6f}")
        got = _p_bot(row)
        checks.expect(abs(got - expected) <= 1e-9,
                      f"predictions: {row['account_id']} p_bot {got} != {expected}")
