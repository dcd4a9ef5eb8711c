"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest bench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import fixture  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = fixture.Sizes(
    glove_rows=300, vocab_words=60, dim=8, hidden=4, layers=2, batch=8,
    corpus_lines=40, min_words=3, max_words=6,
    train_accounts=4, train_tweets=4, heldout_accounts=2, heldout_tweets=3,
    score_accounts=4, score_tweets=3, tune_accounts=2, tune_tweets=4,
)


def test_per_layer_names_match_the_trace():
    computed = set(spans.layer_metrics(spans.Tracer(), 1.0)) | {"trace.overhead_s"}
    assert computed == {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def scratch_data_dir(tmp_path, monkeypatch):
    """Keeps the tiny fixtures, runs and results out of the real .bench_data."""
    monkeypatch.setattr(fixture, "DATA_DIR", tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line, record = run.run(workload, seed=3, seconds=0, trace=trace, sizes=TINY)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    values = [v["value"] for v in line["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert line["attempted"] >= 1
    assert line["correct"] and line["failed"] == 0, record["failures"]


def test_nan_p_bot_counts_as_failure():
    c = checks.Checks()
    rows = [{"account_id": "a", "p_bot": "nan"}, {"account_id": "b", "p_bot": "0.25"}]
    checks.check_prediction_rows(c, rows, ["a", "b"])
    assert c.attempted == 2
    assert len(c.failures) == 1 and "p_bot" in c.failures[0]
