"""botlstm benchmark: drives the CLI on seeded inputs and reports metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each repetition of a workload runs its CLI
commands through botlstm.cli.main in a fresh Python process (child.py),
so peak RSS and import costs are those a user's run would see. With
--trace 0 the run repeats the workload until --seconds have passed and
reports the end-to-end metrics of BENCHMARK.json, each a median over the
repetitions, calls or commands it is defined on; with --trace 1 it runs
one plain and one traced repetition and reports the per-layer metrics.
Outputs are checked after every repetition. The last line of standard
output is the JSON result; a fuller record (sizes, environment,
repetitions) is printed before it and kept under .bench_data/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import fixture
from fixture import ROOT, Sizes

SRC = ROOT / "src"
#: Wall-clock budget for one invocation, below the 180 s limit per run.
RUN_BUDGET_S = 170.0
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _score(ckpt: Path, group: Path, o: Path):
    """evaluate + predict on the accounts of one CSV pair."""
    accounts, tweets = f"{group}_accounts.csv", f"{group}_tweets.csv"
    return [
        ["evaluate", "--checkpoint", ckpt, "--accounts", accounts, "--tweets", tweets,
         "--output", o / "metrics.json"],
        ["predict", "--checkpoint", ckpt, "--tweets", tweets, "--output", o / "predictions.csv"],
    ]


def _train(p: Path, o: Path, seed: int, s: Sizes, group: str, vocab: Path):
    return ["train", "--accounts", p / f"{group}_accounts.csv",
            "--tweets", p / f"{group}_tweets.csv", "--glove", p / "glove.txt",
            "--vocab", vocab, "--embed-dim", s.dim, "--hidden", s.hidden,
            "--layers", s.layers, "--batch-size", s.batch, "--epochs", 1, "--seed", seed,
            "--checkpoint", o / "model.ckpt", "--history", o / "history.csv"]


def _paper_train_commands(p: Path, o: Path, seed: int, s: Sizes):
    return [
        ["build-vocab", "--corpus", p / "corpus.txt", "--glove", p / "glove.txt",
         "--embed-dim", s.dim, "--output", o / "vocab.tsv"],
        _train(p, o, seed, s, "train", o / "vocab.tsv"),
        *_score(p / "model.ckpt", p / "heldout", o),
    ]


def _paper_score_commands(p: Path, o: Path, seed: int, s: Sizes):
    return [*_score(p / "model.ckpt", p / "score", o),
            _train(p, o, seed, s, "tune", p / "vocab.tsv")]


# Every end-to-end metric must be measured on every workload, so each one
# runs train, evaluate and predict; the sizes decide which stage dominates.
# Why each workload was chosen is recorded in BENCHMARK.json.
#: name -> (fixture dir, output dir, seed, sizes) -> the CLI argument lists to run
WORKLOADS: dict[str, Callable[[Path, Path, int, Sizes], list[list]]] = {
    "paper-train": _paper_train_commands,
    "paper-score": _paper_score_commands,
}


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # show_config(mode=...) needs numpy >= 1.25
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "botlstm_threads": "1",  # fixed by child.py
        "git_commit": git_commit(ROOT),
    }


class Runner:
    """Runs one workload's repetitions for one seed and collects the results."""

    def __init__(self, name: str, seed: int, sizes: Sizes, deadline: float):
        from checks import Checks

        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.sizes = sizes
        self.deadline = deadline
        self.fixture = fixture.fixture_dir(seed, sizes)
        self.work = fixture.DATA_DIR / "runs" / f"{name}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        (fixture.DATA_DIR / "results").mkdir(exist_ok=True)
        self.checks = Checks()
        self.commands_run = 0
        self.commands_failed = 0
        self.reps = 0

    def commands(self, out: Path) -> list[list[str]]:
        raw = self.workload(self.fixture, out, self.seed, self.sizes)
        return [[str(a) for a in argv] for argv in raw]

    def child(self, mode: str) -> dict | None:
        """One fresh-process repetition; None if the process itself failed."""
        self.reps += 1
        rep = self.work / f"{mode}{self.reps}"
        rep.mkdir()
        argvs = self.commands(rep)
        spec = {"src": str(SRC), "mode": mode, "commands": argvs,
                "spans_path": str(fixture.DATA_DIR / "results"
                                  / f"{self.name}-seed{self.seed}.spans.jsonl")}
        (rep / "spec.json").write_text(json.dumps(spec))
        try:
            with open(rep / "child.log", "w") as log:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).with_name("child.py")),
                     str(rep / "spec.json"), str(rep / "result.json")],
                    stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - time.monotonic()))
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            ok = False
        if not ok:
            self.checks.expect(False, f"{mode} repetition failed; see {rep / 'child.log'}")
            return None
        result = json.loads((rep / "result.json").read_text())
        for c in result["commands"]:
            self.commands_run += 1
            if c["rc"] != 0:
                self.commands_failed += 1
                self.checks.failures.append(f"{c['command']} exited {c['rc']}")
        self.commands_run += len(argvs) - len(result["commands"])
        self.commands_failed += len(argvs) - len(result["commands"])
        if not self.commands_failed:
            self.check_outputs(argvs, result)
        return result

    def check_outputs(self, argvs: list[list[str]], result: dict) -> None:
        """Checks each command's outputs; notes the accounts each predict wrote."""
        import checks

        for argv, command in zip(argvs, result["commands"]):
            opt = dict(zip(argv[1::2], argv[2::2]))
            if argv[0] == "train":
                checks.check_history(self.checks, Path(opt["--history"]))
                checks.check_checkpoint(self.checks, Path(opt["--checkpoint"]),
                                        int(opt["--hidden"]), int(opt["--layers"]))
            elif argv[0] == "evaluate":
                ckpt = Path(opt["--checkpoint"])
                n = checks.scored_accounts(ckpt, Path(opt["--accounts"]), Path(opt["--tweets"]))
                checks.check_evaluation(self.checks, Path(opt["--output"]), n)
            elif argv[0] == "predict":
                rows = checks.read_predictions(Path(opt["--output"]))
                groups = checks.group_tweets(Path(opt["--tweets"]))
                checks.check_prediction_rows(self.checks, rows, list(groups))
                checks.check_prediction_sample(self.checks, rows, Path(opt["--checkpoint"]),
                                               groups, self.seed)
                command["accounts"] = len(rows)


def end_to_end(full: list[dict]) -> dict[str, float]:
    """Medians over every call, command or repetition, as each metric defines."""
    def med(values):
        return statistics.median(values) if values else 0.0

    def rates(kind):
        return [c["sequences"] / c["seconds"] for r in full for c in r[kind]]

    # a predict whose outputs went unchecked (an earlier command failed) counts 0 accounts
    predict = [c.get("accounts", 0) / c["seconds"] for r in full
               for c in r["commands"] if c["command"] == "predict"]
    return {
        "setup_s": med([r["setup_s"] for r in full if r["setup_s"] is not None]),
        "train_seq_per_s": med(rates("train")),
        "score_seq_per_s": med(rates("evaluate")),
        "predict_accounts_per_s": med(predict),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in full]),
        "workload_s": med([r["workload_s"] for r in full]),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes()) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    started = time.monotonic()
    runner = Runner(name, seed, sizes, started + RUN_BUDGET_S)
    measure_start = time.monotonic()
    full = []
    while True:
        tic = time.monotonic()
        r = runner.child("full")
        if r is not None:
            full.append(r)
        now = time.monotonic()
        # another repetition starts only if one as long as the last ends inside
        # the window and the run's budget
        end = min(measure_start + seconds, runner.deadline)
        if trace or r is None or now + (now - tic) > end:
            break
    metrics: dict[str, float] = {}
    traced = None
    if trace:
        traced = runner.child("trace")
        if traced is not None:
            metrics = dict(traced["layers"])
            if full:
                metrics["trace.overhead_s"] = traced["workload_s"] - full[0]["workload_s"]
        wanted = spec["per_layer"]
    elif full:
        metrics = end_to_end(full)
        wanted = spec["end_to_end"]

    failed = runner.commands_failed + len(runner.checks.failures)
    line = {
        "correct": failed == 0,
        "attempted": runner.commands_run + runner.checks.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    shapes = json.loads((runner.fixture / "shapes.json").read_text())
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "shape": shapes[name],
        "environment": environment(), "failures": runner.checks.failures,
        "full_repetitions": full,
        "traced_workload_s": traced["workload_s"] if traced else None,
        "elapsed_s": time.monotonic() - started,
    }
    (fixture.DATA_DIR / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"result": line, "record": record}, indent=1))
    if not runner.checks.failures:  # outputs and child logs are kept only to diagnose failures
        shutil.rmtree(runner.work, ignore_errors=True)
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="botlstm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child process (subprocess.run kills it on exit)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "botlstm" / "__init__.py").is_file():
        print(f"bench: botlstm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in record["failures"]:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
