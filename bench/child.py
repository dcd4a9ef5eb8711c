"""One repetition of a workload, in a fresh Python process.

Usage: python3 bench/child.py SPEC.json RESULT.json

SPEC holds the botlstm source directory, the CLI argument lists to run
through botlstm.cli.main, and a mode:

- "full": run every command; time the top-level trainer.train and
  trainer.evaluate calls, each command, and the set-up before the first
  of those calls.
- "trace": run every command with spans around each module's public
  functions (see spans.py), and report per-layer numbers.

Set-up time counts from before botlstm is imported, since a user's
command pays for the import too. BOTLSTM_THREADS is fixed at 1 (the
program's default): spans assume serial calls, and a worker pool would
change the training rate.
"""

from __future__ import annotations

import json
import os
import sys
import time

from spans import peak_rss_mb


def main(spec_path: str, result_path: str) -> int:
    t0 = time.perf_counter()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    os.environ["BOTLSTM_THREADS"] = "1"
    from botlstm import cli, trainer

    mode = spec["mode"]
    result = {"setup_s": None, "commands": [], "train": [], "evaluate": []}

    def mark_setup():
        if result["setup_s"] is None:
            result["setup_s"] = time.perf_counter() - t0

    def timed(original, kind, sequences_of):
        def wrapper(*args, **kwargs):
            mark_setup()
            tic = time.perf_counter()
            out = original(*args, **kwargs)
            result[kind].append({"seconds": time.perf_counter() - tic,
                                 "sequences": sequences_of(args)})
            return out
        return wrapper

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    else:
        trainer.train = timed(trainer.train, "train",
                              lambda a: len(a[1]) * a[2].epochs)
        trainer.evaluate = timed(trainer.evaluate, "evaluate", lambda a: len(a[1]))

    for argv in spec["commands"]:
        span = tracer.begin(f"cli.{argv[0]}") if tracer else None
        tic = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            if tracer:
                tracer.end(span)
        result["commands"].append({"command": argv[0], "rc": rc,
                                   "seconds": time.perf_counter() - tic})
    result["workload_s"] = sum(c["seconds"] for c in result["commands"])
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        result["layers"] = spans.layer_metrics(tracer, result["workload_s"])
        tracer.write(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
