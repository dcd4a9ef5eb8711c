"""Spans around calls into botlstm's modules, recorded from outside.

The program is not edited: each public function is replaced, at the
binding its caller looks up, by a wrapper that records a span (name,
start, end, parent) and updates a few counters. Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from collections import defaultdict


#: Commands whose own (self) time is reported as cli.<command>.self_s.
COMMANDS = ("build-vocab", "train", "evaluate", "predict")
#: Span names whose self time makes up metrics.self_s.
METRIC_SPANS = ("metrics.tally", "metrics.compute_metrics", "metrics.report_json")
#: Spans that also record the peak-RSS rise across them.
RSS_SPANS = frozenset({"trainer.train", "embeddings.load_glove"})


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB.

    Linux's ru_maxrss carries the parent's RSS over fork+exec, so the
    per-address-space high-water mark (VmHWM) is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder. One per traced run.

    Not thread-safe: child.py fixes BOTLSTM_THREADS at 1, so the trainer
    makes every call from the main thread.
    """

    def __init__(self):
        # [name, start, end, parent index, peak RSS at start and at end (MB)]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        rss = peak_rss_mb() if name in RSS_SPANS else 0.0
        self.spans.append([name, time.perf_counter(), 0.0, parent, rss, rss])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if span[0] in RSS_SPANS:
            span[5] = peak_rss_mb()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        `name` is a span name or a function of the call's (args, kwargs);
        `after(tracer, args, kwargs, result)` updates counters.
        """
        original = getattr(owner, attr)
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.begin(name_of(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rss0, rss1 in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "rss_mb": [rss0, rss1]}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every public function the CLI reaches, at its caller's binding."""
    from botlstm import checkpoint, cli, datasets, embeddings, nn_core, text_pipeline, trainer
    from botlstm.text_pipeline import OOV_ID, RESERVED_TOKENS

    def count_forward(tracer, args, kwargs, result):
        tracer.counts["nn_core.timesteps"] += len(result.ids)

    def count_backward(tracer, args, kwargs, grads):
        # per-call sizes: the last call's (every call has the same shapes)
        tracer.counts["nn_core.backward.grad_bytes"] = sum(g.nbytes for g in grads.values())
        tracer.counts["nn_core.backward.emb_grad_rows"] = grads["embedding.vectors"].shape[0]

    def count_encode(tracer, args, kwargs, ids):
        tracer.counts["encode.tokens"] += len(ids)
        tracer.counts["encode.oov"] += ids.count(OOV_ID)

    def count_glove(tracer, args, kwargs, result):
        tracer.counts["glove.rows_parsed"] += len(result[0])

    def count_table(tracer, args, kwargs, table):
        tracer.counts["glove.rows_kept"] += table.vocab_size - len(RESERVED_TOKENS)

    def count_examples(tracer, args, kwargs, result):
        tracer.counts["datasets.sequences"] += len(result[0])

    def count_checkpoint(tracer, args, kwargs, result):
        tracer.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    def forward_name(args, kwargs):
        return "nn_core.forward_train" if kwargs.get("train_mode") else "nn_core.forward_eval"

    wraps = [
        (trainer, "train", "trainer.train", None),
        (trainer, "evaluate", "trainer.evaluate", None),
        (trainer, "account_probabilities", "trainer.account_probabilities", None),
        (trainer, "sgd_momentum_step", "trainer.sgd_momentum_step", None),
        (trainer, "bilstm_forward", forward_name, count_forward),
        (trainer, "backward", "nn_core.backward", count_backward),
        (trainer, "tally", "metrics.tally", None),
        (trainer, "compute_metrics", "metrics.compute_metrics", None),
        (cli, "report_json", "metrics.report_json", None),
        (cli, "init_params", "nn_core.init_params", None),
        (nn_core, "embed_sequence", "embeddings.embed_sequence", None),
        (embeddings, "load_glove", "embeddings.load_glove", count_glove),
        (embeddings, "build_table", "embeddings.build_table", count_table),
        (text_pipeline, "tokenize", "text_pipeline.tokenize", None),
        (datasets, "tokenize", "text_pipeline.tokenize", None),
        (text_pipeline, "encode", "text_pipeline.encode", count_encode),
        (datasets, "encode", "text_pipeline.encode", count_encode),
        (text_pipeline, "build_vocabulary", "text_pipeline.build_vocabulary", None),
        (text_pipeline.Vocabulary, "load", "text_pipeline.Vocabulary.load", None),
        (datasets, "load_dataset", "datasets.load_dataset", None),
        (datasets, "make_examples", "datasets.make_examples", count_examples),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", count_checkpoint),
    ]
    for owner, attr, name, after in wraps:
        tracer.wrap(owner, attr, name, after)


def layer_metrics(tracer: Tracer, workload_s: float) -> dict[str, float]:
    """Per-layer numbers from the recorded spans and counters.

    Self time is a span's duration minus its child spans' durations. A
    wrapped function that was never called reports zeros.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    rss_rise: dict[str, float] = defaultdict(float)
    covered = 0.0
    for i, (name, start, end, parent, rss0, rss1) in enumerate(spans):
        self_s[name] += end - start - child_time[i]
        calls[name] += 1
        durations[name].append(end - start)
        rss_rise[name] += rss1 - rss0
        if not name.startswith("cli.") and (parent < 0 or spans[parent][0].startswith("cli.")):
            covered += end - start

    def pct(name, q):
        d = sorted(durations[name])
        return d[min(len(d) - 1, int(q / 100 * len(d)))] * 1e3 if d else 0.0

    c = tracer.counts
    out: dict[str, float] = {}
    for phase in ("forward_train", "forward_eval"):
        name = f"nn_core.{phase}"
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.p50_ms"] = pct(name, 50)
        out[f"{name}.p90_ms"] = pct(name, 90)
    out["nn_core.backward.self_s"] = self_s["nn_core.backward"]
    out["nn_core.backward.p50_ms"] = pct("nn_core.backward", 50)
    out["nn_core.backward.p90_ms"] = pct("nn_core.backward", 90)
    out["nn_core.backward.grad_bytes"] = c["nn_core.backward.grad_bytes"]
    out["nn_core.backward.emb_grad_rows"] = c["nn_core.backward.emb_grad_rows"]
    out["nn_core.timesteps"] = c["nn_core.timesteps"]
    out["nn_core.init_params.self_s"] = self_s["nn_core.init_params"]

    out["trainer.train.self_s"] = self_s["trainer.train"]
    out["trainer.train.rss_rise_mb"] = rss_rise["trainer.train"]
    out["trainer.sgd_momentum_step.self_s"] = self_s["trainer.sgd_momentum_step"]
    out["trainer.sgd_momentum_step.calls"] = calls["trainer.sgd_momentum_step"]
    out["trainer.evaluate.self_s"] = self_s["trainer.evaluate"]
    out["trainer.account_probabilities.self_s"] = self_s["trainer.account_probabilities"]
    out["trainer.account_probabilities.calls"] = calls["trainer.account_probabilities"]

    out["embeddings.load_glove.self_s"] = self_s["embeddings.load_glove"]
    out["embeddings.load_glove.rss_rise_mb"] = rss_rise["embeddings.load_glove"]
    parsed = c["glove.rows_parsed"]
    out["embeddings.rows_kept_ratio"] = c["glove.rows_kept"] / parsed if parsed else 0.0
    out["embeddings.build_table.self_s"] = self_s["embeddings.build_table"]
    out["embeddings.embed_sequence.self_s"] = self_s["embeddings.embed_sequence"]

    for fn in ("tokenize", "encode"):
        out[f"text_pipeline.{fn}.self_s"] = self_s[f"text_pipeline.{fn}"]
        out[f"text_pipeline.{fn}.calls"] = calls[f"text_pipeline.{fn}"]
    tokens = c["encode.tokens"]
    out["text_pipeline.oov_rate"] = c["encode.oov"] / tokens if tokens else 0.0
    out["text_pipeline.build_vocabulary.self_s"] = self_s["text_pipeline.build_vocabulary"]
    out["text_pipeline.Vocabulary.load.self_s"] = self_s["text_pipeline.Vocabulary.load"]

    out["datasets.load_dataset.self_s"] = self_s["datasets.load_dataset"]
    out["datasets.make_examples.self_s"] = self_s["datasets.make_examples"]
    out["datasets.make_examples.calls"] = calls["datasets.make_examples"]
    out["datasets.sequences"] = c["datasets.sequences"]

    out["checkpoint.load_checkpoint.self_s"] = self_s["checkpoint.load_checkpoint"]
    out["checkpoint.save_checkpoint.self_s"] = self_s["checkpoint.save_checkpoint"]
    out["checkpoint.bytes"] = c["checkpoint.bytes"]
    out["metrics.self_s"] = sum(self_s[n] for n in METRIC_SPANS)
    for command in COMMANDS:
        out[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
    out["trace.uncovered_share"] = 1.0 - covered / workload_s if workload_s > 0 else 0.0
    return {k: float(v) for k, v in out.items()}
