"""Command-line entry point.

Subcommands: build-vocab, train, evaluate, predict, stats. One table,
`_COMMANDS`, gives each its handler, the files it reads and writes and its
other RunConfig fields; each flag is made from its field there: its name
with "-" for "_" (`--lr` for learning_rate), its type and default. Flags can be
preloaded from a flat key=value config file (--config); command-line
flags override it. Exit codes: 0 success, 1 usage error, 2 data error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import typing
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import checkpoint as ckpt
from . import corpus_stats, datasets, embeddings, text_pipeline, trainer
from .errors import BotlstmError, DataError, InternalError, UsageError, open_text
from .metrics import BOT, HUMAN, LABEL_NAMES, predicted_label, report_json
from .nn_core import ModelConfig, init_params

log = logging.getLogger(__name__)

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        # universal newlines, then "\n" alone: splitlines() also breaks at
        # U+2028, \f and other characters a file name may hold
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for n, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {n} is not key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_TYPES:
            raise UsageError(f"{path}: unknown config key {key!r} on line {n}")
        typ = _CONFIG_TYPES[key]
        try:
            if "\x00" in raw:  # no file name holds one
                raise ValueError(raw)
            if typ is bool:
                if raw.lower() not in ("true", "false"):
                    raise ValueError(raw)
                values[key] = raw.lower() == "true"
            else:
                values[key] = typ(raw)
        except ValueError as exc:
            raise UsageError(
                f"{path}: bad value for {key!r} on line {n}: {raw!r}"
            ) from exc
    return values


@dataclass(kw_only=True)
class RunConfig(trainer.TrainingConfig):
    """One command's resolved settings; the field defaults are the CLI's.

    The training fields and their defaults are TrainingConfig's.
    """

    command: str
    max_seq_len: int = 64
    granularity: str = "per_tweet"
    rt_token: bool = True
    output_dir: str = "."
    hidden: int = 200
    layers: int = 3
    embed_dim: int = 200
    accounts: str | None = None
    tweets: str | None = None
    synthetic: int | None = None
    glove: str | None = None
    vocab: str | None = None
    corpus: str | None = None
    checkpoint: str | None = None
    history: str | None = None
    output: str | None = None
    top_k: int = 50
    stopwords: bool = False
    #: the --config file read, which no output may name
    config: str | None = None

    def __post_init__(self):
        """Reject an out-of-range value of any field, whichever command runs."""
        for name in ("hidden", "layers", "embed_dim", "max_seq_len", "top_k", "synthetic"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise UsageError(f"{name} must be >= 1, got {value}")
        unread = [f"--{n}" for n in _COMMANDS[self.command].built() if getattr(self, n)]
        if self.synthetic is not None and unread:
            raise UsageError("--synthetic builds its own accounts, vocabulary and embeddings; "
                             f"it does not read {', '.join(unread)}")
        if self.granularity not in datasets.GRANULARITIES:
            raise UsageError(
                f"granularity must be one of {', '.join(datasets.GRANULARITIES)}, "
                f"got {self.granularity!r}"
            )
        try:
            super().__post_init__()
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        """Flag values over --config file values over the field defaults."""
        values = vars(args)
        if "config" in values:
            values = {**_load_config_file(values["config"]), **values}
        fields = {k: v for k, v in values.items() if k in cls.__dataclass_fields__}
        return cls(**fields)

    def examples(self, accounts, vocab) -> list[datasets.LabeledSequence]:
        """Labeled sequences at this run's granularity; empty ones are dropped."""
        examples, dropped = datasets.make_examples(
            accounts, vocab, mode=self.granularity,
            max_seq_len=self.max_seq_len, map_rt=self.rt_token,
        )
        if dropped:
            log.warning("dropped %d empty sequence(s)", dropped)
        return examples

    def out_paths(self) -> list[Path]:
        """The files this command writes, in its `writes` order, checked before it reads.

        Each is its flag's value, or its default name in --output-dir. First,
        an output that names a file the command reads (the --config file
        too), or another of its outputs, is a UsageError naming both flags.
        Paths are compared resolved, and by `os.path.samefile` when both
        exist, so a hard link or a symlink is caught too. Then a path that
        is an existing directory is a DataError. Then --output-dir is made
        if a path lies in it and it is missing; a path whose directory is
        missing or cannot be made is a DataError. Before all of
        that, an unset required input (its `reads`) is a UsageError naming
        every such flag.
        """
        command = _COMMANDS[self.command]
        built = command.built()
        excused = built if self.synthetic is not None else ("vocab",)
        missing = [n for n in command.reads if n not in excused and not getattr(self, n)]
        if missing:
            either = " (or --synthetic N)" if set(missing) & set(built) else ""
            flags = " and ".join(f"--{n}" for n in missing)
            raise UsageError(f"{self.command} requires {flags}{either}")
        writes = [(f, f and getattr(self, f), name) for f, name in command.writes]
        paths = [Path(v) if v else Path(self.output_dir) / name for _, v, name in writes]
        files = [(f"--{f or 'output-dir'}", path) for (f, _, _), path in zip(writes, paths)]
        files += [(f"--{flag}", Path(getattr(self, flag)))
                  for flag in (*command.reads, "config") if getattr(self, flag)]
        for k, (flag, path) in enumerate(files[: len(paths)]):
            for other, other_path in files[k + 1 :]:
                try:
                    same = os.path.samefile(path, other_path)
                except OSError:  # one of them is missing
                    same = path.resolve() == other_path.resolve()
                if same:
                    raise UsageError(f"{flag} and {other} name the same file")
        for path in paths:
            if path.is_dir():
                raise DataError(f"cannot write {path}: Is a directory", module="cli")
        for (_, explicit, _), path in zip(writes, paths):
            if not explicit:
                with _writing(self.output_dir):
                    Path(self.output_dir).mkdir(parents=True, exist_ok=True)
            if not path.parent.is_dir():
                raise DataError(f"cannot write {path}: no directory {path.parent}", module="cli")
        return paths


@contextmanager
def _writing(path):
    """Turn an OS error while writing `path` into a DataError that names it."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}", module="cli") from exc


def _write_csv(path: Path, header, rows, lineterminator="\r\n") -> None:
    """Write `header`, then `rows`, each row ended by `lineterminator`."""
    with _writing(path), open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


#: history.csv's columns, which key `trainer.train`'s epoch rows, and their formats.
_HISTORY_FORMATS = {"epoch": "d", "loss": ".10g", "accuracy": ".10g", "dropout": ".10g",
                    "seconds": ".6f", "clamped": "d", "seq_per_s": ".6g"}


#: --config keys and their value types: every RunConfig field but `command`
#: and `config`, an `X | None` field taking an X.
_CONFIG_TYPES = {
    name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    for name, hint in typing.get_type_hints(RunConfig).items()
    if name not in ("command", "config")
}


def _corpus_vocabulary(cfg: RunConfig, counts: Counter):
    """(vocab, words, matrix): the counted tokens the embedding file holds, in count order."""
    wanted = counts.keys() - text_pipeline.SPECIAL_TOKENS
    words, matrix = embeddings.load_glove(cfg.glove, cfg.embed_dim, wanted)
    return text_pipeline.build_vocabulary([counts], set(words)), words, matrix


def cmd_build_vocab(cfg: RunConfig) -> int:
    (out,) = cfg.out_paths()
    # split() breaks wherever splitlines() does, so a line's tokens are its tweets'
    with open_text(cfg.corpus, "cli", "corpus file") as fh:
        counts = Counter(t for line in fh
                         for t in text_pipeline.tokenize(line, map_rt=cfg.rt_token))
    vocab, _, _ = _corpus_vocabulary(cfg, counts)
    if len(vocab) == len(text_pipeline.RESERVED_TOKENS):
        log.warning("corpus/embedding intersection is empty; "
                    "vocabulary holds only the reserved tokens")
    with _writing(out):
        vocab.save(out)
    total = sum(counts.values())
    oov = sum(n for t, n in counts.items() if vocab.id_of(t) == text_pipeline.OOV_ID)
    print(f"corpus tokens: {total}")
    print(f"vocabulary size: {len(vocab)}")
    print(f"oov rate: {oov / max(total, 1):.6f}")
    print(f"wrote {out}")
    return 0


def _glove_vocab_and_table(cfg: RunConfig, accounts):
    """(vocab, table) for CSV inputs, reading only the vocabulary's embedding rows."""
    if cfg.vocab:
        vocab = text_pipeline.Vocabulary.load(cfg.vocab)
        wanted = set(vocab.surfaces) - text_pipeline.SPECIAL_TOKENS
        words, matrix = embeddings.load_glove(cfg.glove, cfg.embed_dim, wanted)
    else:
        counts = Counter(t for acct in accounts for tw in acct.tweets
                         for t in text_pipeline.tokenize(tw, map_rt=cfg.rt_token))
        vocab, words, matrix = _corpus_vocabulary(cfg, counts)
    return vocab, embeddings.build_table(vocab, words, matrix, rng_seed=cfg.seed)


def cmd_train(cfg: RunConfig) -> int:
    ckpt_path, history_path = cfg.out_paths()
    if cfg.synthetic is not None:
        accounts, vocab, table = datasets.synthetic(cfg.seed, cfg.synthetic, cfg.embed_dim)
    else:
        accounts = datasets.load_dataset(cfg.accounts, cfg.tweets)
        vocab, table = _glove_vocab_and_table(cfg, accounts)

    examples = cfg.examples(accounts, vocab)
    del accounts  # every tweet's text; training reads only the examples
    model_config = ModelConfig(
        vocab_size=len(vocab), embed_dim=table.dim,
        hidden=cfg.hidden, layers=cfg.layers,
    )
    model = init_params(model_config, rng_seed=cfg.seed, embedding=table)
    del table  # the model holds its own copy; training keeps one [V, D] table
    history = trainer.train(model, examples, cfg)

    with _writing(ckpt_path):
        ckpt.save_checkpoint(ckpt_path, model, vocab)
    _write_csv(history_path, list(_HISTORY_FORMATS),
               ([format(e[k], f) for k, f in _HISTORY_FORMATS.items()] for e in history))
    last = history[-1]
    print(f"trained {len(examples)} sequences for {len(history)} epochs")
    print(f"final train loss {last['loss']:.6f}, accuracy {last['accuracy']:.4f}")
    print(f"wrote {ckpt_path} and {history_path}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    (out,) = cfg.out_paths()
    model, vocab = ckpt.load_checkpoint(cfg.checkpoint)
    if cfg.synthetic is not None:
        accounts, _, _ = datasets.synthetic(cfg.seed, cfg.synthetic)
    else:
        accounts = datasets.load_dataset(cfg.accounts, cfg.tweets)
    examples = cfg.examples(accounts, vocab)
    report = trainer.evaluate(model, examples)
    counted = report["tp"] + report["tn"] + report["fp"] + report["fn"]
    report["accounts_without_sequences"] = len(accounts) - counted
    payload = report_json(report)
    with _writing(out):
        out.write_text(payload, encoding="utf-8")
    print(payload, end="")
    print(f"wrote {out}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    (out,) = cfg.out_paths()
    model, vocab = ckpt.load_checkpoint(cfg.checkpoint)
    accounts = [
        datasets.Account(account_id=account_id, label=HUMAN, tweets=tweets)
        for account_id, tweets in datasets.load_tweets(cfg.tweets).items()
    ]
    examples = cfg.examples(accounts, vocab)
    scored = trainer.account_probabilities(model, examples) if examples else {}

    def row(account_id):
        p_bot = scored.get(account_id, 0.5)
        flag = "" if account_id in scored else "empty_account"
        return [account_id, f"{p_bot:.6f}", LABEL_NAMES[predicted_label(p_bot)], flag]

    _write_csv(out, ["account_id", "p_bot", "predicted_label", "flag"],
               (row(acct.account_id) for acct in accounts), lineterminator="\n")
    print(f"wrote {out} ({len(accounts)} accounts)")
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    *table_paths, report_path = cfg.out_paths()
    accounts = datasets.load_dataset(cfg.accounts, cfg.tweets)
    humans = [a for a in accounts if a.label == HUMAN]
    bots = [a for a in accounts if a.label == BOT]
    if not humans or not bots:
        raise DataError("stats needs at least one account of each class",
                        module="cli")
    # every check runs before the first write, so a failed run leaves no file
    tables = []
    for name, group in (("human", humans), ("bot", bots)):
        entries, total = corpus_stats.token_frequencies(
            group, top_k=cfg.top_k,
            drop_stopwords=cfg.stopwords, map_rt=cfg.rt_token,
        )
        if not entries:
            raise DataError(f"no {name} tokens to count", module="cli")
        tables.append((entries, total))
    payload = {"a": "human", "b": "bot",
               **corpus_stats.compare_tables(tables[0][0], tables[1][0])}
    for (entries, total), path in zip(tables, table_paths):
        _write_csv(path, ["token", "count", "relative_frequency"],
                   ([token, count, f"{rel:.10g}"] for token, count, rel in entries))
        print(f"wrote {path} ({total} retained tokens)")
    with _writing(report_path):
        report_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {report_path}")
    return 0


class _Command(typing.NamedTuple):
    help: str
    run: typing.Callable[[RunConfig], int]
    #: the fields naming the files it reads; all but `vocab` are required
    reads: tuple[str, ...]
    #: the files it writes: (field naming one, or None; default name in --output-dir)
    writes: tuple[tuple[str | None, str], ...]
    #: its other flags, as RunConfig field names
    flags: tuple[str, ...]

    def built(self) -> tuple[str, ...]:
        """The inputs that --synthetic N stands in for, if the command takes it."""
        if "synthetic" not in self.flags:
            return ()
        return tuple(n for n in self.reads if n in ("accounts", "tweets", "glove", "vocab"))


_SEQUENCE = ("max_seq_len", "granularity")
_COMMANDS = {
    "build-vocab": _Command(
        "build a vocabulary file", cmd_build_vocab,
        ("corpus", "glove"), (("output", "vocab.tsv"),), ("embed_dim",)),
    "train": _Command(
        "train a model and write a checkpoint", cmd_train,
        ("accounts", "tweets", "glove", "vocab"),
        (("checkpoint", "model.ckpt"), ("history", "history.csv")),
        ("synthetic", "hidden", "layers", "embed_dim",
         *trainer.TrainingConfig.__dataclass_fields__, *_SEQUENCE)),
    "evaluate": _Command(
        "score a labeled test set", cmd_evaluate,
        ("checkpoint", "accounts", "tweets"), (("output", "metrics.json"),),
        ("synthetic", "seed", *_SEQUENCE)),
    "predict": _Command(
        "write per-account bot probabilities", cmd_predict,
        ("checkpoint", "tweets"), (("output", "predictions.csv"),), _SEQUENCE),
    "stats": _Command(
        "word-frequency tables per class", cmd_stats, ("accounts", "tweets"),
        ((None, "human_frequencies.csv"), (None, "bot_frequencies.csv"),
         (None, "divergence.json")),
        ("top_k", "stopwords")),
}
#: What a flag's help says before its default, if anything.
_HELP = {
    "corpus": "plain-text corpus, one tweet per line",
    "glove": "pretrained embedding text file",
    "vocab": "prebuilt vocabulary file (optional)",
    "accounts": "accounts CSV (account_id,label)",
    "tweets": "tweets CSV (account_id,tweet_text)",
    "checkpoint": "model checkpoint",
    "synthetic": "use the built-in generator with N accounts per class",
    "rt_token": "keep RT as a plain word instead of <RT>",
    "stopwords": "drop common English stopwords",
    "hidden": "recurrent units per direction",
    "layers": "stacked bidirectional layers",
    "embed_dim": "word-vector width",
    "granularity": f"sequence granularity, {' or '.join(datasets.GRANULARITIES)}",
}


def _add_flag(p: argparse.ArgumentParser, name: str, writes: str | None) -> None:
    """Add RunConfig field `name` as a flag; `writes` is its default file name if it is one."""
    default = RunConfig.__dataclass_fields__[name].default
    typ = _CONFIG_TYPES[name]
    flag = "lr" if name == "learning_rate" else name.replace("_", "-")
    text = _HELP.get(name, "")
    if typ is bool:  # a flag turns it from its default to the other value
        p.add_argument(f"--no-{flag}" if default else f"--{flag}", dest=name,
                       action="store_false" if default else "store_true", help=text)
        return
    if writes:
        text, default = f"{text or 'file'} to write", writes
    if default is not None:
        text = f"{text} (default {default})".lstrip()
    p.add_argument(f"--{flag}", dest=name, type=None if typ is str else typ,
                   metavar="N" if name == "synthetic" else None, help=text)


def build_parser() -> _Parser:
    parser = _Parser(prog="botlstm",
                     description="Bidirectional-LSTM bot/human tweet classifier")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser,
                                required=True)
    for name, command in _COMMANDS.items():
        # No argparse defaults: an unset flag is absent from the namespace,
        # and RunConfig.from_args fills it in.
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=command.run)
        p.add_argument("--config", help="flat key=value config file")
        writes = {f: default for f, default in command.writes if f}
        for field in (*command.reads, *writes, *command.flags, "rt_token", "output_dir"):
            _add_flag(p, field, writes.get(field))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)  # None reads sys.argv[1:]
        return args.func(RunConfig.from_args(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"{exc.module}: {exc}", file=sys.stderr)
        return 3
    except BotlstmError as exc:
        print(f"{exc.module}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault no module names
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
