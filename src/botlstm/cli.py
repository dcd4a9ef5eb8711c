"""Command-line entry point.

Subcommands: build-vocab, train, evaluate, predict, stats. Flags can be
preloaded from a flat key=value config file (--config); command-line
flags override it. Exit codes: 0 success, 1 usage error, 2 data error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import typing
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


# Subcommand flags have no argparse default (argument_default=SUPPRESS): an
# unset flag is absent from the namespace; RunConfig.from_args fills it in.

def _add_embed_dim_flag(p):
    p.add_argument("--embed-dim", dest="embed_dim", type=int,
                   help=f"word-vector width (default {RunConfig.embed_dim})")


def _add_model_flags(p):
    p.add_argument("--hidden", type=int,
                   help=f"recurrent units per direction (default {RunConfig.hidden})")
    p.add_argument("--layers", type=int,
                   help=f"stacked bidirectional layers (default {RunConfig.layers})")
    _add_embed_dim_flag(p)


def _add_training_flags(p):
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--dropout-start", dest="dropout_start", type=float)
    p.add_argument("--dropout-end", dest="dropout_end", type=float)


def _add_common_flags(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-rt-token", dest="rt_token", action="store_false",
                   help="keep RT as a plain word instead of <RT>")
    p.add_argument("--output-dir", dest="output_dir")


def _add_sequence_flags(p):
    p.add_argument("--max-seq-len", dest="max_seq_len", type=int)
    p.add_argument("--granularity", choices=datasets.GRANULARITIES,
                   help="sequence granularity for training/scoring")


def _add_data_flags(p, with_synthetic=True):
    p.add_argument("--accounts", help="accounts CSV (account_id,label)")
    p.add_argument("--tweets", help="tweets CSV (account_id,tweet_text)")
    if with_synthetic:
        p.add_argument("--synthetic", type=int, metavar="N",
                       help="use the built-in generator with N accounts per class")


def build_parser() -> _Parser:
    parser = _Parser(prog="botlstm",
                     description="Bidirectional-LSTM bot/human tweet classifier")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)

    p = add_parser("build-vocab", help="build a vocabulary file")
    p.add_argument("--corpus", help="plain-text corpus, one tweet per line")
    p.add_argument("--glove", help="pretrained embedding text file")
    p.add_argument("--output", help="vocabulary file to write (default vocab.tsv)")
    _add_embed_dim_flag(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_build_vocab)

    p = add_parser("train", help="train a model and write a checkpoint")
    _add_data_flags(p)
    p.add_argument("--glove", help="pretrained embedding text file")
    p.add_argument("--vocab", help="prebuilt vocabulary file (optional)")
    p.add_argument("--checkpoint", help="checkpoint to write (default model.ckpt)")
    p.add_argument("--history", help="history CSV to write (default history.csv)")
    _add_model_flags(p)
    _add_training_flags(p)
    _add_sequence_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = add_parser("evaluate", help="score a labeled test set")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", help="metrics JSON to write (default metrics.json)")
    _add_sequence_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = add_parser("predict", help="write per-account bot probabilities")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tweets", required=True)
    p.add_argument("--output", help="predictions CSV (default predictions.csv)")
    _add_sequence_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_predict)

    p = add_parser("stats", help="word-frequency tables per class")
    _add_data_flags(p, with_synthetic=False)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--stopwords", action="store_true",
                   help="drop common English stopwords")
    _add_common_flags(p)
    p.set_defaults(func=cmd_stats)
    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
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


def parse_args(argv) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError("a subcommand is required (see --help)")
    return args


@dataclass
class RunConfig:
    """One command's resolved settings; the field defaults are the CLI's."""

    command: str
    seed: int = 0
    max_seq_len: int = 64
    granularity: str = "per_tweet"
    rt_token: bool = True
    output_dir: str = "."
    hidden: int = 200
    layers: int = 3
    embed_dim: int = 200
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 30
    dropout_start: float = 0.5
    dropout_end: float = 0.1
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

    def __post_init__(self):
        """Reject an out-of-range value of any field, whichever command runs."""
        for name in ("hidden", "layers", "embed_dim", "max_seq_len", "top_k", "synthetic"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise UsageError(f"{name} must be >= 1, got {value}")
        if self.granularity not in datasets.GRANULARITIES:
            raise UsageError(
                f"granularity must be one of {', '.join(datasets.GRANULARITIES)}, "
                f"got {self.granularity!r}"
            )
        try:
            self.training()  # checks the fields RunConfig shares with TrainingConfig
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

    def training(self) -> trainer.TrainingConfig:
        names = trainer.TrainingConfig.__dataclass_fields__
        return trainer.TrainingConfig(**{n: getattr(self, n) for n in names})

    def examples(self, accounts, vocab) -> list[datasets.LabeledSequence]:
        """Labeled sequences at this run's granularity; empty ones are dropped."""
        examples, dropped = datasets.make_examples(
            accounts, vocab, mode=self.granularity,
            max_seq_len=self.max_seq_len, map_rt=self.rt_token,
        )
        if dropped:
            log.warning("dropped %d empty sequence(s)", dropped)
        return examples

    def out_path(self, explicit: str | None, default_name: str) -> Path:
        """`explicit`, or `default_name` in --output-dir (made if missing).

        A path whose directory is missing or cannot be made is a DataError,
        raised here, before the command does its work.
        """
        if explicit:
            path = Path(explicit)
        else:
            with _writing(self.output_dir):
                Path(self.output_dir).mkdir(parents=True, exist_ok=True)
            path = Path(self.output_dir) / default_name
        if not path.parent.is_dir():
            raise DataError(f"cannot write {path}: no directory {path.parent}", module="cli")
        return path


@contextmanager
def _writing(path):
    """Turn an OS error while writing `path` into a DataError that names it."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}", module="cli") from exc


def _config_types() -> dict[str, type]:
    """--config keys and their value types: every RunConfig field but `command`."""
    types = {}
    for name, hint in typing.get_type_hints(RunConfig).items():
        if name != "command":
            # `X | None` fields take an X
            types[name] = next(
                (t for t in typing.get_args(hint) if t is not type(None)), hint
            )
    return types


_CONFIG_TYPES = _config_types()


def _read_corpus_lines(path: str) -> list[str]:
    with open_text(path, "cli", "corpus file") as fh:
        return fh.read().splitlines()


def _corpus_vocabulary(cfg: RunConfig, corpus: list[list[str]]):
    """(vocab, words, matrix): the corpus tokens the embedding file holds, and their rows."""
    wanted = {t for tokens in corpus for t in tokens} - text_pipeline.SPECIAL_TOKENS
    words, matrix = embeddings.load_glove(cfg.glove, cfg.embed_dim, wanted)
    return text_pipeline.build_vocabulary(corpus, set(words)), words, matrix


def cmd_build_vocab(cfg: RunConfig) -> int:
    if not cfg.corpus or not cfg.glove:
        raise UsageError("build-vocab requires --corpus and --glove")
    out = cfg.out_path(cfg.output, "vocab.tsv")
    tweets = _read_corpus_lines(cfg.corpus)
    tokenized = [text_pipeline.tokenize(t, map_rt=cfg.rt_token) for t in tweets]
    vocab, _, _ = _corpus_vocabulary(cfg, tokenized)
    if len(vocab) == len(text_pipeline.RESERVED_TOKENS):
        print("warning: corpus/embedding intersection is empty; "
              "vocabulary holds only the reserved tokens", file=sys.stderr)
    with _writing(out):
        vocab.save(out)
    total = 0
    oov = 0
    for tokens in tokenized:
        for token_id in text_pipeline.encode(tokens, vocab):
            total += 1
            oov += token_id == text_pipeline.OOV_ID
    rate = oov / total if total else 0.0
    print(f"corpus tokens: {total}")
    print(f"vocabulary size: {len(vocab)}")
    print(f"oov rate: {rate:.6f}")
    print(f"wrote {out}")
    return 0


def _load_labeled_accounts(cfg: RunConfig):
    """Accounts plus (vocab, table) when the synthetic generator is used."""
    if cfg.synthetic is not None:
        return datasets.synthetic(
            seed=cfg.seed, n_per_class=cfg.synthetic, embed_dim=cfg.embed_dim
        )
    if not cfg.accounts or not cfg.tweets:
        raise UsageError(
            "need either --synthetic N or both --accounts and --tweets"
        )
    return datasets.load_dataset(cfg.accounts, cfg.tweets), None, None


def _glove_vocab_and_table(cfg: RunConfig, accounts):
    """(vocab, table) for CSV inputs, reading only the vocabulary's embedding rows."""
    if not cfg.glove:
        raise UsageError("train requires --glove when using CSV inputs")
    if cfg.vocab:
        vocab = text_pipeline.Vocabulary.load(cfg.vocab)
        wanted = set(vocab.surfaces) - text_pipeline.SPECIAL_TOKENS
        words, matrix = embeddings.load_glove(cfg.glove, cfg.embed_dim, wanted)
    else:
        corpus = [
            text_pipeline.tokenize(tw, map_rt=cfg.rt_token)
            for acct in accounts
            for tw in acct.tweets
        ]
        vocab, words, matrix = _corpus_vocabulary(cfg, corpus)
    return vocab, embeddings.build_table(vocab, words, matrix, rng_seed=cfg.seed)


def cmd_train(cfg: RunConfig) -> int:
    if cfg.synthetic is not None and (cfg.glove or cfg.vocab):
        raise UsageError("train --synthetic builds its own vocabulary and embeddings; "
                         "it takes neither --glove nor --vocab")
    ckpt_path = cfg.out_path(cfg.checkpoint, "model.ckpt")
    history_path = cfg.out_path(cfg.history, "history.csv")
    accounts, vocab, table = _load_labeled_accounts(cfg)
    if table is None:
        vocab, table = _glove_vocab_and_table(cfg, accounts)

    examples = cfg.examples(accounts, vocab)
    model_config = ModelConfig(
        vocab_size=len(vocab), embed_dim=table.dim,
        hidden=cfg.hidden, layers=cfg.layers,
    )
    model = init_params(model_config, rng_seed=cfg.seed, embedding=table)
    model, history = trainer.train(model, examples, cfg.training())

    with _writing(ckpt_path):
        ckpt.save_checkpoint(ckpt_path, model, vocab)
    with _writing(history_path):
        history.to_csv(history_path)
    last = history.epochs[-1]
    print(f"trained {len(examples)} sequences for {len(history.epochs)} epochs")
    print(f"final train loss {last.loss:.6f}, accuracy {last.accuracy:.4f}")
    print(f"wrote {ckpt_path} and {history_path}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    out = cfg.out_path(cfg.output, "metrics.json")
    model, vocab = ckpt.load_checkpoint(cfg.checkpoint)
    accounts, _, _ = _load_labeled_accounts(cfg)
    examples = cfg.examples(accounts, vocab)
    counts, report = trainer.evaluate(model, examples)
    payload = report_json(counts, report)
    with _writing(out):
        out.write_text(payload, encoding="utf-8")
    print(payload, end="")
    print(f"wrote {out}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    out = cfg.out_path(cfg.output, "predictions.csv")
    model, vocab = ckpt.load_checkpoint(cfg.checkpoint)
    accounts = [
        datasets.Account(account_id=account_id, label=HUMAN, tweets=tweets)
        for account_id, tweets in datasets.load_tweets(cfg.tweets).items()
    ]
    examples = cfg.examples(accounts, vocab)
    scored = trainer.account_probabilities(model, examples) if examples else {}
    with _writing(out), open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["account_id", "p_bot", "predicted_label", "flag"])
        for acct in accounts:
            if acct.account_id in scored:
                p_bot, flag = scored[acct.account_id][1], ""
            else:
                p_bot, flag = 0.5, "empty_account"
            label = LABEL_NAMES[predicted_label(p_bot)]
            writer.writerow([acct.account_id, f"{p_bot:.6f}", label, flag])
    print(f"wrote {out} ({len(accounts)} accounts)")
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    if not cfg.accounts or not cfg.tweets:
        raise UsageError("stats requires --accounts and --tweets")
    report_path = cfg.out_path(None, "divergence.json")
    accounts = datasets.load_dataset(cfg.accounts, cfg.tweets)
    humans = [a for a in accounts if a.label == HUMAN]
    bots = [a for a in accounts if a.label == BOT]
    if not humans or not bots:
        raise DataError("stats needs at least one account of each class",
                        module="cli")
    # every check runs before the first write, so a failed run leaves no file
    tables = {}
    for name, group in (("human", humans), ("bot", bots)):
        tables[name] = corpus_stats.token_frequencies(
            group, top_k=cfg.top_k,
            drop_stopwords=cfg.stopwords, map_rt=cfg.rt_token,
        )
        if not tables[name].entries:
            raise DataError(f"no {name} tokens to count", module="cli")
    report = corpus_stats.compare_tables(tables["human"], tables["bot"], cfg.top_k)
    payload = {"a": "human", "b": "bot", **report.as_dict()}
    for name, table in tables.items():
        path = report_path.with_name(f"{name}_frequencies.csv")
        with _writing(path):
            table.to_csv(path)
        print(f"wrote {path} ({table.total_retained} retained tokens)")
    with _writing(report_path):
        report_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {report_path}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = parse_args(argv if argv is not None else sys.argv[1:])
        cfg = RunConfig.from_args(args)
        return args.func(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"{exc.module}: {exc}", file=sys.stderr)
        return 3
    except BotlstmError as exc:
        print(f"{exc.module}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
