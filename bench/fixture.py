"""Seeded input files for the benchmark workloads.

Everything is made from the workload seed with numpy and the public
botlstm API, outside any timed region. A finished fixture directory is
reused by every run of the same seed and sizes.

Usage: python3 bench/fixture.py --seed N
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / ".bench_data"
#: Fixture directories kept on disk; the oldest are removed first.
KEEP_FIXTURES = 6


@dataclass(frozen=True)
class Sizes:
    """Every size the workloads use. `Sizes()` is the benchmark proper."""

    glove_rows: int = 25_000
    vocab_words: int = 10_000
    dim: int = 200
    hidden: int = 200
    layers: int = 3
    batch: int = 64
    corpus_lines: int = 2_000
    min_words: int = 12
    max_words: int = 28
    # x tweets per-tweet sequences; a repetition trains on one batch, which
    # is enough to show the batch-64 gradient list in peak RSS
    train_accounts: int = 4
    train_tweets: int = 16
    heldout_accounts: int = 8
    heldout_tweets: int = 8
    score_accounts: int = 20
    score_tweets: int = 8
    tune_accounts: int = 4
    tune_tweets: int = 16

    def key(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:10]


_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def fixture_dir(seed: int, sizes: Sizes) -> Path:
    """Directory holding the inputs for `seed`, made on first use."""
    path = DATA_DIR / "fixtures" / f"paper-seed{seed}-{sizes.key()}"
    if (path / "shapes.json").exists():
        return path
    _prune(path.parent)
    tmp = path.with_name(path.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    shapes = write_paper(tmp, seed, sizes)
    # written last: its presence marks a complete fixture
    (tmp / "shapes.json").write_text(json.dumps(shapes, indent=1))
    shutil.rmtree(path, ignore_errors=True)
    tmp.rename(path)
    return path


def _prune(parent: Path) -> None:
    if not parent.is_dir():
        return
    old = sorted(parent.iterdir(), key=lambda p: p.stat().st_mtime)
    for p in old[: max(0, len(old) - KEEP_FIXTURES + 1)]:
        shutil.rmtree(p, ignore_errors=True)


def _shape(examples, vocab, glove_rows, dim, hidden, layers, batch) -> dict:
    return {
        "V": len(vocab),
        "D": dim,
        "H": hidden,
        "L": layers,
        "batch": batch,
        "sequences": len(examples),
        "mean_tokens": float(np.mean([len(ex.ids) for ex in examples])),
        "glove_rows": glove_rows,
    }


def _word(i: int) -> str:
    return f"w{i:05d}"


def write_glove_fast(path: Path, n_rows: int, dim: int, rng) -> np.ndarray:
    """Write `w00000 +0.1234 -0.5678 ...` rows; returns the matrix written.

    Fixed-width fields let numpy build the whole file as one byte array,
    which takes about a second where formatting each value in Python
    would take most of a minute.
    """
    q = rng.integers(-9999, 10000, size=(n_rows, dim))
    cells = np.empty((n_rows, dim, 8), dtype=np.uint8)
    cells[..., 0] = ord(" ")
    cells[..., 1] = np.where(q < 0, ord("-"), ord("+"))
    cells[..., 2] = ord("0")
    cells[..., 3] = ord(".")
    digits = np.abs(q)
    for k in range(7, 3, -1):
        cells[..., k] = ord("0") + digits % 10
        digits //= 10
    words = np.frombuffer(
        "".join(_word(i) for i in range(n_rows)).encode(), dtype=np.uint8
    ).reshape(n_rows, -1)
    newline = np.full((n_rows, 1), ord("\n"), dtype=np.uint8)
    lines = np.concatenate((words, cells.reshape(n_rows, -1), newline), axis=1)
    path.write_bytes(lines.tobytes())
    return q / 1e4


class _TweetMaker:
    """Tweets over the vocabulary words, with a mild class signal.

    Bots lean on the first half of the word list and post links; humans
    lean on the second half and mention users. Both emit hashtags and
    out-of-list words at the same rate.
    """

    def __init__(self, rng, words: list[str], sizes: Sizes):
        self.rng = rng
        self.halves = (words[len(words) // 2:], words[: len(words) // 2])
        self.sizes = sizes

    def tweet(self, label: int) -> str:
        rng = self.rng
        k = int(rng.integers(self.sizes.min_words, self.sizes.max_words + 1))
        own, other = self.halves[label], self.halves[1 - label]
        pick = rng.random(k) < 0.8
        words = [own[i] if p else other[i % len(other)]
                 for p, i in zip(pick, rng.integers(0, len(own), size=k))]
        if rng.random() < 0.3:
            words[int(rng.integers(k))] = "zq" + "".join(rng.choice(_LETTERS, 5))
        if rng.random() < 0.3:
            words.insert(int(rng.integers(k)), "#" + own[int(rng.integers(len(own)))])
        if rng.random() < (0.1 if label else 0.5):
            words.insert(0, "@" + "".join(rng.choice(_LETTERS, 6)))
        if rng.random() < (0.8 if label else 0.1):
            words.append("https://t.co/" + "".join(rng.choice(_LETTERS, 8)))
        if rng.random() < 0.1:
            words.insert(0, "RT")
        return " ".join(words)

    def accounts(self, prefix: str, n: int, tweets: int):
        """`n` accounts, alternately human and bot, of `tweets` tweets each."""
        from botlstm import BOT, HUMAN, Account

        accounts = []
        for k in range(n):
            label = HUMAN if k % 2 == 0 else BOT
            accounts.append(Account(account_id=f"{prefix}{k:04d}", label=label,
                                    tweets=[self.tweet(label) for _ in range(tweets)]))
        return accounts


def write_paper(out: Path, seed: int, sizes: Sizes) -> dict:
    """Vector file, vocabulary corpus, labelled CSVs and a paper-shape checkpoint."""
    from botlstm import (
        ModelConfig, build_table, build_vocabulary, init_params,
        make_examples, save_checkpoint, save_dataset, tokenize,
    )

    out.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    matrix = write_glove_fast(out / "glove.txt", sizes.glove_rows, sizes.dim, rng)
    all_words = [_word(i) for i in range(sizes.glove_rows)]
    chosen = [all_words[i] for i in
              rng.choice(sizes.glove_rows, sizes.vocab_words, replace=False)]

    maker = _TweetMaker(rng, chosen, sizes)
    # every chosen word appears at least once, so V = vocab_words + reserved
    per_line = (sizes.min_words + sizes.max_words) // 2
    lines = [" ".join(chosen[i: i + per_line])
             for i in range(0, len(chosen), per_line)]
    lines += [maker.tweet(int(rng.integers(2)))
              for _ in range(max(0, sizes.corpus_lines - len(lines)))]
    lines = [lines[i] for i in rng.permutation(len(lines))]
    (out / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    groups = {
        "train": maker.accounts("acct", sizes.train_accounts, sizes.train_tweets),
        "heldout": maker.accounts("held", sizes.heldout_accounts, sizes.heldout_tweets),
        "score": maker.accounts("user", sizes.score_accounts, sizes.score_tweets),
        "tune": maker.accounts("tune", sizes.tune_accounts, sizes.tune_tweets),
    }
    for name, accounts in groups.items():
        save_dataset(accounts, out / f"{name}_accounts.csv", out / f"{name}_tweets.csv")

    vocab = build_vocabulary((tokenize(t) for t in lines), set(all_words))
    vocab.save(out / "vocab.tsv")
    table = build_table(vocab, all_words, matrix, rng_seed=seed)
    config = ModelConfig(vocab_size=len(vocab), embed_dim=sizes.dim,
                         hidden=sizes.hidden, layers=sizes.layers)
    save_checkpoint(out / "model.ckpt",
                    init_params(config, rng_seed=seed, embedding=table), vocab)
    shapes = {}
    for workload, group in (("paper-train", "train"), ("paper-score", "score")):
        examples, _ = make_examples(groups[group], vocab)
        shapes[workload] = _shape(examples, vocab, sizes.glove_rows, sizes.dim,
                                  sizes.hidden, sizes.layers, sizes.batch)
    return shapes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    print(fixture_dir(args.seed, Sizes()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
