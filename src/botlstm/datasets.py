"""Account/tweet ingestion, test-set composition, and synthetic corpora.

File formats: accounts CSV with header "account_id,label" (label is
"human" or "bot") and tweets CSV with header "account_id,tweet_text",
both UTF-8 with RFC-4180 quoting.

Training sequences come in two granularities: one sequence per tweet
(label inherited from the account) or one per account (tweets joined
newest-first - i.e. reverse file order - with a <PAD> separator and
truncated from the tail).

The network carries its state through a <PAD> step unchanged, so an
inner <PAD> - the per_account separator, or a tweet's literal "<PAD>"
text - is invisible to the model: [a, <PAD>, b] scores as [a, b]. The
separator's only effect is to spend max_seq_len positions (14.4% of the
per_account positions of `synthetic(seed=7, n_per_class=20)`).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable, build_table
from .errors import DataError, open_text
from .metrics import BOT, HUMAN, LABEL_IDS, LABEL_NAMES
from .text_pipeline import PAD_ID, Vocabulary, build_vocabulary, encode, tokenize

log = logging.getLogger(__name__)

ACCOUNTS_HEADER = ["account_id", "label"]
TWEETS_HEADER = ["account_id", "tweet_text"]


@dataclass
class Account:
    account_id: str
    label: int
    tweets: list[str] = field(default_factory=list)


@dataclass
class LabeledSequence:
    account_id: str
    label: int
    ids: list[int]


def _read_rows(path, header: list[str]):
    with open_text(path, "datasets", "CSV file", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise DataError(f"{path}: file is empty", module="datasets")
            if first != header:
                raise DataError(
                    f"{path}: expected header {','.join(header)!r} on line 1",
                    module="datasets",
                )
            for row in reader:
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: malformed row on line {reader.line_num}",
                        module="datasets",
                    )
                yield reader.line_num, row
        except csv.Error as exc:
            raise DataError(
                f"{path}: CSV error near line {reader.line_num}: {exc}",
                module="datasets",
            ) from exc


def load_tweets(path) -> dict[str, list[str]]:
    """A tweets CSV as {account_id: tweets}, ids and tweets in file order."""
    tweets: dict[str, list[str]] = {}
    for _, (account_id, text) in _read_rows(path, TWEETS_HEADER):
        tweets.setdefault(account_id, []).append(text)
    return tweets


def load_dataset(accounts_file, tweets_file) -> list[Account]:
    """Join a tweets CSV onto an accounts CSV.

    Unknown account ids in the tweets file are an error (all offenders
    listed); accounts that end up with zero tweets are kept and logged.
    """
    accounts: dict[str, Account] = {}
    for line_num, (account_id, label) in _read_rows(accounts_file, ACCOUNTS_HEADER):
        if label not in LABEL_IDS:
            raise DataError(
                f"{accounts_file}: unknown label {label!r} on line {line_num}",
                module="datasets",
            )
        if account_id in accounts:
            raise DataError(
                f"{accounts_file}: duplicate account_id {account_id!r}",
                module="datasets",
            )
        accounts[account_id] = Account(account_id=account_id, label=LABEL_IDS[label])

    tweets = load_tweets(tweets_file)
    unknown = sorted(tweets.keys() - accounts.keys())
    if unknown:
        shown = ", ".join(unknown[:10])
        more = f" (+{len(unknown) - 10} more)" if len(unknown) > 10 else ""
        raise DataError(
            f"{tweets_file}: tweets reference unknown account ids: {shown}{more}",
            module="datasets",
        )
    for account_id, texts in tweets.items():
        accounts[account_id].tweets = texts

    empty = [a.account_id for a in accounts.values() if not a.tweets]
    if empty:
        log.warning(
            "%d account(s) have no tweets (e.g. %s)", len(empty), ", ".join(empty[:5])
        )
    return list(accounts.values())


def save_dataset(accounts: list[Account], accounts_file, tweets_file) -> None:
    """Write accounts back out in the two-CSV interchange format."""
    with open(accounts_file, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ACCOUNTS_HEADER)
        for acct in accounts:
            writer.writerow([acct.account_id, LABEL_NAMES[acct.label]])
    with open(tweets_file, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TWEETS_HEADER)
        for acct in accounts:
            for tweet in acct.tweets:
                writer.writerow([acct.account_id, tweet])


def compose_test_set(
    humans: list[Account], bots: list[Account], per_class: int, seed: int
) -> list[Account]:
    """Seeded 50/50 sample: per_class accounts from each side, shuffled."""
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if per_class > min(len(humans), len(bots)):
        raise DataError(
            f"per_class={per_class} exceeds available accounts "
            f"({len(humans)} human, {len(bots)} bot)",
            module="datasets",
        )
    rng = np.random.default_rng(seed)
    picked = [humans[i] for i in rng.choice(len(humans), per_class, replace=False)]
    picked += [bots[i] for i in rng.choice(len(bots), per_class, replace=False)]
    order = rng.permutation(len(picked))
    return [picked[i] for i in order]


#: Sequence granularities: one sequence per tweet, or per account.
GRANULARITIES = ("per_tweet", "per_account")


def make_examples(
    accounts: list[Account],
    vocab: Vocabulary,
    mode: str = "per_tweet",
    max_seq_len: int = 64,
    map_rt: bool = True,
) -> tuple[list[LabeledSequence], int]:
    """Turn accounts into labeled token-id sequences.

    Returns (sequences, dropped): `dropped` counts empty sequences that
    were skipped - tweets that tokenize to nothing or to <PAD> only in
    per_tweet mode, tweetless accounts or accounts whose sequence holds no
    token but <PAD> in either mode.
    """
    if mode not in GRANULARITIES:
        raise ValueError(f"mode must be per_tweet or per_account, got {mode!r}")
    if max_seq_len < 1:
        raise ValueError(f"max_seq_len must be >= 1, got {max_seq_len}")
    examples: list[LabeledSequence] = []
    dropped = 0
    for acct in accounts:
        seqs = [encode(tokenize(tweet, map_rt=map_rt), vocab) for tweet in acct.tweets]
        if mode == "per_account" or not seqs:
            # newest-first: tweet files are stored oldest-first. A tweetless
            # account becomes one empty sequence, so it counts as one drop.
            joined: list[int] = []
            for ids in reversed(seqs):
                if ids:
                    if joined:
                        joined.append(PAD_ID)
                    joined.extend(ids)
            seqs = [joined]
        for ids in seqs:
            ids = ids[:max_seq_len]
            if not any(i != PAD_ID for i in ids):
                dropped += 1
                continue
            examples.append(
                LabeledSequence(account_id=acct.account_id, label=acct.label, ids=ids)
            )
    return examples, dropped


#: Promotional words favored by the synthetic bot accounts.
PROMO_WORDS = (
    "check", "awesome", "read", "fascinating", "creative", "writing",
    "sale", "deal", "offer", "click",
)
#: Social words favored by the synthetic human accounts.
SOCIAL_WORDS = (
    "love", "happy", "birthday", "haha", "lol", "thank",
    "friend", "miss", "night", "today",
)
_BASE_FILLER = (
    "the", "to", "and", "a", "of", "in", "it", "is", "my", "on",
    "for", "with", "was", "day", "time", "new", "one", "out", "so", "up",
)
#: Per-tweet probability that a bot (resp. human) tweet carries a link.
BOT_URL_PROB = 0.9
HUMAN_URL_PROB = 0.1
_CROSS_PROB = 0.05  # chance of borrowing one word from the other class
_OOV_PROB = 0.05  # chance of one gibberish out-of-list word per tweet
#: Words in the synthetic word list (class words plus filler), and tweets
#: per synthetic account.
SYNTHETIC_VOCAB_SIZE = 50
SYNTHETIC_TWEETS_PER_ACCOUNT = 20


def _synthetic_tweet(rng, main_pool, filler, cross_pool, url_prob: float) -> str:
    words = list(rng.choice(main_pool, size=int(rng.integers(2, 5))))
    words += list(rng.choice(filler, size=int(rng.integers(1, 4))))
    if rng.random() < _CROSS_PROB:
        words.append(str(rng.choice(cross_pool)))
    if rng.random() < _OOV_PROB:
        words.append("zzq" + "".join(rng.choice(list("abcdefgh"), size=4)))
    rng.shuffle(words)
    if rng.random() < url_prob:
        words.append("http://t.co/" + "".join(rng.choice(list("abcdefgh"), size=6)))
    return " ".join(words)


def synthetic(
    seed: int,
    n_per_class: int,
    embed_dim: int = 16,
) -> tuple[list[Account], Vocabulary, EmbeddingTable]:
    """Deterministic desk-scale corpus with a known class signal.

    Bot tweets draw from promotional words and carry a link with
    probability 0.9 per tweet; human tweets draw from social words with
    link probability 0.1. Both classes share filler words and emit rare
    gibberish (out-of-list) tokens at the same rate, so link frequency and
    word choice are the only class signals. Also returns the matching
    vocabulary and a random embedding table whose word rows are frozen,
    mirroring the pretrained setup.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    n_filler = SYNTHETIC_VOCAB_SIZE - len(PROMO_WORDS) - len(SOCIAL_WORDS)
    filler = list(_BASE_FILLER) + [f"word{k}" for k in range(len(_BASE_FILLER), n_filler)]

    rng = np.random.default_rng(seed)
    accounts: list[Account] = []
    for label, prefix, own, other, url_prob in (
        (HUMAN, "human", SOCIAL_WORDS, PROMO_WORDS, HUMAN_URL_PROB),
        (BOT, "bot", PROMO_WORDS, SOCIAL_WORDS, BOT_URL_PROB),
    ):
        accounts += [
            Account(
                account_id=f"{prefix}{k:04d}",
                label=label,
                tweets=[
                    _synthetic_tweet(rng, own, filler, other, url_prob)
                    for _ in range(SYNTHETIC_TWEETS_PER_ACCOUNT)
                ],
            )
            for k in range(n_per_class)
        ]

    word_list = list(PROMO_WORDS) + list(SOCIAL_WORDS) + filler
    corpus = (tokenize(tw) for acct in accounts for tw in acct.tweets)
    vocab = build_vocabulary(corpus, set(word_list))
    matrix = rng.uniform(-0.5, 0.5, (len(word_list), embed_dim))
    table = build_table(vocab, word_list, matrix, rng_seed=seed)
    return accounts, vocab, table


def split_accounts(
    accounts: list[Account], train_fraction: float, seed: int
) -> tuple[list[Account], list[Account]]:
    """Seeded stratified train/test split at account granularity."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train: list[Account] = []
    test: list[Account] = []
    for cls in (HUMAN, BOT):
        members = [a for a in accounts if a.label == cls]
        order = rng.permutation(len(members))
        cut = int(round(train_fraction * len(members)))
        train += [members[i] for i in order[:cut]]
        test += [members[i] for i in order[cut:]]
    return train, test
