"""Token-frequency tables and rank-divergence reports.

Counts run over normalized tokens; the meme tokens and pure-punctuation
tokens are left out.
Relative frequencies are always computed over every retained token, not
just the returned top-k slice.
"""

from __future__ import annotations

import string
from collections import Counter

from .datasets import Account
from .text_pipeline import SPECIAL_TOKENS, tokenize

#: Common English function words, dropped when drop_stopwords is set.
STOPWORDS = frozenset("""
a about above after again against all am an and any are aren't as at be
because been before being below between both but by can't cannot could
couldn't did didn't do does doesn't doing don't down during each few for
from further had hadn't has hasn't have haven't having he her here hers
herself him himself his how i if in into is isn't it its itself let's me
more most mustn't my myself no nor not of off on once only or other ought
our ours ourselves out over own same shan't she should shouldn't so some
such than that the their theirs them themselves then there these they
this those through to too under until up very was wasn't we were weren't
what when where which while who whom why with won't would wouldn't you
your yours yourself yourselves
""".split())

_PUNCT_CHARS = frozenset(string.punctuation)


def _is_punctuation(token: str) -> bool:
    return all(ch in _PUNCT_CHARS for ch in token)


def token_frequencies(
    accounts: list[Account],
    top_k: int,
    drop_stopwords: bool = False,
    map_rt: bool = True,
) -> tuple[list[tuple[str, int, float]], int]:
    """Count tokens over every tweet of `accounts` and keep the top_k.

    Returns (entries, total_retained). `entries` rows are (token, count,
    relative_frequency), sorted by count descending then lexicographic;
    the relative frequency's denominator is `total_retained`, the count
    of every retained token.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    counts: Counter[str] = Counter()
    for acct in accounts:
        for tweet in acct.tweets:
            for token in tokenize(tweet, map_rt=map_rt):
                if token in SPECIAL_TOKENS or _is_punctuation(token):
                    continue
                if drop_stopwords and token in STOPWORDS:
                    continue
                counts[token] += 1
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = [(tok, n, n / total) for tok, n in ordered[:top_k]]
    return entries, total


def compare_tables(a: list[tuple], b: list[tuple]) -> dict:
    """How two `token_frequencies` entry lists differ, as a JSON-ready dict.

    "only_in_a" and "only_in_b" list the tokens in one table only, in
    rank order. "rank_deltas" maps each shared token to rank_in_b -
    rank_in_a using 1-based ranks, so a positive delta means the token
    sits lower in b.
    """
    if not a or not b:
        raise ValueError("cannot compare empty frequency tables")
    a_rank = {tok: r for r, (tok, _, _) in enumerate(a, start=1)}
    b_rank = {tok: r for r, (tok, _, _) in enumerate(b, start=1)}
    return {
        "only_in_a": [tok for tok in a_rank if tok not in b_rank],
        "only_in_b": [tok for tok in b_rank if tok not in a_rank],
        "rank_deltas": {
            tok: b_rank[tok] - a_rank[tok] for tok in a_rank if tok in b_rank
        },
    }
