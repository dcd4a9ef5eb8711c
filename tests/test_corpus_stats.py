import random

import pytest

from botlstm.corpus_stats import (
    STOPWORDS,
    compare_tables,
    token_frequencies,
)
from botlstm.datasets import Account, synthetic
from botlstm.metrics import BOT, HUMAN


def table_of(tweets, top_k=100, **kwargs):
    """(entries, total_retained) of one account's tweets."""
    return token_frequencies([Account("a", HUMAN, list(tweets))], top_k, **kwargs)


def entries_of(tweets, top_k=100, **kwargs):
    return table_of(tweets, top_k, **kwargs)[0]


class TestTokenFrequencies:
    def test_direct_count(self):
        assert entries_of(["lol lol thanks"]) == [("lol", 2, 2 / 3), ("thanks", 1, 1 / 3)]

    def test_top_k_keeps_full_denominator(self):
        assert table_of(["lol lol thanks"], top_k=1) == ([("lol", 2, 2 / 3)], 3)

    def test_empty_corpus(self):
        assert token_frequencies([], top_k=5) == ([], 0)

    def test_meme_tokens_not_counted(self):
        entries, total = table_of(["#x wow http://t.co/a @me wow"])
        assert [t for t, _, _ in entries] == ["wow"]
        assert total == 2

    def test_punctuation_excluded(self):
        assert entries_of(["well, well!"]) == [("well", 2, 1.0)]

    def test_stopword_flag(self):
        kept = entries_of(["the cat sat on the mat"])
        assert any(t == "the" for t, _, _ in kept)
        dropped = entries_of(["the cat sat on the mat"], drop_stopwords=True)
        tokens = [t for t, _, _ in dropped]
        assert "the" not in tokens and "on" not in tokens
        assert "cat" in tokens
        assert len(STOPWORDS) >= 100

    def test_tie_break_lexicographic(self):
        assert [t for t, _, _ in entries_of(["beta alpha"])] == ["alpha", "beta"]

    def test_relative_frequencies_sum_to_one(self):
        entries = entries_of(["a b c a b a x y z w"])
        assert abs(sum(rel for _, _, rel in entries) - 1.0) < 1e-9

    def test_counts_sum_to_total(self):
        entries, total = table_of(["one two two three three three"])
        assert sum(n for _, n, _ in entries) == total

    def test_permutation_invariance(self):
        tweets = ["alpha beta", "gamma alpha", "beta beta gamma"]
        rnd = random.Random(4)
        base = entries_of(tweets)
        for _ in range(5):
            shuffled = tweets[:]
            rnd.shuffle(shuffled)
            assert entries_of(shuffled) == base

    def test_rank_monotonicity(self):
        before = entries_of(["aa bb bb cc cc cc"])
        after = entries_of(["aa bb bb cc cc cc", "aa"])
        rank_before = [t for t, _, _ in before].index("aa")
        rank_after = [t for t, _, _ in after].index("aa")
        assert rank_after <= rank_before

    def test_top_k_validation(self):
        with pytest.raises(ValueError):
            token_frequencies([], top_k=0)

    def test_synthetic_class_profiles(self):
        accounts, _, _ = synthetic(seed=5, n_per_class=20)
        bots = [a for a in accounts if a.label == BOT]
        humans = [a for a in accounts if a.label == HUMAN]
        bot_table, _ = token_frequencies(bots, top_k=1000)
        human_table, _ = token_frequencies(humans, top_k=1000)

        def rank(entries, token):
            for r, (tok, _, _) in enumerate(entries):
                if tok == token:
                    return r
            return len(entries)

        # bots rank every promotional word above every social word; humans reverse
        from botlstm.datasets import PROMO_WORDS, SOCIAL_WORDS

        assert max(rank(bot_table, w) for w in PROMO_WORDS) < min(
            rank(bot_table, w) for w in SOCIAL_WORDS
        )
        assert max(rank(human_table, w) for w in SOCIAL_WORDS) < min(
            rank(human_table, w) for w in PROMO_WORDS
        )


class TestCompareTables:
    def test_identity(self):
        t = entries_of(["aa bb bb cc"])
        report = compare_tables(t, t)
        assert report["only_in_a"] == [] and report["only_in_b"] == []
        assert all(d == 0 for d in report["rank_deltas"].values())

    def test_disjoint(self):
        a = entries_of(["aa bb cc"])
        b = entries_of(["dd ee ff"])
        report = compare_tables(a, b)
        assert len(report["only_in_a"]) == 3
        assert len(report["only_in_b"]) == 3
        assert report["rank_deltas"] == {}

    def test_rank_delta_fixture(self):
        a = entries_of(["shared shared shared x x y"])   # shared at rank 1
        b = entries_of(["p p p q q shared"])             # shared at rank 3
        report = compare_tables(a, b)
        assert report["rank_deltas"]["shared"] == 2

    def test_empty_table_rejected(self):
        t = entries_of(["aa"])
        empty, _ = token_frequencies([], top_k=3)
        with pytest.raises(ValueError):
            compare_tables(t, empty)

    def test_json_keys(self):
        t = entries_of(["aa bb"])
        d = compare_tables(t, t)
        assert set(d) == {"only_in_a", "only_in_b", "rank_deltas"}
