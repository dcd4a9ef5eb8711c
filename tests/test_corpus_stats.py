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
    return token_frequencies([Account("a", HUMAN, list(tweets))], top_k, **kwargs)


class TestTokenFrequencies:
    def test_direct_count(self):
        table = table_of(["lol lol thanks"])
        assert table.entries == [("lol", 2, 2 / 3), ("thanks", 1, 1 / 3)]

    def test_top_k_keeps_full_denominator(self):
        table = table_of(["lol lol thanks"], top_k=1)
        assert table.entries == [("lol", 2, 2 / 3)]
        assert table.total_retained == 3

    def test_empty_corpus(self):
        table = token_frequencies([], top_k=5)
        assert table.entries == []
        assert table.total_retained == 0

    def test_meme_tokens_not_counted(self):
        table = table_of(["#x wow http://t.co/a @me wow"])
        assert [t for t, _, _ in table.entries] == ["wow"]
        assert table.total_retained == 2

    def test_punctuation_excluded(self):
        table = table_of(["well, well!"])
        assert table.entries == [("well", 2, 1.0)]

    def test_stopword_flag(self):
        kept = table_of(["the cat sat on the mat"])
        assert any(t == "the" for t, _, _ in kept.entries)
        dropped = table_of(["the cat sat on the mat"], drop_stopwords=True)
        tokens = [t for t, _, _ in dropped.entries]
        assert "the" not in tokens and "on" not in tokens
        assert "cat" in tokens
        assert len(STOPWORDS) >= 100

    def test_tie_break_lexicographic(self):
        table = table_of(["beta alpha"])
        assert [t for t, _, _ in table.entries] == ["alpha", "beta"]

    def test_relative_frequencies_sum_to_one(self):
        table = table_of(["a b c a b a x y z w"])
        assert abs(sum(rel for _, _, rel in table.entries) - 1.0) < 1e-9

    def test_counts_sum_to_total(self):
        table = table_of(["one two two three three three"])
        assert sum(n for _, n, _ in table.entries) == table.total_retained

    def test_permutation_invariance(self):
        tweets = ["alpha beta", "gamma alpha", "beta beta gamma"]
        rnd = random.Random(4)
        base = table_of(tweets)
        for _ in range(5):
            shuffled = tweets[:]
            rnd.shuffle(shuffled)
            assert table_of(shuffled).entries == base.entries

    def test_rank_monotonicity(self):
        before = table_of(["aa bb bb cc cc cc"])
        after = table_of(["aa bb bb cc cc cc", "aa"])
        rank_before = [t for t, _, _ in before.entries].index("aa")
        rank_after = [t for t, _, _ in after.entries].index("aa")
        assert rank_after <= rank_before

    def test_top_k_validation(self):
        with pytest.raises(ValueError):
            token_frequencies([], top_k=0)

    def test_synthetic_class_profiles(self):
        accounts, _, _ = synthetic(seed=5, n_per_class=20)
        bots = [a for a in accounts if a.label == BOT]
        humans = [a for a in accounts if a.label == HUMAN]
        bot_table = token_frequencies(bots, top_k=1000)
        human_table = token_frequencies(humans, top_k=1000)

        def rank(table, token):
            for r, (tok, _, _) in enumerate(table.entries):
                if tok == token:
                    return r
            return len(table.entries)

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
        t = table_of(["aa bb bb cc"])
        report = compare_tables(t, t)
        assert report["only_in_a"] == [] and report["only_in_b"] == []
        assert all(d == 0 for d in report["rank_deltas"].values())

    def test_disjoint(self):
        a = table_of(["aa bb cc"])
        b = table_of(["dd ee ff"])
        report = compare_tables(a, b)
        assert len(report["only_in_a"]) == 3
        assert len(report["only_in_b"]) == 3
        assert report["rank_deltas"] == {}

    def test_rank_delta_fixture(self):
        a = table_of(["shared shared shared x x y"])   # shared at rank 1
        b = table_of(["p p p q q shared"])             # shared at rank 3
        report = compare_tables(a, b)
        assert report["rank_deltas"]["shared"] == 2

    def test_empty_table_rejected(self):
        t = table_of(["aa"])
        empty = token_frequencies([], top_k=3)
        with pytest.raises(ValueError):
            compare_tables(t, empty)

    def test_json_keys(self):
        t = table_of(["aa bb"])
        d = compare_tables(t, t)
        assert set(d) == {"only_in_a", "only_in_b", "rank_deltas"}
