import numpy as np
import pytest

from conftest import small_accounts, write_dataset_files

from botlstm.datasets import (
    Account,
    compose_test_set,
    load_dataset,
    make_examples,
    split_accounts,
    synthetic,
)
from botlstm.errors import DataError
from botlstm.metrics import BOT, HUMAN
from botlstm.text_pipeline import PAD_ID, URL, build_vocabulary, tokenize


class TestLoadDataset:
    def test_join(self, tmp_path):
        acc = tmp_path / "accounts.csv"
        twt = tmp_path / "tweets.csv"
        acc.write_text("account_id,label\na1,human\na2,bot\n")
        twt.write_text(
            "account_id,tweet_text\na1,hello world\na1,more text\na2,buy now\n"
        )
        accounts = load_dataset(acc, twt)
        by_id = {a.account_id: a for a in accounts}
        assert len(by_id["a1"].tweets) == 2
        assert len(by_id["a2"].tweets) == 1
        assert by_id["a1"].label == HUMAN
        assert by_id["a2"].label == BOT

    def test_unknown_account_in_tweets(self, tmp_path):
        acc = tmp_path / "accounts.csv"
        twt = tmp_path / "tweets.csv"
        acc.write_text("account_id,label\na1,human\n")
        twt.write_text("account_id,tweet_text\nghost,boo\n")
        with pytest.raises(DataError, match="ghost"):
            load_dataset(acc, twt)

    def test_empty_tweets_file_flags_accounts(self, tmp_path, caplog):
        acc = tmp_path / "accounts.csv"
        twt = tmp_path / "tweets.csv"
        acc.write_text("account_id,label\na1,human\na2,bot\n")
        twt.write_text("account_id,tweet_text\n")
        import logging

        with caplog.at_level(logging.WARNING, logger="botlstm.datasets"):
            accounts = load_dataset(acc, twt)
        assert all(not a.tweets for a in accounts)
        assert "2 account(s) have no tweets" in caplog.text

    def test_malformed_row_names_line(self, tmp_path):
        acc = tmp_path / "accounts.csv"
        twt = tmp_path / "tweets.csv"
        acc.write_text("account_id,label\na1,human,extra\n")
        twt.write_text("account_id,tweet_text\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(acc, twt)

    def test_unknown_label(self, tmp_path):
        acc = tmp_path / "accounts.csv"
        twt = tmp_path / "tweets.csv"
        acc.write_text("account_id,label\na1,cyborg\n")
        twt.write_text("account_id,tweet_text\n")
        with pytest.raises(DataError, match="cyborg"):
            load_dataset(acc, twt)

    def test_duplicate_account_id(self, tmp_path):
        acc = tmp_path / "accounts.csv"
        twt = tmp_path / "tweets.csv"
        acc.write_text("account_id,label\na1,human\na1,bot\n")
        twt.write_text("account_id,tweet_text\n")
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(acc, twt)

    def test_bad_header(self, tmp_path):
        acc = tmp_path / "accounts.csv"
        twt = tmp_path / "tweets.csv"
        acc.write_text("id,label\na1,human\n")
        twt.write_text("account_id,tweet_text\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(acc, twt)

    def test_quoted_fields_round_trip(self, tmp_path):
        accounts = [
            Account("a1", HUMAN, ['she said "hi, there"\nand left', "plain"]),
        ]
        acc, twt = write_dataset_files(accounts, tmp_path)
        loaded = load_dataset(acc, twt)
        assert loaded[0].tweets == accounts[0].tweets

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="accounts.csv"):
            load_dataset(tmp_path / "accounts.csv", tmp_path / "tweets.csv")


class TestComposeTestSet:
    def _accounts(self, n, label, prefix):
        return [Account(f"{prefix}{i}", label, ["x"]) for i in range(n)]

    def test_singletons(self):
        humans = self._accounts(1, HUMAN, "h")
        bots = self._accounts(1, BOT, "b")
        mixed = compose_test_set(humans, bots, per_class=1, seed=0)
        assert {a.account_id for a in mixed.accounts} == {"h0", "b0"}

    def test_balanced_composition(self):
        mixed = compose_test_set(
            self._accounts(20, HUMAN, "h"), self._accounts(15, BOT, "b"), 10, seed=1
        )
        assert len(mixed.accounts) == 20
        assert sum(a.label == BOT for a in mixed.accounts) == 10
        assert mixed.provenance["per_class"] == 10

    def test_too_large_rejected(self):
        with pytest.raises(DataError, match="per_class"):
            compose_test_set(
                self._accounts(3, HUMAN, "h"), self._accounts(5, BOT, "b"), 4, seed=0
            )

    def test_seed_reproducible(self):
        humans = self._accounts(30, HUMAN, "h")
        bots = self._accounts(30, BOT, "b")
        a = compose_test_set(humans, bots, 10, seed=7)
        b = compose_test_set(humans, bots, 10, seed=7)
        assert [x.account_id for x in a.accounts] == [x.account_id for x in b.accounts]

    def test_no_duplicates_within_sample(self):
        humans = self._accounts(30, HUMAN, "h")
        bots = self._accounts(30, BOT, "b")
        mixed = compose_test_set(humans, bots, 25, seed=3)
        ids = [a.account_id for a in mixed.accounts]
        assert len(set(ids)) == len(ids)


class TestMakeExamples:
    @pytest.fixture
    def vocab(self):
        corpus = [tokenize(t) for a in small_accounts() for t in a.tweets]
        words = {tok for toks in corpus for tok in toks}
        return build_vocabulary(corpus, words)

    def test_per_tweet(self, vocab):
        acct = Account("a", BOT, ["one two", "three", "four five six"])
        examples, dropped = make_examples([acct], vocab, mode="per_tweet")
        assert len(examples) == 3
        assert dropped == 0
        assert all(e.label == BOT for e in examples)
        assert all(e.account_id == "a" for e in examples)

    def test_empty_account_dropped_and_counted(self, vocab):
        examples, dropped = make_examples([Account("a", BOT, [])], vocab)
        assert examples == []
        assert dropped == 1

    def test_empty_tweet_dropped(self, vocab):
        acct = Account("a", HUMAN, ["hello", "   ", "world"])
        examples, dropped = make_examples([acct], vocab)
        assert len(examples) == 2
        assert dropped == 1

    def test_per_account_concatenation_truncates(self, vocab):
        tweets = [" ".join(["love"] * 40), " ".join(["haha"] * 40)]
        acct = Account("a", HUMAN, tweets)
        examples, dropped = make_examples(
            [acct], vocab, mode="per_account", max_seq_len=64
        )
        assert dropped == 0
        assert len(examples) == 1
        assert len(examples[0].ids) == 64

    def test_per_account_newest_first_with_separator(self, vocab):
        acct = Account("a", HUMAN, ["love love", "haha"])
        examples, _ = make_examples([acct], vocab, mode="per_account")
        ids = examples[0].ids
        haha, love = vocab.id_of("haha"), vocab.id_of("love")
        assert ids == [haha, PAD_ID, love, love]

    def test_per_tweet_truncation(self, vocab):
        acct = Account("a", HUMAN, [" ".join(["love"] * 100)])
        examples, _ = make_examples([acct], vocab, max_seq_len=10)
        assert len(examples[0].ids) == 10

    def test_label_proportions_preserved(self, vocab):
        accounts = small_accounts()
        examples, _ = make_examples(accounts, vocab)
        bot_tweets = sum(len(a.tweets) for a in accounts if a.label == BOT)
        assert sum(e.label == BOT for e in examples) == bot_tweets

    def test_bad_mode_rejected(self, vocab):
        with pytest.raises(ValueError, match="mode"):
            make_examples([], vocab, mode="per_word")

    @pytest.mark.parametrize("max_seq_len", [0, -2])
    def test_non_positive_max_seq_len_rejected(self, vocab, max_seq_len):
        with pytest.raises(ValueError, match="max_seq_len"):
            make_examples([Account("a", HUMAN, ["love haha"])], vocab,
                          max_seq_len=max_seq_len)


class TestSynthetic:
    def test_determinism(self):
        a = synthetic(seed=11, n_per_class=5)
        b = synthetic(seed=11, n_per_class=5)
        assert [x.tweets for x in a[0]] == [x.tweets for x in b[0]]
        assert a[1] == b[1]
        np.testing.assert_array_equal(a[2].vectors, b[2].vectors)

    def test_counts_and_balance(self):
        accounts, _, _ = synthetic(seed=0, n_per_class=50)
        assert len(accounts) == 100
        assert sum(a.label == BOT for a in accounts) == 50

    def test_url_rule_reaches_bayes_floor(self):
        # the trivial link-majority rule must already score >= 0.95,
        # the floor any trained model is later held to
        accounts, _, _ = synthetic(seed=7, n_per_class=50)
        correct = 0
        for acct in accounts:
            with_url = sum(URL in tokenize(t) for t in acct.tweets)
            pred = BOT if with_url / len(acct.tweets) > 0.5 else HUMAN
            correct += pred == acct.label
        assert correct / len(accounts) >= 0.95

    def test_vocab_matches_embeddings(self):
        accounts, vocab, table = synthetic(seed=1, n_per_class=3)
        assert len(vocab) == table.vocab_size
        # every non-reserved vocab row is frozen (pretrained convention)
        assert not table.trainable_mask[6:].any()

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            synthetic(seed=0, n_per_class=0)
        with pytest.raises(ValueError):
            synthetic(seed=0, n_per_class=1, vocab_size=5)


class TestSplitAccounts:
    def test_stratified_sizes(self):
        accounts, _, _ = synthetic(seed=3, n_per_class=10)
        train, test = split_accounts(accounts, 0.7, seed=0)
        assert len(train) == 14 and len(test) == 6
        assert sum(a.label == BOT for a in train) == 7
        assert sum(a.label == BOT for a in test) == 3

    def test_disjoint_union(self):
        accounts, _, _ = synthetic(seed=3, n_per_class=10)
        train, test = split_accounts(accounts, 0.7, seed=0)
        train_ids = {a.account_id for a in train}
        test_ids = {a.account_id for a in test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {a.account_id for a in accounts}


class TestSaveDataset:
    def test_round_trip(self, tmp_path):
        accounts = small_accounts()
        acc, twt = write_dataset_files(accounts, tmp_path)
        loaded = load_dataset(acc, twt)
        assert [(a.account_id, a.label, a.tweets) for a in loaded] == [
            (a.account_id, a.label, a.tweets) for a in accounts
        ]
