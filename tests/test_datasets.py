import numpy as np
import pytest

from conftest import small_accounts, write_dataset_files

from botlstm.datasets import (
    Account,
    compose_test_set,
    load_dataset,
    load_tweets,
    make_examples,
    split_accounts,
    synthetic,
)
from botlstm.embeddings import TRAINABLE_ROWS
from botlstm.errors import DataError
from botlstm.metrics import BOT, HUMAN
from botlstm.text_pipeline import PAD_ID, URL, build_vocabulary, tokenize


class TestLoadDataset:
    def test_load_tweets_keeps_file_order(self, tmp_path):
        twt = tmp_path / "tweets.csv"
        twt.write_text("account_id,tweet_text\nb,one\na,two\nb,three\n")
        tweets = load_tweets(twt)
        assert list(tweets.items()) == [("b", ["one", "three"]), ("a", ["two"])]

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

    def test_empty_file(self, tmp_path):
        acc = tmp_path / "accounts.csv"
        twt = tmp_path / "tweets.csv"
        acc.write_bytes(b"")
        twt.write_text("account_id,tweet_text\n")
        with pytest.raises(DataError, match="accounts.csv: file is empty"):
            load_dataset(acc, twt)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        acc, twt = write_dataset_files(small_accounts(), tmp_path)
        for path in (acc, twt):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_dataset(acc, twt) == small_accounts()

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
        assert {a.account_id for a in mixed} == {"h0", "b0"}

    def test_balanced_composition(self):
        mixed = compose_test_set(
            self._accounts(20, HUMAN, "h"), self._accounts(15, BOT, "b"), 10, seed=1
        )
        assert len(mixed) == 20
        assert sum(a.label == BOT for a in mixed) == 10

    def test_too_large_rejected(self):
        with pytest.raises(DataError, match="per_class"):
            compose_test_set(
                self._accounts(3, HUMAN, "h"), self._accounts(5, BOT, "b"), 4, seed=0
            )

    @pytest.mark.parametrize("per_class", [0, -1])
    def test_non_positive_per_class_rejected(self, per_class):
        with pytest.raises(ValueError, match="per_class must be >= 1"):
            compose_test_set(
                self._accounts(3, HUMAN, "h"), self._accounts(3, BOT, "b"), per_class, seed=0
            )

    def test_seed_reproducible(self):
        humans = self._accounts(30, HUMAN, "h")
        bots = self._accounts(30, BOT, "b")
        a = compose_test_set(humans, bots, 10, seed=7)
        b = compose_test_set(humans, bots, 10, seed=7)
        assert [x.account_id for x in a] == [x.account_id for x in b]

    def test_no_duplicates_within_sample(self):
        humans = self._accounts(30, HUMAN, "h")
        bots = self._accounts(30, BOT, "b")
        mixed = compose_test_set(humans, bots, 25, seed=3)
        ids = [a.account_id for a in mixed]
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

    def test_pad_only_tweet_dropped(self, vocab):
        # "<PAD>" encodes to PAD_ID: such a sequence has no token to score
        acct = Account("a", HUMAN, ["<PAD>", "hello", "<PAD> <PAD>"])
        examples, dropped = make_examples([acct], vocab)
        assert [e.ids for e in examples] == [[vocab.id_of("hello")]]
        assert dropped == 2

    def test_pad_only_account_dropped_in_both_modes(self, vocab):
        for mode in ("per_tweet", "per_account"):
            examples, dropped = make_examples(
                [Account("a", BOT, ["<PAD>", "<PAD>"])], vocab, mode=mode
            )
            assert examples == []
            assert dropped == (2 if mode == "per_tweet" else 1)

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

    # love=6, haha=8; "?!" is two OOV tokens. A tweetless account, a <PAD>-only
    # newest tweet, and an empty tweet among punctuation.
    EDGE_ACCOUNTS = [
        Account("none", BOT, []),
        Account("pad", HUMAN, ["love", "haha love", "<PAD>"]),
        Account("punct", BOT, ["love love", "?!", "", "haha"]),
    ]

    @pytest.mark.parametrize("mode, max_seq_len, expected, expected_dropped", [
        ("per_tweet", 1, [("pad", [6]), ("pad", [8]), ("punct", [6]), ("punct", [1]),
                          ("punct", [8])], 3),
        ("per_tweet", 3, [("pad", [6]), ("pad", [8, 6]), ("punct", [6, 6]),
                          ("punct", [1, 1]), ("punct", [8])], 3),
        ("per_tweet", 64, [("pad", [6]), ("pad", [8, 6]), ("punct", [6, 6]),
                           ("punct", [1, 1]), ("punct", [8])], 3),
        ("per_account", 1, [("punct", [8])], 2),
        ("per_account", 3, [("pad", [0, 0, 8]), ("punct", [8, 0, 1])], 1),
        ("per_account", 64, [("pad", [0, 0, 8, 6, 0, 6]),
                             ("punct", [8, 0, 1, 1, 0, 6, 6])], 1),
    ])
    def test_edge_accounts(self, vocab, mode, max_seq_len, expected, expected_dropped):
        assert (vocab.id_of("love"), vocab.id_of("haha")) == (6, 8)
        examples, dropped = make_examples(
            self.EDGE_ACCOUNTS, vocab, mode=mode, max_seq_len=max_seq_len
        )
        assert [(e.account_id, e.ids) for e in examples] == expected
        assert dropped == expected_dropped

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
        assert range(table.vocab_size)[TRAINABLE_ROWS] == range(1, 6)

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            synthetic(seed=0, n_per_class=0)


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

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_outside_open_unit_interval_rejected(self, fraction):
        accounts, _, _ = synthetic(seed=3, n_per_class=2)
        with pytest.raises(ValueError, match="train_fraction"):
            split_accounts(accounts, fraction, seed=0)


class TestSaveDataset:
    def test_round_trip(self, tmp_path):
        accounts = small_accounts()
        acc, twt = write_dataset_files(accounts, tmp_path)
        loaded = load_dataset(acc, twt)
        assert [(a.account_id, a.label, a.tweets) for a in loaded] == [
            (a.account_id, a.label, a.tweets) for a in accounts
        ]
