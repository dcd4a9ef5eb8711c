import csv
import dataclasses
import json
import logging
import os
import struct
import subprocess
import sys
import weakref
import zlib

import numpy as np
import pytest

from conftest import small_accounts, traced_peak, write_dataset_files

from botlstm import cli
from botlstm.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from botlstm.datasets import Account, synthetic
from botlstm.embeddings import write_glove
from botlstm.text_pipeline import (
    OOV_ID, RESERVED_TOKENS, SPECIAL_TOKENS, Vocabulary, build_vocabulary, encode, tokenize,
)

#: Flags whose name is not their RunConfig field's with "-" for "_".
FLAG_NAMES = {"learning_rate": "lr"}

TRAIN_FLAGS = [
    "--synthetic", "6", "--seed", "2", "--hidden", "8", "--layers", "1",
    "--embed-dim", "16", "--epochs", "20", "--batch-size", "16",
]


def _run_config(argv) -> cli.RunConfig:
    """The settings `cli.main(argv)` would run its command with."""
    return cli.RunConfig.from_args(cli.build_parser().parse_args(argv))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    ckpt = out / "model.ckpt"
    history = out / "history.csv"
    rc = cli.main(
        ["train", *TRAIN_FLAGS, "--checkpoint", str(ckpt), "--history", str(history)]
    )
    assert rc == 0
    return ckpt, history


class TestBuildVocab:
    def _toy_glove(self, tmp_path, words):
        rng = np.random.default_rng(0)
        path = tmp_path / "toy_glove.txt"
        write_glove(path, words, rng.standard_normal((len(words), 4)))
        return path

    def test_oov_rate_matches_independent_count(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        tweets = ["love this thing", "strange zzqx token love", "#tag love you"]
        corpus.write_text("\n".join(tweets) + "\n")
        glove = self._toy_glove(tmp_path, ["love", "this", "you", "unused"])
        out = tmp_path / "vocab.tsv"
        rc = cli.main([
            "build-vocab", "--corpus", str(corpus), "--glove", str(glove),
            "--embed-dim", "4", "--output", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out

        tokenized = [tokenize(t) for t in tweets]
        vocab = build_vocabulary(tokenized, {"love", "this", "you", "unused"})
        ids = [i for toks in tokenized for i in encode(toks, vocab)]
        expected_rate = sum(i == OOV_ID for i in ids) / len(ids)
        assert f"oov rate: {expected_rate:.6f}" in printed
        assert f"corpus tokens: {len(ids)}" in printed
        assert f"vocabulary size: {len(vocab)}" in printed
        assert out.exists()

    def test_corpus_line_separators_match_splitlines(self, tmp_path, capsys):
        # the corpus is read line by line, and a tweet may end at any
        # character splitlines() breaks at, inside a line or at its end
        tweets = ["love this", "#tag you.", "RT @bob love", "zzqx (strange)", "you,",
                  "http://t.co/x love", "caf\u00e9 love", "you you", "strange one", "last"]
        ends = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
                "\r\n"]
        text = "".join(t + end for t, end in zip(tweets, ends))
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(text.encode("utf-8"))
        words = {"love", "this", "you", "caf\u00e9", "one", "strange"}
        glove = self._toy_glove(tmp_path, sorted(words))
        out = tmp_path / "vocab.tsv"
        rc = cli.main(["build-vocab", "--corpus", str(corpus), "--glove", str(glove),
                       "--embed-dim", "4", "--output", str(out)])
        assert rc == 0

        tokenized = [tokenize(t) for t in text.splitlines()]
        assert len(tokenized) == len(tweets)
        vocab = build_vocabulary(tokenized, words)
        ids = [i for toks in tokenized for i in encode(toks, vocab)]
        vocab.save(tmp_path / "expected.tsv")
        assert out.read_bytes() == (tmp_path / "expected.tsv").read_bytes()
        assert capsys.readouterr().out == (
            f"corpus tokens: {len(ids)}\nvocabulary size: {len(vocab)}\n"
            f"oov rate: {ids.count(OOV_ID) / len(ids):.6f}\nwrote {out}\n")

    def test_train_without_vocab_builds_build_vocabs_vocabulary(self, tmp_path):
        # both build their vocabulary in the tokens' first-appearance order,
        # not in the embedding file's
        accounts, vocab, table = synthetic(seed=2, n_per_class=3, embed_dim=4)
        acc, twt = write_dataset_files(accounts, tmp_path)
        words = [w for w in vocab.surfaces if w not in SPECIAL_TOKENS][::-1]
        glove = self._toy_glove(tmp_path, words)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(t + "\n" for a in accounts for t in a.tweets),
                          encoding="utf-8")
        assert cli.main(["build-vocab", "--corpus", str(corpus), "--glove", str(glove),
                         "--embed-dim", "4", "--output", str(tmp_path / "vocab.tsv")]) == 0
        assert cli.main(["train", "--accounts", str(acc), "--tweets", str(twt),
                         "--glove", str(glove), "--embed-dim", "4", "--hidden", "2",
                         "--layers", "1", "--epochs", "1",
                         "--output-dir", str(tmp_path / "train")]) == 0
        _, trained = load_checkpoint(tmp_path / "train" / "model.ckpt")
        built = Vocabulary.load(tmp_path / "vocab.tsv")
        assert trained == built
        assert len(built) > 20
        assert list(built.surfaces[6:]) != [w for w in words if w in built]

    def test_empty_corpus_reserved_only(self, tmp_path, caplog):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("")
        glove = self._toy_glove(tmp_path, ["love"])
        out = tmp_path / "vocab.tsv"
        rc = cli.main([
            "build-vocab", "--corpus", str(corpus), "--glove", str(glove),
            "--embed-dim", "4", "--output", str(out),
        ])
        assert rc == 0
        # logged, like every other warning, so the log level governs it
        [record] = [r for r in caplog.records if "intersection is empty" in r.getMessage()]
        assert (record.name, record.levelno) == ("botlstm.cli", logging.WARNING)
        assert "vocabulary holds only the reserved tokens" in record.getMessage()
        assert len(out.read_text().splitlines()) == 6

    def test_word_holding_nbsp_does_not_fail_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("love you\n")
        glove = tmp_path / "glove.txt"
        glove.write_text("love 0.1 0.2 0.3\na\xa0b 0.4 0.5 0.6\nyou 0.7 0.8 0.9\n",
                         encoding="utf-8")
        out = tmp_path / "vocab.tsv"
        rc = cli.main([
            "build-vocab", "--corpus", str(corpus), "--glove", str(glove),
            "--embed-dim", "3", "--output", str(out),
        ])
        assert rc == 0, capsys.readouterr().err
        assert out.read_text().splitlines()[6:] == ["love\t6", "you\t7"]

    def test_missing_glove_path(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("hello\n")
        missing = tmp_path / "not_there.txt"
        rc = cli.main([
            "build-vocab", "--corpus", str(corpus), "--glove", str(missing),
            "--embed-dim", "4",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not_there.txt" in err
        assert err.startswith("embeddings:")  # module-prefixed message


class TestVocabularyMemory:
    """A vocabulary pass holds one count per distinct token, not the tokenized corpus."""

    @staticmethod
    def _accounts(repeats):
        accounts, vocab, _ = synthetic(seed=1, n_per_class=40, embed_dim=4)
        for account in accounts:
            account.tweets *= repeats
        return accounts, [w for w in vocab.surfaces if w not in SPECIAL_TOKENS]

    def _peaks(self, tmp_path, stage):
        peaks = []
        for repeats in (1, 10):
            accounts, words = self._accounts(repeats)
            run = tmp_path / f"x{repeats}"
            run.mkdir()
            glove = run / "glove.txt"
            write_glove(glove, words, np.random.default_rng(0).standard_normal((len(words), 4)))
            peaks.append(stage(run, accounts, glove))
        return peaks

    def test_build_vocab_peak_does_not_grow_with_the_corpus(self, tmp_path, capsys):
        def stage(run, accounts, glove):
            corpus = run / "corpus.txt"
            corpus.write_text("".join(t + "\n" for a in accounts for t in a.tweets),
                              encoding="utf-8")
            argv = ["build-vocab", "--corpus", str(corpus), "--glove", str(glove),
                    "--embed-dim", "4", "--output", str(run / "vocab.tsv")]
            rc, peak = traced_peak(lambda: cli.main(argv))
            assert rc == 0
            return peak

        once, ten = self._peaks(tmp_path, stage)
        assert ten <= 1.5 * once, f"10 copies of the corpus peak at {ten / once:.2f}x one"

    def test_train_vocabulary_stage_does_not_grow_with_the_corpus(self, tmp_path):
        # the stage's peak above the accounts, which are loaded before it
        def stage(run, accounts, glove):
            cfg = _run_config(["train", "--glove", str(glove), "--embed-dim", "4"])
            (vocab, _), peak = traced_peak(lambda: cli._glove_vocab_and_table(cfg, accounts))
            assert len(vocab) > 20
            return peak

        once, ten = self._peaks(tmp_path, stage)
        assert ten <= 1.5 * once, f"10 copies of the tweets peak at {ten / once:.2f}x one"


class TestTrain:
    def test_single_epoch_history(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "m.ckpt"
        history = tmp_path / "h.csv"
        returned = []
        train = cli.trainer.train

        def keep_history(*args):
            returned.append(train(*args))
            return returned[-1]

        monkeypatch.setattr(cli.trainer, "train", keep_history)
        rc = cli.main([
            "train", "--synthetic", "3", "--seed", "1", "--hidden", "4",
            "--layers", "1", "--embed-dim", "8", "--epochs", "1",
            "--checkpoint", str(ckpt), "--history", str(history),
        ])
        assert rc == 0
        rows = history.read_text().splitlines()
        assert rows[0] == "epoch,loss,accuracy,dropout,seconds,clamped,seq_per_s"
        assert len(rows) == 2  # header + one epoch
        assert rows[1].startswith("1,")
        ((epoch,),) = returned
        with open(history, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["epoch"] == str(epoch["epoch"])
        assert row["clamped"] == str(epoch["clamped"])

    def test_history_rows_match_epochs(self, trained):
        _, history = trained
        rows = history.read_text().splitlines()
        assert len(rows) == 21
        with open(history) as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed[0]["dropout"] == "0.5"
        assert parsed[-1]["dropout"] == "0.1"
        assert float(parsed[-1]["loss"]) < float(parsed[0]["loss"])

    @staticmethod
    def _csv_inputs(tmp_path):
        """Accounts, tweets and GloVe files of a small synthetic set, and its vocab."""
        accounts, vocab, table = synthetic(seed=4, n_per_class=3, embed_dim=8)
        acc, twt = write_dataset_files(accounts, tmp_path)
        glove = tmp_path / "glove.txt"
        words = [vocab.surface_of(i) for i in range(6, len(vocab))]
        write_glove(glove, words, table.vectors[6:])
        return acc, twt, glove, vocab

    def test_file_based_training(self, tmp_path):
        acc, twt, glove, vocab = self._csv_inputs(tmp_path)
        ckpt = tmp_path / "m.ckpt"
        rc = cli.main([
            "train", "--accounts", str(acc), "--tweets", str(twt),
            "--glove", str(glove), "--embed-dim", "8", "--hidden", "4",
            "--layers", "1", "--epochs", "2", "--seed", "4",
            "--checkpoint", str(ckpt), "--history", str(tmp_path / "h.csv"),
        ])
        assert rc == 0
        model, loaded_vocab = load_checkpoint(ckpt)
        assert loaded_vocab == vocab

    def test_embedding_file_freed_before_training(self, tmp_path, monkeypatch):
        """No parsed GloVe row, embedding table or account (tweet text) outlives init_params."""
        acc, twt, glove, _ = self._csv_inputs(tmp_path)
        load_glove, build_table = cli.embeddings.load_glove, cli.embeddings.build_table
        load_dataset = cli.datasets.load_dataset
        train = cli.trainer.train
        arrays = []
        accounts = []
        alive_at_train = []

        def tracked_dataset(*args, **kwargs):
            loaded = load_dataset(*args, **kwargs)
            accounts.extend(weakref.ref(acct) for acct in loaded)
            return loaded

        def tracked_load(*args, **kwargs):
            words, matrix = load_glove(*args, **kwargs)
            arrays.append(weakref.ref(matrix))
            return words, matrix

        def tracked_table(*args, **kwargs):
            table = build_table(*args, **kwargs)
            arrays.append(weakref.ref(table.vectors))
            return table

        def checked_train(*args, **kwargs):
            alive_at_train.append([ref() is not None for ref in arrays + accounts])
            return train(*args, **kwargs)

        monkeypatch.setattr(cli.datasets, "load_dataset", tracked_dataset)
        monkeypatch.setattr(cli.embeddings, "load_glove", tracked_load)
        monkeypatch.setattr(cli.embeddings, "build_table", tracked_table)
        monkeypatch.setattr(cli.trainer, "train", checked_train)
        rc = cli.main([
            "train", "--accounts", str(acc), "--tweets", str(twt),
            "--glove", str(glove), "--embed-dim", "8", "--hidden", "4",
            "--layers", "1", "--epochs", "1", "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert accounts and alive_at_train == [[False] * (2 + len(accounts))]

    @pytest.mark.parametrize("nan_row, vocab_flag, expected_rc", [
        ("unused", False, 0), ("vocabulary", False, 2), ("vocabulary", True, 2),
    ], ids=["unused-row", "vocabulary-row", "vocabulary-row-with-vocab"])
    def test_non_finite_value_checked_only_in_rows_the_model_uses(
        self, tmp_path, capsys, nan_row, vocab_flag, expected_rc
    ):
        acc, twt, glove, vocab = self._csv_inputs(tmp_path)
        lines = glove.read_text().splitlines()
        nans = " ".join(["nan"] * 8)
        if nan_row == "unused":
            lines.append(f"zzunused {nans}")
        else:
            lines[0] = f"{vocab.surface_of(6)} {nans}"
        glove.write_text("\n".join(lines) + "\n")
        argv = [
            "train", "--accounts", str(acc), "--tweets", str(twt),
            "--glove", str(glove), "--embed-dim", "8", "--hidden", "2",
            "--layers", "1", "--epochs", "1", "--output-dir", str(tmp_path / "out"),
        ]
        if vocab_flag:
            vocab.save(tmp_path / "vocab.tsv")
            argv += ["--vocab", str(tmp_path / "vocab.tsv")]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == expected_rc, err
        if expected_rc:
            assert err.startswith("embeddings:") and "non-finite" in err, err

    def test_missing_inputs_is_usage_error(self, capsys):
        rc = cli.main(["train"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("outputs", [
        ["--checkpoint", "{d}/same.out", "--history", "{d}/same.out"],
        ["--checkpoint", "{d}/sub/../same.out", "--history", "{d}/same.out"],
        ["--checkpoint", "{d}/out/history.csv", "--output-dir", "{d}/out"],
    ], ids=["same-flag-value", "same-file-other-spelling", "history-default"])
    def test_checkpoint_and_history_on_one_file_is_usage_error(self, tmp_path, capsys, outputs):
        rc = cli.main([
            "train", "--synthetic", "2", "--hidden", "2", "--layers", "1",
            "--embed-dim", "4", "--epochs", "1",
            *[a.format(d=tmp_path) for a in outputs],
        ])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert "--checkpoint and --history" in err, err
        assert list(tmp_path.iterdir()) == []

    def test_diverging_run_stops_at_its_first_step(self, tmp_path, capsys):
        # one step at lr 1e300 leaves the parameters far beyond float32's range
        rc = cli.main([
            "train", "--synthetic", "2", "--hidden", "2", "--layers", "1",
            "--embed-dim", "4", "--epochs", "3", "--lr", "1e300",
            "--output-dir", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith("trainer: step leaves "), err
        assert "float32" in err and "clamped" not in err, err
        assert list(tmp_path.iterdir()) == []

    def test_bad_hidden_is_usage_error(self, tmp_path, capsys):
        rc = cli.main([
            "train", "--synthetic", "2", "--hidden", "0", "--epochs", "1",
            "--checkpoint", str(tmp_path / "m.ckpt"),
            "--history", str(tmp_path / "h.csv"),
        ])
        assert rc == 1


class TestEvaluate:
    def test_perfect_on_training_distribution(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        out = tmp_path / "metrics.json"
        rc = cli.main([
            "evaluate", "--checkpoint", str(ckpt), "--synthetic", "6",
            "--seed", "2", "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        for key in ("precision", "recall", "specificity", "accuracy",
                    "f_measure", "mcc"):
            assert payload[key] == 1.0
        assert payload["tp"] == 6 and payload["tn"] == 6

    def test_label_shuffled_mcc_near_zero(self, trained, tmp_path):
        ckpt, _ = trained
        accounts, _, _ = synthetic(seed=31, n_per_class=50)
        labels = [a.label for a in accounts]
        rng = np.random.default_rng(8)
        shuffled = [labels[i] for i in rng.permutation(len(labels))]
        for acct, label in zip(accounts, shuffled):
            acct.label = label
        acc, twt = write_dataset_files(accounts, tmp_path)
        out = tmp_path / "metrics.json"
        rc = cli.main([
            "evaluate", "--checkpoint", str(ckpt), "--accounts", str(acc),
            "--tweets", str(twt), "--output", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert abs(payload["mcc"]) <= 0.2

    def test_reports_accounts_without_sequences(self, trained, tmp_path):
        accounts = [
            Account("h1", 0, ["love you haha", "thank friend lol"]),
            Account("b1", 1, ["check awesome sale http://t.co/a"]),
            Account("ghost", 1, []),  # no tweets: nothing to score
            Account("pun", 0, ["!!!"]),  # punctuation only, still a sequence to score
        ]
        acc, twt = write_dataset_files(accounts, tmp_path)
        out = tmp_path / "metrics.json"
        rc = cli.main(["evaluate", "--checkpoint", str(trained[0]), "--accounts", str(acc),
                       "--tweets", str(twt), "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["tp"] + payload["tn"] + payload["fp"] + payload["fn"] == 3
        assert payload["accounts_without_sequences"] == 1
        assert list(payload)[-1] == "accounts_without_sequences"

    def test_each_traced_stage_runs_once(self, trained, tmp_path, monkeypatch):
        # the benchmark's trace mode times these three by wrapping these names
        calls = {}

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(cli.trainer, "tally")
        counting(cli.trainer, "compute_metrics")
        counting(cli, "report_json")
        rc = cli.main(["evaluate", "--checkpoint", str(trained[0]), "--synthetic", "2",
                       "--output", str(tmp_path / "metrics.json")])
        assert rc == 0
        assert calls == {"tally": 1, "compute_metrics": 1, "report_json": 1}

    def test_corrupt_checkpoint(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(ckpt.read_bytes()[:100])
        rc = cli.main([
            "evaluate", "--checkpoint", str(broken), "--synthetic", "3",
            "--seed", "2", "--output", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        assert "corrupt checkpoint" in capsys.readouterr().err


class TestPredict:
    def _zeroed_checkpoint(self, tmp_path):
        from botlstm.nn_core import ModelConfig, init_params

        _, vocab, table = synthetic(seed=5, n_per_class=2)
        model = init_params(
            ModelConfig(vocab_size=len(vocab), embed_dim=table.dim,
                        hidden=3, layers=1),
            rng_seed=0,
            embedding=table,
        )
        model.tensors["softmax.W"][:] = 0.0
        model.tensors["softmax.b"][:] = 0.0
        path = tmp_path / "zero.ckpt"
        save_checkpoint(path, model, vocab)
        return path

    def test_uniform_probability_with_zero_softmax(self, tmp_path):
        ckpt = self._zeroed_checkpoint(tmp_path)
        tweets = tmp_path / "tweets.csv"
        tweets.write_text("account_id,tweet_text\nu1,x\n")
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt),
                       "--tweets", str(tweets), "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "account_id,p_bot,predicted_label,flag"
        assert rows[1] == "u1,0.500000,bot,"

    def test_predict_writes_the_library_scores_of_a_trained_model(self, tmp_path):
        # the checkpoint holds the model's float32 values, and both score in float32
        from botlstm.datasets import make_examples
        from botlstm.nn_core import ModelConfig, init_params
        from botlstm.trainer import TrainingConfig, account_probabilities, train

        # a float64 scoring of this checkpoint moves one account's 6th decimal
        accounts, vocab, table = synthetic(seed=2, n_per_class=10)
        model = init_params(ModelConfig(len(vocab), table.dim, hidden=8, layers=1),
                            rng_seed=2, embedding=table)
        examples, _ = make_examples(accounts, vocab)
        train(model, examples, TrainingConfig(epochs=3, seed=2))
        scored = account_probabilities(model, examples)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, model, vocab)
        assert account_probabilities(load_checkpoint(ckpt)[0], examples) == scored  # bitwise
        library = {acct: f"{p:.6f}" for acct, p in scored.items()}
        _, tweets = write_dataset_files(accounts, tmp_path)
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--tweets", str(tweets),
                       "--output", str(out)])
        assert rc == 0
        with open(out, newline="", encoding="utf-8") as fh:
            assert {row["account_id"]: row["p_bot"] for row in csv.DictReader(fh)} == library

    def test_identical_accounts_identical_rows(self, trained, tmp_path):
        ckpt, _ = trained
        tweets = tmp_path / "tweets.csv"
        tweets.write_text(
            "account_id,tweet_text\n"
            "u1,check awesome sale http://t.co/a\n"
            "u2,check awesome sale http://t.co/a\n"
        )
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt),
                       "--tweets", str(tweets), "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert rows[0].split(",", 1)[1] == rows[1].split(",", 1)[1]

    def test_trained_model_flags_bot_content(self, trained, tmp_path):
        ckpt, _ = trained
        tweets = tmp_path / "tweets.csv"
        tweets.write_text(
            "account_id,tweet_text\n"
            "botty,check awesome sale deal http://t.co/a\n"
            "human1,love you haha thank friend\n"
        )
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt),
                       "--tweets", str(tweets), "--output", str(out)])
        assert rc == 0
        rows = {r.split(",")[0]: r.split(",") for r in out.read_text().splitlines()[1:]}
        assert float(rows["botty"][1]) > 0.5
        assert rows["botty"][2] == "bot"
        assert float(rows["human1"][1]) < 0.5

    def test_empty_account_flagged(self, trained, tmp_path):
        ckpt, _ = trained
        tweets = tmp_path / "tweets.csv"
        tweets.write_text('account_id,tweet_text\nghost,"   "\n')
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt),
                       "--tweets", str(tweets), "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[1] == "ghost,0.500000,bot,empty_account"

    def test_empty_account_between_scored_ones(self, trained, tmp_path):
        ckpt, _ = trained
        tweets = {
            "u1": ["check awesome sale http://t.co/a"],
            "ghost": ["   "],
            "u2": ["love you haha", "thank friend lol"],
        }

        def predict(name, account_ids):
            path = tmp_path / f"{name}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["account_id", "tweet_text"])
                writer.writerows([a, t] for a in account_ids for t in tweets[a])
            out = tmp_path / f"{name}.pred.csv"
            rc = cli.main(["predict", "--checkpoint", str(ckpt),
                           "--tweets", str(path), "--output", str(out)])
            assert rc == 0
            return out.read_text(encoding="utf-8").splitlines()[1:]

        rows = predict("all", list(tweets))
        assert [r.split(",")[0] for r in rows] == ["u1", "ghost", "u2"]
        assert [r.split(",")[3] for r in rows] == ["", "empty_account", ""]
        assert rows[1] == "ghost,0.500000,bot,empty_account"
        # scoring accounts together gives each one the row it gets alone
        assert rows[0] == predict("u1", ["u1"])[0]
        assert rows[2] == predict("u2", ["u2"])[0]

    def test_account_ids_round_trip(self, tmp_path):
        ckpt = self._zeroed_checkpoint(tmp_path)
        ids = ["a,2", 'say "hi"', "plain"]
        tweets = tmp_path / "tweets.csv"
        with open(tweets, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["account_id", "tweet_text"])
            writer.writerows([account_id, "hello"] for account_id in ids)
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt),
                       "--tweets", str(tweets), "--output", str(out)])
        assert rc == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["account_id"] for r in rows] == ids
        assert all(r["p_bot"] == "0.500000" and r["flag"] == "" for r in rows)

    def test_dropped_sequences_are_reported(self, trained, tmp_path, caplog):
        # a tweet reading only <PAD> is dropped, and the count is a warning
        tweets = tmp_path / "tweets.csv"
        tweets.write_text("account_id,tweet_text\na,love haha\na,<PAD>\n")
        argv = ["predict", "--checkpoint", str(trained[0]), "--tweets", str(tweets),
                "--output", str(tmp_path / "p.csv")]
        assert cli.main(argv) == 0
        assert "dropped 1 empty sequence(s)" in caplog.text


class TestStats:
    def test_outputs_exist_and_parse(self, tmp_path, capsys):
        accounts, _, _ = synthetic(seed=6, n_per_class=4)
        acc, twt = write_dataset_files(accounts, tmp_path)
        out_dir = tmp_path / "stats"
        rc = cli.main(["stats", "--accounts", str(acc), "--tweets", str(twt),
                       "--top-k", "10", "--output-dir", str(out_dir)])
        assert rc == 0
        for name in ("human_frequencies.csv", "bot_frequencies.csv"):
            with open(out_dir / name) as fh:
                rows = list(csv.DictReader(fh))
            assert rows and set(rows[0]) == {"token", "count", "relative_frequency"}
        report = json.loads((out_dir / "divergence.json").read_text())
        assert report["a"] == "human" and report["b"] == "bot"

    def test_identical_corpora_empty_divergence(self, tmp_path):
        accounts, _, _ = synthetic(seed=6, n_per_class=2)
        humans = [a for a in accounts if a.label == 0]
        mirrored = [
            type(a)(account_id=f"b{i}", label=1, tweets=list(humans[i].tweets))
            for i, a in enumerate(humans)
        ]
        acc, twt = write_dataset_files(humans + mirrored, tmp_path)
        out_dir = tmp_path / "stats"
        rc = cli.main(["stats", "--accounts", str(acc), "--tweets", str(twt),
                       "--top-k", "50", "--output-dir", str(out_dir)])
        assert rc == 0
        report = json.loads((out_dir / "divergence.json").read_text())
        assert report["only_in_a"] == [] and report["only_in_b"] == []
        assert all(d == 0 for d in report["rank_deltas"].values())

    def test_human_social_words_dominate(self, tmp_path):
        accounts, _, _ = synthetic(seed=6, n_per_class=25)
        acc, twt = write_dataset_files(accounts, tmp_path)
        out_dir = tmp_path / "stats"
        rc = cli.main(["stats", "--accounts", str(acc), "--tweets", str(twt),
                       "--top-k", "12", "--stopwords", "--output-dir", str(out_dir)])
        assert rc == 0
        with open(out_dir / "human_frequencies.csv") as fh:
            tokens = [r["token"] for r in csv.DictReader(fh)]
        assert "love" in tokens[:12]
        assert "thank" in tokens[:12]


def test_output_line_endings(trained, tmp_path):
    """history.csv and the frequency CSVs end each row in \\r\\n, predictions.csv in \\n."""
    ckpt, history = trained
    accounts, _, _ = synthetic(seed=6, n_per_class=2)
    acc, twt = write_dataset_files(accounts, tmp_path)
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--tweets", str(twt),
                     "--output-dir", str(tmp_path)]) == 0
    assert cli.main(["stats", "--accounts", str(acc), "--tweets", str(twt),
                     "--output-dir", str(tmp_path)]) == 0
    for path, end in ((history, b"\r\n"),
                      (tmp_path / "human_frequencies.csv", b"\r\n"),
                      (tmp_path / "bot_frequencies.csv", b"\r\n"),
                      (tmp_path / "predictions.csv", b"\n")):
        data = path.read_bytes()
        rows = data.decode().splitlines()
        assert len(rows) > 1, path.name
        assert data == b"".join(row.encode() + end for row in rows), path.name


class TestDataErrorExitCodes:
    """Unreadable or non-UTF-8 inputs exit 2 with a module-prefixed message."""

    @staticmethod
    def _inputs(tmp_path):
        from botlstm.nn_core import ModelConfig, init_params

        acc, twt = write_dataset_files(small_accounts(), tmp_path)
        words = sorted({w for a in small_accounts() for t in a.tweets for w in t.split()})
        glove = tmp_path / "glove.txt"
        write_glove(glove, words, np.random.default_rng(0).standard_normal((len(words), 4)))
        huge_glove = tmp_path / "huge_glove.txt"
        write_glove(huge_glove, words, np.full((len(words), 4), 1e39))  # beyond float32
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("love you\n", encoding="utf-8")
        _, vocab, table = synthetic(seed=1, n_per_class=1, embed_dim=4)
        model = init_params(ModelConfig(vocab_size=len(vocab), embed_dim=4, hidden=2,
                                        layers=1), rng_seed=0, embedding=table)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, model, vocab)
        model.tensors["softmax.W"][0, 0] = np.nan
        nan_ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(nan_ckpt, model, vocab)
        short_ckpt = tmp_path / "short.ckpt"
        short_ckpt.write_bytes(ckpt.read_bytes()[:100])
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("account_id,tweet_text\nu1,caf\xe9\n".encode("latin-1"))
        vocab_file = tmp_path / "vocab.tsv"
        build_vocabulary([w.split() for w in words], set(words)).save(vocab_file)
        superscript_id = tmp_path / "superscript_id.tsv"
        superscript_id.write_text(
            "".join(f"{s}\t{i}\n" for i, s in enumerate(RESERVED_TOKENS)) + "love\t\u00b2\n",
            encoding="utf-8",
        )
        bad_header = tmp_path / "bad_header.csv"
        bad_header.write_text("id,text\nu1,hi\n")
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("account_id,tweet_text\n")
        zero_bytes = tmp_path / "zero_bytes.csv"
        zero_bytes.write_bytes(b"")
        blank = tmp_path / "blank_tweets.csv"  # every account's tweets are whitespace only
        blank.write_text("account_id,tweet_text\n" + "".join(
            f'{a.account_id}," \t "\n{a.account_id},\n' for a in small_accounts()))
        paths = {"acc": acc, "twt": twt, "glove": glove, "huge_glove": huge_glove,
                 "corpus": corpus, "ckpt": ckpt,
                 "nan_ckpt": nan_ckpt, "short_ckpt": short_ckpt, "bad": bad,
                 "missing": tmp_path / "missing.tsv", "vocab": vocab_file,
                 "bad_header": bad_header, "header_only": header_only,
                 "zero_bytes": zero_bytes, "superscript_id": superscript_id,
                 "blank": blank}
        blob = ckpt.read_bytes()
        for name, offset, value in (("version", 6, 2), ("classes", 26, 3)):
            edited = bytearray(blob)
            struct.pack_into("<I", edited, offset, value)  # the CRC covers the payload only
            paths[f"{name}_ckpt"] = tmp_path / f"{name}.ckpt"
            paths[f"{name}_ckpt"].write_bytes(bytes(edited))
        paths["header_2_bytes_ckpt"] = tmp_path / "header_2_bytes.ckpt"
        paths["header_2_bytes_ckpt"].write_bytes(blob[:30] + b"\x00\x00")
        # three words: "", then a length of 100 in an 8-byte payload, under a valid CRC
        payload = struct.pack("<2I", 0, 100)
        paths["overrun_ckpt"] = tmp_path / "overrun.ckpt"
        paths["overrun_ckpt"].write_bytes(struct.pack("<6s6I", MAGIC, VERSION, 3, 4, 2, 1, 2)
                                          + payload + struct.pack("<I", zlib.crc32(payload)))
        paths["human_acc"], paths["human_twt"] = write_dataset_files(
            small_accounts()[:2], tmp_path, prefix="human_")
        paths["long_field"] = tmp_path / "long_field.csv"
        paths["long_field"].write_text(f"account_id,tweet_text\nh1,{'a' * 200_000}\n")
        surfaces = build_vocabulary([w.split() for w in words], set(words)).surfaces
        for name, entries in (("unreserved", surfaces[1:]),
                              ("duplicate", [*surfaces, surfaces[-1]])):
            paths[f"{name}_vocab"] = tmp_path / f"{name}_vocab.tsv"
            paths[f"{name}_vocab"].write_text(
                "".join(f"{s}\t{i}\n" for i, s in enumerate(entries)), encoding="utf-8")
        return paths

    @pytest.mark.parametrize("argv, prefix", [
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--embed-dim", "4", "--vocab", "{missing}"], "text_pipeline:"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--embed-dim", "4", "--vocab", "{bad}"], "text_pipeline:"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--embed-dim", "4", "--vocab", "{superscript_id}"], "text_pipeline:"),
        (["train", "--accounts", "{acc}", "--tweets", "{bad}", "--glove", "{glove}",
          "--embed-dim", "4"], "datasets:"),
        (["predict", "--checkpoint", "{ckpt}", "--tweets", "{bad}"], "datasets:"),
        (["build-vocab", "--corpus", "{bad}", "--glove", "{glove}", "--embed-dim", "4"],
         "cli:"),
        (["build-vocab", "--corpus", "{corpus}", "--glove", "{bad}", "--embed-dim", "4"],
         "embeddings:"),
        (["predict", "--checkpoint", "{nan_ckpt}", "--tweets", "{twt}"], "checkpoint:"),
        (["evaluate", "--checkpoint", "{short_ckpt}", "--accounts", "{acc}",
          "--tweets", "{twt}"], "checkpoint:"),
        (["train", "--accounts", "{bad_header}", "--tweets", "{twt}", "--glove", "{glove}",
          "--embed-dim", "4"], "datasets:"),
        (["evaluate", "--checkpoint", "{ckpt}", "--accounts", "{bad_header}",
          "--tweets", "{twt}"], "datasets:"),
        (["predict", "--checkpoint", "{ckpt}", "--tweets", "{bad_header}"], "datasets:"),
        (["stats", "--accounts", "{bad_header}", "--tweets", "{twt}"], "datasets:"),
        (["train", "--accounts", "{acc}", "--tweets", "{header_only}", "--glove", "{glove}",
          "--embed-dim", "4", "--hidden", "2", "--layers", "1"], "trainer:"),
        (["evaluate", "--checkpoint", "{ckpt}", "--accounts", "{acc}",
          "--tweets", "{header_only}"], "trainer:"),
        (["train", "--accounts", "{acc}", "--tweets", "{blank}", "--glove", "{glove}",
          "--embed-dim", "4", "--hidden", "2", "--layers", "1"], "trainer:"),
        (["evaluate", "--checkpoint", "{ckpt}", "--accounts", "{acc}", "--tweets", "{blank}"],
         "trainer:"),
        (["stats", "--accounts", "{acc}", "--tweets", "{header_only}"], "cli:"),
        (["stats", "--accounts", "{zero_bytes}", "--tweets", "{twt}"], "datasets:"),
        (["predict", "--checkpoint", "{ckpt}", "--tweets", "{zero_bytes}"], "datasets:"),
        (["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}", "--embed-dim", "3"],
         "embeddings:"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--vocab", "{vocab}", "--embed-dim", "5"], "embeddings:"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{huge_glove}",
          "--embed-dim", "4", "--hidden", "2", "--layers", "1"], "embeddings:"),
        (["predict", "--checkpoint", "{version_ckpt}", "--tweets", "{twt}"],
         "checkpoint: unsupported checkpoint version 2"),
        (["predict", "--checkpoint", "{classes_ckpt}", "--tweets", "{twt}"],
         "checkpoint: unsupported class count 3"),
        (["predict", "--checkpoint", "{header_2_bytes_ckpt}", "--tweets", "{twt}"],
         "checkpoint: corrupt checkpoint: truncated header"),
        (["predict", "--checkpoint", "{overrun_ckpt}", "--tweets", "{twt}"],
         "checkpoint: corrupt checkpoint: truncated payload"),
        (["stats", "--accounts", "{human_acc}", "--tweets", "{human_twt}"],
         "cli: stats needs at least one account of each class"),
        (["stats", "--accounts", "{acc}", "--tweets", "{long_field}"],
         "datasets: {long_field}: CSV error near line 2: field larger than field limit"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--embed-dim", "4", "--vocab", "{unreserved_vocab}"],
         "text_pipeline: {unreserved_vocab}: vocabulary must start with the reserved tokens"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--embed-dim", "4", "--vocab", "{duplicate_vocab}"],
         "text_pipeline: {duplicate_vocab}: duplicate surfaces in vocabulary"),
    ], ids=["missing-vocab", "latin1-vocab", "superscript-vocab-id", "latin1-tweets",
            "latin1-predict-tweets", "latin1-corpus", "latin1-glove", "nan-checkpoint",
            "truncated-checkpoint", "train-bad-header", "evaluate-bad-header",
            "predict-bad-header", "stats-bad-header", "train-header-only", "evaluate-header-only",
            "train-whitespace-tweets", "evaluate-whitespace-tweets", "stats-header-only",
            "stats-zero-bytes", "predict-zero-bytes",
            "build-vocab-glove-dim", "train-glove-dim", "train-glove-beyond-float32",
            "checkpoint-version", "checkpoint-classes", "checkpoint-header-then-2-bytes",
            "checkpoint-vocabulary-overrun", "stats-one-class", "tweets-field-over-limit",
            "vocab-not-reserved-first", "vocab-duplicate-surface"])
    def test_exit_2_with_module_prefix(self, tmp_path, capsys, argv, prefix):
        paths = self._inputs(tmp_path)
        argv = [a.format(**paths) for a in argv]
        out = tmp_path / "out"
        rc = cli.main([*argv, "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(prefix.format(**paths)), err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("name, argv, prefix", [
        ("twt", ["predict", "--checkpoint", "{ckpt}", "--tweets", "{twt}"], "datasets:"),
        ("glove", ["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}",
                   "--embed-dim", "4"], "embeddings:"),
        ("vocab", ["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
                   "--embed-dim", "4", "--vocab", "{vocab}"], "text_pipeline:"),
        ("corpus", ["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}",
                    "--embed-dim", "4"], "cli:"),
    ], ids=["tweets", "glove", "vocab", "corpus"])
    def test_bad_byte_is_named_at_its_file_offset(self, tmp_path, capsys, bom, name, argv,
                                                  prefix):
        # the file is decoded 8 KB at a time; the bad byte lies past the first
        # chunk, after many two-byte characters, one of which may straddle a chunk
        head = {
            "twt": "account_id,tweet_text\r\n" + "h1,caf\u00e9 love\r\n" * 1500 + "h1,",
            "glove": "love 0.1 0.2 0.3 0.4\n" + "caf\u00e9 0.1 0.2 0.3 0.4\n" * 1000,
            "vocab": "".join(f"{s}\t{i}\n" for i, s in enumerate(
                [*RESERVED_TOKENS, *(f"w{k}\u00e9" for k in range(2000))])),
            "corpus": "love you caf\u00e9\n" * 1500 + "you ",
        }[name].encode("utf-8")
        paths = self._inputs(tmp_path)
        paths[name].write_bytes(bom + head + b"\xff love\n")
        offset = len(bom + head)
        assert offset > 2 * 8192
        rc = cli.main([*(a.format(**paths) for a in argv), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"{prefix} "), err
        assert (f"{paths[name]} is not valid UTF-8: byte 0xff at offset {offset} "
                "(invalid start byte)") in err, err

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_bad_byte_in_a_pipe_is_named_without_offset(self, tmp_path, capsys):
        # a pipe cannot tell its position, so the message leaves it out
        paths = self._inputs(tmp_path)
        read_end, write_end = os.pipe()
        os.write(write_end, b"love you\n" * 2000 + b"\xff\n")
        os.close(write_end)
        try:
            rc = cli.main(["build-vocab", "--corpus", f"/dev/fd/{read_end}", "--glove",
                           str(paths["glove"]), "--embed-dim", "4",
                           "--output-dir", str(tmp_path / "out")])
        finally:
            os.close(read_end)
        assert rc == 2
        assert capsys.readouterr().err == (f"cli: corpus file /dev/fd/{read_end} is not valid "
                                           "UTF-8: byte 0xff (invalid start byte)\n")

    def test_vocabulary_blank_lines_are_skipped(self, tmp_path):
        paths = self._inputs(tmp_path)
        blank_lines = tmp_path / "blank_lines_vocab.tsv"
        blank_lines.write_text("\n" + paths["vocab"].read_text().replace("\n", "\n\n", 3))
        for vocab in (paths["vocab"], blank_lines):
            assert cli.main(["train", "--accounts", str(paths["acc"]), "--tweets",
                             str(paths["twt"]), "--glove", str(paths["glove"]),
                             "--vocab", str(vocab), "--embed-dim", "4", "--hidden", "2",
                             "--layers", "1", "--epochs", "1",
                             "--output-dir", str(tmp_path / vocab.stem)]) == 0
        assert ((tmp_path / "blank_lines_vocab" / "model.ckpt").read_bytes()
                == (tmp_path / "vocab" / "model.ckpt").read_bytes())

    @pytest.mark.parametrize("argv, output", [
        (["stats", "--accounts", "{acc}", "--tweets", "{twt}"], "divergence.json"),
        (["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}", "--embed-dim", "4"],
         "vocab.tsv"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--vocab", "{vocab}", "--embed-dim", "4", "--hidden", "2", "--layers", "1",
          "--epochs", "1"], "model.ckpt"),
        (["predict", "--checkpoint", "{ckpt}", "--tweets", "{twt}"], "predictions.csv"),
    ], ids=["stats", "build-vocab", "train", "predict"])
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, argv, output):
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            run = tmp_path / f"bom{len(bom)}"
            run.mkdir()
            paths = self._inputs(run)
            for key in ("acc", "twt", "glove", "corpus", "vocab"):
                paths[key].write_bytes(bom + paths[key].read_bytes())
            rc = cli.main([*(a.format(**paths) for a in argv),
                           "--output-dir", str(run / "out")])
            assert rc == 0, capsys.readouterr().err
            outputs.append((run / "out" / output).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, target", [
        (["train", "--synthetic", "2", "--hidden", "2", "--layers", "1", "--embed-dim", "4",
          "--checkpoint", "{nodir}/m.ckpt"], "{nodir}/m.ckpt"),
        (["train", "--synthetic", "2", "--hidden", "2", "--layers", "1", "--embed-dim", "4",
          "--output-dir", "{file}"], "{file}"),
        (["evaluate", "--checkpoint", "{ckpt}", "--accounts", "{acc}", "--tweets", "{twt}",
          "--output", "{nodir}/metrics.json"], "{nodir}/metrics.json"),
        (["predict", "--checkpoint", "{ckpt}", "--tweets", "{twt}",
          "--output", "{nodir}/p.csv"], "{nodir}/p.csv"),
        (["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}", "--embed-dim", "4",
          "--output", "{nodir}/vocab.tsv"], "{nodir}/vocab.tsv"),
        (["stats", "--accounts", "{acc}", "--tweets", "{twt}", "--output-dir", "{file}"],
         "{file}"),
        (["train", "--synthetic", "2", "--hidden", "2", "--layers", "1", "--embed-dim", "4",
          "--checkpoint", "{dir}/m.ckpt", "--history", "{dir}/hdir"],
         "{dir}/hdir: Is a directory"),
        (["evaluate", "--checkpoint", "{ckpt}", "--accounts", "{acc}", "--tweets", "{twt}",
          "--output", "{dir}/hdir"], "{dir}/hdir: Is a directory"),
    ], ids=["train", "train-output-dir-is-file", "evaluate", "predict", "build-vocab",
            "stats", "train-history-is-dir", "evaluate-output-is-dir"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, argv, target):
        entered = []
        monkeypatch.setattr(cli.trainer, "train", lambda *args: entered.append(args))
        monkeypatch.setattr(cli.trainer, "evaluate", lambda *args: entered.append(args))
        paths = {**self._inputs(tmp_path), "nodir": tmp_path / "missing_dir",
                 "file": tmp_path / "corpus.txt", "dir": tmp_path / "out"}
        (paths["dir"] / "hdir").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        rc = cli.main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"cli: cannot write {target.format(**paths)}"), err
        assert not entered
        assert sorted(tmp_path.rglob("*")) == before

    def test_stats_without_bot_tokens_writes_no_file(self, tmp_path, capsys):
        # the human table has tokens; the bot's only token is a URL, dropped
        # with the stopwords, so the run fails after the human table is built
        acc, twt = write_dataset_files(
            [Account("h1", 0, ["love you friend"]), Account("b1", 1, ["http://t.co/x"])],
            tmp_path,
        )
        out = tmp_path / "out"
        rc = cli.main(["stats", "--accounts", str(acc), "--tweets", str(twt), "--stopwords",
                       "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("cli: no bot tokens to count"), err
        assert not out.exists() or not any(out.iterdir())

    def test_predict_header_only_tweets_writes_header_only(self, tmp_path):
        paths = self._inputs(tmp_path)
        rc = cli.main(["predict", "--checkpoint", str(paths["ckpt"]),
                       "--tweets", str(paths["header_only"]),
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "predictions.csv").read_text() == (
            "account_id,p_bot,predicted_label,flag\n"
        )


class TestNonFiniteScores:
    """A checkpointable float32 model whose scores overflow to NaN is refused."""

    @pytest.fixture
    def nan_scoring(self, tmp_path):
        from botlstm.nn_core import ModelConfig, init_params

        vocab = Vocabulary([*RESERVED_TOKENS, "click", "deal", "offer", "love"])
        model = init_params(ModelConfig(len(vocab), embed_dim=8, hidden=6, layers=1),
                            rng_seed=0)
        model.tensors["embedding.vectors"][:] = 1.0
        model.tensors["layers.0.fwd.U"][:] = 3e38
        model.tensors["layers.0.fwd.W"][:] = -3e38
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, model, vocab)
        accounts = [Account("h1", 0, ["love you"]), Account("b1", 1, ["click deal offer"])]
        return ckpt, write_dataset_files(accounts, tmp_path)

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_refused_with_the_account_named(self, nan_scoring, tmp_path, capsys, command):
        ckpt, (accounts, tweets) = nan_scoring
        out = tmp_path / "out"
        inputs = ["--tweets", str(tweets)]
        if command == "evaluate":
            inputs += ["--accounts", str(accounts)]
        rc = cli.main([command, "--checkpoint", str(ckpt), *inputs, "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "trainer: account h1 scored a non-finite bot probability"
        assert not out.exists()


class TestNoOverwrite:
    """An output that names an input or another output is a usage error, before any write."""

    SMALL_MODEL = ["--hidden", "2", "--layers", "1", "--embed-dim", "4", "--epochs", "1"]

    @pytest.mark.parametrize("argv, flags", [
        (["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}", "--embed-dim", "4",
          "--output", "{corpus}", "--output-dir", "{new}"], "--output and --corpus"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          *SMALL_MODEL, "--checkpoint", "{twt}", "--output-dir", "{new}"],
         "--checkpoint and --tweets"),
        (["train", "--synthetic", "2", *SMALL_MODEL, "--checkpoint", "{ckpt}",
          "--history", "{ckpt_hard_link}", "--output-dir", "{new}"],
         "--checkpoint and --history"),
        (["evaluate", "--checkpoint", "{ckpt}", "--accounts", "{acc}", "--tweets", "{twt}",
          "--output", "{ckpt}", "--output-dir", "{new}"], "--output and --checkpoint"),
        (["predict", "--checkpoint", "{ckpt}", "--tweets", "{twt}",
          "--output", "{twt_symlink}", "--output-dir", "{new}"], "--output and --tweets"),
        (["stats", "--accounts", "{acc}", "--tweets", "{in_dir}/human_frequencies.csv",
          "--output-dir", "{in_dir}"], "--output-dir and --tweets"),
        (["train", "--synthetic", "2", *SMALL_MODEL, "--config", "{cfg}",
          "--history", "{cfg}", "--output-dir", "{new}"], "--history and --config"),
        (["evaluate", "--checkpoint", "{ckpt}", "--accounts", "{acc}", "--tweets", "{twt}",
          "--config", "{cfg}", "--output", "{cfg}", "--output-dir", "{new}"],
         "--output and --config"),
        (["stats", "--accounts", "{acc}", "--tweets", "{twt}",
          "--config", "{in_dir}/bot_frequencies.csv", "--output-dir", "{in_dir}"],
         "--output-dir and --config"),
    ], ids=["build-vocab", "train-input", "train-hard-link", "evaluate", "predict-symlink",
            "stats", "train-history-config", "evaluate-config", "stats-config"])
    def test_usage_error_leaves_every_file_as_it_was(self, tmp_path, capsys, argv, flags):
        paths = {**TestDataErrorExitCodes._inputs(tmp_path), "new": tmp_path / "new",
                 "ckpt_hard_link": tmp_path / "ckpt_hard_link",
                 "twt_symlink": tmp_path / "twt_symlink", "in_dir": tmp_path / "in",
                 "cfg": tmp_path / "run.cfg"}
        os.link(paths["ckpt"], paths["ckpt_hard_link"])
        paths["twt_symlink"].symlink_to(paths["twt"])
        paths["in_dir"].mkdir()
        (paths["in_dir"] / "human_frequencies.csv").write_bytes(paths["twt"].read_bytes())
        for config in (paths["cfg"], paths["in_dir"] / "bot_frequencies.csv"):
            config.write_text("# run settings\n", encoding="utf-8")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        rc = cli.main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("usage error: ") and f"{flags} name the same file" in err, err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not paths["new"].exists()


class TestConfigFileAndExitCodes:
    def test_config_file_defaults_and_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# a comment\nepochs=1\nhidden=4\n\n  \n  # indented\n"
                          "layers=1\nembed_dim=8\nseed=3\n")
        ckpt = tmp_path / "m.ckpt"
        history = tmp_path / "h.csv"
        rc = cli.main([
            "train", "--config", str(config), "--synthetic", "2",
            "--epochs", "2",  # flag overrides the config value
            "--checkpoint", str(ckpt), "--history", str(history),
        ])
        assert rc == 0
        assert len(history.read_text().splitlines()) == 3
        model, _ = load_checkpoint(ckpt)
        assert model.hidden == 4

    def test_config_file_byte_order_mark_is_dropped(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"\xef\xbb\xbfseed=5\n")
        cfg = _run_config(["stats", "--config", str(config)])
        assert cfg.seed == 5

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("warp_speed=9\n")
        rc = cli.main(["train", "--config", str(config), "--synthetic", "2"])
        assert rc == 1
        assert "warp_speed" in capsys.readouterr().err

    def test_every_run_config_field_is_a_config_key(self, tmp_path):
        samples = {"int": ("3", 3), "float": ("0.25", 0.25),
                   "bool": ("false", False), "str": ("x", "x")}
        valid = {"granularity": ("per_account", "per_account")}
        expected = {}
        lines = []
        for f in dataclasses.fields(cli.RunConfig):
            if f.name in ("command", "config"):  # not settings: no file sets them
                continue
            raw, value = valid.get(f.name) or samples[f.type.split(" | ")[0]]
            lines.append(f"{f.name}={raw}")
            expected[f.name] = value
        config = tmp_path / "all.cfg"
        config.write_text("\n".join(lines) + "\n")
        # stats: train and evaluate reject synthetic together with the inputs it builds
        cfg = _run_config(["stats", "--config", str(config)])
        for name, value in expected.items():
            got = getattr(cfg, name)
            assert got == value and type(got) is type(value), name

    @pytest.mark.parametrize("command, key, value", [
        ("predict", "max_seq_len", "-2"),
        ("predict", "max_seq_len", "0"),
        ("evaluate", "max_seq_len", "0"),
        ("train", "max_seq_len", "0"),
        ("stats", "top_k", "0"),
        ("train", "synthetic", "0"),
        ("evaluate", "synthetic", "-1"),
        ("train", "embed_dim", "0"),
        ("train", "seed", "-1"),
        ("train", "granularity", "foo"),
        ("train", "learning_rate", "nan"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_out_of_range_value_is_usage_error(
        self, trained, tmp_path, capsys, command, key, value, via
    ):
        acc, twt = write_dataset_files(small_accounts(), tmp_path)
        base = {
            "train": {"synthetic": "2", "hidden": "4", "layers": "1",
                      "embed_dim": "8", "epochs": "1"},
            "evaluate": {"checkpoint": str(trained[0]), "synthetic": "2"},
            "predict": {"checkpoint": str(trained[0]), "tweets": str(twt)},
            "stats": {"accounts": str(acc), "tweets": str(twt)},
        }[command]
        flags = {**base, key: value}
        argv = [command, "--output-dir", str(tmp_path / "out")]
        if via == "config":
            config = tmp_path / "run.cfg"
            config.write_text(f"{key}={flags.pop(key)}\n")
            argv += ["--config", str(config)]
        for k, v in flags.items():
            argv += [f"--{FLAG_NAMES.get(k, k.replace('_', '-'))}", v]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("usage error:") and key in err, err

    def test_config_line_without_equals_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed=1\ntop_k 3\n")
        assert cli.main(["stats", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"usage error: {config}: line 2 is not key=value\n"

    def test_config_value_may_hold_line_separator_characters(self, tmp_path):
        # only a line ending ends a line: U+2028 and \f are file-name characters
        config = tmp_path / "run.cfg"
        config.write_text("tweets=t3/a\u2028b.csv\r\naccounts=a\fb.csv\rseed=4\n",
                          encoding="utf-8", newline="")
        cfg = _run_config(["stats", "--config", str(config)])
        assert (cfg.tweets, cfg.accounts, cfg.seed) == ("t3/a\u2028b.csv", "a\fb.csv", 4)

    @pytest.mark.parametrize("line", ["epochs=many", "stopwords=maybe", "synthetic=2.5"])
    def test_bad_config_value(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert cli.main(["train", "--config", str(config)]) == 1
        assert "bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, line", [
        (["stats"], "accounts=a\x00b.csv"),
        (["train", "--synthetic", "2"], "output_dir=o\x00d"),
        (["predict", "--tweets", "t.csv"], "checkpoint=m\x00.ckpt"),
    ], ids=["stats-accounts", "train-output-dir", "predict-checkpoint"])
    def test_nul_byte_in_config_value_is_usage_error(
        self, tmp_path, capsys, monkeypatch, argv, line
    ):
        # no file name holds a NUL byte, and no command-line flag can carry one
        monkeypatch.chdir(tmp_path)  # the default --output-dir
        config = tmp_path / "run.cfg"
        config.write_text(f"# run settings\n{line}\n", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        rc = cli.main([*argv, "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 1, err
        key = line.partition("=")[0]
        assert err.startswith(f"usage error: {config}: bad value for {key!r} on line 2"), err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("content", [None, "epochs=3 # caf\xe9\n".encode("latin-1")],
                             ids=["missing", "latin1"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, content):
        config = tmp_path / "run.cfg"
        if content is not None:
            config.write_bytes(content)
        assert cli.main(["train", "--config", str(config), "--synthetic", "2"]) == 1
        assert "usage error: cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("command, required", [
        ("build-vocab", {}),
        ("train", {}),
        ("evaluate", {"checkpoint": "m.ckpt"}),
        ("predict", {"checkpoint": "m.ckpt", "tweets": "t.csv"}),
        ("stats", {}),
    ])
    def test_unset_flags_take_run_config_defaults(self, command, required):
        argv = [command] + [a for k, v in required.items() for a in (f"--{k}", v)]
        cfg = _run_config(argv)
        assert cfg == cli.RunConfig(command=command, **required)

    @pytest.mark.parametrize("argv", [
        ["build-vocab"], ["train"], ["evaluate", "--checkpoint", "m.ckpt"],
        ["predict", "--checkpoint", "m.ckpt", "--tweets", "t.csv"], ["stats"],
    ], ids=lambda argv: argv[0])
    def test_config_values_reach_every_subcommand(self, tmp_path, argv):
        config = tmp_path / "run.cfg"
        config.write_text("seed=5\nmax_seq_len=9\nrt_token=false\n")
        cfg = _run_config([*argv, "--config", str(config)])
        assert (cfg.seed, cfg.max_seq_len, cfg.rt_token) == (5, 9, False)

    @pytest.mark.parametrize("argv", [
        ["predict", "--checkpoint", "m.ckpt", "--tweets", "t.csv"],
        ["stats", "--accounts", "a.csv", "--tweets", "t.csv"],
    ], ids=lambda argv: argv[0])
    def test_config_synthetic_does_not_bind_commands_without_it(self, tmp_path, argv):
        # a config file shared with train may set synthetic; these commands never read it
        config = tmp_path / "run.cfg"
        config.write_text("synthetic=2\n")
        cfg = _run_config([*argv, "--config", str(config)])
        assert cfg.synthetic == 2

    def test_evaluate_synthetic_ignores_config_inputs_it_does_not_read(self, trained, tmp_path):
        # a config file shared with train names its embedding and vocabulary files
        config = tmp_path / "run.cfg"
        config.write_text(f"glove={tmp_path / 'g.txt'}\nvocab={tmp_path / 'v.tsv'}\n")
        out = tmp_path / "metrics.json"
        rc = cli.main(["evaluate", "--checkpoint", str(trained[0]), "--synthetic", "2",
                       "--config", str(config), "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["tp"] + payload["fn"] == 2  # --synthetic 2: two bot accounts

    @pytest.mark.parametrize("command, flags", [
        ("build-vocab", ["--corpus", "--glove", "--output", "--embed-dim"]),
        ("train", ["--accounts", "--tweets", "--glove", "--vocab", "--checkpoint",
                   "--history", "--synthetic", "--hidden", "--layers", "--embed-dim",
                   "--lr", "--momentum", "--batch-size", "--epochs", "--dropout-start",
                   "--dropout-end", "--seed", "--max-seq-len", "--granularity"]),
        ("evaluate", ["--checkpoint", "--accounts", "--tweets", "--output", "--synthetic",
                      "--seed", "--max-seq-len", "--granularity"]),
        ("predict", ["--checkpoint", "--tweets", "--output", "--max-seq-len",
                     "--granularity"]),
        ("stats", ["--accounts", "--tweets", "--top-k", "--stopwords"]),
    ])
    def test_help_lists_every_flag(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag in [*flags, "--config", "--no-rt-token", "--output-dir"]:
            assert f"{flag} " in text, flag
        if "--hidden" in flags:
            assert "--hidden HIDDEN recurrent units per direction (default 200)" in text

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["train", "--frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}", "--embed-dim", "4",
         "--max-seq-len", "5"],
        ["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}", "--embed-dim", "4",
         "--hidden", "8"],
        ["stats", "--accounts", "{acc}", "--tweets", "{twt}", "--granularity", "per_account"],
        ["stats", "--accounts", "{acc}", "--tweets", "{twt}", "--max-seq-len", "5"],
        ["train", "--synthetic", "2", "--glove", "{glove}", "--embed-dim", "4",
         "--hidden", "2", "--layers", "1", "--epochs", "1"],
        ["train", "--synthetic", "2", "--vocab", "{vocab}", "--embed-dim", "4",
         "--hidden", "2", "--layers", "1", "--epochs", "1"],
        ["train", "--synthetic", "2", "--accounts", "{acc}", "--embed-dim", "4",
         "--hidden", "2", "--layers", "1", "--epochs", "1"],
        ["evaluate", "--checkpoint", "{ckpt}", "--synthetic", "2", "--tweets", "{twt}"],
        ["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}", "--embed-dim", "4",
         "--seed", "1"],
        ["predict", "--checkpoint", "{ckpt}", "--tweets", "{twt}", "--seed", "1"],
        ["stats", "--accounts", "{acc}", "--tweets", "{twt}", "--seed", "1"],
    ], ids=["build-vocab-max-seq-len", "build-vocab-hidden", "stats-granularity",
            "stats-max-seq-len", "train-synthetic-glove", "train-synthetic-vocab",
            "train-synthetic-accounts", "evaluate-synthetic-tweets", "build-vocab-seed",
            "predict-seed", "stats-seed"])
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, capsys, argv):
        paths = TestDataErrorExitCodes._inputs(tmp_path)
        argv = [a.format(**paths) for a in argv]
        rc = cli.main([*argv, "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("usage error:"), err

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: COMMAND\n")

    def test_module_run_exits_with_mains_code(self):
        # `python -m botlstm.cli` hands main's return code to sys.exit
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        result = subprocess.run([sys.executable, "-m", "botlstm.cli"], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("usage error:"), result.stderr

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["transmogrify"]) == 1

    def test_internal_error_exits_3(self, monkeypatch, tmp_path, capsys):
        from botlstm.errors import InternalError

        def boom(*args, **kwargs):
            raise InternalError("non-finite gradient for softmax.W",
                                module="trainer")

        monkeypatch.setattr("botlstm.cli.trainer.train", boom)
        rc = cli.main([
            "train", "--synthetic", "2", "--hidden", "4", "--layers", "1",
            "--embed-dim", "8", "--epochs", "1",
            "--checkpoint", str(tmp_path / "m.ckpt"),
            "--history", str(tmp_path / "h.csv"),
        ])
        assert rc == 3
        assert "trainer:" in capsys.readouterr().err

    def test_leaked_exception_is_internal_error(self, monkeypatch, tmp_path, capsys):
        # an exception no module turned into a BotlstmError is a fault here
        def boom(*args):
            raise ValueError("embedded null byte")

        monkeypatch.setattr(cli.trainer, "train", boom)
        rc = cli.main(["train", "--synthetic", "2", "--hidden", "2", "--layers", "1",
                       "--embed-dim", "4", "--output-dir", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == "internal error: embedded null byte\n"

    def test_run_config_defaults_match_training_defaults(self):
        from botlstm.trainer import TrainingConfig

        cfg = cli.RunConfig(command="train")
        assert isinstance(cfg, TrainingConfig)
        for f in dataclasses.fields(TrainingConfig):
            assert getattr(cfg, f.name) == getattr(TrainingConfig(), f.name), f.name
        assert cfg.hidden == 200 and cfg.layers == 3 and cfg.embed_dim == 200

    def test_make_examples_defaults_are_run_config_defaults(self):
        # bench/checks.py recomputes predict's p_bot through make_examples's defaults
        import inspect

        from botlstm.datasets import make_examples

        params = inspect.signature(make_examples).parameters
        cfg = cli.RunConfig(command="predict")
        assert (params["mode"].default, params["max_seq_len"].default,
                params["map_rt"].default) == (cfg.granularity, cfg.max_seq_len, cfg.rt_token)


class TestRequiredInputs:
    """Each command names every missing input in one usage error, before any output."""

    @pytest.mark.parametrize("argv, missing, absent", [
        (["build-vocab"], ["--corpus", "--glove"], []),
        (["build-vocab", "--corpus", "c.txt"], ["--glove"], ["--corpus"]),
        (["train"], ["--accounts", "--tweets", "--glove", "--synthetic N"], []),
        (["train", "--accounts", "{d}/a.csv", "--tweets", "{d}/t.csv"],
         ["--glove", "--synthetic N"], ["--accounts", "--tweets"]),
        (["evaluate"], ["--checkpoint", "--accounts", "--tweets", "--synthetic N"], []),
        (["evaluate", "--checkpoint", "{d}/m.ckpt"],
         ["--accounts", "--tweets", "--synthetic N"], ["--checkpoint"]),
        (["evaluate", "--synthetic", "2"], ["--checkpoint"], ["--synthetic N", "--accounts"]),
        (["predict"], ["--checkpoint", "--tweets"], []),
        (["predict", "--tweets", "{d}/t.csv"], ["--checkpoint"], ["--tweets"]),
        (["stats"], ["--accounts", "--tweets"], []),
    ], ids=["build-vocab", "build-vocab-corpus", "train", "train-csvs", "evaluate",
            "evaluate-checkpoint", "evaluate-synthetic", "predict", "predict-tweets", "stats"])
    def test_missing_input_is_one_usage_error_before_any_output(
        self, tmp_path, capsys, argv, missing, absent
    ):
        # the named inputs do not exist: reading one would exit 2, not 1
        out = tmp_path / "out"
        rc = cli.main([*[a.format(d=tmp_path) for a in argv], "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith(f"usage error: {argv[0]} requires"), err
        for flag in missing:
            assert flag in err, err
        for flag in absent:
            assert flag not in err, err
        assert not out.exists()

    def test_config_file_supplies_evaluate_checkpoint(self, trained, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"checkpoint={trained[0]}\n")
        out = tmp_path / "metrics.json"
        rc = cli.main(["evaluate", "--config", str(config), "--synthetic", "2",
                       "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["tp"] + payload["fn"] == 2  # --synthetic 2: two bot accounts

    def test_config_file_supplies_predict_checkpoint_and_tweets(self, trained, tmp_path):
        _, twt = write_dataset_files(small_accounts(), tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(f"checkpoint={trained[0]}\ntweets={twt}\n")
        out = tmp_path / "predictions.csv"
        rc = cli.main(["predict", "--config", str(config), "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + len(small_accounts())
