import csv
import dataclasses
import json
import weakref

import numpy as np
import pytest

from conftest import small_accounts, write_dataset_files

from botlstm import cli
from botlstm.checkpoint import load_checkpoint, save_checkpoint
from botlstm.datasets import Account, synthetic
from botlstm.embeddings import write_glove
from botlstm.text_pipeline import OOV_ID, build_vocabulary, encode, tokenize

#: Flags whose name is not their RunConfig field's with "-" for "_".
FLAG_NAMES = {"learning_rate": "lr"}

TRAIN_FLAGS = [
    "--synthetic", "6", "--seed", "2", "--hidden", "8", "--layers", "1",
    "--embed-dim", "16", "--epochs", "20", "--batch-size", "16",
]


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

    def test_empty_corpus_reserved_only(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("")
        glove = self._toy_glove(tmp_path, ["love"])
        out = tmp_path / "vocab.tsv"
        rc = cli.main([
            "build-vocab", "--corpus", str(corpus), "--glove", str(glove),
            "--embed-dim", "4", "--output", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err.lower()
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


class TestTrain:
    def test_single_epoch_history(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        history = tmp_path / "h.csv"
        rc = cli.main([
            "train", "--synthetic", "3", "--seed", "1", "--hidden", "4",
            "--layers", "1", "--embed-dim", "8", "--epochs", "1",
            "--checkpoint", str(ckpt), "--history", str(history),
        ])
        assert rc == 0
        rows = history.read_text().splitlines()
        assert len(rows) == 2  # header + one epoch

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
        acc, twt, glove, _ = self._csv_inputs(tmp_path)
        load_glove, train = cli.embeddings.load_glove, cli.trainer.train
        matrices = []
        alive_at_train = []

        def tracked_load(*args, **kwargs):
            words, matrix = load_glove(*args, **kwargs)
            matrices.append(weakref.ref(matrix))
            return words, matrix

        def checked_train(*args, **kwargs):
            alive_at_train.append(matrices[0]() is not None)
            return train(*args, **kwargs)

        monkeypatch.setattr(cli.embeddings, "load_glove", tracked_load)
        monkeypatch.setattr(cli.trainer, "train", checked_train)
        rc = cli.main([
            "train", "--accounts", str(acc), "--tweets", str(twt),
            "--glove", str(glove), "--embed-dim", "8", "--hidden", "4",
            "--layers", "1", "--epochs", "1", "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert alive_at_train == [False]

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
        model.softmax_W[:] = 0.0
        model.softmax_b[:] = 0.0
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


class TestDataErrorExitCodes:
    """Unreadable or non-UTF-8 inputs exit 2 with a module-prefixed message."""

    @staticmethod
    def _inputs(tmp_path):
        from botlstm.nn_core import ModelConfig, init_params

        acc, twt = write_dataset_files(small_accounts(), tmp_path)
        words = sorted({w for a in small_accounts() for t in a.tweets for w in t.split()})
        glove = tmp_path / "glove.txt"
        write_glove(glove, words, np.random.default_rng(0).standard_normal((len(words), 4)))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("love you\n", encoding="utf-8")
        _, vocab, table = synthetic(seed=1, n_per_class=1, embed_dim=4)
        model = init_params(ModelConfig(vocab_size=len(vocab), embed_dim=4, hidden=2,
                                        layers=1), rng_seed=0, embedding=table)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, model, vocab)
        model.softmax_W[0, 0] = np.nan
        nan_ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(nan_ckpt, model, vocab)
        short_ckpt = tmp_path / "short.ckpt"
        short_ckpt.write_bytes(ckpt.read_bytes()[:100])
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("account_id,tweet_text\nu1,caf\xe9\n".encode("latin-1"))
        vocab_file = tmp_path / "vocab.tsv"
        build_vocabulary([w.split() for w in words], set(words)).save(vocab_file)
        bad_header = tmp_path / "bad_header.csv"
        bad_header.write_text("id,text\nu1,hi\n")
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("account_id,tweet_text\n")
        zero_bytes = tmp_path / "zero_bytes.csv"
        zero_bytes.write_bytes(b"")
        return {"acc": acc, "twt": twt, "glove": glove, "corpus": corpus, "ckpt": ckpt,
                "nan_ckpt": nan_ckpt, "short_ckpt": short_ckpt, "bad": bad,
                "missing": tmp_path / "missing.tsv", "vocab": vocab_file,
                "bad_header": bad_header, "header_only": header_only,
                "zero_bytes": zero_bytes}

    @pytest.mark.parametrize("argv, prefix", [
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--embed-dim", "4", "--vocab", "{missing}"], "text_pipeline:"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--embed-dim", "4", "--vocab", "{bad}"], "text_pipeline:"),
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
        (["stats", "--accounts", "{acc}", "--tweets", "{header_only}"], "cli:"),
        (["stats", "--accounts", "{zero_bytes}", "--tweets", "{twt}"], "datasets:"),
        (["predict", "--checkpoint", "{ckpt}", "--tweets", "{zero_bytes}"], "datasets:"),
        (["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}", "--embed-dim", "3"],
         "embeddings:"),
        (["train", "--accounts", "{acc}", "--tweets", "{twt}", "--glove", "{glove}",
          "--vocab", "{vocab}", "--embed-dim", "5"], "embeddings:"),
    ], ids=["missing-vocab", "latin1-vocab", "latin1-tweets", "latin1-predict-tweets",
            "latin1-corpus", "latin1-glove", "nan-checkpoint", "truncated-checkpoint",
            "train-bad-header", "evaluate-bad-header", "predict-bad-header",
            "stats-bad-header", "train-header-only", "evaluate-header-only",
            "stats-header-only", "stats-zero-bytes", "predict-zero-bytes",
            "build-vocab-glove-dim", "train-glove-dim"])
    def test_exit_2_with_module_prefix(self, tmp_path, capsys, argv, prefix):
        paths = self._inputs(tmp_path)
        argv = [a.format(**paths) for a in argv]
        rc = cli.main([*argv, "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(prefix), err

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
    ], ids=["train", "train-output-dir-is-file", "evaluate", "predict", "build-vocab",
            "stats"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, argv, target):
        entered = []
        monkeypatch.setattr(cli.trainer, "train", lambda *args: entered.append(args))
        paths = {**self._inputs(tmp_path), "nodir": tmp_path / "missing_dir",
                 "file": tmp_path / "corpus.txt"}
        rc = cli.main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"cli: cannot write {target.format(**paths)}"), err
        assert not entered

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


class TestConfigFileAndExitCodes:
    def test_config_file_defaults_and_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("epochs=1\nhidden=4\nlayers=1\nembed_dim=8\nseed=3\n")
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
        cfg = cli.RunConfig.from_args(cli.parse_args(["stats", "--config", str(config)]))
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
            if f.name == "command":
                continue
            raw, value = valid.get(f.name) or samples[f.type.split(" | ")[0]]
            lines.append(f"{f.name}={raw}")
            expected[f.name] = value
        config = tmp_path / "all.cfg"
        config.write_text("\n".join(lines) + "\n")
        cfg = cli.RunConfig.from_args(cli.parse_args(["train", "--config", str(config)]))
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

    @pytest.mark.parametrize("line", ["epochs=many", "stopwords=maybe", "synthetic=2.5"])
    def test_bad_config_value(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert cli.main(["train", "--config", str(config)]) == 1
        assert "bad value" in capsys.readouterr().err

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
        cfg = cli.RunConfig.from_args(cli.parse_args(argv))
        assert cfg == cli.RunConfig(command=command, **required)

    @pytest.mark.parametrize("argv", [
        ["build-vocab"], ["train"], ["evaluate", "--checkpoint", "m.ckpt"],
        ["predict", "--checkpoint", "m.ckpt", "--tweets", "t.csv"], ["stats"],
    ], ids=lambda argv: argv[0])
    def test_config_values_reach_every_subcommand(self, tmp_path, argv):
        config = tmp_path / "run.cfg"
        config.write_text("seed=5\nmax_seq_len=9\nrt_token=false\n")
        cfg = cli.RunConfig.from_args(cli.parse_args([*argv, "--config", str(config)]))
        assert (cfg.seed, cfg.max_seq_len, cfg.rt_token) == (5, 9, False)

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
    ], ids=["build-vocab-max-seq-len", "build-vocab-hidden", "stats-granularity",
            "stats-max-seq-len", "train-synthetic-glove", "train-synthetic-vocab"])
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, capsys, argv):
        paths = TestDataErrorExitCodes._inputs(tmp_path)
        argv = [a.format(**paths) for a in argv]
        rc = cli.main([*argv, "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("usage error:"), err

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1

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

    def test_run_config_defaults_match_training_defaults(self):
        from botlstm.trainer import TrainingConfig

        cfg = cli.RunConfig(command="train")
        trained = cfg.training()
        assert trained == TrainingConfig(seed=0)
        assert cfg.hidden == 200 and cfg.layers == 3 and cfg.embed_dim == 200
