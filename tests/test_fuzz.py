"""A seeded mutation fuzz over every CLI input.

Seven small valid inputs (accounts CSV, tweets CSV, embedding file,
vocabulary, checkpoint, corpus and a --config file naming input paths) are
mutated one edit at a time and handed, in process, to each command that
reads them. Every run must exit 0, 1 or 2; a failing run's last stderr
line must be a usage error or carry a package module's prefix, and it must
leave no new file behind.
"""

import pkgutil
import random
import shutil

import pytest

import botlstm
from botlstm import cli
from botlstm.checkpoint import save_checkpoint
from botlstm.datasets import save_dataset, synthetic
from botlstm.embeddings import write_glove
from botlstm.nn_core import ModelConfig, init_params
from botlstm.text_pipeline import SPECIAL_TOKENS

MUTATIONS_PER_PAIR = 40
#: Byte strings spliced in at a random offset.
INSERTS = [b"\x00", b"\r", b"\xff", b"\xef\xbb\xbf", "\u00a0".encode(), "\u2028".encode(),
           "\u0085".encode(), b"nan", b"inf", b"1e999", b",", b'"']
#: What a failing run's last stderr line may start with.
PREFIXES = ("usage error:", *(f"{m.name}:" for m in pkgutil.iter_modules(botlstm.__path__)))

DIM = ["--embed-dim", "4"]
COMMANDS = {
    "build-vocab": ["build-vocab", "--corpus", "{corpus}", "--glove", "{glove}", *DIM],
    "train": ["train", "--accounts", "{accounts}", "--tweets", "{tweets}", "--glove", "{glove}",
              *DIM, "--hidden", "4", "--layers", "1", "--epochs", "1"],
    "evaluate": ["evaluate", "--checkpoint", "{checkpoint}", "--accounts", "{accounts}",
                 "--tweets", "{tweets}"],
    "predict": ["predict", "--checkpoint", "{checkpoint}", "--tweets", "{tweets}"],
    "stats": ["stats", "--accounts", "{accounts}", "--tweets", "{tweets}"],
}
#: (input, command) pairs; a vocab run adds --vocab to train, a config run
#: adds --config to a command that takes its other inputs from the file.
PAIRS = [("accounts", "train"), ("accounts", "evaluate"), ("accounts", "stats"),
         ("tweets", "train"), ("tweets", "evaluate"), ("tweets", "predict"),
         ("tweets", "stats"), ("glove", "build-vocab"), ("glove", "train"),
         ("vocab", "train"), ("checkpoint", "evaluate"), ("checkpoint", "predict"),
         ("corpus", "build-vocab"), ("config", "evaluate"), ("config", "predict")]


def _write_inputs(directory):
    """The seven valid inputs in `directory`, by name; the config's paths are relative."""
    accounts, vocab, table = synthetic(3, 4, embed_dim=4)
    for account in accounts:
        del account.tweets[3:]  # a few tweets each keep every run short
    paths = {name: directory / file for name, file in (
        ("accounts", "accounts.csv"), ("tweets", "tweets.csv"), ("glove", "glove.txt"),
        ("vocab", "vocab.tsv"), ("checkpoint", "model.ckpt"), ("corpus", "corpus.txt"),
        ("config", "run.cfg"))}
    save_dataset(accounts, paths["accounts"], paths["tweets"])
    rows = [i for i, w in enumerate(vocab.surfaces) if w not in SPECIAL_TOKENS]
    write_glove(paths["glove"], [vocab.surfaces[i] for i in rows], table.vectors[rows])
    vocab.save(paths["vocab"])
    model = init_params(ModelConfig(len(vocab), 4, hidden=4, layers=1), rng_seed=3,
                        embedding=table)
    save_checkpoint(paths["checkpoint"], model, vocab)
    paths["corpus"].write_text("".join(t + "\n" for a in accounts for t in a.tweets),
                               encoding="utf-8")
    paths["config"].write_text("seed=3\naccounts=accounts.csv\ntweets=tweets.csv\n"
                               "checkpoint=model.ckpt\noutput_dir=config_out\n",
                               encoding="utf-8")
    return paths


def _mutate(rng, data: bytes) -> bytes:
    """`data` with one random edit: a byte flip, an insertion, a deletion,
    a truncation or a duplicated line."""
    i = rng.randrange(len(data))
    kind = rng.randrange(5)
    if kind == 0:
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]
    if kind == 1:
        return data[:i] + rng.choice(INSERTS) + data[i:]
    if kind == 2:
        return data[:i] + data[i + rng.randint(1, 8):]
    if kind == 3:
        return data[:i]
    lines = data.splitlines(keepends=True)
    j = rng.randrange(len(lines))
    return b"".join([*lines[: j + 1], *lines[j:]])


def _remove(paths):
    for path in sorted(paths, reverse=True):  # a directory after what it holds
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


@pytest.mark.parametrize("name, command", PAIRS, ids=[f"{n}-{c}" for n, c in PAIRS])
def test_mutated_input_exits_cleanly(tmp_path, monkeypatch, capsys, name, command):
    monkeypatch.chdir(tmp_path)  # the config's relative paths
    parser = cli.build_parser()  # one parser for every run: building it costs more than a run
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    paths = _write_inputs(tmp_path)
    original = paths[name].read_bytes()
    paths[name] = tmp_path / f"mutated_{paths[name].name}"
    if name == "config":
        argv = [command, "--config", str(paths[name])]
    else:
        argv = [a.format(**paths) for a in COMMANDS[command]]
        argv += ["--vocab", str(paths[name])] if name == "vocab" else []
    argv += ["--output-dir", "out"]  # over the config's output_dir, so runs write only here
    rng = random.Random(f"{name}-{command}")
    for k in range(MUTATIONS_PER_PAIR):
        data = _mutate(rng, original)
        paths[name].write_bytes(data)
        before = set(tmp_path.rglob("*"))
        rc = cli.main(argv)
        err = capsys.readouterr().err
        case = f"mutation {k}: {data!r}"
        assert rc in (0, 1, 2), f"{case}\n{err}"
        new = set(tmp_path.rglob("*")) - before
        if rc:
            assert err.splitlines()[-1].startswith(PREFIXES), f"{case}\n{err}"
            assert not [p for p in new if p.is_file()], f"{case}\n{err}"
        _remove(new)
