import logging

import numpy as np
import pytest

from conftest import traced_peak

from botlstm.embeddings import (
    TRAINABLE_ROWS,
    _parse_glove_lines,
    build_table,
    embed_sequence,
    load_glove,
    write_glove,
)
from botlstm.errors import DataError
from botlstm.text_pipeline import OOV_ID, PAD_ID, build_vocabulary


class TestLoadGlove:
    def test_basic_line(self):
        words, matrix = load_glove(["cat 0.1 -0.2"], expected_dim=2, wanted={"cat"})
        assert words == ["cat"]
        np.testing.assert_allclose(matrix, [[0.1, -0.2]])

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(DataError, match="line 1"):
            load_glove(["cat 0.1"], expected_dim=2, wanted={"cat"})
        with pytest.raises(DataError, match="line 2"):
            load_glove(["cat 0.1 0.2", "dog 0.3"], expected_dim=2,
                       wanted={"cat", "dog"})

    def test_non_numeric_field(self):
        with pytest.raises(DataError, match="non-numeric"):
            load_glove(["cat 0.1 oops"], expected_dim=2, wanted={"cat"})

    def test_empty_stream(self):
        with pytest.raises(DataError, match="empty"):
            load_glove([], expected_dim=2, wanted=set())

    def test_duplicates_first_wins(self, caplog):
        with caplog.at_level(logging.WARNING, logger="botlstm.embeddings"):
            words, matrix = load_glove(["a 1 0", "a 0 1"], expected_dim=2, wanted={"a"})
        assert words == ["a"]
        np.testing.assert_array_equal(matrix, [[1.0, 0.0]])
        assert "1 duplicate" in caplog.text

    def test_missing_path(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(DataError, match="nope.txt"):
            load_glove(missing, expected_dim=2, wanted=set())

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        words = ["alpha", "beta", "gamma"]
        vectors = rng.standard_normal((3, 4))
        path = tmp_path / "toy.txt"
        write_glove(path, words, vectors)
        got_words, got = load_glove(path, expected_dim=4, wanted=set(words))
        assert got_words == words
        np.testing.assert_array_equal(got, vectors)

    @pytest.mark.parametrize("line", [
        "cat\t0.1\t-0.2", "cat   0.1  -0.2", "cat 0.1 -0.2 ", "  cat 0.1 -0.2\n",
    ], ids=["tabs", "space-runs", "trailing-space", "leading-space"])
    def test_fields_split_on_any_whitespace_run(self, line):
        words, matrix = load_glove([line], expected_dim=2, wanted={"cat"})
        assert words == ["cat"]
        np.testing.assert_array_equal(matrix, [[0.1, -0.2]])

    def test_word_may_hold_non_ascii_whitespace(self):
        lines = ["a\xa0b 0.4 0.5", "cat 0.1 0.2"]
        words, matrix = load_glove(lines, expected_dim=2, wanted={"a\xa0b", "cat"})
        assert words == ["a\xa0b", "cat"]
        np.testing.assert_array_equal(matrix, [[0.4, 0.5], [0.1, 0.2]])

    @pytest.mark.parametrize("word", ["a b", "a\tb"], ids=["space", "tab"])
    def test_word_holding_space_or_tab_is_a_dimension_error(self, word):
        with pytest.raises(DataError, match="line 2 has 3 values, expected 2"):
            load_glove(["cat 0.1 0.2", f"{word} 0.4 0.5"], expected_dim=2, wanted={"cat"})

    def test_only_wanted_rows_are_parsed(self):
        lines = ["cat 0.1 oops", "dog 0.3 0.4"]
        words, matrix = load_glove(lines, expected_dim=2, wanted={"dog"})
        assert words == ["dog"]
        np.testing.assert_array_equal(matrix, [[0.3, 0.4]])
        with pytest.raises(DataError, match="non-numeric field on line 1"):
            load_glove(lines, expected_dim=2, wanted={"cat", "dog"})

    def test_no_wanted_word_gives_an_empty_matrix(self):
        words, matrix = load_glove(["cat 0.1 0.2"], expected_dim=2, wanted={"dog"})
        assert words == []
        assert matrix.shape == (0, 2) and matrix.dtype == np.float64

    def test_duplicates_counted_among_wanted_words_only(self, caplog):
        lines = ["a 1 0", "b 1 1", "a 0 1", "b 2 2", "b 3 3"]
        with caplog.at_level(logging.WARNING, logger="botlstm.embeddings"):
            words, matrix = load_glove(lines, expected_dim=2, wanted={"a"})
        assert words == ["a"]
        np.testing.assert_array_equal(matrix, [[1.0, 0.0]])
        assert "1 duplicate" in caplog.text

    def test_values_parse_as_python_floats(self):
        fields = ["+1.5", "-2e-3", "1E+300", ".5", "-0.0", "4.9e-324", "1e400",
                  "0.30000000000000004", "nan", "-inf", "Infinity"]
        _, matrix = load_glove(
            ["w " + " ".join(fields)], expected_dim=len(fields), wanted={"w"}
        )
        assert matrix.tobytes() == np.array([[float(f) for f in fields]]).tobytes()

    def test_values_only_float_reads_still_load(self):
        # np.loadtxt refuses both; a row-by-row parse reads them as float() does
        lines = ["a 1_0 -2_5.0_1", "b \u0663.\u0665 1"]
        words, matrix = load_glove(lines, expected_dim=2, wanted={"a", "b"})
        assert words == ["a", "b"]
        assert matrix.tobytes() == np.array([[10.0, -25.01], [3.5, 1.0]]).tobytes()

    @pytest.mark.parametrize("lines, message", [
        (["cat 0.1 oops", "dog 0.3 0.4", "bad 1"], "non-numeric field on line 1"),
        (["cat 0.1 0.2", "bad 1", "dog 0.3 oops"], "line 2 has 1 values, expected 2"),
        (["cat 0.1 oops", "  "], "non-numeric field on line 1"),
    ], ids=["non-numeric-first", "field-count-first", "non-numeric-before-empty-line"])
    def test_first_fault_in_stream_order_is_reported(self, lines, message):
        with pytest.raises(DataError, match=message):
            load_glove(lines, expected_dim=2, wanted={"cat", "dog"})

    def test_non_numeric_row_before_undecodable_bytes_is_reported(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_bytes(b"cat 0.1 oops\n" + b"dog 0.3 0.4\n" * 3000 + b"\xff 1 2\n")
        with pytest.raises(DataError, match="non-numeric field on line 1"):
            load_glove(path, expected_dim=2, wanted={"cat"})
        with pytest.raises(DataError, match="not valid UTF-8"):
            load_glove(path, expected_dim=2, wanted={"dog"})


def _reference_parse_glove_lines(lines, expected_dim: int, wanted, name: str):
    """Reference loader: every line is split on whitespace runs, and every
    wanted row is parsed on its own."""
    rows: dict[str, np.ndarray] = {}
    duplicates = 0
    n = 0
    for n, line in enumerate(lines, start=1):
        fields = line.lstrip().rsplit(None, expected_dim)
        if not fields:
            raise DataError(f"{name}: empty line {n}", module="embeddings")
        word = fields[0]
        if len(fields) != expected_dim + 1 or " " in word or "\t" in word:
            raise DataError(
                f"{name}: line {n} has {len(line.split()) - 1} values, expected "
                f"{expected_dim}",
                module="embeddings",
            )
        if word not in wanted:
            continue
        if word in rows:
            duplicates += 1
            continue
        try:
            rows[word] = np.array(fields[1:], dtype=np.float64)
        except ValueError as exc:
            raise DataError(
                f"{name}: non-numeric field on line {n}", module="embeddings"
            ) from exc
    if n == 0:
        raise DataError(f"{name}: empty embedding stream", module="embeddings")
    if duplicates:
        logging.getLogger("botlstm.embeddings").warning(
            "%s: %d duplicate word(s); first occurrence kept", name, duplicates
        )
    matrix = np.array(list(rows.values()), dtype=np.float64)
    return list(rows), matrix.reshape(len(rows), expected_dim)


# Pieces of random embedding lines. Words may hold non-ASCII whitespace;
# SPLIT_WORDS hold whitespace that str.split() splits on.
WORDS = ["cat", "dog", "caf\u00e9", "a\xa0b", "x\u3000y", "w\u200bz"]
SPLIT_WORDS = ["e\x1cf", "g\vh", "i\tj", "k\x85l"]
VALUES = ["0.5", "-1.25", "+3e-2", ".5", "-0.0", "1e400", "nan", "-inf", "4.9e-324", "7"]
#: float() reads these and np.loadtxt does not
FLOAT_ONLY_VALUES = ["1_0", "\u0663.\u0665", "\uff11"]
NON_NUMERIC = ["oops", "1#", "0x10", "1\x00", "1\x7f", "--1", "1_", "\u00b2", "nan(1)"]
#: whitespace besides the ASCII space: all of it in ASCII, and some beyond
INNER_SPACES = ["\t", "\n", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x1f",
                "\x85", "\xa0", "\u2028", "\u3000"]
SEPARATORS = ["\t", "  ", "\xa0", "\u3000", " \t", "\x1f "]
ENDINGS = ["\n", "", "\r\n", " \n", "\t\r\n"]
BLANK_LINES = ["", "\n", "   \n", "\t\n", "\r\n", "\xa0\n"]
#: line shapes and their shares; "short-extra-space" lines lack one value and
#: hold one extra space, so their spaces still number D
SHAPES = {"single-spaces": 0.6, "mixed-whitespace": 0.23, "blank": 0.015,
          "split-word": 0.03, "wrong-count": 0.03, "short-extra-space": 0.04,
          "space-in-value": 0.055}


def _random_line(rng, dim: int) -> tuple[str, str]:
    """One embedding line, and its shape."""
    shape = str(rng.choice(list(SHAPES), p=list(SHAPES.values())))
    if shape == "blank":
        return str(rng.choice(BLANK_LINES)), shape
    word = str(rng.choice(SPLIT_WORDS if shape == "split-word" else WORDS))
    n_values = dim
    if shape == "wrong-count":
        n_values += int(rng.choice([-1, 1]))
    elif shape == "short-extra-space":
        n_values -= 1
    values = []
    for _ in range(n_values):
        r = rng.random()
        pool = VALUES if r < 0.95 else FLOAT_ONLY_VALUES if r < 0.975 else NON_NUMERIC
        values.append(str(rng.choice(pool)))
    if shape == "space-in-value":
        i = int(rng.integers(len(values)))
        at = int(rng.integers(len(values[i]) + 1))
        values[i] = values[i][:at] + str(rng.choice(INNER_SPACES)) + values[i][at:]
    fields = [word, *values]
    seps = [" "] * (len(fields) - 1)
    prefix = ""
    ending = str(rng.choice(ENDINGS[:3], p=[0.8, 0.1, 0.1]))
    if shape == "mixed-whitespace":
        seps = [" " if rng.random() < 0.6 else str(rng.choice(SEPARATORS)) for _ in seps]
        prefix = str(rng.choice(["", " ", "\t", "\u3000"], p=[0.7, 0.1, 0.1, 0.1]))
        ending = str(rng.choice(ENDINGS))
    elif shape == "short-extra-space":
        where = rng.choice(["leading", "trailing", "doubled"])
        if where == "leading":
            prefix = " "
        elif where == "trailing":
            ending = " " + ending
        elif seps:
            seps[int(rng.integers(len(seps)))] = "  "
        else:
            ending = " " + ending
    line = prefix + "".join(f + s for f, s in zip(fields, seps)) + fields[-1] + ending
    return line, shape


def _outcome(parse, lines, dim, wanted, caplog):
    caplog.clear()
    try:
        words, matrix = parse(lines, dim, wanted, "<stream>")
    except DataError as exc:
        result = (type(exc), str(exc), exc.module)
    else:
        result = (words, matrix.shape, matrix.dtype, matrix.tobytes())
    return result, [r.getMessage() for r in caplog.records]


class TestLoadGloveMatchesLineSplitting:
    def test_whitespace_other_than_the_space_is_never_printable(self):
        # the plain-line check relies on this to keep whitespace out of words
        chars = map(chr, range(0x110000))
        assert [c for c in chars if c.isspace() and c.isprintable()] == [" "]

    @pytest.mark.parametrize("space", INNER_SPACES,
                             ids=[f"U+{ord(c):04X}" for c in INNER_SPACES])
    def test_whitespace_inside_a_value_splits_it(self, space):
        lines = ["cat 0.1 0.2", f"dog 0{space}5 0.6"]
        with pytest.raises(DataError, match="line 2 has 3 values, expected 2"):
            load_glove(lines, expected_dim=2, wanted={"cat"})

    def test_random_streams_match_the_reference(self, caplog):
        rng = np.random.default_rng(20140)
        shapes = dict.fromkeys(SHAPES, 0)
        outcomes = dict.fromkeys(
            ["rows", "non-numeric", "values, expected", "empty line", "duplicate warning"], 0
        )
        with caplog.at_level(logging.WARNING, logger="botlstm.embeddings"):
            for _ in range(600):
                dim = int(rng.integers(1, 4))
                built = [_random_line(rng, dim) for _ in range(int(rng.integers(2, 13)))]
                lines = [line for line, _ in built]
                wanted = {w for w in WORDS + SPLIT_WORDS if rng.random() < 0.6}
                want = _outcome(_reference_parse_glove_lines, lines, dim, wanted, caplog)
                got = _outcome(_parse_glove_lines, lines, dim, wanted, caplog)
                assert got == want, lines
                for _, shape in built:
                    shapes[shape] += 1
                result, warnings = want
                if isinstance(result[0], list):  # (words, shape, dtype, bytes)
                    outcomes["rows"] += len(result[0]) > 0
                else:  # (type, message, module)
                    for kind in ("non-numeric", "values, expected", "empty line"):
                        outcomes[kind] += kind in result[1]
                outcomes["duplicate warning"] += bool(warnings)
        assert sum(shapes.values()) >= 2000
        assert min(shapes.values()) >= 30, shapes
        assert min(outcomes.values()) >= 10, outcomes


class TestLoadGloveMemory:
    """Memory grows with the wanted rows, not with the file."""

    @staticmethod
    def _peak_bytes(path, dim, wanted):
        (words, matrix), peak = traced_peak(
            lambda: load_glove(path, expected_dim=dim, wanted=wanted))
        return words, matrix, peak

    def test_unwanted_lines_are_not_kept(self, tmp_path):
        dim = 50
        vector = " ".join(f"{v:+.4f}" for v in np.random.default_rng(1).uniform(-1, 1, dim))
        path = tmp_path / "glove.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(20_000):
                fh.write(f"{'cat' if i % 5000 == 7 else f'u{i}'} {vector}\n")
        assert path.stat().st_size > 7_000_000
        words, matrix, peak = self._peak_bytes(path, dim, {"cat", "dog"})
        assert words == ["cat"] and matrix.shape == (1, dim)
        assert peak < 1_000_000

    def test_wanted_rows_cost_at_most_2_5x_their_matrix(self, tmp_path):
        dim = 200
        rng = np.random.default_rng(2)
        words = [f"w{i}" for i in range(2_000)]
        path = tmp_path / "glove.txt"
        path.write_text("".join(
            w + " " + " ".join(f"{v:+.4f}" for v in row) + "\n"
            for w, row in zip(words, rng.uniform(-1, 1, (len(words), dim)))
        ), encoding="utf-8")
        got, matrix, peak = self._peak_bytes(path, dim, set(words))
        assert got == words
        assert peak <= 2.5 * matrix.nbytes, peak / matrix.nbytes


class TestBuildTable:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary([["cat", "dog"]], {"cat", "dog"})

    def test_pretrained_rows_copied_and_fixed(self, vocab):
        words = ["cat", "dog"]
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        table = build_table(vocab, words, matrix, rng_seed=0)
        assert table.vectors.dtype == np.float32
        np.testing.assert_array_equal(table.vectors[vocab.id_of("cat")], [1.0, 2.0])
        assert vocab.id_of("cat") not in range(len(vocab))[TRAINABLE_ROWS]

    def test_pad_row_zero_and_fixed(self, vocab):
        table = build_table(vocab, ["cat", "dog"], np.ones((2, 2)), rng_seed=0)
        np.testing.assert_array_equal(table.vectors[PAD_ID], [0.0, 0.0])
        assert PAD_ID not in range(len(vocab))[TRAINABLE_ROWS]

    def test_trainable_rows(self, vocab):
        table = build_table(vocab, ["cat", "dog"], np.ones((2, 2)), rng_seed=0)
        assert range(len(vocab))[TRAINABLE_ROWS] == range(1, 6)
        assert np.all(np.abs(table.vectors[1:6]) <= 0.05)

    def test_seed_determinism(self, vocab):
        args = (vocab, ["cat", "dog"], np.ones((2, 2)))
        a = build_table(*args, rng_seed=42)
        b = build_table(*args, rng_seed=42)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        c = build_table(*args, rng_seed=43)
        assert not np.array_equal(a.vectors[OOV_ID], c.vectors[OOV_ID])

    def test_missing_vocab_word_rejected(self, vocab):
        with pytest.raises(DataError, match="dog"):
            build_table(vocab, ["cat"], np.ones((1, 2)), rng_seed=0)

    @pytest.mark.parametrize("matrix", [np.ones(2), np.ones((2, 0))], ids=["1-D", "zero-width"])
    def test_matrix_shape_rejected(self, vocab, matrix):
        with pytest.raises(ValueError, match=r"\[n_words, dim\] with dim >= 1"):
            build_table(vocab, ["cat", "dog"], matrix, rng_seed=0)

    def test_non_finite_vectors_rejected(self, vocab):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(DataError, match="non-finite"):
            build_table(vocab, ["cat", "dog"], bad, rng_seed=0)

    def test_value_beyond_float32_rejected(self, vocab):
        bad = np.array([[1.0, -1e39], [0.0, 1.0]])  # finite in float64
        with pytest.raises(DataError, match="beyond float32's range"):
            build_table(vocab, ["cat", "dog"], bad, rng_seed=0)


class TestEmbedSequence:
    @pytest.fixture
    def table(self):
        vocab = build_vocabulary([["cat"]], {"cat"})
        return build_table(vocab, ["cat"], np.array([[7.0, 8.0]]), rng_seed=1)

    def test_oov_selects_shared_vector(self, table):
        out = embed_sequence(table.vectors, [OOV_ID])
        np.testing.assert_array_equal(out[0], table.vectors[OOV_ID])

    def test_pad_rows_zero(self, table):
        out = embed_sequence(table.vectors, [PAD_ID, PAD_ID])
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_composition(self, table):
        out = embed_sequence(table.vectors, [6, OOV_ID])
        np.testing.assert_array_equal(out[0], [7.0, 8.0])
        np.testing.assert_array_equal(out[1], table.vectors[OOV_ID])

    def test_length_and_finite(self, table):
        ids = [0, 1, 2, 3, 4, 5, 6]
        out = embed_sequence(table.vectors, ids)
        assert out.shape == (len(ids), table.dim)
        assert np.isfinite(out).all()

    def test_out_of_range_rejected(self, table):
        with pytest.raises(ValueError, match="out of range"):
            embed_sequence(table.vectors, [table.vocab_size])
        with pytest.raises(ValueError, match="out of range"):
            embed_sequence(table.vectors, [-1])

    def test_rows_are_copies(self, table):
        out = embed_sequence(table.vectors, [6])
        out[0, 0] = 123.0
        assert table.vectors[6, 0] == 7.0
