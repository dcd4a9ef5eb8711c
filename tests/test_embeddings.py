import logging

import numpy as np
import pytest

from botlstm.embeddings import (
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


class TestBuildTable:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary([["cat", "dog"]], {"cat", "dog"})

    def test_pretrained_rows_copied_and_fixed(self, vocab):
        words = ["cat", "dog"]
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        table = build_table(vocab, words, matrix, rng_seed=0)
        np.testing.assert_array_equal(table.vectors[vocab.id_of("cat")], [1.0, 2.0])
        assert not table.trainable_mask[vocab.id_of("cat")]

    def test_pad_row_zero_and_fixed(self, vocab):
        table = build_table(vocab, ["cat", "dog"], np.ones((2, 2)), rng_seed=0)
        np.testing.assert_array_equal(table.vectors[PAD_ID], [0.0, 0.0])
        assert not table.trainable_mask[PAD_ID]

    def test_trainable_rows(self, vocab):
        table = build_table(vocab, ["cat", "dog"], np.ones((2, 2)), rng_seed=0)
        assert list(np.flatnonzero(table.trainable_mask)) == [1, 2, 3, 4, 5]
        assert np.all(np.abs(table.vectors[1:6]) <= 0.05)

    def test_seed_determinism(self, vocab):
        args = (vocab, ["cat", "dog"], np.ones((2, 2)))
        a = build_table(*args, rng_seed=42)
        b = build_table(*args, rng_seed=42)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        c = build_table(*args, rng_seed=43)
        assert not np.array_equal(a.oov_vector, c.oov_vector)

    def test_missing_vocab_word_rejected(self, vocab):
        with pytest.raises(DataError, match="dog"):
            build_table(vocab, ["cat"], np.ones((1, 2)), rng_seed=0)

    def test_non_finite_vectors_rejected(self, vocab):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(DataError, match="non-finite"):
            build_table(vocab, ["cat", "dog"], bad, rng_seed=0)


class TestEmbedSequence:
    @pytest.fixture
    def table(self):
        vocab = build_vocabulary([["cat"]], {"cat"})
        return build_table(vocab, ["cat"], np.array([[7.0, 8.0]]), rng_seed=1)

    def test_oov_selects_shared_vector(self, table):
        out = embed_sequence(table, [OOV_ID])
        np.testing.assert_array_equal(out[0], table.oov_vector)

    def test_pad_rows_zero(self, table):
        out = embed_sequence(table, [PAD_ID, PAD_ID])
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_composition(self, table):
        out = embed_sequence(table, [6, OOV_ID])
        np.testing.assert_array_equal(out[0], [7.0, 8.0])
        np.testing.assert_array_equal(out[1], table.oov_vector)

    def test_length_and_finite(self, table):
        ids = [0, 1, 2, 3, 4, 5, 6]
        out = embed_sequence(table, ids)
        assert out.shape == (len(ids), table.dim)
        assert np.isfinite(out).all()

    def test_out_of_range_rejected(self, table):
        with pytest.raises(ValueError, match="out of range"):
            embed_sequence(table, [table.vocab_size])
        with pytest.raises(ValueError, match="out of range"):
            embed_sequence(table, [-1])

    def test_rows_are_copies(self, table):
        out = embed_sequence(table, [6])
        out[0, 0] = 123.0
        assert table.vectors[6, 0] == 7.0
