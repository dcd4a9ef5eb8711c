"""Pretrained word-vector loading and the model's embedding table.

Pretrained rows stay frozen for the whole life of the model. The only
trainable rows are the shared out-of-vocabulary vector and the four meme
tokens (<HASHTAG>/<USER>/<URL>/<RT>), which have no pretrained vector of
their own. <PAD> embeds to zero and never moves. TRAINABLE_ROWS names those
rows; gradients and optimizer state cover `vectors[TRAINABLE_ROWS]` only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, open_text
from .text_pipeline import OOV_ID, RESERVED_TOKENS, Vocabulary

log = logging.getLogger(__name__)

N_RESERVED = len(RESERVED_TOKENS)
#: Rows with learned vectors: OOV plus the four meme tokens. PAD stays fixed.
TRAINABLE_ROWS = slice(OOV_ID, N_RESERVED)
#: Half-width of the uniform init for trainable rows.
TRAINABLE_INIT_RANGE = 0.05


@dataclass
class EmbeddingTable:
    """Dense token vectors, [vocab_size, dim] float32.

    Row OOV_ID is the shared vector for all out-of-vocabulary words; only
    TRAINABLE_ROWS ever change.
    """

    vectors: np.ndarray

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def load_glove(source, expected_dim: int, wanted):
    """Read the rows of a "word v1 ... vD" text stream whose word is in `wanted`.

    `source` may be a path or an iterable of lines. Returns (words, matrix):
    the wanted words found, in stream order, and their [n, D] float64 rows.
    A line's vector is its last D fields, separated by runs of whitespace as
    `str.split()` sees it (ASCII space, tab, U+00A0, U+3000 and the rest);
    its word is what precedes them and may not hold an ASCII space or tab.
    Every line's field count is checked, but only wanted rows are parsed,
    each value as `float()` reads it. A repeated word keeps its first
    vector; repeats are counted and logged. Raises DataError naming the
    first faulty line in stream order, on a bad field count or a non-numeric
    wanted field, and on an empty stream.

    Cost: a line whose fields are single ASCII spaces apart is checked
    without being split, so what remains is parsing the wanted rows' floats,
    all in one call. Memory grows with the wanted rows, not with the file.
    """
    if isinstance(source, (str, Path)):
        with open_text(source, "embeddings", "embedding file") as fh:
            return _parse_glove_lines(fh, expected_dim, wanted, str(source))
    return _parse_glove_lines(source, expected_dim, wanted, "<stream>")


def _parse_glove_lines(lines, expected_dim: int, wanted, name: str):
    # A "plain" line is `word` + " " + D fields joined by single ASCII
    # spaces, with no other whitespace: for it, rsplit(None, D) would give
    # exactly [word, *vector.split(" ")], so counting the spaces is the whole
    # field-count check. Any other line is split as whitespace-separated.
    found: dict[str, int] = {}  # wanted word -> its first line number
    texts: list[str] = []  # their vectors, fields joined by single spaces
    duplicates = 0
    n = 0
    try:
        for n, line in enumerate(lines, start=1):
            word, _, vector = line.rstrip("\r\n").partition(" ")
            if not (
                word
                and vector
                and vector.count(" ") == expected_dim - 1
                and vector.isascii()
                and word.isprintable()
                and vector[0] != " "
                and vector[-1] != " "
                and "  " not in vector
                # the ASCII whitespace besides the space (nine `in` tests are
                # several times faster than `isprintable()` on a long line)
                and "\t" not in vector and "\n" not in vector and "\v" not in vector
                and "\f" not in vector and "\r" not in vector and "\x1c" not in vector
                and "\x1d" not in vector and "\x1e" not in vector
                and "\x1f" not in vector
            ):
                fields = line.lstrip().rsplit(None, expected_dim)
                if not fields:
                    raise DataError(f"{name}: empty line {n}", module="embeddings")
                word = fields[0]
                if len(fields) != expected_dim + 1 or " " in word or "\t" in word:
                    raise DataError(
                        f"{name}: line {n} has {len(line.split()) - 1} values, "
                        f"expected {expected_dim}",
                        module="embeddings",
                    )
                vector = " ".join(fields[1:])
            if word not in wanted:
                continue
            if word in found:
                duplicates += 1
                continue
            found[word] = n
            texts.append(vector)
    except (DataError, OSError, UnicodeDecodeError):
        # A non-numeric wanted row before this fault is the one to report.
        _parse_vectors(texts, list(found.values()), expected_dim, name)
        raise
    if n == 0:
        raise DataError(f"{name}: empty embedding stream", module="embeddings")
    matrix = _parse_vectors(texts, list(found.values()), expected_dim, name)
    if duplicates:
        log.warning(
            "%s: %d duplicate word(s); first occurrence kept", name, duplicates
        )
    return list(found), matrix


def _parse_vectors(texts, line_numbers, expected_dim: int, name: str):
    """[len(texts), D] float64 from texts of D space-separated `float()` values.

    np.loadtxt reads a subset of what `float()` reads, to the same values;
    if it refuses, each row is parsed on its own, which either accepts what
    only `float()` reads (`1_0`, `٣.٥`) or names the first non-numeric line.
    """
    if not texts:
        return np.zeros((0, expected_dim), dtype=np.float64)
    try:
        matrix = np.loadtxt(
            texts, dtype=np.float64, delimiter=" ", comments=None, ndmin=2
        )
    except ValueError:
        matrix = np.empty((len(texts), expected_dim), dtype=np.float64)
        for i, (text, n) in enumerate(zip(texts, line_numbers)):
            try:
                matrix[i] = np.array(text.split(" "), dtype=np.float64)
            except ValueError as exc:
                raise DataError(
                    f"{name}: non-numeric field on line {n}", module="embeddings"
                ) from exc
    return matrix


def write_glove(path, words, vectors) -> None:
    """Write (words, vectors) in the plain-text embedding format."""
    vectors = np.asarray(vectors, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, vectors):
            fh.write(word + " " + " ".join(format(v, ".17g") for v in row) + "\n")


def build_table(
    vocab: Vocabulary, word_list, raw_matrix, rng_seed: int
) -> EmbeddingTable:
    """Assemble the embedding table for a vocabulary.

    Non-reserved rows copy their pretrained vector and are frozen; the OOV
    and meme rows are seeded uniform(+-0.05) and trainable; PAD is zero
    and frozen. Every non-reserved vocabulary word must appear in
    `word_list` (the vocabulary is an intersection by construction).
    The table is float32: each pretrained value and each draw is rounded
    to float32, and a pretrained value beyond float32's range is refused.
    """
    with np.errstate(over="ignore"):  # an overflow becomes inf, refused below
        raw_matrix = np.asarray(raw_matrix, dtype=np.float32)
    if raw_matrix.ndim != 2 or raw_matrix.shape[1] < 1:
        raise ValueError("raw_matrix must be [n_words, dim] with dim >= 1")
    if not np.isfinite(raw_matrix).all():
        raise DataError(
            "embedding matrix contains non-finite values or values beyond "
            "float32's range",
            module="embeddings",
        )
    dim = raw_matrix.shape[1]
    index: dict[str, int] = {}
    for i, w in enumerate(word_list):
        index.setdefault(w, i)

    rng = np.random.default_rng(rng_seed)
    vectors = np.zeros((len(vocab), dim), dtype=np.float32)
    trainable = vectors[TRAINABLE_ROWS]
    trainable[:] = rng.uniform(
        -TRAINABLE_INIT_RANGE, TRAINABLE_INIT_RANGE, trainable.shape
    )

    for token_id in range(N_RESERVED, len(vocab)):
        word = vocab.surface_of(token_id)
        i = index.get(word)
        if i is None:
            raise DataError(
                f"vocabulary word {word!r} missing from the embedding word list; "
                "the vocabulary must be the corpus/embedding intersection",
                module="embeddings",
            )
        vectors[token_id] = raw_matrix[i]
    return EmbeddingTable(vectors=vectors)


def embed_sequence(vectors: np.ndarray, ids) -> np.ndarray:
    """Gather the rows of a [vocab_size, dim] table for token ids: [*ids.shape, dim]."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= len(vectors)):
        raise ValueError(
            f"token id out of range for vocabulary of size {len(vectors)}"
        )
    return vectors[idx]
