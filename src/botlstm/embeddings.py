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
    """Dense token vectors, [vocab_size, dim] float64.

    Row OOV_ID is the shared vector for all out-of-vocabulary words; only
    TRAINABLE_ROWS ever change.
    """

    vectors: np.ndarray

    @property
    def trainable_mask(self) -> np.ndarray:
        """Boolean row mask of TRAINABLE_ROWS (a fresh array per access)."""
        mask = np.zeros(self.vocab_size, dtype=bool)
        mask[TRAINABLE_ROWS] = True
        return mask

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def oov_vector(self) -> np.ndarray:
        return self.vectors[OOV_ID]


def load_glove(source, expected_dim: int, wanted):
    """Read the rows of a "word v1 ... vD" text stream whose word is in `wanted`.

    `source` may be a path or an iterable of lines. Returns (words, matrix):
    the wanted words found, in stream order, and their [n, D] float64 rows.
    A line's vector is its last D whitespace-separated fields; its word is
    what precedes them and may not hold an ASCII space or tab. Every line's
    field count is checked, but only wanted rows are parsed. A repeated word
    keeps its first vector; repeats are counted and logged. Raises DataError
    naming the line on a bad field count or a non-numeric wanted field, and
    on an empty stream.
    """
    if isinstance(source, (str, Path)):
        with open_text(source, "embeddings", "embedding file") as fh:
            return _parse_glove_lines(fh, expected_dim, wanted, str(source))
    return _parse_glove_lines(source, expected_dim, wanted, "<stream>")


def _parse_glove_lines(lines, expected_dim: int, wanted, name: str):
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
        log.warning(
            "%s: %d duplicate word(s); first occurrence kept", name, duplicates
        )
    matrix = np.array(list(rows.values()), dtype=np.float64)
    return list(rows), matrix.reshape(len(rows), expected_dim)


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
    """
    raw_matrix = np.asarray(raw_matrix, dtype=np.float64)
    if raw_matrix.ndim != 2 or raw_matrix.shape[1] < 1:
        raise ValueError("raw_matrix must be [n_words, dim] with dim >= 1")
    if not np.isfinite(raw_matrix).all():
        raise DataError(
            "embedding matrix contains non-finite values", module="embeddings"
        )
    dim = raw_matrix.shape[1]
    index: dict[str, int] = {}
    for i, w in enumerate(word_list):
        index.setdefault(w, i)

    rng = np.random.default_rng(rng_seed)
    vectors = np.zeros((len(vocab), dim), dtype=np.float64)
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


def embed_sequence(table: EmbeddingTable, ids) -> np.ndarray:
    """Stack the table rows for a token-id sequence into [len, dim]."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.vocab_size):
        raise ValueError(
            f"token id out of range for vocabulary of size {table.vocab_size}"
        )
    return table.vectors[idx]
