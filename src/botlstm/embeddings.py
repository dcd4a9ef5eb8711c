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


def load_glove(source, expected_dim: int):
    """Parse a "word v1 ... vD" text stream into (words, matrix).

    `source` may be a path or an iterable of lines. Duplicate words keep
    their first vector; later occurrences are counted and logged. Raises
    DataError on a dimension mismatch or non-numeric field (naming the
    line) and on an empty stream.
    """
    if isinstance(source, (str, Path)):
        with open_text(source, "embeddings", "embedding file") as fh:
            return _parse_glove_lines(fh, expected_dim, str(source))
    return _parse_glove_lines(source, expected_dim, "<stream>")


def _parse_glove_lines(lines, expected_dim: int, name: str):
    words: list[str] = []
    rows: list[list[float]] = []
    index: dict[str, int] = {}
    duplicates = 0
    n = 0
    for n, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            raise DataError(f"{name}: empty line {n}", module="embeddings")
        if len(parts) - 1 != expected_dim:
            raise DataError(
                f"{name}: line {n} has {len(parts) - 1} values, expected "
                f"{expected_dim}",
                module="embeddings",
            )
        try:
            vec = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise DataError(
                f"{name}: non-numeric field on line {n}", module="embeddings"
            ) from exc
        word = parts[0]
        if word in index:
            duplicates += 1
            continue
        index[word] = len(words)
        words.append(word)
        rows.append(vec)
    if n == 0:
        raise DataError(f"{name}: empty embedding stream", module="embeddings")
    if duplicates:
        log.warning(
            "%s: %d duplicate word(s); first occurrence kept", name, duplicates
        )
    return words, np.asarray(rows, dtype=np.float64)


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
