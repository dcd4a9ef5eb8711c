#!/usr/bin/env python3
"""Load word vectors, build the model's embedding table, embed a tweet.

Pretrained rows are frozen for the whole life of the model; the shared
out-of-vocabulary row and the four meme-token rows are the only trainable
ones, and <PAD> embeds to zero.
"""

import tempfile
from pathlib import Path

import numpy as np

from botlstm import (
    build_table,
    build_vocabulary,
    embed_sequence,
    encode,
    load_glove,
    tokenize,
    write_glove,
)
from botlstm.embeddings import TRAINABLE_ROWS

rng = np.random.default_rng(0)
words = ["love", "deal", "lol", "check"]
vectors = rng.standard_normal((4, 5)).round(2)

with tempfile.TemporaryDirectory() as tmp:
    glove_path = Path(tmp) / "toy_vectors.txt"
    write_glove(glove_path, words, vectors)
    print("== toy embedding file ==")
    print(glove_path.read_text()[:200], "...")

    loaded_words, matrix = load_glove(glove_path, expected_dim=5, wanted=set(words))
    print(f"loaded {len(loaded_words)} words of width {matrix.shape[1]}")

corpus = [tokenize("love this deal lol"), tokenize("check it #wow")]
vocab = build_vocabulary(corpus, set(words))
table = build_table(vocab, loaded_words, matrix, rng_seed=7)

print("\n== table layout ==")
trainable = range(len(vocab))[TRAINABLE_ROWS]
for i, surface in enumerate(vocab.surfaces):
    kind = "trainable" if i in trainable else "frozen"
    print(f"  row {i:2d} {surface:10} {kind:9} {np.round(table.vectors[i][:3], 3)}...")

print("\n== embedding a sequence ==")
ids = encode(tokenize("love zzqx <nothing> deal"), vocab)
matrix = embed_sequence(table.vectors, ids)
print(f"  ids {ids} -> matrix {matrix.shape}")
print("  row 1 and row 2 are both the shared OOV vector:",
      bool(np.array_equal(matrix[1], matrix[2])))
