"""Tweet normalization, tokenization, and vocabulary construction.

The tokenizer is rule-based and fully deterministic. Twitter memes are
collapsed onto reserved tokens:

    #topic        -> <HASHTAG>
    @somebody     -> <USER>
    http(s)://... -> <URL>
    RT / rt       -> <RT>        (optional, on by default)

Everything else is lower-cased, and a fixed set of ASCII punctuation is
split off the front and back of each whitespace-separated chunk. URL
chunks are kept whole because trailing punctuation is usually part of the
link itself.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

from .errors import DataError, open_text

PAD = "<PAD>"
OOV = "<OOV>"
HASHTAG = "<HASHTAG>"
USER = "<USER>"
URL = "<URL>"
RT = "<RT>"

#: Reserved surfaces in id order; these six ids are fixed for every vocabulary.
RESERVED_TOKENS = (PAD, OOV, HASHTAG, USER, URL, RT)
PAD_ID = 0
OOV_ID = 1

SPECIAL_TOKENS = frozenset(RESERVED_TOKENS)

_HASHTAG_RE = re.compile(r"#\w")
_USER_RE = re.compile(r"@\w")
_URL_RE = re.compile(r"https?://\S", re.IGNORECASE)

#: Punctuation split off chunk boundaries as standalone tokens.
DETACH_PUNCT = frozenset(".,!?;:\"'()[]")


def normalize_token(raw: str, map_rt: bool = True) -> str:
    """Map one whitespace-free chunk to its normalized token surface.

    Special tokens pass through unchanged; meme chunks collapse onto their
    reserved surface; anything else is lower-cased. `map_rt=False` leaves
    the retweet marker as the plain word "rt".
    """
    if raw in SPECIAL_TOKENS:
        return raw
    if _HASHTAG_RE.match(raw):
        return HASHTAG
    if _USER_RE.match(raw):
        return USER
    if _URL_RE.match(raw):
        return URL
    if map_rt and raw in ("RT", "rt"):
        return RT
    return raw.lower()


def _detach(chunk: str) -> tuple[list[str], str, list[str]]:
    """Split leading/trailing detachable punctuation off a chunk."""
    start, end = 0, len(chunk)
    while start < end and chunk[start] in DETACH_PUNCT:
        start += 1
    while end > start and chunk[end - 1] in DETACH_PUNCT:
        end -= 1
    return list(chunk[:start]), chunk[start:end], list(chunk[end:])


def tokenize(tweet: str, map_rt: bool = True) -> list[str]:
    """Split a tweet into normalized tokens.

    Splits on Unicode whitespace, detaches boundary punctuation as
    standalone tokens, then normalizes each remaining core. Chunks that
    are URLs as-is become one <URL> token, punctuation and all.
    """
    tokens: list[str] = []
    for chunk in tweet.split():
        if _URL_RE.match(chunk):
            tokens.append(URL)
            continue
        lead, core, trail = _detach(chunk)
        tokens.extend(lead)
        if core:
            tokens.append(normalize_token(core, map_rt=map_rt))
        tokens.extend(trail)
    return tokens


class Vocabulary:
    """Bijective token-surface <-> dense-id map with fixed reserved ids."""

    def __init__(self, surfaces: Iterable[str]):
        surfaces = list(surfaces)
        if tuple(surfaces[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError(
                "vocabulary must start with the reserved tokens "
                + ", ".join(RESERVED_TOKENS)
            )
        self._surfaces = surfaces
        self._ids = {s: i for i, s in enumerate(surfaces)}
        if len(self._ids) != len(surfaces):
            raise ValueError("duplicate surfaces in vocabulary")

    def __len__(self) -> int:
        return len(self._surfaces)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and other._surfaces == self._surfaces

    def id_of(self, token: str) -> int:
        """Id of `token`, or the shared out-of-vocabulary id if absent."""
        return self._ids.get(token, OOV_ID)

    def surface_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._surfaces):
            raise ValueError(f"token id {token_id} out of range")
        return self._surfaces[token_id]

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(self._surfaces)

    def save(self, path) -> None:
        """Write one "surface<TAB>id" line per entry, sorted by id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, surface in enumerate(self._surfaces):
                fh.write(f"{surface}\t{i}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        surfaces = []
        path = Path(path)
        with open_text(path, "text_pipeline", "vocabulary file") as fh:
            for n, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                    raise DataError(
                        f"{path}: malformed vocabulary line {n}", module="text_pipeline"
                    )
                if int(parts[1]) != len(surfaces):
                    raise DataError(
                        f"{path}: non-dense id on line {n}", module="text_pipeline"
                    )
                surfaces.append(parts[0])
        try:
            return cls(surfaces)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}", module="text_pipeline") from exc


def build_vocabulary(
    corpus: Iterable[list[str]], embedding_words: set[str]
) -> Vocabulary:
    """Reserved tokens plus every corpus token found in `embedding_words`.

    Non-reserved ids are assigned in first-appearance order over the
    corpus, so the result is deterministic for a fixed corpus.
    """
    surfaces = list(RESERVED_TOKENS)
    seen = set(surfaces)
    for tokens in corpus:
        for token in tokens:
            if token in seen or token not in embedding_words:
                continue
            seen.add(token)
            surfaces.append(token)
    return Vocabulary(surfaces)


def encode(tokens: list[str], vocab: Vocabulary) -> list[int]:
    """Map tokens to ids; anything outside the vocabulary becomes OOV."""
    return [vocab.id_of(t) for t in tokens]
