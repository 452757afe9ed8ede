"""Tokenization, vocabulary and token-frequency construction, dataset
readers, and padded batching."""

from __future__ import annotations

import hashlib
import string
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
RESERVED = (PAD_TOKEN, UNK_TOKEN)

# Largest TextCNN kernel; every sentence is padded to at least this length.
MIN_SENTENCE_LEN = 5

_PUNCT = set(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenizer that peels leading/trailing punctuation."""
    tokens: list[str] = []
    for piece in text.lower().split():
        lead: list[str] = []
        while piece and piece[0] in _PUNCT:
            lead.append(piece[0])
            piece = piece[1:]
        trail: list[str] = []
        while piece and piece[-1] in _PUNCT:
            trail.append(piece[-1])
            piece = piece[:-1]
        tokens.extend(lead)
        if piece:
            tokens.append(piece)
        tokens.extend(reversed(trail))
    return tokens


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line without its newline) of a UTF-8 text file, read one
    line at a time. A leading byte-order mark is dropped; bytes that are not
    UTF-8 are a ValueError naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc


@dataclass
class Vocab:
    """Token/id mapping with PAD=0 and UNK=1 reserved."""

    tokens: list[str]                      # non-reserved tokens, id = index + 2
    corpus_sha256: str | None = None
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {tok: i + len(RESERVED) for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens) + len(RESERVED)

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        if idx < len(RESERVED):
            return RESERVED[idx]
        return self.tokens[idx - len(RESERVED)]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]


def load_corpus(path: str | Path) -> list[str]:
    """Read a one-sentence-per-line corpus, skipping blank lines."""
    return [line.strip() for _, line in text_lines(path) if line.strip()]


def build_vocab(corpus_path: str | Path) -> Vocab:
    """Every corpus token, ordered by descending count with ties broken
    lexicographically, which makes the vocabulary deterministic for a given
    corpus."""
    counts: dict[str, int] = {}
    for sentence in load_corpus(corpus_path):
        for tok in tokenize(sentence):
            counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise ValueError(f"build_vocab: empty corpus {corpus_path}")
    return Vocab(sorted(counts, key=lambda t: (-counts[t], t)), corpus_sha256=file_sha256(corpus_path))


def token_frequency(corpus_path: str | Path, vocab: Vocab) -> np.ndarray:
    """Per-vocab-id share of all corpus token occurrences, as float64.

    UNK absorbs out-of-vocabulary occurrences, so the shares sum to 1 over
    ids >= 1 for any corpus; PAD never occurs and stays at 0.
    """
    checksum = file_sha256(corpus_path)
    if vocab.corpus_sha256 is not None and vocab.corpus_sha256 != checksum:
        warnings.warn(
            f"token_frequency: corpus {corpus_path} does not match the vocabulary's "
            f"source corpus (checksum mismatch)",
            stacklevel=2,
        )
    counts = np.zeros(len(vocab), dtype=np.int64)
    for sentence in load_corpus(corpus_path):
        for tok in tokenize(sentence):
            counts[vocab.id_of(tok)] += 1
    total = counts.sum()
    if total == 0:
        raise ValueError(f"token_frequency: empty corpus {corpus_path}")
    return counts.astype(np.float64) / total


@dataclass
class ScoredPair:
    """A sentence pair with a human similarity rating in [0, 5]."""

    gold_score: float
    sentence_a: list[str]
    sentence_b: list[str]


def load_sts_pairs(path: str | Path) -> list[ScoredPair]:
    """Read tab-separated `score\\ta\\tb` similarity pairs. A sentence that
    tokenizes to nothing is an error naming its `path:line`."""
    pairs: list[ScoredPair] = []
    for lineno, line in text_lines(path):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        try:
            score = float(fields[0])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad score {fields[0]!r}") from exc
        if not 0.0 <= score <= 5.0:
            raise ValueError(f"{path}:{lineno}: score {score} outside [0, 5]")
        a, b = tokenize(fields[1]), tokenize(fields[2])
        if not a or not b:
            raise ValueError(f"{path}:{lineno}: sentence {1 if not a else 2} is empty after tokenization")
        pairs.append(ScoredPair(score, a, b))
    return pairs


@dataclass
class SentenceBatch:
    """PAD-filled id matrix; row i holds lengths[i] real tokens, then PAD."""

    ids: np.ndarray        # B x L int64
    lengths: np.ndarray    # B int64


def make_batch(sentences: Iterable[str], vocab: Vocab) -> SentenceBatch:
    """Tokenize, id-encode, and pad a group of sentences to a common length, at least MIN_SENTENCE_LEN."""
    return make_batch_tokens([tokenize(s) for s in sentences], vocab)


def make_batch_tokens(token_lists: Iterable[list[str]], vocab: Vocab) -> SentenceBatch:
    """`make_batch` over already-tokenized sentences."""
    encoded: list[list[int]] = []
    for i, toks in enumerate(token_lists):
        if not toks:
            raise ValueError(f"make_batch: sentence {i} is empty after tokenization")
        encoded.append(vocab.encode(toks))
    if not encoded:
        raise ValueError("make_batch: no sentences")
    lengths = np.array([len(e) for e in encoded], dtype=np.int64)
    ids = np.full((len(encoded), max(MIN_SENTENCE_LEN, lengths.max())), PAD_ID, dtype=np.int64)
    for i, e in enumerate(encoded):
        ids[i, : len(e)] = e
    return SentenceBatch(ids=ids, lengths=lengths)


# -- on-disk formats ---------------------------------------------------------


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    """One non-reserved token per line; id = line number - 1 + reserved offset."""
    with open(path, "w", encoding="utf-8") as fh:
        for tok in vocab.tokens:
            fh.write(tok + "\n")


def save_frequency(freq: np.ndarray, vocab: Vocab, path: str | Path) -> None:
    """Tab-separated `token\\tfreq` rows covering every vocab id."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx in range(len(vocab)):
            fh.write(f"{vocab.token_of(idx)}\t{float(freq[idx])!r}\n")


def pretrained_vectors(path: str | Path, vocab: Vocab, dim: int) -> dict[int, np.ndarray]:
    """The vectors of a `token v1 v2 ... vd` text file for the tokens of
    `vocab`, by id. The file is read one line at a time; every row must have
    width `dim` and finite values, and rows for other tokens are dropped."""
    vectors = {}
    for lineno, line in text_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ValueError(f"{path}:{lineno}: expected a token and at least one value")
        try:
            vector = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if vector.shape[0] != dim:
            raise ValueError(f"{path}:{lineno}: pretrained width {vector.shape[0]} does not match dim {dim}")
        if not np.isfinite(vector).all():
            raise ValueError(f"{path}:{lineno}: pretrained vector holds a non-finite value")
        idx = vocab.id_of(parts[0])
        if idx != UNK_ID:
            vectors[idx] = vector
    return vectors
