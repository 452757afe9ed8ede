"""Trainable token-embedding table standing in for a pretrained encoder."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .autodiff import Tensor, dropout, embedding_lookup
from .corpus import PAD_ID, UNK_ID, SentenceBatch, Vocab, pretrained_vectors


def init_table(
    vocab: Vocab,
    dim: int,
    init_scale: float,
    rng: np.random.Generator,
    pretrained_path: str | Path | None = None,
    dtype=np.float32,
) -> Tensor:
    """V x d table drawn from Uniform(-init_scale, +init_scale), optionally
    overlaid with vectors from a pretrained file for the vocabulary tokens it
    covers (other lines are skipped). Row 0 (PAD) is pinned at zero."""
    if dim < 1:
        raise ValueError(f"init_table: dim must be >= 1, got {dim}")
    weights = rng.uniform(-init_scale, init_scale, size=(len(vocab), dim))
    if pretrained_path is not None:
        for token, vec in pretrained_vectors(pretrained_path):
            if vec.shape[0] != dim:
                raise ValueError(
                    f"init_table: pretrained width {vec.shape[0]} does not match dim {dim}"
                )
            idx = vocab.id_of(token)
            if idx != UNK_ID:
                weights[idx] = vec
    weights[PAD_ID] = 0.0
    return Tensor(weights.astype(dtype), requires_grad=True)


def embed(
    batch: SentenceBatch,
    table: Tensor,
    dropout_rate: float,
    rng: np.random.Generator,
) -> Tensor:
    """Look up a batch as a B x L x d tensor, then apply inverted dropout.

    Two calls with independent rng draws give the two dropout views of the
    same batch; rate 0 is a pure lookup. PAD rows stay zero either way.
    """
    return dropout(embedding_lookup(table, batch.ids), dropout_rate, rng)
