"""Trainable token-embedding table standing in for a pretrained encoder."""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from .autodiff import Tensor, dropout, embedding_lookup
from .corpus import PAD_ID, SentenceBatch, Vocab


def init_table(
    vocab: Vocab,
    dim: int,
    init_scale: float,
    rng: np.random.Generator,
    pretrained: Mapping[int, np.ndarray] = {},
    dtype=np.float32,
) -> Tensor:
    """V x d table drawn from Uniform(-init_scale, +init_scale), overlaid
    with the `pretrained` vectors by token id, as `pretrained_vectors` reads
    them. Row 0 (PAD) is pinned at zero."""
    if dim < 1:
        raise ValueError(f"init_table: dim must be >= 1, got {dim}")
    weights = rng.uniform(-init_scale, init_scale, size=(len(vocab), dim))
    for idx, vec in pretrained.items():
        weights[idx] = vec
    weights[PAD_ID] = 0.0
    return Tensor(weights.astype(dtype), requires_grad=True)


def embed(
    batch: SentenceBatch,
    table: Tensor,
    dropout_rate: float,
    rng: Optional[np.random.Generator],
) -> Tensor:
    """Look up a batch as a B x L x d tensor, then apply inverted dropout.

    Over a batch stacked twice, one call gives the two dropout views of it:
    the draw for 2B rows is the two B-row draws in order. Rate 0 is a pure
    lookup that draws nothing (`rng` may be None); PAD rows stay zero either way.
    """
    return dropout(embedding_lookup(table, batch.ids), dropout_rate, rng)
