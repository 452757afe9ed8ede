"""Gradient-check cases for every differentiable primitive and loss term.

Each case is (name, f, arrays): `f` maps one Tensor per array to a scalar and
is deterministic, with inputs chosen away from pooling ties so central
differences are valid. A constant factor other than a scalar enters as a
Tensor that needs no grad: `*` takes no arrays. The packed primitives run over ragged lengths
[5, 5, 7, 9] (one run of two equal lengths, two runs of one), the 2-d convs
at batch size 2.
"""

import numpy as np

from sarcse.autodiff import (
    Tensor,
    conv1d_valid,
    conv2d_valid,
    dropout,
    embedding_lookup,
    max_pool_time,
    max_unpool_time,
    stack_rows,
    transposed_conv1d,
    transposed_conv2d,
)
from sarcse.losses import info_nce, reconstruction_loss

_rng = np.random.default_rng(20240811)


def _n(*shape):
    return _rng.normal(size=shape)


LENGTHS = np.array([5, 5, 7, 9])


def _spread_columns(lengths, c):
    """Packed maps whose per-sentence, per-column max has a comfortable gap (no pooling ties)."""
    x = _rng.normal(size=(lengths.sum(), c))
    peaks = (_rng.random(size=(len(lengths), c)) * lengths[:, None]).astype(int)
    x[peaks + (np.cumsum(lengths) - lengths)[:, None], np.arange(c)] += 3.0
    return x


def primitive_cases():
    cases = []

    def case(name, f, *arrays):
        cases.append((name, f, [np.asarray(a, dtype=np.float64) for a in arrays]))

    a23, b23 = _n(2, 3), _n(2, 3)
    case("add", lambda a, b: (a + b).sum(), a23, b23)
    case("multiply", lambda a, b: (a * b).sum(), a23, b23)
    case("scalar_scale", lambda a: (a * 2.5).sum(), a23)
    case("reshape", lambda a: (a.reshape(6) * Tensor(np.arange(1.0, 7.0))).sum(), a23)
    case("mean", lambda a: a.mean() * 3.0, a23)
    case("getitem_int", lambda a: (a[1] * Tensor(np.arange(1.0, 4.0))).sum(), a23)
    case("getitem_slice", lambda a: (a[:2] * 1.5).sum(), _n(4, 3))
    rows = np.array([2, 0])
    case("getitem_rows", lambda a: (a[rows, :3] * Tensor(np.arange(1.0, 7.0).reshape(2, 3))).sum(), _n(3, 4))

    ids = np.array([[0, 2, 1], [2, 2, 3]])
    case("embedding_lookup", lambda w: (embedding_lookup(w, ids) * 0.5).sum(), _n(4, 3))

    def drop(a):
        rng = np.random.default_rng(7)
        return dropout(a, 0.4, rng).sum()

    case("dropout", drop, a23)

    n_rows = LENGTHS.sum()
    case(
        "conv1d_valid",
        lambda x, k, b: (conv1d_valid(x, k, b, LENGTHS) * 0.5).sum(),
        _n(n_rows, 3), _n(4, 3, 3), _n(4),
    )
    case(
        "transposed_conv1d",
        lambda x, k, b: (transposed_conv1d(x, k, b, LENGTHS) * 0.5).sum(),
        _n(n_rows, 4), _n(4, 3, 3), _n(3),
    )
    case(
        "conv2d_valid",
        lambda x, k, b: (conv2d_valid(x, k, b) * 0.5).sum(),
        _n(2, 3, 8), _n(2, 3, 2), _n(2),
    )
    case(
        "transposed_conv2d",
        lambda x, k, b: (transposed_conv2d(x, k, b) * 0.5).sum(),
        _n(2, 2, 1, 7), _n(2, 3, 2), _n(1),
    )

    pool_in = _spread_columns(LENGTHS, 4)
    weights = Tensor(_n(len(LENGTHS), 4))

    def pool(a):
        values, _ = max_pool_time(a, LENGTHS)
        return (values * weights).sum()

    case("max_pool_time", pool, pool_in)

    unpool_idx = np.array([[0, 3, 1], [4, 0, 0], [6, 2, 5], [8, 0, 3]])
    unpool_w = Tensor(_n(n_rows, 3))

    def unpool(v):
        return (max_unpool_time(v, unpool_idx, LENGTHS) * unpool_w).sum()

    case("max_unpool_time", unpool, _n(len(LENGTHS), 3))

    case(
        "stack_rows",
        lambda a, b, c: (stack_rows([a, b, c]) * Tensor(np.arange(1.0, 13.0).reshape(2, 3, 2))).sum(),
        _n(2, 2), _n(2, 2), _n(2, 2),
    )
    case("info_nce", lambda a, b: info_nce(a, b, 0.5), _n(4, 5), _n(4, 5))

    # non-uniform weights and a masked pad row (row 3 of sentence 1)
    recon_lengths = np.array([4, 4])
    recon_w = _rng.uniform(0.1, 1.0, size=8)
    recon_mask = np.array([True] * 4 + [True, True, True, False])
    scale = Tensor(np.array([1.0, -2.0]))
    target = _n(8, 3)
    case(
        "reconstruction_loss",
        lambda x, r: (reconstruction_loss(x, r, recon_w, recon_mask, recon_lengths) * scale).sum(),
        target, _n(8, 3),
    )

    return cases
