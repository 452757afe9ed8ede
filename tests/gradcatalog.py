"""Gradient-check cases for every differentiable primitive.

Each case is (name, f, arrays): `f` maps one Tensor per array to a scalar and
is deterministic, with inputs chosen away from pooling ties so central
differences are valid. The batched primitives run at batch size 2.
"""

import numpy as np

from sarcse.autodiff import (
    concat,
    conv1d_valid,
    conv2d_valid,
    dropout,
    embedding_lookup,
    l2_norm,
    logsumexp,
    max_pool_time,
    max_unpool_time,
    transposed_conv1d,
    transposed_conv2d,
)

_rng = np.random.default_rng(20240811)


def _n(*shape):
    return _rng.normal(size=shape)


def _spread_columns(b, p, c):
    """B x P x c maps whose per-column max has a comfortable gap (no pooling ties)."""
    x = _rng.normal(size=(b, p, c))
    x[np.arange(b)[:, None], _rng.integers(0, p, size=(b, c)), np.arange(c)] += 3.0
    return x


def primitive_cases():
    cases = []

    def case(name, f, *arrays):
        cases.append((name, f, [np.asarray(a, dtype=np.float64) for a in arrays]))

    a23, b23 = _n(2, 3), _n(2, 3)
    case("add", lambda a, b: (a + b).sum(), a23, b23)
    case("subtract", lambda a, b: (a - b).sum(), a23, b23)
    case("multiply", lambda a, b: (a * b).sum(), a23, b23)
    case("divide", lambda a, b: (a / b).sum(), a23, np.abs(b23) + 1.0)
    case("scalar_scale", lambda a: (a * 2.5).sum(), a23)
    case("matmul", lambda a, b: (a @ b).sum(), _n(3, 4), _n(4, 2))
    case("transpose", lambda a: (a.T @ a).sum(), _n(3, 2))
    case("reshape", lambda a: (a.reshape(6) * np.arange(1.0, 7.0)).sum(), a23)
    case("concat", lambda a, b: (concat([a, b], axis=0) * 0.5).sum(), a23, _n(1, 3))
    case("sum_axis", lambda a: (a.sum(axis=1) * np.array([1.0, -2.0])).sum(), a23)
    case("mean", lambda a: a.mean() * 3.0, a23)
    case("mean_axis", lambda a: (a.mean(axis=0) * np.arange(1.0, 4.0)).sum(), a23)
    case("exp", lambda a: (a.exp()).sum(), a23 * 0.3)
    case("log", lambda a: (a.log()).sum(), np.abs(a23) + 0.5)
    case("l2_norm", lambda a: l2_norm(a), _n(5) + 2.0)
    case("l2_norm_rows", lambda a: (l2_norm(a, axis=1) * np.array([1.0, 2.0])).sum(), a23 + 2.0)
    case("logsumexp", lambda a: logsumexp(a, axis=1).sum(), a23)
    case("getitem_int", lambda a: (a[1] * np.arange(1.0, 4.0)).sum(), a23)
    case("getitem_slice", lambda a: (a[:2] * 1.5).sum(), _n(4, 3))
    rows = np.array([2, 0])
    case("getitem_rows", lambda a: (a[rows, :3] * np.arange(1.0, 7.0).reshape(2, 3)).sum(), _n(3, 4))

    ids = np.array([[0, 2, 1], [2, 2, 3]])
    case("embedding_lookup", lambda w: (embedding_lookup(w, ids) * 0.5).sum(), _n(4, 3))

    def drop(a):
        rng = np.random.default_rng(7)
        return dropout(a, 0.4, rng).sum()

    case("dropout", drop, a23)

    case(
        "conv1d_valid",
        lambda x, k, b: (conv1d_valid(x, k, b) * 0.5).sum(),
        _n(2, 7, 3), _n(4, 3, 3), _n(4),
    )
    case(
        "transposed_conv1d",
        lambda x, k, b: (transposed_conv1d(x, k, b) * 0.5).sum(),
        _n(2, 5, 4), _n(4, 3, 3), _n(3),
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

    pool_in = _spread_columns(2, 6, 4)
    weights = _n(2, 4)

    def pool(a):
        values, _ = max_pool_time(a)
        return (values * weights).sum()

    case("max_pool_time", pool, pool_in)

    unpool_idx = np.array([[0, 3, 1], [4, 0, 0]])

    def unpool(v):
        return (max_unpool_time(v, unpool_idx, 5) * 0.5).sum()

    case("max_unpool_time", unpool, _n(2, 3))

    return cases
