"""Brute-force reference implementations used to freeze expected values.

These deliberately avoid the library's code paths: ranks are computed by
counting rather than sorting, reductions use math.fsum, the autoencoder
runs one sentence at a time on raw arrays, gradients are checked against
central finite differences, and SAL weights are computed one token at a
time.
"""

import math
from typing import Callable, Iterable

import numpy as np

from sarcse.autodiff import Tensor, backward


def oracle_rank(values):
    """Fractional rank by counting: less + (equal + 1) / 2."""
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2)
    return ranks


def oracle_pearson(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.fsum((a - mx) ** 2 for a in x)
    vy = math.fsum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def oracle_spearman(x, y):
    return oracle_pearson(oracle_rank(x), oracle_rank(y))


def oracle_variance(values):
    n = len(values)
    mean = math.fsum(values) / n
    return math.fsum((v - mean) ** 2 for v in values) / n


# -- per-sentence autoencoder ---------------------------------------------------
#
# The model's forward pass one sentence at a time, as it ran before the batch
# axis existed: 2-d im2col convolution, max-pool, mix, demix, unpool and
# transposed convolution in plain numpy. Batched `encode`/`decode` must match
# it per sentence within a float64 tolerance.


def oracle_encode(x, params, kernel_sizes):
    """N x d sentence -> (embedding vector, {ks: argmax positions})."""
    n, d = x.shape
    pooled, indices = [], {}
    for ks in kernel_sizes:
        k = params[f"enc.k{ks}.kernels"].data
        win = np.concatenate([x[j:n - ks + 1 + j] for j in range(ks)], axis=1)
        fm = win @ k.reshape(k.shape[0], -1).T + params[f"enc.k{ks}.bias"].data
        indices[ks] = fm.argmax(axis=0)
        pooled.append(fm.max(axis=0))
    plane = np.stack(pooled)
    mk = params["mix.kernels"].data
    m, kh, kw = mk.shape
    rr, cc = plane.shape[0] - kh + 1, plane.shape[1] - kw + 1
    mixed = np.zeros((m, rr, cc)) + params["mix.bias"].data[:, None, None]
    for a in range(kh):
        for b in range(kw):
            mixed += mk[:, a, b][:, None, None] * plane[a:a + rr, b:b + cc]
    return mixed.reshape(-1), indices


def oracle_decode(z, indices, n, params, kernel_sizes):
    """Embedding vector -> N x d reconstruction, unpooling at `indices`."""
    dk = params["demix.kernels"].data
    m, kh, kw = dk.shape
    planes = z.reshape(m, 1, -1)
    rr, cc = planes.shape[1:]
    restored = np.full((rr + kh - 1, cc + kw - 1), float(params["demix.bias"].data[0]))
    for a in range(kh):
        for b in range(kw):
            restored[a:a + rr, b:b + cc] += np.einsum("o,orc->rc", dk[:, a, b], planes)
    c = restored.shape[1]
    total = 0.0
    for row, ks in enumerate(kernel_sizes):
        p = n - ks + 1
        unpooled = np.zeros((p, c))
        unpooled[indices[ks], np.arange(c)] = restored[row]
        k = params[f"dec.k{ks}.kernels"].data
        tokens = np.tile(params[f"dec.k{ks}.bias"].data, (n, 1))
        for j in range(ks):
            tokens[j:j + p] += unpooled @ k[:, j, :]
        total = total + tokens
    return total * (1.0 / len(kernel_sizes))


# -- uniformity -----------------------------------------------------------------


def oracle_uniformity(embeddings):
    """log of the mean Gaussian kernel exp(-2 |u_i - u_j|^2) over all unordered
    pairs of L2-normalized rows, one row against all later rows at a time."""
    rows = [np.asarray(e, np.float64) for e in embeddings]
    unit = np.stack([r / np.linalg.norm(r) for r in rows])
    total = 0.0
    count = 0
    for i in range(len(unit) - 1):
        diff = unit[i + 1:] - unit[i]          # exact zeros for identical embeddings
        sq_dist = (diff * diff).sum(axis=1)
        total += float(np.exp(-2.0 * sq_dist).sum())
        count += diff.shape[0]
    return float(np.log(total / count))


# -- gradients and SAL weights ----------------------------------------------------


def grad_check(
    f: Callable[..., Tensor],
    arrays: Iterable[np.ndarray],
    eps: float = 1e-5,
) -> float:
    """Compare analytic gradients of `f` against central finite differences.

    `f` maps one tensor per input array to a scalar tensor and is re-evaluated
    with perturbed copies, so it must be deterministic. Inputs are promoted to
    float64. Returns max |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    grads = backward(f(*leaves))
    analytic = [grads.wrt(t) for t in leaves]

    def value() -> float:
        return float(f(*[Tensor(a) for a in arrays]).data)

    worst = 0.0
    for ai, arr in enumerate(arrays):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            f_plus = value()
            arr[idx] = orig - eps
            f_minus = value()
            arr[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            exact = float(analytic[ai][idx])
            err = abs(exact - numeric) / max(1.0, abs(exact), abs(numeric))
            worst = max(worst, err)
    return worst


def token_weight(freq: float, theta: float, lam: float) -> float:
    """Reconstruction weight max(theta, 1 - lam * freq); frequent tokens hit the floor."""
    return max(theta, 1.0 - lam * freq)
