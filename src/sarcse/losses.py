"""Frequency-weighted reconstruction loss, contrastive InfoNCE, and the
combined objective."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class ZeroNormError(FloatingPointError, ValueError):
    """An embedding has norm zero, so its direction (and cosine) is undefined."""


def token_weights(ids: np.ndarray, freq: np.ndarray, theta: float, lam: float) -> np.ndarray:
    """SAL reconstruction weights max(theta, 1 - lam * freq) of an id array,
    reading each id's corpus frequency: frequent tokens hit the floor theta."""
    return np.maximum(theta, 1.0 - lam * freq[ids])


def reconstruction_loss(
    x: Tensor,
    x_recon: Tensor,
    weights: np.ndarray,
    mask: np.ndarray,
    lengths: np.ndarray,
) -> Tensor:
    """S sentence losses for packed T x d inputs split by `lengths`, with T
    weights and mask entries: each the weighted mean of per-token MSE over
    the sentence's masked-true rows. Per token the MSE averages over the
    embedding width. One graph node."""
    lengths = np.asarray(lengths)
    if x.shape != x_recon.shape or lengths.sum() != x.shape[0]:
        raise ValueError(f"reconstruction_loss: {x.shape} vs {x_recon.shape} rows split by lengths {lengths.tolist()}")
    starts = np.cumsum(lengths) - lengths
    mask = np.asarray(mask, dtype=bool)
    n_real = np.add.reduceat(mask, starts, dtype=np.int64)
    if not n_real.all():
        raise ValueError("reconstruction_loss: mask selects no tokens")
    d = x.shape[1]
    diff = x.data - x_recon.data
    per_token = (diff * diff).sum(axis=1) * (1.0 / d)
    w = np.where(mask, np.asarray(weights, dtype=np.float64), 0.0).astype(x.dtype)
    inv_n = (1.0 / n_real).astype(x.dtype)
    out = np.add.reduceat(per_token * w, starts) * inv_n

    def vjp(g):
        g_recon = (np.repeat(g * inv_n, lengths) * w)[:, None] * diff * (-2.0 / d)
        return -g_recon, g_recon

    return Tensor._from_op(out, (x, x_recon), vjp, "reconstruction_loss")


def info_nce(z: Tensor, z_aug: Tensor, tau: float) -> Tensor:
    """Contrastive loss over in-batch candidates.

    Anchors are the rows of `z`; for anchor i the positive is row i of
    `z_aug` and the candidates are all rows of `z_aug`. Cosine logits are
    scaled by 1/tau and reduced with a max-shifted log-sum-exp, so the value
    is the mean negative log-probability of the positive. One graph node:
    the adjoint of the logits is (softmax - I) * g / b, taken back through
    the scaling and the row normalisation.
    """
    if z.shape != z_aug.shape or z.data.ndim != 2:
        raise ValueError(f"info_nce: expected matching B x k matrices, got {z.shape} and {z_aug.shape}")
    norms = []
    for name, t in (("first view", z), ("second view", z_aug)):
        norm = np.sqrt((t.data * t.data).sum(axis=1, keepdims=True))
        bad = np.nonzero(norm[:, 0] == 0.0)[0]
        if bad.size:
            raise ZeroNormError(f"info_nce: zero-norm embedding at sentence index {int(bad[0])} ({name})")
        norms.append(norm)
    b = z.shape[0]
    zn, zan = z.data / norms[0], z_aug.data / norms[1]
    logits = (zn @ zan.T.copy()) * (1.0 / tau)
    shift = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - shift)
    total = e.sum(axis=1)
    per_row = (np.log(total) + shift[:, 0]) - np.diagonal(logits)
    loss = np.asarray(per_row.sum() * (1.0 / b))

    def vjp(g):
        g_logits = e / total[:, None]
        g_logits[np.diag_indices(b)] -= 1.0
        g_logits *= g * (1.0 / (b * tau))
        return tuple(
            (gu - u * (gu * u).sum(axis=1, keepdims=True)) / norm
            for gu, u, norm in ((g_logits @ zan, zn, norms[0]), (g_logits.T @ zn, zan, norms[1]))
        )

    return Tensor._from_op(loss, (z, z_aug), vjp, "info_nce")


def total_loss(
    l_contrastive: Tensor, l_recon: Tensor, l_recon_aug: Tensor, alpha: float, beta: float, gamma: float
) -> Tensor:
    """alpha * contrastive + beta * reconstruction + gamma * augmented reconstruction."""
    return l_contrastive * alpha + l_recon * beta + l_recon_aug * gamma
