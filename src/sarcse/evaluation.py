"""Evaluation metrics: Spearman correlation, alignment/uniformity of the
embedding space, and grouped similarity densities."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .corpus import ScoredPair, Vocab, make_batch_tokens
from .embeddings import embed
from .losses import ZeroNormError, token_weights
from .model import decode, encode, pack

GROUP_LABELS = ("0-1", "1-2", "2-3", "3-4", "4-5")
POSITIVE_GOLD = 4.0     # a pair with this gold score or more is a positive for `alignment`
ENCODE_CHUNK = 64       # distinct sentences per packed pass of `encode_tokens`


def fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """Average ranks (1-based), ties sharing their mean rank."""
    _, group, counts = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def spearman(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Pearson correlation of fractional ranks; None, as undefined, for fewer
    than 2 observations or a constant input."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"spearman: expected equal-length vectors, got {x.shape} and {y.shape}")
    if len(x) < 2:
        return None
    rx = fractional_ranks(x)
    ry = fractional_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    if denom == 0.0:
        return None
    return float((dx * dy).sum()) / denom


def _normalize(v: np.ndarray, what: str) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ZeroNormError(f"{what}: zero-norm embedding")
    return v / n


def alignment(pos_pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """Mean squared distance between L2-normalized positive-pair embeddings."""
    if not pos_pairs:
        raise ValueError("alignment: no positive pairs")
    total = 0.0
    for a, b in pos_pairs:
        diff = _normalize(np.asarray(a, np.float64), "alignment") - _normalize(np.asarray(b, np.float64), "alignment")
        total += float(diff @ diff)
    return total / len(pos_pairs)


# Rows per GEMM block in `uniformity`: each block holds one BLOCK x m float64
# distance matrix over the m distinct rows, so memory is O(BLOCK * m) and
# never m x m.
UNIFORMITY_BLOCK = 64


def uniformity(embeddings: Sequence[np.ndarray]) -> float:
    """log of the mean Gaussian-kernel value over all unordered distinct pairs.

    Each bitwise-distinct normalized row is kept once with its multiplicity
    c, in first-occurrence order: its c(c-1)/2 pairs with itself have kernel
    value exactly 1. Squared distances between distinct rows come from
    blocked Gram products, |u_i|^2 + |u_j|^2 - 2 u_i.u_j, clamped at 0, and
    each is weighted by c_i c_j.
    """
    n = len(embeddings)
    if n < 2:
        raise ValueError("uniformity: need at least 2 embeddings")
    rows = np.array(embeddings, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    if not norms.all():
        raise ZeroNormError("uniformity: zero-norm embedding")
    rows /= norms[:, None]
    counts = Counter(row.tobytes() for row in rows)
    del rows        # its bytes live on as the keys; free each copy once it is rebuilt
    mult = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    unit = np.frombuffer(b"".join(counts), dtype=np.float64).reshape(len(mult), -1)
    del counts
    m = len(mult)
    sq = np.einsum("ij,ij->i", unit, unit)
    total = float((mult * (mult - 1.0)).sum() * 0.5)
    for start in range(0, m - 1, UNIFORMITY_BLOCK):
        # rows i in [start, stop) against columns j in [start + 1, m)
        stop = min(start + UNIFORMITY_BLOCK, m - 1)
        b = stop - start
        dist = unit[start:stop] @ unit[start + 1:].T
        dist *= -2.0
        dist += sq[start:stop, None]
        dist += sq[None, start + 1:]
        np.maximum(dist, 0.0, out=dist)
        dist[:, :b][np.tril_indices(b, -1)] = np.inf    # j <= i
        dist *= -2.0
        np.exp(dist, out=dist)
        dist *= mult[start:stop, None]
        dist *= mult[None, start + 1:]
        total += float(dist.sum())
    return float(np.log(total / (n * (n - 1) // 2)))


def group_of(score: float) -> str:
    """Rating group of a gold score; 5.0 belongs to the top group."""
    return GROUP_LABELS[min(int(math.floor(score)), len(GROUP_LABELS) - 1)]


def similarity_density(
    gold_scores: Sequence[float],
    predicted: Sequence[float],
) -> dict[str, list[float]]:
    """Partition predicted cosines into the five gold-rating groups."""
    groups: dict[str, list[float]] = {g: [] for g in GROUP_LABELS}
    for score, sim in zip(gold_scores, predicted):
        groups[group_of(score)].append(float(sim))
    return groups


def group_stats(values: Sequence[float]) -> tuple[Optional[float], Optional[float]]:
    """(mean, population variance) by the two-pass formula; None when empty."""
    if not values:
        return None, None
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; bitwise-identical vectors score exactly 1."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine: zero-norm embedding")
    if a.shape == b.shape and np.array_equal(a, b):
        return 1.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


# -- model-driven evaluation -------------------------------------------------


def encode_tokens(
    token_lists: Sequence[list[str]],
    vocab: Vocab,
    table: Tensor,
    params: dict[str, Tensor],
    token_mse: Optional[dict[tuple[str, ...], np.ndarray]] = None,
) -> np.ndarray:
    """Embed tokenized sentences with dropout off; returns an n x |z| matrix.

    Each distinct sentence is computed once, ENCODE_CHUNK distinct sentences
    at a time in one packed pass, so duplicates are bitwise equal.
    Given a dict `token_mse`, the same pass also decodes every distinct
    sentence and stores its per-token reconstruction MSE under its tokens.
    Weights that require grad would have the pass record a graph.
    """
    unique = list(dict.fromkeys(tuple(t) for t in token_lists))
    cache = {}
    for start in range(0, len(unique), ENCODE_CHUNK):
        chunk = unique[start:start + ENCODE_CHUNK]
        batch = make_batch_tokens(chunk, vocab)
        packing = pack(batch)
        x = embed(batch, table, 0.0, None)[packing.index]
        z, argmaxes = encode(x, packing.lengths, params)
        sentences = [chunk[i] for i in packing.order]
        cache.update(zip(sentences, z.data))
        if token_mse is not None:
            diff = x.data - decode(z, packing.lengths, argmaxes, params).data
            mse = (diff * diff).mean(axis=1)
            token_mse.update(zip(sentences, np.split(mse, np.cumsum(packing.lengths)[:-1])))
    return np.stack([cache[tuple(t)] for t in token_lists])


@dataclass
class EvalReport:
    """Composite metric report over one scored-pair dataset."""

    spearman_rho: Optional[float]
    alignment: Optional[float]
    uniformity: Optional[float]
    group_histograms: dict[str, list[float]] = field(default_factory=dict)
    pair_count: int = 0

    def metric_rows(self) -> list[tuple[str, str]]:
        rows = [
            ("spearman_rho", "undefined" if self.spearman_rho is None else repr(self.spearman_rho)),
            ("alignment", "n/a" if self.alignment is None else repr(self.alignment)),
            ("uniformity", "n/a" if self.uniformity is None else repr(self.uniformity)),
            ("pair_count", str(self.pair_count)),
        ]
        for label in GROUP_LABELS:
            values = self.group_histograms.get(label, [])
            mean, var = group_stats(values)
            rows.append((f"group_{label}_count", str(len(values))))
            rows.append((f"group_{label}_mean", "n/a" if mean is None else repr(mean)))
            rows.append((f"group_{label}_variance", "n/a" if var is None else repr(var)))
        return rows


def evaluate_pairs(
    pairs: Sequence[ScoredPair],
    vocab: Vocab,
    table: Tensor,
    params: dict[str, Tensor],
    token_mse: Optional[dict[tuple[str, ...], np.ndarray]] = None,
) -> EvalReport:
    """Embed both sides of every pair (no dropout) and compute all metrics.

    A dict `token_mse` is filled as by `encode_tokens`, in the same pass,
    for `token_report`.
    """
    if not pairs:
        return EvalReport(None, None, None, {g: [] for g in GROUP_LABELS}, 0)
    all_tokens = [p.sentence_a for p in pairs] + [p.sentence_b for p in pairs]
    embs = encode_tokens(all_tokens, vocab, table, params, token_mse=token_mse)
    emb_a, emb_b = embs[: len(pairs)], embs[len(pairs):]

    predicted = [cosine(emb_a[i], emb_b[i]) for i in range(len(pairs))]
    gold = [p.gold_score for p in pairs]

    positives = [(emb_a[i], emb_b[i]) for i in range(len(pairs)) if gold[i] >= POSITIVE_GOLD]
    align = alignment(positives) if positives else None
    uniform = uniformity(embs) if len(embs) >= 2 else None
    return EvalReport(
        spearman_rho=spearman(gold, predicted),
        alignment=align,
        uniformity=uniform,
        group_histograms=similarity_density(gold, predicted),
        pair_count=len(pairs),
    )


def token_report(
    pairs: Sequence[ScoredPair],
    vocab: Vocab,
    freq: np.ndarray,
    token_mse: dict[tuple[str, ...], np.ndarray],
    theta: float,
    lam: float,
) -> list[tuple[int, str, int, str, float, float]]:
    """Per-token reconstruction MSE rows: (pair, side, position, token, mse, weight).

    Lower loss marks the tokens the embedding preserves best. `token_mse`
    holds each sentence's per-token MSE, as `encode_tokens` (or
    `evaluate_pairs`) fills it.
    """
    rows = []
    for pi, pair in enumerate(pairs):
        for side, toks in (("a", pair.sentence_a), ("b", pair.sentence_b)):
            weights = token_weights(np.asarray(vocab.encode(toks)), freq, theta, lam)
            mse = token_mse[tuple(toks)]
            for pos, tok in enumerate(toks):
                rows.append((pi, side, pos, tok, float(mse[pos]), float(weights[pos])))
    return rows


def write_metrics_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for name, value in report.metric_rows():
            fh.write(f"{name},{value}\n")


def write_density_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("group,cosine\n")
        for label in GROUP_LABELS:
            for sim in report.group_histograms.get(label, []):
                fh.write(f"{label},{sim!r}\n")


def write_summary(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        rho = "undefined" if report.spearman_rho is None else f"{report.spearman_rho:.6f}"
        align = "n/a" if report.alignment is None else f"{report.alignment:.6f}"
        uni = "n/a" if report.uniformity is None else f"{report.uniformity:.6f}"
        fh.write(f"pairs evaluated: {report.pair_count}\n")
        fh.write(f"spearman rho:    {rho}\n")
        fh.write(f"alignment:       {align}\n")
        fh.write(f"uniformity:      {uni}\n")
        fh.write("similarity by gold-rating group (count / mean / variance):\n")
        for label in GROUP_LABELS:
            values = report.group_histograms.get(label, [])
            mean, var = group_stats(values)
            mean_s = "n/a" if mean is None else f"{mean:.6f}"
            var_s = "n/a" if var is None else f"{var:.6f}"
            fh.write(f"  {label}: {len(values)} / {mean_s} / {var_s}\n")
