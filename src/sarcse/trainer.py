"""AdamW training loop with seeded shuffling, dev-set model selection, and
checkpoint snapshots."""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import InitVar, asdict, dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .autodiff import GradientMap, Tensor, backward
from .checkpoint import Checkpoint, pack_model
from .corpus import PAD_ID, ScoredPair, SentenceBatch, Vocab, make_batch
from .embeddings import init_table
from .evaluation import cosine, encode_tokens, spearman
from .losses import info_nce, reconstruction_loss, token_weights, total_loss
from .model import forward_pair, init_params


@dataclass
class TrainConfig:
    """Model dimensions, optimization settings, and the objective.

    theta is the floor of the per-token reconstruction weight, lam the slope
    of the frequency penalty, tau the InfoNCE temperature, and alpha / beta /
    gamma the mixing weights of the contrastive term and the two
    reconstruction terms. The paper's ablations are points of these values:
    theta = 1 weights every token 1 (no SAL), and beta = gamma = 0 skips the
    decoder (contrastive training alone). The optimizer is AdamW at its
    fixed coefficients. The field order is the order of the
    checkpoint header's config.
    """

    embed_dim: int = 32
    enc_channels: int = 64
    mix_channels: int = 3
    init_scale: float = 0.1
    pretrained_path: str = ""
    batch_size: int = 64
    max_steps: int = 0          # 0 = one pass over the corpus
    seed: int = 0
    eval_every: int = 50
    dropout: float = 0.1
    lr: float = 1e-3            # desk-scale default; 1e-5 suits fine-tuning regimes
    theta: float = 0.1
    lam: float = 50.0
    tau: float = 0.05
    alpha: float = 1.0
    beta: float = 2.5e-4
    gamma: float = 2.5e-4

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.enc_channels < 2:
            raise ValueError(f"enc_channels must be >= 2 (the mix kernel spans 2 channels), got {self.enc_channels}")
        if self.mix_channels < 1:
            raise ValueError(f"mix_channels must be >= 1, got {self.mix_channels}")
        if not self.init_scale >= 0.0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not min(self.alpha, self.beta, self.gamma) >= 0.0:
            raise ValueError("alpha, beta, gamma must be >= 0")

    def to_flat(self) -> dict:
        """The fields as a dict, in declaration order."""
        return asdict(self)


@dataclass
class AdamW:
    """Decoupled-weight-decay Adam over named parameter tensors of one dtype,
    at fixed coefficients; only the learning rate is a setting. Construction
    makes their `data` views of one flat buffer, beside flat moments."""

    BLOCK = 1 << 16     # elements updated per pass: five float32 blocks stay in a 2 MiB L2
    BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01
    named_params: InitVar[Sequence[tuple[str, Tensor]]]
    lr: float = 1e-3

    def __post_init__(self, named_params: Sequence[tuple[str, Tensor]]) -> None:
        self.step_count = 0
        self._names, self._params = zip(*named_params)
        self._bounds = np.cumsum([0] + [p.size for p in self._params])
        self._flat = np.concatenate([p.data.reshape(-1) for p in self._params], dtype=self._params[0].dtype, casting="no")
        for param, a, b in zip(self._params, self._bounds, self._bounds[1:]):
            param.data = self._flat[a:b].reshape(param.shape)
        self.m, self.v, self._g = (np.zeros_like(self._flat) for _ in range(3))
        self._tmp = np.zeros(min(self.BLOCK, self._flat.size), dtype=self._flat.dtype)    # one block's scratch

    def step(self, grads: GradientMap) -> None:
        """One bias-corrected update with the decay applied to the parameters, not
        the gradients; per element the arithmetic of a loop over the parameters.
        A gradient of another dtype, or a non-finite one, moves no parameter."""
        np.concatenate([grads.wrt(p).reshape(-1) for p in self._params], out=self._g, casting="no")
        if not np.isfinite(self._g).all():
            bad = np.searchsorted(self._bounds, np.flatnonzero(~np.isfinite(self._g))[0], side="right") - 1
            raise FloatingPointError(f"adamw: non-finite gradient for parameter {self._names[bad]!r}")
        self.step_count += 1
        c1, c2 = 1.0 - self.BETA1 ** self.step_count, 1.0 - self.BETA2 ** self.step_count
        for a in range(0, self._flat.size, self.BLOCK):
            g, m, v, p = (buf[a:a + self.BLOCK] for buf in (self._g, self.m, self.v, self._flat))
            tmp = self._tmp[:g.size]
            m *= self.BETA1
            m += np.multiply(g, 1.0 - self.BETA1, out=tmp)
            v *= self.BETA2
            v += np.multiply(np.multiply(g, g, out=tmp), 1.0 - self.BETA2, out=tmp)
            m_hat, v_hat = np.divide(m, c1, out=g), np.divide(v, c2, out=tmp)
            m_hat *= self.lr
            m_hat /= np.add(np.sqrt(v_hat, out=v_hat), self.EPS, out=v_hat)    # lr * m_hat / (sqrt(v_hat) + eps)
            p -= np.multiply(p, self.lr * self.WEIGHT_DECAY, out=tmp)
            p -= m_hat


@dataclass
class LogRow:
    step: int
    infonce: float
    recon: float
    recon_aug: float
    total: float
    token_weight_mean: float
    dev_spearman: Optional[float] = None

    CSV_HEADER = "step,infonce,recon,recon_aug,total,token_weight_mean,dev_spearman"

    def to_csv(self) -> str:
        dev = "" if self.dev_spearman is None else repr(self.dev_spearman)
        return (
            f"{self.step},{self.infonce!r},{self.recon!r},{self.recon_aug!r},"
            f"{self.total!r},{self.token_weight_mean!r},{dev}"
        )


@dataclass
class TrainResult:
    best: Checkpoint
    last: Checkpoint
    log_rows: list[LogRow]


def dev_spearman(
    pairs: Sequence[ScoredPair],
    vocab: Vocab,
    table: Tensor,
    params: dict[str, Tensor],
) -> Optional[float]:
    """Spearman of predicted vs gold similarity; None when undefined."""
    all_tokens = [p.sentence_a for p in pairs] + [p.sentence_b for p in pairs]
    embs = encode_tokens(all_tokens, vocab, table, params)
    predicted = [cosine(embs[i], embs[len(pairs) + i]) for i in range(len(pairs))]
    return spearman([p.gold_score for p in pairs], predicted)


def check_dev_pairs(pairs: Sequence[ScoredPair]) -> None:
    """Refuse a dev set on which Spearman is undefined."""
    if len(pairs) < 2 or len({p.gold_score for p in pairs}) < 2:
        raise ValueError("dev set needs >= 2 pairs with non-constant gold scores (Spearman undefined)")


def _snapshot(
    cfg: TrainConfig,
    vocab: Vocab,
    freq: np.ndarray,
    table: Tensor,
    params: dict[str, Tensor],
    step: int,
    best_dev: Optional[float],
) -> Checkpoint:
    return Checkpoint(
        config=cfg.to_flat(),
        vocab=vocab,
        freq=freq,
        tensors={k: v.copy() for k, v in pack_model(table, params).items()},
        step=step,
        best_dev=best_dev,
    )


def objective(
    cfg: TrainConfig,
    batch: SentenceBatch,
    table: Tensor,
    params: dict[str, Tensor],
    freq: np.ndarray,
    rng: np.random.Generator,
) -> tuple[Tensor, LogRow]:
    """Loss of one batch and its log row (step 0): InfoNCE over two dropout
    views plus each view's SAL-weighted reconstruction loss averaged over
    sentences; the decoder runs only when beta or gamma is positive, and
    both reconstruction terms are exact zeros otherwise. Both views are one
    packed pass, and each view's sentences enter both terms in the packed
    order of the batch."""
    run_decoder = cfg.beta > 0.0 or cfg.gamma > 0.0
    packing, x, z, recons = forward_pair(batch, table, params, cfg.dropout, rng, run_decoder=run_decoder)
    b = len(batch.lengths)
    first, second = packing.order < b, packing.order >= b
    l_info = info_nce(z[first], z[second], cfg.tau)
    l_recon = l_recon_aug = Tensor(np.zeros((), dtype=l_info.dtype))
    weight_mean = 1.0
    if run_decoder:
        w = token_weights(batch.ids, freq, cfg.theta, cfg.lam)
        mask = np.arange(batch.ids.shape[1]) < batch.lengths[:, None]     # real tokens, not PAD
        weight_mean = float(w[mask].mean())
        rows, positions = packing.index
        at = (rows % b, positions)      # packed rows of either view, in the batch
        losses = reconstruction_loss(x, recons, w[at], mask[at], packing.lengths)
        l_recon, l_recon_aug = losses[first].mean(), losses[second].mean()

    loss = total_loss(l_info, l_recon, l_recon_aug, cfg.alpha, cfg.beta, cfg.gamma)
    row = LogRow(
        step=0,
        infonce=float(l_info.data),
        recon=float(l_recon.data),
        recon_aug=float(l_recon_aug.data),
        total=float(loss.data),
        token_weight_mean=weight_mean,
    )
    return loss, row


def init_model(
    cfg: TrainConfig,
    vocab: Vocab,
    pretrained: Mapping[int, np.ndarray] = {},
) -> tuple[np.random.Generator, Tensor, dict[str, Tensor]]:
    """The initial model of `cfg`: its seeded generator, then the embedding
    table, overlaid with the `pretrained` vectors by token id, and the model
    parameters drawn from it in that order. The returned generator goes on to
    draw `train`'s shuffles and dropout masks."""
    rng = np.random.default_rng(cfg.seed)
    table = init_table(vocab, cfg.embed_dim, cfg.init_scale, rng, pretrained)
    params = init_params(cfg.embed_dim, cfg.enc_channels, cfg.mix_channels, rng)
    return rng, table, params


def train(
    cfg: TrainConfig,
    sentences: Sequence[str],
    dev_pairs: Sequence[ScoredPair],
    vocab: Vocab,
    freq: np.ndarray,
    pretrained: Mapping[int, np.ndarray] = {},
    on_log: Optional[Callable[[LogRow], None]] = None,
) -> TrainResult:
    """Optimize `objective` over shuffled batches, from `init_model(cfg,
    vocab, pretrained)`.

    Each pass over the corpus draws a new permutation. Every `eval_every`
    steps, and after the last step if it is off that cadence, the dev
    Spearman is computed with dropout off, and the best-scoring parameters
    are retained.
    Bitwise-reproducible for a fixed seed and BLAS thread count.
    """
    if not sentences:
        raise ValueError("train: empty corpus")
    check_dev_pairs(dev_pairs)
    with contextlib.suppress(AttributeError, OSError, TypeError):     # glibc only, else the defaults
        ctypes.CDLL(None).mallopt(-2, 64 << 20)     # M_TOP_PAD: keep 64 MiB of freed heap mapped for the next step

    rng, table, params = init_model(cfg, vocab, pretrained)
    opt = AdamW([("embedding.weights", table), *params.items()], lr=cfg.lr)
    per_pass = math.ceil(len(sentences) / cfg.batch_size)
    budget = cfg.max_steps or per_pass

    log_rows: list[LogRow] = []
    best: Optional[Checkpoint] = None
    best_dev: Optional[float] = None

    def evaluate(step: int) -> Optional[float]:
        nonlocal best, best_dev
        frozen = {name: Tensor(p.data) for name, p in params.items()}     # the same weights outside the graph
        rho = dev_spearman(dev_pairs, vocab, Tensor(table.data), frozen)
        if rho is not None and (best_dev is None or rho > best_dev):
            best_dev = rho
            best = _snapshot(cfg, vocab, freq, table, params, step, best_dev)
        return rho

    for step in range(1, budget + 1):
        start = ((step - 1) % per_pass) * cfg.batch_size
        if start == 0:
            order = rng.permutation(len(sentences))
        chosen = [sentences[i] for i in order[start:start + cfg.batch_size]]
        loss, row = objective(cfg, make_batch(chosen, vocab), table, params, freq, rng)
        opt.step(backward(loss))
        table.data[PAD_ID] = 0.0     # AdamW moves it like any row; PAD embeds as zeros
        del loss        # free this step's graph before the next one is built

        row.step = step
        if cfg.eval_every > 0 and step % cfg.eval_every == 0:
            row.dev_spearman = evaluate(step)
        log_rows.append(row)
        if on_log is not None:
            on_log(row)

    if cfg.eval_every == 0 or budget % cfg.eval_every:     # the last step was off cadence
        row.dev_spearman = evaluate(budget)

    last = _snapshot(cfg, vocab, freq, table, params, budget, best_dev)
    return TrainResult(best=last if best is None else best, last=last, log_rows=log_rows)


def write_log(rows: Sequence[LogRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LogRow.CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv() + "\n")
