"""Multi-scale convolutional sentence autoencoder.

The encoder convolves a sentence with kernels of width 3, 4, and 5, max-pools
each feature map over positions, stacks the three pooled vectors into a
3 x enc_channels plane, and mixes the plane with a (3 x 2)-kernel 2-d
convolution. The flattened mix is the sentence embedding, of length
mix_channels * (enc_channels - 1). The decoder runs the same pipeline
backwards: transposed 2-d convolution, unpooling at the recorded argmax
positions, transposed 1-d convolutions, and an elementwise mean over scales.

The layout is batch-first. The unit of computation is a length group: the
sentences of a batch that share an effective length n
(`SentenceBatch.length_groups`), stacked as B_g x n x d with no padding
beyond the zero rows of sentences shorter than 5 tokens. Each sentence keeps
the BLAS shapes it would have alone, so its bits never depend on its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    conv1d_valid,
    conv2d_valid,
    max_pool_time,
    max_unpool_time,
    stack_rows,
    transposed_conv1d,
    transposed_conv2d,
)
from .corpus import SentenceBatch
from .embeddings import EmbeddingTable, embed

KERNEL_SIZES = (3, 4, 5)
MIX_KERNEL = (3, 2)     # consumes all three scales per adjacent channel pair


@dataclass
class ModelParams:
    """All convolution parameters, keyed by kernel width where per-scale."""

    embed_dim: int
    enc_channels: int
    mix_channels: int
    enc_kernels: dict[int, Tensor]
    enc_bias: dict[int, Tensor]
    mix_kernels: Tensor
    mix_bias: Tensor
    demix_kernels: Tensor
    demix_bias: Tensor
    dec_kernels: dict[int, Tensor]
    dec_bias: dict[int, Tensor]

    @property
    def embedding_size(self) -> int:
        return self.mix_channels * (self.enc_channels - 1)

    def named(self) -> Iterator[tuple[str, Tensor]]:
        for ks in KERNEL_SIZES:
            yield f"enc.k{ks}.kernels", self.enc_kernels[ks]
            yield f"enc.k{ks}.bias", self.enc_bias[ks]
        yield "mix.kernels", self.mix_kernels
        yield "mix.bias", self.mix_bias
        yield "demix.kernels", self.demix_kernels
        yield "demix.bias", self.demix_bias
        for ks in KERNEL_SIZES:
            yield f"dec.k{ks}.kernels", self.dec_kernels[ks]
            yield f"dec.k{ks}.bias", self.dec_bias[ks]


def build_params(
    embed_dim: int,
    enc_channels: int,
    mix_channels: int,
    tensor: Callable[[str, tuple[int, ...]], Tensor],
) -> ModelParams:
    """ModelParams holding `tensor(name, shape)` for every parameter, by its
    `named` name. Kernels are requested in the order enc, dec, mix, demix,
    which is the draw order of `init_params`."""
    conv = {ks: (enc_channels, ks, embed_dim) for ks in KERNEL_SIZES}
    mix = (mix_channels, *MIX_KERNEL)
    return ModelParams(
        embed_dim=embed_dim,
        enc_channels=enc_channels,
        mix_channels=mix_channels,
        enc_kernels={ks: tensor(f"enc.k{ks}.kernels", conv[ks]) for ks in KERNEL_SIZES},
        enc_bias={ks: tensor(f"enc.k{ks}.bias", (enc_channels,)) for ks in KERNEL_SIZES},
        dec_kernels={ks: tensor(f"dec.k{ks}.kernels", conv[ks]) for ks in KERNEL_SIZES},
        dec_bias={ks: tensor(f"dec.k{ks}.bias", (embed_dim,)) for ks in KERNEL_SIZES},
        mix_kernels=tensor("mix.kernels", mix),
        mix_bias=tensor("mix.bias", (mix_channels,)),
        demix_kernels=tensor("demix.kernels", mix),
        demix_bias=tensor("demix.bias", (1,)),
    )


def init_params(
    embed_dim: int,
    enc_channels: int,
    mix_channels: int,
    rng: np.random.Generator,
    dtype=np.float32,
) -> ModelParams:
    """Uniform fan-in-scaled kernels, zero biases. The fan-in of encoder
    kernels (enc, mix) is one output's window, of decoder kernels (dec, demix)
    their input channels."""
    if enc_channels < 2:
        raise ValueError(f"init_params: enc_channels must be >= 2, got {enc_channels}")
    if mix_channels < 1:
        raise ValueError(f"init_params: mix_channels must be >= 1, got {mix_channels}")

    def draw(name: str, shape: tuple[int, ...]) -> Tensor:
        if name.endswith(".bias"):
            return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        fan_in = shape[0] if name.startswith(("dec.", "demix.")) else int(np.prod(shape[1:]))
        s = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-s, s, size=shape).astype(dtype), requires_grad=True)

    return build_params(embed_dim, enc_channels, mix_channels, draw)


@dataclass
class EncodeState:
    """Everything the decoder needs to mirror one encoded length group."""

    length: int                                 # effective token count fed to the convs
    pool_indices: dict[int, np.ndarray] = field(default_factory=dict)   # B x enc_channels


def encode(x: Tensor, params: ModelParams) -> tuple[Tensor, EncodeState]:
    """Encode B x N x d sentences into B x embedding_size embeddings.

    N must be at least the largest kernel width (batching pads to 5).
    """
    n = x.shape[1]
    if n < max(KERNEL_SIZES):
        raise ShapeError(f"encode: sentence length {n} is below the minimum {max(KERNEL_SIZES)}")
    state = EncodeState(length=n)
    pooled = []
    for ks in KERNEL_SIZES:
        feature_map = conv1d_valid(x, params.enc_kernels[ks], params.enc_bias[ks])
        values, indices = max_pool_time(feature_map)
        state.pool_indices[ks] = indices
        pooled.append(values)
    plane = stack_rows(pooled)                                  # B x 3 x enc_channels
    mixed = conv2d_valid(plane, params.mix_kernels, params.mix_bias)
    return mixed.reshape(x.shape[0], -1), state


def decode(z: Tensor, state: EncodeState, params: ModelParams) -> Tensor:
    """Reconstruct B x N x d token representations from B x embedding_size embeddings."""
    if z.shape[1:] != (params.embedding_size,):
        raise ShapeError(
            f"decode: embeddings of shape {z.shape} do not have the embedding length "
            f"mix_channels*(enc_channels-1) = {params.embedding_size}"
        )
    planes = z.reshape(z.shape[0], params.mix_channels, 1, params.enc_channels - 1)
    restored = transposed_conv2d(planes, params.demix_kernels, params.demix_bias)
    scales: Optional[Tensor] = None
    for row, ks in enumerate(KERNEL_SIZES):
        unpooled = max_unpool_time(
            restored[:, row], state.pool_indices[ks], state.length - ks + 1
        )
        tokens = transposed_conv1d(unpooled, params.dec_kernels[ks], params.dec_bias[ks])
        scales = tokens if scales is None else scales + tokens
    return scales * (1.0 / len(KERNEL_SIZES))


@dataclass
class LengthGroup:
    """One length group of one dropout view."""

    rows: np.ndarray                # the group's rows in the batch, ascending
    inputs: Tensor                  # B_g x n x d slice of the embedded batch
    embeddings: Tensor              # B_g x embedding_size
    recons: Optional[Tensor]        # B_g x n x d; None when the decoder is disabled


def forward_pair(
    batch: SentenceBatch,
    table: EmbeddingTable,
    params: ModelParams,
    dropout_rate: float,
    rng: np.random.Generator,
    run_decoder: bool = True,
) -> tuple[list[LengthGroup], list[LengthGroup]]:
    """Run the autoencoder over a batch under two independent dropout draws.

    Each view embeds the whole padded batch once, then encodes (and decodes)
    it one length group at a time; both views list the groups in the same
    order.
    """
    views = []
    for _ in range(2):
        x_full = embed(batch, table, dropout_rate, rng)
        groups = []
        for rows, n in batch.length_groups():
            x = x_full[rows, :n]
            z, st = encode(x, params)
            groups.append(LengthGroup(rows, x, z, decode(z, st, params) if run_decoder else None))
        views.append(groups)
    return views[0], views[1]
