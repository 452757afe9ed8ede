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

The parameters are one dict from checkpoint name (`enc.k3.kernels`,
`mix.bias`, ...) to Tensor, laid out by `param_shapes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
from .embeddings import embed

KERNEL_SIZES = (3, 4, 5)
MIX_KERNEL = (3, 2)     # consumes all three scales per adjacent channel pair


def param_shapes(embed_dim: int, enc_channels: int, mix_channels: int) -> dict[str, tuple[int, ...]]:
    """Shape of every model parameter under its checkpoint name. Kernels come
    in the order enc, dec, mix, demix, which is the draw order of `init_params`."""
    shapes = {}
    for part, bias in (("enc", enc_channels), ("dec", embed_dim)):
        for ks in KERNEL_SIZES:
            shapes[f"{part}.k{ks}.kernels"] = (enc_channels, ks, embed_dim)
            shapes[f"{part}.k{ks}.bias"] = (bias,)
    for part, bias in (("mix", mix_channels), ("demix", 1)):
        shapes[f"{part}.kernels"] = (mix_channels, *MIX_KERNEL)
        shapes[f"{part}.bias"] = (bias,)
    return shapes


def init_params(
    embed_dim: int,
    enc_channels: int,
    mix_channels: int,
    rng: np.random.Generator,
    dtype=np.float32,
) -> dict[str, Tensor]:
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

    shapes = param_shapes(embed_dim, enc_channels, mix_channels)
    return {name: draw(name, shape) for name, shape in shapes.items()}


@dataclass
class EncodeState:
    """Everything the decoder needs to mirror one encoded length group."""

    length: int                                 # effective token count fed to the convs
    pool_indices: dict[int, np.ndarray] = field(default_factory=dict)   # B x enc_channels


def encode(x: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, EncodeState]:
    """Encode B x N x d sentences into B x |z| embeddings, |z| = mix_channels * (enc_channels - 1).

    N must be at least the largest kernel width (batching pads to 5).
    """
    n = x.shape[1]
    if n < max(KERNEL_SIZES):
        raise ShapeError(f"encode: sentence length {n} is below the minimum {max(KERNEL_SIZES)}")
    state = EncodeState(length=n)
    pooled = []
    for ks in KERNEL_SIZES:
        feature_map = conv1d_valid(x, params[f"enc.k{ks}.kernels"], params[f"enc.k{ks}.bias"])
        values, indices = max_pool_time(feature_map)
        state.pool_indices[ks] = indices
        pooled.append(values)
    plane = stack_rows(pooled)                                  # B x 3 x enc_channels
    mixed = conv2d_valid(plane, params["mix.kernels"], params["mix.bias"])
    return mixed.reshape(x.shape[0], -1), state


def decode(z: Tensor, state: EncodeState, params: dict[str, Tensor]) -> Tensor:
    """Reconstruct B x N x d token representations from B x |z| embeddings."""
    mix_channels, enc_channels = params["demix.kernels"].shape[0], params["dec.k3.kernels"].shape[0]
    width = mix_channels * (enc_channels - 1)
    if z.shape[1:] != (width,):
        raise ShapeError(
            f"decode: embeddings of shape {z.shape} do not have the embedding length "
            f"mix_channels*(enc_channels-1) = {width}"
        )
    planes = z.reshape(z.shape[0], mix_channels, 1, enc_channels - 1)
    restored = transposed_conv2d(planes, params["demix.kernels"], params["demix.bias"])
    scales: Optional[Tensor] = None
    for row, ks in enumerate(KERNEL_SIZES):
        unpooled = max_unpool_time(
            restored[:, row], state.pool_indices[ks], state.length - ks + 1
        )
        tokens = transposed_conv1d(unpooled, params[f"dec.k{ks}.kernels"], params[f"dec.k{ks}.bias"])
        scales = tokens if scales is None else scales + tokens
    return scales * (1.0 / len(KERNEL_SIZES))


@dataclass
class LengthGroup:
    """One length group of one dropout view."""

    rows: np.ndarray                # the group's rows in the batch, ascending
    inputs: Tensor                  # B_g x n x d slice of the embedded batch
    embeddings: Tensor              # B_g x |z|
    recons: Optional[Tensor]        # B_g x n x d; None when the decoder is disabled


def forward_pair(
    batch: SentenceBatch,
    table: Tensor,
    params: dict[str, Tensor],
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
