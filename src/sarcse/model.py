"""Multi-scale convolutional sentence autoencoder.

The encoder convolves a sentence with kernels of width 3, 4, and 5, max-pools
each feature map over positions, stacks the three pooled vectors into a
3 x enc_channels plane, and mixes the plane with a (3 x 2)-kernel 2-d
convolution. The flattened mix is the sentence embedding, of length
mix_channels * (enc_channels - 1). The decoder runs the same pipeline
backwards: transposed 2-d convolution, unpooling at the recorded argmax
positions, transposed 1-d convolutions, and an elementwise mean over scales.

The layout is packed: an evaluation chunk, or both dropout views of a
training batch, is one T x d array holding its S sentences back to back, each
at its effective length n = max(length, 5), in ascending n with ties in batch
order (`pack`).
Sentences shorter than the largest kernel keep their first zero-pad rows.
The 1-d convs and the pooling pair take the per-sentence lengths beside the
rows and give each sentence the BLAS shapes it would have alone, so its bits
never depend on its batch. Pooled vectors, the 2-d mix and the embeddings
have one row per sentence, in packed order.

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
from .corpus import MIN_SENTENCE_LEN, SentenceBatch
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
    """Everything the decoder needs to mirror one encoded packed batch."""

    lengths: np.ndarray                         # S effective token counts fed to the convs
    pool_indices: dict[int, np.ndarray] = field(default_factory=dict)   # S x enc_channels


def encode(x: Tensor, lengths, params: dict[str, Tensor]) -> tuple[Tensor, EncodeState]:
    """Encode packed sentences (T x d rows split by `lengths`, each at least
    the largest kernel width) into S x |z| embeddings, |z| = mix_channels * (enc_channels - 1)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    state = EncodeState(lengths=lengths)
    pooled = []
    for ks in KERNEL_SIZES:
        feature_map = conv1d_valid(x, params[f"enc.k{ks}.kernels"], params[f"enc.k{ks}.bias"], lengths)
        values, indices = max_pool_time(feature_map, lengths - ks + 1)
        state.pool_indices[ks] = indices
        pooled.append(values)
    plane = stack_rows(pooled)                                  # S x 3 x enc_channels
    mixed = conv2d_valid(plane, params["mix.kernels"], params["mix.bias"])
    return mixed.reshape(len(lengths), -1), state


def decode(z: Tensor, state: EncodeState, params: dict[str, Tensor]) -> Tensor:
    """Reconstruct packed T x d token representations from S x |z| embeddings."""
    mix_channels, enc_channels = params["demix.kernels"].shape[0], params["dec.k3.kernels"].shape[0]
    width = mix_channels * (enc_channels - 1)
    if z.shape[1:] != (width,):
        raise ShapeError(f"decode: embeddings of shape {z.shape} do not have the embedding length "
                         f"mix_channels*(enc_channels-1) = {width}")
    planes = z.reshape(z.shape[0], mix_channels, 1, enc_channels - 1)
    restored = transposed_conv2d(planes, params["demix.kernels"], params["demix.bias"])
    scales: Optional[Tensor] = None
    for row, ks in enumerate(KERNEL_SIZES):
        positions = state.lengths - ks + 1
        unpooled = max_unpool_time(restored[:, row], state.pool_indices[ks], positions)
        tokens = transposed_conv1d(unpooled, params[f"dec.k{ks}.kernels"], params[f"dec.k{ks}.bias"], positions)
        scales = tokens if scales is None else scales + tokens
    return scales * (1.0 / len(KERNEL_SIZES))


@dataclass
class Packing:
    """Where each row of a packed batch comes from."""

    order: np.ndarray       # S batch rows by ascending effective length, ties in batch order
    lengths: np.ndarray     # S effective lengths max(length, MIN_SENTENCE_LEN), ascending
    index: tuple[np.ndarray, np.ndarray]    # (batch row, position) of each of the T packed rows


def pack(batch: SentenceBatch) -> Packing:
    """Pack a padded batch: each sentence's first n = max(length, MIN_SENTENCE_LEN) rows, stably sorted by n."""
    eff = np.maximum(batch.lengths, MIN_SENTENCE_LEN)
    order = np.argsort(eff, kind="stable")
    sentence, positions = np.nonzero(np.arange(eff.max()) < eff[order][:, None])
    return Packing(order, eff[order], (order[sentence], positions))


@dataclass
class Views:
    """Both dropout views of a packed batch."""

    inputs: Tensor                  # T x d packed rows of the embedded pair of views
    embeddings: Tensor              # 2B x |z|, in packed order
    recons: Optional[Tensor]        # T x d; None when the decoder is disabled


def forward_pair(
    batch: SentenceBatch,
    table: Tensor,
    params: dict[str, Tensor],
    dropout_rate: float,
    rng: np.random.Generator,
    run_decoder: bool = True,
) -> tuple[Packing, Views]:
    """Run the autoencoder over a batch of B sentences under two independent
    dropout draws, in one pass. The batch is stacked twice (row B + i repeats
    row i) and embedded under one dropout draw over all 2B rows, which is the
    two per-view draws in order; its packing is encoded (and decoded) once.
    Packed sentences with `order < B` form the first view and the rest the
    second, each in the order `pack(batch)` gives."""
    twice = SentenceBatch(*(np.concatenate([a, a]) for a in (batch.ids, batch.mask, batch.lengths)))
    packing = pack(twice)
    x = embed(twice, table, dropout_rate, rng)[packing.index]
    z, state = encode(x, packing.lengths, params)
    return packing, Views(x, z, decode(z, state, params) if run_decoder else None)
