"""Minimal reverse-mode automatic differentiation on numpy arrays.

Tensors are eager: the forward value is computed on construction. A Tensor
that requires grad also holds a graph node: its parents' nodes and a closure
that maps the output adjoint to the input adjoints. Nodes hold no values, so
a graph keeps only the arrays its VJPs read: conv1d_valid its im2col
windows, a transposed conv its input, pooling its argmax indices. `backward`
walks the nodes once in reverse topological order and returns a
`GradientMap` keyed by node id. Training runs in float32, gradient
checks in float64; a graph node has its first operand's dtype. The 1-d conv
and pooling primitives take ragged batches packed back to back: T x c rows
plus the per-sentence lengths that split them.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

_node_ids = itertools.count()
_FIRST_HIT_MIN = 4096     # max_pool_time runs of fewer entries take argmax, which is cheaper there


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to a primitive."""


class _Node:
    """A graph node: its parents' nodes, in operand order, and the VJP from its
    output adjoint to theirs. It holds no value, so an op output that no VJP
    captures dies with its Tensor. A leaf has no parents and no VJP."""

    __slots__ = ("node_id", "requires_grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, parents: tuple = (), vjp=None, requires_grad: bool = True):
        self.node_id = next(_node_ids)
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp


_CONSTANT = _Node(requires_grad=False)     # the place of an operand that needs no grad


class Tensor:
    """An n-dimensional real array and, if it requires grad, its graph node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float32)
        self._node = _Node() if requires_grad else None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"], vjp, op: str) -> "Tensor":
        """The output of primitive `op`. In a graph, the output and every parent
        that requires grad have the first parent's dtype: no op promotes."""
        out = cls.__new__(cls)
        out.data = data
        out._node = None
        graded = [p.data.dtype for p in parents if p._node is not None]
        if graded:
            first = parents[0].data.dtype
            for dtype in (*graded, data.dtype):
                if dtype != first:
                    raise TypeError(f"{op}: operand dtypes {first} and {dtype} differ")
            out._node = _Node(tuple(p._node or _CONSTANT for p in parents), vjp)
        return out

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def node_id(self) -> Optional[int]:
        return None if self._node is None else self._node.node_id

    @property
    def _parents(self) -> tuple[_Node, ...]:
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self) -> Optional[Callable[[np.ndarray], tuple]]:
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, vjp) -> None:
        self._node._vjp = vjp

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    # -- elementwise arithmetic -----------------------------------------

    def _operand(self, op: str, other):
        """`other` as a scalar (np.ndim 0, not a Tensor) or a Tensor of this shape:
        no broadcasting, and a constant of another dtype is cast to this one."""
        if not isinstance(other, Tensor):
            if np.ndim(other) == 0:
                return self.dtype.type(other)
            other = Tensor(np.asarray(other).astype(self.dtype, copy=False))
        if other.shape != self.shape:
            raise ShapeError(f"{op}: operand shapes {self.shape} and {other.shape} differ")
        if other.dtype != self.dtype and not other.requires_grad:
            other = Tensor(other.data.astype(self.dtype))
        return other

    def __add__(self, other) -> "Tensor":
        other = self._operand("add", other)
        if not isinstance(other, Tensor):
            return Tensor._from_op(self.data + other, (self,), lambda g: (g,), "add")
        return Tensor._from_op(self.data + other.data, (self, other), lambda g: (g, g), "add")

    def __mul__(self, other) -> "Tensor":
        other = self._operand("multiply", other)
        if not isinstance(other, Tensor):
            return Tensor._from_op(self.data * other, (self,), lambda g: (g * other,), "multiply")
        a, b = self.data, other.data
        return Tensor._from_op(a * b, (self, other), lambda g: (g * b, g * a), "multiply")

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        orig = self.data.shape
        try:
            data = self.data.reshape(shape)
        except ValueError as exc:
            raise ShapeError(f"reshape: cannot view {orig} as {shape}") from exc
        return Tensor._from_op(data, (self,), lambda g: (g.reshape(orig),), "reshape")

    def __getitem__(self, key) -> "Tensor":
        """Basic or advanced indexing that selects each entry at most once
        (ints, slices, arrays of distinct indices), so the adjoint is a scatter."""
        parent_shape = self.data.shape

        def vjp(g):
            full = np.zeros(parent_shape, dtype=g.dtype)
            full[key] = g
            return (full,)

        return Tensor._from_op(self.data[key], (self,), vjp, "getitem")

    # -- reductions -------------------------------------------------------

    def sum(self) -> "Tensor":
        shape = self.data.shape
        return Tensor._from_op(np.asarray(self.data.sum()), (self,), lambda g: (np.broadcast_to(g, shape),), "sum")

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

# -- module-level ops ------------------------------------------------------


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    """Stack k tensors of shape B x c into one B x k x c tensor."""
    vectors = list(vectors)
    data = np.stack([v.data for v in vectors], axis=1)
    return Tensor._from_op(data, vectors, lambda g: tuple(np.moveaxis(g, 1, 0)), "stack_rows")


def dropout(t: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout: zero entries with probability `rate`, scale by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return t
    keep = rng.random(t.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    factor = keep.astype(t.dtype) * t.dtype.type(scale)
    return Tensor._from_op(t.data * factor, (t,), lambda g: (g * factor,), "dropout")


def embedding_lookup(weights: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a V x d table by an integer id array."""
    ids = np.asarray(ids)
    if ids.size and ids.max() >= weights.shape[0]:
        raise IndexError(
            f"embedding_lookup: id {int(ids.max())} out of range for table of {weights.shape[0]} rows"
        )
    w = weights.data

    def vjp(g):     # each id's rows summed by one reduceat over the ids, stably sorted
        order = np.argsort(ids, axis=None, kind="stable")
        rows, firsts = np.unique(ids.reshape(-1)[order], return_index=True)
        gw = np.zeros_like(w)
        gw[rows] = np.add.reduceat(g.reshape(-1, w.shape[1])[order], firsts)
        return (gw,)

    return Tensor._from_op(w[ids], (weights,), vjp, "embedding_lookup")


# -- convolution / pooling --------------------------------------------------
#
# The 1-d convs and the pooling pair take ragged batches packed back to back:
# T x c rows plus the per-sentence `lengths` that split them. Each run of
# equal consecutive lengths gets one np.matmul over a (count, n, K) stack,
# one BLAS call per sentence, so a sentence's bits never depend on its
# batch-mates (BLAS rounds a row differently as n changes). Gradients carry
# no bitwise guarantee, so a 1-d VJP makes one GEMM per adjoint over all the
# windows its forward gathered. The 2-d pair takes a leading batch axis.
#
# The ops come in adjoint pairs (conv1d_valid and transposed_conv1d, the 2-d
# pair, max_pool_time and max_unpool_time): a VJP's input adjoint is its
# partner's forward on the output adjoint, zero bias (inlined in 1-d), and
# its kernel gradient is the partner's with input and adjoint swapped.


def _partner(op, g: np.ndarray, kernels: np.ndarray, n_bias: int) -> np.ndarray:
    """Input adjoint of a 2-d conv: the partner `op` run forward on `g`, zero bias, no graph."""
    return op(Tensor(g), Tensor(kernels), Tensor(np.zeros(n_bias, dtype=g.dtype))).data


@functools.lru_cache(maxsize=64)
def _layout(key: bytes, ks: int):
    """Cached, read-only index arrays of packed sentences of int64 lengths
    `key` (None if one is below 1): their total, runs of equal lengths as
    (first sentence, count, length, first row), first rows, and each row's
    ks-row window once ks-1 rows follow every sentence."""
    lengths = np.frombuffer(key, dtype=np.int64)
    if lengths.size and lengths.min() < 1:
        return None
    bounds = np.flatnonzero(np.diff(lengths, prepend=-1, append=-1)).tolist()
    starts = np.cumsum(lengths) - lengths
    runs = tuple((a, b - a, int(lengths[a]), int(starts[a])) for a, b in zip(bounds, bounds[1:]))
    spread = np.arange(lengths.sum()) + np.repeat(np.arange(len(lengths)) * (ks - 1), lengths)
    windows = spread[:, None] + np.arange(ks)
    starts.flags.writeable = windows.flags.writeable = False
    return int(lengths.sum()), runs, starts, windows


def _packed(name: str, rows: int, lengths, ks: int = 1, wide: bool = False):
    """`_layout` of 1-d `lengths` that split `rows` packed rows; with `wide`
    they count the wide side of a width-ks kernel, ks-1 rows more each."""
    lengths = np.asarray(lengths, dtype=np.int64)
    shift = ks - 1 if wide else 0
    layout = _layout((lengths - shift).tobytes(), ks) if lengths.ndim == 1 else None
    if layout is None or layout[0] + shift * len(lengths) != rows:
        raise ShapeError(f"{name}: lengths {lengths.tolist()} must split {rows} rows, each at least {ks if wide else 1}")
    return layout[1:]


def _overlap_add(out: np.ndarray, cols: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Add column block j of each row of `cols` to `out` at row j of its window."""
    d = out.shape[1]
    for j in range(windows.shape[1]):
        out[windows[:, j]] += cols[:, j * d:(j + 1) * d]
    return out


def _run_gemms(a: np.ndarray, b: np.ndarray, runs: tuple) -> np.ndarray:
    """Packed rows of `a` times `b`, one stacked np.matmul per run: the GEMM each sentence gets alone."""
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for _, count, n, row in runs:
        stop = row + count * n
        np.matmul(a[row:stop].reshape(count, n, -1), b, out=out[row:stop].reshape(count, n, -1))
    return out


def _kernel_grad_2d(small: np.ndarray, big: np.ndarray) -> np.ndarray:
    """gk[o, a, b] = sum of small[n, o, r, c] * big[n, r+a, c+b] over n, r, c."""
    _, c_k, rr, cc = small.shape
    kh, kw = big.shape[1] - rr + 1, big.shape[2] - cc + 1
    gk = np.empty((c_k, kh, kw), dtype=small.dtype)
    for a in range(kh):
        for b in range(kw):
            gk[:, a, b] = (small * big[:, None, a:a + rr, b:b + cc]).sum(axis=(0, 2, 3))
    return gk


def conv1d_valid(x: Tensor, kernels: Tensor, bias: Tensor, lengths) -> Tensor:
    """Valid stride-1 convolution of packed sentences (T x d rows split by
    `lengths`) with c_out kernels of shape ks x d: each sentence of P rows
    gives P-ks+1 rows of c_out channels, packed the same way."""
    if x.data.ndim != 2 or kernels.data.ndim != 3:
        raise ShapeError(f"conv1d_valid: expected 2-d packed rows and 3-d kernels, got {x.shape} and {kernels.shape}")
    c_out, ks, d = kernels.shape
    if x.shape[1] != d or bias.shape != (c_out,):
        raise ShapeError(f"conv1d_valid: rows of width {x.shape[1]} or bias {bias.shape} do not fit kernels {kernels.shape}")
    runs, _, windows = _packed("conv1d_valid", x.shape[0], lengths, ks, wide=True)

    # a contiguous (ks*d) x c_out kernel: OpenBLAS runs the transposed view's
    # NT sgemm 2-3.5x slower at width 500
    k, x_shape, x_dtype = kernels.data.reshape(c_out, ks * d), x.shape, x.dtype
    win = np.take(x.data, windows, axis=0).reshape(len(windows), ks * d)    # im2col
    out = _run_gemms(win, np.ascontiguousarray(k.T), runs)
    out += bias.data

    def vjp(g):
        gx = _overlap_add(np.zeros(x_shape, x_dtype), g @ k, windows)
        return (gx, (g.T @ win).reshape(c_out, ks, d), g.sum(axis=0))

    return Tensor._from_op(out, (x, kernels, bias), vjp, "conv1d_valid")


def transposed_conv1d(x: Tensor, kernels: Tensor, bias: Tensor, lengths) -> Tensor:
    """Adjoint of conv1d_valid as a forward op: each packed sentence of P rows
    of c_in channels gives P+ks-1 rows of width d. One GEMM per run, then an
    overlap-add of its ks column blocks onto the bias."""
    if x.data.ndim != 2 or kernels.data.ndim != 3:
        raise ShapeError(f"transposed_conv1d: expected 2-d packed rows and 3-d kernels, got {x.shape} and {kernels.shape}")
    t, c_in = x.shape
    kc, ks, d = kernels.shape
    if kc != c_in or bias.shape != (d,):
        raise ShapeError(f"transposed_conv1d: {c_in} input channels or bias {bias.shape} do not fit kernels {kernels.shape}")
    runs, starts, windows = _packed("transposed_conv1d", t, lengths, ks)

    h, k = x.data, kernels.data.reshape(c_in, ks * d)
    cols = _run_gemms(h, k, runs)     # T x (ks*d)
    out = np.empty((t + len(starts) * (ks - 1), d), dtype=cols.dtype)
    out[:] = bias.data
    _overlap_add(out, cols, windows)

    def vjp(g):
        gwin = np.take(g, windows, axis=0).reshape(t, ks * d)
        return (gwin @ k.T, (h.T @ gwin).reshape(c_in, ks, d), g.sum(axis=0))

    return Tensor._from_op(out, (x, kernels, bias), vjp, "transposed_conv1d")


def conv2d_valid(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid cross-correlation of B planes R x C: B x c_out x (R-kh+1) x (C-kw+1)."""
    if x.data.ndim != 3 or kernels.data.ndim != 3:
        raise ShapeError(f"conv2d_valid: expected a 3-d batched input and 3-d kernels, got {x.shape} and {kernels.shape}")
    nb, r, c = x.shape
    c_out, kh, kw = kernels.shape
    if r < kh or c < kw:
        raise ShapeError(f"conv2d_valid: plane {x.shape[1:]} smaller than kernel ({kh}, {kw})")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d_valid: bias shape {bias.shape} does not match {c_out} channels")

    rr, cc = r - kh + 1, c - kw + 1
    out = np.empty((nb, c_out, rr, cc), dtype=x.dtype)
    out[:] = bias.data[:, None, None]
    for a in range(kh):
        for b in range(kw):
            patch = x.data[:, None, a:a + rr, b:b + cc]
            out += kernels.data[:, a, b][:, None, None] * patch
    h, k = x.data, kernels.data

    def vjp(g):
        return (_partner(transposed_conv2d, g, k, 1), _kernel_grad_2d(g, h), g.sum(axis=(0, 2, 3)))

    return Tensor._from_op(out, (x, kernels, bias), vjp, "conv2d_valid")


def transposed_conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Adjoint of conv2d_valid as a forward op: B x c_in x R' x C' -> B x (R'+kh-1) x (C'+kw-1)."""
    if x.data.ndim != 4 or kernels.data.ndim != 3:
        raise ShapeError(f"transposed_conv2d: expected a 4-d batched input and 3-d kernels, got {x.shape} and {kernels.shape}")
    nb, c_in, rr, cc = x.shape
    kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"transposed_conv2d: input channels {c_in} do not match kernel channels {kc}")
    if bias.size != 1:
        raise ShapeError(f"transposed_conv2d: bias must be a scalar, got shape {bias.shape}")

    out = np.full((nb, rr + kh - 1, cc + kw - 1), bias.data.reshape(()), dtype=x.dtype)
    for a in range(kh):
        for b in range(kw):
            out[:, a:a + rr, b:b + cc] += np.einsum("o,norc->nrc", kernels.data[:, a, b], x.data)
    h, k, bias_shape = x.data, kernels.data, bias.shape

    def vjp(g):
        return (_partner(conv2d_valid, g, k, c_in), _kernel_grad_2d(h, g), g.sum().reshape(bias_shape))

    return Tensor._from_op(out, (x, kernels, bias), vjp, "transposed_conv2d")


def _flat_index(indices: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Flat positions in packed T x c maps of each sentence's per-channel row `indices`."""
    return (indices + starts[:, None]) * indices.shape[1] + np.arange(indices.shape[1])


def _scatter(values: np.ndarray, flat: np.ndarray, rows: int) -> np.ndarray:
    """`rows` x c zeros with the S x c `values` at the flat positions `flat`."""
    out = np.zeros((rows, values.shape[1]), dtype=values.dtype)
    out.reshape(-1)[flat] = values
    return out


def max_pool_time(t: Tensor, lengths) -> tuple[Tensor, np.ndarray]:
    """Max over each packed sentence's rows of T x c maps; ties go to the lowest index.

    Returns the S x c pooled values and the S x c integer argmax positions,
    counted from each sentence's first row. A run of n-row sentences with at
    least _FIRST_HIT_MIN entries takes, per column, n minus the largest weight
    n..1 of the rows equal to the max: argmax's first hit at under half its
    cost on wide maps. Smaller runs, and runs whose max is NaN, take argmax
    itself (there the first NaN wins). The adjoint routes g only to those
    entries.
    """
    if t.data.ndim != 2:
        raise ShapeError(f"max_pool_time: expected 2-d packed rows, got shape {t.shape}")
    runs, starts, _ = _packed("max_pool_time", t.shape[0], lengths)
    rows, c = t.shape
    indices = np.empty((len(starts), c), dtype=np.intp)
    for first, count, n, row in runs:
        block = t.data[row:row + count * n].reshape(count, n, c)
        top = block.max(axis=1, keepdims=True) if block.size >= _FIRST_HIT_MIN else None
        if top is None or np.isnan(top).any():
            indices[first:first + count] = block.argmax(axis=1)
        else:
            weights = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))[:, None]
            indices[first:first + count] = n - ((block == top).view(np.uint8) * weights).max(axis=1)
    flat = _flat_index(indices, starts)
    return Tensor._from_op(t.data.reshape(-1)[flat], (t,), lambda g: (_scatter(g, flat, rows),), "max_pool_time"), indices


def max_unpool_time(values: Tensor, indices: np.ndarray, lengths) -> Tensor:
    """Place S x c values back at recorded positions of packed T x c maps
    (sentence i spans lengths[i] rows), zeros elsewhere."""
    if values.data.ndim != 2:
        raise ShapeError(f"max_unpool_time: expected 2-d pooled rows, got shape {values.shape}")
    indices, lengths = np.asarray(indices), np.asarray(lengths, dtype=np.int64)
    if indices.shape != values.shape or lengths.shape != values.shape[:1]:
        raise ShapeError(f"max_unpool_time: values {values.shape}, indices {indices.shape} and lengths {lengths.shape} do not match")
    if indices.size and (indices.min() < 0 or (indices >= lengths[:, None]).any()):
        raise IndexError(f"max_unpool_time: index {int(indices.max())} out of range for lengths {lengths.tolist()}")
    flat = _flat_index(indices, np.cumsum(lengths) - lengths)
    return Tensor._from_op(_scatter(values.data, flat, lengths.sum()), (values,), lambda g: (g.reshape(-1)[flat],), "max_unpool_time")


# -- backward pass ----------------------------------------------------------


class GradientMap:
    """Accumulated adjoints keyed by node id; absent entries mean zero."""

    def __init__(self, grads: dict[int, np.ndarray]):
        self._grads = grads

    def wrt(self, t: Tensor) -> np.ndarray:
        """Adjoint of `t`, zero-filled if the loss does not depend on it."""
        g = self._grads.get(t.node_id)
        if g is None:
            return np.zeros_like(t.data)
        return g


def _topo_order(root: _Node) -> list[_Node]:
    order: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.node_id in visited:
            continue
        visited.add(node.node_id)
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and parent.node_id not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> GradientMap:
    """Reverse-mode sweep over the graph nodes from a scalar loss to every requires_grad leaf."""
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return GradientMap({})

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    leaves: dict[int, np.ndarray] = {}
    for node in reversed(_topo_order(loss._node)):
        g = grads.pop(node.node_id)
        if node._vjp is None:
            leaves[node.node_id] = g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            prev = grads.get(parent.node_id)
            grads[parent.node_id] = pg if prev is None else prev + pg
    return GradientMap(leaves)

