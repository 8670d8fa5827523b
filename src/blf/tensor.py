"""Dense tensors with reverse-mode automatic differentiation.

Arrays are plain numpy ndarrays (float32 for training, float64 for oracles
and gradient checks). A value and its autodiff record are separate objects:
a `Tensor` is an array (`.data`) plus a `Node`, or no node at all when
nothing upstream needs a gradient (leaf constants, and every op under
``no_grad()``, which builds no graph). The node holds the gradient, the shape
and dtype, the nodes of the parents that need gradients, and a closure that
accumulates into those parents' gradients, but no data. Every closure keeps
the arrays its backward reads and the nodes it accumulates into, never a
`Tensor`.

Who keeps what alive:

- The caller keeps an op's output array for as long as it holds the
  `Tensor`. Once it drops it, the array is freed unless some backward reads
  it: ``add``'s summands, a residual sum or an attention output die with
  their `Tensor`, while ``linear`` keeps its input rows and ``softmax`` its
  probabilities in their closures.
- The graph keeps nodes: a node keeps its parents' nodes and its closure. A
  node refers to its `Tensor` only weakly, so ``_parents`` (a view for
  tracing and tests) gives a parent's `Tensor` while a caller still holds
  it, and its node otherwise.
- Parameters and other leaves own a node for their whole life and keep
  their ``.grad`` there.

``Tensor.backward`` replays the closures in reverse topological order and
releases the graph as it walks it: before a node's closure runs, the node
gives up its gradient, its parents and the closure, so the activations that
closure saved are freed once it returns. A graph is therefore
backpropagated once; leaves (parameters included) keep their gradients, and
a second backward through a released node raises UsageError.

Each gradient array has one owner. A backward closure owns the gradient it is
handed and gives every array it passes to ``_accumulate`` away: a first write
of the node's shape and dtype becomes the node's buffer as it is, and later
writes add into it. A strided first write (``transpose`` hands over a view) is
copied into C order instead, so later ops read C-order gradients. An op
passes a fresh array, or its own gradient or disjoint views of it; only
``add``, which would hand one array to two parents, copies at the op.
Parameters keep their buffers, and ``AdamW.step`` consumes and zeroes them.

``transpose`` returns a view, so an op may be handed a strided array: the
per-head q, k and v of attention are views of their projection buffers.
``matmul``, ``linear`` and the attention nodes of ``blf.attention`` take one
C-ordered copy of a strided operand (``np.ascontiguousarray``, which costs
nothing on C-ordered input) and use it in both passes, because OpenBLAS can
round a product whose operand is a transposed view differently from the
same product on a C-ordered copy, mostly at 1 and 2 rows. ``reshape``
copies a view only when numpy must.

Every dense layer is one ``linear`` node, every feed-forward branch
(``linear``, GELU, ``linear``) one ``ffn`` node, which keeps its input and
pre-activation and recomputes GELU in its backward, and every attention one
node of ``blf.attention``. The GELU passes (``gelu_forward``,
``gelu_backward``) run in tiles of ``GELU_TILE`` elements, each the
whole-array op sequence, so their temporaries are tile-sized: ``ffn``'s
forward makes one [M, I] buffer beside the pre-activation, and its backward
two. ``add`` is left for the residual and embedding
sums and the RTD loss sum, ``matmul`` for the bias-free tied output
projection. Those attention nodes and the ``softmax`` op share the softmax
kernel ``softmax_`` and its adjoint ``softmax_backward_``.

One rounding rule holds for the products the forward of ``matmul`` and
``linear`` forms (backward passes are plain products): numpy sends a left
operand with one row to gemv, which rounds differently from gemm, so such an
operand runs as that row stacked twice and row 0 is kept. A row then goes
through gemm whether it comes alone or among others, so the cached decoder
step (one new row per beam, run on arrays through ``_product``) gives the
bits of the same step run as graph ops. It matches ``Seq2SeqModel.decode``
(every row of the prefix, in gemms with more rows) bit for bit at position
0, and elsewhere to within 1e-5 in float32: gemm can round a row
differently in another block shape. The forwards of ``linear``, ``gelu``
and ``layer_norm`` are array functions too (``linear_forward``,
``gelu_forward``, ``layer_norm_forward``), which that step calls.

``embedding`` is the one op that reads rows by index; it and ``gather``
scatter-add their gradients with one sorted ``reduceat`` (``_scatter_add``).

Ops keep a global multiply-add counter so tests can assert asymptotic cost
without timing anything; ``_product`` and ``linear_forward`` count theirs.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager

import numpy as np

from .errors import NumericError, RangeError, ShapeError, UsageError

MAX_RANK = 4

# Large finite score used to mask attention logits. exp(-1e9) underflows to
# exactly 0.0 in both float32 and float64, so masked positions contribute
# nothing, without the NaN hazards of -inf.
NEG_INF = -1e9

_work = 0
_grad_enabled = True


def reset_work() -> None:
    global _work
    _work = 0


def work() -> int:
    """Multiply-add count accumulated since the last reset."""
    return _work


def _add_work(n: int) -> None:
    global _work
    _work += int(n)


def _as_array(x, dtype) -> np.ndarray:
    a = np.asarray(x, dtype=dtype)
    if a.ndim > MAX_RANK:
        raise ShapeError(f"rank {a.ndim} exceeds supported maximum {MAX_RANK}")
    # ascontiguousarray would promote 0-d scalars to shape (1,)
    return a if a.ndim == 0 else np.ascontiguousarray(a)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b` through gemm: a one-row `a` runs as that row stacked twice, and
    row 0 is kept (and counted once)."""
    if a.shape[-2] != 1:
        data = a @ b
    else:
        data = (np.concatenate((a, a), axis=-2) @ b)[..., :1, :]
    _add_work(data.size * a.shape[-1])
    return data


def _released(g) -> None:
    raise UsageError("backward() through a graph that was already released")


class Node:
    """The autodiff record of one value: its gradient, shape and dtype, the
    nodes of its parents that need gradients, and the closure that
    accumulates into them. It holds no data, and only a weak reference to
    the `Tensor` that owns it. A node exists only where a gradient is
    needed, so `requires_grad` is always true."""

    __slots__ = ("grad", "shape", "dtype", "parents", "_backward", "_owner")

    requires_grad = True

    def __init__(self, owner: "Tensor", parents: tuple = (), backward=None):
        self.grad = None
        self.shape = owner.data.shape
        self.dtype = owner.data.dtype
        self.parents = parents
        self._backward = backward
        self._owner = weakref.ref(owner)

    @property
    def _parents(self) -> tuple:
        """The parents, each as its `Tensor` while a caller still holds it and
        as its node otherwise: what tracing and tests walk."""
        return tuple(p._owner() or p for p in self.parents)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add `grad` into self.grad. The caller hands `grad` over: a first
        write of this node's shape and dtype in C order is adopted as its
        buffer; any other (to broadcast, to cast, or strided) is copied into
        a new C-order one."""
        if self.grad is None:
            if grad.shape == self.shape and grad.dtype == self.dtype and grad.flags.c_contiguous:
                self.grad = grad
            else:
                self.grad = np.array(np.broadcast_to(grad, self.shape), dtype=self.dtype, order="C")
        else:
            self.grad += grad


class Tensor:
    """An array and, if a gradient flows to or through it, its `Node`."""

    __slots__ = ("data", "node", "__weakref__")

    def __init__(self, data, dtype=np.float32, requires_grad=False):
        self.data = _as_array(data, dtype)
        self.node = Node(self) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    @property
    def _parents(self) -> tuple:
        return () if self.node is None else self.node._parents

    @property
    def _backward(self):
        return None if self.node is None else self.node._backward

    @_backward.setter
    def _backward(self, fn):
        self.node._backward = fn

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """Same data, cut off from the graph."""
        return Tensor(self.data, dtype=self.data.dtype)

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Accumulate d(self)/d(p) into every reachable leaf's grad, releasing
        the graph on the way: each node's gradient, parents and closure are
        dropped before its closure runs, so the closure and the activations it
        holds are freed before the next node's. Leaves keep their gradients.

        Only defined for scalar outputs (losses), and once per graph.
        """
        if self.data.size != 1:
            raise UsageError(f"backward() requires a scalar, got shape {self.shape}")
        if self.node is None:
            return
        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.node.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            backward = node._backward
            if backward is None:
                continue
            g, node.grad = node.grad, None
            node.parents = ()
            node._backward = _released
            if g is not None:
                backward(g)

    # operator sugar: `a + b`, `a - b`, `a * b` and `-a` (the acceptance tests write `-(e - f)`)
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


class Parameter(Tensor):
    """A named trainable tensor; grad is allocated up front and kept zeroed."""

    __slots__ = ("name",)

    def __init__(self, data, name: str, dtype=np.float32):
        super().__init__(data, dtype=dtype, requires_grad=True)
        self.name = name
        self.node.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def zero_grads(params) -> None:
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        else:
            p.grad[...] = 0.0


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype), dtype=like.dtype)


@contextmanager
def no_grad():
    """Inside, every op returns a leaf with no backward; nests, and works as a decorator."""
    global _grad_enabled
    outer, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = outer


def _make(data: np.ndarray, parents, backward) -> Tensor:
    """The output `Tensor` of an op over the tensors `parents`, with a node
    for `backward` if some parent needs a gradient (and no node under
    `no_grad`)."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.node = None
    if _grad_enabled:
        nodes = tuple(p.node for p in parents if p.node is not None)
        if nodes:
            out.node = Node(out, nodes, backward)
    return out


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    data = a.data + b.data
    _add_work(data.size)
    nodes = (a.node, b.node)

    def backward(g):
        # g reaches both parents, so a parent handed g itself gets a copy.
        # Letting one of them adopt g instead showed no gain on pretrain-tiny
        # (peak RSS and step time within run-to-run noise).
        for n in nodes:
            if n is not None:
                gn = _unbroadcast(g, n.shape)
                n._accumulate(gn.copy() if gn is g else gn)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    ad, bd, an, bn = a.data, b.data, a.node, b.node
    data = ad * bd
    _add_work(data.size)

    def backward(g):
        if an is not None:
            an._accumulate(_unbroadcast(g * bd, an.shape))
        if bn is not None:
            bn._accumulate(_unbroadcast(g * ad, bn.shape))

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading axes."""
    if not isinstance(b, Tensor):
        b = _wrap(b, a)
    if a.dtype != b.dtype:
        raise ShapeError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    ad, bd = np.ascontiguousarray(a.data), np.ascontiguousarray(b.data)
    an, bn = a.node, b.node
    data = _product(ad, bd)

    def backward(g):
        if an is not None:
            ga = np.matmul(g, bd.swapaxes(-1, -2))
            an._accumulate(_unbroadcast(ga, an.shape))
        if bn is not None:
            gb = np.matmul(ad.swapaxes(-1, -2), g)
            bn._accumulate(_unbroadcast(gb, bn.shape))

    return _make(data, (a, b), backward)


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`x [M, K] @ w [K, O] + b [O]`, the bias added in place (and counted)."""
    data = _product(x, w)
    data += b
    _add_work(data.size)
    return data


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer `x [..., K] @ w [K, O] + b [O]` as one node.

    Both passes are 2-D gemms over the rows of `x` flattened to [M, K]: the
    bias is added in place, the weight gradient is one [K, M] x [M, O] product
    and the bias gradient one sum over the rows.
    """
    _check_dense(x.shape, x.dtype, w, b)
    K, O = w.shape
    x2 = np.ascontiguousarray(x.data.reshape(math.prod(x.shape[:-1]), K))
    wd = np.ascontiguousarray(w.data)
    xn, wn, bn = x.node, w.node, b.node
    data = linear_forward(x2, wd, b.data)

    def backward(g):
        g2 = g.reshape(x2.shape[0], O)
        _dense_param_grads(g2, x2, wn, bn)
        if xn is not None:
            xn._accumulate(_dense_input_grad(g2, wd).reshape(xn.shape))

    return _make(data.reshape(*x.shape[:-1], O), (x, w, b), backward)


def _dense_param_grads(g2: np.ndarray, x2: np.ndarray, wn: Node | None, bn: Node | None) -> None:
    """The bias and weight gradients of `x2 [M, K] @ w + b` from `g2` [M, O],
    into the nodes `bn` and `wn` (either may be None)."""
    if bn is not None:
        bn._accumulate(g2.sum(axis=0))
    if wn is not None:
        wn._accumulate(x2.T @ g2)


def _dense_input_grad(g2: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """The input gradient [M, K] of `x2 @ wd + b` (wd [K, O]) from `g2` [M, O]."""
    # one output column: the gemm would have an inner extent of 1, and the
    # outer product gives the same bits in less time
    return g2 * wd[:, 0] if wd.shape[1] == 1 else g2 @ wd.T


def _check_dense(shape: tuple, dtype, w: Tensor, b: Tensor) -> None:
    """Refuse an input of `shape` [..., K] and `dtype` that does not fit a
    dense layer of `w` [K, O] and `b` [O]."""
    if not dtype == w.dtype == b.dtype:
        raise ShapeError(f"dtype mismatch: {dtype}, {w.dtype} and {b.dtype}")
    if len(shape) < 1 or w.data.ndim != 2 or shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs x [..., K], w [K, O] and b [O], got {shape}, {w.shape} and {b.shape}")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = np.ascontiguousarray(x.data.reshape(shape))
    xn = x.node

    def backward(g):
        xn._accumulate(g.reshape(xn.shape))

    return _make(data, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))  # argsort of a short tuple
    data = x.data.transpose(axes)
    xn = x.node

    def backward(g):
        xn._accumulate(g.transpose(inverse))

    return _make(data, (x,), backward)


def concat(tensors, axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)
    nodes = [t.node for t in tensors]

    def backward(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                n._accumulate(g[tuple(idx)])

    return _make(data, tuple(tensors), backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = np.ascontiguousarray(x.data[idx])
    xn = x.node

    def backward(g):
        gx = np.zeros(xn.shape, dtype=xn.dtype)
        gx[idx] = g
        xn._accumulate(gx)

    return _make(data, (x,), backward)


def _scatter_add(x: Node, ids: np.ndarray, g: np.ndarray, axis: int = 0) -> None:
    """Add the rows of `g` [n, ...] into the rows `ids` [n] of node x's gradient (a
    zero buffer first if it has none): its axis `axis` moved first, the axes
    before g's row shape flattened. Repeated ids are summed by one reduceat
    after a stable sort; only the touched rows are written."""
    if x.grad is None:
        x.grad = np.zeros(x.shape, dtype=x.dtype)
    if not ids.size:
        return
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    rows = np.moveaxis(x.grad, axis, 0).reshape(-1, *g.shape[1:])  # a view: the buffer is C order
    rows[sorted_ids[starts]] += np.add.reduceat(g[order], starts, axis=0)


def gather(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """np.take along one axis with an arbitrary integer index array.

    The gradient scatter-adds back (`_scatter_add`), so repeated indices are handled.
    """
    indices = np.asarray(indices)
    data = np.take(x.data, indices, axis=axis)
    _add_work(data.size)
    xn = x.node

    def backward(g):
        rows = np.moveaxis(g, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim)))
        _scatter_add(xn, indices.reshape(-1), rows.reshape(indices.size, *rows.shape[indices.ndim:]), axis)

    return _make(data, (x,), backward)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup in `weight` [..., H] flattened to a table [N, H]:
    out[..., :] = table[ids[...], :]. It reads the token and position tables,
    and cuts a hidden state [B, L, H] to the rows a loss reads (the masked
    rows of the generator's last block, `encoder.block`)."""
    ids = np.asarray(ids)
    H = weight.shape[-1]
    table = weight.data.reshape(-1, H)
    if ids.size and (ids.min() < 0 or ids.max() >= len(table)):
        raise RangeError(f"embedding ids outside [0, {len(table)}): min {ids.min()}, max {ids.max()}")
    data = table[ids]
    _add_work(data.size)
    wn = weight.node

    def backward(g):
        _scatter_add(wn, ids.reshape(-1), g.reshape(-1, H))

    return _make(data, (weight,), backward)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where `mask` is True with a constant."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, np.asarray(value, dtype=x.dtype), x.data)
    _add_work(data.size)
    xn = x.node

    def backward(g):
        xn._accumulate(np.where(mask, 0.0, g))

    return _make(data, (x,), backward)


def softmax_(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along `axis`, in place in `x` (subtract the max, exp,
    divide by the sum); NaN input is a NumericError, raised before `x` is
    written. A NaN makes its row's max NaN, so only the maxima are checked."""
    peak = x.max(axis=axis, keepdims=True)
    if np.isnan(peak).any():
        raise NumericError("softmax input contains NaN")
    x -= peak
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def softmax_backward_(p: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """The softmax adjoint (g - sum(g * p)) * p along `axis`, for probabilities
    `p` and their gradient `g`, in place in `g`."""
    g -= (g * p).sum(axis=axis, keepdims=True)
    g *= p
    return g


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`."""
    data = softmax_(x.data.copy(), axis)
    _add_work(3 * data.size)
    xn = x.node

    def backward(g):
        xn._accumulate(softmax_backward_(data, g, axis))

    return _make(data, (x,), backward)


# Elements per tile of the GELU passes. A sweep of the ffn node's passes (two
# forwards and one backward) at [2048, 256] and [2048, 1024] in float32, on a
# Xeon with 2 MiB of L2 per core: tiles of 32,768 to 131,072 elements ran
# within 2% of each other, 16,384 ran 12-30% slower (one call per ufunc per
# tile), and one whole-array pass 43% and 86% slower.
GELU_TILE = 65536


def _tiles(*arrays: np.ndarray | None):
    """Matching flat tiles of GELU_TILE elements of same-shaped arrays (C-ordered
    where they are written); a None yields None tiles."""
    flats = [None if a is None else a.reshape(-1) for a in arrays]
    for lo in range(0, flats[0].size, GELU_TILE):
        yield [None if f is None else f[lo : lo + GELU_TILE] for f in flats]


def gelu_forward(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """GELU, tanh approximation, of `x` in a new C-ordered buffer of its dtype.
    If `t` (a C-ordered buffer of x's shape) is given, it receives
    tanh(c * (x + 0.044715 x^3)), which `gelu_backward` reads; otherwise each
    tile's t is scratch. The passes run tile by tile (`_tiles`), each the
    whole-array op sequence, so every element gets the same roundings."""
    c = math.sqrt(2.0 / math.pi)
    data = np.empty(x.shape, dtype=x.dtype)
    scratch = np.empty(min(x.size, GELU_TILE), dtype=x.dtype) if t is None else None
    for xs, ds, ts in _tiles(x, data, t):
        ts = scratch[: xs.size] if ts is None else ts
        np.multiply(xs, xs, out=ts)
        ts *= xs
        ts *= 0.044715
        ts += xs
        ts *= c
        np.tanh(ts, out=ts)
        np.add(ts, 1.0, out=ds)
        ds *= xs
        ds *= 0.5
    return data


def gelu_backward(x: np.ndarray, t: np.ndarray, g: np.ndarray, du: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The gradient at `x` of `gelu_forward`, given its `t` and the output
    gradient `g`, in `out` (a new buffer if None; it may be `g` itself). `du`
    is scratch of x's shape (a tile if None); it may be `x` itself, which is
    then overwritten. `du` and `out` must be C-ordered. Runs tile by tile, as
    `gelu_forward` does."""
    out = np.empty(x.shape, dtype=x.dtype) if out is None else out
    n = min(x.size, GELU_TILE)
    dx = np.empty(n, dtype=x.dtype)
    scratch = np.empty(n, dtype=x.dtype) if du is None else None
    for xs, ts, gs, os_, dus in _tiles(x, t, g, out, du):
        # d/dx = 0.5 * (1 + t + x * (1 - t^2) * c * (1 + 3 * 0.044715 * x^2))
        dxs = dx[: xs.size]
        dus = scratch[: xs.size] if dus is None else dus
        np.multiply(ts, ts, out=dxs)
        np.subtract(1.0, dxs, out=dxs)
        dxs *= xs
        np.multiply(xs, xs, out=dus)  # the last read of x
        dus *= 3 * 0.044715
        dus += 1.0
        dus *= math.sqrt(2.0 / math.pi)
        dxs *= dus
        dxs += ts
        dxs += 1.0
        dxs *= 0.5
        np.multiply(dxs, gs, out=os_)
    return out


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (`gelu_forward`); the node keeps x and t."""
    xd = x.data
    t = np.empty(xd.shape, dtype=xd.dtype)
    data = gelu_forward(xd, t)
    _add_work(6 * data.size)
    xn = x.node

    def backward(g):
        xn._accumulate(gelu_backward(xd, t, g))

    return _make(data, (x,), backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The feed-forward branch `linear(gelu(linear(x, w1, b1)), w2, b2)` as one
    node, for x [..., K], w1 [K, I] and w2 [I, O].

    It keeps only the rows of `x` in C order [M, K] (copied only if strided,
    as in `linear`) and the pre-activation [M, I]. Its backward recomputes t
    and the GELU output with `gelu_forward`, takes the second layer's bias
    and weight gradients, and drops the GELU output before it forms the
    gradient at it, into which it writes the GELU adjoint tile by tile: at
    most two [M, I] arrays beside the pre-activation at any time. Every
    output and gradient has the bits of the three-node composition, and so
    does the work count.
    """
    _check_dense(x.shape, x.dtype, w1, b1)
    _check_dense(w1.shape[1:], x.dtype, w2, b2)
    K, O = w1.shape[0], w2.shape[1]
    x2 = np.ascontiguousarray(x.data.reshape(math.prod(x.shape[:-1]), K))
    w1d, w2d = np.ascontiguousarray(w1.data), np.ascontiguousarray(w2.data)
    pre = linear_forward(x2, w1d, b1.data)
    act = gelu_forward(pre)
    _add_work(6 * act.size)
    data = linear_forward(act, w2d, b2.data)
    del act
    xn, w1n, b1n, w2n, b2n = (p.node for p in (x, w1, b1, w2, b2))

    def backward(g):
        g2 = g.reshape(x2.shape[0], O)
        t = np.empty(pre.shape, dtype=pre.dtype)
        act = gelu_forward(pre, t)
        _dense_param_grads(g2, act, w2n, b2n)
        del act
        dpre = _dense_input_grad(g2, w2d)
        # the pre-activation is the scratch: `Tensor.backward` runs a closure once
        gelu_backward(pre, t, dpre, du=pre, out=dpre)
        del t
        _dense_param_grads(dpre, x2, w1n, b1n)
        if xn is not None:
            xn._accumulate(_dense_input_grad(dpre, w1d).reshape(xn.shape))

    return _make(data.reshape(*x.shape[:-1], O), (x, w1, b1, w2, b2), backward)


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`x` normalized over its last axis, then scaled by `gain` and shifted by
    `bias`; also the normalized x and the inverse deviation, which the backward
    reads. A mean is `sum / n`, the bits of `np.mean` without its wrapper."""
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xc * ivar
    data = xhat * gain
    data += bias
    return data, xhat, ivar


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine (`layer_norm_forward`)."""
    n = x.shape[-1] if x.data.ndim else 0
    if n == 0:
        raise ShapeError("layer_norm over a zero-length axis")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}")
    if eps <= 0:
        raise UsageError("layer_norm eps must be positive")
    gd = gain.data
    data, xhat, ivar = layer_norm_forward(x.data, gd, bias.data, eps)
    _add_work(6 * data.size)
    xn, gn, bn = x.node, gain.node, bias.node

    def backward(g):
        if bn is not None:
            bn._accumulate(g.reshape(-1, n).sum(axis=0))
        if gn is not None:
            gn._accumulate((g * xhat).reshape(-1, n).sum(axis=0))
        if xn is not None:
            # dx = ivar * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
            # the same roundings in two buffers: dxhat and a product buffer
            dxhat = g * gd
            prod = dxhat * xhat
            mean_dxhat_xhat = prod.mean(axis=-1, keepdims=True)
            dxhat -= dxhat.mean(axis=-1, keepdims=True)
            np.multiply(xhat, mean_dxhat_xhat, out=prod)
            dxhat -= prod
            dxhat *= ivar
            xn._accumulate(dxhat)

    return _make(data, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, shape=None, rows=None) -> Tensor:
    """Inverted dropout; identity when p == 0.

    With `shape` and `rows`, `x` [n, H] holds the flat rows `rows` of an
    array of `shape`: the keep mask is drawn at `shape` and read at `rows`,
    so `rng` advances as it would for the whole array."""
    if not 0.0 <= p < 1.0:
        raise UsageError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.shape if rows is None else shape) >= p).astype(x.dtype)
    if rows is not None:
        keep = keep.reshape(-1, x.shape[-1])[rows]
    scale = 1.0 / (1.0 - p)
    data = x.data * keep * scale
    _add_work(data.size)
    xn = x.node

    def backward(g):
        xn._accumulate(g * keep * scale)

    return _make(data, (x,), backward)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = np.asarray(x.data.sum(axis=axis, keepdims=keepdims))
    _add_work(x.size)
    xn = x.node

    def backward(g):
        xn._accumulate(g if axis is None or keepdims else np.expand_dims(g, axis))

    return _make(data, (x,), backward)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.size if axis is None else x.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_label: int = -100) -> Tensor:
    """Mean negative log-likelihood over positions whose target != ignore_label.

    logits: [N, V]; targets: [N] integer ids. All positions ignored -> 0 with
    zero gradient.
    """
    targets = np.asarray(targets)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [N, V] logits, got {logits.shape}")
    n, v = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match logits rows {n}")
    keep = targets != ignore_label
    kept_targets = targets[keep]
    if kept_targets.size and (kept_targets.min() < 0 or kept_targets.max() >= v):
        raise ShapeError(f"target ids outside vocab range [0, {v})")
    count = max(int(keep.sum()), 1)
    _add_work(3 * logits.size)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    picked = shifted[np.arange(n), targets * keep]  # the log-probabilities are needed only here
    e = np.exp(shifted, out=shifted)
    z = e.sum(axis=1, keepdims=True)
    nll = -(picked - np.log(z[:, 0]))
    data = np.asarray((nll * keep).sum() / count, dtype=logits.dtype)
    ln = logits.node

    def backward(g):
        probs = e / z
        probs[np.arange(n)[keep], targets[keep]] -= 1.0
        probs[~keep] = 0.0
        probs *= float(g) / count
        ln._accumulate(probs)

    return _make(data, (logits,), backward)


def bce_with_logits(logits: Tensor, labels: np.ndarray, ignore_mask: np.ndarray | None = None) -> Tensor:
    """Mean binary cross-entropy with logits over non-ignored positions.

    labels in {0, 1}; ignore_mask True marks positions excluded from the mean.
    All positions ignored -> 0 with zero gradient.
    """
    labels = np.asarray(labels, dtype=logits.dtype)
    if labels.shape != logits.shape:
        raise ShapeError(f"labels shape {labels.shape} != logits shape {logits.shape}")
    if ignore_mask is None:
        keep = np.ones(logits.shape, dtype=bool)
    else:
        ignore_mask = np.asarray(ignore_mask, dtype=bool)
        if ignore_mask.shape != logits.shape:
            raise ShapeError(f"ignore_mask shape {ignore_mask.shape} != logits shape {logits.shape}")
        keep = ~ignore_mask
    count = max(int(keep.sum()), 1)
    z = logits.data
    _add_work(4 * logits.size)
    per = np.maximum(z, 0.0) - z * labels + np.log1p(np.exp(-np.abs(z)))
    data = np.asarray((per * keep).sum() / count, dtype=logits.dtype)
    ln = logits.node

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-z))
        ln._accumulate((sig - labels) * keep * (float(g) / count))

    return _make(data, (logits,), backward)
