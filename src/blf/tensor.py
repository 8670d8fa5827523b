"""Dense tensors with reverse-mode automatic differentiation.

Arrays are plain numpy ndarrays (float32 for training, float64 for oracles
and gradient checks). Every differentiable op records a closure that
accumulates into its parents' ``grad`` buffers; ``Tensor.backward`` replays
them in reverse topological order and releases the graph as it walks it:
before a node's closure runs, the node gives up its gradient, its parents and
the closure, so the activations that closure saved are freed once it returns.
A graph is therefore backpropagated once; leaves (parameters included) keep
their gradients, and a second backward through a released node raises
UsageError. Forward-only code runs under ``no_grad()`` and builds no graph.

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
node of ``blf.attention``. ``add`` is left for the residual and embedding
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


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, dtype=np.float32, requires_grad=False):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

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
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            backward = node._backward
            if backward is None:
                continue
            g, node.grad = node.grad, None
            node._parents = ()
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
        self.grad = np.zeros_like(self.data)

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
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    grads_needed = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = grads_needed
    out._parents = tuple(p for p in parents if p.requires_grad) if grads_needed else ()
    out._backward = backward if grads_needed else None
    return out


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    data = a.data + b.data
    _add_work(data.size)

    def backward(g):
        # g reaches both parents, so a parent handed g itself gets a copy.
        # Letting one of them adopt g instead showed no gain on pretrain-tiny
        # (peak RSS and step time within run-to-run noise).
        for t in (a, b):
            if t.requires_grad:
                gt = _unbroadcast(g, t.shape)
                t._accumulate(gt.copy() if gt is g else gt)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    data = a.data * b.data
    _add_work(data.size)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

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
    data = _product(ad, bd)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, bd.swapaxes(-1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(ad.swapaxes(-1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

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
    data = linear_forward(x2, wd, b.data)

    def backward(g):
        dx = _linear_backward(g.reshape(x2.shape[0], O), x2, wd, w, b, x.requires_grad)
        if dx is not None:
            x._accumulate(dx.reshape(x.shape))

    return _make(data.reshape(*x.shape[:-1], O), (x, w, b), backward)


def _linear_backward(g2: np.ndarray, x2: np.ndarray, wd: np.ndarray, w: Tensor, b: Tensor,
                     want_dx: bool) -> np.ndarray | None:
    """The backward of `x2 [M, K] @ wd [K, O] + b` from `g2` [M, O]: the bias
    and weight gradients go into `b` and `w`; the input's [M, K] is returned
    if `want_dx`."""
    if b.requires_grad:
        b._accumulate(g2.sum(axis=0))
    if w.requires_grad:
        w._accumulate(x2.T @ g2)
    if not want_dx:
        return None
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

    def backward(g):
        x._accumulate(g.reshape(x.shape))

    return _make(data, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))  # argsort of a short tuple
    data = x.data.transpose(axes)

    def backward(g):
        x._accumulate(g.transpose(inverse))

    return _make(data, (x,), backward)


def concat(tensors, axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(data, tuple(tensors), backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = np.ascontiguousarray(x.data[idx])

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        x._accumulate(gx)

    return _make(data, (x,), backward)


def _scatter_add(x: Tensor, ids: np.ndarray, g: np.ndarray, axis: int = 0) -> None:
    """Add the rows of `g` [n, ...] into the rows `ids` [n] of x's gradient (a
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

    def backward(g):
        rows = np.moveaxis(g, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim)))
        _scatter_add(x, indices.reshape(-1), rows.reshape(indices.size, *rows.shape[indices.ndim:]), axis)

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

    def backward(g):
        _scatter_add(weight, ids.reshape(-1), g.reshape(-1, H))

    return _make(data, (weight,), backward)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where `mask` is True with a constant."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, np.asarray(value, dtype=x.dtype), x.data)
    _add_work(data.size)

    def backward(g):
        x._accumulate(np.where(mask, 0.0, g))

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

    def backward(g):
        x._accumulate(softmax_backward_(data, g, axis))

    return _make(data, (x,), backward)


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU, tanh approximation, of `x` in buffers of its dtype: the output and
    t = tanh(c * (x + 0.044715 x^3)), which the backward reads."""
    c = math.sqrt(2.0 / math.pi)
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= c
    np.tanh(t, out=t)
    data = t + 1.0
    data *= x
    data *= 0.5
    return data, t


def gelu_backward(x: np.ndarray, t: np.ndarray, g: np.ndarray, du: np.ndarray | None = None) -> np.ndarray:
    """The gradient at `x` of `gelu_forward`, given its `t` and the output
    gradient `g`, in a new buffer. `du` is scratch of x's shape (a new one
    if None); it may be `x` itself, which is then overwritten."""
    # d/dx = 0.5 * (1 + t + x * (1 - t^2) * c * (1 + 3 * 0.044715 * x^2))
    dx = t * t
    np.subtract(1.0, dx, out=dx)
    dx *= x
    du = np.multiply(x, x, out=du)  # the last read of x
    du *= 3 * 0.044715
    du += 1.0
    du *= math.sqrt(2.0 / math.pi)
    dx *= du
    del du
    dx += t
    dx += 1.0
    dx *= 0.5
    dx *= g
    return dx


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (`gelu_forward`)."""
    xd = x.data
    data, t = gelu_forward(xd)
    _add_work(6 * data.size)

    def backward(g):
        x._accumulate(gelu_backward(xd, t, g))

    return _make(data, (x,), backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The feed-forward branch `linear(gelu(linear(x, w1, b1)), w2, b2)` as one
    node, for x [..., K], w1 [K, I] and w2 [I, O].

    It keeps only the rows of `x` in C order [M, K] (copied only if strided,
    as in `linear`) and the pre-activation [M, I]. Its backward recomputes t
    and the GELU output with `gelu_forward`, so every output and gradient has
    the bits of the three-node composition, and so does the work count.
    """
    _check_dense(x.shape, x.dtype, w1, b1)
    _check_dense(w1.shape[1:], x.dtype, w2, b2)
    K, O = w1.shape[0], w2.shape[1]
    x2 = np.ascontiguousarray(x.data.reshape(math.prod(x.shape[:-1]), K))
    w1d, w2d = np.ascontiguousarray(w1.data), np.ascontiguousarray(w2.data)
    pre = linear_forward(x2, w1d, b1.data)
    act = gelu_forward(pre)[0]
    _add_work(6 * act.size)
    data = linear_forward(act, w2d, b2.data)
    del act

    def backward(g):
        act, t = gelu_forward(pre)
        dact = _linear_backward(g.reshape(x2.shape[0], O), act, w2d, w2, b2, True)
        del act
        # the pre-activation is the scratch: `Tensor.backward` runs a closure once
        dpre = gelu_backward(pre, t, dact, du=pre)
        del t, dact
        dx = _linear_backward(dpre, x2, w1d, w1, b1, x.requires_grad)
        del dpre
        if dx is not None:
            x._accumulate(dx.reshape(x.shape))

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
    data, xhat, ivar = layer_norm_forward(x.data, gain.data, bias.data, eps)
    _add_work(6 * data.size)

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, n).sum(axis=0))
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            # dx = ivar * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
            # the same roundings in two buffers: dxhat and a product buffer
            dxhat = g * gain.data
            prod = dxhat * xhat
            mean_dxhat_xhat = prod.mean(axis=-1, keepdims=True)
            dxhat -= dxhat.mean(axis=-1, keepdims=True)
            np.multiply(xhat, mean_dxhat_xhat, out=prod)
            dxhat -= prod
            dxhat *= ivar
            x._accumulate(dxhat)

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

    def backward(g):
        x._accumulate(g * keep * scale)

    return _make(data, (x,), backward)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = np.asarray(x.data.sum(axis=axis, keepdims=keepdims))
    _add_work(x.size)

    def backward(g):
        x._accumulate(g if axis is None or keepdims else np.expand_dims(g, axis))

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

    def backward(g):
        probs = e / z
        probs[np.arange(n)[keep], targets[keep]] -= 1.0
        probs[~keep] = 0.0
        probs *= float(g) / count
        logits._accumulate(probs)

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

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-z))
        logits._accumulate((sig - labels) * keep * (float(g) / count))

    return _make(data, (logits,), backward)
