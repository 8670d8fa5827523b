"""Strided operands: `transpose` returns a view, `matmul` and `linear` multiply
C-ordered copies of strided operands, and `sliding_window_attention` reads
q, k and v (and the global projections) as views of the projection buffers.
Each is checked bit for bit, output and every gradient, against the same call
on contiguous copies."""

import numpy as np
import pytest

from blf.attention import GLOBAL, LOCAL, PAD, sliding_window_attention
from blf.tensor import Parameter, Tensor, linear, matmul, mul, transpose, tsum


def run(build, params, seed=0):
    """Output bytes of `build()`, and every parameter's gradient after a
    seeded random weighting of the output is backpropagated."""
    out = build()
    weights = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
    tsum(mul(out, Tensor(weights, dtype=out.dtype))).backward()
    return out.data.tobytes(), [np.ascontiguousarray(p.grad).tobytes() for p in params]


def stored_transposed(a: np.ndarray, axes, name: str) -> Parameter:
    """A parameter holding `a` transposed by the inverse of `axes`, so that
    `transpose(p, axes)` reads as `a` through a strided view."""
    inverse = tuple(np.argsort(axes))
    return Parameter(np.ascontiguousarray(a.transpose(inverse)), name, dtype=a.dtype)


def test_transpose_is_a_view():
    x = Parameter(np.arange(24.0).reshape(2, 3, 4), "x")
    t = transpose(x, (2, 0, 1))
    assert np.shares_memory(t.data, x.data) and not t.data.flags.c_contiguous
    assert np.array_equal(t.data, x.data.transpose(2, 0, 1))
    tsum(mul(t, Tensor(np.arange(24.0).reshape(4, 2, 3)))).backward()
    assert np.array_equal(x.grad, np.arange(24.0).reshape(4, 2, 3).transpose(1, 2, 0))


# (H, V) as a hidden state against a tied output table; 1 and 2 rows are where
# a product on a transposed view rounds differently from one on a C-ordered copy
GRID = [(64, 512), (36, 300), (100, 2000)]
ROWS = [1, 2, 7, 64]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("H, V", GRID)
def test_matmul_on_a_transposed_right_operand(H, V, rows, dtype):
    rng = np.random.default_rng(H * rows)
    x = rng.standard_normal((rows, H)).astype(dtype)
    emb = rng.standard_normal((V, H)).astype(dtype)
    xs = [Parameter(x, "x", dtype=dtype) for _ in range(2)]
    table = Parameter(emb, "emb", dtype=dtype)
    table_t = Parameter(np.ascontiguousarray(emb.T), "emb_t", dtype=dtype)
    got = run(lambda: matmul(xs[0], transpose(table, (1, 0))), [xs[0], table])
    want = run(lambda: matmul(xs[1], table_t), [xs[1], table_t])
    assert got[0] == want[0] and got[1][0] == want[1][0]
    assert got[1][1] == np.ascontiguousarray(table_t.grad.T).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", ROWS)
def test_matmul_on_transposed_left_and_batched_operands(rows, dtype):
    rng = np.random.default_rng(rows)
    # a left operand stored column-major
    a = rng.standard_normal((rows, 48)).astype(dtype)
    b = rng.standard_normal((48, 30)).astype(dtype)
    pa, pb = stored_transposed(a, (1, 0), "a"), Parameter(b, "b", dtype=dtype)
    ca, cb = Parameter(a, "a", dtype=dtype), Parameter(b, "b", dtype=dtype)
    got = run(lambda: matmul(transpose(pa, (1, 0)), pb), [pa, pb])
    want = run(lambda: matmul(ca, cb), [ca, cb])
    assert got[0] == want[0] and got[1][1] == want[1][1]
    assert got[1][0] == np.ascontiguousarray(ca.grad.T).tobytes()

    # per-head scores as in the decoder: q [B, heads, rows, D] and k^T
    # [B, heads, D, S], both views of [B, L, heads, D] projection buffers
    q = rng.standard_normal((2, 4, rows, 16)).astype(dtype)
    k_t = rng.standard_normal((2, 4, 16, 9)).astype(dtype)
    pq, pk = stored_transposed(q, (0, 2, 1, 3), "q"), stored_transposed(k_t, (0, 2, 3, 1), "k")
    cq, ck = Parameter(q, "q", dtype=dtype), Parameter(k_t, "k", dtype=dtype)
    got = run(lambda: matmul(transpose(pq, (0, 2, 1, 3)), transpose(pk, (0, 2, 3, 1))), [pq, pk])
    want = run(lambda: matmul(cq, ck), [cq, ck])
    assert got[0] == want[0]
    assert got[1][0] == np.ascontiguousarray(cq.grad.transpose(0, 2, 1, 3)).tobytes()
    assert got[1][1] == np.ascontiguousarray(ck.grad.transpose(0, 3, 1, 2)).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("H, V", GRID)
def test_linear_on_transposed_operands(H, V, rows, dtype):
    """The generator head's shape (a weight that is the transposed token
    table) with a token-major input stored sequence-major."""
    rng = np.random.default_rng(V + rows)
    x = rng.standard_normal((1, rows, H)).astype(dtype)
    emb = rng.standard_normal((V, H)).astype(dtype)
    bias = rng.standard_normal(V).astype(dtype)
    px, table, pb = stored_transposed(x, (1, 0, 2), "x"), Parameter(emb, "emb", dtype=dtype), Parameter(bias, "b", dtype=dtype)
    cx, cw, cb = (Parameter(x, "x", dtype=dtype), Parameter(np.ascontiguousarray(emb.T), "w", dtype=dtype),
                  Parameter(bias, "b", dtype=dtype))
    got = run(lambda: linear(transpose(px, (1, 0, 2)), transpose(table, (1, 0)), pb), [px, table, pb])
    want = run(lambda: linear(cx, cw, cb), [cx, cw, cb])
    assert got[0] == want[0] and got[1][2] == want[1][2]
    assert got[1][0] == np.ascontiguousarray(cx.grad.transpose(1, 0, 2)).tobytes()
    assert got[1][1] == np.ascontiguousarray(cw.grad.T).tobytes()


def attention_roles(B, S, globals_at, pad_tail):
    roles = np.full((B, S), LOCAL, dtype=np.int64)
    roles[1:, S - pad_tail:] = PAD
    roles[0, -3:] = PAD
    for pos in globals_at:
        roles[0, pos] = GLOBAL
    if globals_at:
        roles[-1, globals_at[0]] = GLOBAL
    return roles


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window, S", [(8, 40), (64, 100)])
@pytest.mark.parametrize("globals_at, own_globals", [((), False), ((0,), False), ((0, 17), True)])
def test_sliding_window_attention_on_head_views(window, S, globals_at, own_globals, dtype):
    """q, k, v (and the global projections) as the per-head views that
    `split_heads` hands over, against contiguous copies of them."""
    rng = np.random.default_rng(window + S + len(globals_at))
    B, heads, D = 3, 4, 16
    roles = attention_roles(B, S, globals_at, pad_tail=S // 5)
    names = ("q", "k", "v", "gq", "gk", "gv") if own_globals else ("q", "k", "v")
    arrays = [rng.standard_normal((B, heads, S, D)).astype(dtype) for _ in names]
    views = [stored_transposed(a, (0, 2, 1, 3), n) for a, n in zip(arrays, names)]
    copies = [Parameter(a, n, dtype=dtype) for a, n in zip(arrays, names)]
    got = run(lambda: sliding_window_attention(*(transpose(p, (0, 2, 1, 3)) for p in views[:3]), window, roles,
                                               *(transpose(p, (0, 2, 1, 3)) for p in views[3:])), views)
    want = run(lambda: sliding_window_attention(*copies[:3], window, roles, *copies[3:]), copies)
    assert got[0] == want[0]
    for name, grad, copy in zip(names, got[1], copies):
        assert grad == np.ascontiguousarray(copy.grad.transpose(0, 2, 1, 3)).tobytes(), name
