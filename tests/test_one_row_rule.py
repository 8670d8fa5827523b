"""The one rounding rule of `blf.tensor`'s products, and the guard that keeps
every model product behind it; and the guard that keeps `np.add.at` and the
other ufuncs' `.at` out of the package.

numpy sends a left operand with one row to gemv, which rounds differently from
gemm. The forward of `matmul` and of `linear` runs such an operand as that row
stacked twice and keeps row 0, so a row's product does not depend on whether
it came alone. The cases use K=64 in f32, where the two kernels' sums differ on
common BLAS builds."""

import ast
from pathlib import Path

import numpy as np
import pytest

import blf
import blf.tensor as T
from blf.rng import substream
from blf.tensor import Tensor

K = 64


def normal(shape, seed):
    return substream(seed, "one-row").standard_normal(shape).astype(np.float32)


def stacked(a, b):
    """Row 0 of `a`'s one row stacked twice, times `b`."""
    return (np.concatenate((a, a), axis=-2) @ b)[..., :1, :]


class TestMatmul:
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((1, K), (K, 48)),
        ((3, 1, K), (K, 48)),
        ((2, 4, 1, K), (2, 4, K, 7)),
        ((2, 4, 1, K), (1, 4, K, 7)),
    ], ids=["2-D", "3-D by 2-D", "per head", "broadcast batch"])
    def test_one_row_is_row_zero_of_two(self, a_shape, b_shape):
        a, b = normal(a_shape, 0), normal(b_shape, 1)
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.array_equal(got, stacked(a, b))

    def test_one_row_alone_equals_that_row_among_others(self):
        a, b = normal((5, K), 2), normal((K, 48), 3)
        many = T.matmul(Tensor(np.stack((a[:2], a[:2]))), Tensor(b)).data
        one = T.matmul(Tensor(a[None, :1]), Tensor(b)).data
        assert np.array_equal(one[0], many[0, :1])

    def test_more_rows_are_a_plain_product(self):
        a, b = normal((3, 2, K), 4), normal((K, 48), 5)
        assert np.array_equal(T.matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_backward_is_unchanged(self):
        a = Tensor(normal((1, K), 6), requires_grad=True)
        b = Tensor(normal((K, 48), 7), requires_grad=True)
        g = normal((1, 48), 8)
        T.tsum(T.mul(T.matmul(a, b), g)).backward()
        assert np.array_equal(a.grad, g @ b.data.T)
        assert np.array_equal(b.grad, a.data.T @ g)


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(1, K), (1, 1, K), (1, 1, 1, K)])
    def test_one_row_is_row_zero_of_two(self, x_shape):
        x, w, b = normal(x_shape, 10), normal((K, 48), 11), normal(48, 12)
        got = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        want = stacked(x.reshape(1, K), w) + b
        assert np.array_equal(got, want.reshape(*x_shape[:-1], 48))

    def test_more_rows_are_a_plain_product(self):
        x, w, b = normal((2, 3, K), 13), normal((K, 48), 14), normal(48, 15)
        got = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.array_equal(got, (x.reshape(6, K) @ w + b).reshape(2, 3, 48))


# --- the guard: model code forms no product outside the ops -------------------------------

GUARDED = ("encoder.py", "seq2seq.py", "pretrain.py")  # attention.py's kernels are the fused op
RAW = ("matmul", "dot", "einsum")


def raw_products(source: str) -> list[int]:
    """Lines with `@` or a numpy `matmul`, `dot` or `einsum` call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in RAW
              and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")):
            lines.append(node.lineno)
    return lines


def test_no_model_module_forms_a_raw_numpy_product():
    root = Path(blf.__file__).parent
    found = {name: raw_products((root / name).read_text(encoding="utf-8")) for name in GUARDED}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source, flagged", [
    ("x @ w", True), ("y @= w", True), ("np.matmul(a, b)", True), ("numpy.dot(a, b)", True),
    ("np.einsum('ij,jk->ik', a, b)", True), ("matmul(x, w)", False), ("T.matmul(x, w)", False),
    ("linear(x, w, b)", False), ("np.concatenate([a, b])", False), ("a * b", False),
])
def test_the_guard_tells_raw_products_from_the_rest(source, flagged):
    assert bool(raw_products(source)) == flagged


# --- the guard: no module scatters with a ufunc's `.at` -------------------------------


def ufunc_at_calls(source: str) -> list[int]:
    """Lines that call `.at` on a numpy ufunc, named as `np.add`, `numpy.add` or `add`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "at":
            owner = node.func.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if isinstance(getattr(np, name or "", None), np.ufunc):
                lines.append(node.lineno)
    return lines


def test_no_module_calls_a_ufunc_at():
    root = Path(blf.__file__).parent
    found = {path.name: lines for path in sorted(root.glob("*.py"))
             if (lines := ufunc_at_calls(path.read_text(encoding="utf-8")))}
    assert found == {}


@pytest.mark.parametrize("source, flagged", [
    ("np.add.at(a, i, g)", True), ("numpy.maximum.at(a, i, g)", True), ("add.at(a, i, g)", True),
    ("np.add.reduceat(g, s, axis=0)", False), ("a[i] += g", False), ("np.take(a, i, axis=0)", False),
    ("self.at(i)", False),
])
def test_the_guard_tells_ufunc_at_calls_from_the_rest(source, flagged):
    assert bool(ufunc_at_calls(source)) == flagged
