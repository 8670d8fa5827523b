"""`tensor.ffn`, the feed-forward branch as one node, against the three-node
composition it replaced (`reference_ffn` in tests/helpers.py): the same bits
for the output and every gradient, the same work count, and the finite
differences of the loss."""

import numpy as np
import pytest
from helpers import finite_difference_check, reference_ffn

import blf.tensor as T
from blf.errors import ShapeError
from blf.tensor import Parameter, Tensor, embedding, ffn


def weights(rng, K, I, O, dtype):
    arrays = (rng.standard_normal((K, I)) / np.sqrt(K), 0.1 * rng.standard_normal(I),
              rng.standard_normal((I, O)) / np.sqrt(I), 0.1 * rng.standard_normal(O))
    return [a.astype(dtype) for a in arrays]


def run(op, x, w, mix, rows):
    """The loss sum(op(x') * mix), x' = x or its flat `rows`, backpropagated;
    returns (output bytes, gradient bytes per parameter, work)."""
    xp = Parameter(x, "x", dtype=x.dtype)
    ps = [Parameter(a, name, dtype=a.dtype) for a, name in zip(w, ("w1", "b1", "w2", "b2"))]
    xin = xp if rows is None else embedding(xp, rows)
    T.reset_work()
    out = op(xin, *ps)
    work = T.work()
    T.tsum(T.mul(out, Tensor(mix, dtype=x.dtype))).backward()
    return out.data.tobytes(), [p.grad.tobytes() for p in (xp, *ps)], work


# (x shape, rows, I, O): full rows [B, L, K]; the generator's cut to the flat
# rows of [B, L, K] a loss reads; the discriminator head's one output column;
# one row alone, which the forward runs as a doubled row
CASES = [((2, 9, 8), None, 32, 8), ((3, 7, 8), np.array([0, 4, 5, 11, 20]), 32, 8),
         ((2, 6, 8), None, 8, 1), ((1, 1, 8), None, 32, 8), ((4, 5, 8), np.array([3]), 16, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, rows, I, O", CASES)
def test_bit_identical_to_the_composition(dtype, shape, rows, I, O):
    rng = np.random.default_rng(sum(shape) + I + O)
    x = (2.0 * rng.standard_normal(shape)).astype(dtype)
    w = weights(rng, shape[-1], I, O, dtype)
    n = (shape[0] * shape[1]) if rows is None else rows.size
    mix = rng.standard_normal((*(shape[:-1] if rows is None else (n,)), O))
    out, grads, work = run(ffn, x, w, mix, rows)
    ref_out, ref_grads, ref_work = run(reference_ffn, x, w, mix, rows)
    assert out == ref_out
    for name, got, want in zip(("x", "w1", "b1", "w2", "b2"), grads, ref_grads):
        assert got == want, name
    # GELU counted at 6 per element, as in the composition
    assert work == ref_work == n * (shape[-1] * I + I + 6 * I + I * O + O)


def test_under_no_grad_keeps_nothing():
    rng = np.random.default_rng(1)
    w = [Parameter(a, name) for a, name in zip(weights(rng, 8, 16, 8, np.float32), "abcd")]
    x = Parameter(rng.standard_normal((3, 8)), "x")
    with T.no_grad():
        out = ffn(x, *w)
    assert out._backward is None and out._parents == ()
    assert out.data.tobytes() == reference_ffn(x, *w).data.tobytes()


@pytest.mark.parametrize("I, O", [(12, 5), (6, 1)])
def test_finite_differences_f64(I, O):
    rng = np.random.default_rng(I + O)
    x = Parameter(rng.standard_normal((2, 3, 4)), "x", dtype=np.float64)
    ps = [Parameter(a, name, dtype=np.float64) for a, name in zip(weights(rng, 4, I, O, np.float64), "abcd")]
    mix = Tensor(rng.standard_normal((2, 3, O)), dtype=np.float64)
    finite_difference_check(lambda: T.tsum(T.mul(ffn(x, *ps), mix)), [x, *ps], rng, h=1e-6, rel_tol=1e-6)


@pytest.mark.parametrize("bad", [dict(w1=(5, 6)), dict(b1=(5,)), dict(w2=(5, 3)), dict(b2=(2,)),
                                 dict(b2=((3,), np.float64))])
def test_mismatched_operands_are_a_shape_error(bad):
    fit = {"w1": (4, 6), "b1": (6,), "w2": (6, 3), "b2": (3,)}
    operands = []
    for name, shape in (fit | bad).items():
        shape, dtype = shape if isinstance(shape[0], tuple) else (shape, np.float32)
        operands.append(Tensor(np.ones(shape), dtype=dtype))
    with pytest.raises(ShapeError):
        ffn(Tensor(np.ones((2, 4))), *operands)
