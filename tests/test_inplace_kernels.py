"""The in-place `gelu`, `layer_norm` backward, `cross_entropy`,
`sample_replacements` and `AdamW.step` against the versions with full-size
temporaries that they replaced, `softmax_` against the softmax it computes,
and the attention's overlap-add of chunk products against one np.add.at
scatter (tests/helpers.py)."""

import numpy as np
import pytest
from helpers import (
    reference_adamw_step,
    reference_cross_entropy,
    reference_gelu,
    reference_layer_norm,
    reference_overlap_add,
    reference_sample_replacements,
)

from blf.attention import _chunk_size, _overlap_add
from blf.errors import NumericError
from blf.optim import AdamW
from blf.pretrain import sample_replacements
from blf.rng import substream
from blf.tensor import Parameter, cross_entropy, gelu, layer_norm, softmax_


def forward_backward(op, x, g):
    p = Parameter(x.copy(), "x", dtype=x.dtype)
    out = op(p)
    out.grad = g
    out._backward(g)
    return out.data, p.grad


class TestGelu:
    @pytest.mark.parametrize("dtype, atol, rtol", [(np.float64, 1e-12, 1e-12), (np.float32, 2e-6, 0.0)])
    def test_matches_the_reference(self, dtype, atol, rtol):
        rng = np.random.default_rng(0)
        x = (rng.standard_normal((4, 32, 48)) * 3.0).astype(dtype)
        x.reshape(-1)[:6] = [0.0, -0.0, 12.0, -12.0, 1e-30, -30.0]
        g = rng.standard_normal(x.shape).astype(dtype)
        out, grad = forward_backward(gelu, x, g)
        ref_out, ref_grad = forward_backward(reference_gelu, x, g)
        assert out.dtype == grad.dtype == np.dtype(dtype)
        assert out.tobytes() == ref_out.tobytes()  # the forward runs the same roundings in the same order
        np.testing.assert_allclose(grad, ref_grad, atol=atol, rtol=rtol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inputs_are_not_mutated(self, dtype):
        rng = np.random.default_rng(1)
        x = Parameter(rng.standard_normal((3, 7)), "x", dtype=dtype)
        g = rng.standard_normal((3, 7)).astype(dtype)
        x_before, g_before = x.data.copy(), g.copy()
        out = gelu(x)
        assert out.dtype == x.dtype
        out._backward(g)
        assert np.array_equal(x.data, x_before) and np.array_equal(g, g_before)
        out._backward(g)  # a second backward sees the same saved state
        np.testing.assert_allclose(x.grad, 2 * forward_backward(reference_gelu, x_before, g)[1], rtol=1e-5)


class TestLayerNorm:
    @staticmethod
    def forward_backward(op, x, gain, bias, g):
        ps = [Parameter(a.copy(), name, dtype=a.dtype) for a, name in ((x, "x"), (gain, "gain"), (bias, "bias"))]
        out = op(*ps)
        out._backward(g.copy())
        return [out.data] + [p.grad for p in ps]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_reference(self, seed, dtype):
        rng = substream(seed, "layer-norm")
        x = (rng.standard_normal((3, 17, 40)) * 2.0 + 0.5).astype(dtype)
        gain = (1.0 + 0.2 * rng.standard_normal(40)).astype(dtype)
        bias = (0.1 * rng.standard_normal(40)).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        got = self.forward_backward(layer_norm, x, gain, bias, g)
        want = self.forward_backward(reference_layer_norm, x, gain, bias, g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.dtype(dtype)
            assert a.tobytes() == b.tobytes()


class TestCrossEntropy:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_reference(self, seed, dtype):
        rng = substream(seed, "ce")
        logits = (rng.standard_normal((40, 97)) * 4.0).astype(dtype)
        targets = rng.integers(0, 97, size=40)
        targets[rng.random(40) < 0.3] = -100
        got = Parameter(logits.copy(), "l", dtype=dtype)
        want = Parameter(logits.copy(), "l", dtype=dtype)
        loss, ref = cross_entropy(got, targets), reference_cross_entropy(want, targets)
        assert loss.data.tobytes() == ref.data.tobytes()
        loss.backward()
        ref.backward()
        assert got.grad.tobytes() == want.grad.tobytes()


class TestSampleReplacements:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identical_to_the_reference(self, seed, dtype):
        logits = (substream(seed, "logits").standard_normal((64, 200)) * 5.0).astype(dtype)
        before = logits.copy()
        got = sample_replacements(logits, substream(seed, "draw"))
        assert np.array_equal(got, reference_sample_replacements(logits, substream(seed, "draw")))
        assert np.array_equal(logits, before)

    def test_non_finite_logits_still_raise(self):
        with pytest.raises(NumericError):
            sample_replacements(np.array([[0.0, -np.inf]]), substream(0, "draw"))


class TestOverlapAdd:
    """`_overlap_add` sums the chunk products a @ b back onto the sequence
    with ceil(L / c) strided adds; the oracle scatters all of them at once."""

    @staticmethod
    def operands(window, n, dtype, integers):
        rng = np.random.default_rng(window * 100 + n)
        c = _chunk_size(window)
        a = rng.standard_normal((2, 3, n, c + window, c))
        b = rng.standard_normal((2, 3, n, c, 4))
        if integers:
            a, b = np.round(a * 4), np.round(b * 4)
        return a.astype(dtype), b.astype(dtype), c

    @pytest.mark.parametrize("window", [2, 6, 8, 10, 32, 64, 256])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3])
    def test_byte_identical_on_integer_values(self, window, dtype, n):
        # small integers add exactly in any order, so the bytes must agree
        a, b, c = self.operands(window, n, dtype, integers=True)
        out = _overlap_add(a, b, c)
        assert out.dtype == np.dtype(dtype)
        assert out.tobytes() == reference_overlap_add(a @ b, c).tobytes()

    @pytest.mark.parametrize("window", [2, 8, 30, 64])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_close_on_normal_values(self, window, dtype, tol):
        a, b, c = self.operands(window, 5, dtype, integers=False)
        want = reference_overlap_add(a @ b, c)
        assert np.max(np.abs(_overlap_add(a, b, c) - want)) <= tol * np.max(np.abs(want))


class TestSoftmaxInPlace:
    @staticmethod
    def rows(dtype):
        rng = substream(0, "softmax-rows")
        x = (rng.standard_normal((12, 33)) * 10.0).astype(dtype)
        big = np.finfo(dtype).max
        x[0, 3] = np.inf
        x[1, :] = -np.inf
        x[2, 5] = -np.inf
        x[3, 7:9] = [big, -big]
        x[4, :] = big
        x[5, 0], x[5, 1] = np.inf, -np.inf
        x[6, :4] = [1e30, -1e30, 3e4, -3e4] if dtype == np.float32 else [1e300, -1e300, 1e30, -1e30]
        return x

    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_the_plain_softmax(self, axis, dtype):
        x = self.rows(dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            e = np.exp(x - x.max(axis=axis, keepdims=True))
            want = e / e.sum(axis=axis, keepdims=True)
            got = softmax_(x.copy(), axis)
        assert got.dtype == np.dtype(dtype)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("where", [(0, 0), (5, 32), (3, 8), (0, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_nan_anywhere_raises_before_anything_is_written(self, where, dtype):
        """Beside finite values, ±inf and the largest finite values."""
        x = self.rows(dtype)
        x[where] = np.nan
        before = x.copy()
        with pytest.raises(NumericError):
            softmax_(x)
        assert x.tobytes() == before.tobytes()


class TestAdamW:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_the_reference(self, weight_decay, dtype):
        """Seven steps across a two-step warmup, the decay and the clamp at 0."""
        rng = substream(0, "adamw")
        shapes = [(7, 5), (5,), (3, 4, 2)]
        inits = [rng.standard_normal(s).astype(dtype) for s in shapes]

        def optimizer():
            params = [Parameter(a.copy(), f"p{i}", dtype=dtype) for i, a in enumerate(inits)]
            return AdamW(params, base_lr=3e-2, warmup_steps=2, total_steps=6, weight_decay=weight_decay)

        got, want = optimizer(), optimizer()
        for _ in range(7):
            grads = [(rng.standard_normal(s) * rng.uniform(1e-3, 1e3)).astype(dtype) for s in shapes]
            for opt in (got, want):
                for p, g in zip(opt.params, grads):
                    p.grad[...] = g
            assert got.step() == reference_adamw_step(want)
            for a, b in zip(got.params, want.params):
                assert a.data.dtype == np.dtype(dtype)
                assert a.data.tobytes() == b.data.tobytes()
                assert not a.grad.any()
            for (name, a), b in zip(got.moment_arrays().items(), want.moment_arrays().values()):
                assert a.tobytes() == b.tobytes(), name
