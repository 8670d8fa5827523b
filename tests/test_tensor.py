import itertools
import math

import numpy as np
import pytest

from blf import tensor as T
from blf.errors import NumericError, ShapeError, UsageError
from blf.optim import AdamW, schedule_lr
from blf.tensor import Parameter, Tensor

from helpers import finite_difference_check, matmul_triple_loop, reference_gather_grad


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        eye = Tensor(np.eye(3), dtype=np.float64)
        out = T.matmul(eye, Tensor(a, dtype=np.float64))
        np.testing.assert_array_equal(out.data, a)

    def test_forced_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [1.0]])
        out = T.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_against_triple_loop_oracle(self):
        # integer-valued entries keep both summation orders exact in f64
        rng = np.random.default_rng(1)
        a = rng.integers(-8, 9, size=(5, 7)).astype(np.float64)
        b = rng.integers(-8, 9, size=(7, 3)).astype(np.float64)
        out = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        np.testing.assert_array_equal(out.data, matmul_triple_loop(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_dtype_mismatch(self):
        with pytest.raises(ShapeError, match="dtype"):
            T.matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2)), dtype=np.float64))

    def test_batched(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        b = rng.normal(size=(2, 3, 5, 6)).astype(np.float32)
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, np.matmul(a, b), rtol=1e-6)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_large_inputs_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 1000.0]), axis=-1)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_against_f64_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=3.0, size=17)
        out = T.softmax(Tensor(x, dtype=np.float64), axis=-1)
        oracle = np.exp(x) / np.exp(x).sum()
        assert np.abs(out.data - oracle).max() <= 1e-6

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(scale=rng.uniform(0.1, 50), size=(4, 9)).astype(np.float32)
            out = T.softmax(Tensor(x), axis=-1)
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            T.softmax(Tensor([0.0, float("nan")]), axis=-1)


class TestLayerNorm:
    @staticmethod
    def _gb(n, dtype=np.float32):
        return (
            Parameter(np.ones(n), "gain", dtype=dtype),
            Parameter(np.zeros(n), "bias", dtype=dtype),
        )

    def test_constant_row_is_zero(self):
        gain, bias = self._gb(5)
        out = T.layer_norm(Tensor(np.full((2, 5), 7.0)), gain, bias, eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_already_normalized(self):
        gain, bias = self._gb(2, np.float64)
        out = T.layer_norm(Tensor([1.0, -1.0], dtype=np.float64), gain, bias, eps=1e-12)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-6)

    def test_against_f64_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 11))
        g = rng.normal(size=11)
        b = rng.normal(size=11)
        eps = 1e-5
        out = T.layer_norm(
            Tensor(x, dtype=np.float64),
            Parameter(g, "g", dtype=np.float64),
            Parameter(b, "b", dtype=np.float64),
            eps=eps,
        )
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        oracle = (x - mu) / np.sqrt(var + eps) * g + b
        assert np.abs(out.data - oracle).max() <= 1e-6

    def test_zero_length_axis_rejected(self):
        gain, bias = self._gb(0)
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 0))), gain, bias)


class TestCrossEntropy:
    def test_uniform_logits(self):
        v = 13
        out = T.cross_entropy(Tensor(np.zeros((4, v))), np.array([0, 5, 7, 12]))
        np.testing.assert_allclose(out.item(), math.log(v), rtol=1e-6)

    def test_onehot_margin_limit(self):
        logits = np.zeros((1, 6), dtype=np.float32)
        logits[0, 2] = 50.0
        out = T.cross_entropy(Tensor(logits), np.array([2]))
        assert out.item() < 1e-6

    def test_against_f64_log_softmax_oracle(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(scale=2.0, size=(4, 10))
        targets = rng.integers(0, 10, size=4)
        out = T.cross_entropy(Tensor(logits, dtype=np.float64), targets)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        oracle = -logp[np.arange(4), targets].mean()
        assert abs(out.item() - oracle) <= 1e-6

    def test_all_ignored_is_zero_with_zero_grad(self):
        logits = Parameter(np.random.default_rng(7).normal(size=(3, 5)), "logits")
        out = T.cross_entropy(logits, np.full(3, -100), ignore_label=-100)
        assert out.item() == 0.0
        out.backward()
        np.testing.assert_array_equal(logits.grad, 0.0)

    def test_ignored_positions_excluded(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(4, 6))
        targets = np.array([1, -100, 3, -100])
        out = T.cross_entropy(Tensor(logits, dtype=np.float64), targets)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        oracle = -(logp[0, 1] + logp[2, 3]) / 2
        np.testing.assert_allclose(out.item(), oracle, rtol=1e-12)


class TestBceWithLogits:
    def test_zero_logit_is_ln2(self):
        for label in (0.0, 1.0):
            out = T.bce_with_logits(Tensor([0.0]), np.array([label]))
            np.testing.assert_allclose(out.item(), math.log(2), rtol=1e-6)

    def test_confident_correct_limit(self):
        logits = np.array([40.0, -40.0], dtype=np.float32)
        labels = (logits > 0).astype(np.float32)
        out = T.bce_with_logits(Tensor(logits), labels)
        assert out.item() < 1e-6

    def test_against_f64_oracle(self):
        rng = np.random.default_rng(9)
        z = rng.normal(scale=3.0, size=(2, 7))
        y = rng.integers(0, 2, size=(2, 7)).astype(np.float64)
        out = T.bce_with_logits(Tensor(z, dtype=np.float64), y)
        sig = 1.0 / (1.0 + np.exp(-z))
        oracle = -(y * np.log(sig) + (1 - y) * np.log(1 - sig)).mean()
        assert abs(out.item() - oracle) <= 1e-6

    def test_ignore_mask(self):
        z = np.array([[0.0, 5.0]])
        y = np.array([[1.0, 0.0]])
        ignore = np.array([[False, True]])
        out = T.bce_with_logits(Tensor(z, dtype=np.float64), y, ignore)
        np.testing.assert_allclose(out.item(), math.log(2), rtol=1e-9)

    def test_all_ignored_is_zero_with_zero_grad(self):
        logits = Parameter(np.random.default_rng(10).normal(scale=3.0, size=(2, 5)), "logits")
        labels = np.random.default_rng(11).integers(0, 2, size=(2, 5))
        out = T.bce_with_logits(logits, labels, np.ones((2, 5), dtype=bool))
        assert out.item() == 0.0
        out.backward()
        np.testing.assert_array_equal(logits.grad, 0.0)


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter(np.arange(6.0).reshape(2, 3), "p")
        T.tsum(p).backward()
        np.testing.assert_array_equal(p.grad, np.ones((2, 3), dtype=np.float32))

    def test_sum_of_squares_gives_2p(self):
        data = np.arange(1.0, 5.0)
        p = Parameter(data, "p")
        T.tsum(T.mul(p, p)).backward()
        np.testing.assert_allclose(p.grad, 2 * data, rtol=1e-6)

    def test_non_scalar_rejected(self):
        p = Parameter(np.zeros(3), "p")
        with pytest.raises(UsageError):
            T.mul(p, 2.0).backward()

    def test_grad_accumulates_through_shared_node(self):
        p = Parameter(np.array([2.0]), "p", dtype=np.float64)
        y = T.mul(p, p)  # p^2
        loss = T.tsum(T.add(y, y))  # 2 p^2 -> d/dp = 4p
        loss.backward()
        np.testing.assert_allclose(p.grad, [8.0])

    @pytest.mark.parametrize("add_first", [True, False])
    def test_one_upstream_array_reaching_two_nodes_is_not_shared(self, add_first):
        # add hands the same gradient array to x and y; x also gets a second
        # contribution, which must not leak into y's gradient (in either
        # backward order)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), dtype=np.float64, requires_grad=True)
        y = Tensor(rng.normal(size=(3, 4)), dtype=np.float64, requires_grad=True)
        w1, w2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        through_add = T.tsum(T.mul(T.add(x, y), w1))
        direct = T.tsum(T.mul(x, w2))
        loss = T.add(through_add, direct) if add_first else T.add(direct, through_add)
        loss.backward()
        np.testing.assert_allclose(x.grad, w1 + w2, rtol=1e-12)
        np.testing.assert_allclose(y.grad, w1, rtol=1e-12)

    def test_first_gradient_is_broadcast_and_cast_to_the_node(self):
        t = Tensor(np.zeros((2, 3)), dtype=np.float32, requires_grad=True)
        g = np.arange(3, dtype=np.float64)
        t.node._accumulate(g)
        assert t.grad.shape == (2, 3) and t.grad.dtype == np.float32
        g[0] = 7.0
        np.testing.assert_array_equal(t.grad, [[0, 1, 2], [0, 1, 2]])

    def test_matching_first_gradient_is_adopted(self):
        t = Tensor(np.zeros((2, 3)), dtype=np.float32, requires_grad=True)
        g = np.ones((2, 3), dtype=np.float32)
        t.node._accumulate(g)
        assert t.grad is g
        t.node._accumulate(np.full((2, 3), 2.0, dtype=np.float32))
        np.testing.assert_array_equal(g, 3.0)

    def test_transpose_gradient_is_contiguous(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
        w = rng.normal(size=(4, 2, 3))
        T.tsum(T.mul(T.transpose(x, (2, 0, 1)), w)).backward()
        assert x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, w.transpose(1, 2, 0))

    @pytest.mark.parametrize("axes", [*itertools.permutations(range(3)), *itertools.permutations(range(4))])
    def test_transpose_backward_round_trips_every_permutation(self, axes):
        # the upstream gradient is x itself, permuted: the backward must undo the permutation
        shape = (2, 3, 4, 5)[: len(axes)]
        x = Tensor(np.arange(math.prod(shape), dtype=np.float64).reshape(shape), dtype=np.float64,
                   requires_grad=True)
        T.tsum(T.mul(T.transpose(x, axes), x.data.transpose(axes))).backward()
        np.testing.assert_array_equal(x.grad, x.data)


class TestEmbeddingBackward:
    def test_matches_scatter_add_with_many_repeats(self):
        rng = np.random.default_rng(1)
        V, H = 40, 6
        ids = rng.integers(0, 7, size=(5, 33))  # 165 lookups over 7 rows
        g = rng.normal(size=(5, 33, H))
        want = rng.normal(size=(V, H))
        weight = Parameter(rng.normal(size=(V, H)), "w", dtype=np.float64)
        weight.grad[...] = want  # an earlier contribution must be kept
        np.add.at(want, ids.reshape(-1), g.reshape(-1, H))
        T.tsum(T.mul(T.embedding(weight, ids), g)).backward()
        assert np.max(np.abs(weight.grad - want)) <= 1e-12

    def test_table_without_grad_gets_one(self):
        rng = np.random.default_rng(2)
        weight = Tensor(rng.normal(size=(9, 4)), dtype=np.float64, requires_grad=True)
        ids = np.array([[3, 1, 3], [8, 3, 1]])
        g = rng.normal(size=(2, 3, 4))
        T.tsum(T.mul(T.embedding(weight, ids), g)).backward()
        want = np.zeros((9, 4))
        np.add.at(want, ids.reshape(-1), g.reshape(-1, 4))
        assert np.max(np.abs(weight.grad - want)) <= 1e-12


class TestGatherBackward:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("earlier", [False, True])
    def test_matches_the_add_at_oracle(self, axis, earlier):
        rng = np.random.default_rng(10 + axis)
        x = Tensor(rng.normal(size=(5, 6, 3)), dtype=np.float64, requires_grad=True)
        indices = rng.integers(0, x.shape[axis], size=(4, 7))  # 28 reads of at most 6 slices
        g = rng.normal(size=np.take(x.data, indices, axis=axis).shape)
        want = reference_gather_grad(x.shape, indices, g, axis)
        if earlier:  # a gradient from another consumer is added to
            x.grad = rng.normal(size=x.shape)
            want += x.grad
        T.tsum(T.mul(T.gather(x, indices, axis), g)).backward()
        assert np.max(np.abs(x.grad - want)) <= 1e-12


@pytest.mark.parametrize(
    "op_name",
    [
        "add",
        "mul",
        "matmul",
        "reshape",
        "transpose",
        "concat",
        "slice_axis",
        "gather",
        "embedding",
        "masked_fill",
        "softmax",
        "gelu",
        "layer_norm",
        "dropout",
        "cross_entropy",
        "bce_with_logits",
        "tmean",
    ],
)
def test_finite_difference_every_op(op_name):
    rng = np.random.default_rng(sum(op_name.encode()))
    p = Parameter(rng.normal(size=(4, 5)), "p", dtype=np.float64)
    p2 = Parameter(rng.normal(size=(4, 5)), "p2", dtype=np.float64)
    mix = rng.normal(size=(4, 5))

    if op_name == "add":
        make = lambda: T.tsum(T.mul(T.add(p, p2), mix))
        params = [p, p2]
    elif op_name == "mul":
        make = lambda: T.tsum(T.mul(T.mul(p, p2), mix))
        params = [p, p2]
    elif op_name == "matmul":
        q = Parameter(rng.normal(size=(5, 3)), "q", dtype=np.float64)
        out_mix = rng.normal(size=(4, 3))
        make = lambda: T.tsum(T.mul(T.matmul(p, q), out_mix))
        params = [p, q]
    elif op_name == "reshape":
        make = lambda: T.tsum(T.mul(T.reshape(p, (2, 10)), mix.reshape(2, 10)))
        params = [p]
    elif op_name == "transpose":
        make = lambda: T.tsum(T.mul(T.transpose(p, (1, 0)), mix.T))
        params = [p]
    elif op_name == "concat":
        cmix = rng.normal(size=(8, 5))
        make = lambda: T.tsum(T.mul(T.concat([p, p2], axis=0), cmix))
        params = [p, p2]
    elif op_name == "slice_axis":
        smix = rng.normal(size=(2, 5))
        make = lambda: T.tsum(T.mul(T.slice_axis(p, 0, 1, 3), smix))
        params = [p]
    elif op_name == "gather":
        idx = np.array([[0, 2], [3, 0]])
        gmix = rng.normal(size=(2, 2, 5))
        make = lambda: T.tsum(T.mul(T.gather(p, idx, axis=0), gmix))
        params = [p]
    elif op_name == "embedding":
        ids = np.array([[0, 3, 3], [1, 2, 0]])
        emix = rng.normal(size=(2, 3, 5))
        make = lambda: T.tsum(T.mul(T.embedding(p, ids), emix))
        params = [p]
    elif op_name == "masked_fill":
        mask = rng.random((4, 5)) < 0.4
        make = lambda: T.tsum(T.mul(T.masked_fill(p, mask, -3.0), mix))
        params = [p]
    elif op_name == "softmax":
        make = lambda: T.tsum(T.mul(T.softmax(p, axis=-1), mix))
        params = [p]
    elif op_name == "gelu":
        make = lambda: T.tsum(T.mul(T.gelu(p), mix))
        params = [p]
    elif op_name == "layer_norm":
        gain = Parameter(rng.normal(size=5), "gain", dtype=np.float64)
        bias = Parameter(rng.normal(size=5), "bias", dtype=np.float64)
        make = lambda: T.tsum(T.mul(T.layer_norm(p, gain, bias, eps=1e-5), mix))
        params = [p, gain, bias]
    elif op_name == "dropout":
        # fixed mask: rebuild the rng with the same seed each evaluation
        make = lambda: T.tsum(
            T.mul(T.dropout(p, 0.3, np.random.default_rng(123)), mix)
        )
        params = [p]
    elif op_name == "cross_entropy":
        targets = np.array([1, 4, -100, 0])
        make = lambda: T.cross_entropy(p, targets, ignore_label=-100)
        params = [p]
    elif op_name == "bce_with_logits":
        labels = rng.integers(0, 2, size=(4, 5)).astype(np.float64)
        ignore = rng.random((4, 5)) < 0.2
        make = lambda: T.bce_with_logits(p, labels, ignore)
        params = [p]
    elif op_name == "tmean":
        make = lambda: T.tsum(T.mul(T.tmean(p, axis=1, keepdims=True), mix[:, :1]))
        params = [p]
    else:
        raise AssertionError(op_name)

    finite_difference_check(make, params, rng)


class TestSchedule:
    def test_peak_at_warmup(self):
        assert schedule_lr(3e-4, 100, 100, 1000) == pytest.approx(3e-4)

    def test_zero_at_total(self):
        assert schedule_lr(3e-4, 1000, 100, 1000) == 0.0

    def test_clamps_past_total(self):
        assert schedule_lr(3e-4, 5000, 100, 1000) == 0.0

    def test_linear_ramp(self):
        assert schedule_lr(1.0, 50, 100, 1000) == pytest.approx(0.5)
        assert schedule_lr(1.0, 550, 100, 1000) == pytest.approx(0.5)

    def test_nonpositive_rejected(self):
        with pytest.raises(UsageError):
            schedule_lr(1.0, 1, 0, 10)


class TestAdamW:
    def test_quadratic_converges_to_minimizer(self):
        target = np.array([3.0, -1.5, 0.25], dtype=np.float32)
        p = Parameter(np.zeros(3), "p")
        opt = AdamW([p], base_lr=0.2, warmup_steps=20, total_steps=200, weight_decay=0.0)
        for _ in range(200):
            diff = T.add(p, -target)
            T.tsum(T.mul(diff, diff)).backward()
            opt.step()
        assert np.abs(p.data - target).max() < 1e-2

    def test_grads_zeroed_after_step(self):
        p = Parameter(np.ones(4), "p")
        opt = AdamW([p], base_lr=0.1, warmup_steps=1, total_steps=10)
        T.tsum(T.mul(p, p)).backward()
        assert np.any(p.grad != 0)
        opt.step()
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_weight_decay_shrinks_without_grad_signal(self):
        p = Parameter(np.full(3, 10.0), "p")
        opt = AdamW([p], base_lr=0.1, weight_decay=0.1)
        T.mul(T.tsum(p), 0.0).backward()  # zero gradient everywhere
        opt.step()
        assert np.all(np.abs(p.data) < 10.0)

    def test_non_finite_gradient_refused_before_anything_moves(self):
        p = Parameter(np.ones(3), "p")
        q = Parameter(np.full(2, 2.0), "q")
        opt = AdamW([p, q], base_lr=0.1, warmup_steps=1, total_steps=10)
        T.tsum(T.mul(p, p)).backward()
        opt.step()
        before = [a.copy() for a in [p.data, q.data, *opt.moment_arrays().values()]]
        T.add(T.tsum(T.mul(p, p)), T.tsum(T.mul(q, q))).backward()
        q.grad[1] = np.nan
        with pytest.raises(NumericError, match=r"^non-finite gradient in q$"):
            opt.step()
        assert opt.step_count == 1
        for a, b in zip([p.data, q.data, *opt.moment_arrays().values()], before):
            np.testing.assert_array_equal(a, b)
        assert not p.grad.any() and not q.grad.any()

    def test_lr_constant_when_unscheduled(self):
        p = Parameter(np.ones(1), "p")
        opt = AdamW([p], base_lr=7e-5)
        assert opt.current_lr() == 7e-5
        T.tsum(p).backward()
        opt.step()
        assert opt.current_lr() == 7e-5


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.normal(size=(3, 8)).astype(np.float32))
            h = T.dropout(T.gelu(x), 0.2, np.random.default_rng(5))
            return T.softmax(h, axis=-1).data.tobytes()

        assert run() == run()


class TestWorkCounter:
    def test_matmul_work(self):
        T.reset_work()
        T.matmul(Tensor(np.zeros((4, 5))), Tensor(np.zeros((5, 6))))
        assert T.work() == 4 * 5 * 6


class TestNoGrad:
    @staticmethod
    def graph(p):
        return T.tsum(T.mul(T.add(p, 1.0), p))

    def test_results_inside_are_leaves(self):
        p = Parameter(np.ones(3), "p")
        with T.no_grad():
            out = self.graph(p)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        assert out.item() == 6.0

    def test_flag_restored_after_normal_exit(self):
        p = Parameter(np.ones(3), "p")
        with T.no_grad():
            pass
        out = self.graph(p)
        assert out.requires_grad
        out.backward()
        np.testing.assert_array_equal(p.grad, [3.0, 3.0, 3.0])

    def test_flag_restored_after_exception(self):
        p = Parameter(np.ones(3), "p")
        with pytest.raises(UsageError):
            with T.no_grad():
                Tensor(np.zeros(2)).backward()
        assert self.graph(p).requires_grad

    def test_nesting_keeps_it_off_until_the_outermost_exit(self):
        p = Parameter(np.ones(3), "p")
        with T.no_grad():
            with T.no_grad():
                assert not self.graph(p).requires_grad
            assert not self.graph(p).requires_grad
        assert self.graph(p).requires_grad

    def test_works_as_a_decorator(self):
        p = Parameter(np.ones(3), "p")
        leaf = T.no_grad()(self.graph)
        assert not leaf(p).requires_grad
        assert not leaf(p).requires_grad  # each call enters afresh
        assert self.graph(p).requires_grad
