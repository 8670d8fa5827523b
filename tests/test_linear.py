"""`tensor.linear`, the one-node dense layer, against the two-node form it
replaced (`reference_linear` in tests/helpers.py: `add(matmul(x, w), b)`).

The fused op runs flat 2-D gemms where the oracle ran batched ones, so sums
round in another order: values agree within a tolerance set by the dtype,
not bit for bit."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from helpers import finite_difference_check, reachable_nodes, reference_linear

import blf
import blf.encoder
import blf.pretrain
import blf.tensor as T
from blf.encoder import EncoderConfig, preset
from blf.errors import ShapeError
from blf.pretrain import PretrainHyper, RtdPretrainer
from blf.rng import substream
from blf.seq2seq import DecoderConfig, Seq2SeqModel
from blf.tensor import Parameter, Tensor

TOL = {np.float32: 1e-6, np.float64: 1e-12}
SHAPES = [(12, 8), (2, 5, 8), (2, 3, 4, 8)]


def assert_close(got, want, rel):
    """Every entry within `rel` of the largest magnitude in `want`."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def run(op, x_shape, dtype, seed, out=6, x_grad=True, tied=False):
    """Output and x/w/b gradients of `sum(op(x, w, b) * r)` for a random upstream `r`.

    With `tied` the weight is `transpose` of an [out, K] parameter, as in the
    generator head tied to the token embeddings."""
    rng = substream(seed, "linear-case")
    K = x_shape[-1]
    x = Tensor(rng.standard_normal(x_shape), dtype=dtype, requires_grad=x_grad)
    table = Parameter(rng.standard_normal((out, K) if tied else (K, out)), "w", dtype=dtype)
    b = Parameter(rng.standard_normal(out), "b", dtype=dtype)
    w = T.transpose(table, (1, 0)) if tied else table
    y = op(x, w, b)
    T.tsum(T.mul(y, rng.standard_normal(y.shape))).backward()
    return y.data, x.grad, table.grad, b.grad


class TestAgainstTheTwoNodeForm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape", SHAPES, ids=["N,K", "B,L,K", "B,h,L,K"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_output_and_gradients(self, x_shape, dtype, seed):
        got = run(T.linear, x_shape, dtype, seed)
        want = run(reference_linear, x_shape, dtype, seed)
        for g, w in zip(got, want):
            assert_close(g, w, TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transposed_tied_weight(self, dtype):
        got = run(T.linear, (2, 5, 8), dtype, 2, out=10, tied=True)
        want = run(reference_linear, (2, 5, 8), dtype, 2, out=10, tied=True)
        for g, w in zip(got, want):
            assert_close(g, w, TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_x_without_grad(self, dtype):
        y, gx, gw, gb = run(T.linear, (2, 5, 8), dtype, 3, x_grad=False)
        want = run(reference_linear, (2, 5, 8), dtype, 3, x_grad=False)
        assert gx is None and want[1] is None
        for g, w in zip((y, gw, gb), (want[0], want[2], want[3])):
            assert_close(g, w, TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_output_column_dx_is_the_gemm_bit_for_bit(self, dtype):
        # the discriminator head's [H, 1] layer forms dx as an outer product
        rng = substream(4, "linear-one-column")
        x = Tensor(rng.standard_normal((16, 128, 64)), dtype=dtype, requires_grad=True)
        w = Parameter(rng.standard_normal((64, 1)), "w", dtype=dtype)
        b = Parameter(rng.standard_normal(1), "b", dtype=dtype)
        r = rng.standard_normal((16, 128, 1)).astype(dtype)
        T.tsum(T.mul(T.linear(x, w, b), r)).backward()
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, (r.reshape(-1, 1) @ w.data.T).reshape(x.shape))

    @pytest.mark.parametrize("x_shape", SHAPES, ids=["N,K", "B,L,K", "B,h,L,K"])
    def test_work_count_is_the_two_node_count(self, x_shape):
        M, K, O = int(np.prod(x_shape[:-1])), x_shape[-1], 6
        counts = []
        for op in (T.linear, reference_linear):
            x = Tensor(np.ones(x_shape))
            w, b = Tensor(np.ones((K, O))), Tensor(np.ones(O))
            before = T.work()
            op(x, w, b)
            counts.append(T.work() - before)
        assert counts == [M * O * (K + 1)] * 2


class TestOneNode:
    def test_parents_are_x_w_and_b(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        w, b = Parameter(np.ones((4, 5)), "w"), Parameter(np.ones(5), "b")
        y = T.linear(x, w, b)
        assert y.shape == (2, 3, 5) and y._parents == (x, w, b)

    def test_under_no_grad_builds_no_graph(self):
        w, b = Parameter(np.ones((4, 5)), "w"), Parameter(np.ones(5), "b")
        with T.no_grad():
            y = T.linear(Tensor(np.ones((3, 4))), w, b)
        assert not y.requires_grad and y._parents == () and y._backward is None

    def test_finite_differences_f64(self):
        rng = substream(7, "linear-fd")
        x = Parameter(rng.standard_normal((2, 3, 5)), "x", dtype=np.float64)
        w = Parameter(rng.standard_normal((5, 4)), "w", dtype=np.float64)
        b = Parameter(rng.standard_normal(4), "b", dtype=np.float64)
        r = rng.standard_normal((2, 3, 4))

        def loss():
            y = T.linear(x, w, b)
            return T.tsum(T.mul(T.mul(y, y), r))

        finite_difference_check(loss, [x, w, b], rng, h=1e-6, rel_tol=1e-6)


class TestErrors:
    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((2, 3, 4), (5, 6), (6,)),   # inner extents disagree
        ((2, 4), (4,), (4,)),        # weight not 2-D
        ((2, 4), (4, 6), (4,)),      # bias not [O]
        ((2, 4), (4, 6), (1, 6)),    # bias not 1-D
        ((), (1, 6), (6,)),          # scalar x
    ])
    def test_shape_errors(self, x_shape, w_shape, b_shape):
        x, w, b = (Tensor(np.ones(s)) for s in (x_shape, w_shape, b_shape))
        with pytest.raises(ShapeError):
            T.linear(x, w, b)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_dtype_mismatch(self, which):
        shapes = ((2, 4), (4, 6), (6,))
        args = [Tensor(np.ones(s), dtype=np.float64 if i == which else np.float32) for i, s in enumerate(shapes)]
        with pytest.raises(ShapeError, match="dtype mismatch"):
            T.linear(*args)


# --- whole steps: every dense layer fused against every dense layer unfused --------------


def unfused(monkeypatch):
    """Route every dense layer of the package through the two-node oracle."""
    for module in (blf.encoder, blf.pretrain):
        monkeypatch.setattr(module, "linear", reference_linear)


LINEAR = "linear.<locals>.backward"


def node_kinds(root: Tensor) -> Counter:
    """Nodes reachable from `root`, counted by the op that made them."""
    return Counter(getattr(n._backward, "__qualname__", "leaf") for n in reachable_nodes(root))


def rtd_step(monkeypatch):
    """Total loss, parameter gradients and graph node kinds of one seeded
    `tiny` RTD step, before the update."""
    trainer = RtdPretrainer(preset("tiny"), PretrainHyper(batch_size=2, warmup_steps=5, total_steps=50), seed=4)
    out = {}
    backward = Tensor.backward

    def spy(self):
        kinds = node_kinds(self)
        backward(self)
        out["step"] = self.item(), {p.name: p.grad.copy() for p in trainer.opt.params}, kinds

    monkeypatch.setattr(Tensor, "backward", spy)
    ids = substream(4, "linear-ids").integers(5, 512, size=(2, 128))
    ids[1, -20:] = trainer.pad_id
    trainer.step(ids)
    return out["step"]


def seq2seq_batch():
    """Loss, parameter gradients and graph node kinds of one teacher-forced seq2seq batch."""
    cfg = EncoderConfig(vocab_size=40, hidden=16, layers=2, heads=2, intermediate=32, window=4, max_positions=32)
    dec = DecoderConfig(hidden=16, layers=2, heads=2, intermediate=32, max_target_positions=16)
    model = Seq2SeqModel(cfg, dec, seed=6)
    rng = substream(6, "linear-pairs")
    inputs = [rng.integers(5, 40, size=n) for n in (12, 7, 20)]
    targets = [np.r_[0, rng.integers(5, 40, size=n), 1] for n in (6, 9, 3)]
    loss, _ = model.loss_on_batch(inputs, targets)
    kinds = node_kinds(loss)
    loss.backward()
    return loss.item(), {p.name: p.grad.copy() for p in model.params()}, kinds


def assert_step_close(got, want):
    """Losses within 1e-6 relative and every gradient entry within 1e-5; the
    fused graph has one node per dense layer where the unfused one has two."""
    (got_loss, got_grads, got_kinds), (want_loss, want_grads, want_kinds) = got, want
    assert got_loss == pytest.approx(want_loss, rel=1e-6)
    assert got_grads.keys() == want_grads.keys()
    assert any(g.any() for g in want_grads.values())
    for name, g in want_grads.items():
        assert np.max(np.abs(got_grads[name] - g), initial=0.0) <= 1e-5, name
    assert want_kinds[LINEAR] == 0 < got_kinds[LINEAR]
    assert want_kinds.total() - got_kinds.total() == got_kinds[LINEAR]


def test_rtd_step_matches_the_unfused_step(monkeypatch):
    got = rtd_step(monkeypatch)
    with monkeypatch.context() as m:
        unfused(m)
        want = rtd_step(m)
    assert_step_close(got, want)


def test_seq2seq_batch_matches_the_unfused_batch(monkeypatch):
    got = seq2seq_batch()
    with monkeypatch.context() as m:
        unfused(m)
        want = seq2seq_batch()
    assert_step_close(got, want)


# --- the guard: no layer composes the two-node form again -------------------------------


def _named(func, name: str) -> bool:
    """`name(...)` or `obj.name(...)`, numpy's own functions aside."""
    if isinstance(func, ast.Name):
        return func.id == name
    return (isinstance(func, ast.Attribute) and func.attr == name
            and not (isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")))


def _product(node) -> bool:
    return ((isinstance(node, ast.Call) and _named(node.func, "matmul"))
            or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)))


def two_node_dense_layers(source: str) -> list[int]:
    """Lines that add to a graph product: `add(matmul(...), ...)` or `matmul(...) + ...`, either order."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _named(node.func, "add") and any(map(_product, node.args)):
            lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and (
                _product(node.left) or _product(node.right)):
            lines.append(node.lineno)
    return lines


def test_no_module_composes_a_dense_layer_from_two_nodes():
    found = {}
    for path in sorted(Path(blf.__file__).parent.glob("*.py")):
        lines = two_node_dense_layers(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}


@pytest.mark.parametrize("source, flagged", [
    ("add(matmul(x, w), b)", True), ("T.add(T.matmul(x, w), b)", True), ("add(b, matmul(x, w))", True),
    ("matmul(x, w) + b", True), ("b + matmul(x, w)", True), ("x @ w + b", True), ("b + x @ w", True),
    ("linear(x, w, b)", False), ("add(x, h)", False), ("mul(matmul(q, k), s)", False),
    ("np.add(np.matmul(a, b), c)", False), ("np.matmul(a, b) + c", False), ("y = x2 @ w\ny += b", False),
])
def test_the_guard_tells_two_node_layers_from_the_rest(source, flagged):
    assert bool(two_node_dense_layers(source)) == flagged
