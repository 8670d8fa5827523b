"""The generator MLM head at the masked rows only, against the full-head oracle;
`embedding` on a hidden state [B, L, H], the lookup that selects those rows;
and the step's graph size and memory."""

import tracemalloc

import numpy as np
import pytest
from helpers import finite_difference_check, reachable_nodes, reference_full_head_step

import blf.tensor as T
from blf.encoder import EncoderConfig, preset, split_heads
from blf.pretrain import PretrainHyper, RtdPretrainer
from blf.rng import substream
from blf.errors import RangeError
from blf.tensor import Parameter, Tensor, embedding


def trainer_for(seed, dropout=0.0, **hyper_kw):
    cfg = EncoderConfig(vocab_size=48, hidden=16, layers=2, heads=2, intermediate=32, window=4,
                        max_positions=32, dropout=dropout)
    hyper = dict(batch_size=3, base_lr=1e-3, warmup_steps=4, total_steps=100, depth_divisor=2)
    hyper.update(hyper_kw)
    return RtdPretrainer(cfg, PretrainHyper(**hyper), seed=seed)


def batch_ids(seed, pad_tail):
    ids = substream(seed, "head-ids").integers(5, 48, size=(3, 20))
    if pad_tail:
        ids[:, -pad_tail:] = 2
    return ids


def masked_head_step(trainer, ids, monkeypatch):
    """`trainer.step` with the optimizer stubbed out, so the gradients of the
    total loss stay in the parameters. Returns (batch, generator logits,
    metrics): the logits as `build_batch` made them, since `step` drops them
    from the batch after the generator's backward."""
    built = []
    build = trainer.build_batch

    def build_batch(x):
        batch = build(x)
        built.append((batch, batch.gen_logits))
        return batch

    monkeypatch.setattr(trainer, "build_batch", build_batch)
    monkeypatch.setattr(trainer.opt, "step", lambda: 0.0)
    metrics = trainer.step(ids)
    return (*built[0], metrics)


def grads(trainer):
    return {p.name: p.grad.copy() for p in trainer.opt.params}


class TestMaskedRowHead:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_full_head(self, seed, monkeypatch):
        dropout, pad_tail = (0.1 if seed % 2 else 0.0), seed % 4
        ids = batch_ids(seed, pad_tail)
        new = trainer_for(seed, dropout)
        batch, logits, metrics = masked_head_step(new, ids, monkeypatch)
        old = trainer_for(seed, dropout)
        ref_batch, ref_ce, _ = reference_full_head_step(old, ids)

        rows = np.flatnonzero(batch.masked_positions)
        assert rows.size > 0
        assert logits.shape == (rows.size, 48)
        np.testing.assert_allclose(logits.data, ref_batch.gen_logits.data.reshape(-1, 48)[rows],
                                   rtol=1e-5, atol=1e-5)
        for name in ("masked_positions", "generator_input", "corrupted_ids", "disc_labels"):
            assert np.array_equal(getattr(batch, name), getattr(ref_batch, name)), name
        assert metrics["gen_loss"] == pytest.approx(float(ref_ce.data), rel=1e-5, abs=1e-5)
        got, want = grads(new), grads(old)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5, atol=1e-5, err_msg=name)
        # the sample stream sits where the full head left it
        for name in new.rngs:
            assert new.rngs[name].bit_generator.state == old.rngs[name].bit_generator.state, name

    def test_no_masked_position(self, monkeypatch):
        ids = batch_ids(0, 2)
        new = trainer_for(0, mlm_probability=0.0)
        batch, logits, metrics = masked_head_step(new, ids, monkeypatch)
        old = trainer_for(0, mlm_probability=0.0)
        _, ref_ce, _ = reference_full_head_step(old, ids)
        assert logits.shape == (0, 48)
        assert metrics["gen_loss"] == 0.0 == float(ref_ce.data)
        assert np.array_equal(batch.corrupted_ids, ids)
        got, want = grads(new), grads(old)
        for name in want:
            assert np.isfinite(got[name]).all(), name
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5, atol=1e-5, err_msg=name)
        assert not got["gen.head.bias"].any()


class TestEmbeddingOfHiddenRows:
    """`embedding` reads a table [..., H] as its rows [N, H] at flat ids."""

    def test_values_and_shape(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), dtype=np.float64)
        out = embedding(x, np.array([1, 4, 5]))
        assert out.shape == (3, 4)
        assert np.array_equal(out.data, x.data.reshape(6, 4)[[1, 4, 5]])

    def test_repeated_ids_are_summed(self):
        rng = np.random.default_rng(5)
        p = Parameter(rng.standard_normal((2, 3, 4)), "x", dtype=np.float64)
        ids = np.array([[4, 0, 4], [5, 4, 0]])
        g = rng.standard_normal((2, 3, 4))
        T.tsum(T.mul(embedding(p, ids), g)).backward()
        want = np.zeros((6, 4))
        np.add.at(want, ids.reshape(-1), g.reshape(-1, 4))
        assert np.max(np.abs(p.grad.reshape(6, 4) - want)) <= 1e-12

    def test_empty_selection(self):
        p = Parameter(np.ones((2, 3, 4)), "x", dtype=np.float64)
        out = embedding(p, np.array([], dtype=np.int64))
        assert out.shape == (0, 4)
        T.tsum(out).backward()
        assert not p.grad.any()

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_flat_id_out_of_range_is_a_range_error(self, bad):
        x = Tensor(np.zeros((2, 3, 4)), dtype=np.float64)
        with pytest.raises(RangeError, match=r"outside \[0, 6\)"):
            embedding(x, np.array([0, bad]))

    def test_finite_differences_f64(self):
        rng = np.random.default_rng(3)
        p = Parameter(rng.standard_normal((2, 5, 3)), "x", dtype=np.float64)
        rows = np.flatnonzero(rng.random((2, 5)) < 0.5)
        mix = Tensor(rng.standard_normal((rows.size, 3)), dtype=np.float64)
        finite_difference_check(lambda: T.tsum(T.mul(T.gelu(embedding(p, rows)), mix)), [p], rng, h=1e-6,
                                rel_tol=1e-6)
        assert not p.grad.reshape(10, 3)[np.setdiff1d(np.arange(10), rows)].any()

    def test_backward_never_scatter_adds(self, monkeypatch):
        class NoAddAt:
            def __getattr__(self, name):
                return getattr(add, name)

            def at(self, *args, **kwargs):
                raise AssertionError("np.add.at called")

        def backprop(op):
            p = Parameter(np.ones((2, 4, 3)), "x", dtype=np.float64)
            T.tsum(op(p, np.array([0, 3, 6, 3]))).backward()
            return p.grad

        add = np.add
        monkeypatch.setattr(np, "add", NoAddAt())
        assert backprop(embedding).sum() == 12.0
        assert backprop(lambda p, rows: T.gather(T.reshape(p, (8, 3)), rows, axis=0)).sum() == 12.0
        with pytest.raises(AssertionError, match="np.add.at"):  # the stub sees a direct call
            np.add.at(np.zeros(3), [0, 0], 1.0)


def test_graph_size_of_a_tiny_step(monkeypatch):
    """Nodes reachable from each loss a `tiny` step backpropagates, as the
    backward walks them (parameters included), counted before the backward
    releases them: the generator's CE, then the discriminator's loss (the
    shared token and position tables are counted in both). A change that
    adds nodes to the step must say so here. With one backward of the summed
    loss and three nodes per FFN, the step read [138]."""
    sizes = []
    backward = Tensor.backward
    monkeypatch.setattr(Tensor, "backward", lambda self: sizes.append(len(reachable_nodes(self))) or backward(self))
    trainer = RtdPretrainer(preset("tiny"), PretrainHyper(batch_size=2, warmup_steps=5, total_steps=50), seed=1)
    ids = substream(1, "graph-ids").integers(5, 512, size=(2, 128))
    trainer.step(ids)
    assert sizes == [47, 85]


def test_memory_of_a_tiny_step(monkeypatch):
    """Bytes traced over the step above (B=2): live when each backward starts
    (the generator's, then the discriminator's), and the peak. A change that
    adds memory must say so here. They read 0.97 MB, 1.91 MB and 2.71 MB on a
    first step; reruns in one process read ~5 kB less (one-off Python
    allocations), so the pins are upper bounds. With graph nodes that were
    their outputs, so that every output lived until its consumers' backwards
    had run, and a GELU that made its passes over whole arrays, they read
    1.38 MB, 2.73 MB and 3.46 MB. One backward of the summed
    loss after both forwards, with three nodes per FFN, read 5.40 MB live and
    a 5.57 MB peak; running the generator's last-block FFN and final norm at
    every row as well, not only at the masked ones, read 6.30 MB and 6.76 MB;
    copying q, k and v once more per layer on top (a copying `transpose`)
    read 6.89 MB and 7.48 MB."""
    live = []
    backward = Tensor.backward
    monkeypatch.setattr(Tensor, "backward",
                        lambda self: live.append(tracemalloc.get_traced_memory()[0]) or backward(self))
    trainer = RtdPretrainer(preset("tiny"), PretrainHyper(batch_size=2, warmup_steps=5, total_steps=50), seed=1)
    ids = substream(1, "graph-ids").integers(5, 512, size=(2, 128))
    tracemalloc.start()
    try:
        trainer.step(ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(live) == 2 and live[0] <= 990_000 and live[1] <= 1_940_000
    assert peak <= 2_740_000


def test_split_heads_allocates_only_the_projection():
    """The per-head tensor is a view of the projection's output: splitting
    makes no array of its own, kept or passing, beside the projection's."""
    rng = np.random.default_rng(0)
    B, L, H = 2, 256, 64
    x = Parameter(rng.standard_normal((B, L, H)), "x")
    layer = {"q.w": Parameter(rng.standard_normal((H, H)), "q.w"), "q.b": Parameter(np.zeros(H), "q.b")}

    def traced(fn):
        tracemalloc.start()
        try:
            out = fn()
            _, peak = tracemalloc.get_traced_memory()
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]).traces
        finally:
            tracemalloc.stop()
        return out, peak, [t.size for t in arrays]

    _, projection_peak, projection_arrays = traced(lambda: T.linear(x, layer["q.w"], layer["q.b"]))
    heads, peak, arrays = traced(lambda: split_heads(x, layer, "q", 4))
    assert heads.shape == (B, 4, L, H // 4)
    assert arrays == projection_arrays == [B * L * H * 4]
    assert peak < projection_peak + 4096  # two view nodes
