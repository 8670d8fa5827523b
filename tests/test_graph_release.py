"""`Tensor.backward` releases the graph as it walks it: gradients match the
keep-everything walk (`reference_backward` in tests/helpers.py) bit for bit,
every non-leaf node is emptied, leaves keep their gradients, and a released
graph cannot be backpropagated again."""

import weakref

import numpy as np
import pytest
from helpers import reachable_nodes, reference_backward

import blf.tensor as T
from blf.encoder import EncoderConfig, preset
from blf.errors import UsageError
from blf.pretrain import PretrainHyper, RtdPretrainer
from blf.rng import substream
from blf.seq2seq import DecoderConfig, Seq2SeqModel
from blf.tensor import Parameter, Tensor


def rtd_step_grads(backward, monkeypatch):
    """Parameter gradients of one seeded `tiny` RTD step, backpropagated by `backward`."""
    trainer = RtdPretrainer(preset("tiny"), PretrainHyper(batch_size=2, warmup_steps=5, total_steps=50), seed=3)
    grads = {}

    def spy(self):
        backward(self)
        grads.update({p.name: p.grad.copy() for p in trainer.opt.params})

    monkeypatch.setattr(Tensor, "backward", spy)
    ids = substream(3, "release-ids").integers(5, 512, size=(2, 128))
    ids[1, -20:] = trainer.pad_id
    trainer.step(ids)
    return grads


def seq2seq_step_grads(backward):
    """Parameter gradients of one teacher-forced seq2seq batch, backpropagated by `backward`."""
    cfg = EncoderConfig(vocab_size=40, hidden=16, layers=2, heads=2, intermediate=32, window=4, max_positions=32)
    dec = DecoderConfig(hidden=16, layers=2, heads=2, intermediate=32, max_target_positions=16)
    model = Seq2SeqModel(cfg, dec, seed=5)
    rng = substream(5, "release-pairs")
    inputs = [rng.integers(5, 40, size=n) for n in (12, 7, 20)]
    targets = [np.r_[0, rng.integers(5, 40, size=n), 1] for n in (6, 9, 3)]
    loss, _ = model.loss_on_batch(inputs, targets)
    backward(loss)
    return {p.name: p.grad.copy() for p in model.params()}


def assert_bit_identical(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_rtd_step_gradients_match_the_oracle(monkeypatch):
    release = Tensor.backward  # before the spy replaces it
    want = rtd_step_grads(reference_backward, monkeypatch)
    got = rtd_step_grads(release, monkeypatch)
    assert any(g.any() for g in got.values())
    assert_bit_identical(got, want)


def test_seq2seq_step_gradients_match_the_oracle():
    want = seq2seq_step_grads(reference_backward)
    got = seq2seq_step_grads(Tensor.backward)
    assert all(g.any() for g in got.values())
    assert_bit_identical(got, want)


def small_graph(seed):
    """A loss over matmul, layer_norm, gelu, reshape, softmax, add and mul, with
    a parameter and a plain leaf that requires grad. Returns (loss, leaves)."""
    rng = substream(seed, "release-graph")
    w = Parameter(rng.standard_normal((6, 8)), "w")
    gain = Parameter(np.ones(8) + 0.1 * rng.standard_normal(8), "gain")
    bias = Parameter(0.1 * rng.standard_normal(8), "bias")
    x = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
    h = T.gelu(T.layer_norm(T.matmul(x, w), gain, bias))
    s = T.softmax(T.reshape(h, (6, 8)))
    loss = T.tsum(T.add(T.mul(s, h.data.reshape(6, 8)), T.mul(T.reshape(h, (6, 8)), 0.5)))
    return loss, [w, gain, bias, x]


def test_backward_empties_every_node_and_leaves_keep_their_gradients():
    want_loss, want_leaves = small_graph(0)
    reference_backward(want_loss)
    loss, leaves = small_graph(0)
    nodes = reachable_nodes(loss)
    inner = [n for n in nodes if n._backward is not None]
    assert len(inner) > 8 and all(any(n is leaf for n in nodes) for leaf in leaves)
    data_before = [n.data.copy() for n in inner]
    loss.backward()
    for node, before in zip(inner, data_before):
        assert node.grad is None and node._parents == ()
        assert np.array_equal(node.data, before)  # forward values stay readable
    for leaf, want in zip(leaves, want_leaves):
        assert leaf.grad is not None and leaf.grad.tobytes() == want.grad.tobytes()


def test_a_second_backward_raises():
    loss, _ = small_graph(1)
    loss.backward()
    with pytest.raises(UsageError, match="already released"):
        loss.backward()


def test_backward_through_a_released_intermediate_raises():
    p = Parameter(substream(2, "release-p").standard_normal((3, 4)), "p")
    h = T.gelu(T.matmul(p, Tensor(np.ones((4, 4), dtype=np.float32))))
    T.tsum(h).backward()
    with pytest.raises(UsageError, match="already released"):
        T.tsum(T.mul(h, 2.0)).backward()


def test_an_activation_held_only_by_a_closure_dies_before_backward_returns():
    # probe -> gelu -> loss: the backward runs loss, then gelu, then probe, so
    # the probe's backward sees whether gelu's saved tanh is still alive
    x = Parameter(substream(3, "release-x").standard_normal((4, 5)), "x")
    alive = []

    def probe_backward(g):
        alive.append(saved() is not None)
        x._accumulate(g)

    probe = T._make(x.data.copy(), (x,), probe_backward)
    h = T.gelu(probe)
    cells = dict(zip(h._backward.__code__.co_freevars, h._backward.__closure__))
    saved = weakref.ref(cells.pop("t").cell_contents)
    del cells
    assert saved() is not None
    T.tsum(h).backward()
    assert alive == [False]
    assert x.grad.any()
