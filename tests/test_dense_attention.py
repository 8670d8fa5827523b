"""`attention.dense_attention`, the decoder's attention as one graph node,
against the five-op composition it replaced (`reference_attend`): the same
output, gradients and work count, one node per call, and the memory of a
tiny fine-tuning step."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from helpers import finite_difference_check, reachable_nodes, reference_attend

import blf.tensor as T
from blf.attention import dense_attention
from blf.encoder import preset
from blf.errors import ShapeError, UsageError
from blf.optim import AdamW
from blf.rng import substream
from blf.seq2seq import Seq2SeqModel, decoder_for_encoder
from blf.tensor import NEG_INF, Parameter, Tensor

B, HEADS, D = 3, 2, 8


def causal(T_, dtype):
    return np.triu(np.full((1, 1, T_, T_), NEG_INF), k=1).astype(dtype)


def cross(S, dtype):
    padded = np.zeros((B, S), dtype=bool)
    padded[1, -2:] = padded[2, -1] = True
    return np.where(padded, NEG_INF, 0.0).astype(dtype)[:, None, None, :]


def bias_for(kind, T_, S, dtype):
    """No bias, a causal [1, 1, T, T] or a cross [B, 1, 1, S] mask bias, or
    noise [B, 1, T, S]: in `dtype` or, for "... f64", in float64 whatever the
    inputs' (a float64 bias is rounded to their dtype before it is added)."""
    if kind == "none":
        return None
    mask, _, width = kind.partition(" ")
    dtype = np.float64 if width else dtype
    if mask == "noise":
        return substream(0, "dense-bias").standard_normal((B, 1, T_, S)).astype(dtype)
    return causal(T_, dtype) if mask == "causal" else cross(S, dtype)


# (T, S, bias): T=1 included, a causal mask only where T = S
CASES = [(5, 5, "causal"), (1, 1, "causal"), (5, 5, "causal f64"), (6, 9, "cross"), (1, 7, "cross"),
         (6, 9, "cross f64"), (6, 9, "noise f64"), (5, 5, "none"), (1, 7, "none")]


def inputs(seed, T_, S, dtype):
    """q, k and v as the decoder hands them over: per-head views [B, h, L, D]
    of [B, L, h, D] leaves. Returns (q, k, v, leaves, output weights)."""
    rng = substream(seed, "dense-attention")
    leaves = [Parameter(rng.standard_normal((B, L, HEADS, D)), name, dtype=dtype)
              for name, L in (("q", T_), ("k", S), ("v", S))]
    q, k, v = (T.transpose(x, (0, 2, 1, 3)) for x in leaves)
    return q, k, v, leaves, rng.standard_normal((B, HEADS, T_, D)).astype(dtype)


def run(attend, seed, T_, S, dtype, bias_kind):
    """Output bytes, leaf gradient bytes, work count and node count of one
    attention call under a weighted-sum loss."""
    q, k, v, leaves, w = inputs(seed, T_, S, dtype)
    bias = bias_for(bias_kind, T_, S, dtype)
    T.reset_work()
    out = attend(q, k, v, bias)
    work = T.work()
    loss = T.tsum(T.mul(out, w))
    nodes = len(reachable_nodes(out))
    loss.backward()
    return [out.data.tobytes()] + [x.grad.tobytes() for x in leaves], work, nodes


def oracle(q, k, v, bias):
    return reference_attend(q, T.transpose(k, (0, 1, 3, 2)), v, bias)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T_, S, bias_kind", CASES)
def test_output_and_gradients_are_the_oracles_bytes(T_, S, bias_kind, dtype):
    got, got_work, got_nodes = run(dense_attention, 1, T_, S, dtype, bias_kind)
    want, want_work, want_nodes = run(oracle, 1, T_, S, dtype, bias_kind)
    assert got == want
    assert got_work == want_work
    # three leaves and their per-head views, then one node where the oracle
    # has K^T's transpose and its five ops (four with no bias)
    assert (got_nodes, want_nodes) == (7, 11 if bias_kind == "none" else 12)


def test_gradients_match_finite_differences():
    *_, leaves, w = inputs(2, 4, 6, np.float64)
    bias = cross(6, np.float64)

    def make_loss():
        views = (T.transpose(x, (0, 2, 1, 3)) for x in leaves)
        return T.tsum(T.mul(dense_attention(*views, bias), w))

    finite_difference_check(make_loss, leaves, substream(3, "dense-fd"), h=1e-5, rel_tol=1e-5)


def test_a_second_backward_raises():
    q, k, v, _, w = inputs(4, 3, 3, np.float32)
    loss = T.tsum(T.mul(dense_attention(q, k, v, causal(3, np.float32)), w))
    loss.backward()
    with pytest.raises(UsageError, match="already released"):
        loss.backward()


@pytest.mark.parametrize("shapes", [((B, HEADS, 4, D), (B, HEADS, 5, D), (B, HEADS, 6, D)),
                                    ((B, HEADS, 4, D), (B, HEADS, 5, D + 1), (B, HEADS, 5, D + 1)),
                                    ((HEADS, 4, D), (HEADS, 5, D), (HEADS, 5, D))])
def test_mismatched_shapes_are_refused(shapes):
    q, k, v = (Tensor(np.zeros(s)) for s in shapes)
    with pytest.raises(ShapeError):
        dense_attention(q, k, v)


def test_decode_builds_one_node_per_attention_call():
    enc = preset("tiny")
    model = Seq2SeqModel(enc, decoder_for_encoder(enc, 3, 16), seed=1)
    rng = substream(1, "dense-nodes")
    loss, _ = model.loss_on_batch([rng.integers(5, 512, size=n) for n in (9, 14)],
                                  [np.r_[0, rng.integers(5, 512, size=n), 1] for n in (4, 7)])
    kinds = Counter(getattr(n._backward, "__qualname__", "leaf") for n in reachable_nodes(loss))
    assert kinds["dense_attention.<locals>.backward"] == 2 * 3
    assert kinds["softmax.<locals>.backward"] == kinds["mul.<locals>.backward"] == 0


def test_memory_of_a_tiny_finetuning_step():
    """Bytes traced over one fine-tuning step (forward, backward, AdamW) after
    a warm step: preset `tiny`, a 2-layer decoder, B=4, 128 input and 64
    target tokens. It read 13.8 MiB; with the five-op attention (four
    [B, h, T, S] arrays kept per call) it read 18.3 MiB."""
    enc = preset("tiny")
    model = Seq2SeqModel(enc, decoder_for_encoder(enc, 2, 64), seed=2)
    rng = substream(2, "dense-memory")
    inputs_ = [rng.integers(5, enc.vocab_size, size=128) for _ in range(4)]
    targets = [np.r_[0, rng.integers(5, enc.vocab_size, size=62), 1] for _ in range(4)]
    opt = AdamW(model.params(), base_lr=1e-4)

    def step():
        loss, _ = model.loss_on_batch(inputs_, targets)
        loss.backward()
        opt.step()

    step()
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 14.0 * 2**20
