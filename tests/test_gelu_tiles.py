"""The GELU passes run in tiles of `tensor.GELU_TILE` elements: each tile
runs the whole-array op sequence they replaced (`reference_gelu_forward` and
`reference_gelu_backward` in tests/helpers.py), so every output, t and
gradient has its bytes, and so do the `gelu` op and the cached decoder step
that call them."""

import numpy as np
import pytest
from helpers import reference_gelu_backward, reference_gelu_forward

import blf.seq2seq
import blf.tensor as T
from blf.encoder import EncoderConfig
from blf.rng import substream
from blf.seq2seq import DecoderConfig, IncrementalDecoder, Seq2SeqModel
from blf.tensor import Parameter, gelu, gelu_backward, gelu_forward

SHAPES = [(2048, 256), (2047, 256), (2048, 64), (1, 256), (3, 5)]


def whole_forward(x, t=None):
    """`gelu_forward`'s signature over the whole-array oracle."""
    data, whole_t = reference_gelu_forward(x)
    if t is not None:
        t[...] = whole_t
    return data


def whole_backward(x, t, g, du=None, out=None):
    """`gelu_backward`'s signature over the whole-array oracle."""
    dx = reference_gelu_backward(x, t, g, du)
    if out is None:
        return dx
    out[...] = dx
    return out


def inputs(shape, dtype):
    rng = substream(sum(shape), "gelu-tiles")
    x = (3.0 * rng.standard_normal(shape)).astype(dtype)
    x.reshape(-1)[:4] = [0.0, -0.0, 12.0, -30.0][: x.size]
    return x, rng.standard_normal(shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SHAPES)
def test_forward_gives_the_whole_array_bytes(shape, dtype):
    x, _ = inputs(shape, dtype)
    want, want_t = reference_gelu_forward(x)
    t = np.empty_like(x)
    got = gelu_forward(x, t)
    assert got.dtype == t.dtype == np.dtype(dtype)
    assert got.tobytes() == want.tobytes() and t.tobytes() == want_t.tobytes()
    assert gelu_forward(x).tobytes() == want.tobytes()  # t as tile scratch


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("scratch", ["x", None])
@pytest.mark.parametrize("into_g", [False, True])
def test_backward_gives_the_whole_array_bytes(shape, dtype, scratch, into_g):
    x, g = inputs(shape, dtype)
    _, t = reference_gelu_forward(x)
    want = reference_gelu_backward(x.copy(), t, g)
    x_in, g_in = x.copy(), g.copy()
    got = gelu_backward(x_in, t, g_in, du=x_in if scratch == "x" else None, out=g_in if into_g else None)
    assert got.dtype == np.dtype(dtype)
    assert got.tobytes() == want.tobytes()
    assert (got is g_in) == into_g
    if scratch is None:
        assert x_in.tobytes() == x.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_op_is_unchanged(dtype, monkeypatch):
    x, g = inputs((300, 70), dtype)

    def forward_backward():
        p = Parameter(x, "x", dtype=dtype)
        out = gelu(p)
        out._backward(g.copy())
        return out.data.tobytes(), p.grad.tobytes()

    got = forward_backward()
    monkeypatch.setattr(T, "gelu_forward", whole_forward)
    monkeypatch.setattr(T, "gelu_backward", whole_backward)
    assert got == forward_backward()


def test_incremental_decoder_logits_are_unchanged(monkeypatch):
    """A tile of 7 elements splits every row of the decoder's [beams, 64]
    GELU input, with a ragged last tile."""
    enc = EncoderConfig(vocab_size=24, hidden=32, layers=1, heads=4, intermediate=64, window=4, max_positions=32)
    dec = DecoderConfig(hidden=32, layers=2, heads=4, intermediate=64, max_target_positions=16)
    model = Seq2SeqModel(enc, dec, seed=3)
    ids = substream(3, "gelu-decoder").integers(3, 24, size=(1, 12))

    def logits():
        memory, padding = model.encode(ids)
        decoder = IncrementalDecoder(model, memory.detach(), padding)
        steps = [decoder.step([model.bos_id], np.zeros(1, dtype=np.int64))]
        steps.append(decoder.step([5, 7, 9], np.zeros(3, dtype=np.int64)))
        steps.append(decoder.step([4, 6, 8], np.arange(3)))
        return [s.tobytes() for s in steps]

    monkeypatch.setattr(T, "GELU_TILE", 7)
    got = logits()
    monkeypatch.setattr(blf.seq2seq, "gelu_forward", whole_forward)
    assert got == logits()
