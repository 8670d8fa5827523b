"""An op's output lives only as long as its caller holds the `Tensor`, unless
some backward reads it: the summands of an `add`, the attention output and
the residual-stream sums of an encoder forward are freed once the caller
drops them, and backpropagating without them gives the gradients, byte for
byte, of the same graph with every output held."""

import weakref

import numpy as np

import blf.encoder
import blf.tensor as T
from blf.attention import LOCAL, sliding_window_attention
from blf.encoder import LongformerEncoder, preset
from blf.rng import substream
from blf.tensor import Parameter, Tensor


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns `a`'s memory."""
    return a if a.base is None else a.base


def add_step(hold: bool):
    """Gradients of a loss over `add(a, b)`, with `a` and `b` dropped before
    the backward unless `hold`; asserts that dropped summands are freed."""
    rng = substream(0, "freed-add")
    p, q = (Parameter(rng.standard_normal((4, 6)), name, dtype=np.float64) for name in "pq")
    mix = Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
    a, b = T.mul(p, 2.0), T.gelu(q)
    refs = [weakref.ref(a.data), weakref.ref(b.data)]
    total = T.add(a, b)
    held = [a, b] if hold else []
    del a, b
    assert [r() is not None for r in refs] == [hold, hold]
    T.tsum(T.mul(total, mix)).backward()
    assert len(held) == 2 or all(r() is None for r in refs)
    return p.grad.tobytes(), q.grad.tobytes()


def test_the_summands_of_an_add_die_with_their_tensors():
    assert add_step(hold=False) == add_step(hold=True)


def test_an_attention_output_dies_once_merged():
    rng = substream(1, "freed-attention")
    B, H, S, D = 2, 2, 24, 4
    q, k, v = (Parameter(rng.standard_normal((B, H, S, D)), name) for name in "qkv")
    roles = np.full((B, S), LOCAL)
    out = sliding_window_attention(q, k, v, 4, roles)
    ref = weakref.ref(owner(out.data))
    merged = T.reshape(T.transpose(out, (0, 2, 1, 3)), (B, S, H * D))  # one copy, as `merge_heads` makes
    del out
    assert ref() is None
    T.tsum(T.mul(merged, rng.standard_normal(merged.shape))).backward()
    assert all(p.grad.any() for p in (q, k, v))


def encoder_step(monkeypatch, hold: bool):
    """Parameter gradients of one `tiny` encoder forward and backward, and the
    arrays of every residual sum and attention output it made: held, or as
    weak references to their memory."""
    cfg = preset("tiny", layers=2)
    encoder = LongformerEncoder(cfg, substream(2, "freed-init"))
    ids = substream(2, "freed-ids").integers(5, cfg.vocab_size, size=(2, 64))
    ids[1, -9:] = 0
    outputs = []
    for name in ("add", "sliding_window_attention"):
        def spy(*args, fn=getattr(blf.encoder, name), **kwargs):
            out = fn(*args, **kwargs)
            outputs.append(out if hold else weakref.ref(owner(out.data)))
            return out

        monkeypatch.setattr(blf.encoder, name, spy)
    hidden = encoder.forward(ids, blf.encoder.make_roles(ids, pad_id=0))
    monkeypatch.undo()
    alive = [o if hold else o() for o in outputs]
    mix = substream(2, "freed-mix").standard_normal(hidden.shape).astype(np.float32)
    T.tsum(T.mul(hidden, mix)).backward()
    return {p.name: p.grad.tobytes() for p in encoder.params()}, alive


def test_residual_sums_and_attention_outputs_die_with_the_forward(monkeypatch):
    grads, alive = encoder_step(monkeypatch, hold=False)
    # an embedding sum, and per block an attention output and two residual sums
    assert len(alive) == 1 + 2 * 3
    assert all(a is None for a in alive)
    held_grads, held = encoder_step(monkeypatch, hold=True)
    assert all(isinstance(t, Tensor) for t in held)
    assert grads == held_grads


def captured(fn, seen=None) -> list:
    """Every object a closure holds in its cells, following the functions it holds."""
    seen = set() if seen is None else seen
    out = []
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # a name the closure would bind only on another path
            continue
        if callable(value) and hasattr(value, "__closure__") and id(value) not in seen:
            seen.add(id(value))
            out += captured(value, seen)
        out.append(value)
    return out


def test_no_closure_of_a_training_step_holds_a_tensor(monkeypatch):
    """Every closure of a `tiny` step's two graphs (the generator's and the
    discriminator's, including the tied head and the losses) holds arrays
    and nodes, never a `Tensor`, so no output outlives its caller's hold."""
    from blf.pretrain import PretrainHyper, RtdPretrainer

    trainer = RtdPretrainer(preset("tiny"), PretrainHyper(batch_size=2, warmup_steps=5, total_steps=50), seed=1)
    held = []
    backward = Tensor.backward

    def spy(self):
        stack, seen = [self.node], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                if node._backward is not None:
                    held.extend(type(v).__name__ for v in captured(node._backward) if isinstance(v, Tensor))
                stack.extend(node.parents)
        assert len(seen) > 40
        backward(self)

    monkeypatch.setattr(Tensor, "backward", spy)
    trainer.step(substream(1, "freed-step").integers(5, 512, size=(2, 128)))
    assert held == []
