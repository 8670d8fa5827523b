"""`LongformerEncoder.forward(rows=)`: the last block's FFN and the final norm
run at the given rows only. Checked against the full forward followed by
`embedding(out, rows)` (`helpers.full_tail_forward`), and by the multiply-adds
one `tiny` pretraining step saves."""

import numpy as np
import pytest
from helpers import full_tail_forward

import blf.tensor as T
from blf.bpe import MASK_ID, SPECIAL_IDS
from blf.encoder import EncoderConfig, LongformerEncoder, make_roles, preset
from blf.pretrain import PretrainHyper, RtdPretrainer, mask_tokens
from blf.rng import substream
from blf.tensor import Tensor

B, S, H, V = 3, 20, 16, 48
# the last block's weight gradients: their gemm's inner extent is the row
# count, n instead of B·S with zero rows, so they round differently
CUT_WEIGHTS = ("ffn.w1", "ffn.w2")
TOLERANCE = {np.float32: 1e-6, np.float64: 1e-12}


def encoder(layers, dropout, dtype):
    cfg = EncoderConfig(vocab_size=V, hidden=H, layers=layers, heads=2, intermediate=32, window=4,
                        max_positions=32, dropout=dropout)
    return LongformerEncoder(cfg, substream(7, "tail-init"), prefix="gen", dtype=dtype)


def inputs(seed, pad_tail, share=0.25):
    rng = substream(seed, "tail-ids")
    ids = rng.integers(5, V, size=(B, S))
    if pad_tail:
        ids[:, -pad_tail:] = 2
    rows = np.flatnonzero((rng.random((B, S)) < share) & (ids != 2))
    return ids, make_roles(ids, pad_id=2), rows


def backprop(model, forward, ids, roles, rows, seed):
    """`forward` at `rows` under a fixed upstream gradient; returns the output,
    every parameter gradient by name, and the dropout rng's state after."""
    rng = np.random.default_rng(seed)
    out = forward(ids, roles, train=True, rng=rng, rows=rows)
    upstream = np.random.default_rng(seed + 1).standard_normal(out.shape)
    T.tsum(T.mul(out, Tensor(upstream, dtype=out.dtype))).backward()
    return out, {p.name: p.grad for p in model.params()}, rng.bit_generator.state


def check_equivalent(layers, dropout, dtype, seed, pad_tail, rows=None):
    ids, roles, picked = inputs(seed, pad_tail)
    rows = picked if rows is None else rows
    cut = encoder(layers, dropout, dtype)
    full = encoder(layers, dropout, dtype)
    out, got, state = backprop(cut, cut.forward, ids, roles, rows, seed)
    ref, want, ref_state = backprop(full, full_tail_forward(full), ids, roles, rows, seed)

    assert out.shape == (rows.size, H) and out.dtype == dtype
    assert out.data.tobytes() == ref.data.tobytes()
    assert state == ref_state
    assert got.keys() == want.keys()
    last = {f"gen.layers.{layers - 1}.{w}" for w in CUT_WEIGHTS}
    for name in want:
        assert np.isfinite(got[name]).all(), name
        if name in last:
            scale = max(np.abs(want[name]).max(), np.finfo(dtype).tiny)
            assert np.abs(got[name] - want[name]).max() <= TOLERANCE[dtype] * scale, name
        else:
            assert got[name].tobytes() == want[name].tobytes(), name
    return got


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("pad_tail", [0, 3])
def test_equals_the_full_forward_at_the_rows(layers, dropout, dtype, pad_tail):
    check_equivalent(layers, dropout, dtype, seed=10 * layers + pad_tail, pad_tail=pad_tail)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_no_rows(dropout, dtype):
    got = check_equivalent(2, dropout, dtype, seed=4, pad_tail=2, rows=np.array([], dtype=np.int64))
    assert not any(g.any() for g in got.values())  # nothing is read, so nothing moves


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_a_tower_with_no_layers_cuts_before_the_final_norm(dropout, dtype):
    check_equivalent(0, dropout, dtype, seed=5, pad_tail=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_at_rows_reads_the_full_keep_mask(dtype):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 5, 4))
    rows = np.array([0, 3, 4, 9])
    full_rng, rows_rng = np.random.default_rng(1), np.random.default_rng(1)
    full = T.dropout(Tensor(x, dtype=dtype), 0.3, full_rng)
    at = T.dropout(Tensor(x.reshape(-1, 4)[rows], dtype=dtype), 0.3, rows_rng, x.shape, rows)
    assert at.data.tobytes() == full.data.reshape(-1, 4)[rows].tobytes()
    assert rows_rng.bit_generator.state == full_rng.bit_generator.state


def test_work_of_a_tiny_step():
    """One `tiny` step (B=16, L=128) counts the full-row oracle's multiply-adds
    less the tail's per-row count at every row no loss reads, and gives the
    same metrics."""
    cfg, Bt, Lt, seed = preset("tiny"), 16, 128, 3
    hyper = PretrainHyper(batch_size=Bt, warmup_steps=5, total_steps=50)
    ids = substream(seed, "tail-work-ids").integers(5, cfg.vocab_size, size=(Bt, Lt))
    n = int(mask_tokens(ids, MASK_ID, SPECIAL_IDS, hyper.mlm_probability, substream(seed, "mask"))[1].sum())

    def step(trainer):
        T.reset_work()
        metrics = trainer.step(ids)
        return T.work(), metrics

    cut_work, cut_metrics = step(RtdPretrainer(cfg, hyper, seed))
    full = RtdPretrainer(cfg, hyper, seed)
    full.gen.forward = full_tail_forward(full.gen)
    full_work, full_metrics = step(full)

    Hc, I = cfg.hidden, cfg.intermediate
    # ln2, ffn.w1 (with its bias), gelu, ffn.w2 (with its bias), the residual add, ln_f
    per_row = 6 * Hc + (Hc * I + I) + 6 * I + (I * Hc + Hc) + Hc + 6 * Hc
    assert 0 < n < Bt * Lt
    assert cut_work == full_work - (Bt * Lt - n) * per_row
    assert cut_metrics == full_metrics
