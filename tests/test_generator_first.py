"""`RtdPretrainer.step` backpropagates the generator's CE before the
discriminator's forward, and the blocks run their FFN as one `ffn` node. The
parameters and AdamW moments come out byte-equal to the joint backward of
the summed loss over three-node FFNs (`reference_joint_step` with
`reference_ffn`), and a non-finite loss still moves nothing."""

import hashlib

import numpy as np
import pytest
from helpers import reference_ffn, reference_joint_step

import blf.encoder
from blf.encoder import EncoderConfig, preset
from blf.errors import NumericError
from blf.optim import AdamW
from blf.pretrain import PretrainHyper, RtdPretrainer
from blf.rng import substream
from blf.seq2seq import DecoderConfig, Seq2SeqModel
from blf.tensor import Tensor


def digests(arrays) -> dict:
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}


# preset overrides, B and L; `small` at a reduced vocabulary and window, so a
# step takes about a second
SHAPES = {"tiny": ({}, 4, 128), "small": (dict(vocab_size=8000, max_positions=512, window=64), 1, 512)}


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_three_steps_match_the_joint_backward(shape, dropout, monkeypatch):
    overrides, B, L = SHAPES[shape]
    cfg = preset(shape, dropout=dropout, **overrides)
    hyper = PretrainHyper(batch_size=B, warmup_steps=2, total_steps=50)
    batches = substream(7, "joint-ids").integers(5, cfg.vocab_size, size=(3, B, L))
    batches[0, 0, -9:] = 2  # padding

    new = RtdPretrainer(cfg, hyper, seed=7)
    for ids in batches:
        new.step(ids)
    old = RtdPretrainer(cfg, hyper, seed=7)
    monkeypatch.setattr(blf.encoder, "ffn", reference_ffn)
    for ids in batches:
        reference_joint_step(old, ids)

    assert new.step_count == old.step_count == 3
    assert digests(new._all_arrays()) == digests(old._all_arrays())
    for name in new.rngs:
        assert new.rngs[name].bit_generator.state == old.rngs[name].bit_generator.state, name


def test_a_finetune_step_matches_the_composition(monkeypatch):
    """The decoder's blocks go through the same `block`: one seeded seq2seq
    step gives the bytes of the three-node FFNs."""
    def step():
        model = Seq2SeqModel(EncoderConfig(vocab_size=64, hidden=32, layers=2, heads=2, intermediate=64,
                                           window=4, max_positions=32),
                             DecoderConfig(hidden=32, layers=2, heads=2, intermediate=64, max_target_positions=16),
                             seed=4)
        rng = substream(4, "finetune-ids")
        inputs = [rng.integers(5, 64, size=n) for n in (20, 13)]
        targets = [np.r_[0, rng.integers(5, 64, size=n), 1] for n in (9, 4)]
        opt = AdamW(model.params(), base_lr=1e-3)
        model.loss_on_batch(inputs, targets)[0].backward()
        opt.step()
        return digests({p.name: p.data for p in model.params()} | opt.moment_arrays())

    new = step()
    monkeypatch.setattr(blf.encoder, "ffn", reference_ffn)
    assert new == step()


def tiny_trainer():
    cfg = EncoderConfig(vocab_size=48, hidden=16, layers=2, heads=2, intermediate=32, window=4, max_positions=32)
    return RtdPretrainer(cfg, PretrainHyper(batch_size=2, warmup_steps=4, total_steps=100, depth_divisor=2), seed=3)


def snapshot(trainer):
    return (digests(trainer._all_arrays()), digests({p.name: p.grad for p in trainer.opt.params}),
            trainer.step_count)


def counted_backward(monkeypatch, trainer):
    """Patch `Tensor.backward` to log, per call, whether any gradient buffer
    holds a nonzero after it."""
    calls = []
    backward = Tensor.backward

    def spy(self):
        backward(self)
        calls.append(any(p.grad.any() for p in trainer.opt.params))

    monkeypatch.setattr(Tensor, "backward", spy)
    return calls


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_generator_loss_raises_before_any_backward(tmp_path, monkeypatch):
    trainer = tiny_trainer()
    # finite logits whose shifted values overflow float32: the CE is infinite
    trainer.gen_head_bias.data[:] = np.where(np.arange(48) % 2, 3e38, -3e38)
    before = snapshot(trainer)
    calls = counted_backward(monkeypatch, trainer)
    ids = substream(3, "gen-inf-ids").integers(5, 48, size=(2, 24))
    with pytest.raises(NumericError, match="non-finite generator loss at step 0; batch dumped"):
        trainer.step(ids, dump_dir=tmp_path)
    assert calls == []
    assert snapshot(trainer) == before
    dumps = list(tmp_path.glob("diagnostic_batch_*.npz"))
    assert len(dumps) == 1 and np.array_equal(np.load(dumps[0])["original_ids"], ids)


def test_non_finite_discriminator_loss_moves_nothing(tmp_path, monkeypatch):
    trainer = tiny_trainer()
    trainer.disc_head_w2.data[:] = np.nan
    before = snapshot(trainer)
    calls = counted_backward(monkeypatch, trainer)
    ids = substream(3, "disc-nan-ids").integers(5, 48, size=(2, 24))
    with pytest.raises(NumericError, match="non-finite loss at step 0; batch dumped"):
        trainer.step(ids, dump_dir=tmp_path)
    assert calls == [True]  # the generator's backward ran and wrote gradients
    assert snapshot(trainer) == before  # parameters, moments, zeroed gradients and step count
    dumps = list(tmp_path.glob("diagnostic_batch_*.npz"))
    assert len(dumps) == 1 and np.array_equal(np.load(dumps[0])["original_ids"], ids)
