import re

import numpy as np
import pytest

from blf.bpe import PAD_ID
from blf.encoder import EncoderConfig, make_roles, preset
from blf.errors import ConfigError, NumericError, UsageError
from blf.pretrain import (
    PretrainHyper,
    RtdBatch,
    RtdPretrainer,
    build_disc_labels,
    generator_config,
    mask_tokens,
    rtd_loss,
    sample_replacements,
)
from blf.rng import substream
from blf.tensor import Tensor

SPECIALS = (0, 1, 2, 3, 4)


def tiny_trainer(seed=0, **hyper_kw):
    cfg = EncoderConfig(vocab_size=32, hidden=16, layers=2, heads=2, intermediate=32,
                        window=4, max_positions=32)
    defaults = dict(batch_size=2, base_lr=1e-3, warmup_steps=4, total_steps=100, depth_divisor=4)
    defaults.update(hyper_kw)
    return RtdPretrainer(cfg, PretrainHyper(**defaults), seed=seed)


def random_ids(rng, B, L, vocab=32, pad_tail=0):
    ids = rng.integers(5, vocab, size=(B, L))
    if pad_tail:
        ids[:, -pad_tail:] = 2
    return ids


class TestGeneratorConfig:
    def test_depth_divisors(self):
        assert generator_config(preset("small"), 4).layers == 3
        assert generator_config(preset("base"), 3).layers == 4

    def test_minimum_one_layer(self):
        assert generator_config(preset("tiny"), 4).layers == 1

    def test_widths_match_discriminator(self):
        disc = preset("base")
        gen = generator_config(disc, 3)
        assert (gen.hidden, gen.heads, gen.intermediate, gen.vocab_size) == (
            disc.hidden, disc.heads, disc.intermediate, disc.vocab_size)

    def test_bad_divisor(self):
        with pytest.raises(ConfigError):
            generator_config(preset("small"), 0)


class TestPretrainHyper:
    @pytest.mark.parametrize("change, message", [
        (dict(batch_size=0), "batch_size must be >= 1"),
        (dict(warmup_steps=0), "warmup_steps must be >= 1"),
        (dict(total_steps=0), "total_steps must be >= 1"),
        (dict(depth_divisor=0), "depth_divisor must be >= 1"),
        (dict(base_lr=0.0), "base_lr must be finite and positive"),
        (dict(base_lr=float("inf")), "base_lr must be finite and positive"),
        (dict(base_lr=float("nan")), "base_lr must be finite and positive"),
        (dict(disc_weight=-1.0), "disc_weight must be finite and non-negative"),
        (dict(disc_weight=float("nan")), "disc_weight must be finite and non-negative"),
        (dict(disc_weight=float("inf")), "disc_weight must be finite and non-negative"),
        (dict(mlm_probability=1.0), "mlm_probability must be in [0, 1)"),
        (dict(mlm_probability=-0.1), "mlm_probability must be in [0, 1)"),
        (dict(mlm_probability=float("nan")), "mlm_probability must be in [0, 1)"),
    ], ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None)
    def test_bad_value_refused(self, change, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            PretrainHyper(**change)

    def test_edge_values_accepted(self):
        hyper = PretrainHyper(batch_size=1, warmup_steps=1, total_steps=1, depth_divisor=1,
                              base_lr=1e-9, disc_weight=0.0, mlm_probability=0.0)
        assert hyper.disc_weight == 0.0


class TestMaskTokens:
    def test_zero_probability_masks_nothing(self):
        ids = np.arange(5, 25).reshape(2, 10)
        gen_in, masked = mask_tokens(ids, 4, set(SPECIALS), 0.0, substream(0, "m"))
        assert not masked.any()
        assert np.array_equal(gen_in, ids)

    def test_masked_fraction_near_quarter(self):
        # binomial band: 40000 draws at p=0.25 keeps the sample mean inside
        # [0.24, 0.26] with huge margin (4.6 sigma)
        rng = substream(1, "m")
        ids = rng.integers(5, 100, size=(40, 1000))
        _, masked = mask_tokens(ids, 4, set(SPECIALS), 0.25, substream(2, "m"))
        frac = masked.mean()
        assert 0.24 <= frac <= 0.26

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_specials_never_masked(self, p):
        rng = substream(3, "m")
        ids = rng.integers(0, 32, size=(8, 64))  # includes ids 0..4
        gen_in, masked = mask_tokens(ids, 4, set(SPECIALS), p, rng)
        special_pos = np.isin(ids, SPECIALS)
        assert not masked[special_pos].any()
        assert np.array_equal(gen_in[special_pos], ids[special_pos])
        assert np.all(gen_in[masked] == 4)

    def test_bad_probability(self):
        ids = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(UsageError):
            mask_tokens(ids, 4, set(), 1.0, substream(0, "m"))
        with pytest.raises(UsageError):
            mask_tokens(ids, 4, set(), -0.1, substream(0, "m"))


class TestSampleReplacements:
    def test_dominant_logit_always_wins(self):
        logits = np.full((50, 6), -10.0)
        winners = np.arange(50) % 6
        logits[np.arange(50), winners] = 990.0
        out = sample_replacements(logits, substream(4, "s"))
        assert np.array_equal(out, winners)

    def test_uniform_logits_pass_chi_square(self):
        V, N = 8, 10000
        out = sample_replacements(np.zeros((N, V)), substream(5, "s"))
        counts = np.bincount(out, minlength=V)
        expected = N / V
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square critical value, df=7, alpha=0.001
        assert chi2 < 24.322

    def test_deterministic(self):
        logits = substream(6, "s").standard_normal((100, 9))
        a = sample_replacements(logits, substream(7, "s"))
        b = sample_replacements(logits, substream(7, "s"))
        assert np.array_equal(a, b)

    def test_samples_in_range(self):
        logits = substream(8, "s").standard_normal((500, 5)) * 10
        out = sample_replacements(logits, substream(9, "s"))
        assert out.min() >= 0 and out.max() < 5

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(NumericError):
            sample_replacements(bad, substream(10, "s"))


class TestDiscLabels:
    def test_reproduced_original_is_not_changed(self):
        orig = np.array([[7, 8, 9]])
        masked = np.array([[True, True, False]])
        corrupted = np.array([[7, 3, 9]])  # first sample equals the original
        assert build_disc_labels(orig, corrupted, masked).tolist() == [[0, 1, 0]]

    def test_unmasked_always_zero(self):
        orig = np.array([[5, 6]])
        corrupted = np.array([[5, 6]])
        masked = np.zeros((1, 2), dtype=bool)
        assert build_disc_labels(orig, corrupted, masked).sum() == 0

    def test_matches_elementwise_oracle(self):
        rng = substream(11, "l")
        orig = rng.integers(0, 10, size=(6, 40))
        corrupted = rng.integers(0, 10, size=(6, 40))
        masked = rng.random((6, 40)) < 0.3
        corrupted = np.where(masked, corrupted, orig)
        got = build_disc_labels(orig, corrupted, masked)
        want = (masked & (corrupted != orig)).astype(np.int64)
        assert np.array_equal(got, want)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            build_disc_labels(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 2), dtype=bool))


class TestRtdLoss:
    def test_forced_arithmetic(self):
        assert rtd_loss(2.0, 0.1, 50) == pytest.approx(7.0)

    def test_zero_disc_keeps_gen(self):
        assert rtd_loss(1.37, 0.0, 50) == pytest.approx(1.37)

    def test_weight_one_is_plain_sum(self):
        assert rtd_loss(0.5, 0.25, 1) == pytest.approx(0.75)

    def test_monotone_in_weight(self):
        totals = [rtd_loss(1.0, 0.2, w) for w in (1, 10, 50, 100)]
        assert totals == sorted(totals)
        assert len(set(totals)) == len(totals)

    def test_tensor_path_matches(self):
        t = rtd_loss(Tensor(np.float32(2.0)), Tensor(np.float32(0.1)), 50)
        assert float(t.data) == pytest.approx(7.0, rel=1e-6)


class TestRtdBatch:
    @pytest.mark.parametrize("seed", range(10))
    def test_invariants_over_seeds(self, seed):
        trainer = tiny_trainer(seed=seed)
        rng = substream(seed, "ids")
        ids = random_ids(rng, 2, 24, pad_tail=seed % 3)
        batch = trainer.build_batch(ids)
        batch.validate(trainer.mask_id)

    def test_invariants_hundred_seeds_fast_path(self):
        # mask/label algebra alone, no forward pass, across many seeds
        for seed in range(100):
            rng = substream(seed, "fast")
            ids = rng.integers(0, 64, size=(4, 50))
            gen_in, masked = mask_tokens(ids, 4, set(SPECIALS), 0.25, rng)
            corrupted = np.where(masked, rng.integers(0, 64, size=ids.shape), ids)
            labels = build_disc_labels(ids, corrupted, masked)
            padding = ids == 2
            batch = RtdBatch(ids, masked, gen_in, corrupted, labels, padding)
            batch.validate(4)

    def test_sampled_pad_is_attended_as_a_token(self, monkeypatch):
        # a replacement that happens to be PAD_ID is a real token: the discriminator
        # must attend it with the roles of the original ids, as the generator does
        monkeypatch.setattr("blf.pretrain.sample_replacements",
                            lambda logits, rng: np.full(logits.shape[0], PAD_ID, dtype=np.int64))
        trainer = tiny_trainer()
        ids = random_ids(substream(1, "ids"), 2, 24, pad_tail=3)
        seen, forward = [], trainer.disc.forward

        def recording(x, roles, **kw):
            seen.append((x, roles))
            return forward(x, roles, **kw)

        monkeypatch.setattr(trainer.disc, "forward", recording)
        trainer.step(ids)
        [(corrupted, roles)] = seen
        assert (corrupted == PAD_ID).sum() > (ids == PAD_ID).sum()
        assert np.array_equal(roles, make_roles(ids, pad_id=PAD_ID))

    def test_zero_probability_batch(self):
        trainer = tiny_trainer(mlm_probability=0.0)
        ids = random_ids(substream(0, "ids"), 2, 16)
        metrics = trainer.step(ids)
        assert metrics["gen_loss"] == 0.0
        assert metrics["replaced_fraction"] == 0.0
        assert metrics["total"] == pytest.approx(50.0 * metrics["disc_loss"], rel=1e-6)


class TestPretrainStep:
    def test_metrics_record_fields(self):
        trainer = tiny_trainer()
        ids = random_ids(substream(1, "ids"), 2, 24)
        m = trainer.step(ids)
        for key in ("step", "lr", "gen_loss", "disc_loss", "total", "masked_fraction",
                    "replaced_fraction", "disc_accuracy", "replaced_recall"):
            assert key in m
        assert m["step"] == 1
        assert m["total"] == pytest.approx(m["gen_loss"] + 50.0 * m["disc_loss"], rel=1e-5)
        assert 0.0 <= m["disc_accuracy"] <= 1.0

    def test_deterministic_across_trainers(self):
        runs = []
        for _ in range(2):
            trainer = tiny_trainer(seed=5)
            ids = random_ids(substream(9, "ids"), 2, 24)
            runs.append([trainer.step(ids) for _ in range(3)])
        assert runs[0] == runs[1]

    def test_embeddings_shared_and_updated_by_generator_gradient(self):
        trainer = tiny_trainer()
        assert trainer.gen.tok_emb is trainer.disc.tok_emb
        before = trainer.disc.tok_emb.data.copy()
        ids = random_ids(substream(2, "ids"), 2, 24)
        trainer.step(ids)
        assert trainer.gen.tok_emb is trainer.disc.tok_emb
        assert not np.array_equal(before, trainer.disc.tok_emb.data)

    def test_padding_ignored_in_disc_loss(self):
        trainer = tiny_trainer()
        ids = random_ids(substream(3, "ids"), 2, 24, pad_tail=6)
        m = trainer.step(ids)
        assert m["masked_fraction"] <= 1.0
        assert np.isfinite(m["total"])

    def test_non_finite_loss_aborts_with_dump(self, tmp_path):
        trainer = tiny_trainer()
        trainer.disc_head_w2.data[:] = np.nan
        ids = random_ids(substream(4, "ids"), 2, 16)
        with pytest.raises(NumericError, match="diagnostic"):
            trainer.step(ids, dump_dir=tmp_path)
        dumps = list(tmp_path.glob("diagnostic_batch_*.npz"))
        assert len(dumps) == 1
        saved = np.load(dumps[0])
        assert np.array_equal(saved["original_ids"], ids)

    def test_failed_step_keeps_no_graph_on_trainer(self, tmp_path):
        from blf.tensor import Parameter

        trainer = tiny_trainer()
        trainer.disc_head_w2.data[:] = np.nan
        with pytest.raises(NumericError):
            trainer.step(random_ids(substream(4, "ids"), 2, 16), dump_dir=tmp_path)
        pinned = [k for k, v in vars(trainer).items() if isinstance(v, Tensor) and not isinstance(v, Parameter)]
        assert pinned == []

    def test_non_finite_gradient_aborts_before_update(self, tmp_path, monkeypatch):
        trainer = tiny_trainer()
        ids = random_ids(substream(4, "ids"), 2, 16)
        params = trainer.opt.params
        before = {p.name: p.data.copy() for p in params}
        moments = {name: arr.copy() for name, arr in trainer.opt.moment_arrays().items()}
        backward = Tensor.backward

        def poisoned(self):
            backward(self)
            trainer.disc_head_w1.grad[0, 0] = np.inf

        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(NumericError, match="disc.head.w1"):
            trainer.step(ids, dump_dir=tmp_path)
        dumps = list(tmp_path.glob("diagnostic_batch_*.npz"))
        assert len(dumps) == 1
        assert np.array_equal(np.load(dumps[0])["original_ids"], ids)
        assert trainer.step_count == 0
        assert trainer.opt.step_count == 0
        for p in params:
            assert np.array_equal(p.data, before[p.name]), p.name
            assert not p.grad.any(), p.name
        for name, arr in trainer.opt.moment_arrays().items():
            assert np.array_equal(arr, moments[name]), name

    def test_run_requires_chunks(self):
        trainer = tiny_trainer()
        with pytest.raises(UsageError):
            list(trainer.run(np.zeros((0, 16), dtype=np.int64), steps=1))


# `_all_arrays()` names of a micro trainer (disc layers=0, so gen has 1), in saved
# order, as the two-optimizer layout wrote them: checkpoints from then must resume.
SAVED_NAMES = """
disc.tok_emb disc.pos_emb disc.ln_f.g disc.ln_f.b disc.head.w1 disc.head.b1 disc.head.w2
disc.head.b2 gen.layers.0.attn.q.w gen.layers.0.attn.q.b gen.layers.0.attn.k.w gen.layers.0.attn.k.b
gen.layers.0.attn.v.w gen.layers.0.attn.v.b gen.layers.0.attn.gq.w gen.layers.0.attn.gq.b
gen.layers.0.attn.gk.w gen.layers.0.attn.gk.b gen.layers.0.attn.gv.w gen.layers.0.attn.gv.b
gen.layers.0.attn.out.w gen.layers.0.attn.out.b gen.layers.0.ln1.g gen.layers.0.ln1.b
gen.layers.0.ln2.g gen.layers.0.ln2.b gen.layers.0.ffn.w1 gen.layers.0.ffn.b1 gen.layers.0.ffn.w2
gen.layers.0.ffn.b2 gen.ln_f.g gen.ln_f.b gen.head.bias opt.disc.m.disc.tok_emb
opt.disc.v.disc.tok_emb opt.disc.m.disc.pos_emb opt.disc.v.disc.pos_emb opt.disc.m.disc.ln_f.g
opt.disc.v.disc.ln_f.g opt.disc.m.disc.ln_f.b opt.disc.v.disc.ln_f.b opt.disc.m.disc.head.w1
opt.disc.v.disc.head.w1 opt.disc.m.disc.head.b1 opt.disc.v.disc.head.b1 opt.disc.m.disc.head.w2
opt.disc.v.disc.head.w2 opt.disc.m.disc.head.b2 opt.disc.v.disc.head.b2
opt.gen.m.gen.layers.0.attn.q.w opt.gen.v.gen.layers.0.attn.q.w opt.gen.m.gen.layers.0.attn.q.b
opt.gen.v.gen.layers.0.attn.q.b opt.gen.m.gen.layers.0.attn.k.w opt.gen.v.gen.layers.0.attn.k.w
opt.gen.m.gen.layers.0.attn.k.b opt.gen.v.gen.layers.0.attn.k.b opt.gen.m.gen.layers.0.attn.v.w
opt.gen.v.gen.layers.0.attn.v.w opt.gen.m.gen.layers.0.attn.v.b opt.gen.v.gen.layers.0.attn.v.b
opt.gen.m.gen.layers.0.attn.gq.w opt.gen.v.gen.layers.0.attn.gq.w opt.gen.m.gen.layers.0.attn.gq.b
opt.gen.v.gen.layers.0.attn.gq.b opt.gen.m.gen.layers.0.attn.gk.w opt.gen.v.gen.layers.0.attn.gk.w
opt.gen.m.gen.layers.0.attn.gk.b opt.gen.v.gen.layers.0.attn.gk.b opt.gen.m.gen.layers.0.attn.gv.w
opt.gen.v.gen.layers.0.attn.gv.w opt.gen.m.gen.layers.0.attn.gv.b opt.gen.v.gen.layers.0.attn.gv.b
opt.gen.m.gen.layers.0.attn.out.w opt.gen.v.gen.layers.0.attn.out.w
opt.gen.m.gen.layers.0.attn.out.b opt.gen.v.gen.layers.0.attn.out.b opt.gen.m.gen.layers.0.ln1.g
opt.gen.v.gen.layers.0.ln1.g opt.gen.m.gen.layers.0.ln1.b opt.gen.v.gen.layers.0.ln1.b
opt.gen.m.gen.layers.0.ln2.g opt.gen.v.gen.layers.0.ln2.g opt.gen.m.gen.layers.0.ln2.b
opt.gen.v.gen.layers.0.ln2.b opt.gen.m.gen.layers.0.ffn.w1 opt.gen.v.gen.layers.0.ffn.w1
opt.gen.m.gen.layers.0.ffn.b1 opt.gen.v.gen.layers.0.ffn.b1 opt.gen.m.gen.layers.0.ffn.w2
opt.gen.v.gen.layers.0.ffn.w2 opt.gen.m.gen.layers.0.ffn.b2 opt.gen.v.gen.layers.0.ffn.b2
opt.gen.m.gen.ln_f.g opt.gen.v.gen.ln_f.g opt.gen.m.gen.ln_f.b opt.gen.v.gen.ln_f.b
opt.gen.m.gen.head.bias opt.gen.v.gen.head.bias
""".split()


class TestCheckpointResume:
    def test_saved_array_names_and_order(self):
        cfg = EncoderConfig(vocab_size=7, hidden=4, layers=0, heads=2, intermediate=6, window=2,
                            max_positions=5)
        trainer = RtdPretrainer(cfg, PretrainHyper(), seed=0)
        assert list(trainer._all_arrays()) == SAVED_NAMES

    def test_bit_identical_continuation(self, tmp_path):
        chunks = random_ids(substream(6, "ids"), 12, 24)

        straight = tiny_trainer(seed=7)
        records = list(straight.run(chunks, steps=5))

        split = tiny_trainer(seed=7)
        first = list(split.run(chunks, steps=3))
        split.checkpoint(tmp_path / "ck")
        resumed = RtdPretrainer.resume(tmp_path / "ck")
        rest = list(resumed.run(chunks, steps=2))

        assert first == records[:3]
        assert rest == records[3:]

    def test_resume_restores_counters_and_history(self, tmp_path):
        trainer = tiny_trainer(seed=8)
        chunks = random_ids(substream(7, "ids"), 6, 24)
        list(trainer.run(chunks, steps=4))
        trainer.checkpoint(tmp_path / "ck")
        back = RtdPretrainer.resume(tmp_path / "ck")
        assert back.step_count == 4
        assert back.opt.step_count == 4

    def test_bad_saved_hyper_is_a_format_error(self, tmp_path):
        import json

        from blf.errors import FormatError

        tiny_trainer(seed=8).checkpoint(tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        manifest["extra"]["hyper"]["batch_size"] = 0
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="extra.hyper: batch_size must be >= 1"):
            RtdPretrainer.resume(tmp_path / "ck")

    def test_wrong_kind_rejected(self, tmp_path):
        from blf.checkpoint import save_checkpoint

        save_checkpoint(tmp_path / "ck", {"x": np.zeros(2, np.float32)}, {}, extra={"kind": "other"})
        with pytest.raises(UsageError):
            RtdPretrainer.resume(tmp_path / "ck")
