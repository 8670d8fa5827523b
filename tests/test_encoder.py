import json

import numpy as np
import pytest

from blf import tensor as T
from blf.attention import (
    GLOBAL,
    LOCAL,
    PAD,
    build_attention_mask,
    dense_attention_oracle,
    sliding_window_attention,
)
from blf.checkpoint import apply_arrays, load_checkpoint, params_to_arrays, save_checkpoint
from blf.encoder import EncoderConfig, LongformerEncoder, count_parameters, make_roles, preset
from blf.errors import ConfigError, FormatError, RangeError, ShapeError
from blf.rng import substream
from blf.tensor import Tensor, tmean

from helpers import finite_difference_check


def rand_qkv(rng, B, H, S, D, dtype=np.float32):
    return tuple(
        Tensor(rng.standard_normal((B, H, S, D)), dtype=dtype) for _ in range(3)
    )


def random_roles(rng, B, S, pad_prob=0.2, global_prob=0.1):
    r = np.full((B, S), LOCAL, dtype=np.int64)
    u = rng.random((B, S))
    r[u < pad_prob] = PAD
    r[(u >= pad_prob) & (u < pad_prob + global_prob)] = GLOBAL
    return r


class TestDenseOracle:
    def test_all_allowed_equals_plain_softmax_attention(self):
        rng = substream(0, "oracle")
        q, k, v = (rng.standard_normal((1, 2, 6, 4)) for _ in range(3))
        mask = np.ones((1, 6, 6), dtype=bool)
        got = dense_attention_oracle(q, k, v, mask)
        scores = q @ np.swapaxes(k, -1, -2) / 2.0
        e = np.exp(scores - scores.max(-1, keepdims=True))
        want = (e / e.sum(-1, keepdims=True)) @ v
        assert np.allclose(got, want, atol=1e-12)

    def test_fully_masked_row_is_zero(self):
        rng = substream(1, "oracle")
        q, k, v = (rng.standard_normal((1, 1, 4, 3)) for _ in range(3))
        mask = np.ones((1, 4, 4), dtype=bool)
        mask[0, 2, :] = False
        out = dense_attention_oracle(q, k, v, mask)
        assert np.all(out[0, 0, 2] == 0.0)


class TestMaskConstruction:
    def test_band_and_roles(self):
        roles = np.array([[GLOBAL, LOCAL, LOCAL, PAD]])
        m = build_attention_mask(roles, window=2)
        # global row attends every non-padding token
        assert m[0, 0].tolist() == [True, True, True, False]
        # local row 1: band {0, 1, 2} plus global {0}, minus padding
        assert m[0, 1].tolist() == [True, True, True, False]
        # local row 2: band {1, 2, 3} minus pad, plus global col 0
        assert m[0, 2].tolist() == [True, True, True, False]
        # padding row attends nothing
        assert m[0, 3].tolist() == [False, False, False, False]

    def test_odd_window_rejected(self):
        with pytest.raises(ConfigError):
            build_attention_mask(np.ones((1, 4), dtype=np.int64), window=3)


class TestSparseDenseEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_cases_f32(self, seed):
        rng = substream(seed, "equiv")
        S = int(rng.integers(1, 65))
        window = int(rng.choice([2, 4, 8]))
        B = int(rng.integers(1, 3))
        H = int(rng.integers(1, 3))
        D = 4
        roles = random_roles(rng, B, S)
        q, k, v = rand_qkv(rng, B, H, S, D)
        got = sliding_window_attention(q, k, v, window, roles).data
        want = dense_attention_oracle(q.data, k.data, v.data, build_attention_mask(roles, window))
        assert np.max(np.abs(got - want)) <= 1e-5

    def test_random_case_f64_tight(self):
        rng = substream(7, "equiv64")
        roles = random_roles(rng, 2, 33)
        q, k, v = rand_qkv(rng, 2, 2, 33, 8, dtype=np.float64)
        got = sliding_window_attention(q, k, v, 4, roles).data
        want = dense_attention_oracle(q.data, k.data, v.data, build_attention_mask(roles, 4))
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_window_covering_sequence_equals_dense(self):
        rng = substream(3, "cover")
        S = 9
        roles = np.full((1, S), LOCAL, dtype=np.int64)
        q, k, v = rand_qkv(rng, 1, 2, S, 4)
        got = sliding_window_attention(q, k, v, 2 * (S - 1), roles).data
        want = dense_attention_oracle(q.data, k.data, v.data, np.ones((1, S, S), dtype=bool))
        assert np.max(np.abs(got - want)) <= 1e-5

    def test_single_live_token_returns_own_value_row(self):
        rng = substream(4, "single")
        S = 7
        roles = np.full((1, S), PAD, dtype=np.int64)
        roles[0, 3] = LOCAL
        q, k, v = rand_qkv(rng, 1, 2, S, 4)
        out = sliding_window_attention(q, k, v, 4, roles).data
        assert np.allclose(out[0, :, 3, :], v.data[0, :, 3, :], atol=1e-6)
        live = np.zeros(S, dtype=bool)
        live[3] = True
        assert np.all(out[0, :, ~live, :] == 0.0)

    def test_separate_global_projections_match_dual_oracle(self):
        rng = substream(5, "dual")
        B, H, S, D, window = 2, 2, 20, 4, 4
        roles = random_roles(rng, B, S, pad_prob=0.15, global_prob=0.15)
        roles[:, 0] = GLOBAL  # ensure at least one global row
        q, k, v = rand_qkv(rng, B, H, S, D)
        qg, kg, vg = rand_qkv(rng, B, H, S, D)
        got = sliding_window_attention(q, k, v, window, roles, qg, kg, vg).data

        mask = build_attention_mask(roles, window)
        local_rows = (roles == LOCAL)[:, :, None]
        glob_rows = (roles == GLOBAL)[:, :, None]
        want = dense_attention_oracle(q.data, k.data, v.data, mask & local_rows)
        want = want + dense_attention_oracle(qg.data, kg.data, vg.data, mask & glob_rows)
        assert np.max(np.abs(got - want)) <= 1e-5

    def test_bad_inputs(self):
        rng = substream(6, "bad")
        q, k, v = rand_qkv(rng, 1, 1, 8, 4)
        roles = np.full((1, 8), LOCAL, dtype=np.int64)
        with pytest.raises(ConfigError):
            sliding_window_attention(q, k, v, 3, roles)
        with pytest.raises(ShapeError):
            sliding_window_attention(q, k, Tensor(np.zeros((1, 1, 8, 5))), 4, roles)
        with pytest.raises(ShapeError):
            sliding_window_attention(q, k, v, 4, np.full((1, 9), LOCAL))


class TestLocality:
    def test_values_outside_reach_do_not_matter(self):
        rng = substream(8, "local")
        B, H, S, D, window = 1, 2, 16, 4, 4
        roles = np.full((B, S), LOCAL, dtype=np.int64)
        roles[0, 0] = GLOBAL
        q, k, v = rand_qkv(rng, B, H, S, D)
        i = 10
        base = sliding_window_attention(q, k, v, window, roles).data[0, :, i, :]

        reach = np.zeros(S, dtype=bool)
        reach[max(0, i - 2): i + 3] = True  # window/2 = 2
        reach[roles[0] == GLOBAL] = True
        v_cut = v.data.copy()
        v_cut[0, :, ~reach, :] = 0.0
        cut = sliding_window_attention(q, k, Tensor(v_cut), window, roles).data[0, :, i, :]
        assert np.array_equal(base, cut)

    def test_work_grows_linearly_in_sequence_length(self):
        rng = substream(9, "work")

        def run(S):
            roles = np.full((1, S), LOCAL, dtype=np.int64)
            q, k, v = rand_qkv(rng, 1, 2, S, 8)
            T.reset_work()
            sliding_window_attention(q, k, v, 8, roles)
            return T.work()

        w1, w2 = run(64), run(128)
        assert 1.9 <= w2 / w1 <= 2.1


class TestParameterCount:
    def test_small_preset_anchor(self):
        n = count_parameters(preset("small"))
        assert n == 29_278_720
        assert abs(n / 29_000_000 - 1.0) <= 0.05

    def test_base_preset_anchor(self):
        n = count_parameters(preset("base"))
        assert n == 158_615_040
        assert abs(n / 159_000_000 - 1.0) <= 0.05

    def test_micro_config_hand_count(self):
        cfg = EncoderConfig(vocab_size=4, hidden=2, layers=1, heads=1, intermediate=2,
                            window=2, max_positions=4)
        # attn 7*(2*2+2)=42, norms 2*(2*2)=8, ffn (2*2+2)+(2*2+2)=12 -> layer 62
        # final norm 4, embeddings 4*2 + 4*2 = 16
        assert count_parameters(cfg) == 62 + 4 + 16

    def test_matches_instantiated_parameters(self):
        cfg = preset("tiny")
        enc = LongformerEncoder(cfg, substream(0, "init"))
        assert sum(p.size for p in enc.params()) == count_parameters(cfg)

    def test_monotone_in_each_extent(self):
        base_cfg = dict(vocab_size=32, hidden=8, layers=2, heads=2, intermediate=16,
                        window=4, max_positions=16)
        n0 = count_parameters(EncoderConfig(**base_cfg))
        for key, value in [("vocab_size", 64), ("hidden", 16), ("layers", 3),
                           ("intermediate", 32), ("max_positions", 32)]:
            bigger = dict(base_cfg)
            bigger[key] = value
            assert count_parameters(EncoderConfig(**bigger)) > n0


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            EncoderConfig(hidden=10, heads=4)
        with pytest.raises(ConfigError):
            EncoderConfig(window=7)
        with pytest.raises(ConfigError):
            EncoderConfig(window=8192, max_positions=4096)
        with pytest.raises(ConfigError):
            EncoderConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            preset("huge")

    def test_preset_overrides(self):
        cfg = preset("tiny", vocab_size=300)
        assert cfg.vocab_size == 300 and cfg.hidden == 64 and cfg.window == 8

    def test_make_roles(self):
        ids = np.array([[5, 6, 2, 2], [2, 7, 8, 9]])
        roles = make_roles(ids, pad_id=2, first_token_global=True)
        assert roles.tolist() == [[GLOBAL, LOCAL, PAD, PAD], [PAD, LOCAL, LOCAL, LOCAL]]
        roles = make_roles(ids, pad_id=2)
        assert roles.tolist() == [[LOCAL, LOCAL, PAD, PAD], [PAD, LOCAL, LOCAL, LOCAL]]


def toy_config(**kw):
    args = dict(vocab_size=12, hidden=8, layers=2, heads=2, intermediate=16,
                window=4, max_positions=12)
    args.update(kw)
    return EncoderConfig(**args)


class TestEncoderForward:
    def test_zero_layers_is_normed_embedding(self):
        cfg = toy_config(layers=0)
        enc = LongformerEncoder(cfg, substream(1, "init"))
        ids = np.array([[3, 5, 7]])
        roles = make_roles(ids, pad_id=None)
        out = enc.forward(ids, roles).data

        emb = enc.tok_emb.data[ids] + enc.pos_emb.data[np.arange(3)]
        mu = emb.mean(-1, keepdims=True)
        var = emb.var(-1, keepdims=True)
        want = (emb - mu) / np.sqrt(var + 1e-5) * enc.ln_f_g.data + enc.ln_f_b.data
        assert np.allclose(out, want, atol=1e-6)

    def test_padding_content_is_invisible(self):
        cfg = toy_config()
        enc = LongformerEncoder(cfg, substream(2, "init"))
        ids = np.array([[3, 5, 7, 1, 1, 1]])
        roles = make_roles(ids, pad_id=1)
        base = enc.forward(ids, roles).data
        scrambled = ids.copy()
        scrambled[0, 3:] = [9, 2, 4]  # different content, same padding roles
        out = enc.forward(scrambled, roles).data
        assert np.array_equal(base[0, :3], out[0, :3])

    def test_deterministic_given_seed(self):
        cfg = toy_config()
        ids = np.array([[1, 2, 3, 4]])
        roles = make_roles(ids, pad_id=None, first_token_global=True)
        outs = []
        for _ in range(2):
            enc = LongformerEncoder(cfg, substream(3, "init"))
            outs.append(enc.forward(ids, roles).data)
        assert np.array_equal(outs[0], outs[1])

    def test_sequence_length_cap(self):
        cfg = toy_config()
        enc = LongformerEncoder(cfg, substream(4, "init"))
        ids = np.zeros((1, 13), dtype=np.int64)
        with pytest.raises(RangeError):
            enc.forward(ids, make_roles(ids, pad_id=None))

    def test_ids_out_of_vocab(self):
        cfg = toy_config()
        enc = LongformerEncoder(cfg, substream(5, "init"))
        ids = np.array([[0, 99]])
        with pytest.raises(RangeError):
            enc.forward(ids, make_roles(ids, pad_id=None))

    def test_dropout_changes_training_forward_only(self):
        cfg = toy_config(dropout=0.5)
        enc = LongformerEncoder(cfg, substream(6, "init"))
        ids = np.array([[1, 2, 3, 4]])
        roles = make_roles(ids, pad_id=None)
        eval_a = enc.forward(ids, roles).data
        eval_b = enc.forward(ids, roles).data
        assert np.array_equal(eval_a, eval_b)
        train = enc.forward(ids, roles, train=True, rng=substream(0, "drop")).data
        assert not np.array_equal(eval_a, train)
        with pytest.raises(ConfigError):
            enc.forward(ids, roles, train=True)

    def test_shared_embeddings_are_same_objects(self):
        cfg = toy_config()
        owner = LongformerEncoder(cfg, substream(7, "init"), prefix="disc")
        gen = LongformerEncoder(cfg, substream(8, "init"), prefix="gen", embeddings_from=owner)
        assert gen.tok_emb is owner.tok_emb
        assert gen.pos_emb is owner.pos_emb
        names = [p.name for p in gen.params()]
        assert "disc.tok_emb" not in names and "gen.tok_emb" not in names

    @pytest.mark.parametrize("change", [dict(vocab_size=29), dict(max_positions=24)])
    def test_borrowed_tables_must_match_the_config(self, change):
        owner = LongformerEncoder(toy_config(**change), substream(7, "init"), prefix="disc")
        with pytest.raises(ConfigError, match="borrowed"):
            LongformerEncoder(toy_config(), substream(8, "init"), prefix="gen", embeddings_from=owner)

    def test_gradients_via_finite_differences(self):
        cfg = toy_config()
        enc = LongformerEncoder(cfg, substream(9, "init"), dtype=np.float64)
        ids = np.array([[3, 5, 7, 1, 0, 2], [4, 4, 9, 11, 1, 1]])
        roles = make_roles(ids, pad_id=1, first_token_global=True)

        def make_loss():
            return tmean(enc.forward(ids, roles))

        finite_difference_check(make_loss, enc.params(), substream(10, "fd"),
                                h=1e-5, rel_tol=1e-3, max_entries_per_param=6)


class TestCheckpoint:
    def _arrays(self):
        rng = substream(11, "ckpt")
        return {
            "a.w": rng.standard_normal((3, 4)).astype(np.float32),
            "a.b": rng.standard_normal(4).astype(np.float32),
            "scalar": np.float32(2.5).reshape(()),
        }

    def test_round_trip_byte_exact(self, tmp_path):
        arrays = self._arrays()
        save_checkpoint(tmp_path / "c", arrays, {"hidden": 8}, extra={"step": 3})
        config, back, extra = load_checkpoint(tmp_path / "c")
        assert config == {"hidden": 8}
        assert extra == {"step": 3}
        for name, arr in arrays.items():
            assert back[name].dtype == np.float32
            assert np.array_equal(back[name], arr)
            assert back[name].tobytes() == arr.tobytes()

    def test_save_twice_identical_bytes(self, tmp_path):
        arrays = self._arrays()
        for d in ("x", "y"):
            save_checkpoint(tmp_path / d, arrays, {"hidden": 8}, extra={"step": 3})
        for fname in ("manifest.json", "params.bin"):
            assert (tmp_path / "x" / fname).read_bytes() == (tmp_path / "y" / fname).read_bytes()

    def test_encoder_state_round_trip(self, tmp_path):
        cfg = toy_config()
        enc = LongformerEncoder(cfg, substream(12, "init"))
        ids = np.array([[1, 2, 3]])
        roles = make_roles(ids, pad_id=None)
        want = enc.forward(ids, roles).data
        save_checkpoint(tmp_path / "enc", params_to_arrays(enc.params()), {"preset": "toy"})

        fresh = LongformerEncoder(cfg, substream(99, "init"))
        assert not np.array_equal(fresh.forward(ids, roles).data, want)
        _, arrays, _ = load_checkpoint(tmp_path / "enc")
        apply_arrays(fresh.params(), arrays)
        assert np.array_equal(fresh.forward(ids, roles).data, want)

    def test_version_mismatch(self, tmp_path):
        save_checkpoint(tmp_path / "c", self._arrays(), {})
        mp = tmp_path / "c" / "manifest.json"
        m = json.loads(mp.read_text())
        m["version"] = 99
        mp.write_text(json.dumps(m))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(tmp_path / "c")

    def test_corrupted_manifest(self, tmp_path):
        save_checkpoint(tmp_path / "c", self._arrays(), {})
        (tmp_path / "c" / "manifest.json").write_text("{oops")
        with pytest.raises(FormatError, match="JSON"):
            load_checkpoint(tmp_path / "c")

    def test_truncated_buffer(self, tmp_path):
        save_checkpoint(tmp_path / "c", self._arrays(), {})
        bp = tmp_path / "c" / "params.bin"
        bp.write_bytes(bp.read_bytes()[:-4])
        with pytest.raises(FormatError, match="bytes"):
            load_checkpoint(tmp_path / "c")

    def test_apply_validates_before_mutating(self, tmp_path):
        cfg = toy_config()
        enc = LongformerEncoder(cfg, substream(13, "init"))
        before = enc.tok_emb.data.copy()
        arrays = params_to_arrays(enc.params())
        del arrays["enc.ln_f.g"]
        with pytest.raises(FormatError, match="missing"):
            apply_arrays(enc.params(), arrays)
        assert np.array_equal(enc.tok_emb.data, before)

    def test_non_f32_rejected(self, tmp_path):
        from blf.errors import UsageError

        with pytest.raises(UsageError):
            save_checkpoint(tmp_path / "c", {"x": np.zeros(3, dtype=np.float64)}, {})


# Ordered (name, shape) of every parameter, as the checkpoint format stores them.
_ENCODER_LAYOUT = [
    ('enc.tok_emb', (7, 4)), ('enc.pos_emb', (5, 4)), ('enc.layers.0.attn.q.w', (4, 4)),
    ('enc.layers.0.attn.q.b', (4,)), ('enc.layers.0.attn.k.w', (4, 4)),
    ('enc.layers.0.attn.k.b', (4,)), ('enc.layers.0.attn.v.w', (4, 4)),
    ('enc.layers.0.attn.v.b', (4,)), ('enc.layers.0.attn.gq.w', (4, 4)),
    ('enc.layers.0.attn.gq.b', (4,)), ('enc.layers.0.attn.gk.w', (4, 4)),
    ('enc.layers.0.attn.gk.b', (4,)), ('enc.layers.0.attn.gv.w', (4, 4)),
    ('enc.layers.0.attn.gv.b', (4,)), ('enc.layers.0.attn.out.w', (4, 4)),
    ('enc.layers.0.attn.out.b', (4,)), ('enc.layers.0.ln1.g', (4,)), ('enc.layers.0.ln1.b', (4,)),
    ('enc.layers.0.ln2.g', (4,)), ('enc.layers.0.ln2.b', (4,)), ('enc.layers.0.ffn.w1', (4, 6)),
    ('enc.layers.0.ffn.b1', (6,)), ('enc.layers.0.ffn.w2', (6, 4)), ('enc.layers.0.ffn.b2', (4,)),
    ('enc.ln_f.g', (4,)), ('enc.ln_f.b', (4,)),
]
_DECODER_LAYOUT = [
    ('dec.tok_emb', (7, 4)), ('dec.pos_emb', (3, 4)), ('dec.layers.0.self.q.w', (4, 4)),
    ('dec.layers.0.self.q.b', (4,)), ('dec.layers.0.self.k.w', (4, 4)),
    ('dec.layers.0.self.k.b', (4,)), ('dec.layers.0.self.v.w', (4, 4)),
    ('dec.layers.0.self.v.b', (4,)), ('dec.layers.0.self.out.w', (4, 4)),
    ('dec.layers.0.self.out.b', (4,)), ('dec.layers.0.cross.q.w', (4, 4)),
    ('dec.layers.0.cross.q.b', (4,)), ('dec.layers.0.cross.k.w', (4, 4)),
    ('dec.layers.0.cross.k.b', (4,)), ('dec.layers.0.cross.v.w', (4, 4)),
    ('dec.layers.0.cross.v.b', (4,)), ('dec.layers.0.cross.out.w', (4, 4)),
    ('dec.layers.0.cross.out.b', (4,)), ('dec.layers.0.ln1.g', (4,)), ('dec.layers.0.ln1.b', (4,)),
    ('dec.layers.0.ln2.g', (4,)), ('dec.layers.0.ln2.b', (4,)), ('dec.layers.0.ln3.g', (4,)),
    ('dec.layers.0.ln3.b', (4,)), ('dec.layers.0.ffn.w1', (4, 10)), ('dec.layers.0.ffn.b1', (10,)),
    ('dec.layers.0.ffn.w2', (10, 4)), ('dec.layers.0.ffn.b2', (4,)), ('dec.ln_f.g', (4,)),
    ('dec.ln_f.b', (4,)),
]
_RTD_GEN_LAYOUT = [
    ('gen.layers.0.attn.q.w', (4, 4)), ('gen.layers.0.attn.q.b', (4,)),
    ('gen.layers.0.attn.k.w', (4, 4)), ('gen.layers.0.attn.k.b', (4,)),
    ('gen.layers.0.attn.v.w', (4, 4)), ('gen.layers.0.attn.v.b', (4,)),
    ('gen.layers.0.attn.gq.w', (4, 4)), ('gen.layers.0.attn.gq.b', (4,)),
    ('gen.layers.0.attn.gk.w', (4, 4)), ('gen.layers.0.attn.gk.b', (4,)),
    ('gen.layers.0.attn.gv.w', (4, 4)), ('gen.layers.0.attn.gv.b', (4,)),
    ('gen.layers.0.attn.out.w', (4, 4)), ('gen.layers.0.attn.out.b', (4,)),
    ('gen.layers.0.ln1.g', (4,)), ('gen.layers.0.ln1.b', (4,)), ('gen.layers.0.ln2.g', (4,)),
    ('gen.layers.0.ln2.b', (4,)), ('gen.layers.0.ffn.w1', (4, 6)), ('gen.layers.0.ffn.b1', (6,)),
    ('gen.layers.0.ffn.w2', (6, 4)), ('gen.layers.0.ffn.b2', (4,)), ('gen.ln_f.g', (4,)),
    ('gen.ln_f.b', (4,)), ('gen.head.bias', (7,)),
]
_RTD_DISC_LAYOUT = [
    ('disc.tok_emb', (7, 4)), ('disc.pos_emb', (5, 4)), ('disc.layers.0.attn.q.w', (4, 4)),
    ('disc.layers.0.attn.q.b', (4,)), ('disc.layers.0.attn.k.w', (4, 4)),
    ('disc.layers.0.attn.k.b', (4,)), ('disc.layers.0.attn.v.w', (4, 4)),
    ('disc.layers.0.attn.v.b', (4,)), ('disc.layers.0.attn.gq.w', (4, 4)),
    ('disc.layers.0.attn.gq.b', (4,)), ('disc.layers.0.attn.gk.w', (4, 4)),
    ('disc.layers.0.attn.gk.b', (4,)), ('disc.layers.0.attn.gv.w', (4, 4)),
    ('disc.layers.0.attn.gv.b', (4,)), ('disc.layers.0.attn.out.w', (4, 4)),
    ('disc.layers.0.attn.out.b', (4,)), ('disc.layers.0.ln1.g', (4,)),
    ('disc.layers.0.ln1.b', (4,)), ('disc.layers.0.ln2.g', (4,)), ('disc.layers.0.ln2.b', (4,)),
    ('disc.layers.0.ffn.w1', (4, 6)), ('disc.layers.0.ffn.b1', (6,)),
    ('disc.layers.0.ffn.w2', (6, 4)), ('disc.layers.0.ffn.b2', (4,)),
    ('disc.layers.1.attn.q.w', (4, 4)), ('disc.layers.1.attn.q.b', (4,)),
    ('disc.layers.1.attn.k.w', (4, 4)), ('disc.layers.1.attn.k.b', (4,)),
    ('disc.layers.1.attn.v.w', (4, 4)), ('disc.layers.1.attn.v.b', (4,)),
    ('disc.layers.1.attn.gq.w', (4, 4)), ('disc.layers.1.attn.gq.b', (4,)),
    ('disc.layers.1.attn.gk.w', (4, 4)), ('disc.layers.1.attn.gk.b', (4,)),
    ('disc.layers.1.attn.gv.w', (4, 4)), ('disc.layers.1.attn.gv.b', (4,)),
    ('disc.layers.1.attn.out.w', (4, 4)), ('disc.layers.1.attn.out.b', (4,)),
    ('disc.layers.1.ln1.g', (4,)), ('disc.layers.1.ln1.b', (4,)), ('disc.layers.1.ln2.g', (4,)),
    ('disc.layers.1.ln2.b', (4,)), ('disc.layers.1.ffn.w1', (4, 6)), ('disc.layers.1.ffn.b1', (6,)),
    ('disc.layers.1.ffn.w2', (6, 4)), ('disc.layers.1.ffn.b2', (4,)), ('disc.ln_f.g', (4,)),
    ('disc.ln_f.b', (4,)), ('disc.head.w1', (4, 4)), ('disc.head.b1', (4,)),
    ('disc.head.w2', (4, 1)), ('disc.head.b2', (1,)),
]


def _layout(params):
    return [(p.name, p.shape) for p in params]


def _assert_redrawn(params, rng):
    """Weights and embedding tables come from `rng` in list order; norms start at 1, biases at 0."""
    for p in params:
        leaf = p.name.rsplit(".", 1)[1]
        if leaf.startswith("w") or leaf.endswith("_emb"):
            want = rng.normal(0.0, 0.02, size=p.shape).astype(np.float32)
        else:
            want = np.full(p.shape, 1.0 if leaf == "g" else 0.0, dtype=np.float32)
        assert np.array_equal(p.data, want), p.name


class TestLayout:
    """Pins parameter names, shapes, params() order and init draw order, so checkpoints keep their bytes."""

    ENC = EncoderConfig(vocab_size=7, hidden=4, layers=1, heads=2, intermediate=6, window=2,
                        max_positions=5)

    def test_encoder(self):
        enc = LongformerEncoder(self.ENC, substream(0, "enc-init"))
        assert _layout(enc.params()) == _ENCODER_LAYOUT
        _assert_redrawn(enc.params(), substream(0, "enc-init"))

    def test_seq2seq(self):
        from blf.seq2seq import DecoderConfig, Seq2SeqModel

        dec = DecoderConfig(hidden=4, layers=1, heads=2, intermediate=10, max_target_positions=3)
        model = Seq2SeqModel(self.ENC, dec, seed=0)
        assert _layout(model.params()) == _ENCODER_LAYOUT + _DECODER_LAYOUT
        _assert_redrawn(model.encoder.params(), substream(0, "enc-init"))
        _assert_redrawn(model.decoder.params(), substream(0, "dec-init"))

    def test_rtd_pretrainer(self):
        from blf.pretrain import PretrainHyper, RtdPretrainer

        cfg = EncoderConfig(vocab_size=7, hidden=4, layers=2, heads=2, intermediate=6, window=2,
                            max_positions=5)
        trainer = RtdPretrainer(cfg, PretrainHyper(depth_divisor=2), seed=0)
        n = len(_RTD_DISC_LAYOUT)
        disc, gen = trainer.opt.params[:n], trainer.opt.params[n:]
        assert _layout(gen) == _RTD_GEN_LAYOUT
        assert _layout(disc) == _RTD_DISC_LAYOUT
        # one stream: the discriminator tower, the generator tower, then the discriminator head
        _assert_redrawn(disc[:-4] + gen + disc[-4:], substream(0, "init"))
