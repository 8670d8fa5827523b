"""Cached beam-search decoding against the paths it replaced.

`IncrementalDecoder.step` must give the logits `Seq2SeqModel.decode` gives
for the last position of each beam's full prefix, and bit for bit those of
the graph-op step `ReferenceIncrementalDecoder` (tests/helpers.py).
`next_candidates` must pick what the per-beam `reference_candidates` picks,
and `beam_search_generate` the tokens of `reference_beam_search`, which
re-decodes every prefix from scratch.
"""

import numpy as np
import pytest

import blf.attention
import blf.seq2seq
import blf.tensor
from blf.encoder import EncoderConfig
from blf.errors import RangeError
from blf.rng import substream
from blf.seq2seq import (
    DecoderConfig,
    GenerationParams,
    IncrementalDecoder,
    Seq2SeqModel,
    beam_search_generate,
    log_probs,
    next_candidates,
)
from blf.tensor import Tensor, no_grad

from helpers import (ReferenceIncrementalDecoder, reference_beam_search, reference_candidates,
                     reference_log_softmax)


def random_model(seed, hidden=16, vocab=24, max_tgt=32, dtype=np.float32):
    heads = 4 if hidden >= 32 else 2
    enc = EncoderConfig(vocab_size=vocab, hidden=hidden, layers=1, heads=heads,
                        intermediate=2 * hidden, window=4, max_positions=32)
    dec = DecoderConfig(hidden=hidden, layers=2, heads=heads, intermediate=2 * hidden,
                        max_target_positions=max_tgt)
    return Seq2SeqModel(enc, dec, seed=seed, dtype=dtype)


def random_input(model, seed, length=12, pad=3):
    """Token ids with `pad` trailing padding positions, so the cross-attention mask matters."""
    ids = substream(seed, "inc-input").integers(3, model.encoder_config.vocab_size, size=length)
    ids[length - pad:] = model.pad_id
    return ids


class TestStepLogits:
    @pytest.mark.parametrize("seed,hidden,dtype,tol", [
        (0, 16, np.float32, 1e-5),
        (1, 32, np.float32, 1e-5),
        (2, 64, np.float32, 1e-5),
        (3, 16, np.float64, 1e-12),
    ])
    def test_every_step_matches_full_prefix_decode(self, seed, hidden, dtype, tol):
        model = random_model(seed, hidden=hidden, dtype=dtype)
        memory, mem_pad = model.encode(random_input(model, seed)[None, :])
        memory = memory.detach()
        decoder = IncrementalDecoder(model, memory, mem_pad)
        rng = substream(seed, "inc-steps")
        V = model.encoder_config.vocab_size

        prefixes = [[model.bos_id]]
        parents = np.zeros(1, dtype=np.int64)
        for t in range(12):
            got = decoder.step([p[-1] for p in prefixes], parents)
            k = len(prefixes)
            mem_k = Tensor(np.repeat(memory.data, k, axis=0), dtype=memory.dtype)
            want = model.decode(np.asarray(prefixes), mem_k, np.repeat(mem_pad, k, axis=0)).data[:, -1]
            assert got.shape == (k, V)
            if t == 0:
                assert np.array_equal(got, want)  # one-row pass, as decode at T=1
            assert np.max(np.abs(got - want)) <= tol, f"step {t}"
            # next beams: two of them share the first parent, and the beam count varies
            width = int(rng.integers(2, 5))
            parents = np.concatenate(([0, 0], rng.integers(0, k, size=width - 2)))
            tokens = rng.integers(0, V, size=width)
            prefixes = [prefixes[b] + [int(tok)] for b, tok in zip(parents, tokens)]

    def test_position_past_the_decoder_cap_is_a_range_error(self):
        model = random_model(4, max_tgt=2)
        memory, mem_pad = model.encode(random_input(model, 4)[None, :])
        decoder = IncrementalDecoder(model, memory, mem_pad)
        decoder.step([model.bos_id], [0])
        decoder.step([5], np.zeros(1, dtype=np.int64))
        with pytest.raises(RangeError):
            decoder.step([6], np.zeros(1, dtype=np.int64))


class TestStepMatchesGraphStep:
    @pytest.mark.parametrize("seed,hidden,heads,input_len,pad,dtype", [
        (40, 16, 2, 12, 3, np.float32),
        (41, 64, 4, 37, 0, np.float32),
        (42, 36, 4, 21, 3, np.float32),  # widths off the kernels' 16-column blocks
        (43, 128, 2, 53, 0, np.float32),
        (44, 128, 2, 53, 7, np.float32),
        (45, 20, 5, 12, 3, np.float64),
        (46, 64, 2, 37, 0, np.float64),
    ])
    def test_logits_are_bit_equal_at_every_step(self, seed, hidden, heads, input_len, pad, dtype):
        enc = EncoderConfig(vocab_size=40, hidden=hidden, layers=1, heads=heads,
                            intermediate=2 * hidden, window=4, max_positions=64)
        dec = DecoderConfig(hidden=hidden, layers=2, heads=heads, intermediate=3 * hidden + 1,
                            max_target_positions=16)
        model = Seq2SeqModel(enc, dec, seed=seed, dtype=dtype)
        rng = substream(seed, "inc-oracle")
        for p in model.params():  # weights well above init scale, so a changed rounding shows
            p.data[...] = rng.normal(0.0, 0.5, size=p.shape)
        with no_grad():
            memory, mem_pad = model.encode(random_input(model, seed, length=input_len, pad=pad)[None, :])
            oracle = ReferenceIncrementalDecoder(model, memory, mem_pad)
        decoder = IncrementalDecoder(model, memory, mem_pad)
        tokens, parents = np.array([model.bos_id]), np.zeros(1, dtype=np.int64)
        for t in range(12):
            got = decoder.step(tokens, parents)
            with no_grad():
                want = oracle.step(tokens, parents)
            assert got.dtype == want.dtype and np.array_equal(got, want), f"step {t}"
            k = len(tokens)
            width = int(rng.integers(1, 8))  # odd and even widths; parents repeat
            parents = rng.integers(0, k, size=width)
            tokens = rng.integers(0, model.encoder_config.vocab_size, size=width)

    def test_a_step_builds_no_graph_node(self, monkeypatch):
        model = random_model(47)
        memory, mem_pad = model.encode(random_input(model, 47)[None, :])

        def no_node(*args):
            raise AssertionError("the step built a graph node")

        monkeypatch.setattr(blf.tensor, "_make", no_node)
        decoder = IncrementalDecoder(model, memory, mem_pad)
        tokens, parents = np.array([model.bos_id]), np.zeros(1, dtype=np.int64)
        for width in (3, 2, 1):
            decoder.step(tokens, parents)
            tokens, parents = np.arange(width) + 3, np.arange(width) % len(tokens)
        decoder.step(tokens, parents)

    @pytest.mark.parametrize("bad", [-1, 24])
    def test_token_id_out_of_range_is_a_range_error(self, bad):
        model = random_model(48)  # vocabulary 24
        memory, mem_pad = model.encode(random_input(model, 48)[None, :])
        decoder = IncrementalDecoder(model, memory, mem_pad)
        with pytest.raises(RangeError, match="token ids"):
            decoder.step([3, bad], [0, 0])


class TestOnePassPerStep:
    def test_each_step_multiplies_only_the_newest_rows(self, monkeypatch):
        """A step runs the same products whatever the prefix length, and each
        covers the k newest rows (per head, and rounded up to pairs)."""
        model = random_model(5)
        heads, layers = model.decoder_config.heads, model.decoder_config.layers
        memory, mem_pad = model.encode(random_input(model, 5)[None, :])
        rows = []
        product = blf.tensor._product

        def counted(a, b):
            rows.append(a.size // a.shape[-1])
            return product(a, b)

        for module in (blf.tensor, blf.attention, blf.seq2seq):
            monkeypatch.setattr(module, "_product", counted)
        decoder = IncrementalDecoder(model, memory, mem_pad)
        widths = [1, 3, 2, 4, 4, 1]
        parents = np.zeros(1, dtype=np.int64)
        for t, k in enumerate(widths):
            rows.clear()
            logits = decoder.step(np.arange(k) + 3, parents)
            assert logits.shape == (k, model.encoder_config.vocab_size)
            assert decoder.position == t + 1
            assert len(rows) == 12 * layers + 1  # q, k, v, 2 x attention, out; the same
            #                                      for cross-attention; the FFN's 2; the head
            assert max(rows) <= heads * (k + k % 2)
            parents = np.arange(widths[t + 1] if t + 1 < len(widths) else 1) % k

    def test_a_step_counts_the_multiply_adds_of_its_products(self):
        """Each product counts K per output of the rows it multiplies (a
        doubled one row counts once, an odd cross-attention row's double
        twice), and each dense layer a bias add per output."""
        model = random_model(7)
        d, V = model.decoder_config, model.encoder_config.vocab_size
        H, D, I, heads = d.hidden, d.head_dim, d.intermediate, d.heads
        memory, mem_pad = model.encode(random_input(model, 7)[None, :])
        S = memory.shape[1]
        decoder = IncrementalDecoder(model, memory, mem_pad)
        parents = np.zeros(1, dtype=np.int64)
        widths = [1, 3, 2, 1]
        for t, k in enumerate(widths):
            dense = 6 * k * H * (H + 1) + k * I * (H + 1) + k * H * (I + 1)
            self_attention = 2 * k * heads * (t + 1) * D
            cross_attention = 2 * heads * (k + k % 2) * S * D
            blf.tensor.reset_work()
            decoder.step(np.arange(k) + 3, parents)
            assert blf.tensor.work() == d.layers * (dense + self_attention + cross_attention) + k * V * H
            parents = np.arange(widths[t + 1] if t + 1 < len(widths) else 1) % k


def random_live(rng, k, length, V):
    """k beams of `length` tokens from a small vocabulary (so n-grams repeat), with scores."""
    return [(tuple(int(t) for t in rng.integers(0, V, size=length)), float(-rng.uniform(0, 20)))
            for _ in range(k)]


class TestNextCandidates:
    @pytest.mark.parametrize("V", [3, 24, 2000, 70000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_log_probs_are_the_per_row_log_softmax(self, V, dtype):
        rng = np.random.default_rng(V)
        logits = (rng.normal(size=(5, V)) * 4).astype(dtype)
        got = log_probs(logits)
        for b in range(5):
            assert np.array_equal(got[b], reference_log_softmax(logits[b]))

    @pytest.mark.parametrize("seed", range(40))
    def test_same_candidates_as_the_per_beam_rule(self, seed):
        rng = np.random.default_rng(seed)
        V = int(rng.choice([4, 6, 24, 500]))
        k = 1 if seed % 5 == 0 else int(rng.integers(2, 6))  # a fifth start from one beam
        beams = int(rng.choice([1, 2, 4, 30]))
        ban = int(rng.integers(0, 4))
        live = random_live(rng, k, int(rng.integers(1, 12)), min(V, 6))
        logits = (rng.normal(size=(k, V)) * 3).astype(np.float32)
        params = GenerationParams(num_beams=beams, no_repeat_ngram_size=ban)
        assert next_candidates(logits, live, params) == reference_candidates(logits, live, params)

    def test_fully_banned_rows_and_fewer_finite_candidates_than_beams(self):
        rng = np.random.default_rng(3)
        V = 6
        # with a 1-gram ban a beam may not repeat any token; beam 0 has used them all
        live = [((0, 1, 2, 3, 4, 5), -1.0), ((0, 1, 2, 3), -2.0), ((5,), -3.0)]
        logits = rng.normal(size=(3, V)).astype(np.float32)
        params = GenerationParams(num_beams=30, no_repeat_ngram_size=1)
        got = next_candidates(logits, live, params)
        assert got == reference_candidates(logits, live, params)
        assert len(got) == 2 + 5 and {b for _, _, b in got} == {1, 2}
        live = [live[0]]
        assert next_candidates(logits[:1], live, params) == [] == reference_candidates(logits[:1], live, params)

    def test_an_exact_tie_goes_to_the_lower_token_id(self):
        # tokens 1, 2 and 3 tie for first place; two beams are kept
        logits = np.array([[0.0, 1.0, 1.0, 1.0, -2.0]], dtype=np.float32)
        params = GenerationParams(num_beams=2, no_repeat_ngram_size=0)
        got = next_candidates(logits, [((0,), 0.0)], params)
        assert [seq for seq, _, _ in got] == [(0, 1), (0, 2)]
        assert got[0][1] == got[1][1]


class TestBeamSearchMatchesReference:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("beams", [1, 2, 4])
    @pytest.mark.parametrize("ban", [0, 2, 3])
    def test_same_tokens_as_uncached_search(self, seed, beams, ban):
        model = random_model(10 + seed, hidden=16 << seed)
        # a zero end-token row keeps every beam alive to the cap, so prefixes reach 12
        model.dec_tok_emb.data[model.eos_id] = 0.0
        ids = random_input(model, 20 + seed)
        params = GenerationParams(num_beams=beams, no_repeat_ngram_size=ban,
                                  max_input_length=16, max_target_length=12)
        got, got_score = beam_search_generate(model, ids, params, return_score=True)
        want, want_score = reference_beam_search(model, ids, params, return_score=True)
        assert got == want
        assert len(got) == 12
        assert got_score == pytest.approx(want_score, rel=1e-6)

    def test_search_never_calls_decode(self, monkeypatch):
        model = random_model(30)

        def no_decode(*args, **kwargs):
            raise AssertionError("beam search called model.decode")

        monkeypatch.setattr(model, "decode", no_decode)
        params = GenerationParams(num_beams=4, no_repeat_ngram_size=3,
                                  max_input_length=16, max_target_length=10)
        beam_search_generate(model, random_input(model, 30), params)

    def test_target_length_over_cap_fails_before_encoding(self, monkeypatch):
        model = random_model(31, max_tgt=8)
        encoded = []
        monkeypatch.setattr(model, "encode", lambda *a, **kw: encoded.append(a))
        params = GenerationParams(num_beams=2, max_input_length=16, max_target_length=9)
        with pytest.raises(RangeError, match="max_target_positions"):
            beam_search_generate(model, random_input(model, 31), params)
        assert encoded == []
