"""Cached beam-search decoding against the uncached path it replaced.

`IncrementalDecoder.step` must give the logits `Seq2SeqModel.decode` gives
for the last position of each beam's full prefix, and `beam_search_generate`
must pick the same tokens as `reference_beam_search` (tests/helpers.py),
which re-decodes every prefix from scratch.
"""

import numpy as np
import pytest

from blf.encoder import EncoderConfig
from blf.errors import RangeError
from blf.rng import substream
from blf.seq2seq import (
    DecoderConfig,
    GenerationParams,
    IncrementalDecoder,
    Seq2SeqModel,
    beam_search_generate,
)
from blf.tensor import Tensor

from helpers import reference_beam_search


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


class TestOneTowerPassPerStep:
    def test_step_runs_the_decoder_once_on_the_newest_tokens(self, monkeypatch):
        model = random_model(5)
        memory, mem_pad = model.encode(random_input(model, 5)[None, :])
        calls = []
        run = model.decoder.run

        def counted(ids, positions, *args, **kwargs):
            calls.append((np.shape(ids), list(positions)))
            return run(ids, positions, *args, **kwargs)

        monkeypatch.setattr(model.decoder, "run", counted)
        decoder = IncrementalDecoder(model, memory, mem_pad)
        widths = [1, 3, 2, 4]
        parents = np.zeros(1, dtype=np.int64)
        for t, k in enumerate(widths):
            logits = decoder.step(np.arange(k) + 3, parents)
            assert logits.shape == (k, model.encoder_config.vocab_size)
            assert calls == [((k, 1), [t])]
            calls.clear()
            parents = np.arange(widths[t + 1] if t + 1 < len(widths) else 1) % k


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
