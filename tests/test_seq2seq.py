import json
import re

import numpy as np
import pytest

from blf.encoder import (
    EncoderConfig,
    LongformerEncoder,
    count_parameters,
    preset,
    save_encoder_checkpoint,
)
from blf import seq2seq
from blf.errors import ConfigError, FormatError, NumericError, RangeError, ShapeError, UsageError
from blf.pretrain import PretrainHyper, RtdPretrainer
from blf.rng import substream
from blf.seq2seq import (
    GENERATION_PROFILES,
    DecoderConfig,
    EarlyStopState,
    FinetuneHyper,
    GenerationParams,
    Seq2SeqModel,
    banned_next_tokens,
    beam_search_generate,
    build_seq2seq,
    decoder_for_encoder,
    encode_clipped,
    finetune,
    mha,
    pad_batch,
    prepare_pairs,
    summarize_file,
    validation_loss,
)
from blf.tensor import NEG_INF, Tensor, matmul, transpose

from helpers import finite_difference_check, reference_banned_next_tokens


def toy_model(seed=0, vocab=16, hidden=16, max_tgt=16, enc_layers=1, dec_layers=1):
    cfg = EncoderConfig(vocab_size=vocab, hidden=hidden, layers=enc_layers, heads=2,
                        intermediate=2 * hidden, window=4, max_positions=32)
    dec = DecoderConfig(hidden=hidden, layers=dec_layers, heads=2,
                        intermediate=2 * hidden, max_target_positions=max_tgt)
    return Seq2SeqModel(cfg, dec, seed=seed)


def vocab3_model(seed):
    cfg = EncoderConfig(vocab_size=3, hidden=8, layers=1, heads=2, intermediate=16,
                        window=2, max_positions=8)
    dec = DecoderConfig(hidden=8, layers=1, heads=2, intermediate=16, max_target_positions=8)
    return Seq2SeqModel(cfg, dec, seed=seed)


def _log_softmax(row):
    z = row.astype(np.float64)
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def strip_markers(model, seq):
    out = list(seq[1:])
    if out and out[-1] == model.eos_id:
        out = out[:-1]
    return out


def greedy_reference(model, input_ids, max_len):
    """Pure argmax decoding, written independently of the beam code."""
    memory, mem_pad = model.encode(np.asarray(input_ids)[None, :])
    memory = memory.detach()
    seq = (model.bos_id,)
    for _ in range(max_len):
        logits = model.decode(np.asarray([seq]), memory, mem_pad).data[0, -1]
        tok = int(np.argmax(_log_softmax(logits)))
        seq = seq + (tok,)
        if tok == model.eos_id:
            break
    return strip_markers(model, seq)


def exhaustive_best(model, input_ids, params):
    """Score every legal sequence of generated length <= max under beam scoring."""
    memory, mem_pad = model.encode(np.asarray(input_ids)[None, :])
    memory = memory.detach()
    V = model.encoder_config.vocab_size
    best = [None, -np.inf]

    def visit(seq, score):
        gen = len(seq) - 1
        if (gen > 0 and seq[-1] == model.eos_id) or gen == params.max_target_length:
            n = score / (gen ** params.length_penalty)
            if n > best[1] or (n == best[1] and (best[0] is None or seq > best[0])):
                best[0], best[1] = seq, n
            return
        lp = _log_softmax(model.decode(np.asarray([seq]), memory, mem_pad).data[0, -1])
        banned = banned_next_tokens(seq, params.no_repeat_ngram_size)
        for tok in range(V):
            if tok not in banned:
                visit(seq + (tok,), score + float(lp[tok]))

    visit((model.bos_id,), 0.0)
    return best[0], best[1]


class CharTokenizer:
    """Lowercase letters and space, ids from 5 upward."""

    alphabet = "abcdefghijklmnopqrstuvwxyz "

    def encode(self, text):
        return [5 + self.alphabet.index(c) for c in text if c in self.alphabet]

    def decode(self, ids):
        return "".join(self.alphabet[i - 5] for i in ids if 5 <= i - 0 < 5 + len(self.alphabet))


class TestConfigs:
    def test_decoder_requires_divisible_heads(self):
        with pytest.raises(ConfigError):
            DecoderConfig(hidden=10, heads=4)

    def test_decoder_positive_fields(self):
        with pytest.raises(ConfigError):
            DecoderConfig(hidden=16, heads=2, layers=0)

    def test_decoder_from_base_encoder(self):
        dec = decoder_for_encoder(preset("base"))
        assert (dec.hidden, dec.layers, dec.heads, dec.intermediate) == (768, 6, 12, 3072)

    def test_decoder_from_small_encoder(self):
        dec = decoder_for_encoder(preset("small"))
        assert (dec.hidden, dec.layers, dec.heads, dec.intermediate) == (256, 6, 4, 1024)

    def test_generation_param_validation(self):
        with pytest.raises(ConfigError):
            GenerationParams(num_beams=0)
        with pytest.raises(ConfigError):
            GenerationParams(no_repeat_ngram_size=-1)
        with pytest.raises(ConfigError):
            GenerationParams(max_target_length=0)
        assert GenerationParams(no_repeat_ngram_size=0).no_repeat_ngram_size == 0

    def test_generation_defaults(self):
        p = GenerationParams()
        assert (p.num_beams, p.no_repeat_ngram_size, p.length_penalty) == (4, 3, 1.0)

    def test_profiles(self):
        spans = {
            name: (p.max_input_length, p.max_target_length) for name, p in GENERATION_PROFILES.items()
        }
        assert spans == {
            "billsum-short": (1024, 256),
            "billsum-long": (4096, 1024),
            "pubmed": (4096, 512),
        }

    def test_finetune_defaults(self):
        h = FinetuneHyper()
        assert (h.batch_size, h.lr, h.patience) == (32, 7e-5, 3)

    def test_width_mismatch(self):
        cfg = EncoderConfig(vocab_size=16, hidden=16, layers=1, heads=2, intermediate=32,
                            window=4, max_positions=16)
        with pytest.raises(ConfigError):
            Seq2SeqModel(cfg, DecoderConfig(hidden=32, heads=2), seed=0)


class TestEarlyStop:
    def test_forced_trace(self):
        state = EarlyStopState(patience=3)
        losses = [2.0, 1.9, 1.95, 1.91, 1.93]
        stops = [state.update(v) for v in losses]
        assert stops == [False, False, False, False, True]
        assert state.best_validation_loss == 1.9
        assert state.epochs_since_improvement == 3

    def test_improvement_resets_counter(self):
        state = EarlyStopState(patience=2)
        assert not state.update(3.0)
        assert not state.update(3.5)
        assert not state.update(2.5)
        assert state.epochs_since_improvement == 0

    def test_equal_loss_is_not_improvement(self):
        state = EarlyStopState(patience=2)
        state.update(1.0)
        assert not state.update(1.0)
        assert state.update(1.0)


class TestBuild:
    def test_same_checkpoint_and_seed_identical(self, tmp_path):
        enc = LongformerEncoder(
            EncoderConfig(vocab_size=16, hidden=16, layers=1, heads=2, intermediate=32,
                          window=4, max_positions=32),
            substream(3, "enc"),
        )
        save_encoder_checkpoint(tmp_path / "enc", enc)
        dec = DecoderConfig(hidden=16, layers=1, heads=2, intermediate=32, max_target_positions=16)
        rng = substream(4, "pairs")
        pairs = [(rng.integers(5, 16, size=10), np.array([0, 6, 7, 1])) for _ in range(4)]
        losses = []
        for _ in range(2):
            model = build_seq2seq(tmp_path / "enc", dec, seed=11)
            losses.append(validation_loss(model, pairs, batch_size=2))
        assert losses[0] == losses[1]

    def test_encoder_weights_come_from_checkpoint(self, tmp_path):
        enc = LongformerEncoder(
            EncoderConfig(vocab_size=16, hidden=16, layers=1, heads=2, intermediate=32,
                          window=4, max_positions=32),
            substream(5, "enc"),
        )
        save_encoder_checkpoint(tmp_path / "enc", enc)
        dec = DecoderConfig(hidden=16, layers=1, heads=2, intermediate=32)
        model = build_seq2seq(tmp_path / "enc", dec, seed=0)
        assert np.array_equal(model.encoder.tok_emb.data, enc.tok_emb.data)
        assert np.array_equal(model.encoder.layers[0]["q.w"].data, enc.layers[0]["q.w"].data)

    def test_pretrain_checkpoint_supplies_discriminator(self, tmp_path):
        cfg = EncoderConfig(vocab_size=32, hidden=16, layers=2, heads=2, intermediate=32,
                            window=4, max_positions=32)
        trainer = RtdPretrainer(cfg, PretrainHyper(batch_size=2, base_lr=1e-3), seed=1)
        ids = substream(6, "ids").integers(5, 32, size=(2, 16))
        trainer.step(ids)
        trainer.checkpoint(tmp_path / "pre")
        trainer.export_encoder(tmp_path / "exported")

        dec = DecoderConfig(hidden=16, layers=1, heads=2, intermediate=32)
        from_pre = build_seq2seq(tmp_path / "pre", dec, seed=0)
        from_exp = build_seq2seq(tmp_path / "exported", dec, seed=0)
        assert np.array_equal(from_pre.encoder.tok_emb.data, trainer.disc.tok_emb.data)
        for a, b in zip(from_pre.encoder.params(), from_exp.encoder.params()):
            assert np.array_equal(a.data, b.data)

    def test_decoder_seed_controls_decoder_only(self, tmp_path):
        enc = LongformerEncoder(
            EncoderConfig(vocab_size=16, hidden=16, layers=1, heads=2, intermediate=32,
                          window=4, max_positions=32),
            substream(7, "enc"),
        )
        save_encoder_checkpoint(tmp_path / "enc", enc)
        dec = DecoderConfig(hidden=16, layers=1, heads=2, intermediate=32)
        a = build_seq2seq(tmp_path / "enc", dec, seed=1)
        b = build_seq2seq(tmp_path / "enc", dec, seed=2)
        assert np.array_equal(a.encoder.tok_emb.data, b.encoder.tok_emb.data)
        assert not np.array_equal(a.dec_tok_emb.data, b.dec_tok_emb.data)

    def test_width_mismatch_rejected(self, tmp_path):
        enc = LongformerEncoder(
            EncoderConfig(vocab_size=16, hidden=16, layers=1, heads=2, intermediate=32,
                          window=4, max_positions=32),
            substream(8, "enc"),
        )
        save_encoder_checkpoint(tmp_path / "enc", enc)
        with pytest.raises(ConfigError):
            build_seq2seq(tmp_path / "enc", DecoderConfig(hidden=32, heads=2), seed=0)

    def test_corrupted_manifest_is_format_error(self, tmp_path):
        enc = LongformerEncoder(
            EncoderConfig(vocab_size=16, hidden=16, layers=1, heads=2, intermediate=32,
                          window=4, max_positions=32),
            substream(9, "enc"),
        )
        save_encoder_checkpoint(tmp_path / "enc", enc)
        manifest = tmp_path / "enc" / "manifest.json"
        manifest.write_text(manifest.read_text()[:-40])
        with pytest.raises(FormatError):
            build_seq2seq(tmp_path / "enc", DecoderConfig(hidden=16, heads=2), seed=0)

    def test_wrong_kind_rejected(self, tmp_path):
        model = toy_model()
        model.checkpoint(tmp_path / "s2s")
        with pytest.raises(UsageError):
            build_seq2seq(tmp_path / "s2s", DecoderConfig(hidden=16, heads=2), seed=0)

    @pytest.mark.slow
    def test_small_encoder_parameter_recount(self, tmp_path):
        cfg = preset("small")
        enc = LongformerEncoder(cfg, substream(0, "enc"))
        save_encoder_checkpoint(tmp_path / "enc", enc)
        model = build_seq2seq(tmp_path / "enc", decoder_for_encoder(cfg), seed=0)
        loaded = sum(p.size for p in model.encoder.params())
        assert loaded == count_parameters(cfg) == 29_278_720


class TestModelCheckpoint:
    def test_round_trip_preserves_generation(self, tmp_path):
        model = toy_model(seed=3)
        model.checkpoint(tmp_path / "m", extra={"note": 1})
        back = Seq2SeqModel.load(tmp_path / "m")
        ids = substream(1, "x").integers(5, 16, size=9)
        p = GenerationParams(num_beams=2, no_repeat_ngram_size=2, max_input_length=9, max_target_length=6)
        assert beam_search_generate(model, ids, p) == beam_search_generate(back, ids, p)

    def test_load_rejects_other_kind(self, tmp_path):
        enc = LongformerEncoder(
            EncoderConfig(vocab_size=16, hidden=16, layers=1, heads=2, intermediate=32,
                          window=4, max_positions=32),
            substream(2, "enc"),
        )
        save_encoder_checkpoint(tmp_path / "enc", enc)
        with pytest.raises(UsageError):
            Seq2SeqModel.load(tmp_path / "enc")


class TestDecoderForward:
    def test_causality(self):
        # future target tokens cannot change earlier logits
        model = toy_model(seed=4)
        memory, mem_pad = model.encode(np.full((1, 8), 6))
        a = np.array([[0, 5, 6, 7]])
        b = np.array([[0, 5, 6, 9]])
        la = model.decode(a, memory, mem_pad).data
        lb = model.decode(b, memory, mem_pad).data
        assert np.array_equal(la[0, :3], lb[0, :3])
        assert not np.array_equal(la[0, 3], lb[0, 3])

    def test_cross_attention_sees_encoder(self):
        model = toy_model(seed=5)
        ma, _ = model.encode(np.full((1, 8), 6))
        mb, _ = model.encode(np.full((1, 8), 7))
        dec_in = np.array([[0, 5]])
        pad = np.zeros((1, 8), dtype=bool)
        la = model.decode(dec_in, ma, pad).data
        lb = model.decode(dec_in, mb, pad).data
        assert not np.array_equal(la, lb)

    def test_memory_padding_is_invisible(self):
        model = toy_model(seed=6)
        ids_a = np.array([[6, 7, 8, 2, 2]])
        ids_b = np.array([[6, 7, 8, 2, 2]])
        ma, pa = model.encode(ids_a)
        # alter the embedding rows behind the padding; mask must hide them
        mb = ma.detach()
        mb.data[0, 3:] += 10.0
        dec_in = np.array([[0, 5, 6]])
        la = model.decode(dec_in, ma.detach(), pa).data
        lb = model.decode(dec_in, mb, pa).data
        assert np.array_equal(la, lb)

    def test_target_length_cap(self):
        model = toy_model(max_tgt=4)
        memory, mem_pad = model.encode(np.full((1, 6), 6))
        with pytest.raises(RangeError):
            model.decode(np.zeros((1, 5), dtype=np.int64), memory, mem_pad)

    def test_loss_gradients_match_finite_differences(self):
        cfg = EncoderConfig(vocab_size=10, hidden=8, layers=1, heads=2, intermediate=16,
                            window=4, max_positions=16)
        dec = DecoderConfig(hidden=8, layers=1, heads=2, intermediate=16, max_target_positions=8)
        model = Seq2SeqModel(cfg, dec, seed=0, dtype=np.float64)
        rng = substream(3, "fd")
        inputs = [rng.integers(5, 10, size=7), rng.integers(5, 10, size=5)]
        targets = [np.array([0, 5, 6, 1]), np.array([0, 7, 1])]

        def make_loss():
            return model.loss_on_batch(inputs, targets)[0]

        finite_difference_check(make_loss, model.params(), substream(4, "pick"),
                                h=1e-5, rel_tol=1e-4, max_entries_per_param=4)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_biases_in_the_model_dtype_keep_loss_and_gradients(self, dtype, monkeypatch):
        """`decode` builds its masks in the model dtype; the float64 masks it
        built before, cast in every layer, give the same bytes."""
        model = toy_model(seed=7, dec_layers=2)
        model = Seq2SeqModel(model.encoder_config, model.decoder_config, seed=7, dtype=dtype)
        rng = substream(8, "bias-dtype")
        inputs = [rng.integers(3, 16, size=n) for n in (9, 6, 3)]  # padded memory rows
        targets = [np.concatenate(([0], rng.integers(3, 16, size=n), [1])) for n in (5, 2, 7)]

        def loss_and_grads():
            for p in model.params():
                p.grad[...] = 0
            loss, _ = model.loss_on_batch(inputs, targets)
            loss.backward()
            return [loss.data.tobytes()] + [p.grad.tobytes() for p in model.params()]

        want = loss_and_grads()

        def float64_masks(target_in, memory, memory_padding):
            T, d = target_in.shape[1], model.decoder_config
            causal = np.triu(np.full((1, 1, T, T), NEG_INF), k=1)
            cross = np.where(memory_padding, NEG_INF, 0.0)[:, None, None, :]

            def attentions(l, layer):
                return (lambda h: mha(h, layer, "self", d.heads, h, causal),
                        lambda h: mha(h, layer, "cross", d.heads, memory, cross))

            x = model.decoder.run(target_in, np.arange(T), attentions)
            return matmul(x, transpose(model.dec_tok_emb, (1, 0)))

        monkeypatch.setattr(model, "decode", float64_masks)
        assert loss_and_grads() == want


class TestFinetune:
    def make_copy_task(self, rng, n_pairs, in_len=10, copy_len=4, vocab=16):
        pairs = []
        for _ in range(n_pairs):
            body = rng.integers(5, vocab, size=in_len)
            target = np.concatenate(([0], body[:copy_len], [1]))
            pairs.append((body, target))
        return pairs

    def test_empty_dataset_rejected(self):
        model = toy_model()
        with pytest.raises(UsageError):
            finetune(model, [], [(np.array([5]), np.array([0, 5, 1]))], FinetuneHyper())
        with pytest.raises(UsageError):
            finetune(model, [(np.array([5]), np.array([0, 5, 1]))], [], FinetuneHyper())

    def test_lr_zero_is_a_null_update(self):
        model = toy_model(seed=7)
        rng = substream(5, "pairs")
        pairs = self.make_copy_task(rng, 6)
        before = {p.name: p.data.copy() for p in model.params()}
        result = finetune(model, pairs, pairs[:2], FinetuneHyper(batch_size=3, lr=0.0, max_epochs=4, patience=3))
        vals = [h["validation_loss"] for h in result["history"]]
        assert all(v == vals[0] for v in vals)
        for p in model.params():
            assert np.array_equal(p.data, before[p.name])

    def test_lr_zero_epochs_build_no_graph(self, monkeypatch):
        model = toy_model(seed=7)
        pairs = self.make_copy_task(substream(5, "pairs"), 6)
        hyper = FinetuneHyper(batch_size=4, lr=0.0, max_epochs=2, patience=3, seed=2)
        # the training losses as a graph-building pass computes them
        order_rng = substream(hyper.seed, "finetune-order")
        want = []
        for _ in range(hyper.max_epochs):
            order = order_rng.permutation(len(pairs))
            total, count = 0.0, 0
            for start in range(0, len(order), hyper.batch_size):
                batch = [pairs[r] for r in order[start : start + hyper.batch_size]]
                loss, n = model.loss_on_batch([p[0] for p in batch], [p[1] for p in batch])
                assert loss.requires_grad
                total += loss.item() * n
                count += n
            want.append(total / count)
        losses = []
        loss_on_batch = model.loss_on_batch

        def recording(*args):
            loss, n = loss_on_batch(*args)
            losses.append(loss)
            return loss, n

        monkeypatch.setattr(model, "loss_on_batch", recording)
        result = finetune(model, pairs, pairs[:2], hyper)
        assert len(losses) == 2 * (2 + 1)  # per epoch: two training batches, one validation batch
        assert not any(loss.requires_grad for loss in losses)
        assert [h["train_loss"] for h in result["history"]] == want
        monkeypatch.undo()
        assert [h["validation_loss"] for h in result["history"]] == [validation_loss(model, pairs[:2], 4)] * 2

    def test_non_finite_gradient_stops_before_any_update(self, monkeypatch):
        model = toy_model(seed=12)
        pairs = self.make_copy_task(substream(10, "pairs"), 4)
        before = {p.name: p.data.copy() for p in model.params()}
        poisoned = model.params()[-1]
        backward = Tensor.backward

        def poisoning(self):
            backward(self)
            poisoned.grad.reshape(-1)[0] = np.inf

        monkeypatch.setattr(Tensor, "backward", poisoning)
        with pytest.raises(NumericError, match=rf"^non-finite gradient in {poisoned.name}$"):
            finetune(model, pairs, pairs, FinetuneHyper(batch_size=2, lr=1e-3, max_epochs=2))
        for p in model.params():
            assert np.array_equal(p.data, before[p.name]), p.name
            assert not p.grad.any(), p.name

    def test_negative_lr_rejected(self):
        with pytest.raises(UsageError):
            FinetuneHyper(lr=-1e-4)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(UsageError, match="lr must be finite and non-negative"):
            FinetuneHyper(lr=lr)

    def test_copy_task_halves_validation_loss(self):
        model = toy_model(seed=8, hidden=32)
        rng = substream(6, "pairs")
        train = self.make_copy_task(rng, 50)
        val = self.make_copy_task(rng, 10)
        hyper = FinetuneHyper(batch_size=10, lr=3e-3, max_epochs=30, patience=5, seed=0)
        result = finetune(model, train, val, hyper)
        first = result["history"][0]["validation_loss"]
        assert result["best_validation_loss"] <= 0.5 * first

    def test_model_ends_holding_best_weights(self, tmp_path):
        model = toy_model(seed=9)
        rng = substream(7, "pairs")
        train = self.make_copy_task(rng, 12)
        val = self.make_copy_task(rng, 4)
        hyper = FinetuneHyper(batch_size=6, lr=5e-3, max_epochs=6, patience=2, seed=1)
        result = finetune(model, train, val, hyper, checkpoint_dir=tmp_path / "best")
        held = validation_loss(model, val, batch_size=4)
        assert held == pytest.approx(result["best_validation_loss"], rel=1e-6)
        reloaded = Seq2SeqModel.load(tmp_path / "best")
        assert validation_loss(reloaded, val, batch_size=4) == pytest.approx(held, rel=1e-6)

    def test_early_stop_fires_in_loop(self):
        # a model that cannot improve: lr 0 gives a flat trace, so patience
        # epochs after the first the loop must stop
        model = toy_model(seed=10)
        pairs = self.make_copy_task(substream(8, "pairs"), 4)
        result = finetune(model, pairs, pairs, FinetuneHyper(batch_size=2, lr=0.0, max_epochs=20, patience=3))
        assert result["stopped_early"]
        assert result["epochs_run"] == 4  # epoch 1 sets best; 3 flat epochs follow
        assert result["best_epoch"] == 1

    def test_nan_validation_loss_is_not_an_improvement(self, monkeypatch):
        model = toy_model(seed=11)
        pairs = self.make_copy_task(substream(9, "pairs"), 4)
        losses = iter([2.0, float("nan"), 1.5])
        monkeypatch.setattr(seq2seq, "validation_loss", lambda *args: next(losses))
        result = finetune(model, pairs, pairs, FinetuneHyper(batch_size=2, lr=1e-3, max_epochs=3, patience=3))
        assert [h["improved"] for h in result["history"]] == [True, False, True]
        assert result["best_epoch"] == 3
        assert result["best_validation_loss"] == 1.5

    def test_prepare_pairs_truncates_and_validates(self):
        tok = CharTokenizer()
        records = [{"id": "a", "text": "abcdefghij", "summary": "abc"}]
        pairs = prepare_pairs(records, tok, max_input_length=6, max_target_length=4)
        inp, tgt = pairs[0]
        assert len(inp) == 6 and inp[0] == 0 and inp[-1] == 1
        assert len(tgt) == 4 and tgt[0] == 0 and tgt[-1] == 1
        with pytest.raises(UsageError, match="bad1"):
            prepare_pairs([{"id": "bad1", "text": "", "summary": "x"}], tok, 8, 8)
        with pytest.raises(UsageError):
            prepare_pairs([{"text": "x", "summary": ""}], tok, 8, 8)

    @pytest.mark.parametrize("record", [
        {"id": "bad2", "text": 5, "summary": "x"}, {"id": "bad2", "text": "x", "summary": ["x"]},
        {"id": "bad2", "text": {"a": "b"}, "summary": "x"}, {"id": "bad2", "text": "x", "summary": True},
    ], ids=["int-text", "list-summary", "object-text", "bool-summary"])
    def test_prepare_pairs_refuses_a_field_that_is_not_a_string(self, record):
        with pytest.raises(UsageError, match="record bad2: finetuning needs non-empty string text and summary"):
            prepare_pairs([record], CharTokenizer(), 8, 8)


class TestBannedNgrams:
    def test_disabled(self):
        assert banned_next_tokens((1, 2, 3), 0) == set()

    def test_unigram_bans_everything_seen(self):
        assert banned_next_tokens((4, 7, 4), 1) == {4, 7}

    def test_bigram(self):
        # sequence contains bigrams (5,6),(6,5),(5,7); after trailing 5 the
        # banned continuations are exactly {6, 7}
        assert banned_next_tokens((5, 6, 5, 7, 5), 2) == {6, 7}

    def test_trigram_requires_full_prefix_match(self):
        assert banned_next_tokens((1, 2, 3, 1, 2), 3) == {3}
        assert banned_next_tokens((1, 2, 3, 2, 1), 3) == set()

    def test_short_sequence_no_bans(self):
        assert banned_next_tokens((0,), 3) == set()

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_set_of_all_ngrams(self, seed):
        """Equal to the rule that collects every n-gram, on fuzzed sequences
        over small vocabularies (so n-grams repeat), n from -1 to 5, as tuples
        and as lists."""
        rng = substream(seed, "ban-fuzz")
        for _ in range(1000):
            seq = tuple(int(t) for t in rng.integers(0, int(rng.integers(1, 6)), size=int(rng.integers(0, 30))))
            n = int(rng.integers(-1, 6))
            want = reference_banned_next_tokens(seq, n)
            assert banned_next_tokens(seq, n) == want, (seq, n)
            assert banned_next_tokens(list(seq), n) == want, (seq, n)


class TestBeamSearch:
    @pytest.mark.parametrize("seed", range(12))
    def test_beam_one_equals_greedy(self, seed):
        model = toy_model(seed=seed)
        ids = substream(seed, "inp").integers(5, 16, size=8)
        p = GenerationParams(num_beams=1, no_repeat_ngram_size=0, max_input_length=8, max_target_length=6)
        assert beam_search_generate(model, ids, p) == greedy_reference(model, ids, 6)

    @pytest.mark.parametrize("seed", range(8))
    def test_wider_beam_never_scores_worse(self, seed):
        model = toy_model(seed=seed + 20)
        ids = substream(seed, "mono").integers(5, 16, size=8)
        scores = []
        for k in (1, 4):
            p = GenerationParams(num_beams=k, no_repeat_ngram_size=0,
                                 max_input_length=8, max_target_length=6)
            scores.append(beam_search_generate(model, ids, p, return_score=True)[1])
        assert scores[1] >= scores[0] - 1e-12

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("no_repeat", [0, 2])
    def test_matches_exhaustive_enumeration(self, seed, no_repeat):
        model = vocab3_model(seed)
        ids = substream(seed, "ex").integers(0, 3, size=5)
        p = GenerationParams(num_beams=4, no_repeat_ngram_size=no_repeat,
                             max_input_length=8, max_target_length=4)
        got, got_score = beam_search_generate(model, ids, p, return_score=True)
        seq, want_score = exhaustive_best(model, ids, p)
        assert got == strip_markers(model, seq)
        assert got_score == pytest.approx(want_score, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_no_repeat_scan(self, seed):
        model = toy_model(seed=seed + 40, vocab=10, max_tgt=24)
        ids = substream(seed, "scan").integers(5, 10, size=8)
        p = GenerationParams(num_beams=3, no_repeat_ngram_size=3,
                             max_input_length=8, max_target_length=20)
        out = beam_search_generate(model, ids, p)
        full = [model.bos_id] + out
        trigrams = [tuple(full[i:i + 3]) for i in range(len(full) - 2)]
        assert len(trigrams) == len(set(trigrams))

    def test_truncated_tail_cannot_influence_output(self):
        model = toy_model(seed=50, vocab=16)
        rng = substream(9, "trunc")
        base = rng.integers(5, 16, size=12)
        variant = base.copy()
        variant[8:] = rng.integers(5, 16, size=4)  # differs only past the cap
        p = GenerationParams(num_beams=3, no_repeat_ngram_size=2,
                             max_input_length=8, max_target_length=6)
        assert beam_search_generate(model, base, p) == beam_search_generate(model, variant, p)

    def test_output_never_exceeds_target_cap(self):
        model = toy_model(seed=51)
        ids = substream(10, "cap").integers(5, 16, size=8)
        p = GenerationParams(num_beams=2, no_repeat_ngram_size=0,
                             max_input_length=8, max_target_length=3)
        assert len(beam_search_generate(model, ids, p)) <= 3

    def test_deterministic(self):
        model = toy_model(seed=52)
        ids = substream(11, "det").integers(5, 16, size=8)
        p = GenerationParams(num_beams=4, no_repeat_ngram_size=3,
                             max_input_length=8, max_target_length=8)
        assert beam_search_generate(model, ids, p) == beam_search_generate(model, ids, p)

    def test_non_finite_logits_raise_numeric_error(self):
        model = toy_model(seed=3)
        model.decoder.params()[-1].data.reshape(-1)[0] = np.nan
        p = GenerationParams(num_beams=2, no_repeat_ngram_size=0, max_input_length=8, max_target_length=4)
        with pytest.raises(NumericError, match="decoder logits are not finite"):
            beam_search_generate(model, np.arange(5, 12), p)


class TestSummarizeFile:
    def make_model_and_tok(self):
        cfg = EncoderConfig(vocab_size=40, hidden=16, layers=1, heads=2, intermediate=32,
                            window=4, max_positions=64)
        dec = DecoderConfig(hidden=16, layers=1, heads=2, intermediate=32, max_target_positions=16)
        return Seq2SeqModel(cfg, dec, seed=13), CharTokenizer()

    def test_one_record_in_one_out(self, tmp_path):
        model, tok = self.make_model_and_tok()
        src = tmp_path / "in.jsonl"
        records = [
            {"id": "doc-1", "text": "the quick brown fox"},
            {"text": "jumps over"},
            {"id": "doc-3", "text": "the lazy dog"},
        ]
        src.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = tmp_path / "out.jsonl"
        p = GenerationParams(num_beams=2, no_repeat_ngram_size=2,
                             max_input_length=32, max_target_length=8)
        out.write_text("an earlier run's output\n")
        stats = summarize_file(model, tok, p, src, out)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert stats == {"written": 3, "errors": 0}
        assert sorted(f.name for f in tmp_path.iterdir()) == ["in.jsonl", "out.jsonl"]
        assert [r["id"] for r in lines] == ["doc-1", "line-2", "doc-3"]
        for r, rec in zip(lines, records):
            assert set(r) == {"id", "summary", "token_count"}
            ids = encode_clipped(tok, rec["text"], p.max_input_length, model.bos_id, model.eos_id)
            want = beam_search_generate(model, ids, p)
            assert r["summary"] == tok.decode(want)
            assert r["token_count"] == len(want)

    @pytest.mark.parametrize("max_in, max_tgt, message", [
        (16, 17, "max_target_length 17 exceeds the model's max_target_positions 16"),
        (65, 4, "max_input_length 65 exceeds the encoder's max_positions 64"),
    ])
    def test_lengths_the_model_cannot_run_fail_before_any_record(self, tmp_path, max_in, max_tgt, message):
        model, tok = self.make_model_and_tok()
        src = tmp_path / "in.jsonl"
        src.write_text("".join(json.dumps({"id": f"doc-{n}", "text": "ab " * n}) + "\n" for n in (2, 30, 40)))
        p = GenerationParams(num_beams=1, max_input_length=max_in, max_target_length=max_tgt)
        with pytest.raises(ConfigError, match=message):
            summarize_file(model, tok, p, src, tmp_path / "out.jsonl")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["in.jsonl"]

    def test_bad_record_becomes_error_entry(self, tmp_path):
        model, tok = self.make_model_and_tok()
        src = tmp_path / "in.jsonl"
        src.write_text(
            json.dumps({"id": "ok", "text": "abc def"}) + "\n"
            + "{not json\n"
            + json.dumps({"id": "empty", "text": ""}) + "\n"
            + json.dumps({"id": "ok2", "text": "ghi"}) + "\n"
        )
        out = tmp_path / "out.jsonl"
        p = GenerationParams(num_beams=1, no_repeat_ngram_size=0,
                             max_input_length=16, max_target_length=4)
        stats = summarize_file(model, tok, p, src, out)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert stats == {"written": 2, "errors": 2}
        assert [r["id"] for r in lines] == ["ok", "line-2", "empty", "ok2"]
        assert "error" in lines[1] and "error" in lines[2]
        assert "summary" in lines[0] and "summary" in lines[3]

    def test_non_object_record_becomes_error_entry(self, tmp_path):
        model, tok = self.make_model_and_tok()
        src = tmp_path / "in.jsonl"
        src.write_text("[1, 2]\n" + json.dumps({"id": "ok", "text": "abc"}) + "\n")
        out = tmp_path / "out.jsonl"
        p = GenerationParams(num_beams=1, no_repeat_ngram_size=0,
                             max_input_length=16, max_target_length=4)
        assert summarize_file(model, tok, p, src, out) == {"written": 1, "errors": 1}
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["id"] == "line-1" and lines[0]["error"].startswith("FormatError")

    def test_program_fault_propagates(self, tmp_path, monkeypatch):
        model, tok = self.make_model_and_tok()
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"id": "ok", "text": "abc"}) + "\n")

        def broken(*args, **kwargs):
            raise ShapeError("cache rows disagree")

        monkeypatch.setattr(seq2seq, "beam_search_generate", broken)
        p = GenerationParams(num_beams=1, max_input_length=16, max_target_length=4)
        with pytest.raises(ShapeError, match="cache rows disagree"):
            summarize_file(model, tok, p, src, tmp_path / "out.jsonl")

    def test_a_stopped_run_leaves_an_earlier_output_as_it_was(self, tmp_path):
        model, tok = self.make_model_and_tok()
        model.decoder.params()[-1].data.reshape(-1)[0] = np.nan
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"id": "a", "text": "abc"}) + "\n" + json.dumps({"id": "b", "text": "de"}) + "\n")
        out = tmp_path / "out.jsonl"
        out.write_bytes(b'{"id": "earlier", "summary": "kept"}\n')
        p = GenerationParams(num_beams=1, max_input_length=16, max_target_length=4)
        with pytest.raises(NumericError, match="decoder logits are not finite"):
            summarize_file(model, tok, p, src, out)
        assert out.read_bytes() == b'{"id": "earlier", "summary": "kept"}\n'
        assert sorted(f.name for f in tmp_path.iterdir()) == ["in.jsonl", "out.jsonl"]

    def test_an_output_path_that_is_a_directory_fails_before_any_record(self, tmp_path, monkeypatch):
        model, tok = self.make_model_and_tok()
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"id": "a", "text": "abc"}) + "\n")
        (tmp_path / "out").mkdir()
        monkeypatch.setattr(seq2seq, "beam_search_generate", lambda *a, **kw: pytest.fail("a record ran"))
        p = GenerationParams(num_beams=1, max_input_length=16, max_target_length=4)
        with pytest.raises(IsADirectoryError):
            summarize_file(model, tok, p, src, tmp_path / "out")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["in.jsonl", "out"]

    def test_invalid_utf8_line_becomes_error_entry(self, tmp_path):
        model, tok = self.make_model_and_tok()
        src = tmp_path / "in.jsonl"
        src.write_bytes(b'{"id": "ok", "text": "abc"}\n{"id": "bad", "text": "caf\xe9"}\n'
                        b'{"id": "ok2", "text": "def"}\n')
        out = tmp_path / "out.jsonl"
        p = GenerationParams(num_beams=1, no_repeat_ngram_size=0,
                             max_input_length=16, max_target_length=4)
        assert summarize_file(model, tok, p, src, out) == {"written": 2, "errors": 1}
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in lines] == ["ok", "line-2", "ok2"]
        assert re.fullmatch(rf"FormatError: {re.escape(str(src))}:2: not UTF-8 \(.*\) \(byte 28\)", lines[1]["error"])

    def test_too_deeply_nested_line_becomes_error_entry(self, tmp_path):
        model, tok = self.make_model_and_tok()
        src = tmp_path / "in.jsonl"
        head = (json.dumps({"id": "ok", "text": "abc"}) + "\n\n").encode()
        src.write_bytes(head + b"[" * 100_000 + b"\n" + json.dumps({"id": "ok2", "text": "def"}).encode() + b"\n")
        out = tmp_path / "out.jsonl"
        p = GenerationParams(num_beams=1, no_repeat_ngram_size=0,
                             max_input_length=16, max_target_length=4)
        assert summarize_file(model, tok, p, src, out) == {"written": 2, "errors": 1}
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in lines] == ["ok", "line-3", "ok2"]
        assert lines[1]["error"] == f"FormatError: {src}:3: JSON nested too deeply (byte {len(head)})"

    def test_lone_surrogate_escape_becomes_error_entry_under_the_line_id(self, tmp_path):
        model, tok = self.make_model_and_tok()
        src = tmp_path / "in.jsonl"
        head = b'{"id": "\\udc80"}\n'
        src.write_bytes(head + b'{"id": "\\ud800", "text": "abc"}\n')
        out = tmp_path / "out.jsonl"
        p = GenerationParams(num_beams=1, no_repeat_ngram_size=0,
                             max_input_length=16, max_target_length=4)
        assert summarize_file(model, tok, p, src, out) == {"written": 0, "errors": 2}
        lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert lines == [
            {"id": "line-1", "error": f"FormatError: {src}:1: a JSON string holds a lone surrogate (byte 0)"},
            {"id": "line-2", "error": f"FormatError: {src}:2: a JSON string holds a lone surrogate (byte {len(head)})"},
        ]


class TestGraphFreeInference:
    def test_beam_search_encodes_outside_the_graph(self, monkeypatch):
        model = toy_model(seed=14)
        encode, memories = model.encode, []

        def spy(ids):
            memory, padding = encode(ids)
            memories.append(memory)
            return memory, padding

        monkeypatch.setattr(model, "encode", spy)
        p = GenerationParams(num_beams=2, no_repeat_ngram_size=0, max_input_length=8, max_target_length=4)
        beam_search_generate(model, np.arange(5, 12), p)
        assert len(memories) == 1 and not memories[0].requires_grad

    def test_validation_loss_builds_no_graph_and_training_still_does(self, monkeypatch):
        model = toy_model(seed=15)
        pairs = [(np.array([5, 6, 7]), np.array([0, 8, 9, 1])), (np.array([9, 8]), np.array([0, 7, 1]))]
        loss_on_batch, losses = model.loss_on_batch, []

        def spy(inputs, targets):
            losses.append(loss_on_batch(inputs, targets)[0])
            return losses[-1], 1

        monkeypatch.setattr(model, "loss_on_batch", spy)
        validation_loss(model, pairs, batch_size=1)
        assert len(losses) == 2 and not any(loss.requires_grad for loss in losses)
        loss, _ = loss_on_batch([p[0] for p in pairs], [p[1] for p in pairs])
        assert loss.requires_grad
        loss.backward()
        assert all(np.abs(p.grad).sum() > 0 for p in model.decoder.params())


class TestPadBatch:
    def test_pads_to_longest(self):
        out = pad_batch([np.array([5, 6]), np.array([7])], pad_id=2)
        assert out.tolist() == [[5, 6], [7, 2]]

    def test_encode_clipped_marks_ends(self):
        tok = CharTokenizer()
        ids = encode_clipped(tok, "abc", 10, 0, 1)
        assert ids[0] == 0 and ids[-1] == 1 and len(ids) == 5
