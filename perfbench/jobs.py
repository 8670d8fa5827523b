"""The three workloads: set-up, one timed unit of work, output checks and layer probes.

A job's unit is what its caller waits for: a pretraining step, one
summarized record, or one cycle of the three text commands. Every timing
here is taken from outside the program. In a traced run `probe` patches the
program's names where their callers look them up, and `layers` turns the
recorded spans into per-unit layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from blf import bpe, cli, data, encoder, optim, pretrain, rouge, seq2seq, tensor
from blf.checkpoint import load_checkpoint

import gen
import spans
import stats

# unit ids of the spans recorded outside the timed units
SETUP, FINISH = "setup", "finish"


class CheckFailed(Exception):
    """An output of the program is wrong."""


class Unit:
    """What one timed unit produced: its wall time and the tokens that time bought."""

    def __init__(self, seconds: float, tokens: int, token_seconds: float | None = None):
        self.seconds = seconds
        self.tokens = tokens
        self.token_seconds = seconds if token_seconds is None else token_seconds


class Spans:
    """Per-name sums over the spans of a set of units."""

    def __init__(self, tracer: spans.Tracer, units):
        units = set(units)
        self.tracer = tracer
        self.units = units
        self.n_units = max(len(units), 1)
        self.total: dict[tuple[str, object], float] = {}
        self.self_total: dict[tuple[str, object], float] = {}
        self.calls: dict[tuple[str, object], int] = {}
        self.durations: dict[str, list[float]] = {}
        selfs = spans.self_times(tracer.spans)
        for (name, start, end, parent, unit), own in zip(tracer.spans, selfs):
            key = (name, unit if unit in (SETUP, FINISH) else "timed" if unit in units else None)
            self.total[key] = self.total.get(key, 0.0) + (end - start)
            self.self_total[key] = self.self_total.get(key, 0.0) + own
            self.calls[key] = self.calls.get(key, 0) + 1
            if key[1] == "timed":
                self.durations.setdefault(name, []).append(end - start)

    def per_unit(self, name: str) -> float:
        return self.total.get((name, "timed"), 0.0) / self.n_units

    def self_per_unit(self, name: str) -> float:
        return self.self_total.get((name, "timed"), 0.0) / self.n_units

    def n_calls(self, name: str) -> int:
        return self.calls.get((name, "timed"), 0)

    def calls_per_unit(self, name: str) -> float:
        return self.n_calls(name) / self.n_units

    def in_phase(self, name: str, phase: str) -> float:
        return self.total.get((name, phase), 0.0)

    def count(self, name: str) -> float:
        return sum(v for (n, unit), v in self.tracer.counts.items() if n == name and unit in self.units)

    def count_per_unit(self, name: str) -> float:
        return self.count(name) / self.n_units


def _probe_attention(tracer: spans.Tracer) -> None:
    """Forward span, forward madds, node count, and backward spans of the nodes each call made."""
    traced = tracer.wrap(encoder.sliding_window_attention, "attention.forward")

    def sliding_window_attention(*args, **kwargs):
        before = tensor.work()
        out = traced(*args, **kwargs)
        tracer.count("attention.madds", tensor.work() - before)
        inputs = [a for a in (*args, *kwargs.values()) if isinstance(a, tensor.Tensor)]
        nodes = spans.new_nodes(out, inputs)
        tracer.count("attention.nodes", len(nodes))
        for node in nodes:
            node._backward = tracer.wrap(node._backward, "attention.backward")
        return out

    tracer.replace(encoder, "sliding_window_attention", sliding_window_attention)


def _probe_backward(tracer: spans.Tracer) -> None:
    traced = tracer.wrap(tensor.Tensor.backward, "tensor.backward")

    def backward(self):
        tracer.count("tensor.graph_nodes", spans.reachable_count(self))
        return traced(self)

    tracer.replace(tensor.Tensor, "backward", backward)


def _attention_layers(s: Spans) -> dict:
    calls = s.n_calls("attention.forward")
    return {
        "attention.forward_s": s.per_unit("attention.forward"),
        "attention.backward_s": s.per_unit("attention.backward"),
        "attention.nodes_per_call": s.count("attention.nodes") / calls if calls else 0.0,
        "attention.madds": s.count_per_unit("attention.madds"),
        "tensor.madds": s.count_per_unit("tensor.madds"),
    }


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- pretraining -----------------------------------------------------------------------------


class PretrainJob:
    """RtdPretrainer steps on a chunk file, timed one `run` step at a time."""

    LOSS_STEPS = 10  # loss_end averages timed steps 1..LOSS_STEPS, so a seed repeats it exactly

    def __init__(self, name: str, inputs: Path, seed: int, work: Path):
        self.inputs, self.seed, self.work = inputs, seed, work
        shape = gen.TINY
        self.config = encoder.preset("tiny")
        self.warmup_units, self.min_units = 2, 20
        self.tokens_per_step = shape["batch"] * shape["L"]
        self.hyper = pretrain.PretrainHyper(
            batch_size=shape["batch"], base_lr=5e-4, warmup_steps=50, total_steps=500,
            disc_weight=50.0, mlm_probability=0.25, depth_divisor=4,
        )
        self.losses: list[float] = []

    def setup(self, tracer=None):
        """Read chunks, build the trainer, run the warmup steps; returns (state, signature)."""
        chunks = data.read_chunks(self.inputs / "chunks.bin").chunks
        trainer = pretrain.RtdPretrainer(self.config, self.hyper, seed=self.seed)
        if tracer is not None:
            tracer.patch(trainer.gen, "forward", "encoder.gen_forward")
            tracer.patch(trainer.disc, "forward", "encoder.disc_forward")
        steps = trainer.run(chunks, steps=1 << 30)
        warm = [self._checked(next(steps)) for _ in range(self.warmup_units)]
        return (trainer, steps), warm

    @staticmethod
    def _checked(metrics: dict) -> tuple:
        losses = (metrics["total"], metrics["gen_loss"], metrics["disc_loss"])
        if not all(math.isfinite(x) for x in losses):
            raise CheckFailed(f"non-finite loss at step {metrics['step']}: {losses}")
        return losses

    def unit(self, state, tracer=None) -> Unit:
        trainer, steps = state
        before = tensor.work()
        idx = tracer.open("pretrain.step") if tracer else None
        t0 = perf_counter()
        metrics = next(steps)
        seconds = perf_counter() - t0
        if tracer:
            tracer.close(idx)
            tracer.count("tensor.madds", tensor.work() - before)
        self.losses.append(self._checked(metrics)[0])
        return Unit(seconds, self.tokens_per_step)

    def finish(self, state) -> dict:
        """Save as `blf pretrain` does after its loop, then read the checkpoint back."""
        trainer, _ = state
        t0 = perf_counter()
        trainer.checkpoint(self.work / "checkpoint")
        trainer.export_encoder(self.work / "encoder")
        save_s = perf_counter() - t0
        _, arrays, extra = load_checkpoint(self.work / "checkpoint")
        if extra.get("step") != trainer.step_count or not arrays:
            raise CheckFailed("saved checkpoint does not read back at the trained step")
        out = {"save_s": save_s}
        if len(self.losses) >= self.LOSS_STEPS:
            out["loss_end"] = float(np.mean(self.losses[: self.LOSS_STEPS]))
        return out

    @staticmethod
    def probe(tracer: spans.Tracer) -> None:
        _probe_attention(tracer)
        _probe_backward(tracer)
        tracer.patch(pretrain, "mask_tokens", "pretrain.mask")
        tracer.patch(pretrain, "sample_replacements", "pretrain.sample")
        tracer.patch(optim.AdamW, "step", "optim.step")
        tracer.patch(pretrain, "save_checkpoint", "checkpoint.save")
        tracer.patch(encoder, "save_checkpoint", "checkpoint.save")
        tracer.patch(data, "read_chunks", "data.read")

    @staticmethod
    def layers(s: Spans) -> dict:
        return {
            **_attention_layers(s),
            "tensor.backward_s": s.per_unit("tensor.backward"),
            "tensor.graph_nodes": s.count_per_unit("tensor.graph_nodes"),
            "encoder.gen_forward_s": s.per_unit("encoder.gen_forward"),
            "encoder.disc_forward_s": s.per_unit("encoder.disc_forward"),
            "pretrain.mask_s": s.per_unit("pretrain.mask"),
            "pretrain.sample_s": s.per_unit("pretrain.sample"),
            "pretrain.other_s": s.self_per_unit("pretrain.step"),
            "optim.step_s": s.per_unit("optim.step"),
            "checkpoint.save_s": s.in_phase("checkpoint.save", FINISH),
            "data.read_s": s.in_phase("data.read", SETUP),
        }


# --- summarization ---------------------------------------------------------------------------


class SummarizeJob:
    """`blf generate` in-process: load, then summarize_file over one-record files."""

    def __init__(self, name: str, inputs: Path, seed: int, work: Path):
        s = gen.SUMMARIZE
        self.inputs, self.work = inputs, work
        self.params = seq2seq.GenerationParams(
            num_beams=s["num_beams"], no_repeat_ngram_size=s["no_repeat_ngram_size"],
            max_input_length=s["max_input_length"], max_target_length=s["max_target_length"],
        )
        self.records = sorted((inputs / "records").glob("rec_*.jsonl"))
        self.warmup_units, self.min_units = 1, 20
        self.done = 0
        self.digest = hashlib.sha256()
        (work / "summaries").mkdir(exist_ok=True)

    def setup(self, tracer=None):
        model = seq2seq.Seq2SeqModel.load(self.inputs / "model")
        tokenizer = bpe.load(self.inputs / "tokenizer" / "vocab.jsonl",
                             self.inputs / "tokenizer" / "merges.txt")
        if tracer is not None:
            def positions(args, kwargs, logits):
                tracer.count("seq2seq.decode_positions", np.asarray(args[0]).size)

            tracer.patch(model, "encode", "seq2seq.encode")
            tracer.patch(model, "decode", "seq2seq.decode", after=positions)
            tracer.patch(model.encoder, "forward", "encoder.forward")
        out = self.work / "summaries" / "warmup.jsonl"
        self._summarize(model, tokenizer, self.inputs / "warmup.jsonl", out)
        return (model, tokenizer), out.read_text(encoding="utf-8")

    def _summarize(self, model, tokenizer, src: Path, dst: Path) -> int:
        result = seq2seq.summarize_file(model, tokenizer, self.params, src, dst)
        entry = json.loads(dst.read_text(encoding="utf-8"))
        if result != {"written": 1, "errors": 0} or "error" in entry:
            raise CheckFailed(f"{src.name}: {entry.get('error', result)}")
        if entry["token_count"] != self.params.max_target_length:
            raise CheckFailed(f"{src.name}: {entry['token_count']} tokens generated, "
                              f"expected {self.params.max_target_length}")
        return entry["token_count"]

    def unit(self, state, tracer=None) -> Unit:
        model, tokenizer = state
        src = self.records[self.done % len(self.records)]
        dst = self.work / "summaries" / f"out_{self.done:03d}.jsonl"
        self.done += 1
        before = tensor.work()
        idx = tracer.open("seq2seq.record") if tracer else None
        t0 = perf_counter()
        tokens = self._summarize(model, tokenizer, src, dst)
        seconds = perf_counter() - t0
        if tracer:
            tracer.close(idx)
            tracer.count("tensor.madds", tensor.work() - before)
            tracer.count("seq2seq.generated_tokens", tokens)
        self.digest.update(dst.read_bytes())
        return Unit(seconds, tokens)

    def finish(self, state) -> dict:
        return {"records": self.done, "output_digest": self.digest.hexdigest()}

    @staticmethod
    def probe(tracer: spans.Tracer) -> None:
        _probe_attention(tracer)
        tracer.patch(seq2seq, "load_checkpoint", "checkpoint.load")
        tracer.patch(bpe, "load", "bpe.load")
        tracer.patch(bpe.ByteBpeModel, "encode", "bpe.encode")
        tracer.patch(seq2seq, "beam_search_generate", "seq2seq.beam")
        tracer.patch(seq2seq, "banned_next_tokens", "seq2seq.ban")

    @staticmethod
    def layers(s: Spans) -> dict:
        generated = s.count("seq2seq.generated_tokens")
        records = s.durations.get("seq2seq.record", [])
        return {
            **_attention_layers(s),
            "encoder.forward_s": s.per_unit("encoder.forward"),
            "seq2seq.record_s_p50": stats.median(records) if records else 0.0,
            "seq2seq.encode_s": s.per_unit("seq2seq.encode"),
            "seq2seq.decode_s": s.per_unit("seq2seq.decode"),
            "seq2seq.decode_calls": s.calls_per_unit("seq2seq.decode"),
            "seq2seq.ban_s": s.per_unit("seq2seq.ban"),
            "seq2seq.search_other_s": s.self_per_unit("seq2seq.beam"),
            "seq2seq.decode_positions_per_token":
                s.count("seq2seq.decode_positions") / generated if generated else 0.0,
            "checkpoint.load_s": s.in_phase("checkpoint.load", SETUP),
            "bpe.encode_s": s.per_unit("bpe.encode"),
            "bpe.load_s": s.in_phase("bpe.load", SETUP),
        }


# --- text commands ---------------------------------------------------------------------------


class CorpusJob:
    """One cycle of `train-tokenizer`, `prepare-data` and `rouge` through blf.cli.main."""

    def __init__(self, name: str, inputs: Path, seed: int, work: Path):
        self.inputs, self.work = inputs, work
        self.warmup_units, self.min_units = 1, 2
        self.train_s: list[float] = []
        self.rouge_rates: list[float] = []

    @staticmethod
    def _main(argv, tracer) -> int:
        if tracer is None:
            return cli.main(argv)
        idx = tracer.open("cli.command")
        try:
            return cli.main(argv)
        finally:
            tracer.close(idx)

    def _cycle(self, prefix: str, out: Path, tracer=None) -> tuple[list[float], dict, int]:
        """The three commands on the `prefix` inputs; returns (seconds each, chunk manifest, pairs)."""
        c = gen.CORPUS
        docs = str(self.inputs / f"{prefix}docs.jsonl")
        tok, chunks, report = out / "tokenizer", out / "chunks.bin", out / "rouge.json"
        commands = [
            ["train-tokenizer", "--corpus", str(self.inputs / f"{prefix}train.jsonl"),
             "--input-format", "jsonl", "--vocab-size", str(c["vocab"]), "--out", str(tok)],
            ["prepare-data", "--input", docs, "--tokenizer", str(tok), "--out", str(chunks),
             "--sequence-length", str(c["L"]), "--workers", "1"],
            ["rouge", "--predictions", str(self.inputs / f"{prefix}preds.jsonl"),
             "--references", str(self.inputs / f"{prefix}refs.jsonl"), "--out", str(report)],
        ]
        seconds = []
        for argv in commands:
            t0 = perf_counter()
            code = self._main(argv, tracer)
            seconds.append(perf_counter() - t0)
            if code != 0:
                raise CheckFailed(f"blf {argv[0]} exited with code {code}")
        return seconds, self._check_chunks(chunks), self._check_rouge(report)

    @staticmethod
    def _check_chunks(path: Path) -> dict:
        manifest = json.loads(Path(f"{path}.manifest.json").read_text(encoding="utf-8"))
        streamed = manifest["total_stream_tokens"]
        if manifest["total_emitted_tokens"] + manifest["total_dropped_tokens"] != streamed:
            raise CheckFailed(f"{path.name}: emitted + dropped != streamed")
        for b in manifest["batches"]:
            if b["chunks"] * manifest["sequence_length"] + b["dropped"] != b["stream_tokens"]:
                raise CheckFailed(f"{path.name}: a batch does not conserve its tokens")
        dataset = data.read_chunks(path)
        if dataset.chunks.shape != (manifest["num_chunks"], manifest["sequence_length"]):
            raise CheckFailed(f"{path.name}: read back as {dataset.chunks.shape}, not the manifest's shape")
        again = path.with_name(path.name + ".reread")
        data.write_chunks(again, dataset)
        if again.read_bytes() != path.read_bytes():
            raise CheckFailed(f"{path.name}: read_chunks does not round-trip")
        return manifest

    @staticmethod
    def _check_rouge(path: Path) -> int:
        pairs = json.loads(path.read_text(encoding="utf-8"))["pairs"]
        for pid, scores in pairs.items():
            for metric, row in scores.items():
                if not 0.0 <= row["f1"] <= 1.0:
                    raise CheckFailed(f"rouge {metric} F1 {row['f1']} for {pid} is outside [0, 1]")
        return len(pairs)

    def setup(self, tracer=None):
        """A warm cycle on small inputs; its outputs are the determinism signature."""
        out = self.work / "warm"
        out.mkdir(exist_ok=True)
        self._cycle("warm_", out)
        signature = [_digest(out / "tokenizer" / "merges.txt"), _digest(out / "chunks.bin"),
                     _digest(out / "rouge.json")]
        return None, signature

    def unit(self, state, tracer=None) -> Unit:
        out = self.work / "cycle"
        out.mkdir(exist_ok=True)
        (train_s, prepare_s, rouge_s), manifest, pairs = self._cycle("", out, tracer)
        self.train_s.append(train_s)
        self.rouge_rates.append(pairs / rouge_s)
        streamed = manifest["total_stream_tokens"]
        if tracer:
            tracer.count("data.dropped", manifest["total_dropped_tokens"])
            tracer.count("data.streamed", streamed)
            tracer.count("rouge.pairs", pairs)
        return Unit(train_s + prepare_s + rouge_s, streamed, token_seconds=prepare_s)

    def finish(self, state) -> dict:
        return {
            "tokenizer_train_s": stats.median(self.train_s),
            "rouge_pairs_per_s": stats.median(self.rouge_rates),
        }

    @staticmethod
    def probe(tracer: spans.Tracer) -> None:
        tracer.patch(bpe, "train_tokenizer", "bpe.train")
        tracer.patch(bpe, "load", "bpe.load")
        tracer.patch(bpe.ByteBpeModel, "encode", "bpe.encode")
        tracer.patch(data, "concat_and_chunk", "data.chunk")
        tracer.patch(data, "write_chunks", "data.write")
        tracer.patch(cli, "score_pair", "rouge.score")
        tracer.patch(rouge, "tokenize", "rouge.tokenize")
        tracer.patch(rouge, "porter_stem", "rouge.stem")
        tracer.patch(rouge, "_lcs_length", "rouge.lcs")
        tracer.patch(rouge, "_lcs_table", "rouge.lcs")

    def layers(self, s: Spans) -> dict:
        pairs = s.count("rouge.pairs")
        streamed = s.count("data.streamed")
        return {
            "bpe.train_s": s.per_unit("bpe.train"),
            "bpe.encode_s": s.per_unit("bpe.encode"),
            "bpe.load_s": s.per_unit("bpe.load"),
            "bpe.distinct_pretoken_ratio": self.distinct_pretoken_ratio(),
            "data.chunk_s": s.per_unit("data.chunk"),
            "data.write_s": s.per_unit("data.write"),
            "data.dropped_ratio": s.count("data.dropped") / streamed if streamed else 0.0,
            "rouge.score_s": s.per_unit("rouge.score"),
            "rouge.tokenize_calls_per_pair":
                s.n_calls("rouge.tokenize") / pairs if pairs else 0.0,
            "rouge.stem_s": s.per_unit("rouge.stem"),
            "rouge.lcs_s": s.per_unit("rouge.lcs"),
            "cli.overhead_s": s.self_per_unit("cli.command"),
        }

    def distinct_pretoken_ratio(self) -> float:
        """Workload property: distinct pretokens over all pretokens of the prepare-data input."""
        seen, total = set(), 0
        for rec in data.ingest(self.inputs / "docs.jsonl"):
            pre = bpe.pretokenize(rec.text)
            seen.update(pre)
            total += len(pre)
        return len(seen) / total


JOBS = {
    "pretrain-tiny": PretrainJob,
    "summarize-1k": SummarizeJob,
    "corpus": CorpusJob,
}
