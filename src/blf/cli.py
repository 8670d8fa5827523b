"""Config-driven command line tying the pipeline together.

Settings resolve in three layers: per-command defaults, then a flat
key=value config file (`--config`), then explicit flags. Unknown keys are
rejected. Every artifact-writing command embeds its effective config in a
manifest, and no output carries a timestamp, so seeded reruns are
byte-identical. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bpe, data
from .checkpoint import MOMENT_PREFIX, read_manifest
from .encoder import preset
from .errors import ConfigError, FormatError, NumericError, RangeError, ShapeError, UsageError
from .pretrain import PretrainHyper, RtdPretrainer
from .rouge import TokenizationPolicy, aggregate, score_pair
from .seq2seq import (
    GENERATION_PROFILES,
    FinetuneHyper,
    GenerationParams,
    Seq2SeqModel,
    build_seq2seq,
    check_lengths,
    decoder_for_encoder,
    finetune,
    prepare_pairs,
    read_encoder_config,
    summarize_file,
)

_REQUIRED = object()


@dataclass(frozen=True)
class Opt:
    kind: type
    default: object
    help: str


def _parse_bool(raw: str) -> bool:
    low = str(raw).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


_COMMON_GEN = {
    "profile": Opt(str, "billsum-short", "length profile: billsum-short | billsum-long | pubmed"),
    "max_input_length": Opt(int, 0, "input token cap (0 = take from profile)"),
    "max_target_length": Opt(int, 0, "target token cap (0 = take from profile)"),
}

OPTIONS: dict[str, dict[str, Opt]] = {
    "train-tokenizer": {
        "corpus": Opt(str, _REQUIRED, "input corpus file"),
        "input_format": Opt(str, "text", "corpus layout: text (one doc per line) | jsonl"),
        "vocab_size": Opt(int, 64000, "total vocabulary size including specials and bytes"),
        "out": Opt(str, _REQUIRED, "output directory for vocab.jsonl and merges.txt"),
    },
    "prepare-data": {
        "input": Opt(str, _REQUIRED, "JSONL documents with a text field"),
        "tokenizer": Opt(str, _REQUIRED, "tokenizer directory"),
        "out": Opt(str, _REQUIRED, "output chunk file"),
        "sequence_length": Opt(int, 4096, "tokens per training chunk"),
        "batch_size": Opt(int, 1000, "documents tokenized per batch"),
        "per_subset_cap": Opt(int, 500000, "max documents kept per subset"),
        "workers": Opt(int, 1, "tokenizer worker processes (BLF_WORKERS mirrors this)"),
    },
    "pretrain": {
        "chunks": Opt(str, _REQUIRED, "chunk file from prepare-data"),
        "out": Opt(str, _REQUIRED, "output directory"),
        "preset": Opt(str, "tiny", "encoder preset: tiny | small | base"),
        "vocab_size": Opt(int, 0, "override preset vocabulary size (0 = preset value)"),
        "window": Opt(int, 0, "override attention window (0 = preset value)"),
        "max_positions": Opt(int, 0, "override position capacity (0 = preset value)"),
        "steps": Opt(int, 500, "total optimization steps to reach"),
        "seed": Opt(int, 0, "root seed for all substreams"),
        "batch_size": Opt(int, 32, "sequences per step"),
        "base_lr": Opt(float, 0.0, "peak learning rate (0 = 5e-4, or 3e-4 for base)"),
        "warmup_steps": Opt(int, 10000, "linear warmup length"),
        "total_steps": Opt(int, 100000, "schedule end for linear decay"),
        "mlm_probability": Opt(float, 0.25, "independent masking rate"),
        "disc_weight": Opt(float, 50.0, "discriminator loss scale"),
        "depth_divisor": Opt(int, 0, "generator depth divisor (0 = 4, or 3 for base)"),
        "resume": Opt(str, "", "checkpoint directory to continue from"),
    },
    "finetune": {
        "train": Opt(str, _REQUIRED, "training JSONL with text and summary fields"),
        "validation": Opt(str, _REQUIRED, "validation JSONL"),
        "encoder": Opt(str, _REQUIRED, "encoder or pretraining checkpoint directory"),
        "tokenizer": Opt(str, _REQUIRED, "tokenizer directory"),
        "out": Opt(str, _REQUIRED, "output directory"),
        "decoder_layers": Opt(int, 6, "decoder depth"),
        "batch_size": Opt(int, 32, "pairs per step"),
        "lr": Opt(float, 7e-5, "constant learning rate (0 = evaluation-only epochs)"),
        "patience": Opt(int, 3, "non-improving epochs tolerated"),
        "max_epochs": Opt(int, 30, "epoch cap"),
        "seed": Opt(int, 0, "root seed (decoder init and batch order)"),
        **_COMMON_GEN,
    },
    "generate": {
        "model": Opt(str, _REQUIRED, "fine-tuned seq2seq checkpoint directory"),
        "tokenizer": Opt(str, _REQUIRED, "tokenizer directory"),
        "input": Opt(str, _REQUIRED, "JSONL records with a text field"),
        "out": Opt(str, _REQUIRED, "output summaries JSONL"),
        "num_beams": Opt(int, 4, "beam width"),
        "no_repeat_ngram_size": Opt(int, 3, "repetition ban size (0 disables)"),
        "length_penalty": Opt(float, 1.0, "beam score length exponent"),
        **_COMMON_GEN,
    },
    "rouge": {
        "predictions": Opt(str, _REQUIRED, "JSONL with id and summary"),
        "references": Opt(str, _REQUIRED, "JSONL with id and summary"),
        "out": Opt(str, "", "optional JSON report path"),
        "lowercase": Opt(bool, True, "lowercase before tokenizing"),
        "stemming": Opt(bool, True, "Porter-stem tokens longer than three characters"),
    },
    "inspect": {
        "checkpoint": Opt(str, _REQUIRED, "checkpoint directory"),
    },
}


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(prog="blf", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for command, table in OPTIONS.items():
        sp = subs.add_parser(command)
        sp.add_argument("--config", default=None, help="flat key=value settings file")
        for key, opt in table.items():
            kind = _parse_bool if opt.kind is bool else opt.kind
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind,
                            default=None, help=opt.help)
        subparsers[command] = sp
    return parser, subparsers


def _read_config_file(path: str) -> dict[str, str]:
    out = {}
    for lineno, line in data.read_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    table = OPTIONS[command]
    effective = {k: (None if o.default is _REQUIRED else o.default) for k, o in table.items()}
    workers = os.environ.get("BLF_WORKERS")
    if "workers" in table and workers:
        try:
            effective["workers"] = int(workers)
        except ValueError:
            raise ConfigError(f"BLF_WORKERS must be an integer, got {workers!r}") from None
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in table:
                raise ConfigError(f"unknown setting {key!r} for {command}")
            opt = table[key]
            try:
                effective[key] = _parse_bool(raw) if opt.kind is bool else opt.kind(raw)
            except ValueError as exc:
                raise ConfigError(f"setting {key!r}: {exc}") from exc
    for key in table:
        value = getattr(args, key)
        if value is not None:
            effective[key] = value
    missing = [k for k, o in table.items() if o.default is _REQUIRED and effective[k] is None]
    if missing:
        raise UsageError(f"{command}: missing required setting(s): {', '.join(missing)}")
    return effective


def _dump_json(payload: dict, f) -> None:
    json.dump(payload, f, indent=2, sort_keys=True)
    f.write("\n")


def _write_json(path, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with data.replacing(path) as f:
        _dump_json(payload, f)


def _read_jsonl(path) -> list[dict]:
    out = []
    for lineno, rec in data.read_jsonl(path):
        rec.setdefault("id", f"line-{lineno}")
        out.append(rec)
    return out


def _tokenizer_paths(directory) -> tuple[Path, Path]:
    d = Path(directory)
    return d / "vocab.jsonl", d / "merges.txt"


def _load_tokenizer(directory) -> bpe.ByteBpeModel:
    vocab, merges = _tokenizer_paths(directory)
    return bpe.load(vocab, merges)


def _resolve_lengths(cfg: dict) -> tuple[int, int]:
    profile = cfg["profile"]
    if profile not in GENERATION_PROFILES:
        raise ConfigError(
            f"unknown profile {profile!r}; choose from {', '.join(sorted(GENERATION_PROFILES))}"
        )
    base = GENERATION_PROFILES[profile]
    lengths = {key: cfg[key] or getattr(base, key) for key in ("max_input_length", "max_target_length")}
    for key, value in lengths.items():
        if value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
    return lengths["max_input_length"], lengths["max_target_length"]


# --- commands ---------------------------------------------------------------------


def cmd_train_tokenizer(cfg: dict) -> int:
    if cfg["input_format"] not in ("text", "jsonl"):
        raise ConfigError(f"input_format must be text or jsonl, got {cfg['input_format']!r}")
    if cfg["input_format"] == "jsonl":
        texts = [rec.text for rec in data.ingest(cfg["corpus"])]
    else:
        texts = [t for _, t in data.read_lines(cfg["corpus"]) if t]
    model = bpe.train_tokenizer(texts, vocab_size=cfg["vocab_size"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    vocab_path, merges_path = _tokenizer_paths(out)
    model.save(vocab_path, merges_path)
    stats = bpe.corpus_stats(model, texts)
    _write_json(out / "manifest.json",
                {"command": "train-tokenizer", "config": cfg, "stats": stats})
    print(f"vocabulary: {len(model.id_to_token)} tokens")
    print(f"corpus: {stats['chars']} chars, {stats['tokens']} tokens, "
          f"{stats['chars_per_token']:.4f} chars/token")
    return 0


def cmd_prepare_data(cfg: dict) -> int:
    if cfg["per_subset_cap"] < 1:
        raise ConfigError(f"per_subset_cap must be >= 1, got {cfg['per_subset_cap']}")
    tokenizer = _load_tokenizer(cfg["tokenizer"])
    dataset = data.concat_and_chunk(
        data.cap_subsets(data.ingest(cfg["input"]), cfg["per_subset_cap"]), tokenizer,
        L=cfg["sequence_length"], batch_size=cfg["batch_size"], workers=cfg["workers"],
    )
    seen = sum(b["docs"] for b in dataset.batch_records)
    if seen == 0:
        raise UsageError(f"{cfg['input']}: no documents to prepare")
    manifest = data.chunk_manifest(dataset, extra={"command": "prepare-data", "config": cfg})
    # the chunks replace the earlier file once the new manifest is written,
    # and the manifest replaces its own once they have: a write that fails
    # part way leaves the earlier pair as it was
    with data.replacing(f"{cfg['out']}.manifest.json") as f:
        _dump_json(manifest, f)
        data.write_chunks(cfg["out"], dataset)
    print(f"documents: {seen}")
    print(f"chunks: {dataset.chunks.shape[0]} x {dataset.sequence_length}")
    print(f"tokens: {dataset.total_stream_tokens} streamed, {dataset.total_dropped} dropped")
    return 0


def _pretrain_trainer(cfg: dict) -> RtdPretrainer:
    if cfg["resume"]:
        return RtdPretrainer.resume(cfg["resume"])
    overrides = {
        k: cfg[k] for k in ("vocab_size", "window", "max_positions") if cfg[k]
    }
    enc_cfg = preset(cfg["preset"], **overrides)
    hyper = PretrainHyper(
        batch_size=cfg["batch_size"],
        base_lr=cfg["base_lr"] or (3e-4 if cfg["preset"] == "base" else 5e-4),
        warmup_steps=cfg["warmup_steps"],
        total_steps=cfg["total_steps"],
        disc_weight=cfg["disc_weight"],
        mlm_probability=cfg["mlm_probability"],
        depth_divisor=cfg["depth_divisor"] or (3 if cfg["preset"] == "base" else 4),
    )
    return RtdPretrainer(enc_cfg, hyper, seed=cfg["seed"])


def _log_kept_bytes(path, step: int) -> int:
    """How much of a metrics log a run resumed at `step` keeps: the whole
    lines up to that step. Later lines, and a last line torn by a kill, go."""
    kept = 0
    for lineno, offset, raw in data.raw_lines(path):
        try:
            rec = data.jsonl_object(raw, path, lineno, offset)
        except FormatError:
            break
        if not raw.endswith(b"\n") or rec is None or not isinstance(rec.get("step"), int) or rec["step"] > step:
            break
        kept += len(raw)
    return kept


def cmd_pretrain(cfg: dict) -> int:
    dataset = data.read_chunks(cfg["chunks"])
    trainer = _pretrain_trainer(cfg)
    if trainer.step_count > cfg["steps"]:
        raise UsageError(
            f"checkpoint is already at step {trainer.step_count}, past the target {cfg['steps']}"
        )
    remaining = cfg["steps"] - trainer.step_count
    trainer.check_chunks(dataset.chunks)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    last = None
    with open(out / "metrics.jsonl", "ab") as f:  # a resume continues its own log
        f.truncate(_log_kept_bytes(f.name, trainer.step_count) if cfg["resume"] else 0)
        if remaining:
            for metrics in trainer.run(dataset.chunks, remaining, dump_dir=out):
                f.write((json.dumps(metrics, sort_keys=True) + "\n").encode())
                last = metrics
    trainer.checkpoint(out / "checkpoint")
    trainer.export_encoder(out / "encoder")
    _write_json(out / "manifest.json", {
        "command": "pretrain", "config": cfg,
        "final_step": trainer.step_count, "last_metrics": last,
    })
    print(f"step {trainer.step_count}: checkpoint at {out / 'checkpoint'}")
    if last is not None:
        print(f"final total loss {last['total']:.4f} "
              f"(gen {last['gen_loss']:.4f}, disc {last['disc_loss']:.4f})")
    return 0


def cmd_finetune(cfg: dict) -> int:
    hyper = FinetuneHyper(
        batch_size=cfg["batch_size"], lr=cfg["lr"], patience=cfg["patience"],
        max_epochs=cfg["max_epochs"], seed=cfg["seed"],
    )
    max_in, max_tgt = _resolve_lengths(cfg)
    tokenizer = _load_tokenizer(cfg["tokenizer"])
    enc_cfg, _ = read_encoder_config(cfg["encoder"])
    dec_cfg = decoder_for_encoder(enc_cfg, cfg["decoder_layers"], max_tgt)
    check_lengths(enc_cfg, dec_cfg, max_in, max_tgt)
    model = build_seq2seq(cfg["encoder"], dec_cfg, seed=cfg["seed"])
    train_pairs = prepare_pairs(_read_jsonl(cfg["train"]), tokenizer, max_in, max_tgt)
    val_pairs = prepare_pairs(_read_jsonl(cfg["validation"]), tokenizer, max_in, max_tgt)
    out = Path(cfg["out"])
    result = finetune(model, train_pairs, val_pairs, hyper, checkpoint_dir=out / "checkpoint")
    _write_json(out / "history.json", {"command": "finetune", "config": cfg, **result})
    print(f"epochs run: {result['epochs_run']} (early stop: {result['stopped_early']})")
    print(f"best epoch {result['best_epoch']}: validation loss {result['best_validation_loss']:.6f}")
    return 0


def cmd_generate(cfg: dict) -> int:
    max_in, max_tgt = _resolve_lengths(cfg)
    model = Seq2SeqModel.load(cfg["model"])
    tokenizer = _load_tokenizer(cfg["tokenizer"])
    check_lengths(model.encoder_config, model.decoder_config, max_in, max_tgt)
    params = GenerationParams(
        num_beams=cfg["num_beams"], no_repeat_ngram_size=cfg["no_repeat_ngram_size"],
        max_input_length=max_in, max_target_length=max_tgt,
        length_penalty=cfg["length_penalty"],
    )
    Path(cfg["out"]).parent.mkdir(parents=True, exist_ok=True)
    stats = summarize_file(model, tokenizer, params, cfg["input"], cfg["out"])
    _write_json(f"{cfg['out']}.manifest.json",
                {"command": "generate", "config": cfg, **stats})
    print(f"summaries: {stats['written']} written, {stats['errors']} errors -> {cfg['out']}")
    return 0


def _summaries_by_id(path, kind: str) -> dict:
    """The records of a summaries file by id. A non-string id or summary is a
    format error; an id listed twice is a usage error."""
    out = {}
    for rec in _read_jsonl(path):
        rid = rec["id"]
        if not isinstance(rid, str) or not isinstance(rec.get("summary", ""), str):
            raise FormatError(f"{path}: record {rid!r} needs a string id and a string summary")
        if rid in out:
            raise UsageError(f"duplicate {kind} id {rid!r}")
        out[rid] = rec
    return out


def cmd_rouge(cfg: dict) -> int:
    pred_map = _summaries_by_id(cfg["predictions"], "prediction")
    refs = _summaries_by_id(cfg["references"], "reference")
    missing_preds = [rid for rid in refs if rid not in pred_map or "summary" not in pred_map[rid]]
    missing_refs = [rid for rid in pred_map if rid not in refs]
    if missing_preds or missing_refs:
        if missing_preds:
            print("missing predictions for ids: " + ", ".join(missing_preds), file=sys.stderr)
        if missing_refs:
            print("missing references for ids: " + ", ".join(missing_refs), file=sys.stderr)
        return 1
    policy = TokenizationPolicy(lowercase=cfg["lowercase"], stemming=cfg["stemming"])
    pair_scores = {}
    for rid, ref in refs.items():
        if "summary" not in ref:
            raise FormatError(f"reference {rid!r} has no summary field")
        pair_scores[rid] = score_pair(pred_map[rid]["summary"], ref["summary"], policy)
    agg = aggregate(list(pair_scores.values()))
    print(f"pairs scored: {len(pair_scores)}")
    print(f"{'metric':<10} {'precision':>10} {'recall':>10} {'f1':>10}")
    for metric in ("rouge1", "rouge2", "rougeL", "rougeLsum"):
        row = agg[metric]
        print(f"{metric:<10} {row['precision']:>10.5f} {row['recall']:>10.5f} {row['f1']:>10.5f}")
    if cfg["out"]:
        _write_json(cfg["out"], {"command": "rouge", "config": cfg,
                                 "pairs": pair_scores, "aggregate": agg})
    return 0


def cmd_inspect(cfg: dict) -> int:
    manifest = read_manifest(cfg["checkpoint"])
    print(json.dumps(manifest, indent=2, sort_keys=True))
    count = sum(math.prod(e["shape"]) for e in manifest["params"] if not e["name"].startswith(MOMENT_PREFIX))
    print(f"parameters: {count}")
    return 0


_DISPATCH = {
    "train-tokenizer": cmd_train_tokenizer,
    "prepare-data": cmd_prepare_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "generate": cmd_generate,
    "rouge": cmd_rouge,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return 0 if exc.code == 0 else 2
    try:
        cfg = resolve_config(args.command, args)
        return _DISPATCH[args.command](cfg)
    except (UsageError, ConfigError) as exc:
        print(subparsers[args.command].format_usage(), end="", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, NumericError, RangeError, ShapeError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
