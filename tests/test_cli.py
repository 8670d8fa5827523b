"""End-to-end checks for the command line: config resolution, exit codes,
artifact layout, and byte-identical reruns under a fixed seed."""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import Killed, killed_save

from blf import bpe, cli, data
from blf.cli import OPTIONS, _log_kept_bytes, _resolve_lengths, build_parser, main, resolve_config
from blf.encoder import EncoderConfig, count_parameters
from blf.optim import AdamW
from blf.pretrain import RtdPretrainer
from blf.rouge import aggregate, score_pair
from blf.seq2seq import Seq2SeqModel


WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def read_lines(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def small_tokenizer(pipeline, tmp_path) -> Path:
    """A tokenizer of 280 tokens trained on the pipeline's corpus, whose models hold 300."""
    out = tmp_path / "tok280"
    assert main(["train-tokenizer", "--corpus", str(pipeline / "corpus.txt"), "--vocab-size", "280",
                 "--out", str(out)]) == 0
    return out


def parse(argv):
    parser, _ = build_parser()
    return parser.parse_args(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once: tokenizer -> chunks -> pretrain -> finetune
    -> generate. Individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    rng = random.Random(7)

    corpus = root / "corpus.txt"
    with open(corpus, "w", encoding="utf-8") as f:
        for _ in range(300):
            f.write(" ".join(rng.choice(WORDS) for _ in range(rng.randint(5, 20))) + "\n")

    docs = root / "docs.jsonl"
    write_jsonl(docs, [
        {"id": f"d{i}", "subset": "train",
         "text": " ".join(rng.choice(WORDS) for _ in range(rng.randint(20, 60)))}
        for i in range(80)
    ])

    assert main(["train-tokenizer", "--corpus", str(corpus),
                 "--vocab-size", "300", "--out", str(root / "tok")]) == 0
    assert main(["prepare-data", "--input", str(docs), "--tokenizer", str(root / "tok"),
                 "--out", str(root / "chunks.bin"), "--sequence-length", "128"]) == 0
    assert main(["pretrain", "--chunks", str(root / "chunks.bin"), "--out", str(root / "pt"),
                 "--preset", "tiny", "--vocab-size", "300", "--steps", "3",
                 "--batch-size", "2", "--warmup-steps", "2", "--total-steps", "50"]) == 0

    pairs = []
    for i in range(9):
        body = " ".join(rng.choice(WORDS) for _ in range(12))
        pairs.append({"id": f"p{i}", "text": body, "summary": " ".join(body.split()[:4])})
    write_jsonl(root / "ft_train.jsonl", pairs[:6])
    write_jsonl(root / "ft_val.jsonl", pairs[6:])
    assert main(["finetune", "--train", str(root / "ft_train.jsonl"),
                 "--validation", str(root / "ft_val.jsonl"),
                 "--encoder", str(root / "pt" / "encoder"), "--tokenizer", str(root / "tok"),
                 "--out", str(root / "ft"), "--decoder-layers", "2", "--max-epochs", "1",
                 "--batch-size", "3", "--max-input-length", "64",
                 "--max-target-length", "16"]) == 0

    gen_in = [{"id": f"g{i}", "text": p["text"], "summary": p["summary"]}
              for i, p in enumerate(pairs[:3])]
    write_jsonl(root / "gen_in.jsonl", gen_in)
    assert main(["generate", "--model", str(root / "ft" / "checkpoint"),
                 "--tokenizer", str(root / "tok"), "--input", str(root / "gen_in.jsonl"),
                 "--out", str(root / "preds.jsonl"), "--num-beams", "2",
                 "--max-input-length", "64", "--max-target-length", "8"]) == 0
    write_jsonl(root / "refs.jsonl", [{"id": r["id"], "summary": r["summary"]} for r in gen_in])
    return root


class TestConfigResolution:
    def test_defaults_fill_every_optional_key(self):
        args = parse(["rouge", "--predictions", "p", "--references", "r"])
        cfg = resolve_config("rouge", args)
        assert cfg["lowercase"] is True and cfg["stemming"] is True and cfg["out"] == ""

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("vocab_size = 100\ncorpus = from_file.txt\n# comment\n\n")
        args = parse(["train-tokenizer", "--config", str(cfg_file),
                      "--vocab-size", "200", "--out", "o"])
        cfg = resolve_config("train-tokenizer", args)
        assert cfg["vocab_size"] == 200          # flag beats file
        assert cfg["corpus"] == "from_file.txt"  # file beats default/required
        assert cfg["out"] == "o"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bogus_key=3\n")
        code = main(["rouge", "--config", str(cfg_file),
                     "--predictions", "p", "--references", "r"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err and "usage:" in err

    def test_missing_required_exits_2_with_usage(self, capsys):
        code = main(["prepare-data", "--tokenizer", "t", "--out", "o"])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "input" in err

    def test_malformed_config_line_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no equals sign here\n")
        code = main(["inspect", "--config", str(cfg_file), "--checkpoint", "c"])
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_config_file_not_utf8_exits_1_naming_the_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        head = b"# settings\r\n"
        cfg_file.write_bytes(head + b"corpus = caf\xe9.txt\r\n")
        assert main(["train-tokenizer", "--config", str(cfg_file), "--out", str(tmp_path / "tok")]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg_file}:2: not UTF-8 (" in err and f"(byte {len(head)})" in err
        assert "Traceback" not in err and not (tmp_path / "tok").exists()

    def test_bad_value_type_in_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("vocab_size=many\n")
        code = main(["train-tokenizer", "--config", str(cfg_file),
                     "--corpus", "c", "--out", "o"])
        assert code == 2

    def test_bool_values_parse_from_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lowercase=false\nstemming=0\n")
        args = parse(["rouge", "--config", str(cfg_file),
                      "--predictions", "p", "--references", "r"])
        cfg = resolve_config("rouge", args)
        assert cfg["lowercase"] is False and cfg["stemming"] is False

    def test_workers_env_mirror(self, monkeypatch):
        monkeypatch.setenv("BLF_WORKERS", "3")
        args = parse(["prepare-data", "--input", "i", "--tokenizer", "t", "--out", "o"])
        assert resolve_config("prepare-data", args)["workers"] == 3
        args = parse(["prepare-data", "--input", "i", "--tokenizer", "t", "--out", "o",
                      "--workers", "2"])
        assert resolve_config("prepare-data", args)["workers"] == 2  # flag beats env

    def test_every_setting_has_default_except_paths(self):
        from blf.cli import _REQUIRED
        for command, table in OPTIONS.items():
            for key, opt in table.items():
                if opt.default is _REQUIRED:
                    assert any(w in opt.help for w in ("file", "directory", "JSONL")), \
                        f"{command}.{key} is required but is not a path"

    def test_profile_pubmed_lengths(self):
        cfg = {"profile": "pubmed", "max_input_length": 0, "max_target_length": 0}
        assert _resolve_lengths(cfg) == (4096, 512)

    def test_profile_override_wins(self):
        cfg = {"profile": "billsum-short", "max_input_length": 64, "max_target_length": 0}
        assert _resolve_lengths(cfg) == (64, 256)

    def test_unknown_profile_rejected(self):
        from blf.errors import ConfigError
        with pytest.raises(ConfigError, match="pubbed"):
            _resolve_lengths({"profile": "pubbed", "max_input_length": 0,
                              "max_target_length": 0})

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        try:
            from numpy._core._exceptions import _ArrayMemoryError
        except ImportError:  # numpy 1.x
            from numpy.core._exceptions import _ArrayMemoryError

        def exhausted(cfg):  # raised as numpy raises it; nothing is allocated
            raise _ArrayMemoryError((2 ** 40,), np.dtype(np.float64))

        monkeypatch.setitem(cli._DISPATCH, "inspect", exhausted)
        assert main(["inspect", "--checkpoint", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: out of memory: Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestTrainTokenizer:
    def test_artifacts_and_roundtrip(self, pipeline):
        tok_dir = pipeline / "tok"
        assert (tok_dir / "vocab.jsonl").exists() and (tok_dir / "merges.txt").exists()
        model = bpe.load(tok_dir / "vocab.jsonl", tok_dir / "merges.txt")
        assert len(model.id_to_token) == 300
        assert model.decode(model.encode("alpha bravo")) == "alpha bravo"
        manifest = json.loads((tok_dir / "manifest.json").read_text())
        assert manifest["config"]["vocab_size"] == 300
        assert manifest["stats"]["chars_per_token"] > 1.0

    def test_rerun_is_byte_identical(self, pipeline, tmp_path, capsys):
        out2 = tmp_path / "tok2"
        assert main(["train-tokenizer", "--corpus", str(pipeline / "corpus.txt"),
                     "--vocab-size", "300", "--out", str(out2)]) == 0
        capsys.readouterr()
        for name in ("vocab.jsonl", "merges.txt"):
            assert (out2 / name).read_bytes() == (pipeline / "tok" / name).read_bytes()

    def test_jsonl_input_format(self, pipeline, tmp_path, capsys):
        out = tmp_path / "tokj"
        assert main(["train-tokenizer", "--corpus", str(pipeline / "docs.jsonl"),
                     "--input-format", "jsonl", "--vocab-size", "280",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        model = bpe.load(out / "vocab.jsonl", out / "merges.txt")
        assert len(model.id_to_token) == 280

    def test_bad_input_format_rejected(self, capsys):
        assert main(["train-tokenizer", "--corpus", "c", "--out", "o",
                     "--input-format", "csv"]) == 2
        capsys.readouterr()

    def test_invalid_utf8_corpus_exits_1(self, tmp_path, capsys):
        corpus, out = tmp_path / "corpus.txt", tmp_path / "tok"
        corpus.write_bytes(b"alpha bravo\n\ndelta\ncaf\xe9 charlie\n")
        assert main(["train-tokenizer", "--corpus", str(corpus), "--vocab-size", "280",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "can't decode byte 0xe9" in err and "Traceback" not in err
        assert f"{corpus}:4:" in err
        assert not out.exists()

    def test_lone_surrogate_escape_in_jsonl_corpus_exits_1(self, tmp_path, capsys):
        corpus, out = tmp_path / "docs.jsonl", tmp_path / "tok"
        corpus.write_bytes(b'{"text": "caf\\udc80 x"}\n{"text": "alpha"}\n')
        assert main(["train-tokenizer", "--corpus", str(corpus), "--input-format", "jsonl",
                     "--vocab-size", "280", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{corpus}:1: a JSON string holds a lone surrogate (byte 0)" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("corpus_name, input_format", [("corpus.txt", "text"), ("docs.jsonl", "jsonl")])
    def test_crlf_corpus_trains_the_files_of_its_lf_twin(self, pipeline, tmp_path, capsys,
                                                         corpus_name, input_format):
        trained = {}
        for ending in (b"\n", b"\r\n"):
            corpus, out = tmp_path / f"{len(ending)}-{corpus_name}", tmp_path / f"tok{len(ending)}"
            corpus.write_bytes((pipeline / corpus_name).read_bytes().replace(b"\n", ending))
            assert main(["train-tokenizer", "--corpus", str(corpus), "--input-format", input_format,
                         "--vocab-size", "290", "--out", str(out)]) == 0
            trained[ending] = [(out / name).read_bytes() for name in ("vocab.jsonl", "merges.txt")]
        capsys.readouterr()
        assert trained[b"\r\n"] == trained[b"\n"]

    def test_whitespace_only_lines_are_kept(self, tmp_path, capsys):
        corpus, out = tmp_path / "corpus.txt", tmp_path / "tok"
        corpus.write_bytes(b"alpha bravo\r\n   \r\n\r\n\tcharlie\n\n")
        assert main(["train-tokenizer", "--corpus", str(corpus), "--vocab-size", "280",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stats"]["chars"] == len("alpha bravo") + len("   ") + len("\tcharlie")


class TestPrepareData:
    def test_chunk_count_matches_token_arithmetic(self, pipeline, tmp_path, capsys):
        # one batch, L=8: chunk count must equal floor(stream_tokens / 8)
        tok_dir = pipeline / "tok"
        model = bpe.load(tok_dir / "vocab.jsonl", tok_dir / "merges.txt")
        docs = read_lines(pipeline / "docs.jsonl")
        stream = sum(len(model.encode(d["text"])) + 1 for d in docs)
        out = tmp_path / "tiny_chunks.bin"
        assert main(["prepare-data", "--input", str(pipeline / "docs.jsonl"),
                     "--tokenizer", str(tok_dir), "--out", str(out),
                     "--sequence-length", "8"]) == 0
        capsys.readouterr()
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["num_chunks"] == stream // 8
        assert manifest["total_emitted_tokens"] + manifest["total_dropped_tokens"] \
            == manifest["total_stream_tokens"] == stream

    def test_manifest_embeds_effective_config(self, pipeline):
        manifest = json.loads((pipeline / "chunks.bin.manifest.json").read_text())
        assert manifest["config"]["sequence_length"] == 128
        assert manifest["config"]["workers"] == 1
        assert manifest["command"] == "prepare-data"

    def test_rerun_is_byte_identical(self, pipeline, tmp_path, capsys):
        out = tmp_path / "again.bin"
        assert main(["prepare-data", "--input", str(pipeline / "docs.jsonl"),
                     "--tokenizer", str(pipeline / "tok"), "--out", str(out),
                     "--sequence-length", "128"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (pipeline / "chunks.bin").read_bytes()

    @pytest.mark.parametrize("target", ["again.bin", "again.bin.manifest.json"])
    def test_a_write_that_fails_part_way_leaves_the_earlier_files_whole(
            self, pipeline, tmp_path, capsys, monkeypatch, target):
        """A disk that fills during the second write of `target` (the chunk
        payload, or the manifest's JSON) fails the rerun; the files of the run
        before stay byte-identical, and no temporary file is left."""
        argv = ["prepare-data", "--input", str(pipeline / "docs.jsonl"), "--tokenizer", str(pipeline / "tok"),
                "--out", str(tmp_path / "again.bin"), "--sequence-length", "64"]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_open = open

        class FullDisk:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, chunk):
                self.writes += 1
                if self.writes == 2:
                    self.f.write(chunk[: len(chunk) // 2])
                    raise OSError(28, "No space left on device")
                return self.f.write(chunk)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        def filling_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            return FullDisk(f) if Path(path).name == f".{target}.blf-tmp" else f

        monkeypatch.setattr(data, "open", filling_open, raising=False)
        assert main(argv[:-1] + ["128"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_empty_input_exits_2(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["prepare-data", "--input", str(empty),
                     "--tokenizer", str(pipeline / "tok"),
                     "--out", str(tmp_path / "x.bin")])
        assert code == 2
        assert "no documents" in capsys.readouterr().err

    def test_missing_input_file_exits_1(self, pipeline, tmp_path, capsys):
        code = main(["prepare-data", "--input", str(tmp_path / "nope.jsonl"),
                     "--tokenizer", str(pipeline / "tok"),
                     "--out", str(tmp_path / "x.bin")])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("name, line, bad", [
        ("merges.txt", 3, b"caf\xe9 x\n"),
        ("vocab.jsonl", 3, b'{"id": 2, "token": "caf\xe9"}\n'),
        ("vocab.jsonl", 7, b'{"id": "seven", "token": "x"}\n'),
    ], ids=["merges-not-utf8", "vocab-not-utf8", "vocab-string-id"])
    def test_broken_tokenizer_file_exits_1_naming_the_line(self, pipeline, tmp_path, capsys, name, line, bad):
        tok, out = tmp_path / "tok", tmp_path / "x.bin"
        shutil.copytree(pipeline / "tok", tok)
        lines = (tok / name).read_bytes().splitlines(keepends=True)
        lines[line - 1] = bad
        (tok / name).write_bytes(b"".join(lines))
        assert main(["prepare-data", "--input", str(pipeline / "docs.jsonl"),
                     "--tokenizer", str(tok), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {tok / name}:{line}: " in err and "Traceback" not in err
        assert not out.exists()

    def test_too_deeply_nested_input_line_exits_1_naming_the_line(self, pipeline, tmp_path, capsys):
        docs, out = tmp_path / "docs.jsonl", tmp_path / "x.bin"
        head = (pipeline / "docs.jsonl").read_bytes()
        docs.write_bytes(head + b"[" * 100_000 + b"\n")
        lineno = head.count(b"\n") + 1
        assert main(["prepare-data", "--input", str(docs),
                     "--tokenizer", str(pipeline / "tok"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {docs}:{lineno}: JSON nested too deeply (byte {len(head)})" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_per_subset_cap_below_one_exits_2_before_any_read(self, tmp_path, capsys, cap):
        out = tmp_path / "x.bin"  # neither input exists: the cap is refused first
        assert main(["prepare-data", "--input", str(tmp_path / "nope.jsonl"), "--tokenizer", str(tmp_path / "tok"),
                     "--out", str(out), "--per-subset-cap", cap]) == 2
        err = capsys.readouterr().err
        assert f"error: per_subset_cap must be >= 1, got {cap}" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_integer_workers_variable_exits_2(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BLF_WORKERS", "two")
        out = tmp_path / "x.bin"
        assert main(["prepare-data", "--input", str(pipeline / "docs.jsonl"),
                     "--tokenizer", str(pipeline / "tok"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "BLF_WORKERS must be an integer, got 'two'" in err and "Traceback" not in err
        assert not out.exists()


class TestPretrain:
    def _run(self, pipeline, out, steps, extra=()):
        return main(["pretrain", "--chunks", str(pipeline / "chunks.bin"),
                     "--out", str(out), "--preset", "tiny", "--vocab-size", "300",
                     "--steps", str(steps), "--batch-size", "2",
                     "--warmup-steps", "2", "--total-steps", "50", *extra])

    def test_artifacts(self, pipeline):
        pt = pipeline / "pt"
        assert (pt / "checkpoint" / "manifest.json").exists()
        assert (pt / "encoder" / "manifest.json").exists()
        metrics = read_lines(pt / "metrics.jsonl")
        assert len(metrics) == 3
        assert metrics[-1]["step"] == 3
        for rec in metrics:
            assert rec["total"] == pytest.approx(rec["gen_loss"] + 50.0 * rec["disc_loss"],
                                                 rel=1e-5)
        manifest = json.loads((pt / "manifest.json").read_text())
        assert manifest["final_step"] == 3
        assert manifest["config"]["preset"] == "tiny"

    def test_seeded_rerun_byte_identical(self, pipeline, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._run(pipeline, a, 3) == 0
        assert self._run(pipeline, b, 3) == 0
        capsys.readouterr()
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        for part in ("checkpoint", "encoder"):
            assert (a / part / "params.bin").read_bytes() == (b / part / "params.bin").read_bytes()
            assert (a / part / "manifest.json").read_bytes() == (b / part / "manifest.json").read_bytes()

    def test_steps_zero_emits_initial_checkpoint_only(self, pipeline, tmp_path, capsys):
        out = tmp_path / "zero"
        assert self._run(pipeline, out, 0) == 0
        capsys.readouterr()
        assert (out / "metrics.jsonl").read_text() == ""
        assert json.loads((out / "manifest.json").read_text())["final_step"] == 0
        assert (out / "checkpoint" / "params.bin").exists()

    def test_resume_matches_straight_run(self, pipeline, tmp_path, capsys):
        straight, first, resumed = tmp_path / "s", tmp_path / "f", tmp_path / "r"
        assert self._run(pipeline, straight, 5) == 0
        assert self._run(pipeline, first, 3) == 0
        assert self._run(pipeline, resumed, 5,
                         extra=["--resume", str(first / "checkpoint")]) == 0
        capsys.readouterr()
        assert (resumed / "checkpoint" / "params.bin").read_bytes() \
            == (straight / "checkpoint" / "params.bin").read_bytes()
        tail = read_lines(straight / "metrics.jsonl")[3:]
        assert read_lines(resumed / "metrics.jsonl") == tail

    def test_resume_past_target_exits_2(self, pipeline, tmp_path, capsys):
        out = tmp_path / "过"
        assert self._run(pipeline, out, 4) == 0
        code = self._run(pipeline, tmp_path / "r2", 2,
                         extra=["--resume", str(out / "checkpoint")])
        assert code == 2
        assert "already at step 4" in capsys.readouterr().err

    def test_resume_into_own_out_killed_mid_save_then_rerun(self, pipeline, tmp_path, capsys, monkeypatch):
        straight, out = tmp_path / "s", tmp_path / "o"
        assert self._run(pipeline, straight, 5) == 0
        assert self._run(pipeline, out, 3) == 0
        resume = ["--resume", str(out / "checkpoint")]
        with killed_save(monkeypatch, "write params.bin"), pytest.raises(Killed):
            self._run(pipeline, out, 5, extra=resume)
        assert self._run(pipeline, out, 5, extra=resume) == 0
        capsys.readouterr()
        for part in ("checkpoint", "encoder"):
            assert (out / part / "params.bin").read_bytes() == (straight / part / "params.bin").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint", "encoder", "manifest.json", "metrics.jsonl"]

    @pytest.mark.parametrize("change, message", [
        (lambda m: m["config"].update(windw=4), "unknown keys ['windw']"),
        (lambda m: m["extra"].pop("seed"), "needs extra seed: int"),
    ], ids=["unknown-config-key", "missing-seed"])
    def test_malformed_resume_manifest_exits_1(self, pipeline, tmp_path, capsys, change, message):
        ck = tmp_path / "ck"
        shutil.copytree(pipeline / "pt" / "checkpoint", ck)
        manifest = json.loads((ck / "manifest.json").read_text())
        change(manifest)
        (ck / "manifest.json").write_text(json.dumps(manifest))
        assert self._run(pipeline, tmp_path / "o", 5, extra=["--resume", str(ck)]) == 1
        assert message in capsys.readouterr().err

    def test_vocab_without_the_special_ids_exits_2_before_any_step(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["pretrain", "--chunks", str(pipeline / "chunks.bin"), "--out", str(out),
                     "--preset", "tiny", "--vocab-size", "4", "--steps", "3", "--batch-size", "2"]) == 2
        assert "vocab_size 4 must exceed the mask id 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        (lambda m: m["extra"].update(mask_id=3), "extra mask_id differ from the fixed special ids"),
        (lambda m: m["extra"].update(step=-3), "extra.step must be >= 0"),
        (lambda m: m["extra"].update(step=True), "needs extra step: int"),
        (lambda m: m["extra"]["hyper"].update(depth_divisor=True), "depth_divisor must be JSON integers"),
    ], ids=["other-mask-id", "negative-step", "boolean-step", "boolean-hyper-int"])
    def test_resume_refused_before_any_step_exits_1(self, pipeline, tmp_path, capsys, change, message):
        ck, out = tmp_path / "ck", tmp_path / "o"
        shutil.copytree(pipeline / "pt" / "checkpoint", ck)
        manifest = json.loads((ck / "manifest.json").read_text())
        change(manifest)
        (ck / "manifest.json").write_text(json.dumps(manifest))
        assert self._run(pipeline, out, 5, extra=["--resume", str(ck)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_log_of_a_split_run_equals_the_straight_run(self, pipeline, tmp_path, capsys):
        straight, out = tmp_path / "s", tmp_path / "o"
        assert self._run(pipeline, straight, 5) == 0
        assert self._run(pipeline, out, 3) == 0
        assert self._run(pipeline, out, 5, extra=["--resume", str(out / "checkpoint")]) == 0
        capsys.readouterr()
        assert len(read_lines(straight / "metrics.jsonl")) == 5
        assert (out / "metrics.jsonl").read_bytes() == (straight / "metrics.jsonl").read_bytes()

    def test_metrics_log_after_a_kill_before_the_save_equals_the_straight_run(
            self, pipeline, tmp_path, capsys, monkeypatch):
        straight, out = tmp_path / "s", tmp_path / "o"
        assert self._run(pipeline, straight, 5) == 0
        assert self._run(pipeline, out, 3) == 0
        resume = ["--resume", str(out / "checkpoint")]
        # the log reaches step 5 and the checkpoint stays at step 3; a kill mid-line tears the last line
        with killed_save(monkeypatch, "open manifest.json"), pytest.raises(Killed):
            self._run(pipeline, out, 5, extra=resume)
        assert len(read_lines(out / "metrics.jsonl")) == 5
        with open(out / "metrics.jsonl", "ab") as f:
            f.write(b'{"step": 6, "tot')
        assert self._run(pipeline, out, 5, extra=resume) == 0
        capsys.readouterr()
        assert (out / "metrics.jsonl").read_bytes() == (straight / "metrics.jsonl").read_bytes()

    KEPT = b'{"step": 1}\n{"step": 2}\n'

    def _log_with(self, tmp_path, bad: bytes):
        log = tmp_path / "metrics.jsonl"
        log.write_bytes(self.KEPT + bad + b"\n" + b'{"step": 3}\n')
        return log

    def test_too_deeply_nested_metrics_line_is_torn(self, tmp_path):
        assert _log_kept_bytes(self._log_with(tmp_path, b"[" * 100_000), 5) == len(self.KEPT)

    def test_non_utf8_metrics_line_is_torn(self, tmp_path):
        assert _log_kept_bytes(self._log_with(tmp_path, b'{"step": 3, "note": "caf\xe9"}'), 5) == len(self.KEPT)

    def test_non_object_metrics_line_is_torn(self, tmp_path):
        assert _log_kept_bytes(self._log_with(tmp_path, b"[3]"), 5) == len(self.KEPT)

    def test_run_without_resume_starts_a_new_log(self, pipeline, tmp_path, capsys):
        straight, out = tmp_path / "s", tmp_path / "o"
        assert self._run(pipeline, straight, 5) == 0
        assert self._run(pipeline, out, 3) == 0
        assert self._run(pipeline, out, 5) == 0
        capsys.readouterr()
        assert (out / "metrics.jsonl").read_bytes() == (straight / "metrics.jsonl").read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch-size", "0", "batch_size must be >= 1"),
        ("--warmup-steps", "0", "warmup_steps must be >= 1"),
        ("--total-steps", "0", "total_steps must be >= 1"),
        ("--mlm-probability", "1.0", "mlm_probability must be in [0, 1)"),
        ("--disc-weight", "nan", "disc_weight must be finite and non-negative"),
    ])
    def test_bad_hyperparameter_exits_2_before_any_work(self, pipeline, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        assert self._run(pipeline, out, 3, extra=[flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_saved_hyperparameter_on_resume_exits_1(self, pipeline, tmp_path, capsys):
        ck, out = tmp_path / "ck", tmp_path / "o"
        shutil.copytree(pipeline / "pt" / "checkpoint", ck)
        manifest = json.loads((ck / "manifest.json").read_text())
        manifest["extra"]["hyper"]["mlm_probability"] = 1.0
        (ck / "manifest.json").write_text(json.dumps(manifest))
        assert self._run(pipeline, out, 5, extra=["--resume", str(ck)]) == 1
        assert "extra.hyper: mlm_probability must be in [0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_chunks_file_exits_1(self, tmp_path, capsys):
        code = main(["pretrain", "--chunks", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("chunks, message", [
        (np.full((2, 256), 5, np.int32), "chunk length 256 exceeds the model's max_positions 128"),
        (np.full((2, 128), 300, np.int32), "chunk ids span [300, 300], outside the model's vocabulary [0, 300)"),
        (np.zeros((0, 128), np.int32), "cannot pretrain on an empty chunk set"),
    ], ids=["too-long", "id-past-vocab", "empty"])
    def test_model_data_mismatch_exits_2_before_any_work(self, tmp_path, capsys, chunks, message):
        path, out = tmp_path / "chunks.bin", tmp_path / "o"
        data.write_chunks(path, data.ChunkedDataset(chunks.shape[1], chunks))
        out.mkdir()
        (out / "metrics.jsonl").write_text('{"step": 1}\n')
        assert main(["pretrain", "--chunks", str(path), "--out", str(out), "--preset", "tiny",
                     "--vocab-size", "300", "--steps", "3", "--batch-size", "2"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert (out / "metrics.jsonl").read_text() == '{"step": 1}\n'
        assert sorted(p.name for p in out.iterdir()) == ["metrics.jsonl"]

    @pytest.mark.parametrize("length", [0, 1])
    def test_chunk_file_shorter_than_two_tokens_exits_1(self, tmp_path, capsys, length):
        path, out = tmp_path / "chunks.bin", tmp_path / "o"
        data.write_chunks(path, data.ChunkedDataset(length, np.zeros((3, length), np.int32)))
        assert main(["pretrain", "--chunks", str(path), "--out", str(out), "--preset", "tiny",
                     "--vocab-size", "300", "--steps", "3", "--batch-size", "2"]) == 1
        err = capsys.readouterr().err
        assert f"sequence length must be >= 2, got {length}" in err and "Traceback" not in err
        assert not out.exists()


class TestFinetune:
    def test_artifacts(self, pipeline):
        history = json.loads((pipeline / "ft" / "history.json").read_text())
        assert history["epochs_run"] == 1
        assert history["config"]["decoder_layers"] == 2
        assert len(history["history"]) == 1
        assert history["history"][0]["validation_loss"] == history["best_validation_loss"]
        model = Seq2SeqModel.load(pipeline / "ft" / "checkpoint")
        assert model.decoder_config.layers == 2
        assert model.decoder_config.max_target_positions == 16

    def test_empty_train_file_exits_2(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["finetune", "--train", str(empty),
                     "--validation", str(pipeline / "ft_val.jsonl"),
                     "--encoder", str(pipeline / "pt" / "encoder"),
                     "--tokenizer", str(pipeline / "tok"),
                     "--out", str(tmp_path / "ft")])
        assert code == 2
        capsys.readouterr()

    def test_corrupt_encoder_manifest_exits_1(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad_ckpt"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        code = main(["finetune", "--train", str(pipeline / "ft_train.jsonl"),
                     "--validation", str(pipeline / "ft_val.jsonl"),
                     "--encoder", str(bad), "--tokenizer", str(pipeline / "tok"),
                     "--out", str(tmp_path / "ft")])
        assert code == 1
        capsys.readouterr()

    def _finetune(self, pipeline, encoder, out):
        return main(["finetune", "--train", str(pipeline / "ft_train.jsonl"),
                     "--validation", str(pipeline / "ft_val.jsonl"),
                     "--encoder", str(encoder), "--tokenizer", str(pipeline / "tok"),
                     "--out", str(out), "--max-epochs", "1"])

    def test_seq2seq_checkpoint_as_encoder_exits_2(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ft"
        assert self._finetune(pipeline, pipeline / "ft" / "checkpoint", out) == 2
        assert "kind 'seq2seq'" in capsys.readouterr().err
        assert not (out / "checkpoint").exists()

    def test_manifest_without_config_exits_1(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "no_config"
        shutil.copytree(pipeline / "pt" / "encoder", bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        del manifest["config"]
        (bad / "manifest.json").write_text(json.dumps(manifest))
        assert self._finetune(pipeline, bad, tmp_path / "ft") == 1
        assert "missing key 'config'" in capsys.readouterr().err

    def _finetune_with(self, pipeline, out, *extra, train=None):
        return main(["finetune", "--train", str(train or pipeline / "ft_train.jsonl"),
                     "--validation", str(pipeline / "ft_val.jsonl"),
                     "--encoder", str(pipeline / "pt" / "encoder"), "--tokenizer", str(pipeline / "tok"),
                     "--out", str(out), "--decoder-layers", "1", "--max-epochs", "1", *extra])

    def test_input_length_over_encoder_positions_exits_2(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ft"  # the default profile reads 1024 input tokens; the encoder holds 128
        assert self._finetune_with(pipeline, out) == 2
        err = capsys.readouterr().err
        assert "max_input_length 1024 exceeds the encoder's max_positions 128" in err
        assert "Traceback" not in err and not out.exists()

    def test_tokenizer_smaller_than_the_model_vocabulary_exits_2(self, pipeline, tmp_path, capsys):
        out, tokenizer = tmp_path / "ft", small_tokenizer(pipeline, tmp_path)  # 280 tokens; the encoder holds 300
        assert main(["finetune", "--train", str(pipeline / "ft_train.jsonl"),
                     "--validation", str(pipeline / "ft_val.jsonl"),
                     "--encoder", str(pipeline / "pt" / "encoder"), "--tokenizer", str(tokenizer),
                     "--out", str(out), "--max-input-length", "64", "--max-target-length", "16"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: model vocabulary 300 exceeds the tokenizer's 280 tokens"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--max-input-length", "--max-target-length"])
    def test_length_below_one_exits_2_before_any_read(self, tmp_path, capsys, flag):
        out, missing = tmp_path / "ft", str(tmp_path / "nope")  # no input exists: the length is refused first
        assert main(["finetune", "--train", missing, "--validation", missing, "--encoder", missing,
                     "--tokenizer", missing, "--out", str(out), flag, "-5"]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag[2:].replace('-', '_')} must be >= 1, got -5" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exits_2(self, pipeline, tmp_path, capsys, lr):
        out = tmp_path / "ft"
        assert self._finetune_with(pipeline, out, "--lr", lr, "--max-input-length", "64") == 2
        err = capsys.readouterr().err
        assert f"lr must be finite and non-negative, got {lr}" in err
        assert "Traceback" not in err and not out.exists()

    def test_non_finite_gradient_exits_1(self, pipeline, tmp_path, capsys, monkeypatch):
        step = AdamW.step

        def poisoned(opt):
            opt.params[0].grad.reshape(-1)[0] = np.nan
            return step(opt)

        monkeypatch.setattr(AdamW, "step", poisoned)
        out = tmp_path / "ft"
        assert self._finetune_with(pipeline, out, "--max-input-length", "64") == 1
        err = capsys.readouterr().err
        assert "error: non-finite gradient in " in err and "Traceback" not in err
        assert not (out / "checkpoint").exists()

    @pytest.mark.parametrize("record", [{"id": "n5", "text": 5, "summary": "x"},
                                        {"id": "n5", "text": "alpha", "summary": None}], ids=["text", "summary"])
    def test_non_string_field_exits_2_naming_the_record(self, pipeline, tmp_path, capsys, record):
        train, out = tmp_path / "train.jsonl", tmp_path / "ft"
        train.write_bytes((pipeline / "ft_train.jsonl").read_bytes() + (json.dumps(record) + "\n").encode())
        assert self._finetune_with(pipeline, out, "--max-input-length", "64", train=train) == 2
        err = capsys.readouterr().err
        assert "record n5: finetuning needs non-empty string text and summary" in err
        assert "Traceback" not in err and not out.exists()

    def test_invalid_utf8_record_exits_1(self, pipeline, tmp_path, capsys):
        train, out = tmp_path / "train.jsonl", tmp_path / "ft"
        train.write_bytes((pipeline / "ft_train.jsonl").read_bytes() + b'{"text": "caf\xe9", "summary": "x"}\n')
        assert self._finetune_with(pipeline, out, "--max-input-length", "64", train=train) == 1
        err = capsys.readouterr().err
        assert f"{train}:7: not UTF-8" in err and "Traceback" not in err
        assert not out.exists()


class TestGenerate:
    def test_output_records(self, pipeline):
        preds = read_lines(pipeline / "preds.jsonl")
        assert [p["id"] for p in preds] == ["g0", "g1", "g2"]
        for p in preds:
            assert "summary" in p and p["token_count"] <= 8
        manifest = json.loads((pipeline / "preds.jsonl.manifest.json").read_text())
        assert manifest["written"] == 3 and manifest["errors"] == 0
        assert manifest["config"]["num_beams"] == 2

    def test_rerun_is_byte_identical(self, pipeline, tmp_path, capsys):
        out = tmp_path / "preds2.jsonl"
        assert main(["generate", "--model", str(pipeline / "ft" / "checkpoint"),
                     "--tokenizer", str(pipeline / "tok"),
                     "--input", str(pipeline / "gen_in.jsonl"), "--out", str(out),
                     "--num-beams", "2", "--max-input-length", "64",
                     "--max-target-length", "8"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (pipeline / "preds.jsonl").read_bytes()

    def test_target_length_over_decoder_cap_exits_2(self, pipeline, tmp_path, capsys):
        # the finetuned decoder holds 16 target positions
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--model", str(pipeline / "ft" / "checkpoint"),
                     "--tokenizer", str(pipeline / "tok"),
                     "--input", str(pipeline / "gen_in.jsonl"), "--out", str(out),
                     "--max-input-length", "64", "--max-target-length", "17"]) == 2
        assert "max_target_positions 16" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()

    def test_manifest_missing_decoder_key_exits_1(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(pipeline / "ft" / "checkpoint", model)
        manifest = json.loads((model / "manifest.json").read_text())
        del manifest["config"]["decoder"]["heads"]
        (model / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--model", str(model), "--tokenizer", str(pipeline / "tok"),
                     "--input", str(pipeline / "gen_in.jsonl"), "--out", str(out),
                     "--max-input-length", "64", "--max-target-length", "8"]) == 1
        assert "config.decoder: missing keys ['heads']" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_with_other_eos_id_exits_1(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(pipeline / "ft" / "checkpoint", model)
        manifest = json.loads((model / "manifest.json").read_text())
        manifest["extra"]["eos_id"] = 2
        (model / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--model", str(model), "--tokenizer", str(pipeline / "tok"),
                     "--input", str(pipeline / "gen_in.jsonl"), "--out", str(out),
                     "--max-input-length", "64", "--max-target-length", "8"]) == 1
        assert "extra eos_id differ from the fixed special ids" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_records_become_error_entries(self, pipeline, tmp_path, capsys):
        mixed = tmp_path / "mixed.jsonl"
        with open(mixed, "w", encoding="utf-8") as f:
            f.write(json.dumps({"id": "ok", "text": "alpha bravo charlie"}) + "\n")
            f.write(json.dumps({"id": "broken", "no_text": 1}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--model", str(pipeline / "ft" / "checkpoint"),
                     "--tokenizer", str(pipeline / "tok"), "--input", str(mixed),
                     "--out", str(out), "--num-beams", "1",
                     "--max-input-length", "64", "--max-target-length", "6"]) == 0
        capsys.readouterr()
        recs = read_lines(out)
        assert "summary" in recs[0] and "error" in recs[1]
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["written"] == 1 and manifest["errors"] == 1

    def test_invalid_utf8_line_becomes_error_entry(self, pipeline, tmp_path, capsys):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_bytes(b'{"id": "bad", "text": "caf\xe9"}\n' + (pipeline / "gen_in.jsonl").read_bytes())
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--model", str(pipeline / "ft" / "checkpoint"),
                     "--tokenizer", str(pipeline / "tok"), "--input", str(mixed),
                     "--out", str(out), "--num-beams", "2",
                     "--max-input-length", "64", "--max-target-length", "8"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        recs = read_lines(out)
        assert recs[0]["id"] == "line-1"
        assert re.fullmatch(rf"FormatError: {re.escape(str(mixed))}:1: not UTF-8 \(.*\) \(byte 0\)", recs[0]["error"])
        assert recs[1:] == read_lines(pipeline / "preds.jsonl")

    def test_too_deeply_nested_line_becomes_error_entry(self, pipeline, tmp_path, capsys):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_bytes(b"[" * 100_000 + b"\n" + (pipeline / "gen_in.jsonl").read_bytes())
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--model", str(pipeline / "ft" / "checkpoint"),
                     "--tokenizer", str(pipeline / "tok"), "--input", str(mixed),
                     "--out", str(out), "--num-beams", "2",
                     "--max-input-length", "64", "--max-target-length", "8"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        recs = read_lines(out)
        assert recs[0] == {"id": "line-1", "error": f"FormatError: {mixed}:1: JSON nested too deeply (byte 0)"}
        assert recs[1:] == read_lines(pipeline / "preds.jsonl")
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["errors"] == 1 and manifest["written"] == len(recs) - 1

    def test_non_finite_model_exits_1_without_a_traceback(self, pipeline, tmp_path, capsys):
        model = Seq2SeqModel.load(pipeline / "ft" / "checkpoint")
        model.decoder.params()[-1].data.reshape(-1)[0] = np.nan
        model.checkpoint(tmp_path / "nan")
        assert main(["generate", "--model", str(tmp_path / "nan"), "--tokenizer", str(pipeline / "tok"),
                     "--input", str(pipeline / "gen_in.jsonl"), "--out", str(tmp_path / "out.jsonl"),
                     "--num-beams", "2", "--max-input-length", "64", "--max-target-length", "8"]) == 1
        err = capsys.readouterr().err
        assert "error: decoder logits are not finite" in err and "Traceback" not in err

    def test_input_length_over_encoder_positions_exits_2(self, pipeline, tmp_path, capsys):
        # the default profile reads 1024 input tokens; the encoder holds 128
        out = tmp_path / "out.jsonl"
        assert main(["generate", "--model", str(pipeline / "ft" / "checkpoint"),
                     "--tokenizer", str(pipeline / "tok"), "--input", str(pipeline / "gen_in.jsonl"),
                     "--out", str(out), "--max-target-length", "8"]) == 2
        err = capsys.readouterr().err
        assert "max_input_length 1024 exceeds the encoder's max_positions 128" in err
        assert "Traceback" not in err
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()

    def test_tokenizer_smaller_than_the_model_vocabulary_exits_2(self, pipeline, tmp_path, capsys):
        out = tmp_path / "preds" / "out.jsonl"  # the model holds 300 ids; this tokenizer only 280
        assert main(["generate", "--model", str(pipeline / "ft" / "checkpoint"),
                     "--tokenizer", str(small_tokenizer(pipeline, tmp_path)), "--input", str(pipeline / "gen_in.jsonl"),
                     "--out", str(out), "--max-input-length", "64", "--max-target-length", "8"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: model vocabulary 300 exceeds the tokenizer's 280 tokens"]
        assert not out.parent.exists()


class TestRouge:
    def test_self_comparison_scores_one(self, pipeline, capsys):
        # generate output fed back as its own reference: perfect overlap for
        # every metric whose n-grams exist (a 1-token summary has no bigrams)
        from blf.rouge import tokenize
        token_lists = [tokenize(p["summary"]) for p in read_lines(pipeline / "preds.jsonl")]
        assert all(token_lists), "echo test needs non-empty summaries"
        code = main(["rouge", "--predictions", str(pipeline / "preds.jsonl"),
                     "--references", str(pipeline / "preds.jsonl")])
        assert code == 0
        rows = {line.split()[0]: line.split()[1:]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("rouge")}
        perfect = ["1.00000"] * 3
        for metric in ("rouge1", "rougeL", "rougeLsum"):
            assert rows[metric] == perfect
        if all(len(t) >= 2 for t in token_lists):
            assert rows["rouge2"] == perfect

    def test_report_matches_direct_scoring(self, pipeline, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["rouge", "--predictions", str(pipeline / "preds.jsonl"),
                     "--references", str(pipeline / "refs.jsonl"),
                     "--out", str(report_path)]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        preds = {r["id"]: r for r in read_lines(pipeline / "preds.jsonl")}
        refs = read_lines(pipeline / "refs.jsonl")
        expected = {r["id"]: score_pair(preds[r["id"]]["summary"], r["summary"]) for r in refs}
        assert report["pairs"] == expected
        assert report["aggregate"] == aggregate(list(expected.values()))

    def test_missing_ids_exit_1_and_are_listed(self, pipeline, tmp_path, capsys):
        refs = read_lines(pipeline / "refs.jsonl")
        refs.append({"id": "ghost-7", "summary": "missing everywhere"})
        ref_path = tmp_path / "refs_plus.jsonl"
        write_jsonl(ref_path, refs)
        code = main(["rouge", "--predictions", str(pipeline / "preds.jsonl"),
                     "--references", str(ref_path)])
        assert code == 1
        assert "ghost-7" in capsys.readouterr().err

    def test_extra_prediction_ids_exit_1(self, pipeline, tmp_path, capsys):
        preds = read_lines(pipeline / "preds.jsonl")
        preds.append({"id": "orphan-1", "summary": "no reference"})
        pred_path = tmp_path / "preds_plus.jsonl"
        write_jsonl(pred_path, preds)
        code = main(["rouge", "--predictions", str(pred_path),
                     "--references", str(pipeline / "refs.jsonl")])
        assert code == 1
        assert "orphan-1" in capsys.readouterr().err

    def test_stemming_flag_changes_scores(self, tmp_path, capsys):
        write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "summary": "running quickly"}])
        write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "summary": "runs quick"}])
        report = tmp_path / "rep.json"
        for stem, expect in (("true", 0.5), ("false", 0.0)):
            assert main(["rouge", "--predictions", str(tmp_path / "p.jsonl"),
                         "--references", str(tmp_path / "r.jsonl"),
                         "--stemming", stem, "--out", str(report)]) == 0
            capsys.readouterr()
            got = json.loads(report.read_text())["aggregate"]["rouge1"]["f1"]
            assert got == pytest.approx(expect)

    def test_duplicate_reference_id_exits_2_without_report(self, tmp_path, capsys):
        write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "summary": "one two"}])
        write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "summary": "one two"}, {"id": "a", "summary": "three"}])
        report = tmp_path / "rep.json"
        assert main(["rouge", "--predictions", str(tmp_path / "p.jsonl"),
                     "--references", str(tmp_path / "r.jsonl"), "--out", str(report)]) == 2
        assert "duplicate reference id 'a'" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("bad, shown", [
        ({"id": "a", "summary": 5}, "record 'a'"),
        ({"id": 7, "summary": "one two"}, "record 7"),
        ({"id": ["a"], "summary": "one two"}, "record ['a']"),
        ({"id": "a", "summary": None}, "record 'a'"),
    ], ids=["int-summary", "int-id", "list-id", "null-summary"])
    @pytest.mark.parametrize("side", ["predictions", "references"])
    def test_non_string_id_or_summary_exits_1_without_report(self, tmp_path, capsys, bad, shown, side):
        good = tmp_path / "good.jsonl"
        write_jsonl(good, [{"id": "a", "summary": "one two"}])
        write_jsonl(tmp_path / "bad.jsonl", [bad])
        paths = {"predictions": good, "references": good, side: tmp_path / "bad.jsonl"}
        report = tmp_path / "rep.json"
        assert main(["rouge", "--predictions", str(paths["predictions"]),
                     "--references", str(paths["references"]), "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert f"bad.jsonl: {shown} needs a string id and a string summary" in err
        assert not report.exists()

    def test_invalid_jsonl_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{oops\n")
        code = main(["rouge", "--predictions", str(bad), "--references", str(bad)])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("side", ["predictions", "references"])
    def test_invalid_utf8_exits_1_naming_the_line(self, tmp_path, capsys, side):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        write_jsonl(good, [{"id": "a", "summary": "one two"}])
        bad.write_bytes(b'{"id": "a", "summary": "one two"}\n{"id": "b", "summary": "caf\xe9"}\n')
        paths = {"predictions": good, "references": good, side: bad}
        report = tmp_path / "rep.json"
        assert main(["rouge", "--predictions", str(paths["predictions"]),
                     "--references", str(paths["references"]), "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:2: not UTF-8" in err and "Traceback" not in err
        assert not report.exists()


class TestInspect:
    def test_encoder_parameter_count(self, pipeline, capsys):
        assert main(["inspect", "--checkpoint", str(pipeline / "pt" / "encoder")]) == 0
        out = capsys.readouterr().out
        manifest = json.loads((pipeline / "pt" / "encoder" / "manifest.json").read_text())
        expected = count_parameters(EncoderConfig(**manifest["config"]))
        assert out.strip().endswith(f"parameters: {expected}")
        assert '"kind": "encoder"' in out

    def test_pretrain_checkpoint_counts_parameters_only(self, pipeline, capsys):
        ckpt = pipeline / "pt" / "checkpoint"
        assert main(["inspect", "--checkpoint", str(ckpt)]) == 0
        expected = sum(p.size for p in RtdPretrainer.resume(ckpt).opt.params)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert 3 * expected == manifest["total_bytes"] // 4  # the values, then their two moments
        assert capsys.readouterr().out.strip().endswith(f"parameters: {expected}")

    def test_current_directory_as_checkpoint(self, pipeline, capsys, monkeypatch):
        monkeypatch.chdir(pipeline / "pt" / "encoder")
        assert main(["inspect", "--checkpoint", "."]) == 0
        assert "parameters:" in capsys.readouterr().out

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        assert main(["inspect", "--checkpoint", str(tmp_path / "none")]) == 1
        capsys.readouterr()

    def test_too_deeply_nested_manifest_exits_1(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("[" * 100_000)
        assert main(["inspect", "--checkpoint", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'manifest.json'}: invalid manifest JSON: maximum recursion depth" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("manifest", ['{"version": 1, "dtype": "float32", "params": []}', "5"])
    def test_malformed_manifest_exits_1(self, tmp_path, capsys, manifest):
        (tmp_path / "manifest.json").write_text(manifest)
        assert main(["inspect", "--checkpoint", str(tmp_path)]) == 1
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ({"name": "b", "offset": 4}, "params[1] is not a {name, shape, offset} entry"),
        ({"name": "b", "shape": [1], "offset": 0}, "tile the buffer in order (expected offset 4)"),
    ], ids=["missing-shape", "overlap"])
    def test_malformed_entry_exits_1(self, tmp_path, capsys, entry, message):
        manifest = {"version": 1, "dtype": "float32", "config": {}, "extra": {}, "total_bytes": 8,
                    "params": [{"name": "a", "shape": [1], "offset": 0}, entry]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert main(["inspect", "--checkpoint", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err


def test_console_script_wiring(pipeline):
    proc = subprocess.run(
        [sys.executable, "-m", "blf.cli", "inspect",
         "--checkpoint", str(pipeline / "pt" / "encoder")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "parameters:" in proc.stdout
