"""Crash safety and strict reading of checkpoints: a save killed at any step
leaves the old checkpoint or the new one whole, and a malformed manifest is a
FormatError (or, for the wrong kind, a UsageError) before any model is built."""

import json
import os
import re
import shutil

import numpy as np
import pytest

from helpers import Killed, killed_save

from blf.bpe import MASK_ID, PAD_ID, SPECIAL_IDS
from blf.checkpoint import load_checkpoint, read_config, read_manifest, save_checkpoint
from blf.encoder import EncoderConfig
from blf.errors import FormatError, UsageError
from blf.pretrain import PRETRAIN_EXTRAS, PretrainHyper, RtdPretrainer
from blf.rng import substream
from blf.seq2seq import SEQ2SEQ_EXTRAS, DecoderConfig, Seq2SeqModel

# More than the steps of one save (checked below), so every step is a kill point.
KILL_POINTS = 14


def tiny_trainer(seed=7):
    cfg = EncoderConfig(vocab_size=32, hidden=16, layers=2, heads=2, intermediate=32, window=4, max_positions=32)
    hyper = PretrainHyper(batch_size=2, base_lr=1e-3, warmup_steps=4, total_steps=100, depth_divisor=4)
    return RtdPretrainer(cfg, hyper, seed=seed)


@pytest.fixture(scope="module")
def straight():
    """Five uninterrupted steps: their records and every saved array after them."""
    chunks = substream(6, "ids").integers(5, 32, size=(12, 24))
    trainer = tiny_trainer()
    records = list(trainer.run(chunks, steps=5))
    return chunks, records, {name: arr.copy() for name, arr in trainer._all_arrays().items()}


def edit_manifest(directory, change):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


class TestKilledSave:
    def _save_step5_over_step2(self, straight, ck, monkeypatch, at):
        """Checkpoint at step 2, train to step 5, then save again with a kill at `at`."""
        chunks = straight[0]
        trainer = tiny_trainer()
        list(trainer.run(chunks, steps=2))
        trainer.checkpoint(ck)
        list(trainer.run(chunks, steps=3))
        with killed_save(monkeypatch, at) as steps:
            try:
                trainer.checkpoint(ck)
            except Killed:
                pass
        return steps

    def _assert_resumes_on_track(self, straight, ck, steps_done=(2, 5)):
        chunks, records, arrays = straight
        resumed = RtdPretrainer.resume(ck)
        done = resumed.step_count
        assert done in steps_done
        assert list(resumed.run(chunks, steps=5 - done)) == records[done:]
        for name, arr in resumed._all_arrays().items():
            assert arr.tobytes() == arrays[name].tobytes(), name
        return resumed

    @pytest.mark.parametrize("at", range(KILL_POINTS))
    def test_every_kill_point_leaves_a_whole_checkpoint(self, straight, tmp_path, monkeypatch, at):
        ck = tmp_path / "ck"
        self._save_step5_over_step2(straight, ck, monkeypatch, at)
        resumed = self._assert_resumes_on_track(straight, ck)
        resumed.checkpoint(ck)  # the next save clears whatever the kill left behind
        assert sorted(os.listdir(tmp_path)) == ["ck"]

    def test_kill_points_cover_a_whole_save(self, straight, tmp_path, monkeypatch):
        steps = self._save_step5_over_step2(straight, tmp_path / "ck", monkeypatch, at=None)
        assert {"write manifest.json", "write params.bin", "fsync"} <= set(steps)
        assert len(steps) < KILL_POINTS

    def test_kill_after_the_manifest_before_the_buffer_keeps_the_old_checkpoint(
            self, straight, tmp_path, monkeypatch):
        # writing the manifest over the old one in place, then dying, pairs a
        # step-5 manifest with step-2 weights of the same size
        self._save_step5_over_step2(straight, tmp_path / "ck", monkeypatch, at="open params.bin")
        self._assert_resumes_on_track(straight, tmp_path / "ck", steps_done=(2,))

    def test_kill_mid_buffer_write_keeps_the_old_checkpoint(self, straight, tmp_path, monkeypatch):
        # a truncated params.bin must never be the one a resume finds
        self._save_step5_over_step2(straight, tmp_path / "ck", monkeypatch, at="write params.bin")
        self._assert_resumes_on_track(straight, tmp_path / "ck", steps_done=(2,))

    def test_kill_between_the_renames_resumes_the_new_checkpoint(self, straight, tmp_path, monkeypatch):
        steps = self._save_step5_over_step2(straight, tmp_path / "ck", monkeypatch, at="rename .ck.blf-tmp")
        assert steps[-1] == "rename .ck.blf-tmp" and not (tmp_path / "ck").exists()
        left = sorted(os.listdir(tmp_path))
        self._assert_resumes_on_track(straight, tmp_path / "ck", steps_done=(5,))
        assert sorted(os.listdir(tmp_path)) == left  # a reader moves nothing

    def test_saves_leave_user_made_siblings_alone(self, tmp_path):
        ck, backup = tmp_path / "ck", tmp_path / "ck.old"
        tiny_trainer().checkpoint(ck)
        shutil.copytree(ck, backup)  # a hand-made backup
        shutil.copytree(ck, tmp_path / "ck.tmp")
        tiny_trainer(seed=8).checkpoint(ck)
        assert sorted(os.listdir(tmp_path)) == ["ck", "ck.old", "ck.tmp"]
        assert RtdPretrainer.resume(backup).seed == 7 and RtdPretrainer.resume(ck).seed == 8

    def test_a_moved_checkpoint_resumes_and_saves_under_its_old_name(self, straight, tmp_path):
        chunks, records, _ = straight
        trainer = tiny_trainer()
        list(trainer.run(chunks, steps=2))
        trainer.checkpoint(tmp_path / "ck")
        os.rename(tmp_path / "ck", tmp_path / "ck.old")
        with pytest.raises(FormatError, match="manifest not found"):
            read_manifest(tmp_path / "ck")
        resumed = RtdPretrainer.resume(tmp_path / "ck.old")
        assert list(resumed.run(chunks, steps=3)) == records[2:]
        resumed.checkpoint(tmp_path / "ck")
        assert RtdPretrainer.resume(tmp_path / "ck").step_count == 5
        assert RtdPretrainer.resume(tmp_path / "ck.old").step_count == 2

    def test_a_sibling_no_save_could_leave_is_refused_and_kept(self, tmp_path):
        tiny_trainer().checkpoint(tmp_path / "ck")
        stray = tmp_path / ".ck.blf-old"
        stray.mkdir()
        (stray / "notes.txt").write_text("mine")
        with pytest.raises(UsageError, match="not left by a checkpoint save"):
            tiny_trainer().checkpoint(tmp_path / "ck")
        assert (stray / "notes.txt").read_text() == "mine"
        assert RtdPretrainer.resume(tmp_path / "ck").step_count == 0

    def test_truncated_buffer_is_a_format_error(self, tmp_path):
        trainer = tiny_trainer()
        trainer.checkpoint(tmp_path / "ck")
        buf = tmp_path / "ck" / "params.bin"
        buf.write_bytes(buf.read_bytes()[:-8])
        with pytest.raises(FormatError, match="bytes"):
            RtdPretrainer.resume(tmp_path / "ck")


class TestPretrainManifest:
    def test_no_optimizer_block_and_older_manifests_with_one_still_resume(self, straight, tmp_path):
        chunks, records, _ = straight
        trainer = tiny_trainer()
        list(trainer.run(chunks, steps=3))
        trainer.checkpoint(tmp_path / "ck")
        extra = json.loads((tmp_path / "ck" / "manifest.json").read_text())["extra"]
        assert "opt" not in extra

        def add_opt_block(manifest):  # as earlier versions wrote it
            hyper = manifest["extra"]["hyper"]
            state = {"step_count": 3, "base_lr": hyper["base_lr"], "warmup_steps": hyper["warmup_steps"],
                     "total_steps": hyper["total_steps"], "betas": [0.9, 0.999], "eps": 1e-6,
                     "weight_decay": 0.01}
            manifest["extra"]["opt"] = {"gen": state, "disc": dict(state)}

        edit_manifest(tmp_path / "ck", add_opt_block)
        resumed = RtdPretrainer.resume(tmp_path / "ck")
        assert resumed.opt.step_count == 3
        assert list(resumed.run(chunks, steps=2)) == records[3:]

    @pytest.mark.parametrize("change, message", [
        (lambda m: m["config"].update(windw=4), "unknown keys \\['windw'\\]"),
        (lambda m: m["config"].pop("heads"), "missing keys \\['heads'\\]"),
        (lambda m: m["config"].update(window=3), "window must be even"),
        (lambda m: m["extra"]["hyper"].pop("base_lr"), "extra.hyper: missing keys \\['base_lr'\\]"),
        (lambda m: m["extra"].pop("seed"), "needs extra seed: int"),
        (lambda m: m["extra"].update(step="5"), "needs extra step: int"),
        (lambda m: m["extra"].update(step=True), "needs extra step: int"),
        (lambda m: m["config"].update(layers=True), "config: layers must be JSON integers"),
        (lambda m: m["extra"]["hyper"].update(batch_size=True), "extra.hyper: batch_size must be JSON integers"),
        (lambda m: m["extra"]["rng"].pop("dropout"), "extra.rng"),
        (lambda m: m["extra"]["rng"].update(other=m["extra"]["rng"]["mask"]), "extra.rng"),
        (lambda m: m["extra"]["rng"]["mask"].pop("state"), "bad state for rng stream 'mask'"),
    ], ids=["unknown-config-key", "missing-config-key", "bad-config-value", "missing-hyper-key",
            "missing-seed", "string-step", "boolean-step", "boolean-config-int", "boolean-hyper-int",
            "missing-rng-stream", "extra-rng-stream", "bad-rng-state"])
    def test_malformed_resume_state_is_a_format_error(self, tmp_path, change, message):
        tiny_trainer().checkpoint(tmp_path / "ck")
        edit_manifest(tmp_path / "ck", change)
        with pytest.raises(FormatError, match=message):
            RtdPretrainer.resume(tmp_path / "ck")

    def test_other_kind_is_a_usage_error_naming_it(self, tmp_path):
        save_checkpoint(tmp_path / "ck", {"x": np.zeros(2, np.float32)}, {}, extra={"kind": "encoder"})
        with pytest.raises(UsageError, match="kind 'encoder'"):
            RtdPretrainer.resume(tmp_path / "ck")

    def test_extra_holds_only_what_resume_reads(self, tmp_path):
        tiny_trainer().checkpoint(tmp_path / "ck")
        extra = json.loads((tmp_path / "ck" / "manifest.json").read_text())["extra"]
        assert set(extra) == {"kind"} | set(PRETRAIN_EXTRAS) == {"kind", "step", "seed", "hyper", "rng"}

    def test_older_manifest_with_fixed_ids_and_loss_history_resumes_bit_identically(self, straight, tmp_path):
        chunks, records, arrays = straight
        trainer = tiny_trainer()
        list(trainer.run(chunks, steps=3))
        trainer.checkpoint(tmp_path / "ck")

        def add_id_keys(manifest):  # as earlier versions wrote them
            manifest["extra"].update(mask_id=4, pad_id=2, special_ids=[0, 1, 2, 3, 4],
                                     loss_history=[r["total"] for r in records[:3]])

        edit_manifest(tmp_path / "ck", add_id_keys)
        resumed = RtdPretrainer.resume(tmp_path / "ck")
        assert (resumed.mask_id, resumed.pad_id, resumed.special_ids) == (MASK_ID, PAD_ID, SPECIAL_IDS)
        assert list(resumed.run(chunks, steps=2)) == records[3:]
        for name, arr in resumed._all_arrays().items():
            assert arr.tobytes() == arrays[name].tobytes(), name

    @pytest.mark.parametrize("key, value", [
        ("mask_id", 5), ("pad_id", 0), ("special_ids", [0, 1, 2, 3]), ("mask_id", "4"),
    ], ids=["mask-id", "pad-id", "special-ids", "string-mask-id"])
    def test_older_manifest_with_other_ids_is_a_format_error(self, tmp_path, key, value):
        tiny_trainer().checkpoint(tmp_path / "ck")
        edit_manifest(tmp_path / "ck", lambda m: m["extra"].update({key: value}))
        with pytest.raises(FormatError, match=f"extra {key} differ from the fixed special ids"):
            RtdPretrainer.resume(tmp_path / "ck")

    def test_negative_step_is_a_format_error(self, tmp_path):
        # at step -3 the first AdamW update divides by 1 - beta**0 = 0 and writes NaN
        tiny_trainer().checkpoint(tmp_path / "ck")
        edit_manifest(tmp_path / "ck", lambda m: m["extra"].update(step=-3))
        with pytest.raises(FormatError, match="extra.step must be >= 0, got -3"):
            RtdPretrainer.resume(tmp_path / "ck")


class TestSeq2SeqManifest:
    def _model(self):
        enc = EncoderConfig(vocab_size=16, hidden=8, layers=1, heads=2, intermediate=16, window=4, max_positions=16)
        return Seq2SeqModel(enc, DecoderConfig(hidden=8, layers=1, heads=2, intermediate=16, max_target_positions=8),
                            seed=0)

    def test_missing_decoder_key_is_a_format_error(self, tmp_path):
        # without the check, heads silently took its default of 12
        self._model().checkpoint(tmp_path / "m")
        edit_manifest(tmp_path / "m", lambda m: m["config"]["decoder"].pop("heads"))
        with pytest.raises(FormatError, match="config.decoder: missing keys \\['heads'\\]"):
            Seq2SeqModel.load(tmp_path / "m")

    def test_extra_holds_only_what_load_reads(self, tmp_path):
        self._model().checkpoint(tmp_path / "m")
        extra = json.loads((tmp_path / "m" / "manifest.json").read_text())["extra"]
        assert set(extra) == {"kind"} | set(SEQ2SEQ_EXTRAS) == {"kind", "seed"}

    def test_older_manifest_with_fixed_ids_loads(self, tmp_path):
        model = self._model()
        model.checkpoint(tmp_path / "m")
        edit_manifest(tmp_path / "m", lambda m: m["extra"].update(bos_id=0, eos_id=1, pad_id=2))
        back = Seq2SeqModel.load(tmp_path / "m")
        assert (back.bos_id, back.eos_id, back.pad_id) == (0, 1, 2)
        for a, b in zip(model.params(), back.params()):
            assert a.data.tobytes() == b.data.tobytes(), a.name

    @pytest.mark.parametrize("key, value", [("bos_id", 1), ("eos_id", 0), ("pad_id", 4)])
    def test_older_manifest_with_other_ids_is_a_format_error(self, tmp_path, key, value):
        self._model().checkpoint(tmp_path / "m")
        edit_manifest(tmp_path / "m", lambda m: m["extra"].update({key: value}))
        with pytest.raises(FormatError, match=f"extra {key} differ from the fixed special ids"):
            Seq2SeqModel.load(tmp_path / "m")

    def test_missing_extra_is_a_format_error(self, tmp_path):
        self._model().checkpoint(tmp_path / "m")
        edit_manifest(tmp_path / "m", lambda m: m["extra"].pop("seed"))
        with pytest.raises(FormatError, match="needs extra seed: int"):
            Seq2SeqModel.load(tmp_path / "m")

    @pytest.mark.parametrize("change, message", [
        (lambda m: m["config"]["decoder"].update(layers=True), "config.decoder: layers must be JSON integers"),
        (lambda m: m["config"]["encoder"].update(window=4.0), "config.encoder: window must be JSON integers"),
        (lambda m: m["extra"].update(seed=False), "needs extra seed: int"),
    ], ids=["boolean-decoder-int", "float-encoder-int", "boolean-seed"])
    def test_an_int_field_holding_anything_else_is_a_format_error(self, tmp_path, change, message):
        self._model().checkpoint(tmp_path / "m")
        edit_manifest(tmp_path / "m", change)
        with pytest.raises(FormatError, match=message):
            Seq2SeqModel.load(tmp_path / "m")


class TestManifestEntries:
    def _saved(self, tmp_path):
        arrays = {"a.w": np.ones((3, 4), np.float32), "a.b": np.zeros(4, np.float32)}
        save_checkpoint(tmp_path / "c", arrays, {"hidden": 4})
        return tmp_path / "c"

    @pytest.mark.parametrize("change", [
        lambda m: m["params"][1].update(offset=-4),
        lambda m: m["params"][1].pop("shape"),
        lambda m: m["params"][1].update(offset=32),
        lambda m: m["params"][1].update(shape=[2.0, 2]),
        lambda m: m["params"][1].update(name="a.w"),
        lambda m: m["params"].append({"name": "x", "shape": [1], "offset": 64}),
        lambda m: m.update(total_bytes=64.0),
        lambda m: m.update(params={}),
        lambda m: m.update(extra=[]),
    ], ids=["negative-offset", "missing-shape", "overlap", "float-dim", "duplicate-name", "past-total",
            "float-total", "params-not-list", "extra-not-object"])
    def test_malformed_entries_are_format_errors(self, tmp_path, change):
        directory = self._saved(tmp_path)
        edit_manifest(directory, change)
        with pytest.raises(FormatError):
            read_manifest(directory)
        with pytest.raises(FormatError):
            load_checkpoint(directory)

    def test_manifest_not_utf8_is_a_format_error_naming_it(self, tmp_path):
        directory = self._saved(tmp_path)
        (directory / "manifest.json").write_bytes(b'{"version": 1, "dtype": "caf\xe9"}')
        with pytest.raises(FormatError, match=re.escape(f"{directory / 'manifest.json'}: invalid manifest JSON: ")):
            read_manifest(directory)

    def test_too_deeply_nested_manifest_is_a_format_error_naming_it(self, tmp_path):
        directory = self._saved(tmp_path)
        (directory / "manifest.json").write_text("[" * 100_000)
        with pytest.raises(FormatError, match=re.escape(f"{directory / 'manifest.json'}: invalid manifest JSON: ")
                           + "maximum recursion depth exceeded"):
            read_manifest(directory)

    def test_well_formed_manifest_reads_back(self, tmp_path):
        config, arrays, extra = load_checkpoint(self._saved(tmp_path))
        assert config == {"hidden": 4} and extra == {}
        assert arrays["a.w"].shape == (3, 4) and arrays["a.b"].shape == (4,)


class TestReadConfig:
    def test_exact_fields_build_the_class(self):
        assert read_config(DecoderConfig, {"hidden": 8, "layers": 1, "heads": 2, "intermediate": 16,
                                           "max_target_positions": 8}, "here").heads == 2

    @pytest.mark.parametrize("mapping, message", [
        ([], "here: expected a JSON object, got list"),
        ({"hidden": 8}, "missing keys \\['heads', 'intermediate', 'layers', 'max_target_positions'\\]"),
        ({"hidden": 8, "layers": 1, "heads": 2, "intermediate": 16, "max_target_positions": 8, "x": 1},
         "unknown keys \\['x'\\]"),
        ({"hidden": "8", "layers": 1, "heads": 2, "intermediate": 16, "max_target_positions": 8}, "here: "),
        ({"hidden": 8, "layers": True, "heads": 2, "intermediate": 16, "max_target_positions": 8},
         "here: layers must be JSON integers"),
        ({"hidden": 8.0, "layers": 1, "heads": 2, "intermediate": 16, "max_target_positions": 8},
         "here: hidden must be JSON integers"),
    ], ids=["not-an-object", "missing", "unknown", "wrong-type", "boolean-int", "float-int"])
    def test_anything_else_is_a_format_error(self, mapping, message):
        with pytest.raises(FormatError, match=message):
            read_config(DecoderConfig, mapping, "here")
