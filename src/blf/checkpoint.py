"""Checkpoint format: JSON manifest plus one little-endian float32 buffer.

The manifest records config, named parameter entries (shape, offset), and
arbitrary JSON extras (counters, rng states). Round-trips are byte-exact.
A save is atomic: a kill at any point leaves the old checkpoint or the new
one whole, never a mix. Loading validates fully before returning, so a
corrupted file never yields a partial model.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bpe import BOS_ID, EOS_ID, MASK_ID, PAD_ID, SPECIAL_IDS
from .errors import FormatError, UsageError

CKPT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BUFFER_NAME = "params.bin"

ENCODER_KIND, PRETRAIN_KIND, SEQ2SEQ_KIND = "encoder", "rtd-pretrain", "seq2seq"
# Saved optimizer moments are named `opt.<tower>.<m|v>.<parameter name>`;
# every other entry is a parameter.
MOMENT_PREFIX = "opt."
# The special ids older manifests stored in `extra`. The ids are now fixed by
# `blf.bpe`, and a model trained with other ids cannot run with these.
LEGACY_IDS = {"bos_id": BOS_ID, "eos_id": EOS_ID, "pad_id": PAD_ID, "mask_id": MASK_ID,
              "special_ids": sorted(SPECIAL_IDS)}


def _siblings(directory: Path) -> tuple[Path, Path]:
    """The hidden siblings a save writes the new checkpoint into and parks the
    old one in. Only a save makes names of this form."""
    directory = directory.absolute()  # "." has no name to derive siblings from
    return (directory.with_name(f".{directory.name}.blf-tmp"),
            directory.with_name(f".{directory.name}.blf-old"))


def _whole(directory: Path) -> Path:
    """Where the checkpoint at `directory` is whole: `directory` itself, or the
    save's temp sibling when a save was cut between its two renames (the old
    checkpoint parked, the new one fully written but not yet in place)."""
    tmp, old = _siblings(directory)
    if not directory.exists() and old.is_dir() and (tmp / MANIFEST_NAME).is_file():
        return tmp
    return directory


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_synced(path: Path, chunks) -> None:
    with open(path, "wb") as f:
        f.writelines(chunks)
    _fsync(path)


def save_checkpoint(directory, arrays: dict[str, np.ndarray], config: dict, extra: dict | None = None) -> None:
    """Both files go into a sibling temp directory and are fsynced; then the old
    checkpoint is renamed aside, the new one into place, and the old one removed."""
    directory = Path(directory)
    entries = []
    offset = 0
    for name, arr in arrays.items():
        if arr.dtype != np.float32:
            raise UsageError(f"checkpoint arrays must be float32, {name} is {arr.dtype}")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 4
    manifest = {"version": CKPT_VERSION, "dtype": "float32", "config": config, "extra": extra or {},
                "total_bytes": offset, "params": entries}
    tmp, old = _siblings(directory)
    if _whole(directory) == tmp:
        os.rename(tmp, directory)  # finish the cut save: its checkpoint is newer than the parked one
    for stale in (tmp, old):  # left by a cut save; anything else there is the user's
        if stale.exists():
            if not set(os.listdir(stale)) <= {MANIFEST_NAME, BUFFER_NAME}:
                raise UsageError(f"{stale}: not left by a checkpoint save; move it away to save here")
            shutil.rmtree(stale)
    os.makedirs(tmp)
    _write_synced(tmp / MANIFEST_NAME, [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])
    _write_synced(tmp / BUFFER_NAME, (np.ascontiguousarray(a, "<f4").tobytes() for a in arrays.values()))
    _fsync(tmp)
    replacing = directory.exists()
    if replacing:
        os.rename(directory, old)
    os.rename(tmp, directory)
    _fsync(directory.parent)
    if replacing:
        shutil.rmtree(old)


def _is_json(value, of: type) -> bool:
    """isinstance, except that a JSON boolean is no int (Python's bool subclasses int)."""
    return type(value) is int if of is int else isinstance(value, of)


def read_manifest(directory, kinds=None) -> dict:
    """The checkpoint's manifest, after checking that it exists, parses, has
    every key, names a supported version and dtype, and lists entries that
    tile the buffer in order. `kinds`, when given, maps each accepted
    `extra.kind` to the `extra` keys, with JSON types, that its loader reads:
    another kind is a UsageError, a missing or mistyped key a FormatError, as
    is a legacy special-id key that differs from the fixed id.
    Reading changes nothing on disk."""
    directory = _whole(Path(directory))
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FormatError(f"{manifest_path}: checkpoint manifest not found")
    try:
        manifest = json.loads(manifest_path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply
        raise FormatError(f"{manifest_path}: invalid manifest JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest is not a JSON object")
    for key in ("version", "dtype", "config", "extra", "params", "total_bytes"):
        if key not in manifest:
            raise FormatError(f"{manifest_path}: manifest missing key {key!r}")
    if manifest["version"] != CKPT_VERSION:
        raise FormatError(f"{manifest_path}: unsupported checkpoint version {manifest['version']}")
    if manifest["dtype"] != "float32":
        raise FormatError(f"{manifest_path}: unsupported dtype {manifest['dtype']}")
    if not (isinstance(manifest["config"], dict) and isinstance(manifest["extra"], dict)
            and isinstance(manifest["params"], list)):
        raise FormatError(f"{manifest_path}: config and extra must be JSON objects and params a list")
    changed = [key for key, fixed in LEGACY_IDS.items() if manifest["extra"].get(key, fixed) != fixed]
    if changed:
        raise FormatError(f"{manifest_path}: extra {', '.join(changed)} differ from the fixed special ids {LEGACY_IDS}")

    if kinds is not None:
        kind = manifest["extra"].get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise UsageError(f"{directory}: expected a checkpoint of kind {' or '.join(map(repr, kinds))}, "
                             f"got kind {kind!r}")
        bad = [f"{key}: {of.__name__}" for key, of in kinds[kind].items()
               if not _is_json(manifest["extra"].get(key), of)]
        if bad:
            raise FormatError(f"{manifest_path}: {kind} manifest needs extra {', '.join(bad)}")

    offset, names = 0, set()
    for i, entry in enumerate(manifest["params"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and type(entry.get("offset")) is int and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise FormatError(f"{manifest_path}: params[{i}] is not a {{name, shape, offset}} entry")
        if entry["name"] in names or entry["offset"] != offset:
            raise FormatError(f"{manifest_path}: entry {entry['name']!r} at offset {entry['offset']}: entries "
                              f"must have unique names and tile the buffer in order (expected offset {offset})")
        names.add(entry["name"])
        offset += 4 * math.prod(entry["shape"])
    if type(manifest["total_bytes"]) is not int or manifest["total_bytes"] != offset:
        raise FormatError(f"{manifest_path}: total_bytes {manifest['total_bytes']}, entries cover {offset}")
    return manifest


def load_checkpoint(directory, kinds=None) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Returns (config, name -> float32 array, extra). Fails atomically."""
    directory = _whole(Path(directory))
    manifest = read_manifest(directory, kinds)
    with open(directory / BUFFER_NAME, "rb") as f:
        buf = f.read()
    if len(buf) != manifest["total_bytes"]:
        raise FormatError(f"{directory / BUFFER_NAME}: expected {manifest['total_bytes']} bytes, found {len(buf)}")
    arrays = {
        entry["name"]: np.frombuffer(buf, "<f4", math.prod(entry["shape"]), entry["offset"])
        .reshape(entry["shape"]).astype(np.float32)
        for entry in manifest["params"]
    }
    return manifest["config"], arrays, manifest["extra"]


def read_config(cls, mapping, where: str):
    """The dataclass `cls` from a manifest mapping that names exactly its
    fields. A missing or unknown key, a field declared `int` that holds anything
    else (a JSON boolean included), or a value the class refuses, is a
    FormatError that says so."""
    if not isinstance(mapping, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(mapping).__name__}")
    names = {f.name for f in fields(cls)}
    missing, unknown = sorted(names - set(mapping)), sorted(set(mapping) - names)
    if missing or unknown:
        raise FormatError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    not_int = sorted(f.name for f in fields(cls) if f.type in (int, "int") and not _is_json(mapping[f.name], int))
    if not_int:
        raise FormatError(f"{where}: {', '.join(not_int)} must be JSON integers")
    try:
        return cls(**mapping)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from None


def params_to_arrays(params) -> dict[str, np.ndarray]:
    out = {}
    for p in params:
        if p.name in out:
            raise UsageError(f"duplicate parameter name {p.name!r}")
        out[p.name] = p.data
    return out


def apply_arrays(params, arrays: dict[str, np.ndarray]) -> None:
    """Load values into existing parameters by name, in place; validates coverage first."""
    copy_arrays(params_to_arrays(params), arrays)


def copy_arrays(targets: dict[str, np.ndarray], arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into the live arrays `targets` names, in place,
    after checking that every one is present with the same shape."""
    missing = sorted(set(targets) - set(arrays))
    if missing:
        raise FormatError(f"checkpoint missing parameters: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    for name, arr in targets.items():
        if arrays[name].shape != arr.shape:
            raise FormatError(
                f"parameter {name!r}: checkpoint shape {arrays[name].shape} != model shape {arr.shape}")
    for name, arr in targets.items():
        arr[...] = arrays[name]
