"""Checkpoint format: JSON manifest plus one little-endian float32 buffer.

The manifest records config, named parameter entries (shape, offset), and
arbitrary JSON extras (optimizer counters, rng states). Round-trips are
byte-exact; loading validates fully before returning, so a corrupted file
never yields a partial model.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import FormatError, UsageError

CKPT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BUFFER_NAME = "params.bin"


def save_checkpoint(directory, arrays: dict[str, np.ndarray], config: dict, extra: dict | None = None) -> None:
    directory = Path(directory)
    os.makedirs(directory, exist_ok=True)
    entries = []
    parts = []
    offset = 0
    for name, arr in arrays.items():
        if arr.dtype != np.float32:
            raise UsageError(f"checkpoint arrays must be float32, {name} is {arr.dtype}")
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        parts.append(raw)
        offset += len(raw)
    manifest = {
        "version": CKPT_VERSION,
        "dtype": "float32",
        "config": config,
        "extra": extra or {},
        "total_bytes": offset,
        "params": entries,
    }
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(directory / BUFFER_NAME, "wb") as f:
        for raw in parts:
            f.write(raw)


def read_manifest(directory) -> dict:
    """The checkpoint's manifest, after checking that it exists, parses, has
    every key, and names a supported version and dtype."""
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        raise FormatError(f"{manifest_path}: checkpoint manifest not found")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except json.JSONDecodeError as e:
        raise FormatError(f"{manifest_path}: invalid manifest JSON: {e.msg}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest is not a JSON object")
    for key in ("version", "dtype", "config", "params", "total_bytes"):
        if key not in manifest:
            raise FormatError(f"{manifest_path}: manifest missing key {key!r}")
    if manifest["version"] != CKPT_VERSION:
        raise FormatError(f"{manifest_path}: unsupported checkpoint version {manifest['version']}")
    if manifest["dtype"] != "float32":
        raise FormatError(f"{manifest_path}: unsupported dtype {manifest['dtype']}")
    return manifest


def load_checkpoint(directory) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Returns (config, name -> float32 array, extra). Fails atomically."""
    directory = Path(directory)
    manifest = read_manifest(directory)

    with open(directory / BUFFER_NAME, "rb") as f:
        buf = f.read()
    if len(buf) != manifest["total_bytes"]:
        raise FormatError(
            f"{directory / BUFFER_NAME}: expected {manifest['total_bytes']} bytes, found {len(buf)}"
        )
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = entry["offset"]
        end = start + n * 4
        if end > len(buf):
            raise FormatError(f"{directory / BUFFER_NAME}: entry {entry['name']!r} overruns the buffer")
        arrays[entry["name"]] = (
            np.frombuffer(buf[start:end], dtype="<f4").reshape(shape).astype(np.float32)
        )
    return manifest["config"], arrays, manifest.get("extra", {})


def params_to_arrays(params) -> dict[str, np.ndarray]:
    out = {}
    for p in params:
        if p.name in out:
            raise UsageError(f"duplicate parameter name {p.name!r}")
        out[p.name] = p.data
    return out


def apply_arrays(params, arrays: dict[str, np.ndarray]) -> None:
    """Load values into existing parameters by name; validates coverage first."""
    by_name = {p.name: p for p in params}
    missing = sorted(set(by_name) - set(arrays))
    if missing:
        raise FormatError(f"checkpoint missing parameters: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    for name, p in by_name.items():
        arr = arrays[name]
        if arr.shape != p.data.shape:
            raise FormatError(f"parameter {name!r}: checkpoint shape {arr.shape} != model shape {p.data.shape}")
    for name, p in by_name.items():
        p.data = arrays[name].astype(p.data.dtype)
