"""Corpus pipeline: the line reader, JSONL ingest, subset capping, chunking,
and `replacing`, which the commands write whole files through.

Every text and JSONL input of the package is decoded per line here (by
`read_lines` and `jsonl_object`), so each reports a bad line the same way.

Documents are tokenized per batch, joined with one end-of-document id after
each document, and the joined stream is sliced into exact length-L chunks.
The final partial slice of each batch is dropped; per-batch accounting keeps
emitted + dropped == stream length as a checked invariant.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError, UsageError

CHUNK_MAGIC = b"BLFC"
CHUNK_VERSION = 1

# A JSON escape of a code point in the surrogate range, and such a code point
# once decoded: alone it has no UTF-8 encoding (a valid pair decodes to one
# code point above the BMP).
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass
class DocumentRecord:
    id: str
    subset: str
    text: str


@dataclass
class ChunkedDataset:
    sequence_length: int
    chunks: np.ndarray  # [num_chunks, L] int32
    batch_records: list[dict] = field(default_factory=list)

    @property
    def total_dropped(self) -> int:
        return sum(b["dropped"] for b in self.batch_records)

    @property
    def total_stream_tokens(self) -> int:
        return sum(b["stream_tokens"] for b in self.batch_records)


def raw_lines(path) -> Iterator[tuple[int, int, bytes]]:
    """(line number, byte offset, bytes with the line end) for every line of
    `path`. The file opens on the call, so a missing one fails before any
    line is asked for."""
    f = open(path, "rb")

    def numbered(offset=0):
        with f:
            for lineno, raw in enumerate(f, start=1):
                yield lineno, offset, raw
                offset += len(raw)
    return numbered()


def _text(raw: bytes, path, lineno: int, offset: int) -> str:
    try:
        return (raw[:-2] if raw.endswith(b"\r\n") else raw.removesuffix(b"\n")).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}:{lineno}: not UTF-8 ({e}) (byte {offset})") from e


def read_lines(path) -> Iterator[tuple[int, str]]:
    """Stream (line number, text) for every line of a UTF-8 file, without its LF
    and one CR before it, so a CRLF file reads as its LF twin (a lone CR splits
    nothing). A line that is not UTF-8 is a FormatError naming path:line and
    the byte offset where the line starts."""
    return ((lineno, _text(raw, path, lineno, offset)) for lineno, offset, raw in raw_lines(path))


def jsonl_object(raw: bytes, path, lineno: int, offset: int) -> dict | None:
    """The JSON object on one line from `raw_lines`, or None when the line is
    empty or ASCII whitespace. A line that is not UTF-8 (as read_lines reports
    it), not JSON, nested deeper than the parser can recurse or not a JSON
    object, or whose strings hold an escaped lone surrogate, is a FormatError
    naming path:line and the byte offset where the line starts."""
    try:
        text = raw.decode("utf-8").strip(" \t\n\r\x0b\x0c")
    except UnicodeDecodeError:
        _text(raw, path, lineno, offset)  # raises, worded for the line without its end
        raise
    if not text:
        return None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{lineno}: invalid JSON ({e.msg}) (byte {offset})") from e
    except RecursionError as e:
        raise FormatError(f"{path}:{lineno}: JSON nested too deeply (byte {offset})") from e
    if not isinstance(obj, dict):
        raise FormatError(f"{path}:{lineno}: expected a JSON object (byte {offset})")
    # only a line with a surrogate escape is walked, so clean lines cost one search
    if _SURROGATE_ESCAPE.search(text) and _SURROGATE.search(json.dumps(obj, ensure_ascii=False)):
        raise FormatError(f"{path}:{lineno}: a JSON string holds a lone surrogate (byte {offset})")
    return obj


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Stream (line number, object) for every line of `path` that is not empty
    or ASCII whitespace; a bad line is a FormatError (see jsonl_object)."""
    for lineno, offset, raw in raw_lines(path):
        obj = jsonl_object(raw, path, lineno, offset)
        if obj is not None:
            yield lineno, obj


def ingest(path) -> Iterator[DocumentRecord]:
    """Stream records from a JSONL file, one object per line with a string
    `text` field; `id` defaults to `line-<n>` and `subset` to `default`."""
    for lineno, obj in read_jsonl(path):
        if not isinstance(obj.get("text"), str):
            raise FormatError(f"{path}:{lineno}: expected a string 'text' field")
        yield DocumentRecord(str(obj.get("id", f"line-{lineno}")), str(obj.get("subset", "default")), obj["text"])


def cap_subsets(records: Iterable[DocumentRecord], per_subset_cap: int) -> Iterator[DocumentRecord]:
    """Pass at most `per_subset_cap` records per subset, first-come order."""
    counts: dict[str, int] = {}
    for rec in records:
        n = counts.get(rec.subset, 0)
        if n < per_subset_cap:
            counts[rec.subset] = n + 1
            yield rec


def _chunk_token_stream(stream: list[int], L: int) -> tuple[np.ndarray, int]:
    n_chunks = len(stream) // L
    arr = np.asarray(stream[: n_chunks * L], dtype=np.int32).reshape(n_chunks, L)
    dropped = len(stream) - n_chunks * L
    return arr, dropped


_worker_tokenizer = None  # set by `_init_worker` in each pool worker's own process


def _init_worker(tokenizer):
    global _worker_tokenizer
    _worker_tokenizer = tokenizer


def _encode_in_worker(args):
    return _encode_batch(_worker_tokenizer, *args)


def _encode_batch(tokenizer, texts: list[str], L: int):
    stream: list[int] = []
    for ids in tokenizer.encode_many(texts):
        stream.extend(ids)
        stream.append(tokenizer.end_id)
    arr, dropped = _chunk_token_stream(stream, L)
    return arr, dropped, len(stream), len(texts)


def _batched(records: Iterable[DocumentRecord], batch_size: int) -> Iterator[list[str]]:
    batch: list[str] = []
    for rec in records:
        batch.append(rec.text)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def concat_and_chunk(
    records: Iterable[DocumentRecord],
    tokenizer,
    L: int = 4096,
    batch_size: int = 1000,
    workers: int = 1,
) -> ChunkedDataset:
    """Tokenize, join with end-of-document ids, slice into exact-L chunks.

    Chunks never straddle a batch boundary; each batch drops its final partial
    slice. Output is independent of `workers`.
    """
    if L < 2:
        raise UsageError(f"sequence length must be >= 2, got {L}")
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")

    batches = _batched(records, batch_size)
    if workers == 1:
        return _collect((_encode_batch(tokenizer, texts, L) for texts in batches), L)
    with multiprocessing.Pool(workers, initializer=_init_worker, initargs=(tokenizer,)) as pool:
        return _collect(pool.imap(_encode_in_worker, ((texts, L) for texts in batches), chunksize=1), L)


def _collect(results, L: int) -> ChunkedDataset:
    chunk_arrays: list[np.ndarray] = []
    batch_records: list[dict] = []
    for arr, dropped, stream_tokens, n_docs in results:
        emitted = arr.shape[0] * L
        if emitted + dropped != stream_tokens:
            raise AssertionError(
                f"token conservation violated: {emitted} emitted + {dropped} dropped != {stream_tokens} stream"
            )
        chunk_arrays.append(arr)
        batch_records.append(
            {"docs": n_docs, "stream_tokens": stream_tokens, "chunks": int(arr.shape[0]), "dropped": dropped}
        )
    if chunk_arrays:
        chunks = np.concatenate(chunk_arrays, axis=0)
    else:
        chunks = np.zeros((0, L), dtype=np.int32)
    return ChunkedDataset(sequence_length=L, chunks=chunks, batch_records=batch_records)


@contextmanager
def replacing(path, binary: bool = False):
    """Open a hidden temporary sibling of `path` for writing (UTF-8 text, or
    bytes); it replaces `path` (os.replace) once the block ends. A block that
    raises removes it, so a write that fails part way leaves an earlier file
    at `path` whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.blf-tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_chunks(path, dataset: ChunkedDataset) -> None:
    """Binary layout: magic, version, L, count (uint32 LE) then int32 LE ids.
    The file is replaced whole (`replacing`)."""
    chunks = np.ascontiguousarray(dataset.chunks, dtype="<i4")
    with replacing(path, binary=True) as f:
        f.write(CHUNK_MAGIC)
        f.write(struct.pack("<III", CHUNK_VERSION, dataset.sequence_length, chunks.shape[0]))
        f.write(chunks.tobytes())


def read_chunks(path) -> ChunkedDataset:
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) < 16 or head[:4] != CHUNK_MAGIC:
            raise FormatError(f"{path}: not a chunk file (bad magic)")
        version, L, count = struct.unpack("<III", head[4:16])
        if version != CHUNK_VERSION:
            raise FormatError(f"{path}: unsupported chunk file version {version}")
        if L < 2:  # the bound concat_and_chunk writes under
            raise FormatError(f"{path}: sequence length must be >= 2, got {L}")
        body = f.read()
    expected = count * L * 4
    if len(body) != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    chunks = np.frombuffer(body, dtype="<i4").reshape(count, L).astype(np.int32)
    return ChunkedDataset(sequence_length=L, chunks=chunks)


def chunk_manifest(dataset: ChunkedDataset, extra: dict | None = None) -> dict:
    """Accounting manifest; `extra` carries the effective run config."""
    manifest = {
        "sequence_length": dataset.sequence_length,
        "num_chunks": int(dataset.chunks.shape[0]),
        "total_stream_tokens": dataset.total_stream_tokens,
        "total_emitted_tokens": int(dataset.chunks.shape[0]) * dataset.sequence_length,
        "total_dropped_tokens": dataset.total_dropped,
        "batches": dataset.batch_records,
    }
    if extra:
        manifest.update(extra)
    return manifest
