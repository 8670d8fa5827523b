import ast
import json
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

import blf
from blf.data import (
    ChunkedDataset,
    DocumentRecord,
    cap_subsets,
    chunk_manifest,
    concat_and_chunk,
    ingest,
    read_chunks,
    read_jsonl,
    read_lines,
    write_chunks,
)
from blf.errors import FormatError, UsageError


class CharTokenizer:
    """One token per character, end-of-document id 1. Predictable counts."""

    end_id = 1

    def encode_many(self, texts):
        return [[2 + (ord(c) % 60) for c in text] for text in texts]


def make_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")


def docs(*texts, subset="default"):
    return [DocumentRecord(id=str(i), subset=subset, text=t) for i, t in enumerate(texts)]


class TestReadLines:
    def test_crlf_reads_as_its_lf_twin(self, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(b"alpha\n\n  \nbravo \ncharlie")
        crlf.write_bytes(b"alpha\r\n\r\n  \r\nbravo \r\ncharlie")
        assert list(read_lines(crlf)) == list(read_lines(lf)) == [
            (1, "alpha"), (2, ""), (3, "  "), (4, "bravo "), (5, "charlie")]

    def test_only_one_cr_before_the_lf_goes_and_a_lone_cr_splits_nothing(self, tmp_path):
        p = tmp_path / "cr.txt"
        p.write_bytes(b"a\rb\r\r\nc\r")
        assert list(read_lines(p)) == [(1, "a\rb\r"), (2, "c\r")]

    def test_not_utf8_names_path_line_and_the_line_offset(self, tmp_path):
        p = tmp_path / "t.txt"
        head = "fine\r\ncafé\n".encode()
        p.write_bytes(head + b"caf\xe9\nlater\n")
        with pytest.raises(FormatError) as info:
            list(read_lines(p))
        message = str(info.value)
        assert message.startswith(f"{p}:3: not UTF-8 ('utf-8' codec can't decode byte 0xe9 in position 3")
        assert message.endswith(f") (byte {len(head)})")

    def test_jsonl_skips_ascii_whitespace_lines(self, tmp_path):
        p = tmp_path / "w.jsonl"
        p.write_bytes(b'{"a": 1}\r\n \t\x0b\x0c\r\n\n{"a": 2}\n')
        assert list(read_jsonl(p)) == [(1, {"a": 1}), (4, {"a": 2})]

    @pytest.mark.parametrize("bad, detail", [
        ("{broken", "invalid JSON (Expecting property name enclosed in double quotes)"),
        ("[1, 2]", "expected a JSON object"),
        ('"text"', "expected a JSON object"),
        ("\xa0", "invalid JSON (Expecting value)"),
        ("[" * 100_000, "JSON nested too deeply"),
        ('{"a": ' * 100_000, "JSON nested too deeply"),
    ], ids=["invalid", "array", "string", "non-ascii-space", "deep-array", "deep-object"])
    def test_jsonl_errors_name_path_line_and_the_line_offset(self, tmp_path, bad, detail):
        p = tmp_path / "e.jsonl"
        head = '{"a": "é"}\r\n\n'.encode()
        p.write_bytes(head + bad.encode() + b"\n")
        with pytest.raises(FormatError) as info:
            list(read_jsonl(p))
        assert str(info.value) == f"{p}:3: {detail} (byte {len(head)})"

    @pytest.mark.parametrize("bad", [
        r'{"text": "caf\udc80 x"}', r'{"\uD800": 1}', r'{"a": [{"b": "\ud83d"}]}', r'{"a": "\ude00\ud83d"}',
    ], ids=["value", "key", "nested", "reversed-pair"])
    def test_jsonl_lone_surrogate_escape_names_path_line_and_the_line_offset(self, tmp_path, bad):
        p = tmp_path / "s.jsonl"
        head = b'{"a": "ok"}\n'
        p.write_bytes(head + bad.encode() + b"\n")
        with pytest.raises(FormatError) as info:
            list(read_jsonl(p))
        assert str(info.value) == f"{p}:2: a JSON string holds a lone surrogate (byte {len(head)})"

    def test_jsonl_surrogate_pairs_and_escaped_backslashes_pass(self, tmp_path):
        p = tmp_path / "pairs.jsonl"
        p.write_bytes(rb'{"a": "\ud83d\ude00", "b": "\\ud800", "\uD83D\uDE00": "\udbff\udfff"}' + b"\n")
        assert list(read_jsonl(p)) == [(1, {"a": "\U0001f600", "b": "\\ud800", "\U0001f600": "\U0010ffff"})]

    def test_jsonl_not_utf8_is_reported_by_the_line_reader(self, tmp_path):
        p = tmp_path / "u.jsonl"
        p.write_bytes(b'{"a": 1}\n{"a": "caf\xe9"}\n')
        with pytest.raises(FormatError, match=r"u\.jsonl:2: not UTF-8 \(.*\) \(byte 9\)$"):
            list(read_jsonl(p))


class TestOneLineReader:
    """Every line input of the package is read through `blf.data`: no other
    module opens a file for reading in text mode, and none but `data.py` and
    `checkpoint.py` (the manifest) reads a file or parses JSON itself."""

    @staticmethod
    def opens(source: str) -> list[tuple[int, str | None]]:
        """(line, mode) of every `open` and `Path.open` call; the mode is "r"
        when none is given and None when it is not a constant."""
        found = []
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode_at = 1
            elif (isinstance(func, ast.Attribute) and func.attr == "open"
                  and not (isinstance(func.value, ast.Name) and func.value.id == "os")):
                mode_at = 0  # Path.open(mode)
            else:
                continue
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None and len(node.args) > mode_at:
                mode = node.args[mode_at]
            text = "r" if mode is None else mode.value if isinstance(mode, ast.Constant) else None
            found.append((node.lineno, text if isinstance(text, str) else None))
        return found

    @staticmethod
    def calls_to(source: str, attr: str) -> list[int]:
        return [node.lineno for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == attr]

    @classmethod
    def text_mode_reads(cls, source: str) -> list[int]:
        return sorted(cls.calls_to(source, "read_text") + [
            line for line, mode in cls.opens(source) if mode is None or ("b" not in mode and not set("wax") & set(mode))
        ])

    @classmethod
    def private_reads(cls, source: str) -> list[int]:
        """Lines that call `json.loads`, read a file's bytes or open a file in a read mode."""
        loads = [node.lineno for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "loads"
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"]
        reads = [line for line, mode in cls.opens(source) if mode is None or "r" in mode]
        return sorted(loads + reads + cls.calls_to(source, "read_bytes"))

    @staticmethod
    def modules():
        for path in sorted(Path(blf.__file__).parent.glob("*.py")):
            yield path.name, path.read_text(encoding="utf-8")

    def test_no_module_reads_a_file_in_text_mode(self):
        found = {name: lines for name, source in self.modules() if (lines := self.text_mode_reads(source))}
        assert found == {}

    def test_only_data_and_the_manifest_reader_parse_json_or_read_files(self):
        found = {name: lines for name, source in self.modules()
                 if name not in ("data.py", "checkpoint.py") and (lines := self.private_reads(source))}
        assert found == {}

    @pytest.mark.parametrize("source, flagged", [
        ("open(p)", True), ("open(p, 'r')", True), ("open(p, mode='r+')", True),
        ("open(p, encoding='utf-8')", True), ("open(p, m)", True), ("p.open()", True),
        ("p.read_text()", True), ("open(p, 'rb')", False), ("open(p, 'w')", False),
        ("open(p, 'a+b')", False), ("p.open('rb')", False), ("os.open(p, os.O_RDONLY)", False),
    ])
    def test_the_guard_tells_text_reads_from_the_rest(self, source, flagged):
        assert bool(self.text_mode_reads(source)) == flagged

    @pytest.mark.parametrize("source, flagged", [
        ("json.loads(s)", True), ("open(p)", True), ("open(p, 'rb')", True), ("open(p, mode='r+b')", True),
        ("p.open('rb')", True), ("open(p, m)", True), ("p.read_bytes()", True), ("p.read_text()", False),
        ("json.dumps(x)", False), ("open(p, 'w')", False), ("open(p, 'ab')", False), ("open(p, 'a+b')", False),
        ("os.open(p, os.O_RDONLY)", False), ("data.jsonl_object(raw, p, 1, 0)", False),
    ])
    def test_the_guard_tells_private_reads_from_the_rest(self, source, flagged):
        assert bool(self.private_reads(source)) == flagged


class TestIngest:
    def test_valid_file_in_order(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        make_jsonl(p, [{"id": "a", "subset": "s1", "text": "one"},
                       {"id": "b", "subset": "s2", "text": "two"},
                       {"id": "c", "subset": "s1", "text": "three"}])
        recs = list(ingest(p))
        assert [r.id for r in recs] == ["a", "b", "c"]
        assert [r.text for r in recs] == ["one", "two", "three"]
        assert [r.subset for r in recs] == ["s1", "s2", "s1"]

    def test_invalid_json_cites_line_and_offset(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        line1 = json.dumps({"text": "fine"}) + "\n"
        p.write_text(line1 + "{broken\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"bad\.jsonl:2: invalid JSON .*\(byte {len(line1)}\)"):
            list(ingest(p))

    def test_missing_text_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        make_jsonl(p, [{"id": "x"}])
        with pytest.raises(FormatError, match="'text'"):
            list(ingest(p))

    def test_non_string_text_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        make_jsonl(p, [{"text": 42}])
        with pytest.raises(FormatError, match="string"):
            list(ingest(p))

    def test_id_synthesized_from_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        make_jsonl(p, [{"text": "no id here"}])
        recs = list(ingest(p))
        assert recs[0].id == "line-1"
        assert recs[0].subset == "default"

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "a"}\n\n{"text": "b"}\n', encoding="utf-8")
        assert [r.text for r in ingest(p)] == ["a", "b"]

    def test_empty_text_allowed(self, tmp_path):
        p = tmp_path / "c.jsonl"
        make_jsonl(p, [{"text": ""}])
        assert list(ingest(p))[0].text == ""

    def test_streaming_constant_memory(self, tmp_path):
        import tracemalloc

        p = tmp_path / "big.jsonl"
        payload = "x" * 200
        with open(p, "w", encoding="utf-8") as f:
            for i in range(100_000):
                f.write(json.dumps({"id": str(i), "text": payload}) + "\n")
        file_mb = p.stat().st_size / 1e6
        assert file_mb > 15  # probe only meaningful if the file dwarfs the bound

        tracemalloc.start()
        n = 0
        for rec in ingest(p):
            n += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert n == 100_000
        assert peak < 4_000_000  # bytes; far below the 21MB file


class TestCapSubsets:
    def test_cap_two_of_five(self):
        recs = docs("a", "b", "c", "d", "e", subset="A")
        out = list(cap_subsets(recs, 2))
        assert [r.text for r in out] == ["a", "b"]

    def test_cap_above_corpus_is_identity(self):
        recs = docs("a", "b", "c")
        out = list(cap_subsets(iter(recs), 10))
        assert out == recs

    def test_mixed_subsets(self):
        recs = [DocumentRecord(str(i), "A", f"a{i}") for i in range(5)]
        recs.insert(2, DocumentRecord("b0", "B", "b0"))
        out = list(cap_subsets(recs, 3))
        by_subset = {}
        for r in out:
            by_subset.setdefault(r.subset, []).append(r.text)
        assert by_subset == {"A": ["a0", "a1", "a2"], "B": ["b0"]}

    def test_first_come_order_preserved(self):
        recs = [DocumentRecord(str(i), "AB"[i % 2], str(i)) for i in range(8)]
        out = list(cap_subsets(recs, 2))
        assert [r.text for r in out] == ["0", "1", "2", "3"]


class TestConcatAndChunk:
    def test_forced_arithmetic_example(self):
        # 3000 + 2000 tokens plus two separators = 5002; one 4096 chunk, 906 dropped
        tok = CharTokenizer()
        ds = concat_and_chunk(docs("x" * 3000, "y" * 2000), tok, L=4096, batch_size=1000)
        assert ds.chunks.shape == (1, 4096)
        assert ds.batch_records == [{"docs": 2, "stream_tokens": 5002, "chunks": 1, "dropped": 906}]

    def test_separator_completes_slice(self):
        tok = CharTokenizer()
        L = 64
        ds = concat_and_chunk(docs("z" * (L - 1)), tok, L=L, batch_size=10)
        assert ds.chunks.shape == (1, L)
        assert ds.total_dropped == 0
        assert ds.chunks[0, -1] == tok.end_id

    def test_chunks_match_manual_slicing(self):
        tok = CharTokenizer()
        texts = ["abcde", "fghijkl"]
        ds = concat_and_chunk(docs(*texts), tok, L=4, batch_size=1)
        streams = [ids + [tok.end_id] for ids in tok.encode_many(texts)]
        expected = []
        for s in streams:
            for i in range(len(s) // 4):
                expected.append(s[i * 4:(i + 1) * 4])
        assert ds.chunks.tolist() == expected
        assert [b["dropped"] for b in ds.batch_records] == [2, 0]

    def test_no_chunk_straddles_batch_boundary(self):
        # batch 1 ends with 3 leftover tokens; they must not leak into batch 2
        tok = CharTokenizer()
        ds = concat_and_chunk(docs("a" * 6, "b" * 6), tok, L=4, batch_size=1)
        (a_id,), (b_id,) = tok.encode_many(["a", "b"])
        assert ds.chunks.shape == (2, 4)
        assert set(ds.chunks[0].tolist()) == {a_id}
        assert set(ds.chunks[1].tolist()) == {b_id}

    def test_conservation_on_random_corpus(self):
        rng = random.Random(11)
        texts = ["w" * rng.randrange(0, 300) for _ in range(137)]
        tok = CharTokenizer()
        ds = concat_and_chunk(docs(*texts), tok, L=37, batch_size=25)
        # recount oracle: recompute stream lengths from scratch
        per_batch = []
        for i in range(0, len(texts), 25):
            per_batch.append(sum(len(t) + 1 for t in texts[i:i + 25]))
        assert [b["stream_tokens"] for b in ds.batch_records] == per_batch
        for b in ds.batch_records:
            assert b["chunks"] * 37 + b["dropped"] == b["stream_tokens"]
        assert ds.chunks.shape[0] * 37 + ds.total_dropped == ds.total_stream_tokens == sum(per_batch)

    def test_empty_doc_contributes_separator_only(self):
        tok = CharTokenizer()
        ds = concat_and_chunk(docs("", "", "", ""), tok, L=2, batch_size=10)
        assert ds.total_stream_tokens == 4
        assert ds.chunks.tolist() == [[1, 1], [1, 1]]

    def test_no_records_yields_empty(self):
        ds = concat_and_chunk([], CharTokenizer(), L=8)
        assert ds.chunks.shape == (0, 8)
        assert ds.batch_records == []

    def test_bad_args_rejected(self):
        with pytest.raises(UsageError):
            concat_and_chunk([], CharTokenizer(), L=1)
        with pytest.raises(UsageError):
            concat_and_chunk([], CharTokenizer(), L=8, batch_size=0)
        with pytest.raises(UsageError):
            concat_and_chunk([], CharTokenizer(), L=8, workers=0)

    def test_workers_do_not_change_output(self):
        rng = random.Random(3)
        texts = ["".join(rng.choice("abc ") for _ in range(rng.randrange(0, 120))) for _ in range(60)]
        tok = CharTokenizer()
        one = concat_and_chunk(docs(*texts), tok, L=16, batch_size=7, workers=1)
        two = concat_and_chunk(docs(*texts), tok, L=16, batch_size=7, workers=3)
        assert np.array_equal(one.chunks, two.chunks)
        assert one.batch_records == two.batch_records

    def test_no_tokenizer_outlives_the_call(self):
        # the caller's reference is the last one, so a dropped tokenizer and
        # its encode cache go before the next command runs
        texts = [f"doc {i} " * (i % 9) for i in range(40)]
        chunks = []
        for workers in (1, 2):
            tok = CharTokenizer()
            alive = weakref.ref(tok)
            chunks.append(concat_and_chunk(docs(*texts), tok, L=16, batch_size=7, workers=workers).chunks.tobytes())
            del tok
            assert alive() is None, workers
        assert chunks[0] == chunks[1]


class TestChunkFile:
    def test_round_trip(self, tmp_path):
        ds = ChunkedDataset(sequence_length=5, chunks=np.arange(30, dtype=np.int32).reshape(6, 5))
        p = tmp_path / "chunks.bin"
        write_chunks(p, ds)
        back = read_chunks(p)
        assert back.sequence_length == 5
        assert np.array_equal(back.chunks, ds.chunks)

    def test_write_is_deterministic(self, tmp_path):
        ds = ChunkedDataset(sequence_length=3, chunks=np.ones((4, 3), dtype=np.int32))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_chunks(p1, ds)
        write_chunks(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        ds = ChunkedDataset(sequence_length=2, chunks=np.array([[7, 8]], dtype=np.int32))
        p = tmp_path / "c.bin"
        write_chunks(p, ds)
        raw = p.read_bytes()
        assert raw[:4] == b"BLFC"
        assert raw[4:16] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + (1).to_bytes(4, "little")
        assert raw[16:] == (7).to_bytes(4, "little") + (8).to_bytes(4, "little")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic"):
            read_chunks(p)

    def test_bad_version(self, tmp_path):
        import struct

        p = tmp_path / "v9.bin"
        p.write_bytes(b"BLFC" + struct.pack("<III", 9, 2, 0))
        with pytest.raises(FormatError, match="version"):
            read_chunks(p)

    def test_truncated_payload(self, tmp_path):
        ds = ChunkedDataset(sequence_length=4, chunks=np.zeros((3, 4), dtype=np.int32))
        p = tmp_path / "t.bin"
        write_chunks(p, ds)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError, match="payload"):
            read_chunks(p)


class TestManifest:
    def test_totals_consistent(self):
        tok = CharTokenizer()
        ds = concat_and_chunk(docs("q" * 50, "r" * 23), tok, L=8, batch_size=1)
        m = chunk_manifest(ds, extra={"seed": 3})
        assert m["total_emitted_tokens"] + m["total_dropped_tokens"] == m["total_stream_tokens"]
        assert m["num_chunks"] == ds.chunks.shape[0]
        assert m["seed"] == 3
        assert len(m["batches"]) == 2
