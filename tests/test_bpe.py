import gc
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from blf import bpe
from blf.bpe import (
    BOS_ID,
    EOS_ID,
    MASK_ID,
    PAD_ID,
    SPECIAL_IDS,
    SPECIAL_TOKENS,
    UNK_ID,
    ByteBpeModel,
    byte_to_symbol_map,
    corpus_stats,
    load,
    pretokenize,
    train_tokenizer,
    _word_symbols,
)
from blf.cli import main
from blf.data import DocumentRecord, concat_and_chunk
from blf.errors import FormatError, RangeError, UsageError
from helpers import reference_bpe, reference_encode, reference_train_tokenizer
from test_acceptance import build_corpus


def brute_force_merges(texts, vocab_size):
    """Reference trainer: recount every pair each round, pick the most frequent
    (ties lexicographic). Quadratic, only for small corpora."""
    word_freq = Counter()
    for t in texts:
        for pre in pretokenize(t):
            word_freq[_word_symbols(pre)] += 1
    words = {w: c for w, c in word_freq.items()}
    merges = []
    produced = set()
    n_tokens = 256 + len(SPECIAL_TOKENS)
    while n_tokens < vocab_size:
        counts = Counter()
        for w, c in words.items():
            for pair in zip(w, w[1:]):
                counts[pair] += c
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        best = min(p for p, c in counts.items() if c == best_count)
        merges.append(best)
        out = best[0] + best[1]
        if out not in produced:
            produced.add(out)
            n_tokens += 1
        new_words = {}
        for w, c in words.items():
            lst = []
            i = 0
            while i < len(w):
                if i + 1 < len(w) and (w[i], w[i + 1]) == best:
                    lst.append(out)
                    i += 2
                else:
                    lst.append(w[i])
                    i += 1
            key = tuple(lst)
            new_words[key] = new_words.get(key, 0) + c
        words = new_words
    return merges


def assert_trains_as_oracles(texts, vocab_size, brute_force=True):
    """`train_tokenizer` gives the merges of the rebuild-every-word trainer
    and, where the corpus is small enough, of the recount-every-round one."""
    merges = train_tokenizer(texts, vocab_size=vocab_size).merges
    assert merges == reference_train_tokenizer(texts, vocab_size=vocab_size).merges
    if brute_force:
        assert merges == brute_force_merges(texts, vocab_size)
    return merges


class TestPretokenize:
    CASES = [
        "hello world",
        "  leading and   multiple   spaces ",
        "tabs\tand\nnewlines\r\n",
        "digits123 mixed 456tail",
        "punct!!! ... -- (braces) [ok]",
        "under_score __init__ a_b",
        "unicode: héllo naïve Ω≈ç 北京 🙂🙂",
        "\x00null\x00bytes",
        "trailing space then word ",
        "",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_lossless(self, text):
        assert "".join(pretokenize(text)) == text

    def test_lossless_random(self):
        import random

        rng = random.Random(7)
        alphabet = "ab 12_.!?\t\né北🙂"
        for _ in range(200):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            assert "".join(pretokenize(s)) == s

    def test_space_attaches_to_word(self):
        assert pretokenize("a b") == ["a", " b"]
        assert pretokenize("x  y") == ["x", " ", " y"]


class TestByteMap:
    def test_bijection(self):
        m = byte_to_symbol_map()
        assert len(m) == 256
        assert len(set(m.values())) == 256
        assert all(len(s) == 1 for s in m.values())

    def test_no_whitespace_symbols(self):
        # merges.txt separates the pair with a space, so symbols must not
        # contain whitespace
        for s in byte_to_symbol_map().values():
            assert not s.isspace()


class TestTraining:
    def test_first_merge_most_frequent_pair(self):
        model = train_tokenizer(["aaaa aaaa"], vocab_size=262)
        assert model.merges[0] == ("a", "a")

    def test_tie_breaks_lexicographic(self):
        # "xy" and "ab" both occur exactly twice with no other repeated pair
        model = train_tokenizer(["xy ab", "xy ab"], vocab_size=262)
        assert model.merges[0] == ("a", "b")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force(self, seed):
        import random

        rng = random.Random(seed)
        words = ["".join(rng.choice("abcde") for _ in range(rng.randrange(1, 7))) for _ in range(60)]
        texts = [" ".join(rng.choice(words) for _ in range(30)) for _ in range(10)]
        vocab_size = 261 + 40
        assert_trains_as_oracles(texts, vocab_size)

    @pytest.mark.parametrize("texts", [
        ["aaaaaaa"], ["aa aaa aaaa"], ["aaaaaaaaaaa aaaaaa aaa"],  # runs of one repeated byte
        ["abab"], ["ababab"], ["abab ababab bababa aba"],  # overlapping merge sites
        # outputs with two splits, "abc" = ab + c = a + bc (greedy training
        # merged no output twice on these; a merges.txt can, see TestBatchedMerge)
        ["abc abc abc bc bc bc bcbc ab ab abab xbc abcabc"],
        ["héé héé 🙂🙂 🙂🙂🙂 naïve naïve ééé"],  # multi-byte UTF-8
    ])
    def test_edge_corpora_match_both_oracles(self, texts):
        merges = assert_trains_as_oracles(texts * 3, vocab_size=400)
        assert merges  # every corpus repeats some pair

    def test_budget_hit_exactly_and_stop_when_no_pair_repeats(self):
        texts = ["the cat sat on the mat, the cat ran at the rat"] * 2
        full = assert_trains_as_oracles(texts, vocab_size=1000)
        outputs = len({a + b for a, b in full})
        assert 261 + outputs < 1000  # ran out of repeated pairs first
        budget = 261 + outputs - 3
        merges = assert_trains_as_oracles(texts, vocab_size=budget)
        assert len(ByteBpeModel(merges)) == budget
        assert merges == full[: len(merges)]

    def test_zipf_corpus_matches_the_reference_trainer(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from gen import ZipfText

        texts = ZipfText(seed=5).docs(50_000)
        assert len(assert_trains_as_oracles(texts, vocab_size=2000, brute_force=False)) > 1500

    def test_trained_files_are_pinned(self, tmp_path):
        # digests of `blf train-tokenizer` output before the incremental pair
        # update; a change to which merges training picks fails here by name
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(build_corpus()) + "\n", encoding="utf-8")
        assert main(["train-tokenizer", "--corpus", str(corpus), "--vocab-size", "512",
                     "--out", str(tmp_path / "tok")]) == 0
        digests = {name: hashlib.sha256((tmp_path / "tok" / name).read_bytes()).hexdigest()
                   for name in ("merges.txt", "vocab.jsonl")}
        assert digests == {
            "merges.txt": "cbe314b3e97655efe4e5f9a958925d05929db6422b6382cd89821516e600ae8c",
            "vocab.jsonl": "8f5238ef2d0dfe685ec5bcb068d12dda2da9687713da5467e473945bc28a36c5",
        }

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_gc_paused_while_training_then_restored(self, enabled, fails):
        seen = []

        def corpus():
            seen.append(gc.isenabled())
            yield "abab abab"
            if fails:
                raise RuntimeError("corpus read failed")

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if fails:
                with pytest.raises(RuntimeError, match="corpus read failed"):
                    train_tokenizer(corpus(), vocab_size=280)
            else:
                assert train_tokenizer(corpus(), vocab_size=280).merges
            assert seen == [False]
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_stops_when_no_pair_repeats(self):
        # every pair unique: merges must stop short of the budget
        model = train_tokenizer(["abcdefg"], vocab_size=1000)
        assert model.merges == []

    def test_deterministic(self):
        texts = ["the quick brown fox jumps over the lazy dog"] * 3
        a = train_tokenizer(texts, vocab_size=300)
        b = train_tokenizer(texts, vocab_size=300)
        assert a.merges == b.merges
        assert a.id_to_token == b.id_to_token

    def test_empty_corpus_rejected(self):
        with pytest.raises(UsageError):
            train_tokenizer([], vocab_size=300)
        with pytest.raises(UsageError):
            train_tokenizer(["", ""], vocab_size=300)

    def test_vocab_size_must_exceed_base(self):
        with pytest.raises(UsageError):
            train_tokenizer(["abc"], vocab_size=261)

    def test_reaches_full_64000_vocab(self):
        # corpus of distinct random words, each repeated twice, so every word
        # can merge all the way down to a single symbol; 16000 words yield
        # ~66k distinct merge outputs, enough to fill the budget
        import random

        rng = random.Random(123)
        seen = set()
        while len(seen) < 16000:
            seen.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(10)))
        words = sorted(seen)
        rng.shuffle(words)
        line = "".join(f" {w}" for w in words)
        model = train_tokenizer([line, line], vocab_size=64000)
        assert len(model) == 64000
        assert len(model.merges) >= 64000 - 261


class TestIds:
    def test_special_ids_dense_and_first(self):
        model = train_tokenizer(["some text for training here, some text"], vocab_size=300)
        assert [model.id_to_token[i] for i in range(5)] == list(SPECIAL_TOKENS)
        assert (model.begin_id, model.end_id, model.pad_id, model.unk_id, model.mask_id) == (0, 1, 2, 3, 4)

    def test_special_ids_are_constants_every_owner_shares(self):
        from blf.pretrain import RtdPretrainer
        from blf.seq2seq import Seq2SeqModel

        assert (BOS_ID, EOS_ID, PAD_ID, UNK_ID, MASK_ID) == (0, 1, 2, 3, 4)
        assert SPECIAL_IDS == ByteBpeModel.special_id_set == RtdPretrainer.special_ids == set(range(5))
        assert (ByteBpeModel.begin_id, ByteBpeModel.end_id, ByteBpeModel.pad_id, ByteBpeModel.mask_id) \
            == (Seq2SeqModel.bos_id, Seq2SeqModel.eos_id, RtdPretrainer.pad_id, RtdPretrainer.mask_id)
        assert Seq2SeqModel.pad_id == PAD_ID

    @pytest.mark.parametrize("specials", [SPECIAL_TOKENS[:4], SPECIAL_TOKENS + ("<extra>",),
                                          SPECIAL_TOKENS[:4] + ("<s>",)], ids=["four", "six", "repeated"])
    def test_vocabulary_needs_five_distinct_special_tokens(self, specials):
        with pytest.raises(UsageError, match="5 distinct special tokens"):
            ByteBpeModel([], special_tokens=specials)

    def test_ids_dense(self):
        model = train_tokenizer(["banana bandana banana bandana"], vocab_size=280)
        n = len(model)
        assert sorted({model.token_to_id[t] for t in model.token_to_id} | set(range(5))) == list(range(n))

    def test_encode_never_emits_special_ids(self):
        model = train_tokenizer(["<s> </s> <pad> <mask> <unk> " * 4], vocab_size=320)
        for marker in SPECIAL_TOKENS:
            ids = model.encode(marker)
            assert not (set(ids) & model.special_id_set)
            assert model.decode(ids) == marker


@pytest.fixture(scope="module")
def model():
    text = "the cat sat on the mat while the other cat ran away quickly 123 456"
    return train_tokenizer([text] * 5, vocab_size=310)


class TestRoundTrip:
    FIXED = [
        "Hello, world!",
        "héllo naïve façade",
        "北京 é́ combining",
        "emoji 🙂🚀 and \x00 NUL",
        "tabs\tnewlines\nCRLF\r\n end",
        "___ under_scores ___",
        "",
        " ",
        "a",
    ]

    @pytest.mark.parametrize("text", FIXED)
    def test_fixed_cases(self, model, text):
        assert model.decode(model.encode(text)) == text

    def test_random_byte_strings(self, model):
        import random

        rng = random.Random(99)
        for _ in range(1000):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
            s = raw.decode("latin-1")
            assert model.decode(model.encode(s)) == s

    def test_random_unicode(self, model):
        import random

        rng = random.Random(5)
        for _ in range(300):
            cps = []
            for _ in range(rng.randrange(0, 48)):
                cp = rng.randrange(0x0, 0x2FFFF)
                if 0xD800 <= cp <= 0xDFFF:
                    cp = 0x20
                cps.append(chr(cp))
            s = "".join(cps)
            assert model.decode(model.encode(s)) == s

    def test_reencode_stable(self, model):
        s = "the cat sat on the mat 123"
        ids = model.encode(s)
        assert model.encode(model.decode(ids)) == ids

    def test_random_id_sequences_decode_encode_stable(self, model):
        # arbitrary id sequences need not re-encode to themselves (they may
        # not be the canonical segmentation), but the decoded text must be a
        # fixed point
        import random

        rng = random.Random(31)
        n = len(model)
        for _ in range(100):
            ids = [rng.randrange(n) for _ in range(rng.randrange(0, 24))]
            text = model.decode(ids)
            assert model.decode(model.encode(text)) == text

    def test_decode_rejects_out_of_range(self, model):
        with pytest.raises(RangeError):
            model.decode([len(model)])
        with pytest.raises(RangeError):
            model.decode([-1])

    def test_compression_happens(self, model):
        s = "the cat sat on the mat"
        assert len(model.encode(s)) < len(s.encode("utf-8"))


class TestSaveLoad:
    def test_round_trip_identity(self, tmp_path):
        model = train_tokenizer(["roundtrip of a trained tokenizer model"] * 4, vocab_size=300)
        vp, mp = tmp_path / "vocab.jsonl", tmp_path / "merges.txt"
        model.save(vp, mp)
        loaded = load(vp, mp)
        assert loaded.merges == model.merges
        assert loaded.id_to_token == model.id_to_token
        for s in ["roundtrip of a trained", "unseen wörds 🙂", ""]:
            assert loaded.encode(s) == model.encode(s)

    def test_files_are_deterministic(self, tmp_path):
        model = train_tokenizer(["stable output bytes"] * 3, vocab_size=290)
        paths = []
        for tag in ("a", "b"):
            vp, mp = tmp_path / f"v{tag}.jsonl", tmp_path / f"m{tag}.txt"
            model.save(vp, mp)
            paths.append((vp.read_bytes(), mp.read_bytes()))
        assert paths[0] == paths[1]

    def test_malformed_merge_line_cites_lineno(self, tmp_path):
        model = train_tokenizer(["abab abab"] * 2, vocab_size=280)
        vp, mp = tmp_path / "vocab.jsonl", tmp_path / "merges.txt"
        model.save(vp, mp)
        lines = mp.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "only_one_field")
        mp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2:"):
            load(vp, mp)

    def test_malformed_vocab_json_cites_lineno(self, tmp_path):
        model = train_tokenizer(["abab abab"] * 2, vocab_size=280)
        vp, mp = tmp_path / "vocab.jsonl", tmp_path / "merges.txt"
        model.save(vp, mp)
        lines = vp.read_text(encoding="utf-8").splitlines()
        lines[3] = "{not json"
        vp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":4:"):
            load(vp, mp)

    def test_too_deeply_nested_vocab_json_cites_lineno(self, tmp_path):
        model = train_tokenizer(["abab abab"] * 2, vocab_size=280)
        vp, mp = tmp_path / "vocab.jsonl", tmp_path / "merges.txt"
        model.save(vp, mp)
        lines = vp.read_text(encoding="utf-8").splitlines()
        lines[3] = "[" * 100_000
        vp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":4: JSON nested too deeply"):
            load(vp, mp)

    def test_vocab_merges_mismatch_detected(self, tmp_path):
        model = train_tokenizer(["abab abab cdcd cdcd"] * 2, vocab_size=290)
        vp, mp = tmp_path / "vocab.jsonl", tmp_path / "merges.txt"
        model.save(vp, mp)
        rows = [json.loads(l) for l in vp.read_text(encoding="utf-8").splitlines()]
        rows[-1]["token"] = "zzzz"
        vp.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(FormatError):
            load(vp, mp)


class TestVocabRows:
    """Each vocab.jsonl row needs a JSON integer id and a string token; every
    error names the row's line in the file."""

    def _saved(self, tmp_path, change, blank_lines=0):
        model = train_tokenizer(["abab abab"] * 2, vocab_size=280)
        vp, mp = tmp_path / "vocab.jsonl", tmp_path / "merges.txt"
        model.save(vp, mp)
        rows = [json.loads(l) for l in vp.read_text(encoding="utf-8").splitlines()]
        change(rows[102])  # the byte 'a'
        vp.write_text("\n" * blank_lines + "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                      encoding="utf-8")
        return vp, mp

    @pytest.mark.parametrize("change, shown", [
        (lambda r: r.update(id="seven"), "'seven' and 'a'"),
        (lambda r: r.update(id=102.0), "102.0 and 'a'"),
        (lambda r: r.update(id=1.5), "1.5 and 'a'"),
        (lambda r: r.update(id=True), "True and 'a'"),
        (lambda r: r.update(token=5), "102 and 5"),
        (lambda r: r.pop("id"), "None and 'a'"),
        (lambda r: r.pop("token"), "102 and None"),
    ], ids=["string-id", "float-id", "fractional-id", "boolean-id", "number-token", "no-id", "no-token"])
    def test_mistyped_row_is_a_format_error_naming_its_line(self, tmp_path, change, shown):
        vp, mp = self._saved(tmp_path, change, blank_lines=2)
        with pytest.raises(FormatError) as info:
            load(vp, mp)
        assert str(info.value) == (
            f"{vp}:105: expected an integer 'id' and a string 'token', got {shown}")

    def test_mismatch_names_the_file_line_not_the_row_position(self, tmp_path):
        vp, mp = self._saved(tmp_path, lambda r: r.update(token="zz"), blank_lines=2)
        with pytest.raises(FormatError, match=r"vocab\.jsonl:105: id 102 maps to 'zz' but merges imply 'a'"):
            load(vp, mp)

    def test_blank_lines_alone_change_nothing(self, tmp_path):
        vp, mp = self._saved(tmp_path, lambda r: None, blank_lines=2)
        assert load(vp, mp).id_to_token[102] == "a"


class TestStats:
    def test_chars_per_token(self):
        texts = ["the common words compress well because the common words repeat"] * 6
        model = train_tokenizer(texts, vocab_size=340)
        stats = corpus_stats(model, iter(texts))
        assert stats["chars"] == sum(len(t) for t in texts)
        assert stats["tokens"] > 0
        assert stats["chars_per_token"] > 1.0

    def test_empty_stream(self):
        model = ByteBpeModel([])
        assert corpus_stats(model, iter([]))["chars_per_token"] == 0.0


class TestBatchedMerge:
    """encode_many and encode against the per-word oracle `reference_bpe`, id for id."""

    @staticmethod
    def assert_matches_oracle(model, texts):
        expected = [reference_encode(model, t) for t in texts]
        assert model.encode_many(texts) == expected
        assert [model.encode(t) for t in texts] == expected  # now from the cache
        fresh = ByteBpeModel(model.merges, model.special_tokens)
        assert [fresh.encode(t) for t in texts] == expected

    def test_corpora_of_these_tests(self, model):
        texts = ["the cat sat on the mat while the other cat ran away quickly 123 456",
                 *TestRoundTrip.FIXED, *TestPretokenize.CASES, "banana bandana banana bandana"]
        self.assert_matches_oracle(model, texts)
        rng = random.Random(99)
        self.assert_matches_oracle(model, [bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
                                           .decode("latin-1") for _ in range(300)])

    def test_acceptance_fixture_corpus(self):
        docs = build_corpus()
        model = train_tokenizer(docs, vocab_size=512)
        self.assert_matches_oracle(model, docs[:300])
        distinct = sorted({p for d in docs for p in pretokenize(d)})
        assert [list(ids) for ids in model._merge(distinct)] == [reference_bpe(model, p) for p in distinct]

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_merge_tables(self, seed):
        # merges drawn from the symbols made so far, so tables hold repeated
        # pairs and outputs that equal earlier tokens
        rng = random.Random(seed)
        alphabet = "ab c\né🙂"
        symbols = sorted({s for ch in alphabet for s in _word_symbols(ch)})
        merges = []
        for _ in range(rng.randrange(0, 60)):
            a, b = rng.choice(symbols), rng.choice(symbols)
            merges.append((a, b))
            symbols.append(a + b)
        model = ByteBpeModel(merges)
        texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40))) for _ in range(100)]
        self.assert_matches_oracle(model, texts)

    def test_duplicated_pair_takes_its_later_rank(self):
        model = ByteBpeModel([("a", "b"), ("b", "c"), ("a", "b")])
        assert model.merge_ranks[("a", "b")] == 2
        ids = model.token_to_id
        assert model.encode("abc") == [ids["a"], ids["bc"]]
        self.assert_matches_oracle(model, ["abc", "abcabc", "ab", "cab", "abab bc"])

    def test_merge_output_that_equals_an_earlier_token(self):
        model = ByteBpeModel([("b", "c"), ("a", "b"), ("ab", "c"), ("a", "bc")])
        assert model.token_to_id["abc"] == len(SPECIAL_TOKENS) + 256 + 2
        assert model.encode("abc") == [model.token_to_id["abc"]]
        self.assert_matches_oracle(model, ["abc", "abcabc", "aabcc", "bcabc abc"])

    def test_zero_merges_give_byte_ids(self):
        model = ByteBpeModel([])
        text = "hé 🙂"
        assert model.encode(text) == [len(SPECIAL_TOKENS) + b for b in text.encode("utf-8")]
        self.assert_matches_oracle(model, [text, "", "  \n"])

    def test_runs_of_one_repeated_byte(self):
        model = ByteBpeModel([("a", "a"), ("aa", "a"), ("aa", "aa"), ("aaa", "a"), ("Ġ", "Ġ")])
        self.assert_matches_oracle(model, ["a" * n for n in range(1, 40)] + [" " * n + "x" for n in range(1, 20)]
                                   + ["baaab aaaaab" * 3])

    def test_multibyte_utf8_and_whitespace_pretokens(self):
        texts = ["héllo naïve 北京 🙂🙂🙂 café",
                 "\n\n\t  x \r\n  ", "ééé 北北 🙂"]
        model = train_tokenizer(texts * 3, vocab_size=330)
        assert any(len(a.encode("utf-8")) > 1 for a, _ in model.merges)
        self.assert_matches_oracle(model, texts + ["\t" * 9, "   ", "京北 🚀"])

    def test_empty_list_and_empty_strings(self, model):
        assert model.encode_many([]) == []
        assert model.encode_many(["", "", ""]) == [[], [], []]
        assert model.encode_many(["", "the", ""]) == [[], reference_encode(model, "the"), []]
        assert model.encode("") == []

    def test_more_texts_than_one_group(self, model):
        texts = [f"the cat {i} sat" for i in range(2 * bpe._ENCODE_GROUP + 7)]
        self.assert_matches_oracle(model, texts)

    def test_cache_stays_within_its_bound(self, model, monkeypatch):
        assert bpe._CACHE_CAP == 1_000_000
        monkeypatch.setattr(bpe, "_CACHE_CAP", 5)
        fresh = ByteBpeModel(model.merges)
        texts = [f"w{i} x{i * 7} the cat" for i in range(40)]
        expected = [reference_encode(model, t) for t in texts]
        assert fresh.encode_many(texts[:20]) == expected[:20]
        assert len(fresh._encode_cache) == 5
        assert fresh.encode_many(texts) == expected
        assert len(fresh._encode_cache) == 5

    def test_cached_ids_share_one_int_per_id(self, model):
        fresh = ByteBpeModel(model.merges)
        fresh.encode_many(["the cat sat on the mat", "the mat"])
        for ids in fresh._encode_cache.values():
            assert all(i is fresh._ids[i] for i in ids)

    def test_workers_write_the_chunks_one_worker_does(self, model):
        rng = random.Random(4)
        words = ["the", "cat", "sat", "mat", "ran", "quickly", "été", "123"]
        records = [DocumentRecord(str(i), "s", " ".join(rng.choice(words) for _ in range(rng.randrange(40))))
                   for i in range(120)]
        one = concat_and_chunk(records, model, L=16, batch_size=25, workers=1)
        two = concat_and_chunk(records, ByteBpeModel(model.merges), L=16, batch_size=25, workers=2)
        assert one.chunks.size and np.array_equal(one.chunks, two.chunks)
        assert one.batch_records == two.batch_records
