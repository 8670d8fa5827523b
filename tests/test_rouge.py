import json
from collections import Counter

import numpy as np
import pytest

from blf import rouge
from blf.errors import UsageError
from blf.rouge import (
    TokenizationPolicy,
    aggregate,
    porter_stem,
    rouge_l,
    rouge_lsum,
    rouge_n,
    score_pair,
    split_sentences,
    tokenize,
)

PLAIN = TokenizationPolicy(stemming=False)

WORDS = ["cat", "dog", "run", "jump", "tree", "house", "blue", "red", "fast", "slow",
         "bird", "fish", "tall", "short", "warm"]


def random_text(rng, max_tokens=30, max_sents=1):
    n_sents = int(rng.integers(1, max_sents + 1))
    sents = []
    budget = max_tokens
    for _ in range(n_sents):
        k = int(rng.integers(1, max(2, budget // n_sents + 1)))
        sents.append(" ".join(WORDS[i] for i in rng.integers(0, len(WORDS), size=k)))
        budget -= k
    return "\n".join(sents)


# --- independent oracles -------------------------------------------------------


def oracle_ngram(candidate, reference, n, policy):
    c, r = tokenize(candidate, policy), tokenize(reference, policy)
    cg = Counter(tuple(c[i:i + n]) for i in range(len(c) - n + 1))
    rg = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
    hits = sum((cg & rg).values())
    tot_c, tot_r = sum(cg.values()), sum(rg.values())
    p = hits / tot_c if tot_c else 0.0
    rec = hits / tot_r if tot_r else 0.0
    f = 2 * p * rec / (p + rec) if p + rec else 0.0
    return p, rec, f


def oracle_lcs_table(a, b):
    """Full-table O(mn) dynamic program kept entirely for comparison."""
    t = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            t[i][j] = t[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1] else max(t[i - 1][j], t[i][j - 1])
    return t


def oracle_lcs_indices(ref, can):
    """Recursive canonical backtrack: ties move toward shorter reference."""
    t = oracle_lcs_table(ref, can)

    def walk(i, j):
        if i == 0 or j == 0:
            return []
        if ref[i - 1] == can[j - 1]:
            return walk(i - 1, j - 1) + [i - 1]
        if t[i][j - 1] > t[i - 1][j]:
            return walk(i, j - 1)
        return walk(i - 1, j)

    return walk(len(ref), len(can))


def oracle_lsum(candidate, reference, policy):
    can_sents = [tokenize(s, policy) for s in split_sentences(candidate)]
    ref_sents = [tokenize(s, policy) for s in split_sentences(reference)]
    can_sents = [s for s in can_sents if s]
    ref_sents = [s for s in ref_sents if s]
    m = sum(map(len, can_sents))
    n = sum(map(len, ref_sents))
    if not m or not n:
        return 0.0, 0.0, 0.0
    cnt_c = Counter(t for s in can_sents for t in s)
    cnt_r = Counter(t for s in ref_sents for t in s)
    hits = 0
    for ref in ref_sents:
        union = set()
        for can in can_sents:
            union |= set(oracle_lcs_indices(ref, can))
        for i in sorted(union):
            tok = ref[i]
            if cnt_c[tok] > 0 and cnt_r[tok] > 0:
                hits += 1
                cnt_c[tok] -= 1
                cnt_r[tok] -= 1
    p, r = hits / m, hits / n
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


class TestPorterStemmer:
    @pytest.mark.parametrize("word,stem", [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("plastered", "plaster"),
        ("motoring", "motor"),
        ("hopping", "hop"),
        ("tanned", "tan"),
        ("falling", "fall"),
        ("hissing", "hiss"),
        ("fizzed", "fizz"),
        ("filing", "file"),
        ("sized", "size"),
        ("happy", "happi"),
        ("sky", "sky"),
        ("oscillators", "oscil"),
        ("controll", "control"),
        ("roll", "roll"),
    ])
    def test_known_stems(self, word, stem):
        assert porter_stem(word) == stem

    @pytest.mark.parametrize("family", [
        ("relational", "relate", "relating"),
        ("conditional", "condition"),
        ("valenci", "valence"),
        ("hopeful", "hope", "hoping"),
        ("goodness", "good"),
        ("formaliti", "formal", "formalize"),
        ("electriciti", "electrical", "electric"),
        ("generalization", "generalize"),
        ("running", "runs", "run"),
        ("decisiveness", "decisive"),
    ])
    def test_inflection_families_collapse(self, family):
        stems = {porter_stem(w) for w in family}
        assert len(stems) == 1, f"{family} -> {stems}"

    def test_short_words_untouched(self):
        for w in ("a", "is", "by", "it"):
            assert porter_stem(w) == w

    def test_memo_is_bounded_and_returns_the_unmemoized_stem(self):
        assert porter_stem.cache_info().maxsize == 1_000_000
        words = ["relational", "hopping", "generalization", "sky", "ponies"] * 3
        hits = porter_stem.cache_info().hits
        assert [porter_stem(w) for w in words] == [porter_stem.__wrapped__(w) for w in words]
        assert porter_stem.cache_info().hits >= hits + 10


class TestTokenize:
    def test_lowercase_and_runs(self):
        assert tokenize("The CAT, sat-down 42 times!", PLAIN) == [
            "the", "cat", "sat", "down", "42", "times"]

    def test_stemming_applies_above_three_chars(self):
        assert tokenize("running runs", TokenizationPolicy()) == ["run", "run"]
        # three-letter tokens skip the stemmer even when a rule would fire
        assert tokenize("ties", TokenizationPolicy()) == ["ti"]
        assert tokenize("ski skis", TokenizationPolicy()) == ["ski", "ski"]

    def test_lowercase_flag(self):
        assert tokenize("The Cat", TokenizationPolicy(lowercase=False, stemming=False)) == ["he", "at"]
        # uppercase letters are outside the token alphabet by design

    def test_sentence_split_newline_wins(self):
        assert split_sentences("a b. c\nd e") == ["a b. c", "d e"]

    def test_sentence_split_fallback_punctuation(self):
        assert split_sentences("First one. Second two! Third? Tail") == [
            "First one.", "Second two!", "Third?", "Tail"]


class TestRougeN:
    def test_hand_counted_example(self):
        assert rouge_n("the cat sat", "the cat ran", 1) == pytest.approx((2 / 3, 2 / 3, 2 / 3))
        assert rouge_n("the cat sat", "the cat ran", 2) == pytest.approx((0.5, 0.5, 0.5))

    def test_identical_texts(self):
        for n in (1, 2, 3):
            assert rouge_n("a quick brown fox", "a quick brown fox", n) == (1.0, 1.0, 1.0)

    def test_disjoint_vocabulary(self):
        assert rouge_n("cat dog", "tree house", 1) == (0.0, 0.0, 0.0)

    def test_empty_side_is_zero(self):
        assert rouge_n("", "some words", 1) == (0.0, 0.0, 0.0)
        assert rouge_n("some words", "", 1) == (0.0, 0.0, 0.0)
        assert rouge_n("", "", 1) == (0.0, 0.0, 0.0)

    def test_n_longer_than_text_is_zero(self):
        assert rouge_n("one two", "one two", 5) == (0.0, 0.0, 0.0)

    def test_clipping_repeated_grams(self):
        # candidate repeats 'cat' three times but the reference has it twice
        p, r, f = rouge_n("cat cat cat", "cat dog cat", 1, PLAIN)
        assert (p, r) == (2 / 3, 2 / 3)

    def test_bad_n(self):
        with pytest.raises(UsageError):
            rouge_n("a", "b", 0)

    def test_stemming_bridges_inflection(self):
        assert rouge_n("the dogs were running", "the dog runs", 1)[2] > \
               rouge_n("the dogs were running", "the dog runs", 1, PLAIN)[2]


class TestRougeL:
    def test_subsequence_candidate_full_precision(self):
        assert rouge_l("cat tree", "cat dog tree house", PLAIN)[0] == 1.0

    def test_reversal_distinct_tokens(self):
        p, r, f = rouge_l("cat dog tree", "tree dog cat", PLAIN)
        assert p == r == pytest.approx(1 / 3)

    def test_empty_side(self):
        assert rouge_l("", "cat") == (0.0, 0.0, 0.0)

    def test_identical(self):
        assert rouge_l("cat dog tree", "cat dog tree") == (1.0, 1.0, 1.0)


class TestRougeLsum:
    def test_single_sentence_equals_rouge_l(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_text(rng, max_tokens=12, max_sents=1)
            b = random_text(rng, max_tokens=12, max_sents=1)
            assert rouge_lsum(a, b, PLAIN) == pytest.approx(rouge_l(a, b, PLAIN))

    def test_identical_multisentence(self):
        text = "cat dog run\ntree house blue"
        assert rouge_lsum(text, text, PLAIN) == (1.0, 1.0, 1.0)

    def test_constructed_two_by_two(self):
        # reference sentences: [cat dog tree], [blue red fast]
        # candidate sentences: [cat tree red], [blue dog fast]
        # union-LCS per ref sentence: s1 hits {cat, tree} via c1 and {dog} via c2;
        # s2 hits {red, fast} via c1->? c1 gives [red], c2 gives [blue, fast];
        # union -> all three. Clipping never binds (all tokens distinct).
        cand = "cat tree red\nblue dog fast"
        ref = "cat dog tree\nblue red fast"
        p, r, f = rouge_lsum(cand, ref, PLAIN)
        assert (p, r, f) == (1.0, 1.0, 1.0)

    def test_constructed_partial_overlap(self):
        # ref s1 = [cat dog], ref s2 = [tree house]
        # cand = single sentence [cat house]
        # union-LCS(s1, cand) = [cat]; union-LCS(s2, cand) = [house] -> 2 hits
        # P = 2/2, R = 2/4
        p, r, f = rouge_lsum("cat house", "cat dog\ntree house", PLAIN)
        assert (p, r) == (1.0, 0.5)
        assert f == pytest.approx(2 / 3)

    def test_clipping_binds_on_repeats(self):
        # candidate has one 'cat'; both reference sentences hit it, only one counts
        p, r, f = rouge_lsum("cat", "cat dog\ncat tree", PLAIN)
        assert (p, r) == (1.0, 0.25)

    def test_empty_sides(self):
        assert rouge_lsum("", "cat dog") == (0.0, 0.0, 0.0)
        assert rouge_lsum("cat dog", "") == (0.0, 0.0, 0.0)


class TestOracleEquivalence:
    def test_hundred_random_pairs_exact(self):
        rng = np.random.default_rng(7)
        policy = TokenizationPolicy()
        for _ in range(100):
            cand = random_text(rng, max_tokens=30, max_sents=3)
            ref = random_text(rng, max_tokens=30, max_sents=3)
            assert rouge_n(cand, ref, 1, policy) == oracle_ngram(cand, ref, 1, policy)
            assert rouge_n(cand, ref, 2, policy) == oracle_ngram(cand, ref, 2, policy)
            c, r = tokenize(cand, policy), tokenize(ref, policy)
            lcs = oracle_lcs_table(c, r)[len(c)][len(r)]
            got_p, got_r, _ = rouge_l(cand, ref, policy)
            assert got_p == (lcs / len(c) if c else 0.0)
            assert got_r == (lcs / len(r) if r else 0.0)
            assert rouge_lsum(cand, ref, policy) == oracle_lsum(cand, ref, policy)

    def test_score_pair_tokenizes_each_text_once_and_scores_as_the_metrics_do(self, monkeypatch):
        rng = np.random.default_rng(17)
        calls = []

        def counted(text, policy=TokenizationPolicy()):
            calls.append(text)
            return tokenize(text, policy)

        for _ in range(50):
            cand = random_text(rng, max_tokens=30, max_sents=3)
            ref = random_text(rng, max_tokens=30, max_sents=3)
            expected = {"rouge1": rouge_n(cand, ref, 1), "rouge2": rouge_n(cand, ref, 2),
                        "rougeL": rouge_l(cand, ref), "rougeLsum": rouge_lsum(cand, ref)}
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(rouge, "tokenize", counted)
                got = score_pair(cand, ref)
            assert {k: (v["precision"], v["recall"], v["f1"]) for k, v in got.items()} == expected
            assert len(calls) == len(split_sentences(cand)) + len(split_sentences(ref))

    @pytest.mark.parametrize("policy", [TokenizationPolicy(), PLAIN, TokenizationPolicy(lowercase=False)])
    def test_whole_text_tokens_are_the_sentence_tokens_joined(self, policy):
        # newlines, Unicode whitespace, sentence punctuation, and characters whose
        # lowercase is ASCII (Kelvin sign, dotted I) or depends on context (final sigma)
        pieces = WORDS + ["\n", " ", "\t", "\u00a0", "\u2003", "\u3000", "\x1c", "\r\n", ".", "!", "?",
                          "Dog", "TREE", "\u212a", "\u0130x", "\u03a3", "ab\u03a3", "7", "\u00dfe", "x-y"]
        rng = np.random.default_rng(23)
        for _ in range(400):
            text = "".join(pieces[i] for i in rng.integers(0, len(pieces), size=int(rng.integers(0, 25))))
            joined = [t for s in split_sentences(text) for t in tokenize(s, policy)]
            assert tokenize(text, policy) == joined, repr(text)

    def test_rouge_report_is_unchanged_on_corpus_style_pairs(self, tmp_path, capsys, monkeypatch):
        """`blf rouge` writes the same bytes as with each metric tokenizing on its own."""
        from blf import cli

        rng = np.random.default_rng(29)
        refs, preds = [], []
        for i in range(60):  # three sentences per reference, some near-copied, as perfbench's corpus
            ref = [" ".join(WORDS[j] for j in rng.integers(0, len(WORDS), size=int(rng.integers(6, 19)))) + "."
                   for _ in range(3)]
            pred = [" ".join(w for w in r[:-1].split(" ") if rng.random() < 0.7) + "."
                    if rng.random() < 0.5 else r.upper() for r in ref]
            sep = "\n" if i % 4 else " "  # every fourth pair splits at punctuation instead
            refs.append({"id": f"pair-{i}", "summary": sep.join(ref)})
            preds.append({"id": f"pair-{i}", "summary": sep.join(pred)})
        for name, rows in (("refs", refs), ("preds", preds)):
            (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))

        def report():
            argv = ["rouge", "--predictions", str(tmp_path / "preds.jsonl"),
                    "--references", str(tmp_path / "refs.jsonl"), "--out", str(tmp_path / "report.json")]
            assert cli.main(argv) == 0
            return capsys.readouterr().out, (tmp_path / "report.json").read_bytes()

        got = report()

        def separately(c, r, policy=TokenizationPolicy()):
            values = {"rouge1": rouge_n(c, r, 1, policy), "rouge2": rouge_n(c, r, 2, policy),
                      "rougeL": rouge_l(c, r, policy), "rougeLsum": rouge_lsum(c, r, policy)}
            return {m: {"precision": p, "recall": q, "f1": f} for m, (p, q, f) in values.items()}

        monkeypatch.setattr(cli, "score_pair", separately)
        assert got == report()


class TestInvariants:
    def test_swap_exchanges_precision_recall(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = random_text(rng, max_tokens=15)
            b = random_text(rng, max_tokens=15)
            for fn in (lambda x, y: rouge_n(x, y, 1), lambda x, y: rouge_n(x, y, 2), rouge_l):
                p1, r1, f1 = fn(a, b)
                p2, r2, f2 = fn(b, a)
                assert p1 == pytest.approx(r2)
                assert r1 == pytest.approx(p2)
                assert f1 == pytest.approx(f2)

    def test_scores_in_unit_interval_and_f1_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = random_text(rng, max_tokens=20, max_sents=2)
            b = random_text(rng, max_tokens=20, max_sents=2)
            for metric, vals in score_pair(a, b).items():
                p, r, f = vals["precision"], vals["recall"], vals["f1"]
                assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
                assert f <= max(p, r) + 1e-12


class TestAggregate:
    def scores(self, f1s):
        return [
            {m: {"precision": v, "recall": v, "f1": v}
             for m in ("rouge1", "rouge2", "rougeL", "rougeLsum")}
            for v in f1s
        ]

    def test_single_pair_identity(self):
        s = self.scores([0.7])
        assert aggregate(s) == s[0]

    def test_duplicated_pair_same_mean(self):
        assert aggregate(self.scores([0.4, 0.4])) == self.scores([0.4])[0]

    def test_arithmetic(self):
        out = aggregate(self.scores([0.2, 0.4]))
        assert out["rouge1"]["f1"] == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            aggregate([])

    def test_score_pair_shape(self):
        out = score_pair("cat dog", "cat tree")
        assert set(out) == {"rouge1", "rouge2", "rougeL", "rougeLsum"}
        for vals in out.values():
            assert set(vals) == {"precision", "recall", "f1"}
