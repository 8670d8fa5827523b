"""ROUGE-1/2/L/Lsum with precision, recall and F1.

Tokenization follows the de-facto reference scorer: lowercase, maximal
ASCII alphanumeric runs, Porter stemming of tokens longer than three
characters. ROUGE-Lsum uses the union-LCS variant over sentences with a
canonical backtrack (ties move toward the reference), hits clipped by both
sides' token counts.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass

from .errors import UsageError

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SENT_FALLBACK_RE = re.compile(r"(?<=[.!?])\s+")


# --- Porter stemmer (the original 1980 algorithm) ------------------------------

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel->consonant transitions in the collapsed c/v form."""
    form = ""
    for i in range(len(stem)):
        ch = "c" if _is_consonant(stem, i) else "v"
        if not form or form[-1] != ch:
            form += ch
    return form.count("vc")


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_if(word: str, suffix: str, repl: str, min_measure: int) -> tuple[str, bool]:
    """Apply suffix -> repl when the remaining stem has measure > min_measure."""
    if not word.endswith(suffix):
        return word, False
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + repl, True
    return word, True  # suffix matched; rule consumed even if condition failed


_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"), ("eli", "e"),
    ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


@functools.lru_cache(maxsize=1_000_000)  # a text's words repeat, so each is stemmed once
def porter_stem(word: str) -> str:
    """Stem one lowercase word; words of length <= 2 pass through."""
    if len(word) <= 2:
        return word

    # step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif not word.endswith("ss") and word.endswith("s"):
        word = word[:-1]

    # step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        removed = False
        for suffix in ("ed", "ing"):
            if word.endswith(suffix) and _has_vowel(word[: -len(suffix)]):
                word = word[: -len(suffix)]
                removed = True
                break
        if removed:
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # steps 2 and 3: longest matching suffix decides the rule
    for table in (_STEP2, _STEP3):
        match = max((s for s, _ in table if word.endswith(s)), key=len, default=None)
        if match is not None:
            repl = dict(table)[match]
            word, _ = _replace_if(word, match, repl, 0)

    # step 4: strip the longest suffix when the stem measure exceeds 1
    match = max((s for s in _STEP4 if word.endswith(s)), key=len, default=None)
    if match is not None:
        stem = word[: -len(match)]
        if _measure(stem) > 1 and (match != "ion" or stem.endswith(("s", "t"))):
            word = stem

    # step 5a
    if word.endswith("e"):
        m = _measure(word[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1])):
            word = word[:-1]

    # step 5b
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word


# --- tokenization ---------------------------------------------------------------


@dataclass(frozen=True)
class TokenizationPolicy:
    lowercase: bool = True
    stemming: bool = True


def tokenize(text: str, policy: TokenizationPolicy = TokenizationPolicy()) -> list[str]:
    if policy.lowercase:
        text = text.lower()
    tokens = _TOKEN_RE.findall(text)
    if policy.stemming:
        tokens = [porter_stem(t) if len(t) > 3 else t for t in tokens]
    return tokens


def split_sentences(text: str) -> list[str]:
    """Newline boundaries when present, else sentence-final punctuation."""
    parts = text.split("\n") if "\n" in text else _SENT_FALLBACK_RE.split(text)
    return [p for p in (s.strip() for s in parts) if p]


# --- metrics ---------------------------------------------------------------------


def _prf(hits: int, cand_total: int, ref_total: int) -> tuple[float, float, float]:
    p = hits / cand_total if cand_total else 0.0
    r = hits / ref_total if ref_total else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def rouge_n(candidate: str, reference: str, n: int,
            policy: TokenizationPolicy = TokenizationPolicy()) -> tuple[float, float, float]:
    """Clipped n-gram overlap precision/recall/F1."""
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    return _ngram_prf(tokenize(candidate, policy), tokenize(reference, policy), n)


def _ngram_prf(c: list[str], r: list[str], n: int) -> tuple[float, float, float]:
    c_grams = Counter(tuple(c[i : i + n]) for i in range(len(c) - n + 1))
    r_grams = Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1))
    hits = sum(min(count, r_grams[g]) for g, count in c_grams.items())
    return _prf(hits, sum(c_grams.values()), sum(r_grams.values()))


def _lcs_length(a: list, b: list) -> int:
    """Two-row dynamic program; O(len(a) * len(b)) time, O(len(b)) space."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, reference: str,
            policy: TokenizationPolicy = TokenizationPolicy()) -> tuple[float, float, float]:
    """Longest-common-subsequence overlap over whole texts."""
    return _lcs_prf(tokenize(candidate, policy), tokenize(reference, policy))


def _lcs_prf(c: list[str], r: list[str]) -> tuple[float, float, float]:
    return _prf(_lcs_length(c, r), len(c), len(r))


def _lcs_table(a: list, b: list) -> list:
    t = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                t[i][j] = t[i - 1][j - 1] + 1
            else:
                t[i][j] = max(t[i - 1][j], t[i][j - 1])
    return t


def _lcs_indices(ref: list, can: list) -> list:
    """Indices in `ref` of one canonical LCS; ties in the walk move up."""
    t = _lcs_table(ref, can)
    i, j = len(ref), len(can)
    out = []
    while i > 0 and j > 0:
        if ref[i - 1] == can[j - 1]:
            out.append(i - 1)
            i -= 1
            j -= 1
        elif t[i][j - 1] > t[i - 1][j]:
            j -= 1
        else:
            i -= 1
    return out[::-1]


def _union_lcs_values(ref: list, can_sents: list) -> list:
    """Reference tokens hit by the LCS of any candidate sentence, in order."""
    union: set = set()
    for can in can_sents:
        union.update(_lcs_indices(ref, can))
    return [ref[i] for i in sorted(union)]


def _sentence_tokens(text: str, policy: TokenizationPolicy) -> list[list[str]]:
    """The tokens of each sentence of `text` that has any."""
    return [tokens for tokens in (tokenize(s, policy) for s in split_sentences(text)) if tokens]


def rouge_lsum(candidate: str, reference: str,
               policy: TokenizationPolicy = TokenizationPolicy()) -> tuple[float, float, float]:
    """Union-LCS over sentence splits, hits clipped by both token inventories."""
    return _lsum_prf(_sentence_tokens(candidate, policy), _sentence_tokens(reference, policy))


def _lsum_prf(can_sents: list[list[str]], ref_sents: list[list[str]]) -> tuple[float, float, float]:
    m = sum(len(s) for s in can_sents)
    n = sum(len(s) for s in ref_sents)
    if m == 0 or n == 0:
        return 0.0, 0.0, 0.0
    cnt_c = Counter(t for s in can_sents for t in s)
    cnt_r = Counter(t for s in ref_sents for t in s)
    hits = 0
    for ref in ref_sents:
        for token in _union_lcs_values(ref, can_sents):
            if cnt_c[token] > 0 and cnt_r[token] > 0:
                hits += 1
                cnt_c[token] -= 1
                cnt_r[token] -= 1
    return _prf(hits, m, n)


METRICS = ("rouge1", "rouge2", "rougeL", "rougeLsum")


def score_pair(candidate: str, reference: str,
               policy: TokenizationPolicy = TokenizationPolicy()) -> dict:
    """All four metrics as {metric: {precision, recall, f1}}.

    Each text is tokenized once, sentence by sentence. Its whole-text tokens,
    for rouge1, rouge2 and rougeL, are the sentences' tokens in order:
    sentences split only at whitespace, which no `[a-z0-9]+` token spans.
    """
    c_sents = _sentence_tokens(candidate, policy)
    r_sents = _sentence_tokens(reference, policy)
    c = [t for s in c_sents for t in s]
    r = [t for s in r_sents for t in s]
    values = {
        "rouge1": _ngram_prf(c, r, 1),
        "rouge2": _ngram_prf(c, r, 2),
        "rougeL": _lcs_prf(c, r),
        "rougeLsum": _lsum_prf(c_sents, r_sents),
    }
    return {
        name: {"precision": p, "recall": r, "f1": f} for name, (p, r, f) in values.items()
    }


def aggregate(scores: list) -> dict:
    """Arithmetic mean of per-pair scores, same shape as score_pair output."""
    if not scores:
        raise UsageError("aggregate needs at least one scored pair")
    out = {}
    for metric in METRICS:
        out[metric] = {
            field: sum(s[metric][field] for s in scores) / len(scores)
            for field in ("precision", "recall", "f1")
        }
    return out
