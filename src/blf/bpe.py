"""Byte-level byte-pair-encoding tokenizer: training, encode/decode, persistence.

Bytes map bijectively to printable surrogate characters, so every byte string
is representable and decode(encode(s)) == s for any text. Training greedily
merges the globally most frequent adjacent symbol pair (ties broken by
lexicographic pair order) until the vocabulary budget is reached or no pair
occurs twice.

A merge of (a, b) updates only the counts it changes (incremental pair counts
as in SentencePiece, Kudo & Richardson 2018). At each merge site of a word,
scanned left to right so that a run of a == b merges its 1st, 3rd, ... pair:
(a, b) loses one occurrence, (prev, a) becomes (prev, ab) and (b, next)
becomes (ab, next), where prev is the symbol left of the site after the sites
before it merged. Only pairs whose count changed are pushed onto the heap.
The merges are those of rebuilding every word that holds (a, b) and recounting
all its pairs: the counts are the same, every pair with a positive count keeps
a heap entry at its current count, and entries whose count is stale are
skipped, so each pop still takes the most frequent pair, ties broken by
lexicographic order.

Encoding applies the merges to each pretoken (word) in rank order (Sennrich
et al. 2016; tiktoken's `_byte_pair_merge`): while some adjacent pair has a
rank, merge every non-overlapping occurrence of the lowest-rank pair, left to
right. `encode_many` runs this rule for all uncached words of a group of texts
at once, in numpy, one round per step of the rule: each word's pairs sit in
one flat array, a round takes each word's minimum pair rank and merges at the
positions holding it, and a word with no ranked pair left is final. This is
exactly the per-word rule:
- a pair has one rank, so the positions holding a word's minimum rank are the
  occurrences of that word's lowest-rank pair (a, b) and nothing else;
- two occurrences overlap only when a == b, in a run of a's; merging the 1st,
  3rd, ... pair of each run of hits is what the left-to-right scan does;
- a merge changes only the pairs that hold the merged token, so only their
  ranks are looked up again;
- words share nothing, so running their rounds side by side changes none.
"""

from __future__ import annotations

import gc
import heapq
import json
import re
from collections import ChainMap, Counter, defaultdict
from itertools import chain, islice
from typing import Iterable

import numpy as np

from .data import read_jsonl, read_lines
from .errors import FormatError, RangeError, UsageError

SPECIAL_TOKENS = ("<s>", "</s>", "<pad>", "<unk>", "<mask>")
# Every vocabulary starts with the special tokens, so their ids are fixed here
# for the whole pipeline; checkpoints do not store them.
BOS_ID, EOS_ID, PAD_ID, UNK_ID, MASK_ID = range(len(SPECIAL_TOKENS))
SPECIAL_IDS = frozenset((BOS_ID, EOS_ID, PAD_ID, UNK_ID, MASK_ID))

# splits into letter runs, digit runs, punctuation runs, and whitespace, with
# a single leading space attached to the following run (byte-level BPE
# whitespace-prefix convention)
_PRETOKEN_RE = re.compile(r" ?[^\W\d_]+| ?\d+| ?(?:[^\s\w]|_)+|\s+(?!\S)|\s+")

# encode_many pretokenizes and merges this many texts at a time, so a large
# batch never holds all its pretoken lists at once
_ENCODE_GROUP = 100
_CACHE_CAP = 1_000_000  # pretokens kept in a model's encode cache


def byte_to_symbol_map() -> dict[int, str]:
    """Bijection from the 256 byte values to printable characters."""
    keep = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("\xa1"), ord("\xac") + 1))
        + list(range(ord("\xae"), ord("\xff") + 1))
    )
    mapping = {}
    shifted = 0
    for b in range(256):
        if b in keep:
            mapping[b] = chr(b)
        else:
            mapping[b] = chr(256 + shifted)
            shifted += 1
    return mapping


_BYTE_TO_SYM = byte_to_symbol_map()
_SYM_TO_BYTE = {s: b for b, s in _BYTE_TO_SYM.items()}


def pretokenize(text: str) -> list[str]:
    return _PRETOKEN_RE.findall(text)


def _word_symbols(pretoken: str) -> tuple[str, ...]:
    return tuple(_BYTE_TO_SYM[b] for b in pretoken.encode("utf-8"))


class ByteBpeModel:
    """Trained vocabulary: 5 special ids, 256 byte ids, then one id per merge output."""

    begin_id, end_id, pad_id, unk_id, mask_id = BOS_ID, EOS_ID, PAD_ID, UNK_ID, MASK_ID
    special_id_set = SPECIAL_IDS

    def __init__(self, merges: list[tuple[str, str]], special_tokens=SPECIAL_TOKENS):
        if not len(set(special_tokens)) == len(special_tokens) == len(SPECIAL_TOKENS):
            raise UsageError(f"need {len(SPECIAL_TOKENS)} distinct special tokens")
        self.special_tokens = tuple(special_tokens)
        self.merges = list(merges)
        self.id_to_token: list[str] = list(special_tokens)
        self.token_to_id: dict[str, int] = {}
        for b in range(256):
            sym = _BYTE_TO_SYM[b]
            self.token_to_id[sym] = len(self.id_to_token)
            self.id_to_token.append(sym)
        self.merge_ranks: dict[tuple[str, str], int] = {}
        for rank, (a, b) in enumerate(self.merges):
            if a not in self.token_to_id or b not in self.token_to_id:
                raise FormatError(f"merge {rank} references unknown symbol: {a!r} {b!r}")
            self.merge_ranks[(a, b)] = rank
            out = a + b
            if out not in self.token_to_id:
                self.token_to_id[out] = len(self.id_to_token)
                self.id_to_token.append(out)
        self._encode_cache: dict[str, tuple[int, ...]] = {}
        # the merge rank of each pair, keyed by left id · V + right id and
        # sorted for searchsorted; a sentinel key past every real one keeps
        # each slot in range, and rank `_no_merge` (one past the last) means
        # "no merge". `_rank_output` maps a rank to its merged id.
        n, ids = len(self.id_to_token), self.token_to_id
        self._no_merge = len(self.merges)
        key = np.array([ids[a] * n + ids[b] for a, b in self.merge_ranks] + [np.iinfo(np.int64).max])
        rank = np.array([*self.merge_ranks.values(), self._no_merge], dtype=np.int64)
        order = np.argsort(key)
        self._pair_key, self._pair_rank = key[order], rank[order]
        self._rank_output = np.zeros(self._no_merge + 1, dtype=np.int64)
        self._rank_output[rank[:-1]] = [ids[a + b] for a, b in self.merge_ranks]
        self._ids = list(range(n))  # one int object per id, shared by every cached tuple

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, text: str) -> list[int]:
        """Text -> ids. Never fails: unknown bytes fall back to byte tokens."""
        return self.encode_many([text])[0]

    def encode_many(self, texts: Iterable[str]) -> list[list[int]]:
        """Texts -> one id list per text, as `encode` gives them. The pretokens
        not yet cached merge in one batched pass per group of texts (see the
        module docstring)."""
        out: list[list[int]] = []
        cache = self._encode_cache
        texts = iter(texts)
        while group := [pretokenize(t) for t in islice(texts, _ENCODE_GROUP)]:
            fresh = sorted(set(chain.from_iterable(group)).difference(cache))
            merged = self._merge(fresh)
            room = max(_CACHE_CAP - len(cache), 0)
            cache.update(zip(fresh[:room], merged))
            ids_of = cache if len(fresh) <= room else ChainMap(dict(zip(fresh, merged)), cache)
            out.extend(list(chain.from_iterable(map(ids_of.__getitem__, pres))) for pres in group)
        return out

    def _merge(self, words: list[str]) -> list[tuple[int, ...]]:
        """The ids of each word, all words' merge rounds run together."""
        raw = [w.encode("utf-8") for w in words]
        lengths = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
        # one flat row of every word's byte ids; `word` says whose each position is
        tok = np.frombuffer(b"".join(raw), dtype=np.uint8).astype(np.int64) + len(SPECIAL_TOKENS)
        word = np.repeat(np.arange(len(raw)), lengths)
        rank = self._pair_ranks(tok, word, np.arange(tok.size))
        done_tok, done_word = [tok[:0]], [word[:0]]
        while tok.size:
            first = np.empty(tok.size, dtype=bool)
            first[0] = True
            np.not_equal(word[1:], word[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            best = np.minimum.reduceat(rank, starts)
            best[best == self._no_merge] = -1  # a word with no ranked pair left is final
            best = np.repeat(best, np.diff(starts, append=tok.size))
            keep = best >= 0
            done_tok.append(tok[~keep])
            done_word.append(word[~keep])
            at = np.flatnonzero(rank == best)
            # hits at adjacent positions overlap only as a run of one repeated
            # token: merge its 1st, 3rd, ... pair, as a left-to-right scan does
            run = np.diff(at) == 1
            if run.any():
                k = np.arange(at.size)
                at = at[(k - np.maximum.accumulate(np.where(np.append(False, run), 0, k))) % 2 == 0]
            tok[at] = self._rank_output[rank[at]]
            keep[at + 1] = False
            at = np.cumsum(keep)[at] - 1  # where the merged tokens land
            tok, word, rank = tok[keep], word[keep], rank[keep]
            near = np.concatenate((np.maximum(at - 1, 0), at))  # the pairs that hold a merged token
            rank[near] = self._pair_ranks(tok, word, near)
        tok, word = np.concatenate(done_tok), np.concatenate(done_word)
        ids = list(map(self._ids.__getitem__, tok[np.argsort(word, kind="stable")].tolist()))
        counts = np.bincount(word, minlength=len(raw))
        ends = np.cumsum(counts).tolist()
        return [tuple(ids[e - c:e]) for e, c in zip(ends, counts.tolist())]

    def _pair_ranks(self, tok: np.ndarray, word: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Merge rank of the pair (pos, pos + 1), `_no_merge` where there is
        none or the pair would cross a word's end."""
        nxt = np.minimum(pos + 1, tok.size - 1)
        key = tok[pos] * len(self.id_to_token) + tok[nxt]
        slot = np.searchsorted(self._pair_key, key)
        rank = self._pair_rank[slot]
        rank[(self._pair_key[slot] != key) | (word[nxt] != word[pos]) | (nxt == pos)] = self._no_merge
        return rank

    def decode(self, ids: Iterable[int]) -> str:
        """Exact inverse of encode; special ids render as their marker strings."""
        out: list[bytes] = []
        n = len(self.id_to_token)
        n_special = len(self.special_tokens)
        for i in ids:
            i = int(i)
            if i < 0 or i >= n:
                raise RangeError(f"token id {i} outside [0, {n})")
            tok = self.id_to_token[i]
            if i < n_special:
                out.append(tok.encode("utf-8"))
            else:
                out.append(bytes(_SYM_TO_BYTE[c] for c in tok))
        return b"".join(out).decode("utf-8", errors="replace")

    def save(self, vocab_path, merges_path) -> None:
        with open(vocab_path, "w", encoding="utf-8") as f:
            for i, tok in enumerate(self.id_to_token):
                row = {"id": i, "token": tok}
                if i < len(self.special_tokens):
                    row["special"] = True
                f.write(json.dumps(row, ensure_ascii=False) + "\n")
        with open(merges_path, "w", encoding="utf-8") as f:
            for a, b in self.merges:
                f.write(f"{a} {b}\n")


def load(vocab_path, merges_path) -> ByteBpeModel:
    """Rebuild a model from its two files, cross-checking them for consistency."""
    merges: list[tuple[str, str]] = []
    for lineno, line in read_lines(merges_path):
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError(f"{merges_path}:{lineno}: expected 'left right', got {line!r}")
        merges.append((parts[0], parts[1]))

    specials: list[str] = []
    rows: list[tuple[int, int, str]] = []  # (line number, id, token)
    for lineno, row in read_jsonl(vocab_path):
        i, tok = row.get("id"), row.get("token")
        if type(i) is not int or not isinstance(tok, str):  # a JSON boolean is no id
            raise FormatError(
                f"{vocab_path}:{lineno}: expected an integer 'id' and a string 'token', got {i!r} and {tok!r}"
            )
        rows.append((lineno, i, tok))
        if row.get("special"):
            specials.append(tok)

    if len(specials) != len(SPECIAL_TOKENS):
        raise FormatError(f"{vocab_path}: expected {len(SPECIAL_TOKENS)} special tokens, found {len(specials)}")
    try:
        model = ByteBpeModel(merges, special_tokens=tuple(specials))
    except FormatError as e:
        raise FormatError(f"{merges_path}: {e}") from e
    expected = {i: t for i, t in enumerate(model.id_to_token)}
    for lineno, i, tok in rows:
        if expected.get(i) != tok:
            raise FormatError(
                f"{vocab_path}:{lineno}: id {i} maps to {tok!r} but merges imply {expected.get(i)!r}"
            )
    if len(rows) != len(model.id_to_token):
        raise FormatError(f"{vocab_path}: {len(rows)} rows but merges imply {len(model.id_to_token)} tokens")
    return model


def train_tokenizer(corpus: Iterable[str], vocab_size: int = 64000) -> ByteBpeModel:
    """Greedy pair-merge training over a text stream.

    Stops at `vocab_size` total tokens or when no adjacent pair occurs twice.
    Cyclic gc is paused while it runs and then restored as it was: training
    allocates millions of small tuples and lists, none of them in a cycle,
    so gc passes over them would only cost time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _train_tokenizer(corpus, vocab_size)
    finally:
        if enabled:
            gc.enable()


def _train_tokenizer(corpus: Iterable[str], vocab_size: int) -> ByteBpeModel:
    base = 256 + len(SPECIAL_TOKENS)
    if vocab_size <= base:
        raise UsageError(f"vocab_size must exceed {base} (bytes + specials), got {vocab_size}")

    pretokens: Counter[str] = Counter()
    empty = True
    for text in corpus:
        if text:
            empty = False
        pretokens.update(pretokenize(text))
    if empty:
        raise UsageError("cannot train a tokenizer on an empty corpus")

    words = [list(_word_symbols(pre)) for pre in pretokens]
    freqs = list(pretokens.values())
    pair_counts: dict[tuple[str, str], int] = defaultdict(int)
    # every word that holds a pair, and maybe some that held it once
    pair_words: dict[tuple[str, str], set[int]] = defaultdict(set)
    for idx, w in enumerate(words):
        f = freqs[idx]
        for pair in zip(w, w[1:]):
            pair_counts[pair] += f
            pair_words[pair].add(idx)

    heap: list[tuple[int, tuple[str, str]]] = [(-c, p) for p, c in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    produced: set[str] = set()
    n_tokens = base

    while n_tokens < vocab_size and heap:
        neg, pair = heapq.heappop(heap)
        if pair_counts.get(pair, 0) != -neg:
            continue  # stale heap entry
        if -neg < 2:
            break
        a, b = pair
        ab = a + b
        merges.append(pair)
        if ab not in produced:
            produced.add(ab)
            n_tokens += 1

        delta: dict[tuple[str, str], int] = defaultdict(int)
        for idx in pair_words.pop(pair):
            w = words[idx]
            f = freqs[idx]
            # merge in place, left to right: the scan goes on after the merged
            # `ab`, so two sites never overlap (a run of a == b), and w[i - 1]
            # is already `ab` when the previous site ended just before i
            i = 0
            while i < len(w) - 1:
                if w[i] == a and w[i + 1] == b:
                    delta[pair] -= f
                    if i:  # (prev, a) -> (prev, ab)
                        prev = w[i - 1]
                        delta[prev, a] -= f
                        delta[prev, ab] += f
                        pair_words[prev, ab].add(idx)
                    if i + 2 < len(w):  # (b, next) -> (ab, next)
                        nxt = w[i + 2]
                        delta[b, nxt] -= f
                        delta[ab, nxt] += f
                        pair_words[ab, nxt].add(idx)
                    w[i : i + 2] = (ab,)
                i += 1
        for p, d in delta.items():
            if d:
                c = pair_counts[p] + d
                if c > 0:
                    pair_counts[p] = c
                    heapq.heappush(heap, (-c, p))
                else:
                    del pair_counts[p]

    return ByteBpeModel(merges)


def corpus_stats(model: ByteBpeModel, texts: Iterable[str]) -> dict:
    """Character and token totals plus mean characters per token."""
    chars = 0
    tokens = 0
    texts = iter(texts)
    while batch := list(islice(texts, _ENCODE_GROUP)):
        chars += sum(map(len, batch))
        tokens += sum(map(len, model.encode_many(batch)))
    return {
        "chars": chars,
        "tokens": tokens,
        "chars_per_token": chars / tokens if tokens else 0.0,
    }
