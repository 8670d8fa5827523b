"""Seeded input generators, one per workload.

Each generator writes the files its workload reads into one directory. The
same seed gives byte-identical files. Generation runs before the workload
process starts, so none of it counts toward any metric.

Usage: python3 perfbench/gen.py --workload corpus --seed 1 --out /tmp/corpus-1
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Workload shapes. The worker reads the same constants, so the two cannot drift.
TINY = dict(vocab=512, L=128, batch=16, corpus_chars=150_000)
SUMMARIZE = dict(records=40, words_per_record=900, vocab=2000, tokenizer_texts=12, hidden=64,
                 enc_layers=2, dec_layers=2, heads=4, intermediate=256, window=64, max_input_length=1024,
                 max_target_length=48, max_target_positions=64, num_beams=4, no_repeat_ngram_size=3)
CORPUS = dict(train_chars=200_000, docs_chars=3_000_000, vocab=8000, L=512, pairs=300,
              warm_docs=30, warm_pairs=10)
LEXICON = dict(words=30_000, zipf=1.1, seed=20221130)

# the acceptance fixture's templated corpus (tests/test_acceptance.py)
ADJ = ["quick", "silent", "bright", "heavy", "clever", "rusty", "pale", "warm", "sharp", "round"]
NOUN = ["fox", "engine", "harbor", "lantern", "meadow", "signal", "copper", "valley", "ribbon",
        "anchor", "marble", "thunder", "willow", "basket", "needle", "canyon", "feather",
        "garden", "hammer", "island"]
VERB = ["guards", "follows", "lifts", "circles", "measures", "paints", "carries", "crosses",
        "watches", "holds"]

# pseudo-words built from syllables plus English suffixes, so the BPE merges
# and the Porter stemmer see word shapes like real text
_ONSETS = ["", "b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "l", "m", "n",
           "p", "pl", "r", "s", "sh", "st", "t", "tr", "v", "w", "z"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "y"]
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ck"]
_SUFFIXES = ["", "", "", "", "s", "ed", "ing", "er", "ly", "ness", "ation", "ment", "ful",
             "ive", "able", "ize", "ical"]


def _import_blf():
    src = ROOT / "src"
    if not (src / "blf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no blf sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def template_sentence(rng: random.Random) -> str:
    a1, a2 = rng.sample(ADJ, 2)
    n1, n2 = rng.sample(NOUN, 2)
    return f"the {a1} {n1} {rng.choice(VERB)} the {a2} {n2} ."


def template_docs(seed: int, target_chars: int) -> list[str]:
    rng = random.Random(seed)
    docs, total = [], 0
    while total < target_chars:
        text = " ".join(template_sentence(rng) for _ in range(rng.randint(6, 12)))
        docs.append(text)
        total += len(text) + 1
    return docs


class ZipfText:
    """Pseudo-word text whose word frequencies follow a Zipf law over a fixed lexicon.

    The lexicon is the same for every seed, so seeds change the text but not
    its statistics (word shapes, type/token ratio), which keeps run-to-run
    timing differences down to the machine rather than the data.
    """

    def __init__(self, seed: int, words: int = LEXICON["words"], exponent: float = LEXICON["zipf"]):
        import numpy as np

        self.rng = np.random.default_rng(seed)
        pick = np.random.default_rng(LEXICON["seed"]).integers
        lexicon: dict[str, None] = {}
        while len(lexicon) < words:
            n = 2 * words
            syllables = pick(1, 4, n)
            onset = pick(len(_ONSETS), size=(n, 3))
            vowel = pick(len(_VOWELS), size=(n, 3))
            coda = pick(len(_CODAS), size=(n, 3))
            suffix = pick(len(_SUFFIXES), size=n)
            for i in range(n):
                word = "".join(_ONSETS[onset[i, j]] + _VOWELS[vowel[i, j]] + _CODAS[coda[i, j]]
                               for j in range(syllables[i]))
                lexicon[word + _SUFFIXES[suffix[i]]] = None
        self.lexicon = list(lexicon)[:words]
        weights = 1.0 / np.arange(1, words + 1) ** exponent
        self.cdf = np.cumsum(weights / weights.sum())

    def words(self, n: int) -> list[str]:
        ranks = self.cdf.searchsorted(self.rng.random(n), side="right")
        return [self.lexicon[min(r, len(self.lexicon) - 1)] for r in ranks]

    def sentence(self) -> str:
        return " ".join(self.words(int(self.rng.integers(6, 19)))) + "."

    def doc(self) -> str:
        return " ".join(self.sentence() for _ in range(int(self.rng.integers(3, 16))))

    def docs(self, target_chars: int) -> list[str]:
        out, total = [], 0
        while total < target_chars:
            out.append(self.doc())
            total += len(out[-1]) + 1
        return out


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def _chunk_file(docs: list[str], vocab: int, L: int, out: Path) -> None:
    from blf import bpe, data

    tokenizer = bpe.train_tokenizer(docs, vocab_size=vocab)
    records = (data.DocumentRecord(id=str(i), subset="train", text=t) for i, t in enumerate(docs))
    data.write_chunks(out / "chunks.bin", data.concat_and_chunk(records, tokenizer, L=L))


def gen_pretrain_tiny(seed: int, out: Path) -> None:
    _chunk_file(template_docs(seed, TINY["corpus_chars"]), TINY["vocab"], TINY["L"], out)


def gen_summarize(seed: int, out: Path) -> None:
    """Records of ~1500 tokens (clipped to 1024), a tokenizer, and a random-weight model."""
    from blf import bpe
    from blf.encoder import EncoderConfig
    from blf.seq2seq import DecoderConfig, Seq2SeqModel

    s = SUMMARIZE
    text = ZipfText(seed)
    texts = [" ".join(text.words(s["words_per_record"])) for _ in range(s["records"] + 1)]
    tokenizer = bpe.train_tokenizer(texts[: s["tokenizer_texts"]], vocab_size=s["vocab"])
    (out / "tokenizer").mkdir()
    tokenizer.save(out / "tokenizer" / "vocab.jsonl", out / "tokenizer" / "merges.txt")
    _write_jsonl(out / "warmup.jsonl", [{"id": "warmup", "text": texts[0]}])
    (out / "records").mkdir()
    for i, t in enumerate(texts[1:]):
        _write_jsonl(out / "records" / f"rec_{i:03d}.jsonl", [{"id": f"rec-{i}", "text": t}])

    enc = EncoderConfig(vocab_size=len(tokenizer), hidden=s["hidden"], layers=s["enc_layers"],
                        heads=s["heads"], intermediate=s["intermediate"], window=s["window"],
                        max_positions=s["max_input_length"])
    dec = DecoderConfig(hidden=s["hidden"], layers=s["dec_layers"], heads=s["heads"],
                        intermediate=s["intermediate"], max_target_positions=s["max_target_positions"])
    model = Seq2SeqModel(enc, dec, seed=seed)
    # A zero end-token row scores 0 against every decoder state, far below the
    # top few of the other random logits, so no beam ever ends early and every
    # record decodes exactly max_target_length tokens.
    model.dec_tok_emb.data[model.eos_id] = 0.0
    model.checkpoint(out / "model")


def _summary(text: ZipfText, reference: list[str]) -> list[str]:
    """Three sentences; some are near-copies of reference sentences so overlap is partial."""
    out = []
    for sent in reference:
        if text.rng.random() < 0.5:
            words = sent.rstrip(".").split(" ")
            keep = [w for w in words if text.rng.random() < 0.7] or words[:1]
            out.append(" ".join(keep) + ".")
        else:
            out.append(text.sentence())
    return out


def gen_corpus(seed: int, out: Path) -> None:
    c = CORPUS
    text = ZipfText(seed)
    docs = [{"id": f"doc-{i}", "text": d} for i, d in enumerate(text.docs(c["docs_chars"]))]
    _write_jsonl(out / "docs.jsonl", docs)
    # the tokenizer trains on a prefix, so prepare-data also meets unseen words
    chars = 0
    train = [d for d in docs if (chars := chars + len(d["text"]) + 1) <= c["train_chars"]]
    _write_jsonl(out / "train.jsonl", train)
    warm = [{"id": f"warm-{i}", "text": text.doc()} for i in range(c["warm_docs"])]
    _write_jsonl(out / "warm_docs.jsonl", warm)
    _write_jsonl(out / "warm_train.jsonl", warm)
    for prefix, n in (("", c["pairs"]), ("warm_", c["warm_pairs"])):
        refs, preds = [], []
        for i in range(n):
            ref = [text.sentence() for _ in range(3)]
            refs.append({"id": f"pair-{i}", "summary": "\n".join(ref)})
            preds.append({"id": f"pair-{i}", "summary": "\n".join(_summary(text, ref))})
        _write_jsonl(out / f"{prefix}refs.jsonl", refs)
        _write_jsonl(out / f"{prefix}preds.jsonl", preds)


GENERATORS = {
    "pretrain-tiny": gen_pretrain_tiny,
    "summarize-1k": gen_summarize,
    "corpus": gen_corpus,
}


def generate(workload: str, seed: int, out) -> Path:
    """Write the inputs of `workload` for `seed` into the empty or missing directory `out`."""
    _import_blf()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=False)
    GENERATORS[workload](seed, out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to create; must not exist")
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
