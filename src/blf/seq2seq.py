"""Encoder-decoder summarization: fine-tuning and beam-search generation.

The pretrained long-context encoder is paired with a randomly initialized
transformer decoder (causal self-attention plus cross-attention over the
encoder output, pre-norm blocks, output projection tied to the decoder input
embedding). Training is teacher-forced cross-entropy with early stopping on
validation loss; generation is length-normalized beam search with an n-gram
repetition ban.
"""

from __future__ import annotations

import errno
import json
import math
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .attention import dense_attention, dense_attention_forward
from .bpe import BOS_ID, EOS_ID, PAD_ID
from .checkpoint import (ENCODER_KIND, PRETRAIN_KIND, SEQ2SEQ_KIND, apply_arrays, load_checkpoint,
                         params_to_arrays, read_config, read_manifest, save_checkpoint)
from .data import jsonl_object, raw_lines, replacing
from .encoder import EncoderConfig, LongformerEncoder, Tower, block_spec, make_roles, merge_heads, split_heads
from .errors import ConfigError, FormatError, NumericError, RangeError, UsageError
from .optim import AdamW
from .rng import substream
from .tensor import (
    NEG_INF,
    Parameter,
    Tensor,
    _product,
    cross_entropy,
    gelu_forward,
    layer_norm_forward,
    linear_forward,
    matmul,
    no_grad,
    reshape,
    transpose,
)

# The `extra` keys, with their JSON types, that `Seq2SeqModel.load` reads.
SEQ2SEQ_EXTRAS = {"seed": int}


@dataclass(frozen=True)
class DecoderConfig:
    """Shape of the target-side transformer. hidden must equal the encoder's."""

    hidden: int
    layers: int = 6
    heads: int = 12
    intermediate: int = 3072
    max_target_positions: int = 1024

    def __post_init__(self):
        for name in ("hidden", "layers", "heads", "intermediate", "max_target_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


def decoder_for_encoder(enc: EncoderConfig, layers: int = 6, max_target_positions: int = 1024) -> DecoderConfig:
    """Default decoder shape: 6 layers, encoder widths, 4x feed-forward."""
    return DecoderConfig(
        hidden=enc.hidden,
        layers=layers,
        heads=enc.heads,
        intermediate=4 * enc.hidden,
        max_target_positions=max_target_positions,
    )


def decoder_block_spec(d: DecoderConfig) -> list[tuple]:
    """Causal self-attention, cross-attention over the encoder output, then the FFN."""
    projections = [(f"{b}.{p}",) * 2 for b in ("self", "cross") for p in ("q", "k", "v", "out")]
    return block_spec(d.hidden, d.intermediate, projections, norms=3)


def mha(h: Tensor, layer: dict, name: str, heads: int, source: Tensor, bias: np.ndarray | None) -> Tensor:
    """Queries of `h` through `name`.q attend over the keys and values of
    `source` through `name`.k and `name`.v (one `dense_attention` node, `bias`
    added to its scores); the heads merge through `name`.out."""
    q, k, v = (split_heads(x, layer, f"{name}.{p}", heads) for x, p in ((h, "q"), (source, "k"), (source, "v")))
    return merge_heads(dense_attention(q, k, v, bias), layer, f"{name}.out")


@dataclass(frozen=True)
class GenerationParams:
    num_beams: int = 4
    no_repeat_ngram_size: int = 3
    max_input_length: int = 1024
    max_target_length: int = 256
    length_penalty: float = 1.0

    def __post_init__(self):
        if self.num_beams < 1:
            raise ConfigError(f"num_beams must be >= 1, got {self.num_beams}")
        if self.no_repeat_ngram_size < 0:
            raise ConfigError("no_repeat_ngram_size must be >= 0 (0 disables the ban)")
        if self.max_input_length < 1 or self.max_target_length < 1:
            raise ConfigError("max_input_length and max_target_length must be >= 1")
        if not math.isfinite(self.length_penalty):
            raise ConfigError("length_penalty must be finite")


GENERATION_PROFILES = {
    "billsum-short": GenerationParams(max_input_length=1024, max_target_length=256),
    "billsum-long": GenerationParams(max_input_length=4096, max_target_length=1024),
    "pubmed": GenerationParams(max_input_length=4096, max_target_length=512),
}


@dataclass
class EarlyStopState:
    """Stops once `patience` consecutive epochs fail to improve the best loss."""

    patience: int = 3
    best_validation_loss: float = math.inf
    epochs_since_improvement: int = 0

    def update(self, validation_loss: float) -> bool:
        """Record one epoch's validation loss; True means stop now."""
        if validation_loss < self.best_validation_loss:
            self.best_validation_loss = validation_loss
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1
        return self.epochs_since_improvement >= self.patience


@dataclass
class FinetuneHyper:
    batch_size: int = 32
    lr: float = 7e-5
    patience: int = 3
    max_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:
            raise UsageError(f"lr must be finite and non-negative, got {self.lr}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise UsageError("batch_size, max_epochs and patience must be positive")


class Seq2SeqModel:
    """Long-context encoder + dense transformer decoder."""

    bos_id, eos_id, pad_id = BOS_ID, EOS_ID, PAD_ID

    def __init__(self, encoder_config: EncoderConfig, decoder_config: DecoderConfig, seed: int, dtype=np.float32):
        if decoder_config.hidden != encoder_config.hidden:
            raise ConfigError(
                f"decoder hidden {decoder_config.hidden} != encoder hidden {encoder_config.hidden}"
            )
        self.encoder_config = encoder_config
        self.decoder_config = decoder_config
        self.seed = seed
        self.dtype = dtype

        self.encoder = LongformerEncoder(encoder_config, substream(seed, "enc-init"), prefix="enc", dtype=dtype)

        d = decoder_config
        self.decoder = Tower(encoder_config.vocab_size, d.max_target_positions, d.hidden, decoder_block_spec(d),
                             d.layers, substream(seed, "dec-init"), "dec", dtype)
        self.dec_tok_emb = self.decoder.tok_emb  # the tied output projection

    def params(self) -> list[Parameter]:
        return self.encoder.params() + self.decoder.params()

    # --- forward -------------------------------------------------------------

    def encode(self, input_ids: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Run the encoder; the lead token gets global attention."""
        input_ids = np.asarray(input_ids)
        roles = make_roles(input_ids, pad_id=self.pad_id, first_token_global=True)
        memory = self.encoder.forward(input_ids, roles)
        return memory, input_ids == self.pad_id

    def decode(self, target_in: np.ndarray, memory: Tensor, memory_padding: np.ndarray) -> Tensor:
        """Logits [B, T, V] for each next-token position of `target_in`."""
        target_in = np.asarray(target_in)
        B, T = target_in.shape
        d = self.decoder_config
        if T > d.max_target_positions:
            raise RangeError(f"target length {T} exceeds max_target_positions {d.max_target_positions}")

        # built once per call in the model dtype, so no layer casts them again
        causal = np.triu(np.full((1, 1, T, T), NEG_INF, dtype=self.dtype), k=1)
        cross = np.where(memory_padding, NEG_INF, 0.0).astype(self.dtype)[:, None, None, :]

        def attentions(l, layer):
            return (lambda h: mha(h, layer, "self", d.heads, h, causal),
                    lambda h: mha(h, layer, "cross", d.heads, memory, cross))

        x = self.decoder.run(target_in, np.arange(T), attentions)
        return matmul(x, transpose(self.dec_tok_emb, (1, 0)))

    def loss_on_batch(self, input_seqs, target_seqs) -> tuple[Tensor, int]:
        """Teacher-forced mean CE over non-padding target tokens."""
        inp = pad_batch(input_seqs, self.pad_id)
        tgt = pad_batch(target_seqs, self.pad_id)
        dec_in = tgt[:, :-1]
        labels = np.where(tgt[:, 1:] == self.pad_id, -100, tgt[:, 1:])
        memory, mem_pad = self.encode(inp)
        logits = self.decode(dec_in, memory, mem_pad)
        B, T, V = logits.shape
        loss = cross_entropy(reshape(logits, (B * T, V)), labels.reshape(-1))
        return loss, int((labels != -100).sum())

    # --- persistence ---------------------------------------------------------

    def checkpoint(self, directory, extra: dict | None = None) -> None:
        payload = {**(extra or {}), "kind": SEQ2SEQ_KIND, "seed": self.seed}
        config = {"encoder": asdict(self.encoder_config), "decoder": asdict(self.decoder_config)}
        save_checkpoint(directory, params_to_arrays(self.params()), config, payload)

    @classmethod
    def load(cls, directory) -> "Seq2SeqModel":
        config, arrays, extra = load_checkpoint(directory, {SEQ2SEQ_KIND: SEQ2SEQ_EXTRAS})
        model = cls(read_config(EncoderConfig, config.get("encoder"), f"{directory}: config.encoder"),
                    read_config(DecoderConfig, config.get("decoder"), f"{directory}: config.decoder"), extra["seed"])
        apply_arrays(model.params(), arrays)
        return model


def read_encoder_config(directory) -> tuple[EncoderConfig, str]:
    """Config of an exported encoder or of a pretraining checkpoint's
    discriminator, and the name prefix of that tower's arrays. Reads only the
    manifest; any other checkpoint kind is a usage error."""
    manifest = read_manifest(directory, {ENCODER_KIND: {}, PRETRAIN_KIND: {}})
    tower = "enc." if manifest["extra"]["kind"] == ENCODER_KIND else "disc."
    return read_config(EncoderConfig, manifest["config"], f"{directory}: config"), tower


def build_seq2seq(encoder_checkpoint, decoder_config: DecoderConfig, seed: int) -> Seq2SeqModel:
    """Pretrained encoder + freshly initialized decoder.

    Accepts an exported encoder checkpoint or a full pretraining checkpoint
    (the discriminator tower is taken). Decoder and cross-attention weights
    are drawn from `seed`.
    """
    enc_cfg, tower = read_encoder_config(encoder_checkpoint)
    model = Seq2SeqModel(enc_cfg, decoder_config, seed)  # refuses a hidden-width mismatch
    _, arrays, _ = load_checkpoint(encoder_checkpoint)
    enc_arrays = {"enc." + k[len(tower):]: v for k, v in arrays.items() if k.startswith(tower)}
    apply_arrays(model.encoder.params(), enc_arrays)
    return model


# --- data plumbing -----------------------------------------------------------


def pad_batch(seqs, pad_id: int) -> np.ndarray:
    longest = max(len(s) for s in seqs)
    out = np.full((len(seqs), longest), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


def encode_clipped(tokenizer, text: str, max_length: int, bos_id: int, eos_id: int) -> np.ndarray:
    """<s> body </s>, body truncated so the total stays within max_length."""
    body = tokenizer.encode(text)[: max(max_length - 2, 0)]
    return np.asarray([bos_id] + list(body) + [eos_id], dtype=np.int64)


def prepare_pairs(records, tokenizer, max_input_length: int, max_target_length: int):
    """JSONL-style records -> [(input_ids, target_ids)]. A text or summary that
    is empty or not a string is an error."""
    pairs = []
    for i, rec in enumerate(records):
        text = rec.get("text")
        summary = rec.get("summary")
        if not (isinstance(text, str) and text and isinstance(summary, str) and summary):
            rid = rec.get("id", f"line-{i + 1}")
            raise UsageError(f"record {rid}: finetuning needs non-empty string text and summary")
        pairs.append((encode_clipped(tokenizer, text, max_input_length, BOS_ID, EOS_ID),
                      encode_clipped(tokenizer, summary, max_target_length, BOS_ID, EOS_ID)))
    return pairs


@no_grad()
def validation_loss(model: Seq2SeqModel, pairs, batch_size: int) -> float:
    """Token-weighted mean CE over the whole pair list."""
    total, count = 0.0, 0
    for start in range(0, len(pairs), batch_size):
        batch = pairs[start : start + batch_size]
        loss, n = model.loss_on_batch([p[0] for p in batch], [p[1] for p in batch])
        total += loss.item() * n
        count += n
    return total / max(count, 1)


def finetune(model: Seq2SeqModel, train_pairs, val_pairs, hyper: FinetuneHyper,
             checkpoint_dir=None) -> dict:
    """Epoch loop with early stopping; leaves `model` holding the best weights.

    lr 0 runs the schedule without touching any parameter (evaluation-only
    epochs, under `no_grad()`), since the optimizer itself requires a positive
    rate. A non-finite gradient stops the run with NumericError before that
    batch's update (`AdamW.step` refuses it).
    """
    if not train_pairs or not val_pairs:
        raise UsageError("finetuning needs non-empty train and validation sets")
    opt = AdamW(model.params(), base_lr=hyper.lr) if hyper.lr > 0 else None
    stopper = EarlyStopState(patience=hyper.patience)
    order_rng = substream(hyper.seed, "finetune-order")
    best = {p.name: p.data.copy() for p in model.params()}
    best_epoch = 0
    history = []
    stopped_early = False

    for epoch in range(1, hyper.max_epochs + 1):
        order = order_rng.permutation(len(train_pairs))
        train_total, train_count = 0.0, 0
        for start in range(0, len(order), hyper.batch_size):
            rows = order[start : start + hyper.batch_size]
            batch = [train_pairs[r] for r in rows]
            with no_grad() if opt is None else nullcontext():
                loss, n = model.loss_on_batch([p[0] for p in batch], [p[1] for p in batch])
            train_total += loss.item() * n
            train_count += n
            if opt is not None:
                loss.backward()
                opt.step()
        val = validation_loss(model, val_pairs, hyper.batch_size)
        stop = stopper.update(val)
        improved = stopper.epochs_since_improvement == 0
        if improved:
            best = {p.name: p.data.copy() for p in model.params()}
            best_epoch = epoch
        history.append(
            {
                "epoch": epoch,
                "train_loss": train_total / max(train_count, 1),
                "validation_loss": val,
                "improved": improved,
            }
        )
        if stop:
            stopped_early = True
            break

    apply_arrays(model.params(), best)
    result = {
        "best_epoch": best_epoch,
        "best_validation_loss": stopper.best_validation_loss,
        "epochs_run": len(history),
        "stopped_early": stopped_early,
        "history": history,
    }
    if checkpoint_dir is not None:
        model.checkpoint(
            checkpoint_dir,
            extra={"best_epoch": best_epoch, "best_validation_loss": stopper.best_validation_loss},
        )
    return result


# --- generation ----------------------------------------------------------------


def banned_next_tokens(seq, n: int) -> set:
    """Tokens that would complete an n-gram already present in `seq` (a tuple
    or list of ids): the token after each earlier place where the last n - 1
    tokens occur. Only the places holding the last token are compared (found
    by `index`)."""
    if n <= 0 or len(seq) < n:
        return set()
    if n == 1:
        return set(seq)
    last = len(seq) - 1
    prefix = seq[last - n + 2 :]
    banned = set()
    i = n - 2  # an (n - 1)-gram that ends at i has a follower at i + 1 < len(seq)
    while True:
        try:
            i = seq.index(seq[last], i, last)
        except ValueError:
            return banned
        if seq[i - n + 2 : i + 1] == prefix:
            banned.add(seq[i + 1])
        i += 1


def log_probs(logits: np.ndarray) -> np.ndarray:
    """Float64 log-softmax of each row of `logits` [k, V]."""
    z = logits.astype(np.float64)
    z -= z.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def next_candidates(logits: np.ndarray, live, params: GenerationParams) -> list[tuple[tuple, float, int]]:
    """The best one-token extensions of the `live` (seq, score) beams, as
    (seq, score, parent row), best first; at most `num_beams` of them.

    A candidate's score is its beam's score plus the token's log-probability
    under `logits[beam]`; a token the repetition ban forbids scores -inf and is
    never a candidate. Candidates rank by score, then by sequence, so an exact
    tie goes to the lower token id. One partition over all k * V scores keeps
    the `num_beams` best and every score tied with the last of them.
    """
    logp = log_probs(logits)
    for b, (seq, _) in enumerate(live):
        banned = banned_next_tokens(seq, params.no_repeat_ngram_size)
        if banned:
            logp[b, list(banned)] = -np.inf
    logp += np.array([score for _, score in live])[:, None]
    flat = logp.reshape(-1)
    cut = max(flat.size - params.num_beams, 0)
    keep = np.flatnonzero(flat >= np.partition(flat, cut)[cut])
    keep = keep[np.isfinite(flat[keep])]
    rows, tokens = np.divmod(keep, logp.shape[1])
    candidates = [(live[b][0] + (tok,), float(flat[i]), b)
                  for i, b, tok in zip(keep, rows.tolist(), tokens.tolist())]
    candidates.sort(key=lambda c: (-c[1], c[0]))
    return candidates[: params.num_beams]


class IncrementalDecoder:
    """Decodes one target position per step for a set of beams over one record.

    A step computes the decoder from the parameters' arrays and builds no
    graph. Set up once per record, per layer: the cross-attention K^T and V
    over the record's encoder output, heads first and shared by every beam.
    The cache holds, per layer, the self-attention K/V of the positions
    decoded so far, one row per beam; each step re-indexes it by the beams'
    parents and appends the newest position.

    Every gemm has the two-row shape of `blf.tensor`'s one-row rule: one row
    runs stacked twice (`_product`), and cross-attention, whose K/V every beam
    shares, runs the beams' query rows two at a time per head (an odd last
    row doubled). The dense layers, norms and GELU are the array forwards of
    `blf.tensor`, and attention is `attention.dense_attention_forward`, the
    forward of `decode`'s attention node. So the logits are those of the
    same step run as graph ops, bit for bit; they equal `decode`'s for each
    beam's full prefix up to rounding, and exactly at position 0.
    """

    def __init__(self, model: Seq2SeqModel, memory: Tensor, memory_padding: np.ndarray):
        d = model.decoder_config
        tower = model.decoder
        self.heads = d.heads
        self.tok_emb, self.pos_emb = tower.tok_emb.data, tower.pos_emb.data
        self.ln_f = tower.ln_f_g.data, tower.ln_f_b.data
        self.out_w = np.ascontiguousarray(self.tok_emb.T)  # the tied output projection
        dtype = self.tok_emb.dtype
        self.cross_bias = np.where(memory_padding[0], NEG_INF, 0.0).astype(dtype)
        mem = memory.data[0]
        self.layers = []
        for layer in tower.layers:
            def pair(a, b):
                return layer[a].data, layer[b].data

            w = {name: pair(f"{name}.w", f"{name}.b")
                 for name in ("self.q", "self.k", "self.v", "self.out", "cross.q", "cross.out")}
            w |= {f"ffn{i}": pair(f"ffn.w{i}", f"ffn.b{i}") for i in (1, 2)}
            w |= {f"ln{i}": pair(f"ln{i}.g", f"ln{i}.b") for i in (1, 2, 3)}
            k, v = (linear_forward(mem, *pair(f"cross.{p}.w", f"cross.{p}.b")).reshape(-1, d.heads, d.head_dim)
                    for p in "kv")
            w["cross.k_t"] = np.ascontiguousarray(k.transpose(1, 2, 0))[:, None]  # [heads, 1, D, S]
            w["cross.v"] = np.ascontiguousarray(v.transpose(1, 0, 2))[:, None]  # [heads, 1, S, D]
            self.layers.append(w)
        # per layer: K^T [beams, heads, head_dim, t] and V [beams, heads, t, head_dim]
        empty = np.zeros((1, d.heads, d.head_dim, 0), dtype=dtype)
        self.self_kv = [(empty, empty.swapaxes(-1, -2))] * d.layers
        self.position = 0

    def step(self, tokens, parents) -> np.ndarray:
        """Logits [k, V] for the next token after each beam's newest token.

        `tokens[i]` extends the beam that was row `parents[i]` at the previous
        step; before the first step there is one row, the empty prefix. A
        token id outside the vocabulary, or a step past the decoder's
        `max_target_positions`, is a RangeError.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        V, positions = len(self.tok_emb), len(self.pos_emb)
        if tokens.size and (tokens.min() < 0 or tokens.max() >= V):
            raise RangeError(f"token ids outside [0, {V}): min {tokens.min()}, max {tokens.max()}")
        if self.position >= positions:
            raise RangeError(f"target position {self.position} is past max_target_positions {positions}")
        k, heads = len(tokens), self.heads
        x = self.tok_emb[tokens] + self.pos_emb[self.position]
        H = x.shape[-1]
        D = H // heads
        cache = []
        for w, (past_k_t, past_v) in zip(self.layers, self.self_kv):
            h = layer_norm_forward(x, *w["ln1"])[0]
            q, key, value = (linear_forward(h, *w[f"self.{p}"]).reshape(k, heads, 1, D) for p in "qkv")
            k_t = np.concatenate((past_k_t[parents], key.swapaxes(-1, -2)), axis=-1)
            v = np.concatenate((past_v[parents], value), axis=-2)
            cache.append((k_t, v))
            x += linear_forward(dense_attention_forward(q, k_t, v, None)[0].reshape(k, H), *w["self.out"])

            q = linear_forward(layer_norm_forward(x, *w["ln2"])[0], *w["cross.q"])
            if k % 2:
                q = np.concatenate((q, q[-1:]))
            pairs = q.reshape(-1, 2, heads, D).transpose(2, 0, 1, 3)  # [heads, rows / 2, 2, D]
            mixed = dense_attention_forward(pairs, w["cross.k_t"], w["cross.v"], self.cross_bias)[0]
            x += linear_forward(mixed.transpose(1, 2, 0, 3).reshape(-1, H)[:k], *w["cross.out"])

            h = gelu_forward(linear_forward(layer_norm_forward(x, *w["ln3"])[0], *w["ffn1"]))
            x += linear_forward(h, *w["ffn2"])
        self.self_kv = cache
        self.position += 1
        return _product(layer_norm_forward(x, *self.ln_f)[0], self.out_w)


@no_grad()
def beam_search_generate(model: Seq2SeqModel, input_ids, params: GenerationParams,
                         return_score: bool = False):
    """Best generated token sequence (without start/end markers).

    Scores are summed token log-probabilities divided by length**penalty; a
    token scoring -inf under the repetition ban never extends a beam. Each
    step keeps the `num_beams` best extensions of all live beams
    (`next_candidates`). Beams that emit the end token retire; search runs
    until all beams retire or the length cap is reached. Logits that are not
    all finite raise NumericError.
    """
    cap = model.decoder_config.max_target_positions
    if params.max_target_length > cap:
        raise RangeError(f"max_target_length {params.max_target_length} exceeds the decoder's "
                         f"max_target_positions {cap}")
    input_ids = np.asarray(input_ids, dtype=np.int64)[: params.max_input_length]
    memory, mem_pad = model.encode(input_ids[None, :])
    decoder = IncrementalDecoder(model, memory, mem_pad)

    def norm(score: float, length: int) -> float:
        return score / (length ** params.length_penalty)

    live = [((model.bos_id,), 0.0)]
    parents = [0]
    done: list[tuple[tuple, float]] = []
    for _ in range(params.max_target_length):
        logits = decoder.step([seq[-1] for seq, _ in live], np.asarray(parents))
        if not np.isfinite(logits).all():
            raise NumericError("decoder logits are not finite")
        candidates = next_candidates(logits, live, params)
        if not candidates:
            break
        live, parents = [], []
        for seq, score, b in candidates:
            if seq[-1] == model.eos_id:
                done.append((seq, norm(score, len(seq) - 1)))
            else:
                live.append((seq, score))
                parents.append(b)
        if not live:
            break
    for seq, score in live:
        done.append((seq, norm(score, len(seq) - 1)))

    best_seq, best_score = max(done, key=lambda c: (c[1], c[0]))
    out = list(best_seq[1:])
    if out and out[-1] == model.eos_id:
        out = out[:-1]
    return (out, best_score) if return_score else out


def check_lengths(encoder_config: EncoderConfig, decoder_config: DecoderConfig,
                  max_input_length: int, max_target_length: int) -> None:
    """ConfigError unless the encoder takes `max_input_length` positions and
    the decoder `max_target_length`, so a run refuses them before any record."""
    cap = decoder_config.max_target_positions
    if max_target_length > cap:
        raise ConfigError(f"max_target_length {max_target_length} exceeds the model's max_target_positions {cap}")
    if max_input_length > encoder_config.max_positions:
        raise ConfigError(f"max_input_length {max_input_length} exceeds the encoder's "
                          f"max_positions {encoder_config.max_positions}")


def summarize_file(model: Seq2SeqModel, tokenizer, params: GenerationParams,
                   input_path, output_path) -> dict:
    """One output record per input record, order preserved.

    Lengths the model cannot run are a ConfigError before any file is opened
    (`check_lengths`). A record whose data is bad (a line `jsonl_object`
    refuses, no text, ids outside the model's range) produces an error entry
    and the run continues; any other exception is a program fault and
    propagates. The records go to a temporary sibling that replaces
    `output_path` only once all are written (`data.replacing`), so a run that
    stops leaves an earlier file at that path as it was. Records are
    independent, so this loop parallelizes per record.
    """
    check_lengths(model.encoder_config, model.decoder_config, params.max_input_length, params.max_target_length)
    written = errors = 0
    lines = raw_lines(input_path)  # opened first, so a missing input leaves no output file
    output_path = Path(output_path)
    if output_path.is_dir():  # os.replace would refuse it only after every record
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(output_path))
    with replacing(output_path) as dst:
        for lineno, offset, raw in lines:
            rid = f"line-{lineno}"
            try:
                rec = jsonl_object(raw, input_path, lineno, offset)
                if rec is None:
                    continue
                if isinstance(rec.get("id"), str) and rec["id"]:
                    rid = rec["id"]
                text = rec.get("text")
                if not isinstance(text, str) or not text:
                    raise FormatError("record has no text")
                ids = encode_clipped(tokenizer, text, params.max_input_length, model.bos_id, model.eos_id)
                out_ids = beam_search_generate(model, ids, params)
                entry = {
                    "id": rid,
                    "summary": tokenizer.decode(out_ids),
                    "token_count": len(out_ids),
                }
                written += 1
            except (FormatError, RangeError) as exc:
                entry = {"id": rid, "error": f"{type(exc).__name__}: {exc}"}
                errors += 1
            dst.write(json.dumps(entry, ensure_ascii=False) + "\n")
    return {"written": written, "errors": errors}
