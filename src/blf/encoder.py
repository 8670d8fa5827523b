"""Long-context transformer encoder built on sliding-window attention.

Pre-norm residual blocks, learned absolute position embeddings, separate
global q/k/v projections per layer. Presets `small` and `base` reproduce the
published parameter totals at a 64K vocabulary; `tiny` exists for fast desk
runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .attention import GLOBAL, LOCAL, PAD, sliding_window_attention
from .checkpoint import ENCODER_KIND, save_checkpoint
from .errors import ConfigError, RangeError
from .tensor import (
    Parameter,
    Tensor,
    add,
    dropout,
    embedding,
    gelu,
    layer_norm,
    linear,
    reshape,
    transpose,
)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int = 64000
    hidden: int = 256
    layers: int = 12
    heads: int = 4
    intermediate: int = 1024
    window: int = 256
    max_positions: int = 4096
    dropout: float = 0.0

    def __post_init__(self):
        if self.hidden <= 0 or self.heads <= 0 or self.intermediate <= 0 or self.vocab_size <= 0:
            raise ConfigError("all extents must be positive")
        if self.layers < 0:
            raise ConfigError("layers must be non-negative")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.window % 2 != 0 or self.window <= 0:
            raise ConfigError(f"window must be even and positive, got {self.window}")
        if self.window > self.max_positions:
            raise ConfigError(f"window {self.window} exceeds max_positions {self.max_positions}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


_PRESETS = {
    "small": dict(hidden=256, layers=12, heads=4, intermediate=1024),
    "base": dict(hidden=768, layers=12, heads=12, intermediate=3072),
    "tiny": dict(
        vocab_size=512, hidden=64, layers=2, heads=4, intermediate=256, window=8, max_positions=128
    ),
}


def preset(name: str, **overrides) -> EncoderConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    kwargs = dict(_PRESETS[name])
    kwargs.update(overrides)
    return EncoderConfig(**kwargs)


def count_parameters(config: EncoderConfig) -> int:
    """Exact trainable-scalar count, read off the specs that build the encoder."""
    spec = (embedding_spec(config.vocab_size, config.max_positions, config.hidden)
            + config.layers * encoder_block_spec(config) + norm_spec("ln_f", config.hidden))
    return sum(math.prod(shape) for _, _, shape, _ in spec)


def make_roles(ids: np.ndarray, pad_id: int | None, first_token_global: bool = False) -> np.ndarray:
    """Role matrix from token ids: padding / local / (optionally) leading global."""
    roles = np.full(ids.shape, LOCAL, dtype=np.int64)
    if pad_id is not None:
        roles[ids == pad_id] = PAD
    if first_token_global:
        nonpad_first = roles[:, 0] != PAD
        roles[nonpad_first, 0] = GLOBAL
    return roles


def _init_weight(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    return rng.normal(0.0, 0.02, size=shape).astype(dtype)


def _zeros(rng, shape, dtype) -> np.ndarray:
    return np.zeros(shape, dtype)


def _ones(rng, shape, dtype) -> np.ndarray:
    return np.ones(shape, dtype)


# A spec is a list of (dict key, parameter-name suffix, shape, init) rows in
# draw order; it fixes the parameter names, the params() order and which rng
# draws go to which array.


def embedding_spec(vocab: int, positions: int, hidden: int) -> list[tuple]:
    return [("tok_emb", "tok_emb", (vocab, hidden), _init_weight),
            ("pos_emb", "pos_emb", (positions, hidden), _init_weight)]


def norm_spec(name: str, hidden: int) -> list[tuple]:
    return [(f"{name}.g", f"{name}.g", (hidden,), _ones), (f"{name}.b", f"{name}.b", (hidden,), _zeros)]


def block_spec(hidden: int, intermediate: int, projections, norms: int) -> list[tuple]:
    """One pre-norm block: the [H, H] attention projections, given as (key,
    name) pairs, then norms ln1..ln{norms}, then the FFN."""
    H, I = hidden, intermediate
    spec = []
    for key, name in projections:
        spec += [(f"{key}.w", f"{name}.w", (H, H), _init_weight), (f"{key}.b", f"{name}.b", (H,), _zeros)]
    for n in range(1, norms + 1):
        spec += norm_spec(f"ln{n}", H)
    return spec + [
        ("ffn.w1", "ffn.w1", (H, I), _init_weight), ("ffn.b1", "ffn.b1", (I,), _zeros),
        ("ffn.w2", "ffn.w2", (I, H), _init_weight), ("ffn.b2", "ffn.b2", (H,), _zeros),
    ]


def encoder_block_spec(config: EncoderConfig) -> list[tuple]:
    """Local q/k/v, global q/k/v and the output projection, under `attn.`."""
    projections = [(p, f"attn.{p}") for p in ("q", "k", "v", "gq", "gk", "gv", "out")]
    return block_spec(config.hidden, config.intermediate, projections, norms=2)


def build_params(spec, rng: np.random.Generator, prefix: str, dtype) -> dict[str, Parameter]:
    return {key: Parameter(init(rng, shape, dtype), f"{prefix}.{suffix}", dtype=dtype)
            for key, suffix, shape, init in spec}


# --- the block body shared by the encoder and the decoder ---


def split_heads(x: Tensor, layer: dict, name: str, heads: int) -> Tensor:
    """Project [B, L, H] through `name` to per-head [B, heads, L, H / heads],
    a view of the projection's output."""
    B, L, H = x.shape
    h = linear(x, layer[f"{name}.w"], layer[f"{name}.b"])
    return transpose(reshape(h, (B, L, heads, H // heads)), (0, 2, 1, 3))


def merge_heads(x: Tensor, layer: dict, name: str) -> Tensor:
    """Per-head [B, heads, L, D] back to [B, L, heads * D] (one copy, in
    `reshape`), then the `name` projection."""
    B, heads, L, D = x.shape
    merged = reshape(transpose(x, (0, 2, 1, 3)), (B, L, heads * D))
    return linear(merged, layer[f"{name}.w"], layer[f"{name}.b"])


def block(x: Tensor, layer: dict, attentions, drop=None, rows=None) -> Tensor:
    """One pre-norm residual block.

    Attention callable i (a normed [B, L, H] to [B, L, H]) reads norm
    ln{i+1}; the GELU FFN reads the last norm. `drop(h, rows)`, if given, is
    applied to every residual branch before it is added. With `rows` (flat
    row-major indices into B·L), `x` is cut to those rows [n, H] with
    `embedding` after the last attention's residual add, so the FFN branch
    and its residual add run on n rows and the block returns [n, H]. Every
    step after the cut is row-wise, so the kept rows get the bits of the
    full block's.
    """
    def ffn(h):
        return linear(gelu(linear(h, layer["ffn.w1"], layer["ffn.b1"])), layer["ffn.w2"], layer["ffn.b2"])

    for n, fn in enumerate((*attentions, ffn), start=1):
        at = rows if fn is ffn else None
        if at is not None:
            x = embedding(x, at)
        h = fn(layer_norm(x, layer[f"ln{n}.g"], layer[f"ln{n}.b"]))
        x = add(x, h if drop is None else drop(h, at))
    return x


def save_encoder_checkpoint(directory, encoder: "LongformerEncoder", extra: dict | None = None) -> None:
    """Write just the encoder tower, renamed under the canonical `enc.` prefix."""
    arrays = {}
    for p in encoder.params():
        arrays["enc." + p.name.split(".", 1)[1]] = p.data
    payload = dict(extra or {})
    payload["kind"] = ENCODER_KIND
    save_checkpoint(directory, arrays, asdict(encoder.config), payload)


class Tower:
    """One transformer side: token and position tables, `layers` blocks built
    from `layer_spec`, a final norm, and the embed -> blocks -> norm loop."""

    def __init__(self, vocab: int, positions: int, hidden: int, layer_spec, layers: int,
                 rng: np.random.Generator, prefix: str, dtype, embeddings_from: Tower | None = None):
        """`embeddings_from` lends its token and position tables: this tower
        then reads them but neither draws nor lists them in `params()`."""
        spec = embedding_spec(vocab, positions, hidden)
        if embeddings_from is None:
            self.tok_emb, self.pos_emb = build_params(spec, rng, prefix, dtype).values()
        else:
            self.tok_emb, self.pos_emb = embeddings_from.tok_emb, embeddings_from.pos_emb
            for (_, name, shape, _), table in zip(spec, (self.tok_emb, self.pos_emb)):
                if table.shape != shape:
                    raise ConfigError(f"borrowed {name} shape {table.shape} != {shape}")
        self._owns_embeddings = embeddings_from is None
        self.layers = [build_params(layer_spec, rng, f"{prefix}.layers.{l}", dtype) for l in range(layers)]
        self.ln_f_g, self.ln_f_b = build_params(norm_spec("ln_f", hidden), rng, prefix, dtype).values()

    def params(self) -> list[Parameter]:
        """The parameters this tower owns, in checkpoint order."""
        out: list[Parameter] = [self.tok_emb, self.pos_emb] if self._owns_embeddings else []
        for layer in self.layers:
            out.extend(layer.values())
        out.extend([self.ln_f_g, self.ln_f_b])
        return out

    def run(self, ids: np.ndarray, positions: np.ndarray, attentions, drop=None, rows=None) -> Tensor:
        """Normed hidden states [B, L, H] of `ids` [B, L] at `positions` [L].

        `attentions(l, layer)` gives layer l's attention callables for
        `block`; `drop(h, rows)`, if given, is applied to the embeddings and
        to every residual branch. With `rows` (flat row-major indices into
        B·L), only those rows [n, H] come back: the last block cuts to them
        before its FFN (`block`), or, with no blocks, the cut comes before
        the final norm.
        """
        x = add(embedding(self.tok_emb, ids), embedding(self.pos_emb, positions))
        if drop is not None:
            x = drop(x, None)
        last = len(self.layers) - 1
        for l, layer in enumerate(self.layers):
            x = block(x, layer, attentions(l, layer), drop, rows if l == last else None)
        if rows is not None and not self.layers:
            x = embedding(x, rows)
        return layer_norm(x, self.ln_f_g, self.ln_f_b)


class LongformerEncoder(Tower):
    """Sliding-window encoder tower. Pure given parameters."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator, prefix: str = "enc",
                 embeddings_from: LongformerEncoder | None = None, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        super().__init__(config.vocab_size, config.max_positions, config.hidden, encoder_block_spec(config),
                         config.layers, rng, prefix, dtype, embeddings_from)

    def forward(self, ids: np.ndarray, roles: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None, rows: np.ndarray | None = None) -> Tensor:
        """Normed hidden states [B, S, H] of `ids` [B, S] under attention
        `roles` [B, S]. With `rows` (flat row-major indices into B·S), only
        those rows [n, H] come back, and the last block's FFN and the final
        norm run on them alone (`Tower.run`): they are byte-equal to the full
        output's rows. Dropout keep masks are still drawn at [B, S, H], so
        `rng` advances as it does without `rows`."""
        cfg = self.config
        ids = np.asarray(ids)
        B, S = ids.shape
        if S > cfg.max_positions:
            raise RangeError(f"sequence length {S} exceeds max_positions {cfg.max_positions}")
        use_dropout = train and cfg.dropout > 0.0
        if use_dropout and rng is None:
            raise ConfigError("training forward with dropout needs an rng")

        has_global = bool((roles == GLOBAL).any())

        def attentions(l, layer):
            def attend(h):
                q, k, v = (split_heads(h, layer, name, cfg.heads) for name in ("q", "k", "v"))
                glob = ([split_heads(h, layer, name, cfg.heads) for name in ("gq", "gk", "gv")]
                        if has_global else [])
                return merge_heads(sliding_window_attention(q, k, v, cfg.window, roles, *glob), layer, "out")

            return (attend,)

        def drop(h, at):
            return dropout(h, cfg.dropout, rng, (B, S, cfg.hidden), at)

        return self.run(ids, np.arange(S), attentions, drop if use_dropout else None, rows)
