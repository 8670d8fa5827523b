"""Replaced-token-detection pretraining.

A depth-reduced generator fills masked positions by sampling from its own
MLM distribution; the discriminator classifies every non-padding token as
original vs replaced. The discriminator owns the token and position tables and
lends them to the generator, so gradients from both losses flow into them.
One AdamW steps both towers on total loss = generator CE + disc_weight *
discriminator BCE. No gradient flows through the sampled replacements, so the
generator's CE is backpropagated, and its graph released, before the
discriminator runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bpe import MASK_ID, PAD_ID, SPECIAL_IDS
from .checkpoint import (MOMENT_PREFIX, PRETRAIN_KIND, copy_arrays, load_checkpoint, params_to_arrays,
                         read_config, save_checkpoint)
from .encoder import (EncoderConfig, LongformerEncoder, _init_weight, _zeros, build_params, make_roles,
                      save_encoder_checkpoint)
from .errors import ConfigError, FormatError, NumericError, UsageError
from .optim import AdamW
from .rng import substream
from .tensor import (
    Tensor,
    add,
    bce_with_logits,
    cross_entropy,
    ffn,
    linear,
    mul,
    reshape,
    softmax_,
    transpose,
    zero_grads,
)

# The named rng substreams a run draws from, saved and restored together.
STREAMS = ("mask", "sample", "batches", "dropout")
# The `extra` keys, with their JSON types, that `RtdPretrainer.resume` reads.
PRETRAIN_EXTRAS = {"step": int, "seed": int, "hyper": dict, "rng": dict}


def generator_config(disc: EncoderConfig, depth_divisor: int) -> EncoderConfig:
    """Same widths as the discriminator, depth divided (floor, minimum 1)."""
    if depth_divisor < 1:
        raise ConfigError(f"depth_divisor must be >= 1, got {depth_divisor}")
    return replace(disc, layers=max(1, disc.layers // depth_divisor))


def mask_tokens(
    ids: np.ndarray,
    mask_id: int,
    special_ids: set[int],
    mlm_probability: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Independently mask each non-special position with the given probability.

    Returns (generator_input, masked_positions). No 80/10/10 split: every
    selected position becomes the mask id; replacement is the generator's job.
    """
    if not 0.0 <= mlm_probability < 1.0:
        raise UsageError(f"mlm_probability must be in [0, 1), got {mlm_probability}")
    eligible = ~np.isin(ids, sorted(special_ids))
    masked = eligible & (rng.random(ids.shape) < mlm_probability)
    generator_input = np.where(masked, mask_id, ids)
    return generator_input, masked


def sample_replacements(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of [N, V] logits, temperature 1.

    Operates on raw arrays: no gradient flows through the samples.
    """
    c = np.array(logits, dtype=np.float64)  # our own copy; every later stage runs in place in it
    if not np.all(np.isfinite(c)):
        raise NumericError("generator logits are not finite")
    softmax_(c)
    np.cumsum(c, axis=-1, out=c)
    u = rng.random((c.shape[0], 1))
    return np.minimum((c < u).sum(axis=-1), c.shape[-1] - 1).astype(np.int64)


def build_disc_labels(
    original_ids: np.ndarray, corrupted_ids: np.ndarray, masked_positions: np.ndarray
) -> np.ndarray:
    """1 iff the position was masked and the sample differs from the original."""
    if not (original_ids.shape == corrupted_ids.shape == masked_positions.shape):
        raise UsageError("shapes of ids and mask must agree")
    return (masked_positions & (corrupted_ids != original_ids)).astype(np.int64)


def rtd_loss(gen_ce, disc_bce, disc_weight: float = 50.0):
    """Combined objective: gen_ce + disc_weight * disc_bce. Accepts floats or tensors."""
    if isinstance(gen_ce, Tensor) or isinstance(disc_bce, Tensor):
        return add(gen_ce, mul(disc_bce, disc_weight))
    return gen_ce + disc_weight * disc_bce


@dataclass
class RtdBatch:
    original_ids: np.ndarray
    masked_positions: np.ndarray
    generator_input: np.ndarray
    corrupted_ids: np.ndarray
    disc_labels: np.ndarray
    padding_mask: np.ndarray  # True at padding positions
    gen_logits: Tensor | None = None  # [n_masked, V] at the masked rows, row-major; dropped after their backward
    roles: np.ndarray | None = None  # attention roles of original_ids, read by both towers

    def validate(self, mask_id: int) -> None:
        assert self.disc_labels[~self.masked_positions].sum() == 0
        assert np.array_equal(
            self.corrupted_ids[~self.masked_positions], self.original_ids[~self.masked_positions]
        )
        assert np.all(self.generator_input[self.masked_positions] == mask_id)
        assert np.array_equal(
            self.generator_input[~self.masked_positions], self.original_ids[~self.masked_positions]
        )
        assert not np.any(self.masked_positions & self.padding_mask)
        recomputed = self.masked_positions & (self.corrupted_ids != self.original_ids)
        assert np.array_equal(self.disc_labels.astype(bool), recomputed)


@dataclass
class PretrainHyper:
    batch_size: int = 32
    base_lr: float = 5e-4
    warmup_steps: int = 10000
    total_steps: int = 100000
    disc_weight: float = 50.0
    mlm_probability: float = 0.25
    depth_divisor: int = 4

    def __post_init__(self):
        for name in ("batch_size", "warmup_steps", "total_steps", "depth_divisor"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be finite and positive, got {self.base_lr}")
        if not 0.0 <= self.disc_weight < math.inf:
            raise ConfigError(f"disc_weight must be finite and non-negative, got {self.disc_weight}")
        if not 0.0 <= self.mlm_probability < 1.0:
            raise ConfigError(f"mlm_probability must be in [0, 1), got {self.mlm_probability}")


class RtdPretrainer:
    """Owns both models, their one optimizer, and the per-purpose rng streams."""

    mask_id, pad_id, special_ids = MASK_ID, PAD_ID, SPECIAL_IDS

    def __init__(self, config: EncoderConfig, hyper: PretrainHyper, seed: int):
        if config.vocab_size <= MASK_ID:
            raise ConfigError(f"vocab_size {config.vocab_size} must exceed the mask id {MASK_ID}")
        self.config = config
        self.hyper = hyper
        self.seed = seed

        H, V = config.hidden, config.vocab_size
        init_rng = substream(seed, "init")
        self.disc = LongformerEncoder(config, init_rng, prefix="disc")
        gen_cfg = generator_config(config, hyper.depth_divisor)
        self.gen = LongformerEncoder(gen_cfg, init_rng, prefix="gen", embeddings_from=self.disc)
        # generator MLM head: a vocab bias on the tied output projection
        gen_head = build_params([("bias", "head.bias", (V,), _zeros)], init_rng, "gen", np.float32)
        # discriminator head: a hidden transform, then one logit per token
        disc_head = build_params([
            ("w1", "head.w1", (H, H), _init_weight), ("b1", "head.b1", (H,), _zeros),
            ("w2", "head.w2", (H, 1), _init_weight), ("b2", "head.b2", (1,), _zeros),
        ], init_rng, "disc", np.float32)
        self.gen_head_bias = gen_head["bias"]
        self.disc_head_w1, self.disc_head_b1, self.disc_head_w2, self.disc_head_b2 = disc_head.values()

        params = self.disc.params() + list(disc_head.values()) + self.gen.params() + list(gen_head.values())
        self.opt = AdamW(params, hyper.base_lr, hyper.warmup_steps, hyper.total_steps)
        self.rngs = {name: substream(seed, name) for name in STREAMS}

    @property
    def step_count(self) -> int:
        return self.opt.step_count

    def build_batch(self, ids: np.ndarray) -> RtdBatch:
        """Mask `ids` [B, L], run the generator and sample the replacements.

        Only the masked positions are read by the MLM loss, so the generator
        returns its hidden states at those rows alone, in row-major order:
        its last block's FFN and final norm run on them (`forward(rows=)`),
        and the head projects them onto the tied vocabulary."""
        ids = np.asarray(ids)
        padding = ids == self.pad_id
        gen_input, masked = mask_tokens(
            ids, self.mask_id, self.special_ids, self.hyper.mlm_probability, self.rngs["mask"]
        )
        roles = make_roles(ids, pad_id=self.pad_id)
        rows = np.flatnonzero(masked)
        gen_hidden = self.gen.forward(gen_input, roles, train=True, rng=self.rngs["dropout"], rows=rows)
        gen_logits = linear(gen_hidden, transpose(self.disc.tok_emb, (1, 0)), self.gen_head_bias)

        corrupted = ids.copy()
        if rows.size:
            corrupted.reshape(-1)[rows] = sample_replacements(gen_logits.data, self.rngs["sample"])
        labels = build_disc_labels(ids, corrupted, masked)
        return RtdBatch(ids, masked, gen_input, corrupted, labels, padding, gen_logits, roles)

    def step(self, ids: np.ndarray, dump_dir=None) -> dict:
        """One optimization step over a [B, L] id batch; returns the metrics record.

        The generator's CE is backpropagated first, and the batch drops its
        logits, so the generator's graph is gone before the discriminator's
        forward. The discriminator then backpropagates the total loss with
        the CE detached: its gradient reaches the discriminator alone, and
        the two shared tables sum both contributions. A non-finite loss
        raises NumericError, with the batch dumped, before the update and
        with every gradient buffer zero again."""
        batch = self.build_batch(ids)
        B, L = batch.original_ids.shape
        gen_ce = cross_entropy(batch.gen_logits, batch.original_ids[batch.masked_positions])
        if not np.isfinite(gen_ce.data):
            self._refuse(batch, dump_dir, "non-finite generator loss")
        gen_ce.backward()
        batch.gen_logits = None

        # roles from the original ids: a sampled PAD_ID is a real (replaced) token, not padding
        disc_hidden = self.disc.forward(batch.corrupted_ids, batch.roles, train=True, rng=self.rngs["dropout"])
        disc_logits = reshape(ffn(disc_hidden, self.disc_head_w1, self.disc_head_b1, self.disc_head_w2,
                                  self.disc_head_b2), (B, L))
        disc_bce = bce_with_logits(
            disc_logits, batch.disc_labels.astype(np.float32), ignore_mask=batch.padding_mask
        )

        total = rtd_loss(gen_ce.detach(), disc_bce, self.hyper.disc_weight)
        if not np.isfinite(total.data):
            zero_grads(self.opt.params)  # the generator's backward has written them
            self._refuse(batch, dump_dir, "non-finite loss")
        total.backward()
        try:
            lr = self.opt.step()
        except NumericError as exc:  # nothing moved; the step refused the gradients
            self._refuse(batch, dump_dir, str(exc))

        nonpad = ~batch.padding_mask
        preds = disc_logits.data > 0.0
        labels_b = batch.disc_labels.astype(bool)
        replaced = labels_b & nonpad
        metrics = {
            "step": self.step_count,
            "lr": lr,
            "gen_loss": float(gen_ce.data),
            "disc_loss": float(disc_bce.data),
            "total": float(total.data),
            "masked_fraction": float(batch.masked_positions[nonpad].mean()) if nonpad.any() else 0.0,
            "replaced_fraction": float(replaced.sum() / max(nonpad.sum(), 1)),
            "disc_accuracy": float((preds == labels_b)[nonpad].mean()) if nonpad.any() else 0.0,
            "replaced_recall": float(preds[replaced].mean()) if replaced.any() else 0.0,
        }
        return metrics

    def check_chunks(self, chunks: np.ndarray) -> None:
        """Refuse a chunk set this model cannot train on: empty, longer than
        its positions, or holding ids outside its vocabulary."""
        cfg = self.config
        if chunks.shape[0] == 0:
            raise UsageError("cannot pretrain on an empty chunk set")
        if chunks.shape[1] > cfg.max_positions:
            raise UsageError(f"chunk length {chunks.shape[1]} exceeds the model's max_positions {cfg.max_positions}")
        if chunks.min() < 0 or chunks.max() >= cfg.vocab_size:
            raise UsageError(f"chunk ids span [{chunks.min()}, {chunks.max()}], outside the model's "
                             f"vocabulary [0, {cfg.vocab_size})")

    def run(self, chunks: np.ndarray, steps: int, dump_dir=None):
        """Yield one metrics record per step, sampling chunk rows with replacement."""
        self.check_chunks(chunks)
        for _ in range(steps):
            rows = self.rngs["batches"].integers(0, chunks.shape[0], size=self.hyper.batch_size)
            yield self.step(chunks[rows], dump_dir=dump_dir)

    def _refuse(self, batch: RtdBatch, dump_dir, reason: str):
        """Dump `batch` and raise NumericError naming `reason` and the step."""
        path = self._dump_diagnostic(batch, dump_dir)
        raise NumericError(f"{reason} at step {self.step_count}; batch dumped to {path}") from None

    def _dump_diagnostic(self, batch: RtdBatch, dump_dir) -> str:
        d = dump_dir if dump_dir is not None else "."
        os.makedirs(d, exist_ok=True)
        path = os.path.join(str(d), f"diagnostic_batch_step{self.step_count}.npz")
        fields = ("original_ids", "masked_positions", "generator_input", "corrupted_ids", "disc_labels")
        np.savez(path, **{name: getattr(batch, name) for name in fields})
        return path

    # --- persistence ---------------------------------------------------------

    def _all_arrays(self) -> dict[str, np.ndarray]:
        """Every saved array by name, live: parameters, then the moments, each
        saved as `opt.<tower>.<m|v>.<name>` under its parameter's tower prefix."""
        arrays = params_to_arrays(self.opt.params)
        for name, arr in self.opt.moment_arrays().items():
            arrays[f"{MOMENT_PREFIX}{name.split('.', 2)[1]}.{name}"] = arr
        return arrays

    def export_encoder(self, directory) -> None:
        """Save the discriminator tower alone, for downstream fine-tuning."""
        save_encoder_checkpoint(directory, self.disc, extra={"pretrain_step": self.step_count, "seed": self.seed})

    def checkpoint(self, directory) -> None:
        """Save everything a resume needs. The optimizer's hyperparameters and
        step count are not stored apart: `hyper` and `step` rebuild them."""
        extra = {"kind": PRETRAIN_KIND, "step": self.step_count, "seed": self.seed, "hyper": asdict(self.hyper),
                 "rng": {name: rng.bit_generator.state for name, rng in self.rngs.items()}}
        save_checkpoint(directory, self._all_arrays(), asdict(self.config), extra)

    @classmethod
    def resume(cls, directory) -> "RtdPretrainer":
        """Continue a saved run. The `extra.opt` block and `extra.loss_history`
        that older checkpoints carry are ignored: `hyper` and `step` rebuild
        every value in `opt`, and `metrics.jsonl` holds the losses."""
        config, arrays, extra = load_checkpoint(directory, {PRETRAIN_KIND: PRETRAIN_EXTRAS})
        if sorted(extra["rng"]) != sorted(STREAMS):
            raise FormatError(f"{directory}: extra.rng must hold the streams {', '.join(STREAMS)}")
        if extra["step"] < 0:  # AdamW's bias correction divides by 1 - beta**step
            raise FormatError(f"{directory}: extra.step must be >= 0, got {extra['step']}")
        trainer = cls(read_config(EncoderConfig, config, f"{directory}: config"),
                      read_config(PretrainHyper, extra["hyper"], f"{directory}: extra.hyper"), seed=extra["seed"])
        copy_arrays(trainer._all_arrays(), arrays)
        try:
            for name, rng in trainer.rngs.items():
                rng.bit_generator.state = extra["rng"][name]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{directory}: bad state for rng stream {name!r}: {exc!r}") from None
        trainer.opt.step_count = extra["step"]
        return trainer
