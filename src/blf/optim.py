"""Decoupled-weight-decay adaptive-moment optimizer with a linear warmup/decay schedule.

The optimizer is the one consumer of its parameters' gradient buffers: the
backward pass accumulates into them, and `AdamW.step` reads them, zeroes
them, and is the one place a non-finite gradient is refused, before anything
moves, for every trainer.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, UsageError
from .tensor import Parameter, zero_grads


def schedule_lr(base_lr: float, step: int, warmup_steps: int, total_steps: int) -> float:
    """Linear warmup to base_lr at `warmup_steps`, then linear decay to 0 at `total_steps`.

    Past total_steps the rate clamps at 0.
    """
    if warmup_steps <= 0 or total_steps <= 0:
        raise UsageError("warmup_steps and total_steps must be positive")
    warm = step / warmup_steps
    if total_steps > warmup_steps:
        decay = 1.0 - (step - warmup_steps) / (total_steps - warmup_steps)
    else:
        decay = 1.0 if step <= warmup_steps else 0.0
    return base_lr * max(0.0, min(warm, decay, 1.0))


class AdamW:
    """AdamW over a fixed parameter list.

    With `warmup_steps`/`total_steps` set, the learning rate follows the
    linear warmup/decay schedule; with both None it stays constant at
    `base_lr` (finetuning).
    """

    def __init__(
        self,
        params: list[Parameter],
        base_lr: float,
        warmup_steps: int | None = None,
        total_steps: int | None = None,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-6,
        weight_decay: float = 0.01,
    ):
        if base_lr <= 0:
            raise UsageError("base_lr must be positive")
        if weight_decay < 0:
            raise UsageError("weight_decay must be non-negative")
        if (warmup_steps is None) != (total_steps is None):
            raise UsageError("warmup_steps and total_steps must be given together")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise UsageError("parameter names must be unique within one optimizer")
        self.params = list(params)
        self.base_lr = base_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.data) for p in self.params}

    def current_lr(self) -> float:
        if self.warmup_steps is None:
            return self.base_lr
        return schedule_lr(self.base_lr, self.step_count, self.warmup_steps, self.total_steps)

    def step(self) -> float:
        """Apply one update from accumulated grads, then zero them. Returns the lr used.

        A non-finite gradient zeroes every gradient and raises NumericError
        naming its parameters; the step count, parameters and moments stay
        as they were.
        """
        bad = [p.name for p in self.params if not np.isfinite(p.grad).all()]
        if bad:
            zero_grads(self.params)
            raise NumericError(f"non-finite gradient in {', '.join(bad)}")
        self.step_count += 1
        lr = self.current_lr()
        b1, b2 = self.betas
        t = self.step_count
        for p in self.params:
            g = p.grad
            m = self._m[p.name]
            v = self._v[p.name]
            # p -= lr * (mhat / (sqrt(vhat) + eps) + weight_decay * p), the
            # same roundings in the same order in two scratch buffers
            a = np.multiply(g, 1 - b1)
            m *= b1
            m += a
            np.multiply(g, g, out=a)
            a *= 1 - b2
            v *= b2
            v += a
            np.divide(m, 1 - b1**t, out=a)  # mhat
            c = np.divide(v, 1 - b2**t)  # vhat
            np.sqrt(c, out=c)
            c += self.eps
            a /= c
            np.multiply(p.data, self.weight_decay, out=c)
            a += c
            a *= lr
            p.data -= a
            del a, c  # before the next parameter's buffers
            p.grad[...] = 0.0
        return lr

    def moment_arrays(self) -> dict[str, np.ndarray]:
        """The live moment buffers by saved name; writing into them (and setting
        `step_count`) resumes a saved run."""
        out = {}
        for p in self.params:
            out[f"m.{p.name}"] = self._m[p.name]
            out[f"v.{p.name}"] = self._v[p.name]
        return out
