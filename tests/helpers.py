"""Shared test oracles and utilities."""

from __future__ import annotations

import numpy as np

from blf.seq2seq import _log_softmax, banned_next_tokens
from blf.tensor import Parameter, Tensor


def finite_difference_check(
    make_loss,
    params: list[Parameter],
    rng: np.random.Generator,
    h: float = 1e-4,
    rel_tol: float = 1e-3,
    max_entries_per_param: int = 24,
) -> None:
    """Central finite differences vs analytic grads, in f64.

    `make_loss()` must rebuild the scalar loss from the params' current data.
    Checks a fixed-rng sample of entries in every parameter.
    """
    for p in params:
        assert p.dtype == np.float64, "gradient checks run in f64"
    loss = make_loss()
    for p in params:
        p.grad[...] = 0.0
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params}

    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_entries_per_param:
            entries = np.arange(n)
        else:
            entries = rng.choice(n, size=max_entries_per_param, replace=False)
        for i in entries:
            orig = flat[i]
            flat[i] = orig + h
            up = make_loss().item()
            flat[i] = orig - h
            down = make_loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            an = analytic[p.name].reshape(-1)[i]
            denom = max(abs(an), abs(fd), 1e-6)
            rel = abs(an - fd) / denom
            assert rel <= rel_tol, (
                f"grad mismatch at {p.name}[{i}]: analytic {an:.6g} vs fd {fd:.6g} (rel {rel:.3g})"
            )


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def reference_beam_search(model, input_ids, params, return_score: bool = False):
    """Beam search that re-runs `model.decode` over every beam's full prefix.

    The uncached search that incremental decoding replaced: each step repeats
    the encoder output once per beam and decodes all positions again. Same
    scoring, ban and tie-breaking as `beam_search_generate`.
    """
    input_ids = np.asarray(input_ids, dtype=np.int64)[: params.max_input_length]
    memory, mem_pad = model.encode(input_ids[None, :])
    memory = memory.detach()

    def norm(score, length):
        return score / (length ** params.length_penalty)

    live = [((model.bos_id,), 0.0)]
    done = []
    for _ in range(params.max_target_length):
        k = len(live)
        dec_in = np.asarray([seq for seq, _ in live], dtype=np.int64)
        mem_k = Tensor(np.repeat(memory.data, k, axis=0), dtype=memory.data.dtype)
        pad_k = np.repeat(mem_pad, k, axis=0)
        logits = model.decode(dec_in, mem_k, pad_k).data[:, -1, :]
        candidates = []
        for b, (seq, score) in enumerate(live):
            logp = _log_softmax(logits[b])
            for tok in banned_next_tokens(seq, params.no_repeat_ngram_size):
                logp[tok] = -np.inf
            top = np.argsort(logp)[::-1][: params.num_beams]
            for tok in top:
                if np.isfinite(logp[tok]):
                    candidates.append((seq + (int(tok),), score + float(logp[tok])))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for seq, score in candidates[: params.num_beams]:
            if seq[-1] == model.eos_id:
                done.append((seq, norm(score, len(seq) - 1)))
            else:
                live.append((seq, score))
        if not live:
            break
    for seq, score in live:
        done.append((seq, norm(score, len(seq) - 1)))

    best_seq, best_score = max(done, key=lambda c: (c[1], c[0]))
    out = list(best_seq[1:])
    if out and out[-1] == model.eos_id:
        out = out[:-1]
    return (out, best_score) if return_score else out
