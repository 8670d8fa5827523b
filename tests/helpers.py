"""Shared test oracles and utilities."""

from __future__ import annotations

import builtins
import heapq
import math
import os
import shutil
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from blf import checkpoint
from blf.attention import GLOBAL, LOCAL, PAD
from blf.bpe import SPECIAL_TOKENS, ByteBpeModel, _word_symbols, pretokenize
from blf.encoder import linear, make_roles, merge_heads, split_heads
from blf.errors import ConfigError, NumericError, ShapeError, UsageError
from blf.pretrain import RtdBatch, build_disc_labels, mask_tokens, rtd_loss, sample_replacements
from blf.tensor import (
    NEG_INF,
    Parameter,
    Tensor,
    _add_work,
    _make,
    add,
    bce_with_logits,
    concat,
    cross_entropy,
    embedding,
    gather,
    gelu,
    masked_fill,
    matmul,
    mul,
    reshape,
    slice_axis,
    softmax,
    softmax_,
    transpose,
)


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


def reference_backward(root: Tensor) -> None:
    """`Tensor.backward` as it was before it released the graph: every node,
    closure and intermediate gradient stays alive until the walk ends, and the
    intermediate gradients are dropped only then. The equivalence oracle for
    the releasing walk (same closures, same order)."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    for node in topo:
        if node is not root and node._backward is not None:
            node.grad = None


def reachable_nodes(root: Tensor) -> list[Tensor]:
    """Every node reachable from `root` along `_parents` (root and leaves included)."""
    seen, stack, nodes = {id(root)}, [root], [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
                nodes.append(parent)
    return nodes


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


def reference_gather_grad(shape, indices: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The gradient `gather(x, indices, axis)` sends an `x` of `shape` from an
    upstream `g`, scatter-added one read at a time with `np.add.at`."""
    indices = np.asarray(indices)
    gx = np.zeros(shape, dtype=g.dtype)
    g_moved = np.moveaxis(g, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim)))
    np.add.at(np.moveaxis(gx, axis, 0), indices, g_moved)
    return gx


def reference_log_softmax(row: np.ndarray) -> np.ndarray:
    """Float64 log-softmax of one row of logits."""
    z = row.astype(np.float64)
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def reference_banned_next_tokens(seq, n: int) -> set:
    """The n-gram ban `seq2seq.banned_next_tokens` replaced: the set of every
    n-gram tuple in `seq`, then the last token of each whose first n - 1
    tokens are the last n - 1 of `seq`."""
    if n <= 0:
        return set()
    grams = {tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)}
    prefix = tuple(seq[len(seq) - n + 1 :]) if n > 1 else ()
    return {g[-1] for g in grams if g[:-1] == prefix}


def reference_candidates(logits: np.ndarray, live, params) -> list:
    """The per-beam selection `seq2seq.next_candidates` replaced: each beam's
    `num_beams` best tokens by a full `argsort` (ties in its order), then all
    of them sorted by (-score, seq), and the first `num_beams` kept."""
    candidates = []
    for b, (seq, score) in enumerate(live):
        logp = reference_log_softmax(logits[b])
        for tok in reference_banned_next_tokens(seq, params.no_repeat_ngram_size):
            logp[tok] = -np.inf
        top = np.argsort(logp)[::-1][: params.num_beams]
        for tok in top:
            if np.isfinite(logp[tok]):
                candidates.append((seq + (int(tok),), score + float(logp[tok]), b))
    candidates.sort(key=lambda c: (-c[1], c[0]))
    return candidates[: params.num_beams]


def reference_attend(q: Tensor, k_t: Tensor, v: Tensor, bias: np.ndarray | None) -> Tensor:
    """The five-op dense attention `attention.dense_attention` replaced:
    per-head q over (k_t, v), `bias` added to the scores."""
    scores = mul(matmul(q, k_t), 1.0 / math.sqrt(q.shape[-1]))
    if bias is not None:
        scores = add(scores, bias)
    return matmul(softmax(scores, axis=-1), v)


def reference_kv(x: Tensor, layer: dict, name: str, heads: int) -> tuple[Tensor, Tensor]:
    """Per-head K^T [B, heads, D, L] (a `transpose` node) and V [B, heads, L, D]
    of `x` through `name`.k / `name`.v."""
    k = split_heads(x, layer, f"{name}.k", heads)
    return transpose(k, (0, 1, 3, 2)), split_heads(x, layer, f"{name}.v", heads)


def reference_mha(h: Tensor, layer: dict, name: str, heads: int, k_t: Tensor, v: Tensor, bias) -> Tensor:
    """`seq2seq.mha` before `dense_attention`: queries of `h` through `name`.q
    attend over (k_t, v) by `reference_attend`; heads merge through `name`.out."""
    q = split_heads(h, layer, f"{name}.q", heads)
    return merge_heads(reference_attend(q, k_t, v, bias), layer, f"{name}.out")


class ReferenceIncrementalDecoder:
    """The cached decoder step `seq2seq.IncrementalDecoder` replaced, run as
    graph ops: each step runs the decoder `Tower` once on the beams' newest
    tokens [k, 1], with the cross-attention K/V of `reference_kv` at batch 1
    broadcast across beams. Callers hold `no_grad()`."""

    def __init__(self, model, memory: Tensor, memory_padding: np.ndarray):
        d = model.decoder_config
        self.heads = d.heads
        self.tower = model.decoder
        self.out_w = transpose(self.tower.tok_emb, (1, 0))
        self.cross_bias = np.where(memory_padding, NEG_INF, 0.0)[:, None, None, :]
        self.cross = [reference_kv(memory, layer, "cross", d.heads) for layer in self.tower.layers]
        empty = np.zeros((1, d.heads, d.head_dim, 0), dtype=model.dtype)
        self.self_kv = [(empty, empty.swapaxes(-1, -2))] * d.layers
        self.position = 0

    def step(self, tokens, parents) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        past = [(k_t[parents], v[parents]) for k_t, v in self.self_kv]
        cache = []

        def attentions(l, layer):
            def self_attn(h):
                k_t, v = reference_kv(h, layer, "self", self.heads)
                k_t = np.concatenate([past[l][0], k_t.data], axis=-1)
                v = np.concatenate([past[l][1], v.data], axis=-2)
                cache.append((k_t, v))
                return reference_mha(h, layer, "self", self.heads, Tensor(k_t, k_t.dtype), Tensor(v, v.dtype), None)

            return self_attn, lambda h: reference_mha(h, layer, "cross", self.heads, *self.cross[l],
                                                      self.cross_bias)

        x = self.tower.run(tokens[:, None], np.full(1, self.position), attentions)
        self.self_kv = cache
        self.position += 1
        return matmul(reshape(x, (len(tokens), x.shape[-1])), self.out_w).data


def reference_beam_search(model, input_ids, params, return_score: bool = False):
    """Beam search that re-runs `model.decode` over every beam's full prefix.

    The uncached search that incremental decoding replaced: each step repeats
    the encoder output once per beam and decodes all positions again, and
    picks the next beams by the per-beam rule `reference_candidates`.
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
        candidates = reference_candidates(logits, live, params)
        if not candidates:
            break
        live = []
        for seq, score, _ in candidates:
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


def reference_sliding_window_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    window: int,
    roles: np.ndarray,
    q_global: Tensor | None = None,
    k_global: Tensor | None = None,
    v_global: Tensor | None = None,
) -> Tensor:
    """Sliding-window attention built from ~15 generic graph nodes.

    The graph that the fused node in `blf.attention` replaced: the band is
    gathered with an index array (its gradient scatters back with
    np.add.at), global rows and columns are selected with one-hot matmuls,
    and autodiff supplies the backward. Same arguments, masks and errors as
    `sliding_window_attention`; kept as an oracle for its values and
    gradients.
    """
    if window % 2 != 0 or window <= 0:
        raise ConfigError(f"window must be even and positive, got {window}")
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"q/k/v shapes differ: {q.shape} {k.shape} {v.shape}")
    if len(q.shape) != 4:
        raise ShapeError(f"expected [batch, heads, seq, head_dim], got {q.shape}")
    B, H, S, D = q.shape
    if roles.shape != (B, S):
        raise ShapeError(f"roles shape {roles.shape} does not match batch/seq ({B}, {S})")

    q_global = q if q_global is None else q_global
    k_global = k if k_global is None else k_global
    v_global = v if v_global is None else v_global

    half = window // 2
    W = window + 1
    scale = 1.0 / math.sqrt(D)
    is_pad = roles == PAD
    is_glob = roles == GLOBAL
    is_local = roles == LOCAL

    # band columns: idx[i, t] = i - half + t, clipped; validity tracked apart
    base = np.arange(S)[:, None] + np.arange(-half, half + 1)[None, :]
    in_range = (base >= 0) & (base < S)
    idx = np.clip(base, 0, S - 1)

    q2 = reshape(mul(q, scale), (B * H, S, D))
    k2 = reshape(k, (B * H, S, D))
    v2 = reshape(v, (B * H, S, D))
    k_band = reshape(gather(k2, idx.reshape(-1), axis=1), (B * H, S, W, D))
    v_band = reshape(gather(v2, idx.reshape(-1), axis=1), (B * H, S, W, D))
    scores_band = reshape(
        matmul(reshape(q2, (B * H, S, 1, D)), transpose(k_band, (0, 1, 3, 2))),
        (B * H, S, W),
    )
    # a band column is attendable unless out of range, padding, or global
    # (global columns are handled separately so no column is counted twice)
    col_ok = in_range[None, :, :] & ~is_pad[:, idx] & ~is_glob[:, idx]  # [B, S, W]
    band_invalid = np.repeat(~col_ok, H, axis=0)
    scores_band = masked_fill(scores_band, band_invalid, NEG_INF)

    glob_pos = [np.flatnonzero(is_glob[b]) for b in range(B)]
    G = max((len(p) for p in glob_pos), default=0)

    dt = q.data.dtype
    if G > 0:
        sel = np.zeros((B, 1, G, S), dtype=dt)
        row_valid = np.zeros((B, G), dtype=bool)
        for b, pos in enumerate(glob_pos):
            sel[b, 0, np.arange(len(pos)), pos] = 1.0
            row_valid[b, : len(pos)] = True
        sel_t = Tensor(sel, dtype=dt)

        # local rows attend global columns with the regular projections
        k_cols = matmul(sel_t, k)  # [B, H, G, D]
        v_cols = matmul(sel_t, v)
        scores_glob = matmul(reshape(q2, (B, H, S, D)), transpose(k_cols, (0, 1, 3, 2)))
        scores_glob = masked_fill(scores_glob, ~row_valid[:, None, None, :], NEG_INF)
        scores_all = concat([scores_band, reshape(scores_glob, (B * H, S, G))], axis=2)
    else:
        scores_all = scores_band

    probs = softmax(scores_all, axis=-1)
    out = reshape(
        matmul(reshape(slice_axis(probs, 2, 0, W), (B * H, S, 1, W)), v_band),
        (B, H, S, D),
    )
    if G > 0:
        probs_glob = reshape(slice_axis(probs, 2, W, W + G), (B, H, S, G))
        out = add(out, matmul(probs_glob, v_cols))

    # fully-masked rows (padding, global) softmax to garbage; keep local only
    out = mul(out, Tensor(is_local[:, None, :, None], dtype=dt))

    if G > 0:
        # global rows: separate projections, attending every non-padding token
        qg_rows = mul(matmul(sel_t, q_global), scale)  # [B, H, G, D]
        scores_g = matmul(qg_rows, transpose(k_global, (0, 1, 3, 2)))  # [B, H, G, S]
        invalid = is_pad[:, None, None, :] | ~row_valid[:, None, :, None]
        probs_g = softmax(masked_fill(scores_g, invalid, NEG_INF), axis=-1)
        out_rows = matmul(probs_g, v_global)  # [B, H, G, D]
        scatter = Tensor(np.swapaxes(sel, 2, 3), dtype=dt)  # [B, 1, S, G]
        out = add(out, matmul(scatter, out_rows))
    return out


# --- the per-row band kernel that the chunked attention replaced -------------------------


def _band(x: np.ndarray, half: int) -> np.ndarray:
    """[B, H, S, D] -> read-only view [B, H, S, D, 2*half+1] of x padded by `half`
    zero rows on both sides: entry (..., i, :, t) is row i - half + t."""
    B, H, S, D = x.shape
    padded = np.zeros((B, H, S + 2 * half, D), dtype=x.dtype)
    padded[:, :, half : half + S] = x
    return sliding_window_view(padded, 2 * half + 1, axis=2)


def _band_dot(a: np.ndarray, x: np.ndarray, half: int) -> np.ndarray:
    """out[..., i, t] = a[..., i, :] . x[..., i - half + t, :]  ([B, H, S, W])."""
    return (a[..., None, :] @ _band(x, half))[..., 0, :]


def _band_mix(w: np.ndarray, x: np.ndarray, half: int) -> np.ndarray:
    """out[..., i, :] = sum_t w[..., i, t] * x[..., i - half + t, :]  ([B, H, S, D])."""
    return (_band(x, half) @ w[..., None])[..., 0]


def _band_adjoint(w: np.ndarray, x: np.ndarray, half: int) -> np.ndarray:
    """Adjoint of the band read: out[..., i - half + t, :] += w[..., i, t] * x[..., i, :].

    Row j collects w[j + u - half, 2*half - u] * x[j + u - half] over u, which
    is itself a band read once w is skewed: entry (i, u) of the skew is entry
    (i + u, W - 1 - u) of w padded by `half` rows, one strided view of the
    padded copy, made contiguous for the matmul.
    """
    B, H, S, W = w.shape
    padded = np.zeros((B, H, S + 2 * half, W), dtype=w.dtype)
    padded[:, :, half : half + S] = w
    s0, s1, s2, s3 = padded.strides
    skewed = as_strided(padded[..., W - 1 :], (B, H, S, W), (s0, s1, s2, s2 - s3), writeable=False)
    return _band_mix(np.ascontiguousarray(skewed), x, half)


def reference_band_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    window: int,
    roles: np.ndarray,
    q_global: Tensor | None = None,
    k_global: Tensor | None = None,
    v_global: Tensor | None = None,
) -> Tensor:
    """The fused node that the chunked `sliding_window_attention` replaced.

    Row-major scores [B, H, S, W + G] and per-row band products: the band of
    K or V is a strided view of its zero-padded copy, each query row meets it
    in a [1, D] x [D, W] product, and the backward sums dk and dv through a
    skewed copy of the band weights. Same arguments, masks and errors as
    `sliding_window_attention`; kept as an oracle for its values, gradients
    and memory.
    """
    if window % 2 != 0 or window <= 0:
        raise ConfigError(f"window must be even and positive, got {window}")
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"q/k/v shapes differ: {q.shape} {k.shape} {v.shape}")
    if len(q.shape) != 4:
        raise ShapeError(f"expected [batch, heads, seq, head_dim], got {q.shape}")
    B, H, S, D = q.shape
    if roles.shape != (B, S):
        raise ShapeError(f"roles shape {roles.shape} does not match batch/seq ({B}, {S})")

    q_global = q if q_global is None else q_global
    k_global = k if k_global is None else k_global
    v_global = v if v_global is None else v_global

    half = window // 2
    W = window + 1
    scale = 1.0 / math.sqrt(D)
    is_pad = roles == PAD
    is_glob = roles == GLOBAL
    is_local = roles == LOCAL

    # global positions per batch row, left-aligned and padded out to G slots
    counts = is_glob.sum(axis=1)
    G = int(counts.max(initial=0))
    row_valid = np.arange(G)[None, :] < counts[:, None]  # [B, G]
    gidx = np.zeros((B, G), dtype=np.int64)
    gidx[row_valid] = np.nonzero(is_glob)[1]
    b_sel = np.arange(B)[:, None]
    bi, gi = np.nonzero(row_valid)
    gpos = gidx[bi, gi]

    def rows_at_globals(x: np.ndarray) -> np.ndarray:
        """[B, H, S, D] -> [B, H, G, D]: the rows at each batch row's global slots."""
        return x[b_sel, :, gidx].transpose(0, 2, 1, 3)

    # a band column is attendable unless out of range, padding, or global
    # (global columns are handled separately so no column is counted twice)
    ok = np.zeros((B, S + window), dtype=bool)
    ok[:, half : half + S] = ~is_pad & ~is_glob
    col_ok = np.concatenate(
        [sliding_window_view(ok, W, axis=1), np.broadcast_to(row_valid[:, None, :], (B, S, G))],
        axis=2,
    )  # [B, S, W + G]

    qs = np.multiply(q.data, scale, order="C")  # recomputed in backward, so only probabilities are kept
    k_cols = rows_at_globals(k.data)
    v_cols = rows_at_globals(v.data)
    scores = np.empty((B, H, S, W + G), dtype=q.dtype)
    scores[..., :W] = _band_dot(qs, k.data, half)
    scores[..., W:] = qs @ k_cols.swapaxes(-1, -2)
    np.copyto(scores, NEG_INF, where=~col_ok[:, None])
    # rows that are not local attend through the global path, or not at all
    probs = softmax_(scores)
    probs *= is_local[:, None, :, None]
    p_band, p_glob = probs[..., :W], probs[..., W:]
    out = _band_mix(p_band, v.data, half)
    _add_work(2 * B * H * S * W * D + 3 * probs.size)

    if G:
        out += p_glob @ v_cols
        # global rows: separate projections, attending every non-padding token
        qg_rows = rows_at_globals(q_global.data) * scale
        scores_g = qg_rows @ k_global.data.swapaxes(-1, -2)  # [B, H, G, S]
        np.copyto(scores_g, NEG_INF, where=is_pad[:, None, None, :] | ~row_valid[:, None, :, None])
        probs_g = softmax_(scores_g)
        probs_g *= row_valid[:, None, :, None]
        out[bi, :, gpos] = (probs_g @ v_global.data)[bi, :, gi]
        _add_work(4 * B * H * S * G * D + 3 * probs_g.size)

    def backward(g):
        # local rows: d(scores) through the softmax over band + global columns
        qs = np.multiply(q.data, scale, order="C")
        d_probs = np.empty_like(probs)
        d_probs[..., :W] = _band_dot(g, v.data, half)
        d_probs[..., W:] = g @ v_cols.swapaxes(-1, -2)
        d_scores = probs * (d_probs - (probs * d_probs).sum(axis=-1, keepdims=True))
        ds_band, ds_glob = d_scores[..., :W], d_scores[..., W:]
        dq = _band_mix(ds_band, k.data, half)
        dk = _band_adjoint(ds_band, qs, half)
        dv = _band_adjoint(p_band, g, half)
        if G:
            dq += ds_glob @ k_cols
            dk[bi, :, gpos] += (ds_glob.swapaxes(-1, -2) @ qs)[bi, :, gi]
            dv[bi, :, gpos] += (p_glob.swapaxes(-1, -2) @ g)[bi, :, gi]
        dq *= scale
        grads = [(q, dq), (k, dk), (v, dv)]

        if G:
            g_rows = rows_at_globals(g)
            d_probs_g = g_rows @ v_global.data.swapaxes(-1, -2)
            ds_g = probs_g * (d_probs_g - (probs_g * d_probs_g).sum(axis=-1, keepdims=True))
            dqg = np.zeros_like(q_global.data)
            dqg[bi, :, gpos] = (ds_g @ k_global.data)[bi, :, gi] * scale
            grads += [
                (q_global, dqg),
                (k_global, ds_g.swapaxes(-1, -2) @ qg_rows),
                (v_global, probs_g.swapaxes(-1, -2) @ g_rows),
            ]

        # the global projections may be the local tensors; each share accumulates
        for t, grad in grads:
            if t.requires_grad:
                t.node._accumulate(grad)

    parents = (q, k, v, q_global, k_global, v_global) if G else (q, k, v)
    return _make(out, parents, backward)


def reference_overlap_add(chunks: np.ndarray, c: int) -> np.ndarray:
    """`attention._overlap_add` as one scatter with repeated indices: row l of
    window m adds into row m * c + l through np.add.at."""
    B, H, n, L, D = chunks.shape
    out = np.zeros((B, H, (n - 1 + math.ceil(L / c)) * c, D), dtype=chunks.dtype)
    rows = np.arange(n)[:, None] * c + np.arange(L)[None, :]
    np.add.at(out, (slice(None), slice(None), rows), chunks)
    return out


# --- the dense kernels and the generator head that in-place versions replaced ------------


def reference_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The two-node dense layer that `tensor.linear` replaced: a batched
    `matmul`, whose weight gradient is summed over the leading axes, then a
    broadcast bias `add`, whose backward copies `g` for both parents."""
    return add(matmul(x, w), b)


def reference_gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation, from full-size temporaries (about eight in the backward)."""
    c = math.sqrt(2.0 / math.pi)
    x3 = x.data * x.data * x.data
    u = c * (x.data + 0.044715 * x3)
    t = np.tanh(u)
    data = (0.5 * x.data * (1.0 + t)).astype(x.dtype)

    def backward(g):
        du = c * (1.0 + 3 * 0.044715 * x.data * x.data)
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
        x.node._accumulate(g * dx)

    return _make(data, (x,), backward)


def reference_gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`tensor.gelu_forward` as one whole-array op sequence, before it ran in
    tiles: the output and t = tanh(c * (x + 0.044715 x^3))."""
    c = math.sqrt(2.0 / math.pi)
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= c
    np.tanh(t, out=t)
    data = t + 1.0
    data *= x
    data *= 0.5
    return data, t


def reference_gelu_backward(x: np.ndarray, t: np.ndarray, g: np.ndarray,
                            du: np.ndarray | None = None) -> np.ndarray:
    """`tensor.gelu_backward` as one whole-array op sequence, before it ran in
    tiles; `du` is scratch of x's shape (it may be `x`)."""
    dx = t * t
    np.subtract(1.0, dx, out=dx)
    dx *= x
    du = np.multiply(x, x, out=du)
    du *= 3 * 0.044715
    du += 1.0
    du *= math.sqrt(2.0 / math.pi)
    dx *= du
    del du
    dx += t
    dx += 1.0
    dx *= 0.5
    dx *= g
    return dx


def reference_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """`layer_norm` with the backward it replaced: about six full-size
    temporaries for dx, in the same operation order as the in-place version."""
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xc * ivar
    data = xhat * gain.data
    data += bias.data

    def backward(g):
        if bias.requires_grad:
            bias.node._accumulate(g.reshape(-1, n).sum(axis=0))
        if gain.requires_grad:
            gain.node._accumulate((g * xhat).reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            dx = ivar * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            x.node._accumulate(dx)

    return _make(data, (x, gain, bias), backward)


def reference_ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The three-node feed-forward branch that `tensor.ffn` replaced: it keeps
    the pre-activation, GELU's t and the GELU output until the backward."""
    return linear(gelu(linear(x, w1, b1)), w2, b2)


def reference_joint_step(trainer, ids) -> None:
    """`RtdPretrainer.step` as it was before the generator's CE was
    backpropagated on its own: the generator's graph and logits stay alive
    through the discriminator's forward, the discriminator's head is the
    three-node composition, and one backward of `rtd_loss(gen_ce, disc_bce)`
    feeds the optimizer step. Patch `blf.encoder.ffn` with `reference_ffn`
    for the blocks' old composition too."""
    batch = trainer.build_batch(ids)
    B, L = batch.original_ids.shape
    gen_ce = cross_entropy(batch.gen_logits, batch.original_ids[batch.masked_positions])
    disc_hidden = trainer.disc.forward(batch.corrupted_ids, batch.roles, train=True, rng=trainer.rngs["dropout"])
    disc_logits = reshape(reference_ffn(disc_hidden, trainer.disc_head_w1, trainer.disc_head_b1,
                                        trainer.disc_head_w2, trainer.disc_head_b2), (B, L))
    disc_bce = bce_with_logits(disc_logits, batch.disc_labels.astype(np.float32), ignore_mask=batch.padding_mask)
    rtd_loss(gen_ce, disc_bce, trainer.hyper.disc_weight).backward()
    trainer.opt.step()


def reference_cross_entropy(logits: Tensor, targets: np.ndarray, ignore_label: int = -100) -> Tensor:
    """`cross_entropy` with every [N, V] temporary it used to make: `logits - m`
    twice, the full log-probabilities and an unscaled gradient copy."""
    targets = np.asarray(targets)
    n, v = logits.shape
    keep = targets != ignore_label
    count = int(keep.sum())
    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=1, keepdims=True)
    if count == 0:
        return _make(np.zeros((), dtype=logits.dtype), (logits,),
                     lambda g: logits.node._accumulate(np.zeros_like(logits.data)))
    log_probs = (logits.data - m) - np.log(z)
    nll = -log_probs[np.arange(n), targets * keep]
    data = np.asarray((nll * keep).sum() / count, dtype=logits.dtype)

    def backward(g):
        probs = e / z
        probs[np.arange(n)[keep], targets[keep]] -= 1.0
        probs[~keep] = 0.0
        logits.node._accumulate(probs * (float(g) / count))

    return _make(data, (logits,), backward)


def reference_sample_replacements(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """`sample_replacements` with a new float64 array per stage."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericError("generator logits are not finite")
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    c = np.cumsum(p, axis=-1)
    u = rng.random((z.shape[0], 1))
    return np.minimum((c < u).sum(axis=-1), z.shape[-1] - 1).astype(np.int64)


def reference_adamw_step(opt) -> float:
    """`AdamW.step` as it was before it ran in place: a new array per
    operation. Updates the optimizer's parameters and moments and returns the
    learning rate used."""
    opt.step_count += 1
    lr = opt.current_lr()
    b1, b2 = opt.betas
    t = opt.step_count
    for p in opt.params:
        g = p.grad
        m = opt._m[p.name]
        v = opt._v[p.name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p.data -= lr * (mhat / (np.sqrt(vhat) + opt.eps) + opt.weight_decay * p.data)
        p.grad[...] = 0.0
    return lr


def full_tail_forward(encoder):
    """`encoder.forward` with its `rows` read after the full output: every
    row runs through the last block's FFN and the final norm, then
    `embedding` picks `rows`. The full-row oracle for `forward(rows=)`."""
    forward = encoder.forward

    def run(ids, roles, train=False, rng=None, rows=None):
        out = forward(ids, roles, train, rng)
        return out if rows is None else embedding(out, rows)

    return run


def reference_full_head_step(trainer, ids):
    """`RtdPretrainer.step` up to `total.backward()`, with the generator head
    and tail it replaced: the generator runs its last block's FFN and final
    norm at all B·L rows (no `rows`), all of them are projected onto the tied
    vocabulary ([B, L, V] logits), sampling reads the masked rows, and the
    cross-entropy ignores the others through -100 targets. Draws from the
    trainer's rng streams in the same order as `step`. Returns (batch,
    gen_ce, total)."""
    ids = np.asarray(ids)
    B, L = ids.shape
    V = trainer.config.vocab_size
    padding = ids == trainer.pad_id
    gen_input, masked = mask_tokens(ids, trainer.mask_id, trainer.special_ids, trainer.hyper.mlm_probability,
                                    trainer.rngs["mask"])
    gen_hidden = trainer.gen.forward(gen_input, make_roles(ids, pad_id=trainer.pad_id), train=True,
                                     rng=trainer.rngs["dropout"])
    gen_logits = linear(gen_hidden, transpose(trainer.disc.tok_emb, (1, 0)), trainer.gen_head_bias)
    masked_flat = masked.reshape(-1)
    corrupted = ids.copy()
    if masked_flat.any():
        flat_logits = gen_logits.data.reshape(-1, V)
        corrupted.reshape(-1)[masked_flat] = sample_replacements(flat_logits[masked_flat], trainer.rngs["sample"])
    labels = build_disc_labels(ids, corrupted, masked)
    batch = RtdBatch(ids, masked, gen_input, corrupted, labels, padding, gen_logits)

    gen_ce = reference_cross_entropy(reshape(gen_logits, (B * L, V)), np.where(masked, ids, -100).reshape(-1))
    disc_hidden = trainer.disc.forward(corrupted, make_roles(ids, pad_id=trainer.pad_id), train=True,
                                       rng=trainer.rngs["dropout"])
    h = gelu(linear(disc_hidden, trainer.disc_head_w1, trainer.disc_head_b1))
    disc_logits = reshape(linear(h, trainer.disc_head_w2, trainer.disc_head_b2), (B, L))
    disc_bce = bce_with_logits(disc_logits, labels.astype(np.float32), ignore_mask=padding)
    total = rtd_loss(gen_ce, disc_bce, trainer.hyper.disc_weight)
    total.backward()
    return batch, gen_ce, total


# --- simulated kills during a checkpoint save ---------------------------------------------


class Killed(BaseException):
    """The process dying at a chosen step of a checkpoint save."""


class _KillableFile:
    """A file opened for writing whose first write is one of the save's steps;
    a kill there lets half of that write's bytes reach the file first."""

    def __init__(self, f, name, step):
        self._f, self._name, self._step, self._started = f, name, step, False

    def write(self, data):
        if not self._started:
            self._started = True
            try:
                self._step(f"write {self._name}")
            except Killed:
                self._f.write(data[: len(data) // 2])
                self._f.close()
                raise
        return self._f.write(data)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@contextmanager
def killed_save(monkeypatch, at):
    """Within the block, count the file-system steps that `blf.checkpoint`
    takes and raise `Killed` at the one that `at` names: its index, or its
    label. Labels are "open <file>" (a file opened for writing), "write <file>"
    (its first write), "fsync", "rename <source>" and "rmtree <dir>" (of a
    directory that exists). Yields the list of labels seen so far."""
    steps = []

    def step(label):
        steps.append(label)
        if at in (len(steps) - 1, label):
            raise Killed(label)

    def fake_open(path, mode="r", *args, **kwargs):
        if "w" not in mode:
            return builtins.open(path, mode, *args, **kwargs)
        step(f"open {Path(path).name}")
        return _KillableFile(builtins.open(path, mode, *args, **kwargs), Path(path).name, step)

    def counted(fn, label):
        def run(path, *args, **kwargs):
            step(label(path))
            return fn(path, *args, **kwargs)
        return run

    def counted_rmtree(path, *args, **kwargs):
        if Path(path).exists():
            step(f"rmtree {Path(path).name}")
        return real_rmtree(path, *args, **kwargs)

    real_rmtree = shutil.rmtree
    with monkeypatch.context() as m:
        m.setattr(checkpoint, "open", fake_open, raising=False)
        m.setattr(os, "fsync", counted(os.fsync, lambda fd: "fsync"))
        for name in ("rename", "replace"):
            m.setattr(os, name, counted(getattr(os, name), lambda src: f"rename {Path(src).name}"))
        m.setattr(shutil, "rmtree", counted_rmtree)
        yield steps


def reference_bpe(model, pretoken: str) -> list[int]:
    """Ids of one pretoken by the per-word rule: merge every non-overlapping
    occurrence of the lowest-rank adjacent pair, left to right, until no pair
    has a rank."""
    symbols = _word_symbols(pretoken)
    while len(symbols) > 1:
        best = None
        best_rank = None
        for pair in zip(symbols, symbols[1:]):
            rank = model.merge_ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best, best_rank = pair, rank
        if best is None:
            break
        a, b = best
        merged = []
        i = 0
        while i < len(symbols):
            if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
                merged.append(a + b)
                i += 2
            else:
                merged.append(symbols[i])
                i += 1
        symbols = tuple(merged)
    return [model.token_to_id[s] for s in symbols]


def reference_encode(model, text: str) -> list[int]:
    return [i for pre in pretokenize(text) for i in reference_bpe(model, pre)]


def reference_train_tokenizer(corpus, vocab_size: int = 64000) -> ByteBpeModel:
    """`bpe.train_tokenizer` as it was before the incremental pair update: for
    every word that holds the merged pair, subtract all of the word's pairs,
    rebuild the word, add all its pairs back and push every one of them onto
    the heap again. The merge oracle for corpora too large for
    `brute_force_merges`."""
    base = 256 + len(SPECIAL_TOKENS)
    if vocab_size <= base:
        raise UsageError(f"vocab_size must exceed {base} (bytes + specials), got {vocab_size}")

    word_freq: Counter[tuple[str, ...]] = Counter()
    empty = True
    for text in corpus:
        if text:
            empty = False
        for pre in pretokenize(text):
            word_freq[_word_symbols(pre)] += 1
    if empty:
        raise UsageError("cannot train a tokenizer on an empty corpus")

    words: list[list[str]] = []
    freqs: list[int] = []
    for w, c in word_freq.items():
        words.append(list(w))
        freqs.append(c)

    pair_counts: Counter[tuple[str, str]] = Counter()
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
        merged_sym = a + b
        merges.append(pair)
        if merged_sym not in produced:
            produced.add(merged_sym)
            n_tokens += 1

        touched: set[tuple[str, str]] = set()
        for idx in sorted(pair_words[pair]):
            w = words[idx]
            f = freqs[idx]
            for old_pair in zip(w, w[1:]):
                pair_counts[old_pair] -= f
                touched.add(old_pair)
            new_w = []
            i = 0
            while i < len(w):
                if i + 1 < len(w) and w[i] == a and w[i + 1] == b:
                    new_w.append(merged_sym)
                    i += 2
                else:
                    new_w.append(w[i])
                    i += 1
            words[idx] = new_w
            for new_pair in zip(new_w, new_w[1:]):
                pair_counts[new_pair] += f
                touched.add(new_pair)
                pair_words[new_pair].add(idx)
        del pair_words[pair]
        for t in touched:
            c = pair_counts.get(t, 0)
            if c <= 0:
                pair_counts.pop(t, None)
            else:
                heapq.heappush(heap, (-c, t))

    return ByteBpeModel(merges)
