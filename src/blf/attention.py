"""Sliding-window attention with optional global tokens, plus a dense oracle.

Per-token roles: padding attends to nothing and is attended by nothing; local
tokens attend inside a +-window/2 band and to every global token; global
tokens attend to all non-padding tokens through separate global projections.
The sparse path touches O(seq * window) score entries, never the full n^2
matrix; the dense oracle exists only as a reference for equivalence tests.

`sliding_window_attention` is one graph node with a hand-written backward.
Its q, k and v (and the global projections) may be strided views, as
`encoder.split_heads` hands them over: the band reads copy them into padded
buffers, the products read them with unit stride along the head dimension,
and the scaled queries are made C-ordered.
K and V are padded by window/2 on the sequence axis and the band is read
through a strided view of the padded buffer (no index array, no gathered
copy), after Longformer's sliding-chunks kernel. Local rows take one softmax
over their band plus the global columns; global rows are selected by index
and attend every non-padding token. The node saves only the probabilities:
the backward reads the band through the same view for dq, and for dk/dv
reads the band of q and of the upstream gradient against a skewed copy of
the band weights (one strided view of them), so no scatter with repeated
indices (np.add.at) is left. The ~15-node autodiff graph this
replaced is `reference_sliding_window_attention` in tests/helpers.py.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ConfigError, ShapeError
from .tensor import NEG_INF, Tensor, _add_work, _make, softmax_

PAD, LOCAL, GLOBAL = 0, 1, 2


def build_attention_mask(roles: np.ndarray, window: int) -> np.ndarray:
    """Boolean [B, S, S] matrix: entry (i, j) true iff token i may attend j.

    Single-projection (tied) semantics; feeds the dense oracle.
    """
    if window % 2 != 0 or window <= 0:
        raise ConfigError(f"window must be even and positive, got {window}")
    B, S = roles.shape
    half = window // 2
    pos = np.arange(S)
    band = np.abs(pos[:, None] - pos[None, :]) <= half  # [S, S]
    nonpad_col = (roles != PAD)[:, None, :]  # [B, 1, S]
    glob_col = (roles == GLOBAL)[:, None, :]
    local_row = (roles == LOCAL)[:, :, None]
    glob_row = (roles == GLOBAL)[:, :, None]
    allowed = np.zeros((B, S, S), dtype=bool)
    allowed |= local_row & (band[None] | glob_col) & nonpad_col
    allowed |= glob_row & nonpad_col
    return allowed


def dense_attention_oracle(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Full O(n^2) masked attention, numpy only. Reference semantics.

    q, k, v: [B, H, S, D]; mask: [B, S, S] boolean (true = may attend).
    Rows with no allowed column produce zeros.
    """
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = np.matmul(q * scale, np.swapaxes(k, -1, -2))  # [B, H, S, S]
    scores = np.where(mask[:, None, :, :], scores, NEG_INF)
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    denom = e.sum(axis=-1, keepdims=True)
    probs = e / denom
    out = np.matmul(probs, v)
    any_allowed = mask.any(axis=-1)[:, None, :, None]  # [B, 1, S, 1]
    return np.where(any_allowed, out, 0.0)


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


def sliding_window_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    window: int,
    roles: np.ndarray,
    q_global: Tensor | None = None,
    k_global: Tensor | None = None,
    v_global: Tensor | None = None,
) -> Tensor:
    """Banded attention over [B, H, S, D] inputs, as one differentiable node.

    Global projections default to the local ones, which makes the whole op
    equivalent to dense attention under build_attention_mask.
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
                t._accumulate(grad)

    parents = (q, k, v, q_global, k_global, v_global) if G else (q, k, v)
    return _make(out, parents, backward)
