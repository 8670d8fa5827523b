"""The attention kernels: sliding-window attention with optional global
tokens for the encoder, dense attention for the decoder, and a dense oracle.

Per-token roles: padding attends to nothing and is attended by nothing; local
tokens attend inside a +-window/2 band and to every global token; global
tokens attend to all non-padding tokens through separate global projections.
The sparse path touches O(seq * window) score entries, never the full n^2
matrix; the dense oracle exists only as a reference for equivalence tests.

`sliding_window_attention` is one graph node with a hand-written backward,
built on Longformer's sliding-chunks layout. Queries go in chunks of c rows
(`_chunk_size`: 16 at window 8, 32 at 64, 128 at 256); chunk m meets its
c + window keys through one strided window view of the zero-padded K or V,
so QK^T, P.V and the backward's dP and dq are each one batched gemm over
chunks. The band is read out of a dense [c, c + window] chunk, and written
into one, through a single strided diagonal view. dk and dv are summed back
onto the sequence by an overlap-add (`_overlap_add`): ceil((c + window) / c)
gemms, each added onto one set of non-overlapping strided rows, so no
scatter with repeated indices is left. Every gemm's inner extent is D, c or
c + window, never a row count.

Scores are stored band-major, [B, H, W + G, S] (W = window + 1 band columns,
then G global columns, S rounded up to whole chunks), so the softmax and the
backward's sum of p * dp reduce across contiguous S-vectors. Local rows take
one softmax over their band plus the global columns; global rows are
selected by index and attend every non-padding token. The node saves only
the probabilities. The forward makes its dense chunks a group at a time in
one buffer no larger than the probabilities, first for QK^T, then zeroed
for P (its off-band entries stay zero, so only the band is rewritten); the
backward reuses one whole dense buffer the same way for P and then dS. The
chunk padding is not counted as work: `tensor.work()` gets the band's
useful multiply-adds. q, k and v (and the global projections) may be strided
views, as `encoder.split_heads` hands them over: the gemms read zero-padded
copies, with K (forward) and V (backward) stored head-dim-major so that the
QK^T-shaped gemms read unit-stride rows. The per-row band kernel this
replaced is `reference_band_attention`, and the ~15-node autodiff graph
before it `reference_sliding_window_attention`, both in tests/helpers.py.

`dense_attention` is the decoder's causal self-attention and its
cross-attention over the encoder output: one graph node built on the array
forward `dense_attention_forward`, which the cached decoder step calls
directly. It keeps C-ordered q, K^T and V and the probabilities, where the
five-op composition it replaced (`reference_attend` in tests/helpers.py)
kept four [B, h, T, S] arrays, and gives that composition's bytes.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ConfigError, ShapeError
from .tensor import NEG_INF, Tensor, _add_work, _make, _product, softmax_, softmax_backward_

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


def _chunk_size(window: int) -> int:
    """Queries per chunk for a window: picked by a sweep at windows 8, 64 and
    256 (16 won at 8, 32 at 64, 128 at 256)."""
    return max(16, window // 2)


def _padded(x: np.ndarray, before: int, rows: int, transposed: bool = False) -> np.ndarray:
    """[B, H, S, D] -> zeros [B, H, rows, D] holding x from row `before`:
    C-ordered, or with each head's block stored [D, rows] if `transposed`."""
    B, H, S, D = x.shape
    if transposed:
        out = np.zeros((B, H, D, rows), dtype=x.dtype).swapaxes(-1, -2)
    else:
        out = np.zeros((B, H, rows, D), dtype=x.dtype)
    out[:, :, before : before + S] = x
    return out


def _windows(x: np.ndarray, n: int, c: int, length: int) -> np.ndarray:
    """[B, H, N, D] -> read-only view [B, H, n, length, D]: window m is rows
    m * c .. m * c + length - 1 of x."""
    s0, s1, s2, s3 = x.strides
    B, H, _, D = x.shape
    return as_strided(x, (B, H, n, length, D), (s0, s1, c * s2, s2, s3), writeable=False)


def _diagonal(dense: np.ndarray, W: int) -> np.ndarray:
    """[..., c, L] -> view [..., c, W] whose entry (r, t) is entry (r, r + t)."""
    *lead, rs, cs = dense.strides
    return as_strided(dense, (*dense.shape[:-1], W), (*lead, rs + cs, cs))


def _overlap_add(a: np.ndarray, b: np.ndarray, c: int) -> np.ndarray:
    """The adjoint of `_windows` applied to the chunk products a @ b
    ([B, H, n, L, c] @ [B, H, n, c, D]): row l of product m adds into row
    m * c + l of the [B, H, (n + k - 1) * c, D] result, k = ceil(L / c).
    Rows j * c .. j * c + c - 1 of every product land on distinct rows, so
    the sum is k products, each added onto one non-overlapping strided slice;
    the first is written there directly."""
    B, H, n, L, _ = a.shape
    D = b.shape[-1]
    k = -(-L // c)
    out = np.zeros((B, H, (n + k - 1) * c, D), dtype=b.dtype)
    for j in range(k):
        rows = out[:, :, j * c : (j + n) * c].reshape(B, H, n, c, D)[:, :, :, : L - j * c]
        part = a[:, :, :, j * c : (j + 1) * c]
        if j == 0:
            np.matmul(part, b, out=rows)
        else:
            rows += part @ b
    return out


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

    # queries in n chunks of c rows; chunk m meets keys m*c - half .. m*c + c - 1 + half
    c = _chunk_size(window)
    n = -(-S // c)
    Sp = n * c
    L = c + window

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

    def band(x: np.ndarray) -> np.ndarray:
        """Band-major [B, H, W + G, Sp] -> view [B, H, n, c, W] of its band rows."""
        return x[:, :, :W].reshape(B, H, W, n, c).transpose(0, 1, 3, 4, 2)

    def scaled_queries() -> np.ndarray:
        qs = _padded(q.data, 0, Sp)
        qs *= scale
        return qs

    def key_windows(x: np.ndarray, transposed: bool = False) -> np.ndarray:
        """[B, H, n, L, D] windows of x padded by `half` rows; `transposed` gives
        them as [B, H, n, D, L] with unit-stride rows, for gemms against q and g."""
        windows = _windows(_padded(x, half, Sp + window, transposed), n, c, L)
        return windows.swapaxes(-1, -2) if transposed else windows

    # a band column is attendable unless out of range, padding, or global
    # (global columns are handled separately so no column is counted twice)
    ok = np.zeros((B, Sp + window), dtype=bool)
    ok[:, half : half + S] = ~is_pad & ~is_glob
    is_local = np.zeros((B, Sp), dtype=bool)
    is_local[:, :S] = roles == LOCAL

    # scores are band-major, [B, H, W + G, Sp]: the softmax reduces across rows
    qs = scaled_queries()  # recomputed in backward, so only probabilities are kept
    k_cols = rows_at_globals(k.data)
    v_cols = rows_at_globals(v.data)
    # the dense chunks are the forward's largest transient: they are made
    # `per` chunks at a time in one buffer no larger than the probabilities
    per = -(-n // -(-L // (W + G)))
    buffer = np.empty((B, H, min(per, n), c, L), dtype=q.dtype)
    probs = np.empty((B, H, W + G, Sp), dtype=q.dtype)
    q_chunks = qs.reshape(B, H, n, c, D)
    k_windows = key_windows(k.data, transposed=True)
    for m in range(0, n, per):
        dense = buffer[:, :, : min(per, n - m)]
        np.matmul(q_chunks[:, :, m : m + per], k_windows[:, :, m : m + per], out=dense)
        band(probs)[:, :, m : m + per] = _diagonal(dense, W)
    del k_windows
    probs[:, :, W:] = k_cols @ qs.swapaxes(-1, -2)
    np.copyto(probs[:, :, :W], NEG_INF, where=~sliding_window_view(ok, Sp, axis=1)[:, None])
    np.copyto(probs[:, :, W:], NEG_INF, where=~row_valid[:, None, :, None])
    softmax_(probs, axis=-2)
    # rows that are not local attend through the global path, or not at all
    probs *= is_local[:, None, None, :]
    buffer[...] = 0
    v_windows = key_windows(v.data)
    for m in range(0, n, per):
        dense = buffer[:, :, : min(per, n - m)]
        _diagonal(dense, W)[...] = band(probs)[:, :, m : m + per]
        # the output takes over the scaled queries' buffer
        np.matmul(dense, v_windows[:, :, m : m + per], out=q_chunks[:, :, m : m + per])
    out = qs.reshape(B, H, Sp, D)[:, :, :S]
    del buffer, dense, v_windows, q_chunks, qs
    _add_work(B * H * S * (2 * W * D + 3 * (W + G)))

    if G:
        out += probs[:, :, W:, :S].swapaxes(-1, -2) @ v_cols
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
        def onto_keys(x: np.ndarray) -> np.ndarray:
            """Chunk products dense^T @ x, overlap-added onto the S key rows."""
            chunks = x.reshape(B, H, n, c, D)
            return np.ascontiguousarray(_overlap_add(dense.swapaxes(-1, -2), chunks, c)[:, :, half : half + S])

        gp = _padded(g, 0, Sp)
        dense = gp.reshape(B, H, n, c, D) @ key_windows(v.data, transposed=True)
        d_scores = np.empty_like(probs)
        band(d_scores)[...] = _diagonal(dense, W)
        d_scores[:, :, W:] = v_cols @ gp.swapaxes(-1, -2)
        # one dense chunk buffer serves P, then dS: only its band is ever rewritten
        dense[...] = 0
        _diagonal(dense, W)[...] = band(probs)
        dv = onto_keys(gp)
        del gp
        softmax_backward_(probs, d_scores, axis=-2)
        _diagonal(dense, W)[...] = band(d_scores)
        dq = (dense @ key_windows(k.data)).reshape(B, H, Sp, D)[:, :, :S]
        qs = scaled_queries()
        dk = onto_keys(qs)
        del dense
        if G:
            ds_glob = d_scores[:, :, W:, :S]
            dq += ds_glob.swapaxes(-1, -2) @ k_cols
            dk[bi, :, gpos] += (ds_glob @ qs[:, :, :S])[bi, :, gi]
            dv[bi, :, gpos] += (probs[:, :, W:, :S] @ g)[bi, :, gi]
        del d_scores, qs
        dq *= scale
        grads = [(q, dq), (k, dk), (v, dv)]

        if G:
            g_rows = rows_at_globals(g)
            d_probs_g = g_rows @ v_global.data.swapaxes(-1, -2)
            ds_g = softmax_backward_(probs_g, d_probs_g)
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


def dense_attention_forward(q: np.ndarray, k_t: np.ndarray, v: np.ndarray,
                            bias: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention of per-head queries q [..., T, D] over
    K^T [..., D, S] and V [..., S, D], with `bias` (in q's dtype) added to the
    scores: the output [..., T, D] and the probabilities [..., T, S]. The two
    products go through `_product`, which counts them."""
    scores = _product(q, k_t) * q.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    if bias is not None:
        scores += bias
    return _product(softmax_(scores), v), scores


def dense_attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """`dense_attention_forward` of q [B, h, T, D] over k and v [B, h, S, D]
    as one graph node; `bias` broadcasts onto the scores [B, h, T, S] and is
    cast to their dtype.

    The node keeps C-ordered q, K^T and V (copies only of strided views) and
    the probabilities. Its outputs, gradients and work count are those of the
    composition it replaced (`matmul`, `mul`, `add`, `softmax`, `matmul`).
    """
    if not q.dtype == k.dtype == v.dtype:
        raise ShapeError(f"dtype mismatch: {q.dtype}, {k.dtype} and {v.dtype}")
    if len(q.shape) != 4 or k.shape != v.shape or q.shape[:2] != k.shape[:2] or q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention needs q [B, h, T, D] and k, v [B, h, S, D], "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    qd, vd = np.ascontiguousarray(q.data), np.ascontiguousarray(v.data)
    k_t = np.ascontiguousarray(k.data.swapaxes(-1, -2))
    if bias is not None:
        bias = np.asarray(bias, dtype=q.dtype)
    out, probs = dense_attention_forward(qd, k_t, vd, bias)
    _add_work((4 if bias is None else 5) * probs.size)  # scale, bias and softmax

    def backward(g):
        if v.requires_grad:
            v._accumulate(probs.swapaxes(-1, -2) @ g)
        d_scores = softmax_backward_(probs, g @ vd.swapaxes(-1, -2))
        d_scores *= q.dtype.type(1.0 / math.sqrt(q.shape[-1]))
        if q.requires_grad:
            q._accumulate(d_scores @ k_t.swapaxes(-1, -2))
        if k.requires_grad:
            k._accumulate((qd.swapaxes(-1, -2) @ d_scores).swapaxes(-1, -2))

    return _make(out, (q, k, v), backward)
