"""The fused sliding-window attention node against the autodiff graph it replaced.

`reference_sliding_window_attention` (tests/helpers.py) builds the old
~15-node graph; the fused node must give the same output and the same
gradients for q, k, v and the three global projections. The chunked kernel
is also checked against the per-row band kernel it replaced
(`reference_band_attention`): values, memory, and bytes that do not depend
on the BLAS thread count.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blf import tensor as T
from blf.attention import GLOBAL, LOCAL, PAD, sliding_window_attention
from blf.errors import NumericError
from blf.rng import substream
from blf.tensor import Parameter, Tensor

import blf
from helpers import finite_difference_check, reference_band_attention, reference_sliding_window_attention

NAMES = ("q", "k", "v", "qg", "kg", "vg")
TOL = {np.float64: 1e-12, np.float32: 1e-5}


def ragged_roles(rng, B, S, n_global):
    """Random padding, then n_global[b] global tokens at random places in row b."""
    roles = np.full((B, S), LOCAL, dtype=np.int64)
    roles[rng.random((B, S)) < 0.2] = PAD
    for b, n in enumerate(n_global):
        roles[b, rng.choice(S, size=min(n, S), replace=False)] = GLOBAL
    return roles


def nodes_created(out, inputs) -> int:
    """Graph nodes reachable from `out` without passing through `inputs`."""
    stop = {id(t) for t in inputs}
    seen: set[int] = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in stop:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def forward_backward(fn, data, weights, window, roles, dtype, separate):
    """Output and the grads of all six inputs under loss = sum(out * weights)."""
    params = [Parameter(d, name, dtype=dtype) for name, d in zip(NAMES, data)]
    glob = params[3:] if separate else []
    out = fn(*params[:3], window, roles, *glob)
    T.tsum(T.mul(out, weights.astype(dtype))).backward()
    return out.data, {p.name: p.grad for p in params}


def assert_matches_reference(rng, B, H, S, D, window, roles, dtype, separate):
    data = [rng.standard_normal((B, H, S, D)) for _ in NAMES]
    weights = rng.standard_normal((B, H, S, D))
    got, got_grads = forward_backward(
        sliding_window_attention, data, weights, window, roles, dtype, separate
    )
    want, want_grads = forward_backward(
        reference_sliding_window_attention, data, weights, window, roles, dtype, separate
    )
    assert got.dtype == want.dtype
    tol = TOL[dtype]
    assert np.max(np.abs(got - want), initial=0.0) <= tol
    for name in NAMES:
        diff = np.max(np.abs(got_grads[name] - want_grads[name]), initial=0.0)
        assert diff <= tol, f"d{name} differs by {diff:.3g}"


class TestMatchesReferenceGraph:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_roles_ragged_globals(self, seed, dtype):
        rng = substream(seed, "fused-ref")
        B = int(rng.integers(2, 4))
        H = int(rng.integers(1, 3))
        S = int(rng.integers(4, 40))
        window = int(rng.choice([2, 4, 8]))
        # 0 to 3 global tokens per batch row, never the same count in every row
        n_global = [0, 3] + [int(n) for n in rng.integers(0, 4, size=B - 2)]
        roles = ragged_roles(rng, B, S, n_global)
        assert_matches_reference(rng, B, H, S, 4, window, roles, dtype, separate=seed % 2 == 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("window", [2, 4, 8])
    def test_local_and_padding_only(self, window, dtype):
        rng = substream(window, "fused-local")
        roles = ragged_roles(rng, 2, 23, [0, 0])
        assert_matches_reference(rng, 2, 2, 23, 8, window, roles, dtype, separate=False)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("S", [1, 5, 12])
    def test_window_at_least_sequence(self, S, dtype):
        rng = substream(S, "fused-cover")
        roles = ragged_roles(rng, 2, S, [1, 0])
        window = S + S % 2
        assert_matches_reference(rng, 2, 2, S, 4, window, roles, dtype, separate=True)
        assert_matches_reference(rng, 2, 2, S, 4, 2 * S + 2, roles, dtype, separate=False)


class TestFusedNode:
    def test_finite_differences_with_separate_global_projections(self):
        rng = substream(0, "fused-fd")
        B, H, S, D, window = 2, 2, 9, 3, 4
        roles = ragged_roles(rng, B, S, [2, 1])
        params = [
            Parameter(rng.standard_normal((B, H, S, D)), name, dtype=np.float64) for name in NAMES
        ]
        weights = rng.standard_normal((B, H, S, D))

        def make_loss():
            out = sliding_window_attention(*params[:3], window, roles, *params[3:])
            return T.tsum(T.mul(out, weights))

        finite_difference_check(make_loss, params, substream(1, "fused-fd-pick"))

    @pytest.mark.parametrize("with_global", [False, True])
    def test_one_call_adds_one_graph_node(self, with_global):
        rng = substream(1, "fused-nodes")
        B, H, S, D = 2, 2, 16, 4
        roles = ragged_roles(rng, B, S, [1, 2] if with_global else [0, 0])
        inputs = [
            Parameter(rng.standard_normal((B, H, S, D)), name, dtype=np.float32) for name in NAMES
        ]
        glob = inputs[3:] if with_global else []
        fused = sliding_window_attention(*inputs[:3], 4, roles, *glob)
        graph = reference_sliding_window_attention(*inputs[:3], 4, roles, *glob)
        assert nodes_created(fused, inputs) == 1
        assert nodes_created(graph, inputs) > 10

    def test_nan_score_raises(self):
        rng = substream(2, "fused-nan")
        roles = np.full((1, 8), LOCAL, dtype=np.int64)
        q, k, v = (Tensor(rng.standard_normal((1, 1, 8, 4))) for _ in range(3))
        q.data[0, 0, 3, 0] = np.nan
        with pytest.raises(NumericError):
            sliding_window_attention(q, k, v, 4, roles)

    def test_nan_global_score_raises(self):
        rng = substream(3, "fused-nan-global")
        roles = np.full((1, 8), LOCAL, dtype=np.int64)
        roles[0, 0] = GLOBAL
        q, k, v, qg = (Tensor(rng.standard_normal((1, 1, 8, 4))) for _ in range(4))
        qg.data[0, 0, 0, 1] = np.nan
        with pytest.raises(NumericError):
            sliding_window_attention(q, k, v, 4, roles, qg, k, v)


REL = {np.float64: 1e-12, np.float32: 2e-6}


class TestMatchesOldKernel:
    """Each output and gradient within REL of the per-row band kernel,
    relative to that array's largest entry."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("S", [5, 130, 300, "below the window"])
    @pytest.mark.parametrize("window", [2, 8, 30, 64, 256])
    def test_chunk_edges_padding_and_globals(self, window, S, dtype):
        # chunks are 16, 16, 16, 32 and 128 rows: no S here is a multiple
        S = window - 1 if S == "below the window" else S
        rng = substream(window * 1000 + S, "chunked-vs-band")
        for G in (0, 1, 2):
            roles = ragged_roles(rng, 3, S, [G, G // 2, 0])
            roles[2] = PAD  # a batch row with no token at all
            data = [rng.standard_normal((3, 2, S, 8)) for _ in NAMES]
            weights = rng.standard_normal((3, 2, S, 8))
            separate = G == 1
            got, got_grads = forward_backward(
                sliding_window_attention, data, weights, window, roles, dtype, separate
            )
            want, want_grads = forward_backward(
                reference_band_attention, data, weights, window, roles, dtype, separate
            )
            assert got.dtype == want.dtype
            for name, a, b in [("out", got, want)] + [(n, got_grads[n], want_grads[n]) for n in NAMES]:
                diff = np.max(np.abs(a - b), initial=0.0)
                assert diff <= REL[dtype] * np.max(np.abs(b), initial=0.0), f"{name}, G={G}: {diff:.3g}"


@pytest.mark.parametrize("n_global", [0, 1])
def test_memory_at_the_tiny_shape(n_global):
    """The traced peak of one forward and backward at the `tiny` step's shape
    (B=16, H=4, L=128, D=16, window 8) is at most the per-row band kernel's.
    q, k, v and the upstream gradient are strided views, as the encoder hands
    them over."""
    B, H, S, D = 16, 4, 128, 16
    rng = substream(n_global, "chunked-memory")
    roles = np.full((B, S), LOCAL, dtype=np.int64)
    roles[:, :n_global] = GLOBAL
    projections = rng.standard_normal((3, B, S, H, D)).astype(np.float32)
    g = rng.standard_normal((B, S, H, D)).astype(np.float32).transpose(0, 2, 1, 3)

    def peak(fn):
        q, k, v = (T.transpose(Parameter(p, name, dtype=np.float32), (0, 2, 1, 3))
                   for p, name in zip(projections, NAMES))
        tracemalloc.start()
        try:
            fn(q, k, v, 8, roles)._backward(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(sliding_window_attention) <= peak(reference_band_attention)


THREADS_PROBE = """
import hashlib
import numpy as np
from blf.attention import GLOBAL, LOCAL, sliding_window_attention
from blf.tensor import Parameter

digest = hashlib.sha256()
for shape, window, n_global in [((16, 4, 128, 16), 8, 0), ((16, 4, 128, 16), 8, 1),
                                ((1, 4, 1024, 16), 64, 1), ((2, 4, 512, 64), 64, 0)]:
    rng = np.random.default_rng(window + n_global)
    roles = np.full((shape[0], shape[2]), LOCAL)
    roles[:, :n_global] = GLOBAL
    q, k, v = (Parameter(rng.standard_normal(shape), name, dtype=np.float32) for name in "qkv")
    out = sliding_window_attention(q, k, v, window, roles)
    out._backward(rng.standard_normal(shape).astype(np.float32))
    for a in (out.data, q.grad, k.grad, v.grad):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_bytes_do_not_depend_on_the_blas_thread_count():
    """The chunk gemms' inner extents are D, c and c + window, never a row
    count, so one and two BLAS threads give the same output and gradients."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(blf.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREADS_PROBE], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
