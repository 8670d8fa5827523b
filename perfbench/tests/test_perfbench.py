"""Tests of the benchmark's own logic: tail selection, self time, spans and generators."""

from __future__ import annotations

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gen  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def test_tail_is_the_sample_with_ten_beyond_it():
    values = list(range(50, 0, -1))  # 1..50, unsorted
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (40, 80.0, 50)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND


def test_tail_at_twenty_samples_is_the_median_rank():
    value, pct, n = stats.tail([float(i) for i in range(1, 21)])
    assert (value, pct, n) == (10.0, 50.0, 20)


def test_tail_falls_back_to_the_maximum_below_twenty_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail([float(i) for i in range(19)]) == (18.0, 100.0, 19)
    with pytest.raises(ValueError):
        stats.tail([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10]; children [1, 4] and [3, 5] overlap, [6, 7]; grandchild [1.5, 2] inside the first
    recorded = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 5.0, 0, 0],
        ["c", 6.0, 7.0, 0, 0],
        ["a.inner", 1.5, 2.0, 1, 0],
    ]
    assert spans.self_times(recorded) == pytest.approx([10.0 - 4.0 - 1.0, 3.0 - 0.5, 2.0, 1.0, 0.5])


def test_tracer_nests_spans_and_restores_patched_names():
    holder = types.SimpleNamespace(inner=lambda x: x + 1)
    holder.outer = lambda x: holder.inner(x) * 2
    module = types.ModuleType("fake")
    module.helper = lambda: 7
    tracer = spans.Tracer()
    original_inner, original_helper = holder.inner, module.helper
    tracer.patch(holder, "inner", "inner")
    tracer.patch(holder, "outer", "outer", after=lambda a, k, r: tracer.count("calls"))
    tracer.patch(module, "helper", "helper")
    tracer.unit = 3
    assert holder.outer(1) == 4 and module.helper() == 7
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "helper"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1  # inner's parent is outer
    assert all(s[4] == 3 for s in tracer.spans)
    assert tracer.counts[("calls", 3)] == 1
    tracer.restore()
    assert holder.inner is original_inner and module.helper is original_helper
    assert "outer" in vars(holder)  # set before patching, so restored rather than deleted


def test_new_nodes_stops_at_the_call_inputs():
    from blf.tensor import Parameter, add, mul

    w = Parameter([1.0, 2.0], "w")
    before = mul(w, 3.0)
    out = add(mul(before, 2.0), w)
    created = spans.new_nodes(out, [before])
    assert len(created) == 2  # the mul and the add made after `before`
    assert before not in created
    assert spans.reachable_count(out) == 4  # out, the inner mul, before, w


def test_every_declared_metric_is_measured_by_some_workload(tmp_path):
    import jobs
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]}
    empty = jobs.Spans(spans.Tracer(), [])
    measured = {"trace.overhead_frac"}  # computed by the worker from both halves of the run
    for workload, job_class in jobs.JOBS.items():
        work = tmp_path / workload
        gen.generate(workload, 1, work / "inputs")
        names = set(job_class(workload, work / "inputs", 1, work).layers(empty))
        assert names <= declared, names - declared
        measured |= names
    assert measured == declared

    result = {"setup_s": [1.0, 2.0, 3.0], "unit_s": [0.5, 0.4], "tokens": 10, "token_seconds": 0.9}
    metrics, details = run.end_to_end(result, peak_rss_kb=2048)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert metrics["setup_s"] == 2.0 and metrics["peak_rss_mb"] == 2.0
    assert details["steps"] == 2 and details["step_s_tail_percentile"] == 100.0
    assert details["step_s_p50"] == 0.45


def _tree(directory: Path) -> dict:
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return {str(p.relative_to(directory)): p.read_bytes() for p in files}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = _tree(gen.generate(workload, 7, tmp_path / "a"))
    again = _tree(gen.generate(workload, 7, tmp_path / "b"))
    other = _tree(gen.generate(workload, 8, tmp_path / "c"))
    assert first and first == again
    assert first.keys() == other.keys() and first != other
