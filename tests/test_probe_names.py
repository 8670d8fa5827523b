"""Every name a perfbench job patches in a traced run still exists in blf.

A traced run (`perfbench/run.py --trace 1`) wraps program functions by name;
a renamed or deleted one would otherwise show up only as a crashed run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload", sorted(jobs.JOBS))
def test_every_probed_name_resolves(workload):
    tracer = spans.Tracer()
    try:
        jobs.JOBS[workload].probe(tracer)
    except AttributeError as e:
        pytest.fail(f"{workload}: a name its probe patches is gone: {e}")
    finally:
        tracer.restore()
