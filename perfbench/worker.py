"""One workload run in a fresh process: set up, time units, check outputs, write result.json.

perfbench/run.py starts this file once per run so that memory peaks and
caches start clean. Set-up runs SETUPS times from scratch; the runs
must produce identical warmup outputs, and the last one continues into the
timed units. With --trace 1 the timed time is split: the first half runs untraced,
then the probes go in, the set-up runs once more and the second half runs
traced. The two halves give the tracing overhead.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --dir D
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Run:
    def __init__(self, job, trace: bool):
        self.job = job
        self.trace = trace
        self.attempted = 0
        self.errors: list[str] = []

    def setup(self, tracer=None):
        t0 = perf_counter()
        state, signature = self.job.setup(tracer)
        self.attempted += self.job.warmup_units
        return state, signature, perf_counter() - t0

    def timed(self, state, seconds: float, min_units: int, tracer=None) -> list:
        units = []
        start = perf_counter()
        while perf_counter() - start < seconds or len(units) < min_units:
            self.attempted += 1
            if tracer is not None:
                tracer.unit = len(units)
            units.append(self.job.unit(state, tracer))
        return units

    def execute(self, seconds: float, work: Path) -> dict:
        job = self.job
        setup_s, signatures = [], []
        for _ in range(SETUPS):
            state, signature, seconds_taken = self.setup()
            setup_s.append(seconds_taken)
            signatures.append(signature)
        self.attempted += 1
        if any(s != signatures[0] for s in signatures[1:]):
            raise jobs.CheckFailed("same-seed set-ups gave different warmup outputs")

        out = {"setup_s": setup_s}
        if not self.trace:
            units = self.timed(state, seconds, job.min_units)
            out["extras"] = job.finish(state)
        else:
            plain = self.timed(state, seconds / 2, 2)
            state = None
            tracer = spans.Tracer()
            job.probe(tracer)
            try:
                tracer.unit = jobs.SETUP
                state, _, _ = self.setup(tracer)
                units = self.timed(state, seconds / 2, 2, tracer)
                tracer.unit = jobs.FINISH
                job.finish(state)
            finally:
                tracer.restore()
            # every declared layer metric is reported; a layer this workload never calls reads 0
            spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            layers = {m["name"]: 0.0 for m in spec["per_layer"]}
            layers.update(job.layers(jobs.Spans(tracer, range(len(units)))))
            traced_p50 = stats.median([u.seconds for u in units])
            layers["trace.overhead_frac"] = traced_p50 / stats.median([u.seconds for u in plain]) - 1.0
            out["layers"] = layers
            tracer.write(work / "spans.jsonl")
        out["unit_s"] = [u.seconds for u in units]
        out["tokens"] = sum(u.tokens for u in units)
        out["token_seconds"] = sum(u.token_seconds for u in units)
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True, help="run directory holding inputs/")
    args = ap.parse_args(argv)

    work = Path(args.dir)
    job = jobs.JOBS[args.workload](args.workload, work / "inputs", args.seed, work)
    run = Run(job, bool(args.trace))
    result = {"env": environment()}
    try:
        result.update(run.execute(args.seconds, work))
    except jobs.CheckFailed as exc:
        run.errors.append(f"check failed: {exc}")
    except Exception:  # the run is over either way; report why
        run.errors.append(traceback.format_exc())
    result.update(correct=not run.errors, attempted=max(run.attempted, 1),
                  failed=len(run.errors), errors=run.errors)
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
