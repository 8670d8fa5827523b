"""blf benchmark: one seeded workload run, printed as metrics with units.

    python3 perfbench/run.py --workload pretrain-tiny --seed 1 --seconds 38 --trace 0

Generates the workload's inputs from --seed, runs the workload in a fresh
Python process (perfbench/worker.py) with BLAS threads capped at the core
count, checks its outputs and prints every end-to-end metric (--trace 0) or
every per-layer metric (--trace 1) by name with its unit. The last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 only when every output check passed. Run files go to
.perfbench/<workload>-trace<0|1>/ at the repository root, replaced by the next
run of the same kind.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("pretrain-tiny", "summarize-1k", "corpus")
TIMEOUT_SLACK_S = 120  # set-up, generation and checks on top of --seconds


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def wait_child(proc: subprocess.Popen, timeout: float):
    """Wait for `proc` (killing it at `timeout`) and return (exit code, its own rusage)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def end_to_end(result: dict, peak_rss_kb: int) -> tuple[dict, dict]:
    """(metrics, details printed beside them) from a finished untraced run."""
    tail, pct, n = stats.tail(result["unit_s"])
    metrics = {
        "setup_s": stats.median(result["setup_s"]),
        "tokens_per_s": result["tokens"] / result["token_seconds"],
        "step_s_tail": tail,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    # The median unit is printed but not gated: on a shared host whose slow share
    # hovers near half, it flips between the fast and the slow level from run to run.
    details = {"step_s_p50": stats.median(result["unit_s"]), "step_s_tail_percentile": pct,
               "steps": n, **result.get("extras", {})}
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one blf benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "blf" / "__init__.py").is_file():
        print(f"perfbench: no blf sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    import gen

    work = ROOT / ".perfbench" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    gen.generate(args.workload, args.seed, work / "inputs")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env.pop("BLF_WORKERS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(work)]
    with open(work / "worker.log", "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        code, usage = wait_child(proc, args.seconds + TIMEOUT_SLACK_S)

    result_path = work / "result.json"
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.is_file() else {}
    errors = list(result.get("errors", []))
    if code != 0 or not result:
        errors.append(f"worker exited with code {code}; see {work / 'worker.log'}")
    correct = bool(result.get("correct")) and not errors
    result.update(workload=args.workload, seed=args.seed, commit=git_commit())

    metrics, details = {}, {}
    if correct:
        if args.trace:
            metrics = result["layers"]
        else:
            metrics, details = end_to_end(result, usage.ru_maxrss)
        names = {m["name"] for m in declared}
        if set(metrics) != names:
            errors.append(f"metrics {sorted(set(metrics) ^ names)} disagree with BENCHMARK.json")
            correct = False
    result.update(metrics=metrics, details=details)
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"# blf benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} commit={result['commit']}")
    print("# env " + json.dumps(result.get("env", {}), sort_keys=True))
    for m in declared:
        if m["name"] in metrics:
            print(f"{m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}")
    attempted = max(int(result.get("attempted", 1)), 1)
    failed = len(errors)
    details["failed_frac"] = failed / attempted
    for name, value in details.items():
        print(f"# {name} {value}")
    for err in errors:
        print("# error " + err.strip().replace("\n", "\n#   "), file=sys.stderr)

    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                       for m in declared if m["name"] in metrics}}
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
