"""Steadiness check: run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads corpus,summarize-1k --seeds 10

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of that median,
next to the metric's bound from BENCHMARK.json. A spread at or above the
bound (setup_s excepted) is flagged. Runs go one at a time; the raw results
are saved to .perfbench/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="Per-metric spread over seeds.")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds (runs) per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        out = ROOT / ".perfbench" / f"spread-{workload}.json"
        out.write_text(json.dumps(runs, indent=1), encoding="utf-8")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            spread = stats.quartile_spread(values) if len(values) >= 2 else 0.0
            flag = "ok"
            if spread >= m["bound"] and m["name"] != "setup_s":
                flag, steady = "OVER BOUND", False
            elif spread >= m["bound"] / 3:
                flag = "above bound/3"
            print(f"  {workload:<14} {m['name']:<14} median {stats.median(values):>12.5g} "
                  f"{m['unit']:<6} spread {spread:7.4f}  bound {m['bound']:.2f}  {flag}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
