"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --workloads fuzz-oracle --seeds 5 --first-seed 100

For each workload and end-to-end metric this prints the median over the seeds,
the quartiles, and the spread (q3 - q1) / median next to the metric's bound
from ``BENCHMARK.json``.  A benchmark is steady when every spread stays below
a third of its bound; the exit code is 1 otherwise.  It also prints the
unbounded figures each run writes to its result file (``fail_frac``,
``oracle_coverage``, ``setups_per_s``), so one command shows every end-to-end
number and runs the correctness gate on every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    result = json.loads(
        (ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return line, result, elapsed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst_ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        extra: dict[str, list] = {"fail_frac": [], "oracle_coverage": [], "setups_per_s": []}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            line, result, elapsed = run_once(workload, seed, args.seconds, 0)
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name in extra:
                extra[name].append(result["end_to_end"][name])
            print(
                f"{workload} seed {seed}: correct={line['correct']} "
                f"attempted={line['attempted']} failed={line['failed']} "
                f"run {elapsed:.1f} s "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
                flush=True,
            )
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            bound = bounds[name]["bound"]
            ok = spread < bound / 3
            worst_ok &= ok
            print(
                f"  {workload:12s} {name:12s} median {statistics.median(vals):10.4g} "
                f"{bounds[name]['unit']:4s} q1 {q1:10.4g} q3 {q3:10.4g} "
                f"spread {spread:6.3f} bound {bound:.2f} {'ok' if ok else 'WIDE'}"
            )
        for name, vals in extra.items():
            print(f"  {workload:12s} {name:12s} per seed {vals}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
