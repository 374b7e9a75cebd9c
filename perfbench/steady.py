#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each metric's spread.

    python3 perfbench/steady.py --workload serve_codebert --runs 10
    python3 perfbench/steady.py --workload zoo_mixed --runs 10 --sets 2

Each run calls perfbench/run.py with its own seed (seed0, seed0 + 1, ...)
and the run length from BENCHMARK.json. For every metric the script
prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median.
End-to-end metrics are also judged against their bound in
BENCHMARK.json: a spread must stay below a third of the bound, and with
--sets 2 the second set's median must not be worse than the first's by
more than the bound. Results also go to
.bench_out/steady_<workload>.json. Exit code 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def worse_by(first, second, better):
    """Share by which @second is worse than @first."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + s * args.runs + i
            runs.append(run_once(args.workload, seed, seconds))
            print(f"set {s} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in list(runs[-1].items())[:8]),
                flush=True)
        sets.append({name: summarize([r[name] for r in runs])
                     for name in runs[0]})

    ok = True
    print(f"\n{args.workload}: {args.runs} runs x {args.sets} set(s), "
          f"{seconds:g} s each")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, first in sets[0].items():
        bound = bounds[name]["bound"]
        checks = [first["spread"] < bound / 3]
        for later in sets[1:]:
            checks.append(worse_by(first["median"], later[name]["median"],
                                   bounds[name]["better"]) <= bound)
        verdict = "ok" if all(checks) else "TOO NOISY"
        ok = ok and all(checks)
        print(f"{name:34} {first['median']:12.5g} {first['q1']:12.5g} "
              f"{first['q3']:12.5g} {first['spread']:8.4f} "
              f"{bound:>6}  {verdict}")
        for k, later in enumerate(sets[1:], start=1):
            print(f"{'  set ' + str(k):34} {later[name]['median']:12.5g} "
                  f"{later[name]['q1']:12.5g} {later[name]['q3']:12.5g} "
                  f"{later[name]['spread']:8.4f}")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady_{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seconds": seconds, "sets": sets},
        indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
