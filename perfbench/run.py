#!/usr/bin/env python3
"""Build and run the SoD2 benchmark once (see perfbench/README.md).

    python3 perfbench/run.py --workload zoo_mixed --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout. The script configures and builds
perfbench/ (which pulls in the repository's CMake project) under
.bench_build/, runs the benchmark binary, and passes its output through.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. Run records and
Chrome traces go to .bench_out/. The exit code is non-zero when the
build fails, an output check fails, a request fails, the binary's
metrics disagree with BENCHMARK.json, or a traced run's time
attribution is off by more than 5%.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("zoo_mixed", "zoo_small", "serve_codebert")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no SoD2 sources beside perfbench/ (need src/ and "
            "CMakeLists.txt)")
        sys.exit(2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return BUILD / "perfbench"


def source_id():
    """Git commit when the checkout is a repository, plus a hash of the
    sources, which identifies the code either way."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"{commit}+src:{digest.hexdigest()[:16]}"


def in_spec_order(measured, trace):
    """The metrics of BENCHMARK.json for this mode, in its order and with
    its units. A per-layer metric whose layer is not on the workload's
    path reads 0; a missing end-to-end metric, an unlisted metric or a
    unit that disagrees is an error (returns None)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    ok = True
    for name in set(measured) - {m["name"] for m in listed}:
        log(f"perfbench: metric {name} is not in BENCHMARK.json")
        ok = False
    metrics = {}
    for m in listed:
        got = measured.get(m["name"])
        if got is None and not trace:
            log(f"perfbench: metric {m['name']} not measured")
            ok = False
        elif got is not None and got["unit"] != m["unit"]:
            log(f"perfbench: {m['name']} measured in {got['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
            ok = False
        value = got["value"] if got is not None else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics if ok else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digests", str(HERE / "digests.tsv"),
           "--out", str(OUT), "--commit", source_id()]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        metrics = in_spec_order(result["metrics"], args.trace)
    except (ValueError, KeyError, TypeError):
        log(f"perfbench: no result line (exit {done.returncode})")
        return done.returncode or 3
    if metrics is None:
        return 3
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
