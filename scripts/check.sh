#!/usr/bin/env bash
# The gate for every labeled test suite. For each label:
#   1. ctest -L <label> in the default preset, then in each sanitizer
#      preset (tsan, asan) whose CMakePresets.json test filter lists the
#      label;
#   2. the label's bench gate from the table in bench_gate below: a
#      benchmark whose exit code enforces that subsystem's end-to-end
#      acceptance check (bit-exactness, typed failures, speedup floors).
#
# Usage: scripts/check.sh [label...]   (no argument = every label)
set -euo pipefail
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

all_labels=(concurrency observability faults serving snapshot resilience
            kernels)
if [ "$#" -gt 0 ]; then
    labels=("$@")
else
    labels=("${all_labels[@]}")
fi

# Test presets that run label $1: default (no filter) plus every preset
# whose label filter names it.
presets_for() {
    python3 - "$1" <<'EOF'
import json, sys
label = sys.argv[1]
with open("CMakePresets.json") as f:
    presets = json.load(f)["testPresets"]
for p in presets:
    pattern = p.get("filter", {}).get("include", {}).get("label")
    if pattern is None or label in pattern.split("|"):
        print(p["name"])
EOF
}

build_dir() {
    if [ "$1" = default ]; then echo build; else echo "build-$1"; fi
}

declare -A built=()
build_preset() {
    if [ -n "${built[$1]:-}" ]; then return; fi
    echo "== build ($1 preset) =="
    cmake --preset "$1" >/dev/null
    cmake --build --preset "$1" -j "$(nproc)"
    built[$1]=1
}

# An 8-thread concurrent_serving run with tracing on; the Chrome trace
# JSON it writes must parse and hold worker lanes and per-group spans.
traced_serving() {
    SOD2_TRACE=1 SOD2_TRACE_FILE="$tmp/trace.json" SOD2_BENCH_REQUESTS=16 \
        ./build/bench/concurrent_serving > "$tmp/bench.out"
    python3 - "$tmp/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
assert events, "trace has no events"
lanes = {e["args"]["name"] for e in events if e.get("ph") == "M"}
assert any("worker" in n for n in lanes), f"no worker lanes in {lanes}"
cats = {e.get("cat") for e in events}
assert "group" in cats, f"no per-group spans, cats={cats}"
assert "engine" in cats, f"no engine spans, cats={cats}"
print(f"OK: {len(events)} events, {len(lanes)} named lanes")
EOF
}

declare -A gated=()
bench_gate() {
    case "$1" in
      concurrency) ;;
      kernels) ./build/bench/expf_exhaustive ;;
      observability) traced_serving ;;
      faults|resilience)
        # One soak covers both: its fault rounds gate typed errors and
        # zero corruption, its resilience phase the breaker/recovery.
        if [ -n "${gated[fault_soak]:-}" ]; then return; fi
        ./build/bench/fault_soak
        gated[fault_soak]=1 ;;
      serving)
        # The release build serves the default 64-request stream; the
        # sanitizer builds a 16-request one, so both still drive the
        # server end to end.
        ./build/bench/serving_load
        build_preset tsan
        SOD2_BENCH_REQUESTS=16 ./build-tsan/bench/serving_load
        build_preset asan
        SOD2_BENCH_REQUESTS=16 ./build-asan/bench/serving_load ;;
      snapshot) SOD2_BENCH_SAMPLES=2 ./build/bench/table1_reinit_overhead ;;
    esac
}

for label in "${labels[@]}"; do
    if [[ " ${all_labels[*]} " != *" $label "* ]]; then
        echo "check: unknown label '$label' (known: ${all_labels[*]})" >&2
        exit 2
    fi
done

for label in "${labels[@]}"; do
    # Observability tests run with tracing forced on, so the traced
    # code paths (not just the disabled fast path) are what they cover.
    ctest_env=()
    if [ "$label" = observability ]; then ctest_env=(SOD2_TRACE=1); fi
    for preset in $(presets_for "$label"); do
        build_preset "$preset"
        echo "== $label suite ($preset preset) =="
        env "${ctest_env[@]}" ctest --test-dir "$(build_dir "$preset")" \
            -L "$label" --output-on-failure
    done
    echo "== $label bench gate =="
    bench_gate "$label"
done

echo "check: all green (${labels[*]})"
