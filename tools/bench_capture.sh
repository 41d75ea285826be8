#!/usr/bin/env bash
# Captures the perf-trajectory seed point: runs the JSON-emitting data-plane
# benches and writes their machine-readable lines to BENCH_<shortsha>.json
# at the repo root, where <shortsha> is the current HEAD (when run before
# committing, the datapoint is attributed to the parent of the commit that
# ships it; the "commit" field inside each line carries the configure-time
# SHA the binaries were built from).
#
# Usage: tools/bench_capture.sh [build_dir]    (default: <repo>/build)
#
# bench_gf_bulk registers one benchmark per GF implementation the host
# supports (generic is always included), so a single run covers the whole
# scalar-vs-SIMD spread. bench_ida follows the dispatched implementation,
# so it runs twice: once pinned to the generic kernels via BDISK_GF_IMPL
# and once on the probed best; its metric names carry the implementation
# prefix, so the lines coexist in one file.
#
# The end-to-end datapoints come from BENCHMARK.json's command, run as
# `python3 pipebench/run.py --workload W --seed 1 --seconds 10 --trace 0`
# for each workload (run.py builds pipebench under .bench_build/): one line
# per end-to-end metric, with bench "pipebench_W", e.g.
#   {"bench":"pipebench_fleet","metric":"ops_per_s","value":...,
#    "threads":1,"commit":"<shortsha>"}
# A run that is not correct, or has failed operations, fails the capture.
#
# The finished capture is validated with `bench_compare --check` (when the
# tool is built): every line must parse as a trajectory datapoint and the
# file must be non-empty, so a silently-broken capture fails here instead
# of committing an unusable trajectory.

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
sha="$(git -C "$root" rev-parse --short HEAD)"
out="$root/BENCH_${sha}.json"

for bench in bench_gf_bulk bench_ida bench_store bench_net; do
  if [[ ! -x "$build/$bench" ]]; then
    echo "error: $build/$bench not built (configure with benchmarks on)" >&2
    exit 1
  fi
done

: > "$out"

capture() {
  echo "== $*" >&2
  # pipefail makes a failing bench (or a bench that emits no JSON line)
  # fail the capture instead of writing a silently truncated trajectory.
  "$@" | grep '^{"bench"' >> "$out"
}

capture "$build/bench_gf_bulk"
BDISK_GF_IMPL=generic capture "$build/bench_ida"
# Persistent-store datapoints (build/read MiB/s and the peak-RSS-under-cap
# proof); the bench exits non-zero if RSS breaches the cap, which pipefail
# turns into a failed capture.
capture "$build/bench_store" --store-bytes 256MiB --cap-bytes 64MiB --reads 256 --path "$(mktemp -u)"
# Wire-pacing datapoints (token-bucket accuracy per rate); the bench exits
# non-zero past the ±5% gate, which pipefail turns into a failed capture.
capture "$build/bench_net" --seconds 0.5

# Second bench_ida run on the probed-best implementation, shielded from any
# BDISK_GF_IMPL in the caller's environment. Skipped when the probe's best
# IS generic (pre-SSSE3 hosts) — its datapoints would duplicate the pinned
# run's metrics with conflicting values.
best_lines="$(mktemp)"
trap 'rm -f "$best_lines"' EXIT
echo "== $build/bench_ida (probed best)" >&2
env -u BDISK_GF_IMPL "$build/bench_ida" | grep '^{"bench"' > "$best_lines"
if grep -q '"metric":"generic:' "$best_lines"; then
  echo "   probed best is generic; skipping duplicate datapoints" >&2
else
  cat "$best_lines" >> "$out"
fi

# End-to-end datapoints: one pipebench run per workload, one line per
# end-to-end metric that BENCHMARK.json names.
pipebench_lines() {
  python3 -c '
import json, sys
bench, commit, spec = sys.argv[1:4]
lines = sys.stdin.read().strip().splitlines()
result = json.loads(lines[-1]) if lines else {}
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("error: %s: incorrect run: %s" % (bench, lines[-1:]))
with open(spec) as f:
    names = [m["name"] for m in json.load(f)["end_to_end"]]
for name in names:
    print(json.dumps({"bench": bench, "metric": name,
                      "value": result["metrics"][name]["value"],
                      "threads": 1, "commit": commit},
                     separators=(",", ":")))
' "$@"
}
for workload in wire_1k update_churn fleet; do
  echo "== pipebench --workload $workload" >&2
  python3 "$root/pipebench/run.py" --workload "$workload" --seed 1 \
      --seconds 10 --trace 0 2> /dev/null |
    pipebench_lines "pipebench_$workload" "$sha" "$root/BENCHMARK.json" \
      >> "$out"
done

# Validate the capture before anyone commits it. --check fails on an
# empty file and on any line that is not a well-formed datapoint.
if [[ -x "$build/bench_compare" ]]; then
  "$build/bench_compare" --check "$out" >&2
else
  echo "warning: $build/bench_compare not built; capture not validated" >&2
  if [[ ! -s "$out" ]]; then
    echo "error: capture '$out' is empty" >&2
    exit 1
  fi
fi

echo "wrote $(grep -c . "$out") datapoints to $out" >&2
