#!/usr/bin/env bash
# Golden test of the bdisk_planner command line.
#
# Runs the planner on tests/fixtures/{smallmix,gslots}.spec under each flag
# set below and compares the transcript byte for byte with
# tests/fixtures/<spec>.planner.golden. The transcript holds every run's
# exit status, stdout and stderr. A run that repeats the run above
# shows only a marker; a run that starts with the flagless run's output
# shows only what follows it. Each metrics stream and trace a run wrote is
# recorded as a line count and cksum; the metrics stream's registry line
# carries wall-clock phase timers, so it is dropped first. A spec whose
# program has a period of millions of slots must print
# tests/fixtures/longperiod.planner.golden byte for byte. Then every
# usage error below must exit 2 and name the offending flag, or the
# malformed spec's file, on stderr, and a spec with a longer deadline must
# end infeasible under a 4 GB address-space limit, as must (with exit 0 or
# 1, or 2 naming the file) specs past the scheduler's reach or past 32-bit
# block counts.
#
# Usage: tests/planner_cli_test.sh PLANNER [--write]
#   --write rewrites the goldens from PLANNER instead of comparing.

set -u
planner="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
fixtures="$(cd "$(dirname "$0")/fixtures" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# Output files get fixed relative names, so the transcript is the same in
# every checkout.
cd "$work" || exit 1
failed=0

# run SPEC ARGS...: one run's transcript. The flagless run goes first.
run() {
  local spec=$1
  shift
  "$planner" "$@" "$fixtures/$spec.spec" > out.txt 2>&1
  echo "==" "$@" "$spec.spec" "(exit $?)"
  if [[ $# -eq 0 ]]; then
    cp out.txt plan.txt
    cat out.txt
  elif cmp -s prev.txt out.txt; then
    echo "(output of the run above)"
  elif cmp -s -n "$(wc -c < plan.txt)" plan.txt out.txt; then
    echo "(flagless output)"
    tail -c +"$(($(wc -c < plan.txt) + 1))" out.txt
  else
    cat out.txt
  fi
  cp out.txt prev.txt
}

# digest FILE: line count and cksum of FILE without registry lines.
digest() {
  grep -v '^{"type":"registry"' "$1" > digest.in
  echo "$1: $(grep -c '' digest.in) lines, cksum $(cksum < digest.in)"
}

channel=(--channel 'gilbert:pgb=0.05,pbg=0.2,seed=7' --requests 50)
for spec in smallmix gslots; do
  {
    run "$spec"
    run "$spec" --adaptive
    run "$spec" --store store.dev
    run "$spec" "${channel[@]}" --threads 3
    run "$spec" "${channel[@]}" --metrics-out metrics.jsonl
    digest metrics.jsonl
    run "$spec" "${channel[@]}" --trace-out trace.json --trace-sample 1/8
    digest trace.json
  } > "$spec.out"
  golden="$fixtures/$spec.planner.golden"
  if [[ "${2:-}" == "--write" ]]; then
    cp "$spec.out" "$golden"
  elif ! diff -u "$golden" "$spec.out"; then
    echo "FAIL: $spec transcript differs from $golden"
    failed=1
  fi
done

# A 1e6 s deadline beside a 0.5 s one plans a program of period 2985984
# slots, so every condition is verified on a cycle of millions of slots.
printf '%s\n' 'channel 196608' 'file a bytes=16384 latency=0.5 faults=1' \
  'file nav bytes=16384 latency=1e6 faults=1' > longperiod.spec
"$planner" longperiod.spec > out.txt 2>&1
{
  echo "== longperiod.spec (exit $?)"
  cat out.txt
} > longperiod.out
golden="$fixtures/longperiod.planner.golden"
if [[ "${2:-}" == "--write" ]]; then
  cp longperiod.out "$golden"
elif ! diff -u "$golden" longperiod.out; then
  echo "FAIL: longperiod transcript differs from $golden"
  failed=1
fi

# reject FLAG ARGS...: the run must exit 2 with an error line naming FLAG.
reject() {
  local flag=$1
  shift
  "$planner" "$@" > /dev/null 2> err.txt
  local rc=$?
  if [[ $rc -ne 2 ]] || ! grep -q -- "^error: .*$flag" err.txt; then
    echo "FAIL: bdisk_planner $* exited $rc without naming $flag:"
    cat err.txt
    failed=1
  fi
}

spec="$fixtures/smallmix.spec"
reject --channel --channel bernoulli:p=0.5,seed=1 \
  --channel bernoulli:p=0.01,seed=1 "$spec"
reject --requests --requests 5 --requests 7 "$spec"
reject --threads --threads 0 "$spec"
reject --threads --threads abc "$spec"
reject --chanel --chanel bernoulli:p=0.1,seed=1 "$spec"
reject --seed "$spec" --seed
reject --engine --engine event "$spec"
# A latency whose window passes 2^64 slots is a malformed spec (exit 2),
# not an infeasible workload (exit 1).
printf 'channel 196608\nfile nav bytes=16384 latency=1e300 faults=1\n' \
  > hostile.spec
reject nav hostile.spec

# A long but finite deadline plans in bounded memory: its greedy cycle
# search holds two counter vectors, not every state it has seen, so under a
# 4 GB address-space limit the run ends infeasible (exit 1), not aborted.
printf '%s\n' 'channel 196608' 'file a bytes=16384 latency=0.5 faults=1' \
  'file nav bytes=16384 latency=1e7 faults=1' > long.spec
(ulimit -v 4000000 && exec "$planner" long.spec) > out.txt 2>&1
rc=$?
if [[ $rc -ne 1 ]] || ! grep -q '^infeasible:' out.txt; then
  echo "FAIL: bdisk_planner long.spec under ulimit -v 4000000 exited $rc:"
  cat out.txt
  failed=1
fi

# A file past the scheduler's reach plans or ends infeasible (exit 0 or 1),
# and a file whose m or m + r passes 32 bits is a malformed spec (exit 2)
# that names the file. Under a 4 GB address-space limit none may abort,
# and each must end within 10 s.
bounded() {
  local codes=$1 spec=$2
  shift 2
  printf '%s\n' "$@" > "$spec"
  (ulimit -v 4000000 && exec timeout 10 "$planner" "$spec") > out.txt 2>&1
  local rc=$?
  if [[ ! "$rc" =~ ^($codes)$ ]] ||
    { [[ $rc -eq 2 ]] && ! grep -q "^error: .*'a'" out.txt; }; then
    echo "FAIL: bdisk_planner $spec under ulimit -v 4000000 exited $rc:"
    cat out.txt
    failed=1
  fi
}
bounded '0|1' wide_window.spec 'gfile a blocks=1 latencies=18446744073709551615'
bounded '0|1' long_window.spec 'gfile a blocks=100000000 latencies=100000001'
bounded 2 wide_m.spec 'gfile a blocks=4294967296 latencies=4294967300'
bounded 2 wide_bytes.spec 'channel 1' 'blocksize 1' \
  'file a bytes=4294967297 latency=4294967298'

exit "$failed"
