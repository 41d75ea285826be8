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
# carries wall-clock phase timers, so it is dropped first. Then every
# usage error below must exit 2 and name the offending flag on stderr.
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

exit "$failed"
