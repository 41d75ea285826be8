#!/usr/bin/env bash
# Reach audit: lists the library functions that only a test binary keeps.
#
# Builds the library, tools, benches, examples and tests, and pipebench
# with pipebench_test, at -O0 with one section per function, and links
# each binary with --gc-sections. The linker then keeps exactly the
# functions a binary can reach, and no inlining hides a call: at -O2 a
# function that products run only inlined (such as
# VersionedBroadcastServer::VersionAt) would look test-only.
#
# A library function is a bdisk:: text symbol (nm type T or t) of
# libbdisk.a. Lambdas and the std:: and Result<T> template instances that
# belong to their owner type are left out. Product binaries are the tools,
# benches, examples and pipebench; test binaries are tests/* and
# pipebench_test.
#
# Usage: tools/reach_audit.sh   (builds under <repo>/build-reach)
#
# Prints the functions that only tests keep and those that no binary
# keeps. Exits 1 when one of them is not on tools/reach_allowlist.txt,
# when an allowlist entry is neither, or when an expected binary was not
# built (a missing product, such as bench_gf_bulk without google-benchmark,
# would make its callees look test-only). The allowlist holds one entry a
# line: the demangled name as printed here, " # ", and the reason it stays.

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-reach"
allowlist="$root/tools/reach_allowlist.txt"
jobs="$(nproc 2>/dev/null || echo 2)"
work="$build/audit"
rm -rf "$work"
mkdir -p "$work"

# Every binary the audit reads, named by its source file.
names() {
  local src
  for src in "$@"; do
    src="${src##*/}"
    echo "${src%.*}"
  done
}
mapfile -t products < <(names "$root"/tools/*.cc "$root"/bench/*.cc \
  "$root"/examples/*.cpp)
mapfile -t tests < <(names "$root"/tests/*.cc)
products=("${products[@]/#/main/}" pipebench/pipebench)
tests=("${tests[@]/#/main/}" pipebench/pipebench_test)

# Runs a build step with its output in a log, shown only when it fails.
quiet() {
  local log="$work/build.log"
  if ! "$@" >>"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "error: build step failed: $*" >&2
    exit 1
  fi
}

flags=(
  -DCMAKE_BUILD_TYPE=Release
  "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -DNDEBUG"
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
  -DBDISK_WARNINGS_AS_ERRORS=OFF
)
echo "building at -O0 with --gc-sections under $build" >&2
# A binary left by an earlier build must not stand in for a target that
# this configuration no longer builds, so every binary is linked anew.
for binary in "${products[@]}" "${tests[@]}"; do
  rm -f "$build/$binary"
done
quiet cmake -S "$root" -B "$build/main" "${flags[@]}"
quiet cmake --build "$build/main" -j "$jobs"
quiet cmake -S "$root/pipebench" -B "$build/pipebench" "${flags[@]}" \
  -DPIPEBENCH_BUILD_TESTS=ON
quiet cmake --build "$build/pipebench" -j "$jobs" \
  --target pipebench pipebench_test

status=0
for binary in "${products[@]}" "${tests[@]}"; do
  if [[ ! -x "$build/$binary" ]]; then
    echo "error: $binary was not built" >&2
    status=1
  fi
done
if ((status != 0)); then
  echo "error: a binary that is not built makes its callees look unkept" >&2
  exit 1
fi

# The demangled bdisk:: functions an object archive or binary defines. A
# mangled name that opens with the bdisk namespace is one of its
# functions; a lambda opens with _ZZ, a std:: instance with _ZSt or _ZNSt.
functions() {
  nm --defined-only "$1" |
    awk '($2 == "T" || $2 == "t") && $3 ~ /^_ZN[rVK]*[RO]?5bdisk/ &&
         $3 !~ /^_ZN[rVK]*[RO]?5bdisk6ResultI/ { print $3 }' |
    c++filt | awk '!/\{lambda\(/' | LC_ALL=C sort -u
}

functions "$build/main/libbdisk.a" >"$work/library"
for binary in "${products[@]}"; do
  functions "$build/$binary"
done | LC_ALL=C sort -u >"$work/product"
for binary in "${tests[@]}"; do
  functions "$build/$binary"
done | LC_ALL=C sort -u >"$work/test"

LC_ALL=C comm -23 "$work/library" "$work/product" >"$work/not_product"
LC_ALL=C comm -12 "$work/not_product" "$work/test" >"$work/test_only"
LC_ALL=C comm -23 "$work/not_product" "$work/test" >"$work/unreached"

echo "== functions only tests keep ($(wc -l <"$work/test_only"))"
cat "$work/test_only"
echo "== functions no binary keeps ($(wc -l <"$work/unreached"))"
cat "$work/unreached"

# Allowlist entries: "<name> # <reason>"; blank and '#' lines are comments.
while IFS= read -r line; do
  [[ -z "$line" || "$line" == \#* ]] && continue
  if [[ "$line" != *" # "?* ]]; then
    echo "error: allowlist entry without a reason: $line" >&2
    status=1
  fi
  echo "${line%% # *}"
done <"$allowlist" >"$work/allowed.raw"
LC_ALL=C sort "$work/allowed.raw" >"$work/allowed"
if [[ -n "$(LC_ALL=C uniq -d "$work/allowed")" ]]; then
  echo "error: allowlist entries listed twice:" >&2
  LC_ALL=C uniq -d "$work/allowed" >&2
  status=1
fi

LC_ALL=C comm -23 "$work/not_product" "$work/allowed" >"$work/unlisted"
LC_ALL=C comm -13 "$work/not_product" "$work/allowed" >"$work/stale"
if [[ -s "$work/unlisted" ]]; then
  echo "error: no product keeps these, and the allowlist does not name them:" >&2
  cat "$work/unlisted" >&2
  status=1
fi
if [[ -s "$work/stale" ]]; then
  echo "error: allowlist entries that a product keeps or the library lacks:" >&2
  cat "$work/stale" >&2
  status=1
fi
echo "== $(wc -l <"$work/allowed") allowlisted of $(wc -l <"$work/library") library functions"
exit "$status"
