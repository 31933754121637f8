#!/usr/bin/env bash
# Reachability sweep: prints the exiot:: functions that the src/ libraries
# define but no shipped binary contains.
#
# The roots are exiotctl, the six examples, perfbench and the twelve
# paper-table benches. They are built at -O0 (nothing inlined away) with
# one section per function and linked with --gc-sections, so a root binary
# keeps exactly the functions its call graph reaches. The src/ archives
# are then built once more with -fkeep-inline-functions, so functions
# defined in headers are emitted and counted too. The output is the
# demangled `nm` text symbols of the archives minus those of every root,
# one per line, sorted; lambdas are left out.
#
# It is a review aid, not a CI step: a full run takes ~10 minutes on
# 4 cores. Implicit special members, standard-library template instances
# whose demangled name starts with an exiot:: return type, compiler clones
# ([clone .cold]) and the unused half of a const/non-const overload pair
# show up in the list and are noise.
#
#   tools/reachability_sweep.sh [work-dir]
#     work-dir  scratch build directory (default: a fresh mktemp -d); the
#               three build trees go under it and are kept for inspection
#   JOBS=N      parallel build jobs (default: nproc)
set -eu
export LC_ALL=C  # one collation for sort and comm

root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d)}
jobs=${JOBS:-$(nproc)}
mkdir -p "$work"

sweep_flags="-O0 -ffunction-sections -fdata-sections"
gc_flags="-Wl,--gc-sections"

examples="quickstart monitor_ip_space feed_comparison latency_probe \
dashboard emerging_threats"
paper_benches="bench_table1_ports bench_table2_features bench_table3_volume \
bench_table4_contribution bench_table5_snapshot bench_latency \
bench_accuracy bench_validation bench_ml_ablation bench_ablation_trw \
bench_ablation_sampling bench_ablation_window"
libs="exiot_common exiot_json exiot_obs exiot_net exiot_trace exiot_inet \
exiot_telescope exiot_flow exiot_ml exiot_probe exiot_fingerprint \
exiot_enrich exiot_store exiot_pipeline exiot_feed exiot_extfeeds \
exiot_api exiot_ui exiot_analytics"

configure() {  # configure <build-dir> <source-dir> <cxx-flags>
  cmake -B "$1" -S "$2" -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="$3" \
    -DCMAKE_EXE_LINKER_FLAGS="$gc_flags" > "$1.configure.log"
}

echo "sweep: building the roots in $work/roots" >&2
configure "$work/roots" "$root" "$sweep_flags"
# shellcheck disable=SC2086
cmake --build "$work/roots" -j "$jobs" --target exiotctl $examples \
  $paper_benches > "$work/roots.build.log"

echo "sweep: building perfbench in $work/perfbench" >&2
configure "$work/perfbench" "$root/perfbench" "$sweep_flags"
cmake --build "$work/perfbench" -j "$jobs" --target perfbench \
  > "$work/perfbench.build.log"

echo "sweep: building the src/ archives in $work/archives" >&2
configure "$work/archives" "$root" "$sweep_flags -fkeep-inline-functions"
# shellcheck disable=SC2086
cmake --build "$work/archives" -j "$jobs" --target $libs \
  > "$work/archives.build.log"

# Demangled names of the defined text symbols (T/t/W/w) that start with
# exiot::, lambdas dropped.
text_symbols() {
  nm -C --defined-only "$@" 2>/dev/null |
    sed -n 's/^[0-9a-f]* [TtWw] //p' | grep '^exiot::' |
    grep -v '{lambda(' | sort -u
}

roots="$work/roots/tools/exiotctl $work/perfbench/perfbench"
for e in $examples; do roots="$roots $work/roots/examples/$e"; done
for b in $paper_benches; do roots="$roots $work/roots/bench/$b"; done

# shellcheck disable=SC2086
text_symbols $roots > "$work/reached.txt"
# shellcheck disable=SC2046
text_symbols $(find "$work/archives/src" -name 'libexiot_*.a') \
  > "$work/defined.txt"

comm -23 "$work/defined.txt" "$work/reached.txt" | tee "$work/unreached.txt"
echo "sweep: $(wc -l < "$work/unreached.txt") unreached of" \
  "$(wc -l < "$work/defined.txt") defined exiot:: text symbols" \
  "(lists in $work)" >&2
