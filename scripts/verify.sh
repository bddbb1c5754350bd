#!/usr/bin/env sh
# Tier-1 verification, fully offline: build, test, lint. CI runs this
# script and nothing else that can fail:
#
#   sh scripts/verify.sh
#
# The workspace has no external dependencies, so this needs no network
# and no pre-populated cargo registry.
set -eu

cd "$(dirname "$0")/.."

echo "==> docs: every back-ticked repository path in README/DESIGN/EXPERIMENTS exists"
sh scripts/doc_paths.sh

echo "==> tier-1: release build (whole workspace: the root package does
#   not depend on bfetch-bench, so a bare 'cargo build' would leave the
#   bfetch binary used below stale or missing)"
cargo build --release --workspace
# Every figure, extension and utility is `bfetch <name>` (bfetch list).
BFETCH=target/release/bfetch

echo "==> tier-1: root package tests"
cargo test -q

echo "==> formatting (cargo fmt --check over every workspace crate)"
cargo fmt --all -- --check

echo "==> workspace tests"
cargo test --workspace -q

echo "==> randomized tests at full depth (BFETCH_PROP_CASES=128)"
# BFETCH_PROP_CASES is the one depth knob: every randomized test runs that
# many cases (their defaults are 8 to 128). The stage's wall seconds are
# logged so its cost can be read.
t0=$(date +%s)
BFETCH_PROP_CASES=128 cargo test --workspace -q
echo "prop-depth: $(( $(date +%s) - t0 )) s"

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings) + doctests"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
cargo test --workspace --doc -q

echo "==> timing bench compiles (criterion-benches feature); hot-path table recorded"
cargo check -p bfetch-bench --benches --features criterion-benches -q
# Seconds to run, and the only place the cost of a disabled profiler span
# (span_disabled), of one stepped core cycle (core_cycle_*), of building
# mcf and a fresh state from it (kernel_build_mcf, arch_state_new_mcf), of
# a first and a resident load of an mcf line (first_touch_line,
# load_touch_hit), of reading mcf's program file back
# (program_file_read), of one warm result-cache hit on a Fig 8 entry
# (cache_load_hit) and of the tag scan alone, a missing L1D line probed
# and filled (cache_probe_fill) and a 4-entry MSHR lookup that misses
# (mshr_lookup_miss), is a recorded number; CI uploads the table. Informational: host-speed regressions are
# judged by `benchmark compare`, not here.
cargo bench -q -p bfetch-bench --features criterion-benches --bench hotpath \
  | tee target/BENCH_hotpath.txt
grep -q '^span_disabled ' target/BENCH_hotpath.txt
grep -q '^core_cycle_gamess_bfetch ' target/BENCH_hotpath.txt
grep -q '^arch_state_new_mcf ' target/BENCH_hotpath.txt
grep -q '^kernel_build_mcf ' target/BENCH_hotpath.txt
grep -q '^first_touch_line ' target/BENCH_hotpath.txt
grep -q '^load_touch_hit ' target/BENCH_hotpath.txt
grep -q '^cache_load_hit ' target/BENCH_hotpath.txt
grep -q '^program_file_read ' target/BENCH_hotpath.txt
grep -q '^cache_probe_fill ' target/BENCH_hotpath.txt
grep -q '^mshr_lookup_miss ' target/BENCH_hotpath.txt

echo "==> benchmark driver: unit + smoke tests against the crates' public surface"
# benchmark/ is its own package (own workspace table and lock file), so
# the workspace stages above never compile it: a refactor that breaks the
# surface the driver depends on must fail here, not at the next benchmark
# run. Host-speed regressions themselves are judged by `benchmark compare`
# on sim_kips / peak_rss_mb, not by this script.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
# cargo silently rewrites the frozen benchmark/Cargo.lock when a crate
# gains a dependency edge; that is a change to the benchmark, not a refactor
git diff --exit-code -- benchmark

echo "==> CPI-stack smoke (ext_cpistack --quick) + timeline export"
$BFETCH ext_cpistack --quick --small --kernels mcf,libquantum \
  --timeline target/BENCH_cpistack_timeline.jsonl
test -s target/BENCH_cpistack_timeline.jsonl
grep -q '"event":"timeline_sample"' target/BENCH_cpistack_timeline.jsonl

echo "==> harness determinism: serial vs parallel vs cached stdout"
BIN="$BFETCH fig08_single"
CACHE=$(mktemp -d)
trap 'rm -rf "$CACHE"' EXIT
ARGS="--small --instructions 20000 --warmup 5000 --cache-dir $CACHE"
$BIN $ARGS --threads 1 >"$CACHE/serial.txt" 2>/dev/null
$BIN $ARGS --threads 4 >"$CACHE/parallel.txt" 2>/dev/null
$BIN $ARGS --threads 4 >"$CACHE/cached.txt" 2>"$CACHE/cached.err"
cmp "$CACHE/serial.txt" "$CACHE/parallel.txt"
cmp "$CACHE/serial.txt" "$CACHE/cached.txt"
grep -q " 0 simulated" "$CACHE/cached.err"

echo "==> profiler: profiled run byte-identity + trace well-formedness"
# A profiled sweep must leave stdout byte-identical and produce a
# loadable Chrome trace plus the aggregate reports as sidecar files
# (under target/, where CI picks them up as artifacts).
rm -rf target/prof
$BIN $ARGS --threads 1 --profile target/prof >"$CACHE/profiled.txt" 2>/dev/null
cmp "$CACHE/serial.txt" "$CACHE/profiled.txt"
test -s target/prof/report.json
test -s target/prof/report.txt
$BFETCH ext_profile --check-trace target/prof/trace.json

echo "==> measured phase breakdown: coverage gate (ext_profile --quick)"
# The instrumented top-level phases must tile sim.run: falling coverage
# means a new phase of the cycle loop went uninstrumented. 90% leaves
# noise headroom over the ~97% the loop measures.
$BFETCH ext_profile --quick --min-coverage 90 \
  --out target/PROF_phase_report.json >/dev/null
# One writer renders both phase reports; a schema that differs between
# them means they have drifted apart.
for f in target/prof/report.json target/PROF_phase_report.json; do
  grep -q '"schema":3' "$f" || { echo "$f: not phase-report schema 3" >&2; exit 1; }
done

echo "==> committed results drift: every results/*.txt vs the figure that prints it"
# Full-budget sweeps (seconds each, the 8-core mixes a minute or two): the
# committed text must be what this build prints, byte for byte. Each file
# is named after its registry entry; each entry's wall seconds are logged
# so the stage's cost can be read per figure.
for f in results/*.txt; do
  b=$(basename "$f" .txt)
  t0=$(date +%s)
  $BFETCH "$b" --no-cache 2>/dev/null | cmp - "$f" || {
    echo "$f is stale: regenerate with $BFETCH $b --no-cache > $f"; exit 1; }
  echo "drift: $b $(( $(date +%s) - t0 )) s"
done

echo "==> assembler gate: every bundled .s program assembles (asmcheck)"
$BFETCH asmcheck crates/workloads/asm/*.s

echo "==> real-program cross-validation smoke: thread-count byte-identity"
RP="$BFETCH fig_realprog --quick --small --no-cache"
$RP -j 1 >target/FIG_realprog_quick.txt 2>/dev/null
$RP -j 4 2>/dev/null | cmp target/FIG_realprog_quick.txt -
grep -q "pairs fully agree" target/FIG_realprog_quick.txt

echo "==> fault injection: panic / livelock / runaway isolation end to end"
cargo test -q -p bfetch-bench --test faults

echo "==> cache GC: stranded tmp + stale schema swept, byte cap enforced, torn frame quarantined, misnamed entry swept"
printf 'half-written entry' >"$CACHE/deadbeefdeadbeef.json.tmp.99999"
printf '{"schema":1,"key":"v1|old","results":[]}' >"$CACHE/0123456789abcdef.json"
$BIN $ARGS --threads 4 --cache-gc --cache-cap 16K >/dev/null 2>"$CACHE/gc.err"
grep -q "cache-gc:" "$CACHE/gc.err"
grep -q "1 tmp" "$CACHE/gc.err"
grep -q "1 stale" "$CACHE/gc.err"
test ! -e "$CACHE/deadbeefdeadbeef.json.tmp.99999"
test ! -e "$CACHE/0123456789abcdef.json"
KEPT=$(sed -n 's/.*cache-gc: kept [0-9]* entries (\([0-9]*\) bytes).*/\1/p' "$CACHE/gc.err")
[ -n "$KEPT" ] && [ "$KEPT" -le 16384 ] || {
  echo "GC left $KEPT bytes, cap is 16384"; exit 1; }
# a torn frame under a live entry's name: the next run quarantines it and
# recomputes (stdout unchanged), and the next GC sweeps the .bad
TORN=$(ls "$CACHE"/*.res | head -n 1)
head -c 64 "$TORN" >"$CACHE/torn" && mv "$CACHE/torn" "$TORN"
$BIN $ARGS --threads 4 >"$CACHE/torn.txt" 2>"$CACHE/torn.err"
cmp "$CACHE/serial.txt" "$CACHE/torn.txt"
grep -q " 1 recomputed" "$CACHE/torn.err"
test -e "$TORN.bad"
$BIN $ARGS --threads 4 --cache-gc >/dev/null 2>"$CACHE/gc.err"
grep -q "1 quarantined + 0 stale" "$CACHE/gc.err"
test ! -e "$TORN.bad"
# a valid entry under a name its key does not hash to (what every entry
# named by an earlier name hash looks like): a miss, and GC sweeps it
cp "$TORN" "$CACHE/0123456789abcdef0123456789abcdef.res"
$BIN $ARGS --threads 4 --cache-gc >/dev/null 2>"$CACHE/gc.err"
grep -q "0 quarantined + 1 stale" "$CACHE/gc.err"
test ! -e "$CACHE/0123456789abcdef0123456789abcdef.res"
test -e "$TORN"

echo "==> interrupt: exit path, no checkpoint files, rerun byte-identity"
# BFETCH_HARNESS_INTERRUPT sets the harness stop flag before the sweep
# (the SIGINT mechanism minus signal-delivery races): every point is
# skipped and the process exits 130 with stdout untouched. A harness point
# is never checkpointed, so the cache directory never holds a .snap or
# .prog file. The rerun simulates every point; its stdout must match a
# --no-cache run. Outputs live under target/interrupt so CI can upload
# them when this fails.
IARGS="--small --instructions 20000 --warmup 5000 --kernels mcf,libquantum --threads 1"
INT=target/interrupt; rm -rf "$INT"; mkdir -p "$INT/cache"
rc=0
BFETCH_HARNESS_INTERRUPT=1 $BIN $IARGS --cache-dir "$INT/cache" \
  >"$INT/out.txt" 2>"$INT/err.txt" || rc=$?
[ "$rc" -eq 130 ] || { echo "expected interrupt exit 130, got $rc"; exit 1; }
grep -q "harness. interrupted" "$INT/err.txt"
test ! -s "$INT/out.txt"
$BIN $IARGS --cache-dir "$INT/cache" >"$INT/rerun.txt" 2>/dev/null
if find "$INT/cache" -name '*.snap' -o -name '*.prog' | grep -q .; then
  echo "the harness wrote a checkpoint file"; exit 1; fi
$BIN $IARGS --no-cache >"$INT/fresh.txt" 2>/dev/null
cmp "$INT/rerun.txt" "$INT/fresh.txt"

echo "verify: OK"
