#!/usr/bin/env bash
# Full local verification: configure, build, run every test, smoke-run the
# examples, then run the quick benchmark sweep. Mirrors what CI would do.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every build below treats a compiler warning as an error.
cmake -B build -G Ninja -DFGHP_WERROR=ON
cmake --build build

ctest --test-dir build --output-on-failure

echo "--- ThreadSanitizer: task-parallel recursive bisection + tracing + cancel + executor ---"
cmake -B build-tsan -G Ninja -DFGHP_SANITIZE=thread -DFGHP_WERROR=ON \
      -DFGHP_BUILD_BENCH=OFF -DFGHP_BUILD_EXAMPLES=OFF > /dev/null
cmake --build build-tsan --target test_parallel_rb test_fastpart test_trace test_cancel \
      test_spgemm test_compiled
FGHP_THREADS=8 ./build-tsan/tests/test_parallel_rb
# The fast-path partitioners share the task-parallel RB engine (geometric)
# and must stay bit-identical at 8 threads; TSan watches the forked splits.
FGHP_THREADS=8 ./build-tsan/tests/test_fastpart
./build-tsan/tests/test_trace
# Cancellation, watchdog heartbeats, and pool shutdown race real worker
# threads by construction — exactly what TSan is for.
./build-tsan/tests/test_cancel
# The SpGEMM tests drive the generic executor's threaded BSP supersteps
# (two gathered input spaces, retry/fallback ladder) under TSan.
./build-tsan/tests/test_spgemm
# The SpMV session tests run the supersteps on the pool's team at 2, 4 and 8
# threads, from two concurrent callers and from inside pool work.
./build-tsan/tests/test_compiled

echo "--- Address/UB sanitizers: file readers + compiled image + hypergraph grouping ---"
cmake -B build-asan -G Ninja -DFGHP_SANITIZE=address,undefined -DFGHP_WERROR=ON \
      -DFGHP_BUILD_BENCH=OFF -DFGHP_BUILD_EXAMPLES=ON > /dev/null
cmake --build build-asan --target test_mmio test_mmio_fuzz test_decomp_io test_decomp_fuzz \
      test_json test_json_fuzz test_sparse test_fault test_errors test_compiled \
      test_models test_models2d test_fixed_vertices test_hg_partitioner test_comm fghp_tool
./build-asan/tests/test_mmio
# Seeded mutants of small .mtx files: each parses or raises a typed error.
./build-asan/tests/test_mmio_fuzz
# Header counts and number spellings come from outside the program: a
# declared count must never reach an allocation before its entries are read.
./build-asan/tests/test_decomp_io
# Seeded mutants of small decomposition files: each loads or raises a typed
# error, and one that loads and validates must plan and run.
./build-asan/tests/test_decomp_fuzz
./build-asan/tests/test_json
# Seeded mutants of the documents the repo's writers emit: each parses (and
# round-trips through json::Writer) or raises FormatError.
./build-asan/tests/test_json_fuzz
./build-asan/tests/test_sparse
./build-asan/tests/test_fault
./build-asan/tests/test_errors
# The compiled-session tests exercise the cache-reordered slot tables and the
# SIMD kernels over the whole suite — exactly where an off-by-one in a
# pre-translated slot would scribble out of bounds.
./build-asan/tests/test_compiled
# hg::group builds every hypergraph but the fine-grain one (the 1D,
# jagged-stripe, RB-side and coarse levels) from index arrays; these suites
# drive each of its callers.
./build-asan/tests/test_models
./build-asan/tests/test_models2d
./build-asan/tests/test_fixed_vertices
./build-asan/tests/test_hg_partitioner
./build-asan/tests/test_comm

echo "--- fault-injection sweep (ASan/UBSan) ---"
# Inject every registered fault site once into a real partition->simulate
# pipeline. Each run must either recover (exit 0) or fail with its typed
# error category (exit 3..9) — never a crash (>= 128), a generic failure (1)
# or a usage error (2). The cancel.* sites surface as exit 8 (cancelled).
ftmp=$(mktemp -d)
tool=./build-asan/examples/fghp_tool
"$tool" gen sherman3 --out "$ftmp/m.mtx" --scale 0.15 > /dev/null
"$tool" partition "$ftmp/m.mtx" --model finegrain --k 4 --out "$ftmp/d.decomp" > /dev/null
check_rc() {  # $1 = site, $2 = command name, $3 = exit code
  case "$3" in
    0|[3-9]) echo "  site $1 ($2) -> exit $3 (ok)" ;;
    *) echo "  site $1 ($2) -> exit $3 (NOT a typed error)"
       cat "$ftmp/err.txt"; exit 1 ;;
  esac
}
for site in $("$tool" faults); do
  rc=0
  FGHP_FAULT_SPEC="$site:1" "$tool" partition "$ftmp/m.mtx" --model finegrain --k 4 \
      --strict --out "$ftmp/d2.decomp" > /dev/null 2> "$ftmp/err.txt" || rc=$?
  check_rc "$site" partition "$rc"
  # The graph baseline shares the RB engine but has its own fault sites
  # (grb.*, gfm.*); sweep it too so both recovery ladders stay covered.
  rc=0
  FGHP_FAULT_SPEC="$site:1" "$tool" partition "$ftmp/m.mtx" --model graph --k 4 \
      --strict --out "$ftmp/d3.decomp" > /dev/null 2> "$ftmp/err.txt" || rc=$?
  check_rc "$site" partition-graph "$rc"
  # The geometric fast path has its own ladder rungs (geo.*); sweeping
  # every site through it keeps all three recovery ladders covered.
  rc=0
  FGHP_FAULT_SPEC="$site:1" "$tool" partition "$ftmp/m.mtx" --model finegrain --k 4 \
      --method geometric --strict --out "$ftmp/d4.decomp" > /dev/null 2> "$ftmp/err.txt" || rc=$?
  check_rc "$site" partition-geometric "$rc"
  rc=0
  FGHP_FAULT_SPEC="$site:1" "$tool" simulate "$ftmp/m.mtx" "$ftmp/d.decomp" --reps 1 \
      > /dev/null 2> "$ftmp/err.txt" || rc=$?
  check_rc "$site" simulate "$rc"
done

echo "--- deadline sweep (ASan/UBSan) ---"
# Shrinking time budgets against the same instrumented binary. With the
# degradation ladder on (the default), every budget — including an already
# expired one — must still produce a strict-validated partition and exit 0;
# with --no-degrade an expired budget must surface as the typed deadline
# exit (9). Either way: no crashes, no generic failures.
for ms in 10000 100 10 1 0; do
  rc=0
  "$tool" partition "$ftmp/m.mtx" --model finegrain --k 8 --strict \
      --timeout-ms "$ms" --out "$ftmp/ddl.decomp" > /dev/null 2> "$ftmp/err.txt" || rc=$?
  case "$rc" in
    0|8|9) echo "  timeout ${ms}ms (partition) -> exit $rc (ok)" ;;
    *) echo "  timeout ${ms}ms (partition) -> exit $rc (NOT a typed outcome)"
       cat "$ftmp/err.txt"; exit 1 ;;
  esac
done
# An already-expired budget with degradation disabled must be the typed
# deadline error — not a crash, not a silent success.
rc=0
"$tool" partition "$ftmp/m.mtx" --model finegrain --k 8 --strict \
    --timeout-ms 0 --no-degrade --out "$ftmp/ddl.decomp" \
    > /dev/null 2> "$ftmp/err.txt" || rc=$?
if [ "$rc" -ne 9 ]; then
  echo "  timeout 0ms --no-degrade -> exit $rc (expected 9)"
  cat "$ftmp/err.txt"; exit 1
fi
echo "  timeout 0ms --no-degrade -> exit 9 (ok)"
# The simulate path checks the token per iteration; the env-var route must
# behave like the flag.
rc=0
FGHP_TIMEOUT_MS=0 "$tool" simulate "$ftmp/m.mtx" "$ftmp/d.decomp" --reps 2 \
    > /dev/null 2> "$ftmp/err.txt" || rc=$?
if [ "$rc" -ne 9 ]; then
  echo "  FGHP_TIMEOUT_MS=0 simulate -> exit $rc (expected 9)"
  cat "$ftmp/err.txt"; exit 1
fi
echo "  FGHP_TIMEOUT_MS=0 simulate -> exit 9 (ok)"
rm -rf "$ftmp"

echo "--- examples ---"
./build/examples/quickstart --matrix sherman3 --scale 0.25 --k 8
./build/examples/anatomy_finegrain
./build/examples/cg_solver --n 32 --k 4
./build/examples/reduction_preassigned --n 1000 --k 4
tmp=$(mktemp -d)
./build/examples/fghp_tool gen sherman3 --out "$tmp/m.mtx" --scale 0.2
./build/examples/fghp_tool stats "$tmp/m.mtx"
./build/examples/fghp_tool partition "$tmp/m.mtx" --model finegrain --k 8 --out "$tmp/d.decomp"
./build/examples/fghp_tool simulate "$tmp/m.mtx" "$tmp/d.decomp" --reps 3
./build/examples/fghp_tool partition "$tmp/m.mtx" --model finegrain --k 8 \
    --method geometric --strict --json > /dev/null
./build/examples/fghp_tool spgemm "$tmp/m.mtx" --k 8 --reps 3
# B != A through the --b-matrix flag: same suite matrix and scale (so the
# inner dimensions agree) but a different generator seed.
./build/examples/fghp_tool gen sherman3 --out "$tmp/b.mtx" --scale 0.2 --seed 2
./build/examples/fghp_tool spgemm "$tmp/m.mtx" --b-matrix "$tmp/b.mtx" --k 8 --reps 3
./build/examples/triangle_count
rm -rf "$tmp"

echo "--- trace smoke: Chrome-trace & metrics export ---"
# One partition and one simulate through both capture routes (--trace-out
# flag, FGHP_TRACE env). Every artifact must be valid JSON and each trace
# must actually contain spans — an exporter that silently records nothing
# would otherwise pass.
ttmp=$(mktemp -d)
ttool=./build/examples/fghp_tool
"$ttool" gen sherman3 --out "$ttmp/m.mtx" --scale 0.2 > /dev/null
"$ttool" partition "$ttmp/m.mtx" --model finegrain --k 8 --out "$ttmp/d.decomp" \
    --trace-out "$ttmp/partition_trace.json" --metrics-out "$ttmp/metrics.json" > /dev/null
FGHP_TRACE="$ttmp/simulate_trace.json" "$ttool" simulate "$ttmp/m.mtx" "$ttmp/d.decomp" \
    --reps 2 > /dev/null
for f in partition_trace simulate_trace metrics; do
  python3 -m json.tool "$ttmp/$f.json" > /dev/null || {
    echo "trace smoke FAILED: $f.json is not valid JSON"; exit 1; }
done
for f in partition_trace simulate_trace; do
  spans=$(grep -c '"ph":"X"' "$ttmp/$f.json" || true)
  if [ "${spans:-0}" -eq 0 ]; then
    echo "trace smoke FAILED: $f.json contains no spans"; exit 1
  fi
  echo "  $f.json: $spans spans"
done
rm -rf "$ttmp"

echo "--- report smoke: structured RunReport + volume audit ---"
# One partition and one simulate with --report-out. The reports must be
# valid version-2 JSON, every phase's parallel efficiency must lie in
# (0, 1], trace-drop accounting must be present, and the simulate report's
# modeled-vs-measured volume audit must match exactly. Finally the reports
# must render back through `fghp_tool report`.
rtmp=$(mktemp -d)
rtool=./build/examples/fghp_tool
"$rtool" gen sherman3 --out "$rtmp/m.mtx" --scale 0.2 > /dev/null
"$rtool" partition "$rtmp/m.mtx" --model finegrain --k 8 --out "$rtmp/d.decomp" \
    --report-out "$rtmp/partition_report.json" > /dev/null
"$rtool" simulate "$rtmp/m.mtx" "$rtmp/d.decomp" --reps 3 \
    --report-out "$rtmp/simulate_report.json" > /dev/null 2>&1
for f in partition_report simulate_report; do
  python3 -m json.tool "$rtmp/$f.json" > /dev/null || {
    echo "report smoke FAILED: $f.json is not valid JSON"; exit 1; }
done
python3 - "$rtmp" <<'PY'
import json, sys
tmp = sys.argv[1]
for name in ("partition_report", "simulate_report"):
    r = json.load(open(f"{tmp}/{name}.json"))
    if r["run_report_version"] != 2 or r["status"] != "ok":
        sys.exit(f"report smoke FAILED: {name} is not a clean v2 report")
    if "dropped" not in r["trace"]:
        sys.exit(f"report smoke FAILED: {name} has no trace-drop accounting")
    if not r["phases"]:
        sys.exit(f"report smoke FAILED: {name} recorded no phases")
    for p in r["phases"]:
        if not 0.0 < p["parallel_efficiency"] <= 1.0:
            sys.exit(f'report smoke FAILED: {name} phase {p["name"]} '
                     f'efficiency {p["parallel_efficiency"]} outside (0, 1]')
    print(f'  {name}: {len(r["phases"])} phases, {r["trace"]["events"]} events, '
          f'{r["trace"]["dropped"]} dropped')
audit = json.load(open(f"{tmp}/simulate_report.json"))["volume_audit"]
if not (audit["present"] and audit["matches"] and audit["iterations"] == 3):
    sys.exit(f"report smoke FAILED: volume audit did not match: {audit}")
print(f'  volume audit: {audit["iterations"]} iterations, expand '
      f'{audit["measured_expand_words"]} measured == '
      f'{audit["modeled_expand_words"]} modeled * iters (MATCH)')
PY
"$rtool" report "$rtmp/simulate_report.json" | grep -q "RunReport v2" || {
  echo "report smoke FAILED: 'fghp_tool report' did not render"; exit 1; }
rm -rf "$rtmp"

# Parses a bench --json document; fails on any null or non-finite number in
# it, and on a compiled_gflops / gflops <= 0 in any record. A second argument
# names a throughput field that must appear in some record.
check_bench_json() {  # $1 = bench JSON file, [$2 = required throughput field]
  python3 - "$@" <<'PY'
import json, math, sys
path, need = sys.argv[1], sys.argv[2:]
def values(v):
    if isinstance(v, dict): v = list(v.values())
    return [y for x in v for y in values(x)] if isinstance(v, list) else [v]
doc = json.load(open(path))
if any(v is None or (isinstance(v, float) and not math.isfinite(v)) for v in values(doc)):
    sys.exit(f"perf smoke FAILED: null or non-finite number in {path}")
flops = {}
for records in (v for v in doc.values() if isinstance(v, list)):
    for f, g in ((f, r[f]) for r in records for f in ("compiled_gflops", "gflops") if f in r):
        if not g > 0:
            sys.exit(f"perf smoke FAILED: {f} {g} <= 0 in {path}")
        flops[f] = min(flops.get(f, g), g)
for f in need:
    if f not in flops:
        sys.exit(f"perf smoke FAILED: no record carries {f} in {path}")
    print(f"  {path}: min {f} {flops[f]} GFLOP/s, every number finite")
PY
}

echo "--- quick benches (reduced scale) ---"
FGHP_SCALE=0.15 FGHP_SEEDS=1 FGHP_K=16 ./build/bench/bench_table2
FGHP_SCALE=0.15 ./build/bench/bench_ablation_checkerboard

echo "--- perf smoke: compiled SpMV session ---"
# One small matrix through bench_spmv's throughput and roofline sections.
# Catches gross perf breakage (a dead or mis-lowered compiled image reports
# zero/NaN throughput); the JSON stays in build/ for comparison against the
# committed BENCH_spmv.json trajectory.
FGHP_MATRICES=sherman3 FGHP_SCALE=0.05 FGHP_K=16 FGHP_REPS=5 FGHP_STREAM_MB=16 \
    ./build/bench/bench_spmv --json build/bench_spmv_smoke.json
check_bench_json build/bench_spmv_smoke.json compiled_gflops

# Roofline regression gate: on every (matrix, K) the smoke run shares with
# the committed BENCH_spmv.json, achieved bandwidth must stay above 50 % of
# the committed datapoint. The smoke matrices are far smaller (and so
# cache-resident and faster per byte) than the committed DRAM-scale run, so
# this bound only trips on real execution-path regressions, not on scale.
python3 - <<'PY'
import json, sys
smoke = json.load(open("build/bench_spmv_smoke.json"))
committed = json.load(open("BENCH_spmv.json"))
base = {(r["matrix"], r["k"]): r for r in committed.get("roofline", [])}
checked = 0
for r in smoke.get("roofline", []):
    b = base.get((r["matrix"], r["k"]))
    if b is None:
        continue
    checked += 1
    floor = 0.5 * b["gbps"]
    status = "ok" if r["gbps"] >= floor else "REGRESSED"
    print(f'  roofline {r["matrix"]}/K{r["k"]}: {r["gbps"]:.2f} GB/s '
          f'(committed {b["gbps"]:.2f}, floor {floor:.2f}) {status}')
    if r["gbps"] < floor:
        sys.exit(f'perf smoke FAILED: {r["matrix"]}/K{r["k"]} bandwidth '
                 f'{r["gbps"]:.2f} GB/s below 50% of committed {b["gbps"]:.2f}')
if checked == 0:
    sys.exit("perf smoke FAILED: no roofline datapoints shared with BENCH_spmv.json")
PY

echo "--- perf smoke: SpGEMM through the generic core ---"
# The second workload's gate: cutsize == volume is asserted inside the bench
# (nonzero exit on mismatch), and throughput must be finite and positive. The
# JSON stays in build/ for comparison against the committed BENCH_spgemm.json.
FGHP_MATRICES=sherman3 FGHP_SCALE=0.15 FGHP_K=8 FGHP_REPS=5 \
    ./build/bench/bench_spgemm --json build/bench_spgemm_smoke.json
check_bench_json build/bench_spgemm_smoke.json gflops

echo "--- perf smoke: partitioner Pareto front ---"
# All three fine-grain methods across two structurally different matrices.
# The bench itself exits nonzero on any zero/NaN datapoint; the gate below
# additionally requires the fast path to actually be fast — geometric must
# beat multilevel wall-time on the largest smoke matrix at K=16 (the
# committed BENCH_pareto.json headline is the full-scale version of this).
FGHP_MATRICES=sherman3,finan512 FGHP_SCALE=0.1 FGHP_K=16 FGHP_SPGEMM_SCALE=0.05 \
    ./build/bench/bench_pareto --json build/bench_pareto_smoke.json
check_bench_json build/bench_pareto_smoke.json
python3 - <<'PY'
import json, sys
smoke = json.load(open("build/bench_pareto_smoke.json"))
speedup = smoke.get("headline_speedup", 0.0)
matrix = smoke.get("headline_matrix", "?")
if not speedup or speedup <= 1.0:
    sys.exit(f"perf smoke FAILED: geometric is not faster than multilevel on "
             f"{matrix} at K=16 (speedup {speedup})")
print(f"  pareto headline ({matrix}, K=16): geometric {speedup:.1f}x faster "
      f"than multilevel (artifact: build/bench_pareto_smoke.json)")
PY

echo "ALL CHECKS PASSED"
