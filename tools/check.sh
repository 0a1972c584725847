#!/usr/bin/env bash
# Tier-1 verification: configure, build with warnings, run the test suite,
# then smoke-check the machine-readable bench output. CI runs exactly this;
# run it locally before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS="-Wall -Wextra"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Bench JSON smoke: one fast kernel, schema + attribution row sums checked.
"$BUILD_DIR"/bench/bench_table3 --json --kernels=kmp > "$BUILD_DIR"/table3.json
python3 tools/check_bench_json.py "$BUILD_DIR"/table3.json

# Memory-hierarchy smoke: the same kernel under all three mem profiles
# (shape checks run inside bench_mem), plus the Figure 7 cache rows.
"$BUILD_DIR"/bench/bench_mem --json --kernels=kmp > "$BUILD_DIR"/mem.json
python3 tools/check_bench_json.py "$BUILD_DIR"/mem.json
"$BUILD_DIR"/bench/bench_cache --json > "$BUILD_DIR"/cache.json
python3 tools/check_bench_json.py "$BUILD_DIR"/cache.json

# Differential-fuzz smoke: 25 fixed-seed random programs through the
# default core x mem-profile matrix, each diffed against the golden
# simulator with the invariant monitors attached. Nonzero exit on any
# divergence or violation; repro bundles land in $BUILD_DIR/fuzz-out.
# Run the matrix over the worker pool, then prove the batch engine's
# determinism contract: a serial run produces byte-identical JSON.
"$BUILD_DIR"/tools/pdlfuzz --seed=1 --count=25 --json --jobs="$JOBS" \
    --out="$BUILD_DIR"/fuzz-out > "$BUILD_DIR"/fuzz.json
python3 tools/check_bench_json.py "$BUILD_DIR"/fuzz.json
"$BUILD_DIR"/tools/pdlfuzz --seed=1 --count=25 --json \
    --out="$BUILD_DIR"/fuzz-out-serial > "$BUILD_DIR"/fuzz-serial.json
cmp "$BUILD_DIR"/fuzz.json "$BUILD_DIR"/fuzz-serial.json

# Evaluator-equivalence smoke: the same fixed-seed fuzz matrix under the
# legacy tree walker (--eval=tree) and the superinstruction-fused bytecode
# (--eval=fused) must be byte-identical to the default bytecode run — the
# compiled programs are a bit-for-bit drop-in, not an approximation. Rows
# name their evaluator in eval_mode, so the cmp strips that one line.
strip_eval_mode() { grep -v '"eval_mode"' "$1"; }
PDL_EVAL_TREE=1 "$BUILD_DIR"/tools/pdlfuzz --seed=1 --count=25 --json \
    --out="$BUILD_DIR"/fuzz-out-tree > "$BUILD_DIR"/fuzz-tree.json
cmp <(strip_eval_mode "$BUILD_DIR"/fuzz.json) \
    <(strip_eval_mode "$BUILD_DIR"/fuzz-tree.json)
"$BUILD_DIR"/tools/pdlfuzz --eval=fused --seed=1 --count=25 --json \
    --out="$BUILD_DIR"/fuzz-out-fused > "$BUILD_DIR"/fuzz-fused.json
python3 tools/check_bench_json.py "$BUILD_DIR"/fuzz-fused.json
cmp <(strip_eval_mode "$BUILD_DIR"/fuzz.json) \
    <(strip_eval_mode "$BUILD_DIR"/fuzz-fused.json)
# The native tier (compiled artifacts) is the fourth evaluator: the same
# matrix under --eval=native must also be byte-identical. Artifacts build
# into a private dir so this leg is hermetic; the second run below proves
# the dir is warm (no recompiles) AND that per-program results survive the
# in-process cross-check — PDL_CHECK_EVAL_IDENTITY re-runs every native
# simulation through the interpreter and aborts on any byte difference.
# CI caches this dir across runs (keyed by compiler identity + backend
# source hash), so a warm CI run never recompiles; artifacts are
# content-addressed, so stale entries from older keys are inert.
NATIVE_DIR="${PDL_NATIVE_SMOKE_DIR:-$BUILD_DIR/native-cache-smoke}"
PDL_NATIVE_CACHE_DIR="$NATIVE_DIR" "$BUILD_DIR"/tools/pdlfuzz --eval=native \
    --seed=1 --count=25 --json --out="$BUILD_DIR"/fuzz-out-native \
    > "$BUILD_DIR"/fuzz-native.json
python3 tools/check_bench_json.py "$BUILD_DIR"/fuzz-native.json
cmp <(strip_eval_mode "$BUILD_DIR"/fuzz.json) \
    <(strip_eval_mode "$BUILD_DIR"/fuzz-native.json)
PDL_NATIVE_CACHE_DIR="$NATIVE_DIR" PDL_CHECK_EVAL_IDENTITY=1 \
    "$BUILD_DIR"/tools/pdlfuzz --eval=native --seed=1 --count=10 --json \
    --out="$BUILD_DIR"/fuzz-out-native2 > "$BUILD_DIR"/fuzz-native2.json
# No usable compiler must degrade gracefully, not fail: same matrix, same
# bytes, rows reporting the downgraded evaluator.
PDL_NATIVE_CXX=/nonexistent/cxx "$BUILD_DIR"/tools/pdlfuzz --eval=native \
    --seed=1 --count=10 --json --out="$BUILD_DIR"/fuzz-out-nofallback \
    > "$BUILD_DIR"/fuzz-nocc.json
if grep -q '"eval_mode": "native"' "$BUILD_DIR"/fuzz-nocc.json; then
    echo "check.sh: no-compiler run still claims native eval_mode"; exit 1
fi
python3 tools/check_bench_json.py "$BUILD_DIR"/fuzz-nocc.json

# Bytecode-lowering property fuzz: seeded random programs differentialed
# through fusion (and, when a compiler is present, the emitted artifacts
# via the NativeTest/ctest leg above). Nonzero exit on any divergence.
"$BUILD_DIR"/tools/pdlfuzz --bc-fuzz=300 > /dev/null

# Four-way single-run differential through pdlc: the run-stats document
# (which carries no eval_mode field) must be byte-identical under all
# four evaluators. The native run reuses the warm artifact dir from above.
for mode in bytecode tree fused native; do
    PDL_NATIVE_CACHE_DIR="$NATIVE_DIR" \
    "$BUILD_DIR"/tools/pdlc --run cpu 0 --cycles 500 --stats=json \
        --eval="$mode" cores_pdl/rv32i_5stage.pdl \
        2> /dev/null > "$BUILD_DIR"/stats-"$mode".json
done
cmp "$BUILD_DIR"/stats-bytecode.json "$BUILD_DIR"/stats-tree.json
cmp "$BUILD_DIR"/stats-bytecode.json "$BUILD_DIR"/stats-fused.json
cmp "$BUILD_DIR"/stats-bytecode.json "$BUILD_DIR"/stats-native.json

# Translation-validation smoke (tv-smoke in CI): every committed core
# source must certify in strict mode — all obligations proved, certificate
# replayed by the solver-free checker — and the pdlc certification stats
# document must pass the schema check. A seeded miscompile
# (PDL_TV_MUTATE) must be rejected (exit 4); the fuller rejection
# assertions live in TvTest.
for f in cores_pdl/*.pdl; do
    "$BUILD_DIR"/tools/pdlc --certify=strict "$f" > /dev/null
    "$BUILD_DIR"/tools/pdlc --certify=strict --eval=fused "$f" > /dev/null
    # Native emission happens under the same strict certificate: certifying
    # with --eval=native proves the gate, attach, and artifact store end to
    # end for every committed core.
    PDL_NATIVE_CACHE_DIR="$NATIVE_DIR" "$BUILD_DIR"/tools/pdlc \
        --certify=strict --eval=native "$f" > /dev/null
done
"$BUILD_DIR"/tools/pdlc --certify --stats=json cores_pdl/rv32i_5stage.pdl \
    2> /dev/null > "$BUILD_DIR"/certify.json
python3 tools/check_bench_json.py --certify "$BUILD_DIR"/certify.json
if PDL_TV_MUTATE=cse-ternary "$BUILD_DIR"/tools/pdlc --certify \
    cores_pdl/rv32i_5stage.pdl > /dev/null 2>&1; then
    echo "check.sh: seeded miscompile was NOT rejected"; exit 1
fi
# The seeded fusion-window miscompile must likewise be refuted, and the
# same mutation run through the fuzzer must fail with rejected-certificate
# rows (outcome "uncertified" — miscompiled code never executes).
if PDL_TV_MUTATE=fuse-window "$BUILD_DIR"/tools/pdlc --certify \
    --eval=fused cores_pdl/rv32i_5stage.pdl > /dev/null 2>&1; then
    echo "check.sh: seeded fusion miscompile was NOT rejected"; exit 1
fi
if PDL_TV_MUTATE=fuse-window "$BUILD_DIR"/tools/pdlfuzz --eval=fused \
    --seed=1 --count=1 --json --certify \
    > "$BUILD_DIR"/fuzz-mutated.json 2> /dev/null; then
    echo "check.sh: fuzzer accepted the seeded fusion miscompile"; exit 1
fi
grep -q '"tv": "rejected"' "$BUILD_DIR"/fuzz-mutated.json || {
    echo "check.sh: mutated fuzz rows missing rejected tv field"; exit 1; }
grep -q '"outcome": "uncertified"' "$BUILD_DIR"/fuzz-mutated.json || {
    echo "check.sh: mutated fuzz rows executed uncertified code"; exit 1; }
# Certified fuzz rows: the default matrix again, now with every core's
# bytecode certified per run (cached after the first); rows carry tv.
"$BUILD_DIR"/tools/pdlfuzz --seed=1 --count=5 --json --certify \
    --out="$BUILD_DIR"/fuzz-out-certify > "$BUILD_DIR"/fuzz-certify.json
python3 tools/check_bench_json.py "$BUILD_DIR"/fuzz-certify.json
grep -q '"tv": "certified"' "$BUILD_DIR"/fuzz-certify.json || {
    echo "check.sh: certified fuzz rows missing tv field"; exit 1; }

# Simulation-service smoke: start pdlsimd, submit the fuzz smoke matrix
# cold, resubmit it warm — at least 90% of the warm responses must come
# from the result cache, and the response rows must be byte-identical to
# the cold run's modulo the cached flag. SIGTERM must drain gracefully
# (exit 0, socket unlinked).
SVC_SOCK="$BUILD_DIR/pdlsimd-smoke.sock"
rm -f "$SVC_SOCK"
"$BUILD_DIR"/tools/pdlsimd --socket="$SVC_SOCK" --workers="$JOBS" \
    --cache=256 2> "$BUILD_DIR"/pdlsimd-smoke.log &
SVC_PID=$!
trap 'kill "$SVC_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do [ -S "$SVC_SOCK" ] && break; sleep 0.1; done
"$BUILD_DIR"/tools/pdlsim --socket="$SVC_SOCK" --seed=1 --count=10 --json \
    > "$BUILD_DIR"/service-cold.jsonl
"$BUILD_DIR"/tools/pdlsim --socket="$SVC_SOCK" --seed=1 --count=10 --json \
    --min-cached=0.9 > "$BUILD_DIR"/service-warm.jsonl
python3 tools/check_bench_json.py --service "$BUILD_DIR"/service-cold.jsonl
python3 tools/check_bench_json.py --service "$BUILD_DIR"/service-warm.jsonl
cmp <(sed 's/"cached":true/"cached":false/' "$BUILD_DIR"/service-warm.jsonl) \
    "$BUILD_DIR"/service-cold.jsonl
# A batch of 400 requests, far more than the socket buffers hold, must
# finish: pdlsim keeps a bounded window of requests in flight instead of
# writing the whole batch before reading any response.
timeout 120 "$BUILD_DIR"/tools/pdlsim --socket="$SVC_SOCK" --seed=1 \
    --count=100 --json > "$BUILD_DIR"/service-window.jsonl || {
    echo "check.sh: pdlsim --count=100 failed or hung"; exit 1; }
python3 tools/check_bench_json.py --service "$BUILD_DIR"/service-window.jsonl
[ "$(wc -l < "$BUILD_DIR"/service-window.jsonl)" -eq 400 ] || {
    echo "check.sh: pdlsim --count=100 did not answer 400 requests"; exit 1; }
kill -TERM "$SVC_PID"
wait "$SVC_PID"
trap - EXIT
[ ! -e "$SVC_SOCK" ] || { echo "pdlsimd left its socket behind"; exit 1; }

# Crash-recovery smoke: a daemon with a state directory is killed with
# SIGKILL after serving a cold batch; a restarted daemon on the same state
# directory must answer the identical batch entirely from the reloaded
# persistent cache, byte-identical modulo the cached flag. Then the
# deterministic transport drill: a daemon armed with PDL_SVC_FAULT severs
# one connection mid-batch and the client must reconnect, resubmit, and
# still produce byte-identical rows. Finally the refused-connect class
# must exit 4 with a structured transport row.
CR_SOCK="$BUILD_DIR/pdlsimd-crash.sock"
CR_STATE="$BUILD_DIR/pdlsimd-crash-state"
rm -rf "$CR_SOCK" "$CR_STATE"
"$BUILD_DIR"/tools/pdlsimd --socket="$CR_SOCK" --workers="$JOBS" \
    --cache=256 --state-dir="$CR_STATE" --checkpoint-every=100 \
    2> "$BUILD_DIR"/pdlsimd-crash.log &
CR_PID=$!
trap 'kill -9 "$CR_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do [ -S "$CR_SOCK" ] && break; sleep 0.1; done
"$BUILD_DIR"/tools/pdlsim --socket="$CR_SOCK" --seed=1 --count=10 --json \
    --retries=8 --retry-delay-ms=100 > "$BUILD_DIR"/crash-cold.jsonl
kill -9 "$CR_PID"
wait "$CR_PID" 2>/dev/null || true
"$BUILD_DIR"/tools/pdlsimd --socket="$CR_SOCK" --workers="$JOBS" \
    --cache=256 --state-dir="$CR_STATE" --checkpoint-every=100 \
    2>> "$BUILD_DIR"/pdlsimd-crash.log &
CR_PID=$!
trap 'kill "$CR_PID" 2>/dev/null || true' EXIT
# The stale socket file from the killed daemon still exists until the
# restarted one reclaims it, so -S alone can pass early; the client's
# refused-connect backoff bridges the gap.
for _ in $(seq 1 50); do [ -S "$CR_SOCK" ] && break; sleep 0.1; done
"$BUILD_DIR"/tools/pdlsim --socket="$CR_SOCK" --seed=1 --count=10 --json \
    --retries=8 --retry-delay-ms=100 --min-cached=1.0 \
    > "$BUILD_DIR"/crash-warm.jsonl
python3 tools/check_bench_json.py --service "$BUILD_DIR"/crash-warm.jsonl
cmp <(sed 's/"cached":true/"cached":false/' "$BUILD_DIR"/crash-warm.jsonl) \
    <(sed 's/"cached":true/"cached":false/' "$BUILD_DIR"/crash-cold.jsonl)
kill -TERM "$CR_PID"
wait "$CR_PID"
trap - EXIT
rm -rf "$CR_STATE"

DROP_SOCK="$BUILD_DIR/pdlsimd-drop.sock"
rm -f "$DROP_SOCK"
PDL_SVC_FAULT=drop-connection:nth=5 "$BUILD_DIR"/tools/pdlsimd \
    --socket="$DROP_SOCK" --workers="$JOBS" --cache=256 \
    2> "$BUILD_DIR"/pdlsimd-drop.log &
DROP_PID=$!
trap 'kill "$DROP_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do [ -S "$DROP_SOCK" ] && break; sleep 0.1; done
"$BUILD_DIR"/tools/pdlsim --socket="$DROP_SOCK" --seed=1 --count=10 --json \
    --retries=5 --retry-delay-ms=50 > "$BUILD_DIR"/crash-drop.jsonl \
    2> "$BUILD_DIR"/crash-drop.log
grep -q "reconnecting to resubmit" "$BUILD_DIR"/crash-drop.log || {
    echo "check.sh: drop-connection fault did not trigger a resubmit"
    exit 1; }
cmp <(sed 's/"cached":true/"cached":false/' "$BUILD_DIR"/crash-drop.jsonl) \
    <(sed 's/"cached":true/"cached":false/' "$BUILD_DIR"/crash-cold.jsonl)
kill -TERM "$DROP_PID"
wait "$DROP_PID"
trap - EXIT

RC=0
"$BUILD_DIR"/tools/pdlsim --socket="$BUILD_DIR/no-such.sock" --ping \
    --retries=2 --retry-delay-ms=10 --json \
    > "$BUILD_DIR"/crash-refused.jsonl 2>/dev/null || RC=$?
[ "$RC" -eq 4 ] || {
    echo "check.sh: refused connect exited $RC, want 4"; exit 1; }
python3 tools/check_bench_json.py --service "$BUILD_DIR"/crash-refused.jsonl
grep -q '"transport":"refused"' "$BUILD_DIR"/crash-refused.jsonl || {
    echo "check.sh: refused row missing transport classification"; exit 1; }

# Service-path evaluator equivalence: a fresh daemon in --eval=tree mode
# (the PDL_EVAL_TREE escape hatch) must serve cold responses byte-identical
# to the bytecode daemon's — same contract as the pdlfuzz cmp above, now
# through the full socket/cache/worker-pool path.
TREE_SOCK="$BUILD_DIR/pdlsimd-tree.sock"
rm -f "$TREE_SOCK"
"$BUILD_DIR"/tools/pdlsimd --socket="$TREE_SOCK" --workers="$JOBS" \
    --cache=256 --eval=tree 2> "$BUILD_DIR"/pdlsimd-tree.log &
TREE_PID=$!
trap 'kill "$TREE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do [ -S "$TREE_SOCK" ] && break; sleep 0.1; done
"$BUILD_DIR"/tools/pdlsim --socket="$TREE_SOCK" --seed=1 --count=10 --json \
    > "$BUILD_DIR"/service-tree.jsonl
cmp "$BUILD_DIR"/service-tree.jsonl "$BUILD_DIR"/service-cold.jsonl
kill -TERM "$TREE_PID"
wait "$TREE_PID"
trap - EXIT
[ ! -e "$TREE_SOCK" ] || { echo "pdlsimd left its socket behind"; exit 1; }

# Host-throughput trajectory: cycles/sec rows for BENCH_sim.json (the
# committed snapshot at the repo root is updated deliberately from a quiet
# machine; see docs/performance.md). Both the fused default and the plain
# bytecode evaluator pass the schema check (eval_mode/dispatch/fused_ops).
"$BUILD_DIR"/bench/bench_sim_throughput --json --kernels=kmp \
    > "$BUILD_DIR"/BENCH_sim.json
python3 tools/check_bench_json.py "$BUILD_DIR"/BENCH_sim.json
"$BUILD_DIR"/bench/bench_sim_throughput --json --kernels=kmp --eval=fused \
    > "$BUILD_DIR"/BENCH_sim_fused.json
python3 tools/check_bench_json.py "$BUILD_DIR"/BENCH_sim_fused.json
# Native rows carry the compiler identity and the artifact cache-hit flag;
# --compare emits all four evaluators from one invocation.
PDL_NATIVE_CACHE_DIR="$NATIVE_DIR" "$BUILD_DIR"/bench/bench_sim_throughput \
    --json --kernels=kmp --eval=native > "$BUILD_DIR"/BENCH_sim_native.json
python3 tools/check_bench_json.py "$BUILD_DIR"/BENCH_sim_native.json
PDL_NATIVE_CACHE_DIR="$NATIVE_DIR" "$BUILD_DIR"/bench/bench_sim_throughput \
    --json --kernels=kmp --compare > "$BUILD_DIR"/BENCH_sim_compare.json
python3 tools/check_bench_json.py "$BUILD_DIR"/BENCH_sim_compare.json

# Native warm-restart smoke: a daemon in --eval=native mode with a state
# dir compiles its artifacts once; a restarted daemon on the same state
# dir must report zero compiles and at least one cache hit in its drain
# stats while serving the same batch byte-identically.
NSVC_SOCK="$BUILD_DIR/pdlsimd-native.sock"
NSVC_STATE="$BUILD_DIR/pdlsimd-native-state"
rm -rf "$NSVC_SOCK" "$NSVC_STATE"
for run in cold warm; do
    "$BUILD_DIR"/tools/pdlsimd --socket="$NSVC_SOCK" --workers="$JOBS" \
        --cache=256 --state-dir="$NSVC_STATE" --eval=native \
        2> "$BUILD_DIR"/pdlsimd-native-"$run".log &
    NSVC_PID=$!
    trap 'kill "$NSVC_PID" 2>/dev/null || true' EXIT
    for _ in $(seq 1 50); do [ -S "$NSVC_SOCK" ] && break; sleep 0.1; done
    "$BUILD_DIR"/tools/pdlsim --socket="$NSVC_SOCK" --seed=1 --count=5 \
        --json --retries=8 --retry-delay-ms=100 \
        > "$BUILD_DIR"/service-native-"$run".jsonl
    kill -TERM "$NSVC_PID"
    wait "$NSVC_PID"
    trap - EXIT
    # The warm daemon serves from its persistent result cache; strip the
    # cached flag before comparing, as the crash-recovery leg does.
    [ "$run" = cold ] && rm -rf "$NSVC_STATE/cache"
done
cmp <(sed 's/"cached":true/"cached":false/' \
        "$BUILD_DIR"/service-native-warm.jsonl) \
    <(sed 's/"cached":true/"cached":false/' \
        "$BUILD_DIR"/service-native-cold.jsonl)
grep -Eq 'native tier: [1-9][0-9]* compile' \
    "$BUILD_DIR"/pdlsimd-native-cold.log || {
    echo "check.sh: cold native daemon reported no compiles"; exit 1; }
grep -Eq 'native tier: 0 compile\(s\) \([0-9]+ ms\), [1-9][0-9]* cache hit' \
    "$BUILD_DIR"/pdlsimd-native-warm.log || {
    echo "check.sh: restarted native daemon recompiled"; exit 1; }

echo "check.sh: all green"
