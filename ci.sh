#!/bin/sh
# Full offline CI: build, test, lint, format check. The workspace has no
# external dependencies, so --offline must always succeed — a network
# fetch appearing here is itself a regression.
set -eux

cargo build --release --workspace --offline
cargo test -q --workspace --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo fmt --all --check

# Seed-pinned chaos soak (release, ~seconds): two schemes run the ABA
# stack under rate-0.05 fault injection with the watchdog armed; the
# run must stay linearizable or fail cleanly — never hang or corrupt.
# The seed lives in tests/chaos_soak.rs, so failures replay exactly.
cargo test -q --release --offline --test chaos_soak \
    threaded_soak_with_watchdog_terminates_cleanly

# The held window, again in release (~a second): PICO-HTM regions that
# can never commit, on real threads with the watchdog armed, must take
# the degradation ladder's stop-the-world window after 32 aborts and
# complete — on 1, 2 and 4 vCPUs, also with a cache flush inside the
# window. Which vCPU holds the window when is a threaded timing path,
# and a reclamation race fails only some runs, so the step runs three
# times.
for _ in 1 2 3; do
    cargo test -q --release --offline --test chaos_soak held_window_
done

# Invalidation-storm soak (release, ~seconds): all 8 schemes run with a
# 5% translation-invalidation storm layered on top of the fault chaos,
# with the watchdog armed. Blocks are retired at dispatch boundaries
# mid-run and must retranslate without livelock, memory-accounting
# drift, or counter-merge skew. Seed-pinned in tests/chaos_soak.rs, so
# the injections replay exactly; the threads' interleaving does not, and
# a reclamation race fails only some runs, so the step runs three times.
for _ in 1 2 3; do
    cargo test -q --release --offline --test chaos_soak \
        invalidation_storm_soak_terminates_cleanly
done

# Threaded SMC and chaining tests, again in release (~a second): chain
# links to retired blocks are revoked lazily, when a vCPU next follows
# them, which is a threaded timing path, and the optimized build
# interleaves the vCPU threads differently from the debug run above.
# The same goes for the fault path under a lock: the smc step includes
# the LL/SC counter that shares its code's page (every scheme, 4
# threaded vCPUs), and a fused RMW under PST false sharing and PST's
# store race (stores let through the protection against an LL/SC loop)
# run beside it.
cargo test -q --release --offline --test smc
cargo test -q --release --offline --test fused_atomics \
    fused_rmw_under_pst_false_sharing_lands_once
cargo test -q --release --offline -p adbt-schemes --test concurrent \
    pst_stores_let_through_the_protection_are_never_lost
cargo test -q --release --offline -p adbt-engine --test chaining

# Traced chaos soak (release, ~a second): a contended LL/SC counter
# runs with the flight recorder armed and chaos injected, exports a
# Chrome trace-event JSON, and the in-tree validator must accept it —
# proving the trace plane survives fault storms and emits well-formed
# output without any external viewer.
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
cat > "$TRACE_TMP/soak.s" <<'EOF'
    mov32 r6, #2000
retry:
    ldrex r1, [r5]
    add   r1, r1, #1
    strex r2, r1, [r5]
    cmp   r2, #0
    bne   retry
    subs  r6, r6, #1
    bne   retry
    mov   r0, #0
    svc   #0
EOF
cargo run -q --release --offline -p adbt --bin adbt_run -- \
    "$TRACE_TMP/soak.s" --scheme hst --threads 4 \
    --chaos seed=7,rate=0.05 --watchdog-ms 30000 \
    --trace "$TRACE_TMP/soak.json" --stats --histograms
cargo run -q --release --offline -p adbt-trace --bin trace_validate -- \
    "$TRACE_TMP/soak.json"

# Differential fuzz smoke (release, ~seconds): 32 pinned seeds of
# generated racy-but-result-deterministic guest programs, each run
# across all 8 schemes × {sim, sim+chaos, sim+prof, threaded,
# scheduled} — 40 cells per seed. Every cell must
# agree on outcomes and final memory, match the generator's static
# predictions, and pass the counter-invariant suite (sim+prof doubles
# as the profiler's purity oracle); adbt_fuzz exits non-zero on any
# divergence and writes a minimized, seed-replayable artifact under
# the temp dir. The corpus start seed is pinned (adbt_fuzz --ci), so a
# red step here names the exact seed to replay locally.
cargo run -q --release --offline -p adbt-fuzz --bin adbt_fuzz -- \
    --ci --seeds 32 --max-insns 256 --out "$TRACE_TMP/fuzz-artifacts"

# Profiled chaos soak (release, ~seconds): the same seed-pinned
# contended counter runs on every scheme with the guest-PC contention
# profiler armed on top of fault injection. Each run writes a .prof
# document, a flamegraph fold, and a metrics JSONL, and the toolchain
# re-validates its *own* output — adbt_prof --ci gates the .prof
# schema, --check-folded the collapsed stacks, --check-metrics the
# snapshot stream and the simulated run's --stats-json snapshot — so
# the emitters and validators can never drift apart silently.
for scheme in hst hst-weak hst-htm pst pst-remap pico-st pico-cas pico-htm; do
    cargo run -q --release --offline -p adbt --bin adbt_run -- \
        "$TRACE_TMP/soak.s" --scheme "$scheme" --threads 4 \
        --chaos seed=7,rate=0.05 --watchdog-ms 30000 \
        --profile "$TRACE_TMP/$scheme.prof" \
        --metrics "$TRACE_TMP/$scheme.jsonl" --stats
    cargo run -q --release --offline -p adbt-profile --bin adbt_prof -- \
        "$TRACE_TMP/$scheme.prof" --ci
    cargo run -q --release --offline -p adbt-profile --bin adbt_prof -- \
        "$TRACE_TMP/$scheme.prof" --flamegraph "$TRACE_TMP/$scheme.folded"
    cargo run -q --release --offline -p adbt-profile --bin adbt_prof -- \
        --check-folded "$TRACE_TMP/$scheme.folded"
    cargo run -q --release --offline -p adbt-profile --bin adbt_prof -- \
        --check-metrics "$TRACE_TMP/$scheme.jsonl"
    cargo run -q --release --offline -p adbt --bin adbt_run -- \
        "$TRACE_TMP/soak.s" --scheme "$scheme" --threads 4 \
        --chaos seed=7,rate=0.05 --sim --stats-json \
        > "$TRACE_TMP/$scheme.sim.json"
    cargo run -q --release --offline -p adbt-profile --bin adbt_prof -- \
        --check-metrics "$TRACE_TMP/$scheme.sim.json"
done
# A flamegraph costed by a wall-clock column: the threaded profile's
# exclusive_ns is charged at every exclusive entry and safepoint park.
cargo run -q --release --offline -p adbt-profile --bin adbt_prof -- \
    "$TRACE_TMP/pst.prof" --flamegraph "$TRACE_TMP/pst.exclusive.folded" \
    --cost exclusive_ns
cargo run -q --release --offline -p adbt-profile --bin adbt_prof -- \
    --check-folded "$TRACE_TMP/pst.exclusive.folded"

# Oracle gate (release, ~25 s): every deterministic results/*.csv is
# regenerated by the adbt_bench experiment of the same name, with the
# exact arguments recorded in its results/*.txt header, and must match
# the committed file byte for byte. The deterministic driver (lockstep,
# virtual time, scheduled) makes each of them bit-reproducible, so an
# engine change either reproduces them exactly or is wrong — and one
# that means to move a figure must regenerate it and its .txt in the
# same change.
mkdir -p "$TRACE_TMP/results"
while read -r name args; do
    # shellcheck disable=SC2086 # $args is a word list on purpose
    cargo run -q --release --offline -p adbt-bench --bin adbt_bench -- \
        "$name" $args --csv "$TRACE_TMP/results/$name.csv" > /dev/null
    cmp "$TRACE_TMP/results/$name.csv" "results/$name.csv"
done <<'EOF'
fig10 --scale 0.05 --max-threads 64
fig11 --scale 0.05 --max-threads 32
fig12 --scale 0.04 --max-threads 32
fig12_fs --scale 0.05 --max-threads 64
table1 --scale 0.1
table2
speedup --scale 0.08 --threads 8
ablation_fused --scale 0.1 --threads 8
aba --threads 16 --ops 16000 --nodes 16 --reps 3
EOF
# The profile plane, pinned (release, ~a second): the same soak,
# simulated, writes one .prof document per scheme, and their
# concatenation must match results/profile_soak.txt byte for byte. The
# simulated runs are deterministic and charge the wall-clock columns
# nothing, so a change to what the profiler charges, or where, shows
# here and is committed on purpose.
for scheme in hst hst-weak hst-htm pst pst-remap pico-st pico-cas pico-htm; do
    cargo run -q --release --offline -p adbt --bin adbt_run -- \
        "$TRACE_TMP/soak.s" --scheme "$scheme" --threads 4 \
        --chaos seed=7,rate=0.05 --sim --profile "$TRACE_TMP/$scheme.sim.prof"
    cat "$TRACE_TMP/$scheme.sim.prof" >> "$TRACE_TMP/profile_soak.txt"
done
cmp "$TRACE_TMP/profile_soak.txt" results/profile_soak.txt
# The trace plane, pinned (release, ~a second): an 8-iteration copy of
# the soak, simulated with --trace on every scheme; the concatenated
# Chrome documents must match results/trace_soak.txt byte for byte.
# Simulated runs stamp retired-instruction counts, so the documents are
# deterministic, and a change to which events the recorder keeps, or
# where, shows here and is committed on purpose.
sed 's/#2000/#8/' "$TRACE_TMP/soak.s" > "$TRACE_TMP/soak8.s"
for scheme in hst hst-weak hst-htm pst pst-remap pico-st pico-cas pico-htm; do
    cargo run -q --release --offline -p adbt --bin adbt_run -- \
        "$TRACE_TMP/soak8.s" --scheme "$scheme" --threads 4 \
        --chaos seed=7,rate=0.05 --sim --trace "$TRACE_TMP/$scheme.trace.json"
    cat "$TRACE_TMP/$scheme.trace.json" >> "$TRACE_TMP/trace_soak.txt"
done
cmp "$TRACE_TMP/trace_soak.txt" results/trace_soak.txt
# Systematic interleaving check (release, ~a second): all 8 schemes ×
# all 6 litmus programs under the bounded-preemption explorer. The
# search is fully deterministic (no seeds — it *enumerates* schedules),
# and --ci exits non-zero unless the verdict matrix matches the paper:
# PICO-CAS flagged on both ABA litmuses, PICO-ST on the store-test
# window, every other scheme clean. The exit code covers verdicts only;
# the stdout's per-cell run counts pin the explorer's schedule
# enumeration, so it must match results/check_ci.txt byte for byte.
cargo run -q --release --offline -p adbt-check --bin adbt_check -- \
    --ci --budget 800 --preemptions 2 > "$TRACE_TMP/check_ci.txt"
cmp "$TRACE_TMP/check_ci.txt" results/check_ci.txt
# The exported counterexample, pinned: PICO-CAS × aba_stack's minimized
# violation, rendered from the scheduler's log, must match
# results/check_trace.json byte for byte.
cargo run -q --release --offline -p adbt-check --bin adbt_check -- \
    --scheme pico-cas --litmus aba_stack \
    --export-trace "$TRACE_TMP/check_trace.json" > /dev/null
cmp "$TRACE_TMP/check_trace.json" results/check_trace.json

# The repository benchmark (e2ebench/, its own cargo workspace) builds
# against the engine's public API; its tests run here so an API change
# that breaks it fails CI rather than the benchmark run.
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

# Wall-clock guards, last on purpose. Everything above is deterministic
# or seed-pinned; the two guards below time the same binary against
# itself on a shared host, where run-to-run noise can trip a budget.
# `set -e` stops at the first trip, so running them last means a tripped
# guard never hides a fuzz corpus, profiled soak, oracle CSV or
# e2ebench result. A trip is reported with its value and a rerun, never
# loosened.

# Tracing-overhead guard: the dispatch-bound loop (the worst case for
# the recorder) runs traced vs untraced per scheme; the geomean
# slowdown must stay under the budget. The disabled path is checked
# implicitly — it is the untraced baseline of the same binary.
cargo run -q --release --offline -p adbt-bench --bin adbt_bench -- \
    trace_overhead --iters 60000 --reps 3 --guard 35

# Profiling-overhead guard: the dispatch-bound loop runs profiled vs
# unprofiled per scheme; the geomean slowdown must stay under 5%. The
# off path (one predicted branch per charge site) is the unprofiled
# baseline of the same binary. The table goes to the temp dir, so a CI
# run leaves the tree clean: the committed results/bench_profiling.json
# is regenerated on purpose, with this step's command and
# `--json results/bench_profiling.json`.
cargo run -q --release --offline -p adbt-bench --bin adbt_bench -- \
    profile_overhead --iters 150000 --reps 5 --guard 5 \
    --json "$TRACE_TMP/bench_profiling.json"
