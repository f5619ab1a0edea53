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

# Invalidation-storm soak (release, ~seconds): all 8 schemes run with a
# 5% translation-invalidation storm layered on top of the fault chaos,
# with the watchdog armed. Blocks are retired at dispatch boundaries
# mid-run and must retranslate without livelock, memory-accounting
# drift, or counter-merge skew. Seed-pinned
# in tests/chaos_soak.rs, so failures replay exactly.
cargo test -q --release --offline --test chaos_soak \
    invalidation_storm_soak_terminates_cleanly

# Systematic interleaving check (release, ~a second): all 8 schemes ×
# all 3 litmus programs under the bounded-preemption explorer. The
# search is fully deterministic (no seeds — it *enumerates* schedules),
# and --ci exits non-zero unless the verdict matrix matches the paper:
# PICO-CAS flagged on both ABA litmuses, PICO-ST on the store-test
# window, every other scheme clean.
cargo run -q --release --offline -p adbt-check --bin adbt_check -- \
    --ci --budget 800 --preemptions 2

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

# Adaptive fuzz smoke (release, ~seconds): 8 pinned seeds rerun with
# the arbiter-driven auto cells appended to the matrix — an adaptive
# machine under an aggressively short epoch must agree with every
# static reference in every execution mode, migrations and all.
cargo run -q --release --offline -p adbt-fuzz --bin adbt_fuzz -- \
    --ci --seeds 8 --max-insns 256 --auto \
    --out "$TRACE_TMP/fuzz-auto-artifacts"

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

# Oracle gate (release, ~25 s): every deterministic results/*.csv is
# regenerated with the exact command recorded in its results/*.txt
# header and must match the committed file byte for byte. The
# deterministic driver (lockstep, virtual time, scheduled) makes each
# of them bit-reproducible, so an engine change either reproduces them
# exactly or is wrong — and one that means to move a figure must
# regenerate it and its .txt in the same change.
mkdir -p "$TRACE_TMP/results"
while read -r bin csv args; do
    # shellcheck disable=SC2086 # $args is a word list on purpose
    cargo run -q --release --offline -p adbt-bench --bin "$bin" -- \
        $args --csv "$TRACE_TMP/results/$csv" > /dev/null
    cmp "$TRACE_TMP/results/$csv" "results/$csv"
done <<'EOF'
fig10_scalability fig10.csv --scale 0.05 --max-threads 64
fig11_htm fig11.csv --scale 0.05 --max-threads 32
fig12_breakdown fig12.csv --scale 0.04 --max-threads 32
fig12_breakdown fig12_fs.csv --false-sharing --scale 0.05 --max-threads 64
table1_profile table1.csv --scale 0.1
table2_matrix table2.csv
speedup_summary speedup.csv --scale 0.08 --threads 8
ablation_fused ablation_fused.csv --scale 0.1 --threads 8
aba_correctness aba.csv --threads 16 --ops 16000 --nodes 16 --reps 3
EOF

# The repository benchmark (e2ebench/, its own cargo workspace) builds
# against the engine's public API; its tests run here so an API change
# that breaks it fails CI rather than the benchmark run.
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

# Wall-clock guards, last on purpose. Everything above is deterministic
# or seed-pinned; the three guards below time the same binary against
# itself on a shared host, where run-to-run noise can trip a budget.
# `set -e` stops at the first trip, so running them last means a tripped
# guard never hides a fuzz corpus, profiled soak, oracle CSV or
# e2ebench result. A trip is reported with its value and a rerun, never
# loosened.

# Tracing-overhead guard: the dispatch-bound loop (the worst case for
# the recorder) runs traced vs untraced per scheme; the geomean
# slowdown must stay under the budget. The disabled path is checked
# implicitly — it is the untraced baseline of the same binary.
cargo run -q --release --offline -p adbt-bench --bin dispatch_bench -- \
    --iters 60000 --reps 3 --traced --guard 35

# Profiling-overhead guard: the dispatch-bound loop runs profiled vs
# unprofiled per scheme; the geomean slowdown must stay under 5%. The
# off path (one predicted branch per charge site) is the unprofiled
# baseline of the same binary. The table goes to the temp dir, so a CI
# run leaves the tree clean: the committed results/bench_profiling.json
# is regenerated on purpose, with this step's command and
# `--json results/bench_profiling.json`.
cargo run -q --release --offline -p adbt-bench --bin dispatch_bench -- \
    --iters 150000 --reps 5 --profiled --guard 5 \
    --json "$TRACE_TMP/bench_profiling.json"

# Adaptive-arbitration guard: part 1 measures the armed-idle adaptive
# machine (epoch never elapses) against the static-with-profile
# baseline per scheme — the geomean overhead must stay under 3%, the
# tripwire for "adaptation you don't run is (nearly) free" (a static
# machine's adaptation-off path is one predicted branch and strictly
# cheaper than even the armed machine). Part 2 scores --scheme auto
# against every static on the three-phase mixed workload in
# deterministic virtual time. The table goes to the temp dir: the
# committed results/bench_adapt.json, the record behind
# EXPERIMENTS.md's adaptive-mode section (E11), is regenerated on
# purpose with the command recorded there.
cargo run -q --release --offline -p adbt-bench --bin dispatch_bench -- \
    --iters 60000 --reps 3 --adapt --guard 3 \
    --json "$TRACE_TMP/bench_adapt.json"
