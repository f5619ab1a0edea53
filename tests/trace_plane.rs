//! The flight-recorder tracing plane, end to end.
//!
//! Three contracts from the observability work are on trial:
//!
//! 1. **Traced soak** — a contended LL/SC run with chaos injection and
//!    tracing enabled yields Chrome trace-event JSON the in-tree
//!    validator accepts, with per-vCPU tracks carrying the LL/SC
//!    lifecycle, and the injected-vs-organic SC failure split adds up.
//! 2. **Watchdog forensics** — a forced machine-wide stall makes the
//!    watchdog halt the run with the last flight-recorder events of
//!    every stalled vCPU attached to its diagnostic dump.
//! 3. **Off by default** — an untouched config allocates no recorder.
//! 4. **Payloads follow the schema** — an `htm_abort` event's value is
//!    its abort reason's code, from both HTM schemes.
//! 5. **One event stream** — at pause-point granularity the scheduler's
//!    log carries the ring's events, on every scheme.

use adbt::engine::ScriptedScheduler;
use adbt::trace::{chrome, validate};
use adbt::workloads::interleave::Litmus;
use adbt::workloads::IMAGE_BASE;
use adbt::{ChaosCfg, MachineBuilder, SchemeKind, SimCosts, TraceEvent, TraceKind, VcpuOutcome};
use adbt_htm::AbortReason;

const SEED: u64 = 0xADB7_7ACE;

/// A contended LL/SC counter: every thread increments guest address 0
/// `iters` times through its monitor.
fn contended_loop(iters: u32) -> String {
    format!(
        "    mov32 r6, #{iters}\n\
         retry:\n\
         \x20   ldrex r1, [r5]\n\
         \x20   add   r1, r1, #1\n\
         \x20   strex r2, r1, [r5]\n\
         \x20   cmp   r2, #0\n\
         \x20   bne   retry\n\
         \x20   subs  r6, r6, #1\n\
         \x20   bne   retry\n\
         \x20   mov   r0, #0\n\
         \x20   svc   #0\n"
    )
}

#[test]
fn traced_chaos_soak_produces_validator_accepted_json() {
    let threads = 4;
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .chaos(Some(ChaosCfg::new(SEED, 0.05)))
        .trace(true)
        .build()
        .unwrap();
    machine.load_asm(&contended_loop(500), 0x1_0000).unwrap();
    let report = machine.run(threads, 0x1_0000);
    assert!(report.all_ok(), "soak failed: {:?}", report.outcomes);

    // The injected/organic split: injections are a subset of failures,
    // and the merged counter is exactly the per-vCPU sum.
    assert!(report.stats.sc > 0);
    let violations = report.stats.invariant_violations(&report.per_cpu);
    assert!(violations.is_empty(), "{violations:?}");

    let rec = machine.core().trace.as_ref().expect("recorder armed");
    let snaps = rec.snapshot_all();
    assert_eq!(snaps.len(), threads as usize, "one ring per vCPU");
    for (tid, events) in &snaps {
        assert!(!events.is_empty(), "vcpu {tid} recorded nothing");
        assert!(
            events.iter().any(|e| e.kind == TraceKind::LlIssue),
            "vcpu {tid} has no LL events"
        );
        assert!(
            events.iter().any(|e| e.kind == TraceKind::ScOk),
            "vcpu {tid} has no successful SC events"
        );
    }

    let json = chrome::render_with_extras(
        &snaps,
        chrome::Clock::Nanos,
        &[("histograms", rec.hists.to_json())],
    );
    let check = validate::validate_chrome_trace(&json).expect("trace JSON is valid");
    assert!(
        check.tracks > threads as usize,
        "expected a track per vCPU plus metadata, got {}",
        check.tracks
    );
    assert!(check.instants > 0);
}

/// Freeze the whole machine from outside (hold the exclusive barrier and
/// never leave), and check the watchdog's dump carries the last ring
/// events of every stalled vCPU.
#[test]
fn watchdog_dump_includes_ring_events_per_stalled_vcpu() {
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .trace(true)
        .watchdog_ms(200)
        .build()
        .unwrap();
    // No exit: the loop runs until the watchdog halts the machine.
    machine
        .load_asm(
            "retry:\n\
             \x20   ldrex r1, [r5]\n\
             \x20   add   r1, r1, #1\n\
             \x20   strex r2, r1, [r5]\n\
             \x20   b     retry\n",
            0x1_0000,
        )
        .unwrap();

    let run_done = std::sync::atomic::AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let report = machine.run(2, 0x1_0000);
            run_done.store(true, std::sync::atomic::Ordering::SeqCst);
            report
        });
        // Let the vCPUs retire some traced work first.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let barrier = &machine.core().exclusive;
        barrier.register();
        // Once granted, hold exclusivity: every vCPU stays parked, no
        // progress is made, and the watchdog must fire and halt() —
        // which is also what releases the parked vCPUs to drain. Poll
        // `run_done` as well: `run_threaded` resets the halt flag on its
        // way out, so waiting on `halted()` alone can miss the window.
        if barrier.start_exclusive().is_ok() {
            while !barrier.halted() && !run_done.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            barrier.end_exclusive();
        }
        barrier.unregister();
        handle.join().expect("run thread panicked")
    });

    for outcome in &report.outcomes {
        assert!(
            matches!(outcome, VcpuOutcome::Livelocked { .. }),
            "expected Livelocked after the halt, got {outcome:?}"
        );
    }
    let dump = report.watchdog.as_ref().expect("watchdog fired");
    assert!(
        dump.report.contains("last flight-recorder events:"),
        "dump lacks the ring-event section:\n{}",
        dump.report
    );
    for &tid in &dump.stalled_tids {
        let events = dump
            .ring_events
            .iter()
            .find(|(t, _)| *t == tid)
            .map(|(_, events)| events.as_slice())
            .unwrap_or(&[]);
        assert!(
            !events.is_empty(),
            "stalled vcpu {tid} has no ring events in the dump"
        );
    }
}

/// The translation-cache lifecycle flows through the recorder: a
/// self-patching prologue emits `Invalidate`, and a cache-limited churn
/// epilogue emits `Flush` and `Reclaim` — and the rendered JSON (with
/// all three kinds on the timeline) still validates.
#[test]
fn lifecycle_events_flow_through_the_recorder_and_validator() {
    // Prologue: patch our own loop body once (SMC → Invalidate), then
    // run a block chain too large for a segment-sized cache budget three
    // times (pressure → Flush, grace expiry → Reclaim).
    let mut source = String::from(
        "    mov   r3, #0\n\
         \x20   mov32 r5, patch\n\
         \x20   mov32 r6, donor\n\
         ploop:\n\
         patch:\n\
         \x20   add   r1, r1, #1\n\
         \x20   add   r3, r3, #1\n\
         \x20   cmp   r3, #2\n\
         \x20   beq   churn\n\
         \x20   ldr   r2, [r6]\n\
         \x20   str   r2, [r5]\n\
         \x20   b     ploop\n\
         donor:\n\
         \x20   add   r1, r1, #7\n\
         churn:\n\
         \x20   mov   r4, #3\n\
         outer:\n",
    );
    for i in 0..1500 {
        source.push_str(&format!(
            "c{i}:\n    add   r0, r0, #1\n    b     c{}\n",
            i + 1
        ));
    }
    source.push_str(
        "c1500:\n    subs  r4, r4, #1\n    bne   outer\n    mov   r0, #0\n    svc   #0\n",
    );
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .trace(true)
        .cache_limit(adbt::engine::MachineCore::MIN_CACHE_LIMIT)
        .build()
        .unwrap();
    machine.load_asm(&source, 0x1_0000).unwrap();
    let report = machine.run(1, 0x1_0000);
    assert!(report.all_ok(), "{:?}", report.outcomes);
    assert!(report.stats.invalidations >= 1);
    assert!(report.stats.flushes >= 1);
    assert!(report.stats.reclaimed_blocks >= 1);

    let rec = machine.core().trace.as_ref().expect("recorder armed");
    let snaps = rec.snapshot_all();
    let events: Vec<_> = snaps.iter().flat_map(|(_, events)| events).collect();
    for kind in [TraceKind::Flush, TraceKind::Reclaim] {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "no {kind:?} event reached the ring"
        );
    }
    let json = chrome::render(&snaps, chrome::Clock::Nanos);
    let check = validate::validate_chrome_trace(&json).expect("lifecycle trace JSON is valid");
    assert!(check.instants > 0);

    // The churn traffic may have evicted the early Invalidate from the
    // bounded ring (stats prove it happened); a patch-only run pins the
    // event itself on the timeline.
    let mut machine = MachineBuilder::new(SchemeKind::Hst)
        .memory(1 << 20)
        .trace(true)
        .build()
        .unwrap();
    machine
        .load_asm(
            &adbt::workloads::interleave::Litmus::SmcSelf
                .program()
                .source,
            0x1_0000,
        )
        .unwrap();
    let patcher = machine.symbol("patcher").unwrap();
    let report = machine.run_vcpus(vec![adbt::Vcpu::new(1, patcher)]);
    // Exit 8 is the litmus' patched-semantics witness (1 + 7).
    assert_eq!(report.outcomes, vec![VcpuOutcome::Exited(8)]);
    let rec = machine.core().trace.as_ref().expect("recorder armed");
    let snaps = rec.snapshot_all();
    assert!(
        snaps
            .iter()
            .flat_map(|(_, events)| events)
            .any(|e| e.kind == TraceKind::Invalidate),
        "the SMC store left no Invalidate event on the ring"
    );
    let json = chrome::render(&snaps, chrome::Clock::Nanos);
    validate::validate_chrome_trace(&json).expect("SMC trace JSON is valid");
}

/// `TraceKind::HtmAbort` carries the `AbortReason` code (1–4) in its
/// value. Under the soak's chaos campaign, simulated on 4 vCPUs, both
/// HTM schemes abort and every value is a code; HST-HTM's aborts are
/// all injected at commit (`Txn::abort`, an explicit abort), so they
/// all read 3.
#[test]
fn htm_abort_payloads_are_reason_codes() {
    use AbortReason::*;
    let codes = [Conflict, Capacity, Explicit, EngineInterference].map(AbortReason::code);
    for (kind, want) in [
        (SchemeKind::HstHtm, &[Explicit.code()][..]),
        (SchemeKind::PicoHtm, &codes),
    ] {
        let chaos = Some(ChaosCfg::new(7, 0.05));
        let builder = MachineBuilder::new(kind).chaos(chaos).trace(true);
        let mut machine = builder.build().unwrap();
        machine.load_asm(&contended_loop(2000), 0x1_0000).unwrap();
        let vcpus = machine.make_vcpus(4, 0x1_0000);
        let report = machine.core().run_sim(vcpus, &SimCosts::default());
        assert!(report.all_ok(), "{kind}: {:?}", report.outcomes);
        let rec = machine.core().trace.clone().expect("recorder armed");
        let events: Vec<_> = rec
            .snapshot_all()
            .into_iter()
            .flat_map(|(_, e)| e)
            .collect();
        let aborts = events.iter().filter(|e| e.kind == TraceKind::HtmAbort);
        let values: Vec<u32> = aborts.map(|e| e.value).collect();
        let ok = !values.is_empty() && values.iter().all(|v| want.contains(v));
        assert!(
            ok,
            "{kind}: htm_abort values {values:?}, want codes {want:?}"
        );
    }
}

/// An event's payload, without the clock the ring and the log stamp
/// differently.
fn payload(e: &TraceEvent) -> (TraceKind, u32, u32) {
    (e.kind, e.addr, e.value)
}

/// The ring without the events raised inside HTM regions that never
/// committed: what the scheduler's log holds back. A region opens after
/// its `htm_begin` and ends at an `htm_commit`, which delivers what it
/// raised, or at an `htm_abort`, which drops it. (In these litmus runs
/// no region ends any other way.)
fn committed(ring: &[TraceEvent]) -> Vec<(TraceKind, u32, u32)> {
    let (mut log, mut held) = (Vec::new(), None);
    for e in ring {
        match e.kind {
            TraceKind::HtmBegin => held = Some(Vec::new()),
            TraceKind::HtmCommit => log.extend(held.take().expect("commit of an open region")),
            TraceKind::HtmAbort => held = None,
            _ => {}
        }
        match &mut held {
            Some(region) if e.kind != TraceKind::HtmBegin => region.push(payload(e)),
            _ => log.push(payload(e)),
        }
    }
    assert!(held.is_none(), "a region was left open");
    log
}

/// At pause-point granularity every event reaches both sinks: per vCPU,
/// the scheduler's log is the ring's sequence, on every scheme. Only
/// PICO-HTM's log drops anything — the events of regions that aborted
/// (translating inside a region poisons it, so the first pass of each
/// aborts).
#[test]
fn the_schedulers_log_is_a_view_of_the_ring() {
    let program = Litmus::AbaStack.program();
    for scheme in SchemeKind::ALL {
        let mut machine = MachineBuilder::new(scheme)
            .memory(1 << 20)
            .max_block_insns(1)
            .trace(true)
            .build()
            .unwrap();
        machine.load_asm(&program.source, IMAGE_BASE).unwrap();
        let vcpus = machine.make_vcpus(2, IMAGE_BASE);
        let mut sched = ScriptedScheduler::parse("0x11,1x27,0").unwrap();
        let report = machine.run_scheduled(vcpus, &mut sched, 20_000);
        assert!(report.all_ok(), "{scheme}: {:?}", report.outcomes);
        let rec = machine.core().trace.as_ref().expect("recorder armed");
        let mut dropped = 0;
        for (tid, ring) in rec.snapshot_all() {
            let wrapped = rec.ring(tid).recorded() > ring.len() as u64;
            assert!(!wrapped, "{scheme}: vCPU {tid}'s ring wrapped");
            let mine = sched.events.iter().filter(|e| e.tid == tid);
            let log: Vec<_> = mine.map(payload).collect();
            for kind in [TraceKind::LlIssue, TraceKind::ScOk, TraceKind::GuestStore] {
                let logged = log.iter().any(|&(k, _, _)| k == kind);
                assert!(logged, "{scheme}: vCPU {tid} logged no {kind:?}");
            }
            let want = if scheme == SchemeKind::PicoHtm {
                committed(&ring)
            } else {
                ring.iter().map(payload).collect()
            };
            assert_eq!(log, want, "{scheme}: vCPU {tid}");
            dropped += ring.len() - log.len();
        }
        assert_eq!(
            dropped > 0,
            scheme == SchemeKind::PicoHtm,
            "{scheme}: {dropped} ring events missing from the log"
        );
    }
}

#[test]
fn tracing_absent_by_default() {
    let mut machine = MachineBuilder::new(SchemeKind::Hst).build().unwrap();
    machine.load_asm("mov r0, #0\nsvc #0\n", 0x1_0000).unwrap();
    let report = machine.run(2, 0x1_0000);
    assert!(report.all_ok());
    assert!(
        machine.core().trace.is_none(),
        "no recorder may exist unless configured"
    );
}
