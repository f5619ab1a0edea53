//! # adbt-trace — the always-available flight recorder
//!
//! A lock-free tracing plane for the adbt engine: one fixed-capacity,
//! power-of-two ring buffer per vCPU holding compact binary
//! [`TraceEvent`] records, written by the owning thread only. The
//! discipline mirrors `VcpuStats`: the *disabled* path is a single
//! predicted branch (`Option::is_some` on the context's handle), and
//! the *enabled* path is a handful of `Relaxed` stores plus one relaxed
//! index bump — no locks, no fences, no allocation.
//!
//! When the ring wraps, the oldest events are overwritten: the recorder
//! is a *flight recorder*, not a full log. That is exactly what the
//! watchdog wants — the last N events per vCPU leading up to a livelock
//! — and what keeps the enabled-path cost flat regardless of run
//! length.
//!
//! Readers ([`TraceRing::snapshot`], [`TraceRing::last_n`]) run after
//! the run (or after a watchdog halt) and tolerate torn records: a slot
//! being overwritten mid-read decodes to an invalid kind and is
//! skipped. No reader ever blocks a writer.
//!
//! Timestamps are either monotonic nanoseconds since the recorder's
//! epoch (threaded mode) or the vCPU's retired-instruction count
//! (deterministic/simulated modes) — callers pick; the exporters in
//! [`chrome`] are told which clock was used.
//!
//! Alongside the rings, [`TraceRecorder`] owns the log-bucketed latency
//! histograms ([`hist`]) for SC-retry latency, exclusive-entry wait,
//! and HTM abort-streak length. Export goes through [`chrome`] (Chrome
//! trace-event JSON, loadable in Perfetto) and is checked by the
//! in-tree validator in [`validate`]. Both sit on [`json`], the one
//! JSON writer and parser every emitter and validator in the workspace
//! shares.

pub mod chrome;
pub mod hist;
pub mod json;
pub mod validate;

pub use hist::{Histograms, LogHistogram};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What happened. The discriminants are stable wire values: a torn ring
/// slot decodes to an out-of-range discriminant and is dropped by
/// [`TraceKind::from_u16`], so readers never see garbage kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum TraceKind {
    /// LL issued; the monitor is now armed on `addr`.
    LlIssue = 1,
    /// SC succeeded; `value` is the stored word.
    ScOk = 2,
    /// SC failed organically (monitor lost, CAS lost, precondition).
    ScFail = 3,
    /// SC failed because the chaos plane injected the failure.
    ScFailInjected = 4,
    /// `clrex`: the monitor was cleared explicitly.
    Clrex = 5,
    /// Exclusive section entered (world stopped); `value` is the wait
    /// in nanoseconds, saturated to 32 bits. Rendered as the opening
    /// edge of a duration span.
    ExclusiveEnter = 6,
    /// Exclusive section left (world resumed); closes the span.
    ExclusiveExit = 7,
    /// This vCPU parked at a safepoint for someone else's exclusive
    /// section; `value` is the park time in nanoseconds (saturated).
    SafepointPark = 8,
    /// A page-protection call (PST family); `addr` is the page.
    Mprotect = 9,
    /// A page-remap round trip (PST-REMAP); `addr` is the page.
    Remap = 10,
    /// A guest store trapped on a protected page (true sharing).
    PageFault = 11,
    /// A fault on a page whose monitor belongs to someone else's
    /// unrelated word — the paper's false-sharing fault.
    FalseSharing = 12,
    /// HTM transaction (or transactional region) began.
    HtmBegin = 13,
    /// HTM transaction committed; `value` is the abort streak the
    /// commit ended (0 = first try).
    HtmCommit = 14,
    /// HTM transaction aborted; `value` is the [`AbortReason`]-style
    /// cause code from `adbt-htm`.
    HtmAbort = 15,
    /// The degradation ladder fired: HTM region or SC storm fell back
    /// to the stop-the-world path; `value` is the streak length.
    Degrade = 16,
    /// A block-chaining slot was patched; `addr` is the source block's
    /// pc, `value` the target block id.
    ChainPatch = 17,
    /// A guest block was translated; `addr` is its pc.
    Translate = 18,
    /// The chaos plane injected a fault; `value` is the site index.
    Chaos = 19,
    /// Throttled watchdog heartbeat; `addr` is the current pc.
    Heartbeat = 20,
    /// A plain guest store became visible; `addr` is its address,
    /// `value` its width in bytes. Raised only at pause-point
    /// granularity (the checker and `adbt_run --replay`), never on the
    /// threaded or simulated hot path.
    GuestStore = 21,
    /// Translated blocks were invalidated (SMC store, chaos storm);
    /// `addr` is the patching store's address (a storm's: the victim's
    /// guest pc), `value` the first victim's cache id.
    Invalidate = 22,
    /// A cache-pressure flush pass retired a batch of blocks; `addr` is
    /// the number of blocks retired (`value` is unused, 0).
    Flush = 23,
    /// Epoch reclamation freed retired translations after a grace
    /// period; `addr` is the number of blocks freed, `value` the number
    /// of fully-reclaimed arena segments so far.
    Reclaim = 24,
}

impl TraceKind {
    /// Every kind, in discriminant order (used by decode and tests).
    pub const ALL: [TraceKind; 24] = [
        TraceKind::LlIssue,
        TraceKind::ScOk,
        TraceKind::ScFail,
        TraceKind::ScFailInjected,
        TraceKind::Clrex,
        TraceKind::ExclusiveEnter,
        TraceKind::ExclusiveExit,
        TraceKind::SafepointPark,
        TraceKind::Mprotect,
        TraceKind::Remap,
        TraceKind::PageFault,
        TraceKind::FalseSharing,
        TraceKind::HtmBegin,
        TraceKind::HtmCommit,
        TraceKind::HtmAbort,
        TraceKind::Degrade,
        TraceKind::ChainPatch,
        TraceKind::Translate,
        TraceKind::Chaos,
        TraceKind::Heartbeat,
        TraceKind::GuestStore,
        TraceKind::Invalidate,
        TraceKind::Flush,
        TraceKind::Reclaim,
    ];

    /// The short name exporters print (`Perfetto` track-event names).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::LlIssue => "ll",
            TraceKind::ScOk => "sc_ok",
            TraceKind::ScFail => "sc_fail",
            TraceKind::ScFailInjected => "sc_fail_injected",
            TraceKind::Clrex => "clrex",
            TraceKind::ExclusiveEnter => "exclusive",
            TraceKind::ExclusiveExit => "exclusive_exit",
            TraceKind::SafepointPark => "safepoint_park",
            TraceKind::Mprotect => "mprotect",
            TraceKind::Remap => "remap",
            TraceKind::PageFault => "page_fault",
            TraceKind::FalseSharing => "false_sharing",
            TraceKind::HtmBegin => "htm_begin",
            TraceKind::HtmCommit => "htm_commit",
            TraceKind::HtmAbort => "htm_abort",
            TraceKind::Degrade => "degrade",
            TraceKind::ChainPatch => "chain_patch",
            TraceKind::Translate => "translate",
            TraceKind::Chaos => "chaos",
            TraceKind::Heartbeat => "heartbeat",
            TraceKind::GuestStore => "store",
            TraceKind::Invalidate => "invalidate",
            TraceKind::Flush => "flush",
            TraceKind::Reclaim => "reclaim",
        }
    }

    /// Decodes a wire discriminant; `None` for torn or future values.
    pub fn from_u16(raw: u16) -> Option<TraceKind> {
        TraceKind::ALL.get(raw.wrapping_sub(1) as usize).copied()
    }
}

/// One decoded flight-recorder record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder epoch (threaded mode) or the
    /// writing vCPU's retired-instruction count (deterministic modes).
    pub ts: u64,
    /// The writing vCPU's tid (1-based, as everywhere in the engine).
    pub tid: u32,
    pub kind: TraceKind,
    /// Guest address payload (0 when the kind has none).
    pub addr: u32,
    /// Kind-specific payload — see the [`TraceKind`] variants.
    pub value: u32,
}

impl TraceEvent {
    /// One-line rendering for diagnostic dumps (watchdog reports).
    pub fn render(&self) -> String {
        format!(
            "[{:>12}] {:<16} addr={:#010x} value={}",
            self.ts,
            self.kind.name(),
            self.addr,
            self.value
        )
    }
}

/// A ring slot: three relaxed words. `kind` doubles as the torn-read
/// sentinel — slots start at 0, which no [`TraceKind`] decodes to.
#[derive(Default)]
struct Slot {
    ts: AtomicU64,
    kind: AtomicU64,
    payload: AtomicU64,
}

/// The per-vCPU flight-recorder ring: fixed power-of-two capacity,
/// single writer (the owning vCPU thread), overwrite-oldest semantics.
///
/// `record` is wait-free and issues only `Relaxed` stores: the ring is
/// a diagnostic artifact read after the run (or after a watchdog halt),
/// not a synchronization channel, so torn records are acceptable and
/// are filtered out on decode.
pub struct TraceRing {
    tid: u32,
    mask: u64,
    /// Total records ever written (not wrapped): `head & mask` is the
    /// next slot, `head.min(capacity)` the live record count.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceRing {
    /// Creates a ring holding `1 << capacity_pow2` events.
    pub fn new(tid: u32, capacity_pow2: u32) -> TraceRing {
        let capacity = 1usize << capacity_pow2;
        let slots = (0..capacity).map(|_| Slot::default()).collect();
        TraceRing {
            tid,
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// The owning vCPU's tid.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// The fixed capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (≥ the number still held).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Appends one event, overwriting the oldest once full. Writer-side
    /// only — must be called from the owning vCPU's thread.
    #[inline]
    pub fn record(&self, ts: u64, kind: TraceKind, addr: u32, value: u32) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head & self.mask) as usize];
        slot.ts.store(ts, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.payload
            .store((addr as u64) << 32 | value as u64, Ordering::Relaxed);
        self.head.store(head.wrapping_add(1), Ordering::Relaxed);
    }

    /// Decodes the live window, oldest first. Tolerates concurrent
    /// writers: a slot torn mid-overwrite decodes to an invalid kind
    /// and is dropped rather than surfaced as garbage.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let len = head.min(self.slots.len() as u64);
        let mut out = Vec::with_capacity(len as usize);
        for seq in head - len..head {
            let slot = &self.slots[(seq & self.mask) as usize];
            let Some(kind) = TraceKind::from_u16(slot.kind.load(Ordering::Relaxed) as u16) else {
                continue;
            };
            let payload = slot.payload.load(Ordering::Relaxed);
            out.push(TraceEvent {
                ts: slot.ts.load(Ordering::Relaxed),
                tid: self.tid,
                kind,
                addr: (payload >> 32) as u32,
                value: payload as u32,
            });
        }
        out
    }

    /// The newest `n` events, oldest first — the watchdog's last-N
    /// diagnostic window.
    pub fn last_n(&self, n: usize) -> Vec<TraceEvent> {
        let mut events = self.snapshot();
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        events
    }
}

/// Default per-vCPU ring capacity: 2^12 = 4096 events (96 KiB/vCPU).
pub const DEFAULT_RING_POW2: u32 = 12;

/// How many trailing events the watchdog dumps per vCPU.
pub const WATCHDOG_TAIL: usize = 32;

/// The machine-wide recorder: hands each vCPU its private ring, owns
/// the shared epoch for the nanosecond clock, and aggregates the
/// latency histograms (whose buckets are plain atomics, so vCPUs
/// record into them without coordination).
pub struct TraceRecorder {
    rings: Mutex<Vec<Arc<TraceRing>>>,
    epoch: Instant,
    capacity_pow2: u32,
    /// SC-retry latency, exclusive-entry wait, HTM abort streaks.
    pub hists: Histograms,
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder with the default per-vCPU ring capacity.
    pub fn new() -> TraceRecorder {
        TraceRecorder::with_capacity_pow2(DEFAULT_RING_POW2)
    }

    /// A recorder whose rings hold `1 << capacity_pow2` events each.
    pub fn with_capacity_pow2(capacity_pow2: u32) -> TraceRecorder {
        TraceRecorder {
            rings: Mutex::new(Vec::new()),
            epoch: Instant::now(),
            capacity_pow2,
            hists: Histograms::new(),
        }
    }

    /// Nanoseconds since the recorder was created — the shared
    /// monotonic clock threaded-mode events are stamped with.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The ring for `tid`, created on first use. Called once per vCPU
    /// at context setup, never on the hot path.
    pub fn ring(&self, tid: u32) -> Arc<TraceRing> {
        let mut rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(ring) = rings.iter().find(|r| r.tid() == tid) {
            return Arc::clone(ring);
        }
        let ring = Arc::new(TraceRing::new(tid, self.capacity_pow2));
        rings.push(Arc::clone(&ring));
        ring
    }

    /// A per-vCPU writer handle bundling the ring with the recorder
    /// (for the clock and the histograms).
    pub fn handle(self: &Arc<TraceRecorder>, tid: u32) -> TraceHandle {
        TraceHandle {
            ring: self.ring(tid),
            recorder: Arc::clone(self),
        }
    }

    /// Every ring's live window, sorted by tid — the exporter input.
    pub fn snapshot_all(&self) -> Vec<(u32, Vec<TraceEvent>)> {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(u32, Vec<TraceEvent>)> =
            rings.iter().map(|r| (r.tid(), r.snapshot())).collect();
        out.sort_by_key(|&(tid, _)| tid);
        out
    }

    /// The newest `n` events of every ring, sorted by tid — the
    /// watchdog's pre-halt diagnostic.
    pub fn last_events(&self, n: usize) -> Vec<(u32, Vec<TraceEvent>)> {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(u32, Vec<TraceEvent>)> =
            rings.iter().map(|r| (r.tid(), r.last_n(n))).collect();
        out.sort_by_key(|&(tid, _)| tid);
        out
    }
}

/// What an `ExecCtx` holds when tracing is on: the vCPU's private ring
/// plus the shared recorder. Cloning is two `Arc` bumps.
#[derive(Clone)]
pub struct TraceHandle {
    pub ring: Arc<TraceRing>,
    pub recorder: Arc<TraceRecorder>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(ring: &TraceRing, n: u64) {
        for i in 0..n {
            ring.record(i, TraceKind::LlIssue, i as u32, 0);
        }
    }

    #[test]
    fn ring_holds_events_before_wrap() {
        let ring = TraceRing::new(1, 3); // capacity 8
        fill(&ring, 5);
        let events = ring.snapshot();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].ts, 0);
        assert_eq!(events[4].ts, 4);
        assert!(events.iter().all(|e| e.tid == 1));
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_capacity_events() {
        let ring = TraceRing::new(2, 3); // capacity 8
        fill(&ring, 21);
        assert_eq!(ring.recorded(), 21);
        let events = ring.snapshot();
        assert_eq!(events.len(), 8, "full ring holds exactly its capacity");
        // Oldest-first, and exactly the newest 8 of the 21 writes.
        let ts: Vec<u64> = events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, (13..21).collect::<Vec<u64>>());
        let addrs: Vec<u32> = events.iter().map(|e| e.addr).collect();
        assert_eq!(addrs, (13u32..21).collect::<Vec<u32>>());
    }

    #[test]
    fn ring_wrap_boundary_is_exact() {
        // Exactly capacity writes: nothing lost, nothing duplicated.
        let ring = TraceRing::new(3, 4); // capacity 16
        fill(&ring, 16);
        let ts: Vec<u64> = ring.snapshot().iter().map(|e| e.ts).collect();
        assert_eq!(ts, (0..16).collect::<Vec<u64>>());
        // One more write evicts exactly the oldest event.
        ring.record(99, TraceKind::ScOk, 7, 8);
        let events = ring.snapshot();
        assert_eq!(events.len(), 16);
        assert_eq!(events[0].ts, 1, "event 0 was overwritten");
        let last = events.last().unwrap();
        assert_eq!(
            (last.ts, last.kind, last.addr, last.value),
            (99, TraceKind::ScOk, 7, 8)
        );
    }

    #[test]
    fn empty_and_unwritten_slots_decode_to_nothing() {
        let ring = TraceRing::new(4, 5);
        assert!(ring.snapshot().is_empty());
        assert!(ring.last_n(10).is_empty());
    }

    #[test]
    fn last_n_takes_the_tail() {
        let ring = TraceRing::new(5, 4);
        fill(&ring, 10);
        let tail = ring.last_n(3);
        assert_eq!(tail.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(ring.last_n(100).len(), 10);
    }

    #[test]
    fn payload_packs_and_unpacks() {
        let ring = TraceRing::new(6, 2);
        ring.record(42, TraceKind::ScFailInjected, 0xDEAD_BEEF, 0x1234_5678);
        let e = ring.snapshot()[0];
        assert_eq!(e.ts, 42);
        assert_eq!(e.kind, TraceKind::ScFailInjected);
        assert_eq!(e.addr, 0xDEAD_BEEF);
        assert_eq!(e.value, 0x1234_5678);
    }

    #[test]
    fn kind_wire_values_round_trip() {
        for kind in TraceKind::ALL {
            assert_eq!(TraceKind::from_u16(kind as u16), Some(kind));
        }
        assert_eq!(TraceKind::from_u16(0), None);
        assert_eq!(TraceKind::from_u16(TraceKind::ALL.len() as u16 + 1), None);
        assert_eq!(TraceKind::from_u16(u16::MAX), None);
    }

    #[test]
    fn recorder_reuses_rings_per_tid() {
        let rec = Arc::new(TraceRecorder::with_capacity_pow2(4));
        let a = rec.ring(1);
        let b = rec.ring(2);
        let a2 = rec.ring(1);
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(!Arc::ptr_eq(&a, &b));
        a.record(1, TraceKind::LlIssue, 0, 0);
        b.record(2, TraceKind::ScOk, 0, 0);
        let all = rec.snapshot_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, 1);
        assert_eq!(all[1].0, 2);
        assert_eq!(rec.last_events(8)[1].1[0].kind, TraceKind::ScOk);
    }
}
