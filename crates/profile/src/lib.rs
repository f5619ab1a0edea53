//! # adbt-profile — the guest-PC contention profiler
//!
//! Machine-wide counters (`VcpuStats`) say *how much* a scheme pays for
//! atomic emulation; the flight recorder says *when*. This crate says
//! **where**: a fixed-size, open-addressed hash profile per vCPU, keyed
//! by guest PC, charging SC failures, retry streaks, exclusive-entry
//! waits, HTM aborts by reason, monitor clears, SMC invalidations and
//! false sharing to the guest address that incurred them.
//!
//! The discipline mirrors the flight recorder ([`adbt_trace`]): the
//! *disabled* path is a single predicted branch (`Option::is_some` on
//! the context's handle), and the *enabled* path is a bounded probe over
//! a pre-allocated table with `Relaxed` atomic loads and stores — no
//! locks, no fences, no allocation, single writer (the owning vCPU
//! thread). Readers (the watchdog, the periodic metrics sampler, the
//! end-of-run exporters) snapshot concurrently and never block a
//! writer; since every cell is one `AtomicU64`, the worst a racing read
//! observes is a value one increment stale.
//!
//! Attribution PC: the engine keeps a "current block PC" per vCPU — the
//! entry PC of the translated block being executed — so costs are
//! block-granular unless a charge site names its own PC (invalidation
//! victims, safepoint parks, SC retry streaks).
//!
//! Overflow policy: the table holds [`PcProfile::CAPACITY`] slots and
//! probes at most [`PcProfile::MAX_PROBE`] of them per charge. A charge
//! that finds neither its own slot nor an empty one lands in the
//! per-metric overflow bucket and bumps the dropped-charge counter —
//! the totals stay exact, only the attribution of the overflow is lost,
//! and the exporters surface the drop count so a saturated profile is
//! never mistaken for a quiet one.
//!
//! Consumers: [`export`] renders and parses the `.prof` JSON document
//! (`adbt_run --profile` writes it, `adbt_prof` reads it), [`fold`]
//! renders and validates collapsed-stack flamegraph lines, and
//! [`metrics`] defines the machine-readable JSONL snapshot schema
//! (`adbt_run --metrics` / `--stats-json`).

pub mod export;
pub mod fold;
pub mod metrics;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a profiled cost is charged as. The order is the wire order of
/// every `counts` array in the `.prof` document — append-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// An SC (store-conditional) failed — organically or injected.
    ScFail = 0,
    /// A completed SC-retry streak's length, charged (in full) to the
    /// PC whose SC finally succeeded: `sc_streak / sc_fail` at one PC
    /// is its mean retries-before-success.
    ScStreak = 1,
    /// This vCPU entered the machine's exclusive (stop-the-world)
    /// section.
    ExclEntry = 2,
    /// Nanoseconds this vCPU waited to *enter* the exclusive section
    /// (zero in deterministic modes, mirroring the trace plane).
    ExclWaitNs = 3,
    /// Nanoseconds this vCPU spent parked at a safepoint for someone
    /// else's exclusive section (zero in deterministic modes).
    ParkNs = 4,
    /// HTM transaction aborted: transactional conflict.
    HtmConflict = 5,
    /// HTM transaction aborted: read/write-set capacity exceeded.
    HtmCapacity = 6,
    /// HTM transaction aborted: explicit abort or engine interference.
    HtmOther = 7,
    /// The vCPU's exclusive monitor was cleared by something other than
    /// its own SC (clrex, chaos, remote interference).
    MonitorClear = 8,
    /// A translated block at this guest PC was invalidated (SMC store
    /// or chaos storm) — charged to the *victim* block's PC, resolved
    /// through the translation cache.
    Invalidation = 9,
    /// A store hit a tracked code page but no translation actually
    /// covered it (SMC false sharing) — charged to the storing block.
    SmcFalseSharing = 10,
    /// A monitored-page fault taken for someone else's unrelated word
    /// (the paper's false-sharing fault, PST family).
    FalseSharing = 11,
}

impl Metric {
    /// Every metric, in wire (`counts` array) order.
    pub const ALL: [Metric; 12] = [
        Metric::ScFail,
        Metric::ScStreak,
        Metric::ExclEntry,
        Metric::ExclWaitNs,
        Metric::ParkNs,
        Metric::HtmConflict,
        Metric::HtmCapacity,
        Metric::HtmOther,
        Metric::MonitorClear,
        Metric::Invalidation,
        Metric::SmcFalseSharing,
        Metric::FalseSharing,
    ];

    /// The number of metrics (the length of every `counts` array).
    pub const COUNT: usize = Metric::ALL.len();

    /// The stable snake-case name used in `.prof` documents, metrics
    /// JSONL, and `adbt_prof` table headers.
    pub fn name(self) -> &'static str {
        match self {
            Metric::ScFail => "sc_fail",
            Metric::ScStreak => "sc_streak",
            Metric::ExclEntry => "excl_entry",
            Metric::ExclWaitNs => "excl_wait_ns",
            Metric::ParkNs => "park_ns",
            Metric::HtmConflict => "htm_conflict",
            Metric::HtmCapacity => "htm_capacity",
            Metric::HtmOther => "htm_other",
            Metric::MonitorClear => "monitor_clear",
            Metric::Invalidation => "invalidation",
            Metric::SmcFalseSharing => "smc_false_sharing",
            Metric::FalseSharing => "false_sharing",
        }
    }

    /// Looks a metric up by its [`name`](Metric::name).
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Whether the metric is a duration (nanoseconds) rather than a
    /// count — duration metrics are zeroed in deterministic modes so
    /// profiling can never perturb a reproducible run.
    pub fn is_duration(self) -> bool {
        matches!(self, Metric::ExclWaitNs | Metric::ParkNs)
    }
}

/// One decoded profile row: a guest PC and its metric counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileEntry {
    /// The guest PC costs were charged to.
    pub pc: u32,
    /// One slot per [`Metric`], in [`Metric::ALL`] order.
    pub counts: [u64; Metric::COUNT],
}

impl ProfileEntry {
    /// The value of one metric.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counts[metric as usize]
    }

    /// The sum of all count-typed (non-duration) metrics — the generic
    /// "how contended is this PC" rank used when no metric is chosen.
    pub fn total_events(&self) -> u64 {
        Metric::ALL
            .into_iter()
            .filter(|m| !m.is_duration())
            .map(|m| self.get(m))
            .sum()
    }
}

/// What fell off the bounded table: per-metric totals charged past the
/// probe limit, plus how many individual charges were dropped from
/// attribution. Totals stay exact; only the *location* of these is
/// lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overflow {
    /// Per-[`Metric`] amounts that could not be attributed to a PC.
    pub counts: [u64; Metric::COUNT],
    /// Number of charge calls that overflowed.
    pub drops: u64,
}

/// One vCPU's decoded profile: the live rows plus the overflow bucket.
#[derive(Clone, Debug, Default)]
pub struct ProfileSnapshot {
    /// Live rows, sorted by pc for deterministic export.
    pub entries: Vec<ProfileEntry>,
    /// The overflow bucket.
    pub overflow: Overflow,
}

/// Tag encoding: `(pc << 1) | 1`. The low bit makes every occupied tag
/// nonzero (0 = empty slot), and the pc round-trips losslessly because
/// a u64 tag has headroom above the u32 pc.
fn tag_of(pc: u32) -> u64 {
    ((pc as u64) << 1) | 1
}

/// The per-vCPU attribution table: fixed capacity, open addressing with
/// linear probing bounded by [`PcProfile::MAX_PROBE`], single writer.
pub struct PcProfile {
    tid: u32,
    /// Slot keys (`tag_of`, 0 = empty).
    tags: Box<[AtomicU64]>,
    /// `CAPACITY × Metric::COUNT` counters, row-major per slot.
    counts: Box<[AtomicU64]>,
    /// Per-metric totals charged past the probe bound.
    overflow: [AtomicU64; Metric::COUNT],
    /// Charge calls that overflowed.
    drops: AtomicU64,
}

impl PcProfile {
    /// Slots per vCPU (power of two; 4096 × (1 tag + 12 counters) × 8 B
    /// ≈ 416 KiB — fixed at construction, nothing on the hot path).
    pub const CAPACITY: usize = 1 << 12;
    /// Linear-probe bound per charge: past this, the charge goes to the
    /// overflow bucket instead of evicting or rehashing.
    pub const MAX_PROBE: usize = 16;

    /// An empty table owned by vCPU `tid`.
    pub fn new(tid: u32) -> PcProfile {
        PcProfile {
            tid,
            tags: (0..Self::CAPACITY).map(|_| AtomicU64::new(0)).collect(),
            counts: (0..Self::CAPACITY * Metric::COUNT)
                .map(|_| AtomicU64::new(0))
                .collect(),
            overflow: std::array::from_fn(|_| AtomicU64::new(0)),
            drops: AtomicU64::new(0),
        }
    }

    /// The owning vCPU's tid.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Fibonacci-hash home slot for a tag.
    fn home(tag: u64) -> usize {
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - 12)) as usize
    }

    /// Charges `amount` of `metric` to `pc`. Writer-side only
    /// (the owning vCPU's thread): tag publication and counter bumps
    /// are plain `Relaxed` load/store pairs — there is exactly one
    /// writer, and readers tolerate a stale value.
    #[inline]
    pub fn charge(&self, pc: u32, metric: Metric, amount: u64) {
        if amount == 0 && metric.is_duration() {
            // Deterministic modes zero durations; skip the probe too.
            return;
        }
        let tag = tag_of(pc);
        let mut idx = Self::home(tag) & (Self::CAPACITY - 1);
        for _ in 0..Self::MAX_PROBE {
            let cur = self.tags[idx].load(Ordering::Relaxed);
            if cur == tag || cur == 0 {
                if cur == 0 {
                    self.tags[idx].store(tag, Ordering::Relaxed);
                }
                let cell = &self.counts[idx * Metric::COUNT + metric as usize];
                let v = cell.load(Ordering::Relaxed);
                cell.store(v.wrapping_add(amount), Ordering::Relaxed);
                return;
            }
            idx = (idx + 1) & (Self::CAPACITY - 1);
        }
        let cell = &self.overflow[metric as usize];
        let v = cell.load(Ordering::Relaxed);
        cell.store(v.wrapping_add(amount), Ordering::Relaxed);
        let d = self.drops.load(Ordering::Relaxed);
        self.drops.store(d.wrapping_add(1), Ordering::Relaxed);
    }

    /// Decodes the live rows (sorted by pc) and the overflow
    /// bucket. Safe to call while the writer runs: counters are single
    /// `AtomicU64`s, so a racing read is at most one increment stale.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut entries = Vec::new();
        for idx in 0..Self::CAPACITY {
            let tag = self.tags[idx].load(Ordering::Relaxed);
            if tag == 0 {
                continue;
            }
            let mut counts = [0u64; Metric::COUNT];
            for (m, slot) in counts.iter_mut().enumerate() {
                *slot = self.counts[idx * Metric::COUNT + m].load(Ordering::Relaxed);
            }
            if counts.iter().all(|&c| c == 0) {
                continue;
            }
            entries.push(ProfileEntry {
                pc: (tag >> 1) as u32,
                counts,
            });
        }
        entries.sort_by_key(|e| e.pc);
        let mut overflow = Overflow {
            drops: self.drops.load(Ordering::Relaxed),
            ..Overflow::default()
        };
        for (m, slot) in overflow.counts.iter_mut().enumerate() {
            *slot = self.overflow[m].load(Ordering::Relaxed);
        }
        ProfileSnapshot { entries, overflow }
    }
}

/// The machine-wide recorder: hands each vCPU its private table and
/// aggregates snapshots for the exporters, the watchdog, and the
/// metrics sampler. Mirrors `TraceRecorder`: table creation happens
/// once per vCPU at context setup, never on the hot path.
#[derive(Default)]
pub struct ProfileRecorder {
    profiles: Mutex<Vec<Arc<PcProfile>>>,
}

impl ProfileRecorder {
    /// An empty recorder.
    pub fn new() -> ProfileRecorder {
        ProfileRecorder::default()
    }

    /// The table for `tid`, created on first use.
    pub fn profile(&self, tid: u32) -> Arc<PcProfile> {
        let mut profiles = self.profiles.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = profiles.iter().find(|p| p.tid() == tid) {
            return Arc::clone(p);
        }
        let p = Arc::new(PcProfile::new(tid));
        profiles.push(Arc::clone(&p));
        p
    }

    /// Every vCPU's snapshot, sorted by tid.
    pub fn snapshot_all(&self) -> Vec<(u32, ProfileSnapshot)> {
        let profiles = self.profiles.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(u32, ProfileSnapshot)> =
            profiles.iter().map(|p| (p.tid(), p.snapshot())).collect();
        out.sort_by_key(|&(tid, _)| tid);
        out
    }

    /// The machine-wide merge: per-vCPU rows summed by pc,
    /// overflow buckets summed — so merged totals are exactly the
    /// per-vCPU sums (the same discipline `VcpuStats::merge` keeps).
    pub fn merged(&self) -> ProfileSnapshot {
        merge_snapshots(self.snapshot_all().iter().map(|(_, s)| s))
    }

    /// The top `n` rows of one vCPU's table by a metric (or by total
    /// events when `metric` is `None`), descending — the watchdog's
    /// per-stalled-vCPU attribution digest.
    pub fn top_n(&self, tid: u32, metric: Option<Metric>, n: usize) -> Vec<ProfileEntry> {
        let snapshot = self.profile(tid).snapshot();
        top_entries(&snapshot.entries, metric, n)
    }
}

/// Merges any number of snapshots by pc.
pub fn merge_snapshots<'a>(
    snapshots: impl IntoIterator<Item = &'a ProfileSnapshot>,
) -> ProfileSnapshot {
    let mut merged: Vec<ProfileEntry> = Vec::new();
    let mut overflow = Overflow::default();
    for snap in snapshots {
        for entry in &snap.entries {
            match merged.iter_mut().find(|e| e.pc == entry.pc) {
                Some(e) => {
                    for (dst, src) in e.counts.iter_mut().zip(entry.counts) {
                        *dst += src;
                    }
                }
                None => merged.push(*entry),
            }
        }
        for (dst, src) in overflow.counts.iter_mut().zip(snap.overflow.counts) {
            *dst += src;
        }
        overflow.drops += snap.overflow.drops;
    }
    merged.sort_by_key(|e| e.pc);
    ProfileSnapshot {
        entries: merged,
        overflow,
    }
}

/// The top `n` entries by `metric` (total events when `None`),
/// descending, zero-valued rows dropped.
pub fn top_entries(
    entries: &[ProfileEntry],
    metric: Option<Metric>,
    n: usize,
) -> Vec<ProfileEntry> {
    let value = |e: &ProfileEntry| match metric {
        Some(m) => e.get(m),
        None => e.total_events(),
    };
    let mut ranked: Vec<ProfileEntry> = entries.iter().copied().filter(|e| value(e) > 0).collect();
    ranked.sort_by_key(|e| (std::cmp::Reverse(value(e)), e.pc));
    ranked.truncate(n);
    ranked
}

/// One-line rendering of an entry for diagnostic dumps (the watchdog
/// report): only the nonzero metrics, name=value.
pub fn render_entry(entry: &ProfileEntry) -> String {
    let mut parts = Vec::new();
    for metric in Metric::ALL {
        let v = entry.get(metric);
        if v > 0 {
            parts.push(format!("{}={v}", metric.name()));
        }
    }
    format!("pc={:#010x} {}", entry.pc, parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_round_trip_and_are_unique() {
        let names: std::collections::HashSet<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Metric::COUNT);
        for m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
            assert_eq!(
                Metric::ALL[m as usize],
                m,
                "wire order matches discriminant"
            );
        }
        assert_eq!(Metric::from_name("nope"), None);
    }

    #[test]
    fn charge_and_snapshot_round_trip() {
        let p = PcProfile::new(1);
        p.charge(0x1_0000, Metric::ScFail, 1);
        p.charge(0x1_0000, Metric::ScFail, 2);
        p.charge(0x1_0000, Metric::MonitorClear, 1);
        p.charge(0x2_0004, Metric::ExclWaitNs, 500);
        let snap = p.snapshot();
        assert_eq!(snap.entries.len(), 2);
        let first = &snap.entries[0];
        assert_eq!(first.pc, 0x1_0000);
        assert_eq!(first.get(Metric::ScFail), 3);
        assert_eq!(first.get(Metric::MonitorClear), 1);
        assert_eq!(snap.entries[1].pc, 0x2_0004);
        assert_eq!(snap.entries[1].get(Metric::ExclWaitNs), 500);
        assert_eq!(snap.overflow.drops, 0);
    }

    #[test]
    fn zero_duration_charges_do_not_allocate_rows() {
        // Deterministic modes charge 0 ns; the row must not appear.
        let p = PcProfile::new(1);
        p.charge(0x40, Metric::ExclWaitNs, 0);
        assert!(p.snapshot().entries.is_empty());
        // A zero *count* charge still lands (it marks the site), but an
        // all-zero row is dropped from the snapshot.
        p.charge(0x40, Metric::ScFail, 0);
        assert!(p.snapshot().entries.is_empty());
    }

    #[test]
    fn overflow_keeps_exact_totals_and_counts_drops() {
        let p = PcProfile::new(1);
        // Saturate every slot the probe sequence can reach for enough
        // distinct PCs that some charges must overflow.
        let mut attributed = 0u64;
        for pc in 0..(PcProfile::CAPACITY as u32 + 4096) {
            p.charge(pc * 4, Metric::ScFail, 1);
            attributed += 1;
        }
        let snap = p.snapshot();
        let in_table: u64 = snap.entries.iter().map(|e| e.get(Metric::ScFail)).sum();
        assert_eq!(
            in_table + snap.overflow.counts[Metric::ScFail as usize],
            attributed,
            "totals must be exact across table + overflow"
        );
        assert!(snap.overflow.drops > 0, "a 2x-capacity load must overflow");
        assert_eq!(
            snap.overflow.drops,
            snap.overflow.counts[Metric::ScFail as usize]
        );
    }

    #[test]
    fn recorder_merges_per_vcpu_tables() {
        let rec = ProfileRecorder::new();
        rec.profile(1).charge(0x100, Metric::ScFail, 2);
        rec.profile(2).charge(0x100, Metric::ScFail, 3);
        rec.profile(2).charge(0x200, Metric::MonitorClear, 1);
        let merged = rec.merged();
        assert_eq!(merged.entries.len(), 2);
        assert_eq!(merged.entries[0].get(Metric::ScFail), 5);
        assert_eq!(merged.entries[1].get(Metric::MonitorClear), 1);
        // merged == Σ per-vCPU, per metric.
        let per_vcpu = rec.snapshot_all();
        for metric in Metric::ALL {
            let merged_total: u64 = merged.entries.iter().map(|e| e.get(metric)).sum();
            let sum: u64 = per_vcpu
                .iter()
                .flat_map(|(_, s)| &s.entries)
                .map(|e| e.get(metric))
                .sum();
            assert_eq!(merged_total, sum, "{}", metric.name());
        }
    }

    #[test]
    fn recorder_reuses_tables_per_tid() {
        let rec = ProfileRecorder::new();
        let a = rec.profile(1);
        let a2 = rec.profile(1);
        assert!(Arc::ptr_eq(&a, &a2));
    }

    #[test]
    fn top_n_ranks_by_metric_and_total() {
        let p = PcProfile::new(1);
        p.charge(0x10, Metric::ScFail, 5);
        p.charge(0x20, Metric::ScFail, 9);
        p.charge(0x30, Metric::MonitorClear, 100);
        let snap = p.snapshot();
        let by_fail = top_entries(&snap.entries, Some(Metric::ScFail), 8);
        assert_eq!(by_fail.len(), 2);
        assert_eq!(by_fail[0].pc, 0x20);
        let by_total = top_entries(&snap.entries, None, 2);
        assert_eq!(by_total[0].pc, 0x30);
        assert_eq!(by_total.len(), 2);
    }

    #[test]
    fn render_entry_shows_only_nonzero_metrics() {
        let mut counts = [0u64; Metric::COUNT];
        counts[Metric::ScFail as usize] = 7;
        let line = render_entry(&ProfileEntry {
            pc: 0x1_0000,
            counts,
        });
        assert!(line.contains("pc=0x00010000"), "{line}");
        assert!(line.contains("sc_fail=7"), "{line}");
        assert!(!line.contains("monitor_clear"), "{line}");
    }
}
