//! # adbt-profile — the guest-PC contention profiler
//!
//! Machine-wide counters (`VcpuStats`) say *how much* a scheme pays for
//! atomic emulation; the flight recorder says *when*. This crate says
//! **where**: a fixed-size, open-addressed hash profile per vCPU, keyed
//! by guest PC, with one column per counter row the engine flags as
//! chargeable to a guest PC. The crate names no column itself: the
//! recorder is built from the engine's column list, every snapshot
//! carries it, and the `.prof` document writes it out, so the profile is
//! the per-PC view of the counter table rather than a second set of
//! metrics.
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
//! block-granular unless a charge site names its own PC (retired
//! blocks, safepoint parks).
//!
//! Overflow policy: the table holds [`PcProfile::CAPACITY`] slots and
//! probes at most [`PcProfile::MAX_PROBE`] of them per charge. A charge
//! that finds neither its own slot nor an empty one lands in the
//! per-column overflow bucket and bumps the dropped-charge counter —
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

/// One decoded profile row: a guest PC and its per-column counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileEntry {
    /// The guest PC costs were charged to.
    pub pc: u32,
    /// One cell per column of the snapshot.
    pub counts: Vec<u64>,
}

/// What fell off the bounded table: per-column totals charged past the
/// probe limit, plus how many individual charges were dropped from
/// attribution. Totals stay exact; only the *location* of these is
/// lost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Overflow {
    /// Per-column amounts that could not be attributed to a PC.
    pub counts: Vec<u64>,
    /// Number of charge calls that overflowed.
    pub drops: u64,
}

/// A decoded profile: the column names, the live rows and the overflow
/// bucket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// The column names, one per cell of every `counts` vector.
    pub columns: Vec<&'static str>,
    /// Live rows, sorted by pc for deterministic export.
    pub entries: Vec<ProfileEntry>,
    /// The overflow bucket.
    pub overflow: Overflow,
}

impl ProfileSnapshot {
    /// The column called `name`, if the profile has one.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|&c| c == name)
    }

    /// One column's total: every row plus the overflow bucket — exactly
    /// what the charge sites charged.
    pub fn total(&self, column: usize) -> u64 {
        let rows: u64 = self.entries.iter().map(|e| e.counts[column]).sum();
        rows + self.overflow.counts[column]
    }
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
    /// Counters per slot.
    width: usize,
    /// Slot keys (`tag_of`, 0 = empty).
    tags: Box<[AtomicU64]>,
    /// `CAPACITY × width` counters, row-major per slot.
    counts: Box<[AtomicU64]>,
    /// Per-column totals charged past the probe bound.
    overflow: Box<[AtomicU64]>,
    /// Charge calls that overflowed.
    drops: AtomicU64,
}

fn zeroed(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl PcProfile {
    /// Slots per vCPU (power of two; with the engine's 9 columns, 4096 ×
    /// (1 tag + 9 counters) × 8 B = 320 KiB — fixed at construction,
    /// nothing on the hot path).
    pub const CAPACITY: usize = 1 << 12;
    /// Linear-probe bound per charge: past this, the charge goes to the
    /// overflow bucket instead of evicting or rehashing.
    pub const MAX_PROBE: usize = 16;

    /// An empty table of `width` columns owned by vCPU `tid`.
    pub fn new(tid: u32, width: usize) -> PcProfile {
        PcProfile {
            tid,
            width,
            tags: zeroed(Self::CAPACITY),
            counts: zeroed(Self::CAPACITY * width),
            overflow: zeroed(width),
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

    /// Adds `amount` to `column` at `pc`. Writer-side only (the owning
    /// vCPU's thread): tag publication and counter bumps are plain
    /// `Relaxed` load/store pairs — there is exactly one writer, and
    /// readers tolerate a stale value. A zero amount changes nothing and
    /// claims no slot.
    #[inline]
    pub fn charge(&self, pc: u32, column: usize, amount: u64) {
        if amount == 0 {
            return;
        }
        let bump = |cell: &AtomicU64| {
            let v = cell.load(Ordering::Relaxed);
            cell.store(v.wrapping_add(amount), Ordering::Relaxed);
        };
        let tag = tag_of(pc);
        let mut idx = Self::home(tag) & (Self::CAPACITY - 1);
        for _ in 0..Self::MAX_PROBE {
            let cur = self.tags[idx].load(Ordering::Relaxed);
            if cur == tag || cur == 0 {
                if cur == 0 {
                    self.tags[idx].store(tag, Ordering::Relaxed);
                }
                bump(&self.counts[idx * self.width + column]);
                return;
            }
            idx = (idx + 1) & (Self::CAPACITY - 1);
        }
        bump(&self.overflow[column]);
        let d = self.drops.load(Ordering::Relaxed);
        self.drops.store(d.wrapping_add(1), Ordering::Relaxed);
    }

    /// Decodes the live rows (sorted by pc) and the overflow bucket.
    /// Safe to call while the writer runs: counters are single
    /// `AtomicU64`s, so a racing read is at most one increment stale.
    fn snapshot(&self, columns: &[&'static str]) -> ProfileSnapshot {
        let load = |cells: &[AtomicU64]| -> Vec<u64> {
            cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        let mut entries = Vec::new();
        for idx in 0..Self::CAPACITY {
            let tag = self.tags[idx].load(Ordering::Relaxed);
            if tag == 0 {
                continue;
            }
            let counts = load(&self.counts[idx * self.width..(idx + 1) * self.width]);
            if counts.iter().all(|&c| c == 0) {
                continue;
            }
            entries.push(ProfileEntry {
                pc: (tag >> 1) as u32,
                counts,
            });
        }
        entries.sort_by_key(|e| e.pc);
        ProfileSnapshot {
            columns: columns.to_vec(),
            entries,
            overflow: Overflow {
                counts: load(&self.overflow),
                drops: self.drops.load(Ordering::Relaxed),
            },
        }
    }
}

/// The machine-wide recorder: hands each vCPU its private table and
/// aggregates snapshots for the exporters, the watchdog, and the
/// metrics sampler. Mirrors `TraceRecorder`: table creation happens
/// once per vCPU at context setup, never on the hot path.
pub struct ProfileRecorder {
    columns: Vec<&'static str>,
    profiles: Mutex<Vec<Arc<PcProfile>>>,
}

impl ProfileRecorder {
    /// An empty recorder whose tables have one column per name.
    pub fn new(columns: Vec<&'static str>) -> ProfileRecorder {
        ProfileRecorder {
            columns,
            profiles: Mutex::new(Vec::new()),
        }
    }

    /// The column names, in table order.
    pub fn columns(&self) -> &[&'static str] {
        &self.columns
    }

    /// The table for `tid`, created on first use.
    pub fn profile(&self, tid: u32) -> Arc<PcProfile> {
        let mut profiles = self.profiles.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = profiles.iter().find(|p| p.tid() == tid) {
            return Arc::clone(p);
        }
        let p = Arc::new(PcProfile::new(tid, self.columns.len()));
        profiles.push(Arc::clone(&p));
        p
    }

    /// Every vCPU's snapshot, sorted by tid.
    pub fn snapshot_all(&self) -> Vec<(u32, ProfileSnapshot)> {
        let profiles = self.profiles.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(u32, ProfileSnapshot)> = profiles
            .iter()
            .map(|p| (p.tid(), p.snapshot(&self.columns)))
            .collect();
        out.sort_by_key(|&(tid, _)| tid);
        out
    }

    /// The machine-wide merge: per-vCPU rows summed by pc, overflow
    /// buckets summed — so merged totals are exactly the per-vCPU sums
    /// (the same discipline `VcpuStats::merge` keeps).
    pub fn merged(&self) -> ProfileSnapshot {
        let add = |dst: &mut [u64], src: &[u64]| dst.iter_mut().zip(src).for_each(|(d, s)| *d += s);
        let mut merged = ProfileSnapshot {
            columns: self.columns.clone(),
            entries: Vec::new(),
            overflow: Overflow {
                counts: vec![0; self.columns.len()],
                drops: 0,
            },
        };
        for (_, snap) in self.snapshot_all() {
            for entry in snap.entries {
                match merged.entries.iter_mut().find(|e| e.pc == entry.pc) {
                    Some(e) => add(&mut e.counts, &entry.counts),
                    None => merged.entries.push(entry),
                }
            }
            add(&mut merged.overflow.counts, &snap.overflow.counts);
            merged.overflow.drops += snap.overflow.drops;
        }
        merged.entries.sort_by_key(|e| e.pc);
        merged
    }

    /// The top `n` rows of one vCPU's table by `rank`, descending (ties
    /// by pc), zero-ranked rows dropped — the watchdog's
    /// per-stalled-vCPU attribution digest.
    pub fn top_n(
        &self,
        tid: u32,
        rank: impl Fn(&ProfileEntry) -> u64,
        n: usize,
    ) -> Vec<ProfileEntry> {
        let mut ranked = self.profile(tid).snapshot(&self.columns).entries;
        ranked.retain(|e| rank(e) > 0);
        ranked.sort_by_key(|e| (std::cmp::Reverse(rank(e)), e.pc));
        ranked.truncate(n);
        ranked
    }
}

/// One-line rendering of an entry for diagnostic dumps (the watchdog
/// report): only the nonzero columns, name=value.
pub fn render_entry(columns: &[&str], entry: &ProfileEntry) -> String {
    let parts: Vec<String> = columns
        .iter()
        .zip(&entry.counts)
        .filter(|&(_, &v)| v > 0)
        .map(|(name, v)| format!("{name}={v}"))
        .collect();
    format!("pc={:#010x} {}", entry.pc, parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLUMNS: [&str; 3] = ["sc_failures", "monitor_clears", "exclusive_ns"];
    const FAIL: usize = 0;
    const CLEAR: usize = 1;
    const WAIT: usize = 2;

    fn recorder() -> ProfileRecorder {
        ProfileRecorder::new(COLUMNS.to_vec())
    }

    /// The recorder's column names reach every snapshot in table order,
    /// each resolving back to its own column.
    #[test]
    fn metric_names_round_trip_and_are_unique() {
        let rec = recorder();
        rec.profile(1);
        for snap in [rec.merged(), rec.snapshot_all().remove(0).1] {
            assert_eq!(snap.columns, COLUMNS);
            for (column, name) in COLUMNS.iter().enumerate() {
                assert_eq!(snap.column(name), Some(column));
            }
        }
    }

    #[test]
    fn charge_and_snapshot_round_trip() {
        let rec = recorder();
        let p = rec.profile(1);
        p.charge(0x1_0000, FAIL, 1);
        p.charge(0x1_0000, FAIL, 2);
        p.charge(0x1_0000, CLEAR, 1);
        p.charge(0x2_0004, WAIT, 500);
        let snap = &rec.snapshot_all()[0].1;
        assert_eq!(snap.columns, COLUMNS);
        assert_eq!(snap.entries.len(), 2);
        let first = &snap.entries[0];
        assert_eq!(first.pc, 0x1_0000);
        assert_eq!(first.counts, [3, 1, 0]);
        assert_eq!(snap.entries[1].pc, 0x2_0004);
        assert_eq!(snap.entries[1].counts[WAIT], 500);
        assert_eq!(snap.overflow.drops, 0);
        assert_eq!(snap.column("monitor_clears"), Some(CLEAR));
        assert_eq!(snap.column("nope"), None);
    }

    #[test]
    fn zero_duration_charges_do_not_allocate_rows() {
        // Deterministic modes charge no wall time, and a zero charge of
        // any column claims no slot.
        let rec = recorder();
        rec.profile(1).charge(0x40, WAIT, 0);
        rec.profile(1).charge(0x40, FAIL, 0);
        assert!(rec.merged().entries.is_empty());
    }

    #[test]
    fn overflow_keeps_exact_totals_and_counts_drops() {
        let rec = recorder();
        let p = rec.profile(1);
        // Saturate every slot the probe sequence can reach for enough
        // distinct PCs that some charges must overflow.
        let charged = PcProfile::CAPACITY as u32 + 4096;
        for pc in 0..charged {
            p.charge(pc * 4, FAIL, 1);
        }
        let snap = rec.merged();
        assert_eq!(
            snap.total(FAIL),
            u64::from(charged),
            "totals must be exact across table + overflow"
        );
        assert!(snap.overflow.drops > 0, "a 2x-capacity load must overflow");
        assert_eq!(snap.overflow.drops, snap.overflow.counts[FAIL]);
    }

    #[test]
    fn recorder_merges_per_vcpu_tables() {
        let rec = recorder();
        rec.profile(1).charge(0x100, FAIL, 2);
        rec.profile(2).charge(0x100, FAIL, 3);
        rec.profile(2).charge(0x200, CLEAR, 1);
        let merged = rec.merged();
        assert_eq!(merged.entries.len(), 2);
        assert_eq!(merged.entries[0].counts[FAIL], 5);
        assert_eq!(merged.entries[1].counts[CLEAR], 1);
        // merged == Σ per-vCPU, per column.
        let per_vcpu = rec.snapshot_all();
        for (column, name) in COLUMNS.iter().enumerate() {
            let sum: u64 = per_vcpu.iter().map(|(_, s)| s.total(column)).sum();
            assert_eq!(merged.total(column), sum, "{name}");
        }
    }

    #[test]
    fn recorder_reuses_tables_per_tid() {
        let rec = recorder();
        let a = rec.profile(1);
        let a2 = rec.profile(1);
        assert!(Arc::ptr_eq(&a, &a2));
    }

    #[test]
    fn top_n_ranks_by_metric_and_total() {
        let rec = recorder();
        let p = rec.profile(1);
        p.charge(0x10, FAIL, 5);
        p.charge(0x20, FAIL, 9);
        p.charge(0x30, CLEAR, 100);
        let by_fail = rec.top_n(1, |e| e.counts[FAIL], 8);
        assert_eq!(by_fail.len(), 2);
        assert_eq!(by_fail[0].pc, 0x20);
        let by_total = rec.top_n(1, |e| e.counts.iter().sum(), 2);
        assert_eq!(by_total[0].pc, 0x30);
        assert_eq!(by_total.len(), 2);
    }

    #[test]
    fn render_entry_shows_only_nonzero_metrics() {
        let line = render_entry(
            &COLUMNS,
            &ProfileEntry {
                pc: 0x1_0000,
                counts: vec![7, 0, 0],
            },
        );
        assert_eq!(line, "pc=0x00010000 sc_failures=7");
    }
}
