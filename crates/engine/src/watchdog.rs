//! Per-vCPU liveness watchdog.
//!
//! Every vCPU thread publishes a heartbeat ([`VcpuBeat`]) that the harness
//! samples from a side thread. The beat carries a monotonically increasing
//! progress counter (retired blocks), the last program counter, and a
//! `done` flag. The sampler declares a stall only when **no live vCPU**
//! made progress over a whole interval: a single vCPU legitimately makes
//! no progress while parked for another vCPU's exclusive section, but if
//! the entire machine is frozen for longer than the configured interval,
//! something is wedged (a livelock or a lost wakeup) and the run should
//! fail cleanly with a diagnostic dump instead of hanging forever.
//!
//! Consequently `watchdog_ms` must comfortably exceed the longest
//! legitimate stop-the-world pause of the chosen scheme.

use crate::cache::CacheOccupancy;
use adbt_chaos::ChaosSnapshot;
use adbt_profile::ProfileEntry;
use adbt_trace::TraceEvent;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Heartbeat published by one vCPU thread and sampled by the watchdog.
#[derive(Debug, Default)]
pub struct VcpuBeat {
    /// Monotonic progress counter (retired translated blocks).
    pub progress: AtomicU64,
    /// Last guest program counter observed at a block boundary.
    pub pc: AtomicU32,
    /// Set once the vCPU has finished (exited, crashed, or drained).
    pub done: AtomicBool,
}

impl VcpuBeat {
    /// Creates a fresh heartbeat at progress zero.
    pub fn new() -> VcpuBeat {
        VcpuBeat::default()
    }

    /// Called by the vCPU at each block boundary.
    #[inline]
    pub fn tick(&self, progress: u64, pc: u32) {
        self.progress.store(progress, Ordering::Relaxed);
        self.pc.store(pc, Ordering::Relaxed);
    }
}

/// Diagnostic produced when the watchdog fires: which vCPUs were stalled
/// and a human-readable report of each one's last known state.
#[derive(Debug, Clone)]
pub struct WatchdogDump {
    /// Tids of the vCPUs that made no progress over the fatal interval
    /// (every vCPU still live at that point).
    pub stalled_tids: Vec<u32>,
    /// Human-readable per-vCPU state (tid, progress, last pc).
    pub report: String,
    /// The last flight-recorder events per vCPU (tid, oldest-first) at
    /// the moment the watchdog fired — what each thread was *doing* when
    /// the machine stopped. Empty when tracing is off.
    pub ring_events: Vec<(u32, Vec<TraceEvent>)>,
    /// Translation-cache occupancy at the moment the watchdog fired:
    /// a stall during an invalidation storm shows up here as limbo that
    /// never drains or a footprint pinned at the budget.
    pub occupancy: Option<CacheOccupancy>,
    /// Per-site injected-fault counts at the moment the watchdog fired,
    /// when a chaos campaign was active — which injections drove the
    /// machine into the stall.
    pub chaos: Option<ChaosSnapshot>,
    /// The hottest profile entries per stalled vCPU (tid, entries) when
    /// profiling was on — *where* each thread was burning its time.
    pub profiles: Vec<(u32, Vec<ProfileEntry>)>,
}

impl WatchdogDump {
    /// Attaches the flight-recorder tail to the dump, both structured
    /// (for programmatic export) and rendered into the text report.
    pub fn attach_ring_events(&mut self, ring_events: Vec<(u32, Vec<TraceEvent>)>) {
        self.report.push_str("last flight-recorder events:\n");
        for (tid, events) in &ring_events {
            self.report.push_str(&format!("  vcpu tid={tid}:\n"));
            for event in events {
                self.report.push_str(&format!("    {}\n", event.render()));
            }
        }
        self.ring_events = ring_events;
    }

    /// Attaches a translation-cache occupancy snapshot to the dump, both
    /// structured and rendered into the text report.
    pub fn attach_occupancy(&mut self, occupancy: CacheOccupancy) {
        self.report.push_str(&format!(
            "translation cache: {} live blocks, {} arena bytes (peak {}), \
             {} invalidations, {} flushes, {} retired, {} reclaimed \
             ({} whole segments)\n",
            occupancy.live_blocks,
            occupancy.arena_bytes,
            occupancy.peak_bytes,
            occupancy.invalidations,
            occupancy.flushes,
            occupancy.retired_blocks,
            occupancy.reclaimed_blocks,
            occupancy.reclaimed_segments,
        ));
        self.occupancy = Some(occupancy);
    }

    /// Attaches the chaos plane's per-site injection counts, both
    /// structured and rendered into the text report (previously the text
    /// rendering lost them entirely).
    pub fn attach_chaos(&mut self, snapshot: ChaosSnapshot) {
        self.report
            .push_str(&format!("chaos injections: {} total\n", snapshot.total()));
        for (site, count) in snapshot.fired() {
            self.report
                .push_str(&format!("  {}: {}\n", site.name(), count));
        }
        self.chaos = Some(snapshot);
    }

    /// Attaches the hottest profile entries per stalled vCPU, both
    /// structured and rendered into the text report — the attribution
    /// plane's view of where each stalled thread was paying.
    pub fn attach_profiles(&mut self, profiles: Vec<(u32, Vec<ProfileEntry>)>) {
        self.report.push_str("hottest profile entries:\n");
        for (tid, entries) in &profiles {
            self.report.push_str(&format!("  vcpu tid={tid}:\n"));
            for entry in entries {
                self.report
                    .push_str(&format!("    {}\n", adbt_profile::render_entry(entry)));
            }
        }
        self.profiles = profiles;
    }
}

/// Samples `beats` and returns a dump if no live vCPU progressed since
/// `last`. Updates `last` in place with the current sample. Returns
/// `None` (no stall) when at least one vCPU progressed or finished during
/// the interval, or when all vCPUs are done.
pub fn sample(beats: &[std::sync::Arc<VcpuBeat>], last: &mut [u64]) -> Option<WatchdogDump> {
    let mut any_live = false;
    let mut any_progress = false;
    let mut stalled = Vec::new();
    let mut report = String::new();
    for (i, beat) in beats.iter().enumerate() {
        if beat.done.load(Ordering::Relaxed) {
            // A vCPU finishing counts as machine progress.
            if last[i] != u64::MAX {
                last[i] = u64::MAX;
                any_progress = true;
            }
            continue;
        }
        any_live = true;
        let now = beat.progress.load(Ordering::Relaxed);
        if now != last[i] {
            any_progress = true;
        }
        last[i] = now;
        let tid = i as u32 + 1;
        stalled.push(tid);
        let pc = beat.pc.load(Ordering::Relaxed);
        report.push_str(&format!(
            "vcpu tid={tid}: blocks={now} last_pc={pc:#010x}\n"
        ));
    }
    if any_live && !any_progress {
        Some(WatchdogDump {
            stalled_tids: stalled,
            report,
            ring_events: Vec::new(),
            occupancy: None,
            chaos: None,
            profiles: Vec::new(),
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn progress_suppresses_the_dump() {
        let beats = vec![Arc::new(VcpuBeat::new()), Arc::new(VcpuBeat::new())];
        let mut last = vec![0u64; 2];
        beats[0].tick(1, 0x10);
        // First sample: vCPU 0 progressed, no stall.
        assert!(sample(&beats, &mut last).is_none());
        // Second sample with no movement anywhere: stall.
        let dump = sample(&beats, &mut last).expect("stall expected");
        assert_eq!(dump.stalled_tids, vec![1, 2]);
        assert!(dump.report.contains("tid=1"));
    }

    #[test]
    fn done_vcpus_do_not_stall() {
        let beats = vec![Arc::new(VcpuBeat::new()), Arc::new(VcpuBeat::new())];
        let mut last = vec![0u64; 2];
        beats[0].done.store(true, Ordering::Relaxed);
        beats[1].done.store(true, Ordering::Relaxed);
        assert!(sample(&beats, &mut last).is_none());
        assert!(sample(&beats, &mut last).is_none());
    }

    #[test]
    fn one_live_vcpu_progressing_keeps_machine_alive() {
        let beats = vec![Arc::new(VcpuBeat::new()), Arc::new(VcpuBeat::new())];
        // Samplers initialize `last` to u64::MAX so the first interval is
        // a grace period even if no block retired yet.
        let mut last = vec![u64::MAX; 2];
        assert!(sample(&beats, &mut last).is_none());
        beats[1].tick(5, 0x40);
        // vCPU 0 is frozen, but vCPU 1 moved: the machine is alive.
        assert!(sample(&beats, &mut last).is_none());
        // Nobody moved this interval: stall.
        assert!(sample(&beats, &mut last).is_some());
    }
}
