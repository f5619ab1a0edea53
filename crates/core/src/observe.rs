//! Shared run-observation plumbing: the `adbt-metrics-v2` sampling loop
//! and the snapshot blocks every metrics line carries.
//!
//! `adbt_run --metrics` used to own this loop privately, which left its
//! flush discipline untestable — and on the `Livelocked` watchdog exit
//! path the final snapshot (the only line carrying the merged per-vCPU
//! stats) could be dropped with the rest of the abnormal-termination
//! cleanup. The loop now lives here as a library function with one hard
//! guarantee: **the final line is appended before [`run_with_metrics`]
//! returns, whatever the outcome** — clean exits, traps, and
//! watchdog-halted livelocks all carry their `"final":true` snapshot.
//! `tests/profile_plane.rs` pins the Livelocked case.

use crate::Machine;
use adbt_engine::json::JsonWriter;
use adbt_engine::{RunReport, Vcpu};
use adbt_profile::metrics;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The merged profile summary for a metrics line (`null` when the
/// profiler is off — the schema allows it).
pub fn profile_summary_json(machine: &Machine) -> String {
    match &machine.core().profile {
        Some(rec) => metrics::profile_summary(&rec.merged()),
        None => JsonWriter::new().null().finish(),
    }
}

/// The engine-side blocks every metrics line carries; `report` adds the
/// end-of-run blocks (merged stats, chaos snapshot) that only exist once
/// the vCPUs have joined.
pub fn snapshot_extras(
    machine: &Machine,
    report: Option<&RunReport>,
) -> Vec<(&'static str, String)> {
    let mut extras = vec![("occupancy", machine.core().cache_occupancy().to_json())];
    if let Some(report) = report {
        extras.push(("stats", report.stats.to_json()));
        if let Some(chaos) = &report.chaos {
            extras.push(("chaos", chaos.to_json()));
        }
    }
    extras
}

/// Renders the end-of-run `"final":true` metrics line for a finished
/// report (also what `adbt_run --stats-json` prints to stdout).
pub fn final_metrics_line(
    machine: &Machine,
    report: &RunReport,
    seq: u64,
    elapsed_ns: u64,
) -> String {
    metrics::render_line(
        seq,
        true,
        elapsed_ns,
        machine.scheme().name(),
        &profile_summary_json(machine),
        &snapshot_extras(machine, Some(report)),
    )
}

/// Runs pre-built vCPUs on real OS threads while sampling the
/// `adbt-metrics-v2` stream from a side thread every `interval`.
///
/// Mid-run lines sample the shared vantage points only (the merged
/// profile and the cache occupancy gauges); per-vCPU stats
/// are thread-owned and appear on the final line. The final line is
/// appended **unconditionally** once the run returns — including when
/// the liveness watchdog halted the machine and every outcome is
/// [`Livelocked`](adbt_engine::VcpuOutcome::Livelocked) — so consumers
/// never lose the last epoch to an abnormal exit.
pub fn run_with_metrics(
    machine: &Machine,
    vcpus: Vec<Vcpu>,
    interval: Duration,
) -> (RunReport, Vec<String>) {
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let (report, mut lines) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut sampled = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                sampled.push(metrics::render_line(
                    sampled.len() as u64,
                    false,
                    start.elapsed().as_nanos() as u64,
                    machine.scheme().name(),
                    &profile_summary_json(machine),
                    &snapshot_extras(machine, None),
                ));
            }
            sampled
        });
        let report = machine.run_vcpus(vcpus);
        stop.store(true, Ordering::Relaxed);
        let lines = sampler.join().expect("metrics sampler thread panicked");
        (report, lines)
    });
    let seq = lines.len() as u64;
    lines.push(final_metrics_line(
        machine,
        &report,
        seq,
        start.elapsed().as_nanos() as u64,
    ));
    (report, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineBuilder;
    use adbt_schemes::SchemeKind;

    #[test]
    fn metrics_run_always_ends_with_a_final_line() {
        let mut machine = MachineBuilder::new(SchemeKind::PicoCas)
            .memory(1 << 20)
            .profile(true)
            .build()
            .unwrap();
        machine.load_asm("mov r0, #0\nsvc #0\n", 0x1000).unwrap();
        let vcpus = machine.make_vcpus(2, 0x1000);
        let (report, lines) = run_with_metrics(&machine, vcpus, Duration::from_millis(5));
        assert!(report.all_ok());
        let last = lines.last().expect("at least the final line");
        assert!(last.contains("\"final\":true"), "{last}");
        assert!(last.contains("\"stats\":"), "{last}");
        // Only the final line is final.
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"final\":true"))
                .count(),
            1
        );
    }
}
