//! The metric table and the result line. Each metric is declared once
//! here with its unit, direction and kind; `BENCHMARK.json` must agree
//! (checked by a test).

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The direction as written in `BENCHMARK.json`.
    pub const fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a metric repeats exactly for the same inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A host measurement (time or memory): differs from run to run.
    WallClock,
    /// A count of work done: deterministic for deterministic cells
    /// (sim and 1-vCPU cells), timing-dependent only through races.
    Count,
}

impl Kind {
    /// The tag in the result record.
    pub const fn name(self) -> &'static str {
        match self {
            Kind::WallClock => "wall-clock",
            Kind::Count => "count",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, prefixed with the module for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Kind.
    pub kind: Kind,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Spec {
    Spec {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Count, WallClock};

/// The end-to-end metrics (`--trace 0`).
pub const END_TO_END: [Spec; 5] = [
    spec("setup_s", "s", Lower, WallClock),
    spec("guest_mips", "MIPS", Higher, WallClock),
    spec("makespan_ms_p50", "ms", Lower, WallClock),
    spec("makespan_ms_p90", "ms", Lower, WallClock),
    spec("peak_rss_mb", "MB", Lower, WallClock),
];

/// The per-layer metrics (`--trace 1`).
pub const PER_LAYER: [Spec; 37] = [
    spec("core.build_ms", "ms", Lower, WallClock),
    spec("core.load_ms", "ms", Lower, WallClock),
    spec("frontend.translate_us_per_block", "us", Lower, WallClock),
    spec("frontend.blocks", "count", Lower, Count),
    spec("frontend.share", "%", Lower, WallClock),
    spec("frontend.ir_ops_per_insn", "ops/insn", Lower, Count),
    spec("interp.ns_per_insn", "ns", Lower, WallClock),
    spec("interp.share", "%", Lower, WallClock),
    spec("ir_opt.optimize_us_per_block", "us", Lower, WallClock),
    spec("ir_opt.eliminated_pct", "%", Higher, Count),
    spec("tier.insn_pct", "%", Higher, Count),
    spec("tier.promotions", "count", Higher, Count),
    spec("tier.deopts", "count", Lower, Count),
    spec("dispatch.chain_pct", "%", Higher, Count),
    spec("dispatch.l1_hit_pct", "%", Higher, Count),
    spec("dispatch.lookups_per_kinsn", "1/kinsn", Lower, Count),
    spec("schemes.helper_calls_per_kinsn", "1/kinsn", Lower, Count),
    spec("schemes.htable_sets_per_kinsn", "1/kinsn", Lower, Count),
    spec("schemes.sc_fail_pct", "%", Lower, Count),
    spec("schemes.instrument_ms", "ms", Lower, WallClock),
    spec("exclusive.entries_per_kinsn", "1/kinsn", Lower, Count),
    spec("exclusive.wait_ms", "ms", Lower, WallClock),
    spec("exclusive.lock_wait_ms", "ms", Lower, WallClock),
    spec("mmu.mprotect_ms", "ms", Lower, WallClock),
    spec("mmu.page_faults_per_kinsn", "1/kinsn", Lower, Count),
    spec("mmu.false_sharing_pct", "%", Lower, Count),
    spec("htm.abort_pct", "%", Lower, Count),
    spec("cache.live_bytes", "bytes", Lower, Count),
    spec("cache.translations", "count", Lower, Count),
    spec("sim.host_ns_per_insn", "ns", Lower, WallClock),
    spec("sim.exclusive_pct", "%", Lower, Count),
    spec("sim.instrument_pct", "%", Lower, Count),
    spec("sim.mprotect_pct", "%", Lower, Count),
    spec("sim.makespan_units", "units", Lower, Count),
    spec("trace.overhead_pct", "%", Lower, WallClock),
    spec("trace.unattributed_pct", "%", Lower, WallClock),
    spec("trace.fidelity_mismatches", "count", Lower, Count),
];

/// A measured value of a declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    /// The metric.
    pub spec: Spec,
    /// The value.
    pub value: f64,
    /// How many samples it aggregates.
    pub samples: usize,
}

/// Looks up a declared metric by name.
///
/// # Panics
///
/// Panics on an undeclared name (a bug in this benchmark).
pub fn value(name: &str, value: f64, samples: usize) -> Value {
    let spec = *END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"));
    Value {
        spec,
        value,
        samples,
    }
}

/// A JSON number with every digit (non-finite values become 0, which
/// the result line's `correct` flag already rules out).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal (the benchmark's strings need no escapes
/// beyond quotes and backslashes).
pub fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(v.spec.name),
                num(v.value),
                string(v.spec.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The full record of one metric for the result file: value, unit,
/// direction, kind and sample count.
pub fn record(v: &Value) -> String {
    format!(
        "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": {}, \"kind\": {}, \"samples\": {}}}",
        string(v.spec.name),
        num(v.value),
        string(v.spec.unit),
        string(v.spec.better.name()),
        string(v.spec.kind.name()),
        v.samples
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{}", s.name);
            assert!(s.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[i + 1..].iter().all(|t| t.name != s.name), "{}", s.name);
        }
    }

    /// `BENCHMARK.json` declares exactly this table, one metric per line.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared = |s: &Spec| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                s.name,
                s.unit,
                s.better.name()
            )
        };
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&declared(s)),
                "{} missing or different",
                s.name
            );
        }
        let entries = json.matches("\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + crate::workload::Workload::ALL.len()
        );
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[value("setup_s", 0.25, 4)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(record(&value("tier.deopts", 2.0, 1)).contains("\"kind\": \"count\""));
    }
}
