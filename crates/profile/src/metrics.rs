//! The machine-readable metrics plane: `adbt_run --metrics out.jsonl`.
//!
//! One JSON object per line, schema `adbt-metrics-v1`. Threaded runs
//! emit periodic snapshots plus a final one; deterministic modes emit
//! the final snapshot only. Every line carries cache occupancy and a
//! profile summary; the final line additionally carries the full merged
//! `VcpuStats` (per-vCPU stats live in thread-owned execution contexts
//! and are not observable mid-run, so periodic lines omit them rather
//! than lie with stale numbers).
//!
//! The engine-side payloads (stats, occupancy, chaos, HTM) render
//! themselves to JSON in their home crates; this module composes the
//! line envelope and ships the validator CI runs on the emitter's own
//! output. `adbt_run --stats-json` reuses the final-line schema as a
//! single stdout object.

use crate::{Metric, ProfileSnapshot};
use adbt_trace::json::{object, parse_json, Json, JsonWriter};

/// The schema tag every line carries.
pub const SCHEMA: &str = "adbt-metrics-v1";

/// Renders the profile-summary object embedded in each line: row and
/// drop counts plus machine-wide totals per metric (zero metrics
/// omitted to keep periodic lines small).
pub fn profile_summary(snapshot: &ProfileSnapshot) -> String {
    let mut totals = [0u64; Metric::COUNT];
    for entry in &snapshot.entries {
        for (dst, src) in totals.iter_mut().zip(entry.counts) {
            *dst += src;
        }
    }
    for (dst, src) in totals.iter_mut().zip(snapshot.overflow.counts) {
        *dst += src;
    }
    let mut w = JsonWriter::new();
    w.obj().field("entries", snapshot.entries.len());
    w.field("dropped", snapshot.overflow.drops);
    let totals = Metric::ALL.map(|metric| (metric.name(), totals[metric as usize]));
    w.field("totals", object(totals.into_iter().filter(|&(_, n)| n > 0)));
    w.end().finish()
}

/// Composes one metrics line. `extras` are `(key, pre-rendered JSON
/// value)` pairs from the engine side — occupancy, chaos, HTM, and (on
/// the final line) the merged stats block.
pub fn render_line(
    seq: u64,
    is_final: bool,
    elapsed_ns: u64,
    scheme: &str,
    profile: &str,
    extras: &[(&str, String)],
) -> String {
    let mut w = JsonWriter::new();
    w.obj().key("schema").str(SCHEMA).field("seq", seq);
    w.field("final", is_final).field("elapsed_ns", elapsed_ns);
    w.key("scheme").str(scheme).field("profile", profile);
    for (key, value) in extras {
        w.field(key, value);
    }
    w.end().finish()
}

fn check_profile(line: &Json) -> Result<(), String> {
    let profile = line.field("profile")?;
    if matches!(profile, Json::Null) {
        return Ok(()); // profiling was off for this run
    }
    profile.u64_field("entries")?;
    profile.u64_field("dropped")?;
    for (key, value) in profile.obj_field("totals")? {
        if Metric::from_name(key).is_none() {
            return Err(format!("unknown metric `{key}` in totals"));
        }
        if value.as_u64().is_none() {
            return Err(format!("non-numeric total `{key}`"));
        }
    }
    Ok(())
}

/// Checks line `seq` (0-based) of a stream whose last line is `is_last`.
fn check_line(raw: &str, seq: u64, is_last: bool) -> Result<(), String> {
    let line = parse_json(raw)?;
    match line.str_field("schema")? {
        SCHEMA => {}
        other => return Err(format!("bad schema tag `{other}`")),
    }
    match line.u64_field("seq")? {
        got if got == seq => {}
        got => return Err(format!("seq {got}, want {seq}")),
    }
    if *line.field("final")? != Json::Bool(is_last) {
        return Err(format!(
            "final flag must be {is_last} (only the last line is final)"
        ));
    }
    line.u64_field("elapsed_ns")?;
    line.str_field("scheme")?;
    line.obj_field("occupancy")?;
    check_profile(&line)?;
    if is_last {
        line.obj_field("stats")?;
    }
    Ok(())
}

/// The in-tree validator: every line parses, carries the schema tag,
/// `seq` counts up from 0, exactly the last line is `final` (and
/// carries the merged stats block), occupancy is present throughout,
/// and profile summaries only name metrics this build knows.
pub fn validate_metrics_jsonl(text: &str) -> Result<usize, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err("no metrics lines".to_string());
    }
    for (i, raw) in lines.iter().enumerate() {
        let is_last = i + 1 == lines.len();
        check_line(raw, i as u64, is_last).map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileEntry;

    fn snapshot() -> ProfileSnapshot {
        let mut entry = ProfileEntry {
            pc: 0x1_0000,
            counts: [0; Metric::COUNT],
        };
        entry.counts[Metric::ScFail as usize] = 4;
        entry.counts[Metric::MonitorClear as usize] = 2;
        let mut snap = ProfileSnapshot {
            entries: vec![entry],
            overflow: Default::default(),
        };
        snap.overflow.counts[Metric::ScFail as usize] = 1;
        snap.overflow.drops = 1;
        snap
    }

    fn line(seq: u64, is_final: bool, with_stats: bool) -> String {
        let mut extras = vec![("occupancy", "{\"blocks\":3}".to_string())];
        if with_stats {
            extras.push(("stats", "{\"insns\":100}".to_string()));
        }
        render_line(
            seq,
            is_final,
            1234,
            "hst",
            &profile_summary(&snapshot()),
            &extras,
        )
    }

    /// A final line with its profile summary, pinned byte for byte.
    #[test]
    fn line_is_pinned() {
        let golden = include_str!("../tests/data/metrics_line.json");
        assert_eq!(line(2, true, true), golden.trim_end());
    }

    #[test]
    fn emitted_stream_validates() {
        let text = format!(
            "{}\n{}\n{}\n",
            line(0, false, false),
            line(1, false, false),
            line(2, true, true)
        );
        assert_eq!(validate_metrics_jsonl(&text).unwrap(), 3);
    }

    #[test]
    fn summary_totals_include_overflow_and_skip_zeros() {
        let summary = profile_summary(&snapshot());
        let parsed = parse_json(&summary).unwrap();
        assert_eq!(
            parsed
                .get("totals")
                .and_then(|t| t.get("sc_fail"))
                .and_then(Json::as_num),
            Some(5.0),
            "overflow bucket must count toward totals"
        );
        assert!(parsed.get("totals").unwrap().get("false_sharing").is_none());
        assert_eq!(parsed.get("dropped").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn validator_rejects_broken_streams() {
        assert!(validate_metrics_jsonl("")
            .unwrap_err()
            .contains("no metrics"));
        let bad_seq = format!("{}\n{}\n", line(0, false, false), line(5, true, true));
        assert!(validate_metrics_jsonl(&bad_seq)
            .unwrap_err()
            .contains("seq"));
        let no_final = format!("{}\n", line(0, false, false));
        assert!(validate_metrics_jsonl(&no_final)
            .unwrap_err()
            .contains("final"));
        let no_stats = format!("{}\n", line(0, true, false));
        assert!(validate_metrics_jsonl(&no_stats)
            .unwrap_err()
            .contains("stats"));
        let cooked = line(0, true, true).replace("sc_fail", "sc_failz");
        assert!(validate_metrics_jsonl(&cooked)
            .unwrap_err()
            .contains("unknown metric"));
    }
}
