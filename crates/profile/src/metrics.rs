//! The machine-readable metrics plane: `adbt_run --metrics out.jsonl`.
//!
//! One JSON object per line, schema `adbt-metrics-v2`. Threaded runs
//! emit periodic snapshots plus a final one; deterministic modes emit
//! the final snapshot only. Every line carries cache occupancy and a
//! profile summary; the final line additionally carries the full merged
//! `VcpuStats` (per-vCPU stats live in thread-owned execution contexts
//! and are not observable mid-run, so periodic lines omit them rather
//! than lie with stale numbers).
//!
//! The engine-side payloads (stats, occupancy, chaos) render
//! themselves to JSON in their home crates; this module composes the
//! line envelope and ships the validator CI runs on the emitter's own
//! output. `adbt_run --stats-json` reuses the final-line schema as a
//! single stdout object.
//!
//! The profile summary's totals are keyed by the profile's column names,
//! which are counter-table row names: on the final line every total
//! names a row of the `stats` block and never exceeds it. Wall-clock
//! rows are charged to the profile only in threaded runs, so in the
//! deterministic modes such a row exceeds its total; every other row
//! equals it.

use crate::ProfileSnapshot;
use adbt_trace::json::{object, parse_json, Json, JsonWriter};

/// The schema tag every line carries.
pub const SCHEMA: &str = "adbt-metrics-v2";

/// Renders the profile-summary object embedded in each line: row and
/// drop counts plus machine-wide totals per column (zero totals
/// omitted to keep periodic lines small).
pub fn profile_summary(snapshot: &ProfileSnapshot) -> String {
    let totals = snapshot
        .columns
        .iter()
        .enumerate()
        .map(|(column, &name)| (name, snapshot.total(column)));
    let mut w = JsonWriter::new();
    w.obj().field("entries", snapshot.entries.len());
    w.field("dropped", snapshot.overflow.drops);
    w.field("totals", object(totals.filter(|&(_, n)| n > 0)));
    w.end().finish()
}

/// Composes one metrics line. `extras` are `(key, pre-rendered JSON
/// value)` pairs from the engine side — occupancy, chaos, and (on the
/// final line) the merged stats block.
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
    let stats = line.get("stats");
    for (key, value) in profile.obj_field("totals")? {
        let total = value.as_u64().ok_or(format!("non-numeric total `{key}`"))?;
        match stats.map(|stats| stats.get(key).and_then(Json::as_u64)) {
            Some(None) => return Err(format!("profile total `{key}` names no stats row")),
            Some(Some(row)) if total > row => {
                return Err(format!(
                    "profile total `{key}` = {total} exceeds its row {row}"
                ))
            }
            _ => {}
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
    use crate::{Overflow, ProfileEntry};

    fn snapshot() -> ProfileSnapshot {
        ProfileSnapshot {
            columns: vec!["sc_failures", "monitor_clears", "false_sharing_faults"],
            entries: vec![ProfileEntry {
                pc: 0x1_0000,
                counts: vec![4, 2, 0],
            }],
            overflow: Overflow {
                counts: vec![1, 0, 0],
                drops: 1,
            },
        }
    }

    const STATS: &str = "{\"sc_failures\":5,\"monitor_clears\":2,\"false_sharing_faults\":0}";

    fn line(seq: u64, is_final: bool, with_stats: bool) -> String {
        let mut extras = vec![("occupancy", "{\"blocks\":3}".to_string())];
        if with_stats {
            extras.push(("stats", STATS.to_string()));
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
                .and_then(|t| t.get("sc_failures"))
                .and_then(Json::as_num),
            Some(5.0),
            "overflow bucket must count toward totals"
        );
        let totals = parsed.get("totals").unwrap();
        assert!(totals.get("false_sharing_faults").is_none());
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
        let unknown =
            line(0, true, true).replace("\"totals\":{\"sc_failures\"", "\"totals\":{\"sc_failz\"");
        assert!(validate_metrics_jsonl(&unknown)
            .unwrap_err()
            .contains("`sc_failz` names no stats row"));
        let cooked = line(0, true, true).replace(
            "\"sc_failures\":5,\"monitor_clears\":2,",
            "\"sc_failures\":4,\"monitor_clears\":2,",
        );
        assert!(validate_metrics_jsonl(&cooked)
            .unwrap_err()
            .contains("`sc_failures` = 5 exceeds its row 4"));
    }
}
