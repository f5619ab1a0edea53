//! The `.prof` document: JSON written by `adbt_run --profile`, read by
//! `adbt_prof`.
//!
//! Hand-rolled writer (the workspace builds air-gapped, no JSON crate);
//! the parser reuses the minimal recursive-descent JSON parser from the
//! trace validator. [`validate`] is the schema gate `adbt_prof --ci`
//! runs on its own input: schema tag, metric-name vector matching this
//! build's [`Metric::ALL`], well-formed entries, and a merged section
//! that is exactly the per-vCPU sum.
//!
//! Entries carry the raw instruction word at the charged PC (read from
//! guest memory *after* the run, so SMC patches show their final form)
//! and the nearest preceding symbol — `adbt_prof` decodes the word with
//! `adbt-isa` for disassembly context and uses the symbol as the
//! flamegraph's `guest_fn` frame.

use crate::{Metric, Overflow, ProfileEntry, Tier};
use adbt_trace::validate::{json_string, parse_json, Json};

/// One exported profile row: the counts plus the context the consumers
/// render (symbol, raw instruction word at the PC).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfRow {
    /// The attributed guest PC.
    pub pc: u32,
    /// The tier the samples were taken in.
    pub tier: Tier,
    /// Nearest preceding symbol, rendered `name+0xOFF` (`?` when the
    /// image had no symbol at or before the PC).
    pub symbol: String,
    /// The raw guest instruction word at `pc` at export time.
    pub insn: u32,
    /// Per-[`Metric`] counts, wire order.
    pub counts: [u64; Metric::COUNT],
}

impl ProfRow {
    /// The value of one metric.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counts[metric as usize]
    }

    /// The `guest_fn` flamegraph frame: the symbol's base name (offset
    /// stripped).
    pub fn guest_fn(&self) -> &str {
        self.symbol.split('+').next().unwrap_or("?")
    }
}

/// One vCPU's section of the document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfVcpu {
    /// The vCPU's tid.
    pub tid: u32,
    /// The vCPU's rows, sorted by `(pc, tier)`.
    pub rows: Vec<ProfRow>,
    /// The vCPU's overflow bucket.
    pub overflow: Overflow,
}

/// A parsed (or to-be-rendered) `.prof` document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfDoc {
    /// The scheme the run used (its CLI name).
    pub scheme: String,
    /// `"ns"` for threaded runs, `"insns"` for deterministic modes —
    /// which clock the duration metrics were measured in (deterministic
    /// modes zero them; the tag keeps consumers honest).
    pub clock: String,
    /// Per-vCPU sections, sorted by tid.
    pub vcpus: Vec<ProfVcpu>,
    /// The machine-wide merge (sum of the per-vCPU sections).
    pub merged: Vec<ProfRow>,
}

/// The schema tag every document starts with.
pub const SCHEMA: &str = "adbt-prof-v1";

/// Resolves a `ProfileEntry` into a `ProfRow` via caller-supplied
/// context lookups (symbol and instruction word at a PC).
pub fn resolve_rows(
    entries: &[ProfileEntry],
    mut symbol: impl FnMut(u32) -> String,
    mut insn: impl FnMut(u32) -> u32,
) -> Vec<ProfRow> {
    entries
        .iter()
        .map(|e| ProfRow {
            pc: e.pc,
            tier: e.tier,
            symbol: symbol(e.pc),
            insn: insn(e.pc),
            counts: e.counts,
        })
        .collect()
}

fn render_counts(counts: &[u64; Metric::COUNT]) -> String {
    let cells: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    format!("[{}]", cells.join(","))
}

fn render_row(row: &ProfRow) -> String {
    format!(
        "{{\"pc\":\"{:#010x}\",\"tier\":\"{}\",\"symbol\":{},\"insn\":{},\"counts\":{}}}",
        row.pc,
        row.tier.name(),
        json_string(&row.symbol),
        row.insn,
        render_counts(&row.counts)
    )
}

fn render_overflow(overflow: &Overflow) -> String {
    format!(
        "{{\"drops\":{},\"counts\":{}}}",
        overflow.drops,
        render_counts(&overflow.counts)
    )
}

/// Renders the document.
pub fn render(doc: &ProfDoc) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{SCHEMA}\",\"scheme\":{},\"clock\":{},\n\"metrics\":[",
        json_string(&doc.scheme),
        json_string(&doc.clock)
    ));
    for (i, metric) in Metric::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(metric.name()));
    }
    out.push_str("],\n\"vcpus\":[");
    for (i, vcpu) in doc.vcpus.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"tid\":{},\"overflow\":{},\"entries\":[",
            vcpu.tid,
            render_overflow(&vcpu.overflow)
        ));
        for (j, row) in vcpu.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&render_row(row));
        }
        out.push_str("]}");
    }
    out.push_str("],\n\"merged\":[");
    for (j, row) in doc.merged.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&render_row(row));
    }
    out.push_str("]}\n");
    out
}

fn parse_u32_field(obj: &Json, key: &str, ctx: &str) -> Result<u32, String> {
    match obj.get(key) {
        Some(Json::Num(n)) if *n >= 0.0 && *n <= u32::MAX as f64 => Ok(*n as u32),
        Some(Json::Str(s)) => {
            let hex = s.strip_prefix("0x").unwrap_or(s);
            u32::from_str_radix(hex, 16).map_err(|_| format!("{ctx}: bad {key} `{s}`"))
        }
        _ => Err(format!("{ctx}: missing numeric {key}")),
    }
}

fn parse_u64_field(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    match obj.get(key).and_then(Json::as_num) {
        Some(n) if n >= 0.0 => Ok(n as u64),
        _ => Err(format!("{ctx}: missing numeric {key}")),
    }
}

fn parse_counts(obj: &Json, ctx: &str) -> Result<[u64; Metric::COUNT], String> {
    let Some(Json::Arr(items)) = obj.get("counts") else {
        return Err(format!("{ctx}: missing counts array"));
    };
    if items.len() != Metric::COUNT {
        return Err(format!(
            "{ctx}: counts has {} cells, want {}",
            items.len(),
            Metric::COUNT
        ));
    }
    let mut counts = [0u64; Metric::COUNT];
    for (slot, item) in counts.iter_mut().zip(items) {
        *slot = item
            .as_num()
            .filter(|n| *n >= 0.0)
            .ok_or_else(|| format!("{ctx}: non-numeric count"))? as u64;
    }
    Ok(counts)
}

fn parse_row(obj: &Json, ctx: &str) -> Result<ProfRow, String> {
    let pc = parse_u32_field(obj, "pc", ctx)?;
    let tier = obj
        .get("tier")
        .and_then(Json::as_str)
        .and_then(Tier::from_name)
        .ok_or_else(|| format!("{ctx}: missing or unknown tier"))?;
    let symbol = obj
        .get("symbol")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing symbol"))?
        .to_string();
    let insn = parse_u32_field(obj, "insn", ctx)?;
    Ok(ProfRow {
        pc,
        tier,
        symbol,
        insn,
        counts: parse_counts(obj, ctx)?,
    })
}

fn parse_overflow(obj: &Json, ctx: &str) -> Result<Overflow, String> {
    let Some(overflow) = obj.get("overflow") else {
        return Err(format!("{ctx}: missing overflow"));
    };
    Ok(Overflow {
        drops: parse_u64_field(overflow, "drops", ctx)?,
        counts: parse_counts(overflow, ctx)?,
    })
}

/// Parses a `.prof` document, checking the schema tag and the metric
/// vector against this build.
pub fn parse(text: &str) -> Result<ProfDoc, String> {
    let doc = parse_json(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema `{other}` (want {SCHEMA})")),
        None => return Err("missing schema tag".to_string()),
    }
    let scheme = doc
        .get("scheme")
        .and_then(Json::as_str)
        .ok_or("missing scheme")?
        .to_string();
    let clock = doc
        .get("clock")
        .and_then(Json::as_str)
        .ok_or("missing clock")?
        .to_string();
    let Some(Json::Arr(metrics)) = doc.get("metrics") else {
        return Err("missing metrics array".to_string());
    };
    let expected: Vec<&str> = Metric::ALL.into_iter().map(Metric::name).collect();
    let got: Vec<&str> = metrics.iter().filter_map(Json::as_str).collect();
    if got != expected {
        return Err(format!(
            "metric vector mismatch: document has {got:?}, this build wants {expected:?}"
        ));
    }
    let Some(Json::Arr(vcpus)) = doc.get("vcpus") else {
        return Err("missing vcpus array".to_string());
    };
    let mut parsed_vcpus = Vec::with_capacity(vcpus.len());
    for (i, vcpu) in vcpus.iter().enumerate() {
        let ctx = format!("vcpu section {i}");
        let tid = parse_u32_field(vcpu, "tid", &ctx)?;
        let Some(Json::Arr(entries)) = vcpu.get("entries") else {
            return Err(format!("{ctx}: missing entries array"));
        };
        let mut rows = Vec::with_capacity(entries.len());
        for (j, entry) in entries.iter().enumerate() {
            rows.push(parse_row(entry, &format!("{ctx} entry {j}"))?);
        }
        parsed_vcpus.push(ProfVcpu {
            tid,
            rows,
            overflow: parse_overflow(vcpu, &ctx)?,
        });
    }
    let Some(Json::Arr(merged)) = doc.get("merged") else {
        return Err("missing merged array".to_string());
    };
    let mut merged_rows = Vec::with_capacity(merged.len());
    for (j, entry) in merged.iter().enumerate() {
        merged_rows.push(parse_row(entry, &format!("merged entry {j}"))?);
    }
    Ok(ProfDoc {
        scheme,
        clock,
        vcpus: parsed_vcpus,
        merged: merged_rows,
    })
}

/// The full schema gate (`adbt_prof --ci`): parse, then check that the
/// merged section is exactly the per-vCPU sum per `(pc, tier, metric)`
/// — the same merged-equals-Σ discipline the stats plane keeps.
pub fn validate(text: &str) -> Result<ProfDoc, String> {
    let doc = parse(text)?;
    let mut summed: Vec<(u32, Tier, [u64; Metric::COUNT])> = Vec::new();
    for vcpu in &doc.vcpus {
        for row in &vcpu.rows {
            match summed
                .iter_mut()
                .find(|(pc, tier, _)| *pc == row.pc && *tier == row.tier)
            {
                Some((_, _, counts)) => {
                    for (dst, src) in counts.iter_mut().zip(row.counts) {
                        *dst += src;
                    }
                }
                None => summed.push((row.pc, row.tier, row.counts)),
            }
        }
    }
    if summed.len() != doc.merged.len() {
        return Err(format!(
            "merged has {} rows, per-vCPU sum has {}",
            doc.merged.len(),
            summed.len()
        ));
    }
    for row in &doc.merged {
        let Some((_, _, counts)) = summed
            .iter()
            .find(|(pc, tier, _)| *pc == row.pc && *tier == row.tier)
        else {
            return Err(format!(
                "merged row {:#010x}/{} absent from per-vCPU sections",
                row.pc,
                row.tier.name()
            ));
        };
        if *counts != row.counts {
            return Err(format!(
                "merged row {:#010x}/{} ≠ per-vCPU sum",
                row.pc,
                row.tier.name()
            ));
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pc: u32, fails: u64) -> ProfRow {
        let mut counts = [0u64; Metric::COUNT];
        counts[Metric::ScFail as usize] = fails;
        ProfRow {
            pc,
            tier: Tier::Block,
            symbol: format!("f+{:#x}", pc & 0xfff),
            insn: 0xE152_3F9C,
            counts,
        }
    }

    fn doc() -> ProfDoc {
        ProfDoc {
            scheme: "hst".to_string(),
            clock: "ns".to_string(),
            vcpus: vec![
                ProfVcpu {
                    tid: 1,
                    rows: vec![row(0x1_0000, 2)],
                    overflow: Overflow::default(),
                },
                ProfVcpu {
                    tid: 2,
                    rows: vec![row(0x1_0000, 3), row(0x1_0010, 1)],
                    overflow: Overflow::default(),
                },
            ],
            merged: vec![row(0x1_0000, 5), row(0x1_0010, 1)],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let original = doc();
        let text = render(&original);
        let parsed = validate(&text).expect("own output validates");
        assert_eq!(parsed, original);
    }

    #[test]
    fn validate_rejects_cooked_merges() {
        let mut cooked = doc();
        cooked.merged[0].counts[Metric::ScFail as usize] += 1;
        let why = validate(&render(&cooked)).unwrap_err();
        assert!(why.contains("≠ per-vCPU sum"), "{why}");

        let mut cooked = doc();
        cooked.merged.pop();
        let why = validate(&render(&cooked)).unwrap_err();
        assert!(why.contains("rows"), "{why}");
    }

    #[test]
    fn parse_rejects_schema_and_metric_drift() {
        let text = render(&doc()).replace(SCHEMA, "adbt-prof-v0");
        assert!(parse(&text).unwrap_err().contains("schema"));
        let text = render(&doc()).replace("\"sc_fail\"", "\"sc_failz\"");
        assert!(parse(&text).unwrap_err().contains("metric vector"));
        assert!(parse("{}").is_err());
        assert!(parse("not json").is_err());
    }

    #[test]
    fn guest_fn_strips_the_offset() {
        assert_eq!(row(0x12, 0).guest_fn(), "f");
        let bare = ProfRow {
            symbol: "?".to_string(),
            ..row(0, 0)
        };
        assert_eq!(bare.guest_fn(), "?");
    }
}
