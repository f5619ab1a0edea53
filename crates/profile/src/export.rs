//! The `.prof` document: JSON written by `adbt_run --profile`, read by
//! `adbt_prof`.
//!
//! Written and parsed through `adbt_trace::json`, the workspace's one
//! JSON writer and parser. [`validate`] is the schema gate `adbt_prof --ci`
//! runs on its own input: schema tag, a `metrics` vector naming the
//! columns, entries whose `counts` arrays have one cell per column, and a
//! merged section that is exactly the per-vCPU sum. The columns are the
//! counter rows the engine charges to guest PCs; the document carries
//! their names, so a reader resolves a metric against the document, not
//! against its own build.
//!
//! Entries carry the raw instruction word at the charged PC (read from
//! guest memory *after* the run, so SMC patches show their final form)
//! and the nearest preceding symbol — `adbt_prof` decodes the word with
//! `adbt-isa` for disassembly context and uses the symbol as the
//! flamegraph's `guest_fn` frame.

use crate::{Overflow, ProfileEntry};
use adbt_trace::json::{parse_json, Json, JsonWriter};

/// One exported profile row: the counts plus the context the consumers
/// render (symbol, raw instruction word at the PC).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfRow {
    /// The attributed guest PC.
    pub pc: u32,
    /// Nearest preceding symbol, rendered `name+0xOFF` (`?` when the
    /// image had no symbol at or before the PC).
    pub symbol: String,
    /// The raw guest instruction word at `pc` at export time.
    pub insn: u32,
    /// One count per column of the document's `metrics` vector.
    pub counts: Vec<u64>,
}

impl ProfRow {
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
    /// The vCPU's rows, sorted by pc.
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
    /// which clock the run kept (deterministic modes charge the
    /// wall-clock columns nothing; the tag keeps consumers honest).
    pub clock: String,
    /// The column names, one per cell of every `counts` array.
    pub metrics: Vec<String>,
    /// Per-vCPU sections, sorted by tid.
    pub vcpus: Vec<ProfVcpu>,
    /// The machine-wide merge (sum of the per-vCPU sections).
    pub merged: Vec<ProfRow>,
}

/// The schema tag every document starts with.
pub const SCHEMA: &str = "adbt-prof-v2";

impl ProfDoc {
    /// The column called `name`, if the document has one.
    pub fn metric(&self, name: &str) -> Option<usize> {
        self.metrics.iter().position(|m| m == name)
    }
}

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
            symbol: symbol(e.pc),
            insn: insn(e.pc),
            counts: e.counts.clone(),
        })
        .collect()
}

/// Renders the document: a header line, then one line per vCPU section
/// and per row.
pub fn render(doc: &ProfDoc) -> String {
    let mut w = JsonWriter::new();
    w.obj().key("schema").str(SCHEMA);
    w.key("scheme").str(&doc.scheme);
    w.key("clock").str(&doc.clock);
    w.pad("\n").key("metrics").arr();
    for metric in &doc.metrics {
        w.str(metric);
    }
    w.end().pad("\n").key("vcpus").arr();
    for vcpu in &doc.vcpus {
        w.pad("\n").obj().field("tid", vcpu.tid);
        w.key("overflow").obj().field("drops", vcpu.overflow.drops);
        render_counts(&mut w, &vcpu.overflow.counts).end();
        render_rows(w.key("entries"), &vcpu.rows).end();
    }
    w.end().pad("\n").key("merged");
    render_rows(&mut w, &doc.merged).end().finish() + "\n"
}

fn render_counts<'w>(w: &'w mut JsonWriter, counts: &[u64]) -> &'w mut JsonWriter {
    w.key("counts").arr();
    for count in counts {
        w.raw(count);
    }
    w.end()
}

/// An array of rows, one per line.
fn render_rows<'w>(w: &'w mut JsonWriter, rows: &[ProfRow]) -> &'w mut JsonWriter {
    w.arr();
    for row in rows {
        let pc = format!("{:#010x}", row.pc);
        w.pad("\n").obj().key("pc").str(&pc);
        w.key("symbol").str(&row.symbol).field("insn", row.insn);
        render_counts(w, &row.counts).end();
    }
    w.end()
}

fn parse_counts(obj: &Json, width: usize) -> Result<Vec<u64>, String> {
    let counts = obj.arr_field("counts")?.iter().map(Json::as_u64);
    let counts: Vec<u64> = counts.collect::<Option<_>>().ok_or("non-numeric count")?;
    match counts.len() {
        cells if cells == width => Ok(counts),
        cells => Err(format!(
            "counts has {cells} cells, want {width} (one per metric)"
        )),
    }
}

fn parse_row(row: &Json, width: usize) -> Result<ProfRow, String> {
    Ok(ProfRow {
        pc: row.u32_field("pc")?,
        symbol: row.str_field("symbol")?.to_string(),
        insn: row.u32_field("insn")?,
        counts: parse_counts(row, width)?,
    })
}

/// Parses every item of an array; an error names the item as `{what}
/// {index}`.
fn parse_each<T>(
    items: &[Json],
    what: &str,
    parse: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let at = |i| move |e| format!("{what} {i}: {e}");
    let items = items.iter().enumerate();
    items.map(|(i, item)| parse(item).map_err(at(i))).collect()
}

fn parse_vcpu(vcpu: &Json, width: usize) -> Result<ProfVcpu, String> {
    let overflow = vcpu.field("overflow")?;
    Ok(ProfVcpu {
        tid: vcpu.u32_field("tid")?,
        rows: parse_each(vcpu.arr_field("entries")?, "entry", |r| parse_row(r, width))?,
        overflow: Overflow {
            drops: overflow.u64_field("drops")?,
            counts: parse_counts(overflow, width)?,
        },
    })
}

/// Parses a `.prof` document: the schema tag, the `metrics` vector (at
/// least one name, each distinct), and sections whose `counts` arrays
/// have one cell per metric.
pub fn parse(text: &str) -> Result<ProfDoc, String> {
    let doc = parse_json(text)?;
    match doc.str_field("schema")? {
        SCHEMA => {}
        other => return Err(format!("unknown schema `{other}` (want {SCHEMA})")),
    }
    let names = doc
        .arr_field("metrics")?
        .iter()
        .map(|m| m.as_str().map(String::from));
    let metrics: Vec<String> = names
        .collect::<Option<_>>()
        .ok_or("non-string metric name")?;
    if metrics.is_empty() {
        return Err("no metrics".to_string());
    }
    if let Some(i) = (1..metrics.len()).find(|&i| metrics[..i].contains(&metrics[i])) {
        return Err(format!("metric `{}` named twice", metrics[i]));
    }
    let width = metrics.len();
    let vcpu = |v: &Json| parse_vcpu(v, width);
    let row = |r: &Json| parse_row(r, width);
    Ok(ProfDoc {
        scheme: doc.str_field("scheme")?.to_string(),
        clock: doc.str_field("clock")?.to_string(),
        vcpus: parse_each(doc.arr_field("vcpus")?, "vcpu section", vcpu)?,
        merged: parse_each(doc.arr_field("merged")?, "merged entry", row)?,
        metrics,
    })
}

/// The full schema gate (`adbt_prof --ci`): parse, then check that the
/// merged section is exactly the per-vCPU sum per `(pc, metric)`
/// — the same merged-equals-Σ discipline the stats plane keeps.
pub fn validate(text: &str) -> Result<ProfDoc, String> {
    let doc = parse(text)?;
    let mut summed: Vec<(u32, Vec<u64>)> = Vec::new();
    for vcpu in &doc.vcpus {
        for row in &vcpu.rows {
            match summed.iter_mut().find(|(pc, _)| *pc == row.pc) {
                Some((_, counts)) => {
                    for (dst, src) in counts.iter_mut().zip(&row.counts) {
                        *dst += src;
                    }
                }
                None => summed.push((row.pc, row.counts.clone())),
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
        let Some((_, counts)) = summed.iter().find(|(pc, _)| *pc == row.pc) else {
            return Err(format!(
                "merged row {:#010x} absent from per-vCPU sections",
                row.pc
            ));
        };
        if *counts != row.counts {
            return Err(format!("merged row {:#010x} ≠ per-vCPU sum", row.pc));
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: [&str; 3] = ["sc_failures", "monitor_clears", "exclusive_ns"];

    fn row(pc: u32, fails: u64) -> ProfRow {
        ProfRow {
            pc,
            symbol: format!("f+{:#x}", pc & 0xfff),
            insn: 0xE152_3F9C,
            counts: vec![fails, 0, 0],
        }
    }

    fn doc() -> ProfDoc {
        let overflow = Overflow {
            counts: vec![0; METRICS.len()],
            drops: 0,
        };
        ProfDoc {
            scheme: "hst".to_string(),
            clock: "ns".to_string(),
            metrics: METRICS.map(str::to_string).to_vec(),
            vcpus: vec![
                ProfVcpu {
                    tid: 1,
                    rows: vec![row(0x1_0000, 2)],
                    overflow: overflow.clone(),
                },
                ProfVcpu {
                    tid: 2,
                    rows: vec![row(0x1_0000, 3), row(0x1_0010, 1)],
                    overflow,
                },
            ],
            merged: vec![row(0x1_0000, 5), row(0x1_0010, 1)],
        }
    }

    /// The document, pinned byte for byte, overflow bucket included.
    #[test]
    fn render_is_pinned() {
        let mut pinned = doc();
        pinned.vcpus[1].overflow.drops = 2;
        pinned.vcpus[1].overflow.counts[0] = 3;
        let golden = include_str!("../tests/data/profile.prof");
        assert_eq!(render(&pinned), golden);
    }

    #[test]
    fn render_parse_round_trips() {
        let original = doc();
        let text = render(&original);
        let parsed = validate(&text).expect("own output validates");
        assert_eq!(parsed, original);
        assert_eq!(parsed.metric("monitor_clears"), Some(1));
        assert_eq!(parsed.metric("sc_fail"), None);
    }

    #[test]
    fn validate_rejects_cooked_merges() {
        let mut cooked = doc();
        cooked.merged[0].counts[0] += 1;
        let why = validate(&render(&cooked)).unwrap_err();
        assert!(why.contains("≠ per-vCPU sum"), "{why}");

        let mut cooked = doc();
        cooked.merged.pop();
        let why = validate(&render(&cooked)).unwrap_err();
        assert!(why.contains("rows"), "{why}");
    }

    #[test]
    fn parse_rejects_schema_and_metric_drift() {
        let text = render(&doc()).replace(SCHEMA, "adbt-prof-v1");
        assert!(parse(&text).unwrap_err().contains("schema"));

        let mut short = doc();
        short.merged[1].counts.pop();
        let why = parse(&render(&short)).unwrap_err();
        assert!(
            why.contains("merged entry 1: counts has 2 cells, want 3"),
            "{why}"
        );

        let text = render(&doc()).replace("\"exclusive_ns\"", "\"sc_failures\"");
        assert!(parse(&text).unwrap_err().contains("named twice"));
        let none = ProfDoc {
            metrics: Vec::new(),
            ..doc()
        };
        assert_eq!(parse(&render(&none)).unwrap_err(), "no metrics");
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
