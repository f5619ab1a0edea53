//! The `.prof` document: JSON written by `adbt_run --profile`, read by
//! `adbt_prof`.
//!
//! Written and parsed through `adbt_trace::json`, the workspace's one
//! JSON writer and parser. [`validate`] is the schema gate `adbt_prof --ci`
//! runs on its own input: schema tag, metric-name vector matching this
//! build's [`Metric::ALL`], well-formed entries, and a merged section
//! that is exactly the per-vCPU sum.
//!
//! Entries carry the raw instruction word at the charged PC (read from
//! guest memory *after* the run, so SMC patches show their final form)
//! and the nearest preceding symbol — `adbt_prof` decodes the word with
//! `adbt-isa` for disassembly context and uses the symbol as the
//! flamegraph's `guest_fn` frame.

use crate::{Metric, Overflow, ProfileEntry};
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
            symbol: symbol(e.pc),
            insn: insn(e.pc),
            counts: e.counts,
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
    for metric in Metric::ALL {
        w.str(metric.name());
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

fn parse_counts(obj: &Json) -> Result<[u64; Metric::COUNT], String> {
    let counts = obj.arr_field("counts")?.iter().map(Json::as_u64);
    let counts: Vec<u64> = counts.collect::<Option<_>>().ok_or("non-numeric count")?;
    let cells = counts.len();
    counts
        .try_into()
        .map_err(|_| format!("counts has {cells} cells, want {}", Metric::COUNT))
}

fn parse_row(row: &Json) -> Result<ProfRow, String> {
    Ok(ProfRow {
        pc: row.u32_field("pc")?,
        symbol: row.str_field("symbol")?.to_string(),
        insn: row.u32_field("insn")?,
        counts: parse_counts(row)?,
    })
}

/// Parses every item of an array; an error names the item as `{what}
/// {index}`.
fn parse_each<T>(
    items: &[Json],
    what: &str,
    parse: fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let at = |i| move |e| format!("{what} {i}: {e}");
    let items = items.iter().enumerate();
    items.map(|(i, item)| parse(item).map_err(at(i))).collect()
}

fn parse_vcpu(vcpu: &Json) -> Result<ProfVcpu, String> {
    let overflow = vcpu.field("overflow")?;
    Ok(ProfVcpu {
        tid: vcpu.u32_field("tid")?,
        rows: parse_each(vcpu.arr_field("entries")?, "entry", parse_row)?,
        overflow: Overflow {
            drops: overflow.u64_field("drops")?,
            counts: parse_counts(overflow)?,
        },
    })
}

/// Parses a `.prof` document, checking the schema tag and the metric
/// vector against this build.
pub fn parse(text: &str) -> Result<ProfDoc, String> {
    let doc = parse_json(text)?;
    match doc.str_field("schema")? {
        SCHEMA => {}
        other => return Err(format!("unknown schema `{other}` (want {SCHEMA})")),
    }
    let expected: Vec<&str> = Metric::ALL.into_iter().map(Metric::name).collect();
    let metrics = doc.arr_field("metrics")?;
    let got: Vec<&str> = metrics.iter().filter_map(Json::as_str).collect();
    if got != expected {
        return Err(format!(
            "metric vector mismatch: document has {got:?}, this build wants {expected:?}"
        ));
    }
    Ok(ProfDoc {
        scheme: doc.str_field("scheme")?.to_string(),
        clock: doc.str_field("clock")?.to_string(),
        vcpus: parse_each(doc.arr_field("vcpus")?, "vcpu section", parse_vcpu)?,
        merged: parse_each(doc.arr_field("merged")?, "merged entry", parse_row)?,
    })
}

/// The full schema gate (`adbt_prof --ci`): parse, then check that the
/// merged section is exactly the per-vCPU sum per `(pc, metric)`
/// — the same merged-equals-Σ discipline the stats plane keeps.
pub fn validate(text: &str) -> Result<ProfDoc, String> {
    let doc = parse(text)?;
    let mut summed: Vec<(u32, [u64; Metric::COUNT])> = Vec::new();
    for vcpu in &doc.vcpus {
        for row in &vcpu.rows {
            match summed.iter_mut().find(|(pc, _)| *pc == row.pc) {
                Some((_, counts)) => {
                    for (dst, src) in counts.iter_mut().zip(row.counts) {
                        *dst += src;
                    }
                }
                None => summed.push((row.pc, row.counts)),
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

    fn row(pc: u32, fails: u64) -> ProfRow {
        let mut counts = [0u64; Metric::COUNT];
        counts[Metric::ScFail as usize] = fails;
        ProfRow {
            pc,
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

    /// The document, pinned byte for byte, overflow bucket included.
    #[test]
    fn render_is_pinned() {
        let mut pinned = doc();
        pinned.vcpus[1].overflow.drops = 2;
        pinned.vcpus[1].overflow.counts[Metric::ScFail as usize] = 3;
        let golden = include_str!("../tests/data/profile.prof");
        assert_eq!(render(&pinned), golden);
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
