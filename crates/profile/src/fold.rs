//! Collapsed-stack ("folded") flamegraph export.
//!
//! One line per profile row, `frame;frame;frame cost` — the format
//! Brendan Gregg's `flamegraph.pl` and every compatible renderer eat.
//! Our synthetic stack is `scheme;guest_fn;0xPC`, so the graph groups
//! cost by scheme, then guest function, with the exact instruction as
//! the leaf. Air-gapped: no renderer ships in
//! tree, but [`parse_folded`] is the in-tree validator CI runs on the
//! exporter's own output.

use crate::export::ProfRow;
use crate::Metric;

/// One parsed folded line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoldedLine {
    /// The root-to-leaf frame names.
    pub frames: Vec<String>,
    /// The sample cost.
    pub cost: u64,
}

/// Renders merged profile rows as folded stacks, charging `metric` as
/// the cost. Zero-cost rows are skipped (a folded line with cost 0 is
/// legal but renders as nothing and bloats the file).
pub fn render_folded(scheme: &str, rows: &[ProfRow], metric: Metric) -> String {
    let mut out = String::new();
    for row in rows {
        let cost = row.get(metric);
        if cost == 0 {
            continue;
        }
        out.push_str(&format!(
            "{};{};{:#010x} {}\n",
            sanitize(scheme),
            sanitize(row.guest_fn()),
            row.pc,
            cost
        ));
    }
    out
}

/// Frame names may not contain the structural characters of the
/// format (`;` separates frames, space separates stack from cost).
fn sanitize(frame: &str) -> String {
    frame
        .chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// The in-tree validator: parses folded lines, rejecting empty frames,
/// missing costs, and non-numeric costs. Blank lines are ignored.
pub fn parse_folded(text: &str) -> Result<Vec<FoldedLine>, String> {
    let mut lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let n = i + 1;
        let Some((stack, cost)) = line.rsplit_once(' ') else {
            return Err(format!("line {n}: no cost field"));
        };
        let cost: u64 = cost
            .parse()
            .map_err(|_| format!("line {n}: non-numeric cost `{cost}`"))?;
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.is_empty() || frames.iter().any(String::is_empty) {
            return Err(format!("line {n}: empty frame in `{stack}`"));
        }
        lines.push(FoldedLine { frames, cost });
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pc: u32, symbol: &str, fails: u64, waits: u64) -> ProfRow {
        let mut counts = [0u64; Metric::COUNT];
        counts[Metric::ScFail as usize] = fails;
        counts[Metric::ExclWaitNs as usize] = waits;
        ProfRow {
            pc,
            symbol: symbol.to_string(),
            insn: 0,
            counts,
        }
    }

    #[test]
    fn rendered_output_validates_and_skips_zero_cost() {
        let rows = vec![
            row(0x1_0000, "victim+0x0", 7, 0),
            row(0x1_0010, "attacker+0x4", 0, 900),
        ];
        let folded = render_folded("pst", &rows, Metric::ScFail);
        let lines = parse_folded(&folded).expect("own output validates");
        assert_eq!(lines.len(), 1, "zero-cost row must be dropped");
        assert_eq!(lines[0].frames, vec!["pst", "victim", "0x00010000"]);
        assert_eq!(lines[0].cost, 7);

        let by_wait = render_folded("pst", &rows, Metric::ExclWaitNs);
        let lines = parse_folded(&by_wait).unwrap();
        assert_eq!(lines[0].frames[1], "attacker");
        assert_eq!(lines[0].cost, 900);
    }

    #[test]
    fn sanitize_defangs_structural_characters() {
        let rows = vec![row(0x20, "a;b c+0x0", 1, 0)];
        let folded = render_folded("h s;t", &rows, Metric::ScFail);
        let lines = parse_folded(&folded).unwrap();
        assert_eq!(lines[0].frames[0], "h_s_t");
        assert_eq!(lines[0].frames[1], "a_b_c");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_folded("a;b").unwrap_err().contains("no cost"));
        assert!(parse_folded("a;b x").unwrap_err().contains("non-numeric"));
        assert!(parse_folded("a;;b 3").unwrap_err().contains("empty frame"));
        assert!(parse_folded("\n\n").unwrap().is_empty());
    }
}
