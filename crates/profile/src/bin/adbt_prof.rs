//! `adbt_prof` — renders `.prof` documents written by `adbt_run
//! --profile` as top-N tables per metric with disassembly context, and
//! exports collapsed-stack flamegraph input.
//!
//! ```text
//! adbt_prof out.prof                       # top-10 table per hot metric
//! adbt_prof out.prof --metric NAME --top 25
//! adbt_prof out.prof --flamegraph out.folded [--cost NAME]
//! adbt_prof out.prof --ci                  # schema gate, no output
//! adbt_prof --check-folded out.folded      # validate a folded file
//! adbt_prof --check-metrics out.jsonl      # validate a metrics stream
//! ```
//!
//! A metric is a column of the document: `--metric` and `--cost` take
//! names from its `metrics` vector (the counter rows the run charged to
//! guest PCs), and an unknown name exits 2 with the document's names.
//! `--cost` defaults to the first one.
//!
//! `--ci` and the `--check-*` modes exit non-zero on the first schema
//! violation; ci.sh runs them on the toolchain's own output so the
//! emitters and validators can never drift apart silently.

use adbt_profile::export::{self, ProfDoc, ProfRow};
use adbt_profile::fold::{parse_folded, render_folded};
use adbt_profile::metrics::validate_metrics_jsonl;

fn usage() -> ! {
    eprintln!(
        "usage: adbt_prof FILE [--top N] [--metric NAME] [--flamegraph OUT [--cost NAME]] [--ci]\n\
         \u{20}      adbt_prof --check-folded FILE | --check-metrics FILE\n\
         NAME is one of the document's `metrics`"
    );
    std::process::exit(2);
}

/// Resolves a `--metric`/`--cost` name against the document's own
/// `metrics` vector; the error lists the names it has.
fn resolve(doc: &ProfDoc, flag: &str, name: &str) -> Result<usize, String> {
    doc.metric(name).ok_or_else(|| {
        let names = doc.metrics.join(" ");
        format!("{flag} `{name}` is not a metric of this document; it has: {names}")
    })
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("adbt_prof: cannot read {path}: {e}");
        std::process::exit(1);
    })
}

fn fail(what: &str, why: &str) -> ! {
    eprintln!("adbt_prof: {what}: {why}");
    std::process::exit(1);
}

/// Disassembly context for a row: decode the exported instruction word;
/// undecodable words (data, partially-patched SMC targets) render as
/// raw hex rather than aborting the report.
fn context(row: &ProfRow) -> String {
    match adbt_isa::decode(row.insn) {
        Ok(insn) => adbt_isa::disasm::disassemble_at(&insn, row.pc),
        Err(_) => format!(".word {:#010x}", row.insn),
    }
}

fn top_rows(rows: &[ProfRow], metric: usize, n: usize) -> Vec<ProfRow> {
    let value = |r: &ProfRow| r.counts[metric];
    let mut hot: Vec<ProfRow> = rows.iter().filter(|r| value(r) > 0).cloned().collect();
    hot.sort_by(|a, b| value(b).cmp(&value(a)).then(a.pc.cmp(&b.pc)));
    hot.truncate(n);
    hot
}

fn print_table(doc: &ProfDoc, metric: usize, n: usize) {
    let hot = top_rows(&doc.merged, metric, n);
    if hot.is_empty() {
        return;
    }
    println!("== top {} by {} ==", hot.len(), doc.metrics[metric]);
    println!(
        "{:>14}  {:>10}  {:<20} disassembly",
        "value", "pc", "symbol"
    );
    for row in &hot {
        println!(
            "{:>14}  {:#010x}  {:<20} {}",
            row.counts[metric],
            row.pc,
            row.symbol,
            context(row)
        );
    }
    let dropped: u64 = doc.vcpus.iter().map(|v| v.overflow.drops).sum();
    let spilled: u64 = doc.vcpus.iter().map(|v| v.overflow.counts[metric]).sum();
    if spilled > 0 {
        println!(
            "{:>14}  (overflow bucket: {} events across {} dropped charges lost PC attribution)",
            spilled, spilled, dropped
        );
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file: Option<String> = None;
    let mut top = 10usize;
    let mut metric: Option<String> = None;
    let mut flamegraph: Option<String> = None;
    let mut cost: Option<String> = None;
    let mut ci = false;
    let mut check_folded: Option<String> = None;
    let mut check_metrics: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--top" => top = value().parse().unwrap_or_else(|_| usage()),
            "--metric" => metric = Some(value()),
            "--flamegraph" => flamegraph = Some(value()),
            "--cost" => cost = Some(value()),
            "--ci" => ci = true,
            "--check-folded" => check_folded = Some(value()),
            "--check-metrics" => check_metrics = Some(value()),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            _ => usage(),
        }
    }

    if let Some(path) = check_folded {
        match parse_folded(&read(&path)) {
            Ok(lines) => println!("adbt_prof: {path}: {} folded lines ok", lines.len()),
            Err(why) => fail(&path, &why),
        }
        return;
    }
    if let Some(path) = check_metrics {
        match validate_metrics_jsonl(&read(&path)) {
            Ok(n) => println!("adbt_prof: {path}: {n} metrics lines ok"),
            Err(why) => fail(&path, &why),
        }
        return;
    }

    let Some(path) = file else { usage() };
    let doc = match export::validate(&read(&path)) {
        Ok(doc) => doc,
        Err(why) => fail(&path, &why),
    };
    let column = |flag: &str, name: &Option<String>| -> Option<usize> {
        let name = name.as_ref()?;
        Some(resolve(&doc, flag, name).unwrap_or_else(|why| {
            eprintln!("adbt_prof: {why}");
            std::process::exit(2)
        }))
    };
    let metric = column("--metric", &metric);
    let cost = column("--cost", &cost).unwrap_or(0);
    if ci {
        println!(
            "adbt_prof: {path}: schema ok ({} vcpus, {} merged rows)",
            doc.vcpus.len(),
            doc.merged.len()
        );
        return;
    }

    if let Some(out) = flamegraph {
        let folded = render_folded(&doc.scheme, &doc.merged, cost);
        if let Err(why) = parse_folded(&folded) {
            fail("internal: rendered folded output is invalid", &why);
        }
        if let Err(e) = std::fs::write(&out, &folded) {
            fail(&out, &e.to_string());
        }
        println!(
            "adbt_prof: wrote {} folded lines (cost {}) to {out}",
            folded.lines().count(),
            doc.metrics[cost]
        );
        return;
    }

    println!(
        "profile: scheme={} clock={} vcpus={} rows={}",
        doc.scheme,
        doc.clock,
        doc.vcpus.len(),
        doc.merged.len()
    );
    println!();
    match metric {
        Some(m) => print_table(&doc, m, top),
        None => {
            for m in 0..doc.metrics.len() {
                print_table(&doc, m, top);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pc: u32, fails: u64) -> ProfRow {
        ProfRow {
            pc,
            symbol: "loop+0x4".to_string(),
            insn: adbt_isa::encode(&adbt_isa::Insn::Svc { imm: 0 }),
            counts: vec![fails],
        }
    }

    #[test]
    fn top_rows_ranks_and_truncates() {
        let rows = vec![row(0x10, 1), row(0x20, 9), row(0x30, 0), row(0x40, 9)];
        let top = top_rows(&rows, 0, 2);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].pc, top[1].pc), (0x20, 0x40), "ties break by pc");
    }

    /// Byte-stability regression for `--ci` runs: the top-N order is a
    /// pure function of the row *values* — (metric desc, then pc asc) —
    /// never of the input order, so two permutations of the same rows
    /// render identical tables across rebuilds.
    #[test]
    fn top_rows_order_is_independent_of_input_order() {
        // Adversarial ties: equal metric values across different PCs.
        let rows = vec![row(0x40, 9), row(0x10, 9), row(0x20, 3), row(0x30, 9)];
        let render = |rows: &[ProfRow]| {
            top_rows(rows, 0, 10)
                .iter()
                .map(|r| format!("{} {:#x}\n", r.counts[0], r.pc))
                .collect::<String>()
        };
        let forward = render(&rows);
        let mut reversed = rows.clone();
        reversed.reverse();
        assert_eq!(forward, render(&reversed), "order must not leak through");
        let got: Vec<u32> = top_rows(&rows, 0, 10).iter().map(|r| r.pc).collect();
        assert_eq!(got, [0x10, 0x30, 0x40, 0x20]);
    }

    #[test]
    fn context_disassembles_or_falls_back() {
        assert_eq!(context(&row(0x10, 1)), "svc #0");
        let garbage = ProfRow {
            insn: 0xFFFF_FFFF,
            ..row(0x10, 1)
        };
        assert!(context(&garbage).starts_with(".word"));
    }

    #[test]
    fn metric_names_resolve_against_the_document() {
        let doc = ProfDoc {
            scheme: "hst".to_string(),
            clock: "insns".to_string(),
            metrics: ["sc_failures", "exclusive_ns"].map(String::from).to_vec(),
            vcpus: Vec::new(),
            merged: Vec::new(),
        };
        assert_eq!(resolve(&doc, "--cost", "exclusive_ns"), Ok(1));
        let why = resolve(&doc, "--metric", "sc_fail").unwrap_err();
        assert!(why.ends_with("it has: sc_failures exclusive_ns"), "{why}");
    }
}
