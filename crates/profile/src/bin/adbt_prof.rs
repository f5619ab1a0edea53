//! `adbt_prof` — renders `.prof` documents written by `adbt_run
//! --profile` as top-N tables per metric with disassembly context, and
//! exports collapsed-stack flamegraph input.
//!
//! ```text
//! adbt_prof out.prof                       # top-10 table per hot metric
//! adbt_prof out.prof --metric sc_fail --top 25
//! adbt_prof out.prof --flamegraph out.folded [--cost excl_wait_ns]
//! adbt_prof out.prof --ci                  # schema gate, no output
//! adbt_prof --check-folded out.folded      # validate a folded file
//! adbt_prof --check-metrics out.jsonl      # validate a metrics stream
//! ```
//!
//! `--ci` and the `--check-*` modes exit non-zero on the first schema
//! violation; ci.sh runs them on the toolchain's own output so the
//! emitters and validators can never drift apart silently.

use adbt_profile::export::{self, ProfDoc, ProfRow};
use adbt_profile::fold::{parse_folded, render_folded};
use adbt_profile::metrics::validate_metrics_jsonl;
use adbt_profile::Metric;

fn usage() -> ! {
    eprintln!(
        "usage: adbt_prof FILE [--top N] [--metric NAME] [--flamegraph OUT [--cost NAME]] [--ci]\n\
         \u{20}      adbt_prof --check-folded FILE | --check-metrics FILE\n\
         metrics: {}",
        Metric::ALL.map(Metric::name).join(" ")
    );
    std::process::exit(2);
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

fn top_rows(rows: &[ProfRow], metric: Metric, n: usize) -> Vec<ProfRow> {
    let mut hot: Vec<ProfRow> = rows.iter().filter(|r| r.get(metric) > 0).cloned().collect();
    hot.sort_by(|a, b| b.get(metric).cmp(&a.get(metric)).then(a.pc.cmp(&b.pc)));
    hot.truncate(n);
    hot
}

fn print_table(doc: &ProfDoc, metric: Metric, n: usize) {
    let hot = top_rows(&doc.merged, metric, n);
    if hot.is_empty() {
        return;
    }
    let unit = if metric.is_duration() {
        format!(" ({})", doc.clock)
    } else {
        String::new()
    };
    println!("== top {} by {}{unit} ==", hot.len(), metric.name());
    println!(
        "{:>14}  {:>10}  {:<20} disassembly",
        "value", "pc", "symbol"
    );
    for row in &hot {
        println!(
            "{:>14}  {:#010x}  {:<20} {}",
            row.get(metric),
            row.pc,
            row.symbol,
            context(row)
        );
    }
    let dropped: u64 = doc.vcpus.iter().map(|v| v.overflow.drops).sum();
    let spilled: u64 = doc
        .vcpus
        .iter()
        .map(|v| v.overflow.counts[metric as usize])
        .sum();
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
    let mut metric: Option<Metric> = None;
    let mut flamegraph: Option<String> = None;
    let mut cost: Option<Metric> = None;
    let mut ci = false;
    let mut check_folded: Option<String> = None;
    let mut check_metrics: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--top" => top = value().parse().unwrap_or_else(|_| usage()),
            "--metric" => metric = Some(Metric::from_name(&value()).unwrap_or_else(|| usage())),
            "--flamegraph" => flamegraph = Some(value()),
            "--cost" => cost = Some(Metric::from_name(&value()).unwrap_or_else(|| usage())),
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
    if ci {
        println!(
            "adbt_prof: {path}: schema ok ({} vcpus, {} merged rows)",
            doc.vcpus.len(),
            doc.merged.len()
        );
        return;
    }

    if let Some(out) = flamegraph {
        let cost = cost.unwrap_or(Metric::ScFail);
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
            cost.name()
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
            for m in Metric::ALL {
                print_table(&doc, m, top);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pc: u32, fails: u64) -> ProfRow {
        let mut counts = [0u64; Metric::COUNT];
        counts[Metric::ScFail as usize] = fails;
        ProfRow {
            pc,
            symbol: "loop+0x4".to_string(),
            insn: adbt_isa::encode(&adbt_isa::Insn::Svc { imm: 0 }),
            counts,
        }
    }

    #[test]
    fn top_rows_ranks_and_truncates() {
        let rows = vec![row(0x10, 1), row(0x20, 9), row(0x30, 0), row(0x40, 9)];
        let top = top_rows(&rows, Metric::ScFail, 2);
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
            top_rows(rows, Metric::ScFail, 10)
                .iter()
                .map(|r| format!("{} {:#x}\n", r.get(Metric::ScFail), r.pc))
                .collect::<String>()
        };
        let forward = render(&rows);
        let mut reversed = rows.clone();
        reversed.reverse();
        assert_eq!(forward, render(&reversed), "order must not leak through");
        let got: Vec<u32> = top_rows(&rows, Metric::ScFail, 10)
            .iter()
            .map(|r| r.pc)
            .collect();
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
}
