//! # adbt-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see
//! `DESIGN.md` §5 for the experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `aba_correctness` | §IV-A ABA rates (E1) |
//! | `table2_matrix` | Table II + litmus verdicts (E2, E7) |
//! | `fig10_scalability` | Fig. 10 scalability curves (E3) |
//! | `fig11_htm` | Fig. 11 HTM-scheme comparison (E4) |
//! | `fig12_breakdown` | Fig. 12 overhead breakdown (E5, E9) |
//! | `table1_profile` | Table I instruction profile (E6) |
//! | `speedup_summary` | §IV-B headline speedups (E8) |
//!
//! Every binary prints a human-readable table to stdout and, with
//! `--csv PATH`, machine-readable CSV. Use `--scale` to trade runtime
//! for noise and `--max-threads` to cap the thread ladder. Arguments are
//! strict ([`Args`]): anything a binary does not declare exits 2.

use adbt::trace::validate::json_string;
use std::collections::HashMap;
use std::io::Write as _;
use std::time::Duration;

/// The value keys every harness accepts: [`Table::emit`]'s outputs.
const OUTPUT_KEYS: [&str; 2] = ["csv", "json"];

/// Strict `--key VALUE` / `--flag` argument parsing shared by the
/// harness binaries. Each binary declares the keys it accepts; anything
/// else — an unknown key, a key missing its value, a positional
/// argument, or (on read) a value that does not parse — exits 2 with
/// usage, so a typo can never silently fall back to a default.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    usage: String,
}

impl Args {
    /// Parses `std::env::args()` against the declared value keys (each
    /// takes one argument) and flags (none); `--csv` and `--json` are
    /// always accepted. `--help` prints usage and exits 0.
    pub fn parse(values: &[&str], flags: &[&str]) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let bin = bin.rsplit('/').next().unwrap_or_default().to_string();
        let argv: Vec<String> = argv.collect();
        if argv.iter().any(|arg| arg == "--help") {
            println!("{}", usage(&bin, values, flags));
            std::process::exit(0);
        }
        Args::parse_from(&bin, argv, values, flags).unwrap_or_else(|why| {
            eprintln!("{bin}: {why}\n{}", usage(&bin, values, flags));
            std::process::exit(2)
        })
    }

    /// [`Args::parse`] over an explicit argument list (without the
    /// program name), reporting the first bad argument as an error.
    pub fn parse_from(
        bin: &str,
        argv: impl IntoIterator<Item = String>,
        values: &[&str],
        flags: &[&str],
    ) -> Result<Args, String> {
        let mut args = Args {
            usage: usage(bin, values, flags),
            ..Args::default()
        };
        let mut iter = argv.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if flags.contains(&key) {
                args.flags.push(key.to_string());
            } else if values.contains(&key) || OUTPUT_KEYS.contains(&key) {
                match iter.next_if(|next| !next.starts_with("--")) {
                    Some(value) => {
                        args.values.insert(key.to_string(), value);
                    }
                    None => return Err(format!("`--{key}` needs a value")),
                }
            } else {
                return Err(format!("unknown option `--{key}`"));
            }
        }
        Ok(args)
    }

    /// A typed value, `Ok(None)` when absent and an error when present
    /// but unparseable.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.values.get(key) {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value `{text}` for `--{key}`")),
        }
    }

    /// A typed value with a default; an unparseable value exits 2 with
    /// usage.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.try_get(key) {
            Ok(value) => value.unwrap_or(default),
            Err(why) => self.fail(&why),
        }
    }

    /// A string value.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Reports a bad argument with usage and exits 2.
    pub fn fail(&self, why: &str) -> ! {
        eprintln!("{why}\n{}", self.usage);
        std::process::exit(2)
    }
}

/// `usage: BIN [--key VALUE]... [--flag]...` for the declared keys.
fn usage(bin: &str, values: &[&str], flags: &[&str]) -> String {
    let mut out = format!("usage: {bin}");
    for key in values.iter().chain(&OUTPUT_KEYS) {
        out.push_str(&format!(" [--{key} VALUE]"));
    }
    for flag in flags {
        out.push_str(&format!(" [--{flag}]"));
    }
    out
}

/// The thread ladder the paper sweeps (Fig. 10 goes to 64); capped by
/// `max`.
pub fn thread_ladder(max: u32) -> Vec<u32> {
    [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&n| n <= max)
        .collect()
}

/// The default thread cap: the host's available parallelism (the paper
/// oversubscribes beyond physical cores too, so callers may raise it).
pub fn default_max_threads() -> u32 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(8)
        .clamp(4, 64)
}

/// A rectangular result table that renders both human-readable and CSV.
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (cell, width) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>width$}  "));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders a JSON array of row objects keyed by column name (numbers
    /// stay numbers where they parse). Hand-rolled — the workspace builds
    /// air-gapped, with no JSON crate available.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            for (j, (key, cell)) in self.header.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(key));
                out.push_str(": ");
                out.push_str(&json_cell(cell));
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }

    /// Prints the table and optionally writes CSV (`--csv PATH`) and/or
    /// JSON (`--json PATH`).
    pub fn emit(&self, args: &Args) {
        println!("{}", self.render());
        if let Some(path) = args.get_str("csv") {
            let mut file =
                std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            file.write_all(self.to_csv().as_bytes())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        if let Some(path) = args.get_str("json") {
            std::fs::write(path, self.to_json())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }

    /// [`emit`](Table::emit) followed by an explanatory footnote on
    /// stdout (the note goes to the human, not into the CSV/JSON).
    pub fn emit_with_note(&self, args: &Args, note: &str) {
        self.emit(args);
        println!("{note}");
    }
}

/// `100 * num / den`, or 0 when `den` is 0 — a raw division would put
/// `NaN`/`inf` into table cells and break downstream CSV consumers.
pub fn pct(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        100.0 * num / den
    }
}

/// A counter ratio as the standard one-decimal percentage cell.
pub fn pct_cell(num: u64, den: u64) -> String {
    format!("{:.1}", pct(num as f64, den as f64))
}

/// A cell as a JSON value: integer, then finite float, then string.
fn json_cell(cell: &str) -> String {
    if let Ok(i) = cell.parse::<i64>() {
        return i.to_string();
    }
    if let Ok(f) = cell.parse::<f64>() {
        if f.is_finite() {
            return format!("{f}");
        }
    }
    json_string(cell)
}

/// Runs `f` `reps` times and returns the minimum duration (the paper
/// averages three runs; minimum-of-N is the standard noise-floor
/// estimator for interpreted workloads).
pub fn time_best<T>(reps: u32, mut f: impl FnMut() -> (Duration, T)) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..reps.max(1) {
        let (elapsed, value) = f();
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, value));
        }
    }
    best.expect("reps >= 1")
}

/// Formats a float with sensible precision for tables.
pub fn fmt_f64(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}")
    } else if value >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.3}")
    }
}

/// Geometric mean of a non-empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse_from(
            "bench",
            argv.iter().map(|s| s.to_string()),
            &["scale", "guard"],
            &["traced"],
        )
    }

    #[test]
    fn args_accept_declared_keys_flags_and_outputs() {
        let args = parse(&["--scale", "0.5", "--traced", "--csv", "out.csv"]).unwrap();
        assert_eq!(args.get("scale", 1.0), 0.5);
        assert_eq!(args.get("guard", 7.0), 7.0, "absent key keeps its default");
        assert!(args.flag("traced"));
        assert_eq!(args.get_str("csv"), Some("out.csv"));
        assert!(args.usage.contains("[--guard VALUE]") && args.usage.contains("[--traced]"));
    }

    #[test]
    fn args_reject_unknown_keys_missing_values_and_positionals() {
        let unknown = parse(&["--gaurd", "2"]).unwrap_err();
        assert!(unknown.contains("--gaurd"), "{unknown}");
        assert!(parse(&["--scale"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--scale", "--traced"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["0.5"]).unwrap_err().contains("unexpected argument"));
        // A flag does not swallow the next argument.
        assert!(parse(&["--traced", "2"]).is_err());
    }

    #[test]
    fn args_report_unparseable_values() {
        let args = parse(&["--guard", "abc"]).unwrap();
        let why = args.try_get::<f64>("guard").unwrap_err();
        assert!(why.contains("abc") && why.contains("--guard"), "{why}");
        assert_eq!(args.try_get::<f64>("scale"), Ok(None));
    }

    #[test]
    fn ladder_caps() {
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(64).len(), 7);
    }

    #[test]
    fn table_renders_and_csvs() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("a"));
        assert!(text.contains("bb"));
        assert_eq!(t.to_csv(), "a,bb\n1,2\n");
    }

    #[test]
    fn table_to_json_types_cells() {
        let mut t = Table::new(&["name", "count", "ratio"]);
        t.row(vec!["hst".into(), "42".into(), "2.03".into()]);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"hst\""), "{json}");
        assert!(json.contains("\"count\": 42"), "{json}");
        assert!(json.contains("\"ratio\": 2.03"), "{json}");
    }

    #[test]
    fn json_escapes_and_types() {
        assert_eq!(json_cell("-7"), "-7");
        assert_eq!(json_cell("0.5"), "0.5");
        assert_eq!(json_cell("NaN"), "\"NaN\"");
        assert_eq!(json_cell("hst-htm"), "\"hst-htm\"");
    }

    #[test]
    fn pct_guards_zero_denominator() {
        assert_eq!(pct(1.0, 0.0), 0.0);
        assert!((pct(1.0, 4.0) - 25.0).abs() < 1e-12);
        assert_eq!(pct_cell(3, 8), "37.5");
        assert_eq!(pct_cell(3, 0), "0.0");
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_best_takes_minimum() {
        let mut calls = 0;
        let (d, v) = time_best(3, || {
            calls += 1;
            (Duration::from_millis(10 * calls), calls)
        });
        assert_eq!(d, Duration::from_millis(10));
        assert_eq!(v, 1);
    }
}
