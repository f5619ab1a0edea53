//! # adbt-bench — the experiment harness
//!
//! One binary, `adbt_bench <experiment> [--key VALUE]...`, regenerates
//! every table and figure of the paper's evaluation (see `DESIGN.md` §5
//! for the experiment index) and runs the harness's own wall-clock
//! measurements:
//!
//! | experiment | regenerates |
//! |---|---|
//! | `aba` | §IV-A ABA rates (E1) |
//! | `table2` | Table II + litmus verdicts (E2, E7) |
//! | `fig10` | Fig. 10 scalability curves (E3) |
//! | `fig11` | Fig. 11 HTM-scheme comparison (E4) |
//! | `fig12` | Fig. 12 overhead breakdown (E5) |
//! | `fig12_fs` | §IV-B2 PST false-sharing growth (E9) |
//! | `table1` | Table I instruction profile (E6) |
//! | `speedup` | §IV-B headline speedups (E8) |
//! | `ablation_fused` | §VI fused-atomics ablation (A1) |
//! | `dispatch` | block chaining off vs on |
//! | `trace_overhead` | flight-recorder overhead guard |
//! | `profile_overhead` | contention-profiler overhead guard |
//! | `micro` | substrate micro-benchmarks |
//!
//! The experiments print a human-readable table to stdout and, with
//! `--csv PATH` or `--json PATH`, write it machine-readably. Each
//! experiment declares the [`Key`]s it accepts and each key its
//! [`Domain`]; [`main`] checks every argument against them, and creates
//! the output files, before anything runs. Anything else exits 2 with
//! the usage line, so a typo or a degenerate value can never fall back
//! to a default, panic after minutes of measuring, or hang.

use adbt::harness::{run_parsec_full, ParsecRun};
use adbt::trace::json::JsonWriter;
use adbt::workloads::parsec::Program;
use adbt::{MachineConfig, SchemeKind, SimCosts, VcpuOutcome};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write as _;
use std::time::Duration;

/// The values a [`Key`] accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// A whole number >= 1 (`u32`).
    Count,
    /// A whole number >= 1 and <= the bound (`u32`).
    Upto(u32),
    /// A whole number >= 0 (`u32`).
    Natural,
    /// A finite number > 0.
    Scale,
    /// A finite percentage >= 0.
    Budget,
    /// Comma-separated kernel names.
    Programs,
    /// One kernel name.
    Program,
    /// A file the experiment writes, created before it runs.
    Output,
    /// A switch that takes no value.
    Flag,
}

impl Domain {
    /// `None` when `text` is a value of this domain, else what a value
    /// must be.
    fn reject(self, text: &str) -> Option<String> {
        // `None`, an unparseable value, orders below every number.
        let count = text.parse::<u32>().ok();
        let number = text.parse::<f64>().ok().filter(|x| x.is_finite());
        let programs = parse_programs(text).map(|list| list.len());
        let kernels = Program::ALL.map(|p| p.name()).join(", ");
        let (ok, want) = match self {
            Domain::Count => (count >= Some(1), "a whole number >= 1".into()),
            Domain::Upto(max) => (
                count >= Some(1) && count <= Some(max),
                format!("a whole number >= 1 and <= {max}"),
            ),
            Domain::Natural => (count.is_some(), "a whole number >= 0".into()),
            Domain::Scale => (number > Some(0.0), "a finite number > 0".into()),
            Domain::Budget => (number >= Some(0.0), "a finite percentage >= 0".into()),
            Domain::Programs => (
                programs.is_some(),
                format!("a comma-separated list of {kernels}"),
            ),
            Domain::Program => (programs == Some(1), format!("one of {kernels}")),
            Domain::Output | Domain::Flag => (true, String::new()),
        };
        (!ok).then_some(want)
    }
}

/// One `--key` an experiment may accept.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    /// The name after `--`.
    pub name: &'static str,
    /// The values it accepts.
    pub domain: Domain,
}

impl Key {
    /// `--name`, accepting `domain`.
    pub const fn new(name: &'static str, domain: Domain) -> Key {
        Key { name, domain }
    }
}

/// The keys every experiment accepts: where [`Table::emit`] copies the
/// table as CSV and as JSON.
const OUTPUTS: [(Key, &str); 2] = [
    (Key::new("csv", Domain::Output), ""),
    (Key::new("json", Domain::Output), ""),
];

/// One runnable experiment: the artefact it regenerates, the keys it
/// accepts with their defaults, and the function that runs it.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// The name on the command line, and of its `results/` file.
    pub name: &'static str,
    /// What it regenerates.
    pub artefact: &'static str,
    /// Accepted keys with their defaults (`""` is unset), besides
    /// `--csv` and `--json`.
    pub keys: &'static [(Key, &'static str)],
    /// Runs it on checked arguments.
    pub run: fn(&Args),
}

impl Experiment {
    /// Every key it accepts, with its default.
    fn all_keys(&self) -> impl Iterator<Item = &(Key, &'static str)> {
        self.keys.iter().chain(&OUTPUTS)
    }

    /// `usage: adbt_bench NAME [--key DEFAULT]... [--flag]...`, with
    /// `VALUE` for a key without a default.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: adbt_bench {}", self.name);
        for (key, default) in self.all_keys() {
            let value = match (key.domain, *default) {
                (Domain::Flag, _) => "",
                (_, "") => " VALUE",
                _ => &format!(" {default}"),
            };
            out.push_str(&format!(" [--{}{value}]", key.name));
        }
        out
    }
}

/// Runs the experiment named by the first command-line argument. A bad
/// argument exits 2 with the usage line before anything runs; `--help`
/// prints the experiment list, or the named experiment's usage line.
pub fn main(experiments: &[Experiment]) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let help = argv.iter().any(|arg| arg == "--help");
    let named = argv
        .first()
        .and_then(|name| experiments.iter().find(|e| e.name == name));
    let Some(experiment) = named else {
        let mut out = String::from("usage: adbt_bench <experiment> [--key VALUE]...\n\n");
        for e in experiments {
            out.push_str(&format!("  {:<17} {}\n", e.name, e.artefact));
        }
        out.push_str("\n`adbt_bench <experiment> --help` lists its keys and defaults.");
        if help {
            println!("{out}");
            std::process::exit(0);
        }
        if let Some(name) = argv.first() {
            eprintln!("adbt_bench: unknown experiment `{name}`");
        }
        eprintln!("{out}");
        std::process::exit(2)
    };
    let (name, usage) = (experiment.name, experiment.usage());
    if help {
        println!("{name}: {}\n{usage}", experiment.artefact);
        std::process::exit(0);
    }
    match Args::parse(experiment, &argv[1..]) {
        Ok(args) => (experiment.run)(&args),
        Err(why) => {
            eprintln!("adbt_bench {name}: {why}\n{usage}");
            std::process::exit(2)
        }
    }
}

/// An experiment's checked arguments: every key it accepts with its
/// given or default value, and its output files, already created.
#[derive(Debug)]
pub struct Args {
    values: HashMap<&'static str, String>,
    outputs: Vec<(&'static str, String, File)>,
}

impl Args {
    /// Parses `--key VALUE` pairs and switches against the keys
    /// `experiment` declares. The first unknown key, missing value,
    /// positional argument, value outside its key's domain or output
    /// file that cannot be created is an error; outputs are created
    /// only once everything else has passed.
    pub fn parse(experiment: &Experiment, argv: &[String]) -> Result<Args, String> {
        let mut values: HashMap<&'static str, String> = experiment
            .all_keys()
            .filter(|(_, default)| !default.is_empty())
            .map(|(key, default)| (key.name, default.to_string()))
            .collect();
        let mut iter = argv.iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            let Some((key, _)) = experiment.all_keys().find(|(key, _)| key.name == name) else {
                return Err(format!("unknown option `--{name}`"));
            };
            let value = match key.domain {
                Domain::Flag => String::new(),
                _ => iter
                    .next_if(|next| !next.starts_with("--"))
                    .ok_or_else(|| format!("`--{name}` needs a value"))?
                    .clone(),
            };
            values.insert(key.name, value);
        }
        let mut outputs = Vec::new();
        for (key, _) in experiment.all_keys() {
            let Some(value) = values.get(key.name) else {
                continue;
            };
            if let Some(want) = key.domain.reject(value) {
                return Err(format!("`--{} {value}` is not {want}", key.name));
            }
            if key.domain == Domain::Output {
                let file =
                    File::create(value).map_err(|e| format!("cannot create {value}: {e}"))?;
                outputs.push((key.name, value.clone(), file));
            }
        }
        Ok(Args { values, outputs })
    }

    /// The value of `key`, or `None` when it has no default and was not
    /// given.
    ///
    /// # Panics
    ///
    /// When the value does not parse as `T`: the experiment reads a key
    /// with a type its domain does not guarantee.
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let text = self.values.get(key)?;
        let value = text.parse().ok();
        Some(value.unwrap_or_else(|| panic!("`--{key} {text}` passed its domain but not its type")))
    }

    /// The value of a key declared with a default.
    ///
    /// # Panics
    ///
    /// As [`get_opt`](Args::get_opt), and when `key` has no value.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> T {
        self.get_opt(key)
            .unwrap_or_else(|| panic!("`--{key}` is read but not declared with a default"))
    }

    /// The kernels a [`Domain::Programs`] or [`Domain::Program`] key
    /// names.
    pub fn programs(&self, key: &str) -> Vec<Program> {
        parse_programs(&self.values[key]).expect("checked against the key's domain")
    }

    /// Whether a [`Domain::Flag`] key was given.
    pub fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// The kernels a comma-separated list names, in its order; `None` when
/// any name is unknown.
fn parse_programs(list: &str) -> Option<Vec<Program>> {
    list.split(',')
        .map(|name| Program::from_name(name.trim()))
        .collect()
}

/// The thread ladder the paper sweeps (Fig. 10 goes to 64); capped by
/// `max`.
pub fn thread_ladder(max: u32) -> Vec<u32> {
    [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&n| n <= max)
        .collect()
}

/// Whether any vCPU of `run` stopped making progress.
pub fn livelocked(run: &ParsecRun) -> bool {
    run.report
        .outcomes
        .iter()
        .any(|o| matches!(o, VcpuOutcome::Livelocked { .. }))
}

/// One cell of a [`Sweep`]: a kernel run under one scheme at one thread
/// count.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The kernel.
    pub program: Program,
    /// The scheme.
    pub scheme: SchemeKind,
    /// The guest thread count.
    pub threads: u32,
    /// The run.
    pub run: ParsecRun,
}

impl Cell {
    /// The program, scheme and thread-count cells that start a row.
    pub fn labels(&self) -> [(&'static str, String); 3] {
        [
            ("program", self.program.name().to_string()),
            ("scheme", self.scheme.name().to_string()),
            ("threads", self.threads.to_string()),
        ]
    }
}

/// A kernel × scheme × thread-count sweep on the simulated multicore, in
/// deterministic virtual time: the one loop behind every kernel table.
#[derive(Clone, Debug, Default)]
pub struct Sweep<'a> {
    /// Kernels, outermost.
    pub programs: &'a [Program],
    /// Schemes per kernel.
    pub schemes: &'a [SchemeKind],
    /// Thread counts per scheme, innermost.
    pub threads: &'a [u32],
    /// Work factor (see `adbt::workloads::parsec::generate`).
    pub scale: f64,
    /// The engine configuration of every cell.
    pub config: MachineConfig,
    /// Names each kernel on stderr as its cells start.
    pub progress: bool,
    /// Keeps livelocked cells, which Fig. 11 reports, instead of failing.
    pub allow_livelock: bool,
}

impl Sweep<'_> {
    /// Runs every cell in order.
    ///
    /// # Panics
    ///
    /// When a cell breaks its kernel's invariants, unless it livelocked
    /// and [`allow_livelock`](Sweep::allow_livelock) is set.
    pub fn run(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &program in self.programs {
            if self.progress {
                eprintln!("running {program} ...");
            }
            for &scheme in self.schemes {
                for &threads in self.threads {
                    let config = self.config.clone();
                    let costs = Some(SimCosts::default());
                    let run = run_parsec_full(scheme, program, threads, self.scale, config, costs)
                        .expect("machine construction");
                    assert!(
                        run.valid || (self.allow_livelock && livelocked(&run)),
                        "{scheme} x {program} x {threads}: kernel invariants failed"
                    );
                    cells.push(Cell {
                        program,
                        scheme,
                        threads,
                        run,
                    });
                }
            }
        }
        cells
    }
}

/// A rectangular result table that renders both human-readable and CSV.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Appends a row of `(column, cell)` pairs. The first row names the
    /// columns; every later row must name the same ones in order.
    pub fn row<'a>(&mut self, cells: impl IntoIterator<Item = (&'a str, String)>) {
        let (names, cells): (Vec<&str>, Vec<String>) = cells.into_iter().unzip();
        if self.rows.is_empty() {
            self.header = names.iter().map(|name| name.to_string()).collect();
        }
        assert!(self.header == names, "row/header mismatch: {names:?}");
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
        let lines = std::iter::once(&self.header).chain(&self.rows);
        lines.map(|cells| cells.join(",") + "\n").collect()
    }

    /// Renders a JSON array of row objects keyed by column name, one row
    /// per line. A cell that parses as an integer or a finite float is
    /// written as that number, any other cell as a string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::spaced();
        w.arr();
        for row in &self.rows {
            w.pad("\n  ").obj();
            for (key, cell) in self.header.iter().zip(row) {
                w.key(key);
                match (cell.parse::<i64>(), cell.parse::<f64>()) {
                    (Ok(i), _) => w.raw(i),
                    (_, Ok(f)) if f.is_finite() => w.raw(f),
                    _ => w.str(cell),
                };
            }
            w.end();
        }
        w.pad("\n").end().finish() + "\n"
    }

    /// Prints the table and writes it to the `--csv` and `--json` files
    /// the arguments created.
    pub fn emit(&self, args: &Args) {
        println!("{}", self.render());
        for (key, path, file) in &args.outputs {
            let text = if *key == "csv" {
                self.to_csv()
            } else {
                self.to_json()
            };
            let mut file: &File = file;
            file.write_all(text.as_bytes())
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

/// Runs `f` `reps` times and returns the minimum duration with the value
/// of that run (the paper averages three runs; minimum-of-N is the
/// standard noise-floor estimator for interpreted workloads).
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

    const TEST: Experiment = Experiment {
        name: "test",
        artefact: "a test",
        keys: &[
            (Key::new("scale", Domain::Scale), "0.1"),
            (Key::new("guard", Domain::Budget), ""),
            (Key::new("traced", Domain::Flag), ""),
            (Key::new("programs", Domain::Programs), "x264"),
        ],
        run: |_| {},
    };

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(&TEST, &argv)
    }

    #[test]
    fn args_accept_declared_keys_flags_and_defaults() {
        let args = parse(&["--scale", "0.5", "--traced", "--programs", "freqmine, x264"]).unwrap();
        assert_eq!(args.get::<f64>("scale"), 0.5);
        assert_eq!(args.get_opt::<f64>("guard"), None, "no default, not given");
        assert!(args.flag("traced"));
        assert_eq!(
            args.programs("programs"),
            vec![Program::Freqmine, Program::X264]
        );
        let args = parse(&[]).unwrap();
        assert_eq!(
            args.get::<f64>("scale"),
            0.1,
            "absent key keeps its default"
        );
        assert!(!args.flag("traced"));
        let usage = TEST.usage();
        assert!(
            usage.contains("[--scale 0.1] [--guard VALUE] [--traced]"),
            "{usage}"
        );
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
    fn args_reject_values_outside_their_domain() {
        for (argv, why) in [
            (["--scale", "0"], "`--scale 0` is not a finite number > 0"),
            (["--scale", "abc"], "`--scale abc`"),
            (["--guard", "-1"], "`--guard -1` is not a finite percentage"),
            (["--programs", "x264,bogus"], "`--programs x264,bogus`"),
        ] {
            let err = parse(&argv).unwrap_err();
            assert!(err.contains(why), "{argv:?}: {err}");
        }
    }

    #[test]
    fn domains_bound_counts_and_numbers() {
        let accepts = |domain: Domain, text| domain.reject(text).is_none();
        assert!(!accepts(Domain::Count, "0") && accepts(Domain::Count, "1"));
        assert!(!accepts(Domain::Count, "-1") && !accepts(Domain::Count, "1.5"));
        assert!(accepts(Domain::Natural, "0") && !accepts(Domain::Natural, "-1"));
        for bad in ["0", "-0.5", "nan", "inf"] {
            assert!(!accepts(Domain::Scale, bad), "{bad}");
        }
        assert!(accepts(Domain::Scale, "1e-3"));
        assert!(accepts(Domain::Budget, "0") && !accepts(Domain::Budget, "nan"));
        assert!(accepts(Domain::Program, "freqmine") && !accepts(Domain::Program, "freqmine,x264"));
    }

    #[test]
    fn ladder_caps() {
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(64).len(), 7);
    }

    #[test]
    fn table_renders_and_csvs() {
        let mut t = Table::default();
        t.row([("a", "1".into()), ("bb", "2".into())]);
        let text = t.render();
        assert!(text.contains("a"));
        assert!(text.contains("bb"));
        assert_eq!(t.to_csv(), "a,bb\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn table_rows_name_the_same_columns() {
        let mut t = Table::default();
        t.row([("a", "1".into())]);
        t.row([("b", "2".into())]);
    }

    #[test]
    fn table_to_json_types_cells() {
        let mut t = Table::default();
        t.row([
            ("name", "hst".into()),
            ("count", "42".into()),
            ("ratio", "2.03".into()),
        ]);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"hst\""), "{json}");
        assert!(json.contains("\"count\": 42"), "{json}");
        assert!(json.contains("\"ratio\": 2.03"), "{json}");
    }

    /// The JSON layout, pinned byte for byte: one row object per line,
    /// integers and finite floats as numbers, everything else quoted.
    #[test]
    fn table_json_is_pinned() {
        let mut t = Table::default();
        for (scheme, count, ratio) in [
            ("hst", "42", "2.03"),
            ("pico-cas", "-7", "1.50"),
            ("q\"uote", "0", "NaN"),
            ("hst-htm", "", "inf"),
        ] {
            t.row([
                ("scheme", scheme.into()),
                ("count", count.into()),
                ("ratio", ratio.into()),
            ]);
        }
        let golden = include_str!("../tests/data/table.json");
        assert_eq!(t.to_json(), golden);
        assert_eq!(Table::default().to_json(), "[\n]\n");
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
