//! Argument validation of the `adbt_check` command line.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_adbt_check");
    Command::new(bin).args(args).output().unwrap()
}

/// Exit 2 with the usage text and nothing checked; returns stderr.
fn assert_rejected(args: &[&str]) -> String {
    let output = run(args);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
    assert!(
        output.stdout.is_empty(),
        "{args:?} checked before rejecting"
    );
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(stderr.contains("usage: adbt_check"), "{args:?}: {stderr}");
    stderr
}

/// A run that would explore nothing is a usage error, not a clean
/// matrix: with no schedule budget or no atoms per run, every pair,
/// PICO-CAS × `aba_llsc` included, read clean after one empty run.
#[test]
fn explorations_that_check_nothing_are_rejected() {
    assert_rejected(&["--ci", "--budget", "0"]);
    assert_rejected(&["--ci", "--max-atoms", "0"]);
    assert_rejected(&[
        "--scheme", "pico-cas", "--litmus", "aba_llsc", "--budget", "0",
    ]);
}

/// `--scheme` and `--litmus` filter to one value each. Given twice, the
/// last one used to win silently: `--scheme hst --scheme pico-cas`
/// checked only PICO-CAS.
#[test]
fn repeated_filters_are_rejected() {
    assert_rejected(&["--scheme", "hst", "--scheme", "pico-cas"]);
    assert_rejected(&["--litmus", "aba_llsc", "--litmus", "store_window"]);
}

/// So may every other flag that takes a value. Repeated, the last used
/// to win silently: `--budget 5 --budget 800` checked with a budget of
/// 800.
#[test]
fn repeated_value_flags_are_rejected() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/adbt_check_twice.json");
    for (flag, first, second) in [
        ("--budget", "5", "800"),
        ("--preemptions", "1", "2"),
        ("--max-atoms", "100", "200"),
        ("--export-trace", path, path),
    ] {
        let args = [
            "--scheme", "hst", "--litmus", "smc_self", flag, first, flag, second,
        ];
        let stderr = assert_rejected(&args);
        assert!(stderr.contains(&format!("{flag} given twice")), "{stderr}");
    }
}

/// The export file is created before the search: a path that cannot be
/// written exits 2 with nothing checked, where it used to surface only
/// at the first violation, after the pairs before it had run.
#[test]
fn an_uncreatable_export_file_is_rejected_before_checking() {
    let path = "/nonexistent/dir/x.json";
    let output = run(&["--ci", "--export-trace", path]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(output.stdout.is_empty(), "checked before rejecting");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let want = format!("cannot create {path}");
    assert!(stderr.contains(&want), "{stderr}");
}

/// With no violation there is nothing to export: stderr says so and no
/// file is left behind, created or not.
#[test]
fn a_clean_check_exports_nothing_and_says_so() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/adbt_check_clean.json");
    let output = run(&[
        "--scheme",
        "hst",
        "--litmus",
        "aba_llsc",
        "--export-trace",
        path,
    ]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("nothing exported"), "{stderr}");
    assert!(!std::path::Path::new(path).exists(), "{path} left behind");
}
