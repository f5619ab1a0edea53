//! Argument validation of the `adbt_fuzz` command line.

use std::process::Command;

fn rejection(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_adbt_fuzz"))
        .args(args)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn assert_rejected(args: &[&str]) {
    let stderr = rejection(args);
    assert!(stderr.contains("usage: adbt_fuzz"), "{args:?}: {stderr}");
}

/// A campaign that would check nothing is a usage error, not a clean
/// corpus: zero seeds, or an instruction budget that does not fit the
/// generator's `u32` (it used to truncate to 0 and fuzz empty programs).
#[test]
fn campaigns_that_check_nothing_are_rejected() {
    assert_rejected(&["--ci", "--seeds", "0"]);
    assert_rejected(&["--max-insns", "0"]);
    assert_rejected(&["--seeds", "1", "--max-insns", "4294967296"]);
}

/// An artifact directory that cannot be created is an error before the
/// campaign, not a warning when a divergence's repro is lost. The path
/// runs through a regular file, so no user may create it.
#[test]
fn an_uncreatable_out_directory_is_rejected_before_fuzzing() {
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/artifacts");
    let stderr = rejection(&["--seeds", "1", "--out", out]);
    assert!(stderr.contains(&format!("cannot create {out}")), "{stderr}");
}
