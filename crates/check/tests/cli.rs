//! Argument validation of the `adbt_check` command line.

use std::process::Command;

fn assert_rejected(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_adbt_check"))
        .args(args)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
    assert!(
        output.stdout.is_empty(),
        "{args:?} checked before rejecting"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage: adbt_check"), "{args:?}: {stderr}");
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
