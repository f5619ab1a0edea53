//! Argument validation for the `dispatch_bench` harness: every bad
//! invocation is rejected with exit 2 and the usage line before any
//! timing starts, so a guard can never pass by measuring nothing.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dispatch_bench"))
        .args(args)
        .output()
        .unwrap()
}

/// Exit 2 with the usage line and `why` on stderr.
fn assert_rejected(args: &[&str], why: &str) {
    let output = run(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
    assert!(
        stderr.contains("usage: dispatch_bench"),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(
        output.stdout.is_empty(),
        "{args:?} measured before rejecting"
    );
}

#[test]
fn zero_iterations_are_rejected() {
    assert_rejected(&["--iters", "0"], "`--iters` must be at least 1");
}

#[test]
fn zero_reps_are_rejected() {
    assert_rejected(
        &["--traced", "--reps", "0", "--guard", "35"],
        "`--reps` must be at least 1",
    );
}

#[test]
fn a_guard_must_be_a_finite_non_negative_budget() {
    for bad in ["nan", "inf", "-5"] {
        assert_rejected(&["--profiled", "--guard", bad], "is not a budget");
    }
}

#[test]
fn a_guard_needs_a_mode_to_guard() {
    assert_rejected(&["--guard", "5"], "`--guard` needs a mode");
}

#[test]
fn modes_are_mutually_exclusive() {
    assert_rejected(
        &["--traced", "--profiled"],
        "`--traced` and `--profiled` are separate runs",
    );
}
