//! Argument validation for `adbt_bench`: every bad invocation is
//! rejected with exit 2 and the usage line before anything is measured,
//! so a run can never panic after minutes of work, hang, or pass a guard
//! by measuring nothing.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adbt_bench"))
        .args(args)
        .output()
        .unwrap()
}

/// Exit 2 with the usage line and `why` on stderr, and nothing measured.
fn assert_rejected(args: &[&str], why: &str) {
    let output = run(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
    assert!(stderr.contains("usage: adbt_bench"), "{args:?}: {stderr}");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(
        output.stdout.is_empty(),
        "{args:?} measured before rejecting"
    );
}

#[test]
fn zero_iterations_are_rejected() {
    assert_rejected(&["dispatch", "--iters", "0"], "`--iters 0` is not");
}

#[test]
fn zero_reps_are_rejected() {
    assert_rejected(
        &["trace_overhead", "--reps", "0", "--guard", "35"],
        "`--reps 0` is not a whole number >= 1",
    );
}

#[test]
fn a_guard_must_be_a_finite_non_negative_budget() {
    for bad in ["nan", "inf", "-5"] {
        assert_rejected(
            &["profile_overhead", "--guard", bad],
            "is not a finite percentage >= 0",
        );
    }
}

#[test]
fn the_chaining_comparison_has_no_guard() {
    assert_rejected(&["dispatch", "--guard", "5"], "unknown option `--guard`");
}

#[test]
fn one_experiment_per_run() {
    assert_rejected(
        &["trace_overhead", "profile_overhead"],
        "unexpected argument `profile_overhead`",
    );
}

#[test]
fn experiments_must_exist() {
    assert_rejected(&["fig13"], "unknown experiment `fig13`");
    assert_rejected(&[], "fig12_fs");
}

#[test]
fn programs_must_be_known() {
    for experiment in ["fig10", "fig11", "fig12"] {
        assert_rejected(
            &[experiment, "--programs", "bogus"],
            "`--programs bogus` is not a comma-separated list of",
        );
    }
    assert_rejected(
        &["ablation_fused", "--program", "bogus"],
        "`--program bogus` is not one of",
    );
}

#[test]
fn thread_counts_must_be_positive() {
    for experiment in ["speedup", "table1", "ablation_fused", "aba"] {
        assert_rejected(
            &[experiment, "--threads", "0"],
            "`--threads 0` is not a whole number >= 1",
        );
    }
}

/// Kernels are generated for at most 64 threads, and a threaded run
/// takes at most 64 vCPUs.
#[test]
fn thread_counts_must_fit_what_runs_them() {
    for experiment in ["speedup", "table1", "ablation_fused", "aba"] {
        assert_rejected(
            &[experiment, "--threads", "65"],
            "`--threads 65` is not a whole number >= 1 and <= 64",
        );
    }
    assert_rejected(&["aba", "--threads", "256"], "and <= 64");
    assert_rejected(&["aba", "--threaded", "--threads", "65"], "and <= 64");
}

#[test]
fn thread_ladders_stop_at_64() {
    for experiment in ["fig10", "fig11", "fig12", "fig12_fs"] {
        assert_rejected(
            &[experiment, "--max-threads", "512"],
            "`--max-threads 512` is not a whole number >= 1 and <= 64",
        );
    }
}

#[test]
fn thread_ladders_must_be_nonempty() {
    for experiment in ["fig10", "fig11", "fig12", "fig12_fs"] {
        assert_rejected(&[experiment, "--max-threads", "0"], "`--max-threads 0`");
    }
}

#[test]
fn aba_needs_at_least_one_rep() {
    assert_rejected(&["aba", "--reps", "0"], "`--reps 0`");
}

#[test]
fn aba_needs_at_least_one_node() {
    assert_rejected(&["aba", "--nodes", "0"], "`--nodes 0`");
}

#[test]
fn aba_needs_at_least_one_op() {
    assert_rejected(&["aba", "--ops", "0"], "`--ops 0`");
}

#[test]
fn kernel_scales_must_be_finite_and_positive() {
    let experiments = [
        "fig10",
        "fig11",
        "fig12",
        "fig12_fs",
        "table1",
        "speedup",
        "ablation_fused",
    ];
    for experiment in experiments {
        for bad in ["0", "-1", "nan", "inf"] {
            assert_rejected(&[experiment, "--scale", bad], "is not a finite number > 0");
        }
    }
}

#[test]
fn chain_limits_must_be_positive() {
    for experiment in ["dispatch", "trace_overhead", "profile_overhead"] {
        assert_rejected(&[experiment, "--chain", "0"], "`--chain 0`");
    }
}

#[test]
fn output_paths_are_created_before_measuring() {
    assert_rejected(
        &["table2", "--csv", "/nonexistent/dir/x.csv"],
        "cannot create /nonexistent/dir/x.csv: No such file or directory",
    );
    assert_rejected(
        &["dispatch", "--json", "/nonexistent/x.json"],
        "cannot create /nonexistent/x.json",
    );
}

#[test]
fn help_lists_every_experiment_and_each_ones_keys() {
    let output = run(&["--help"]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in ["aba", "table2", "fig12_fs", "ablation_fused", "micro"] {
        assert!(stdout.contains(&format!("  {name} ")), "{stdout}");
    }
    let output = run(&["fig10", "--help"]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("usage: adbt_bench fig10 [--scale 0.1] [--max-threads 64]"),
        "{stdout}"
    );
}
