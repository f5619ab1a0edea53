//! Argument validation of the `adbt_fuzz` command line.

use std::process::Command;

fn assert_rejected(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_adbt_fuzz"))
        .args(args)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
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
