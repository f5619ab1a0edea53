//! Smoke tests for the `adbt_run` command-line runner.

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

#[test]
fn sim_mode_and_stats() {
    let dir = std::env::temp_dir();
    let path = write_program(&dir, "adbt_cli_sim.s", PROGRAM);
    let output = bin()
        .arg(&path)
        .args(["--scheme", "pico-cas", "--threads", "2", "--sim", "--stats"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("sim_time="), "{stderr}");
    assert!(stderr.contains("sc="), "{stderr}");
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
