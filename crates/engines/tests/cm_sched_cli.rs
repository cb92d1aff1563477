//! `cm-sched --replay-schedule` treats the schedule file as hostile
//! input: a malformed file, or one recorded on a different worker count
//! than `--workers`, is a usage error (exit 2) before any work runs.

use std::path::PathBuf;
use std::process::Command;

fn replay(name: &str, schedule: &str, workers: &str) -> Option<i32> {
    let path: PathBuf =
        std::env::temp_dir().join(format!("cm-sched-{name}-{}.txt", std::process::id()));
    std::fs::write(&path, schedule).expect("temp file writable");
    let status = Command::new(env!("CARGO_BIN_EXE_cm-sched"))
        .args(["--tasks", "4", "--slice", "500", "--workers", workers])
        .arg("--replay-schedule")
        .arg(&path)
        .status()
        .expect("cm-sched runs");
    let _ = std::fs::remove_file(&path);
    status.code()
}

#[test]
fn replay_schedule_must_match_workers_and_parse() {
    let two = "cm-steal-schedule-v1 workers=2\nsteal 0 1 0 1\n";
    assert_eq!(replay("match", two, "2"), Some(0));
    assert_eq!(replay("mismatch", two, "3"), Some(2));
    let trailing = "cm-steal-schedule-v1 workers=2\nsteal 0 1 0 1 junk\n";
    assert_eq!(replay("trailing", trailing, "2"), Some(2));
}
