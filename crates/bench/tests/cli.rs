//! The sweep bins parse their arguments strictly: a flag they do not take,
//! such as one a sweep used to have, stops the bin with a usage line and
//! status 2 before any sweep runs or any file is written.

use std::path::PathBuf;
use std::process::Command;

/// Run `bin` with `args` in a fresh empty directory, and check that it
/// refused them: status 2, a usage line, and nothing written there.
fn refuses(bin: &str, name: &str, args: &[&str]) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("grip-bench-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin).args(args).current_dir(&dir).output().unwrap();
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stderr.contains("usage"), "{name} {args:?}: {stderr}");
    assert!(left.is_empty(), "{name} {args:?} wrote {left:?}");
}

#[test]
fn machines_refuses_the_budget_flag() {
    refuses(env!("CARGO_BIN_EXE_machines"), "machines", &["48", "--budget"]);
}

#[test]
fn golden_digests_refuses_the_seq_flag() {
    refuses(env!("CARGO_BIN_EXE_golden-digests"), "golden-digests", &["--seq"]);
}

#[test]
fn table1_refuses_the_seq_flag() {
    refuses(env!("CARGO_BIN_EXE_table1"), "table1", &["48", "--seq"]);
}
