//! `--datasets` names are checked at parse time: a typo must fail the run
//! with the usage exit code, not print an empty table and succeed.

use std::process::Command;

#[test]
fn unknown_dataset_name_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--n", "50", "--queries", "5", "--datasets", "nope"])
        .output()
        .expect("spawn table1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("nope"), "stderr: {stderr}");
}
