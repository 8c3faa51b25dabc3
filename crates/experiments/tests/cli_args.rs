//! Exit-code contract of the `d2-exp` binary: a malformed flag or an
//! unknown experiment exits 2 with a message on stderr and runs nothing,
//! rather than falling back to a default and printing a figure.

use std::process::{Command, Stdio};

/// Runs `d2-exp` to completion and returns (exit code, stdout, stderr).
fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_d2-exp"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn d2-exp");
    (
        out.status.code().expect("no exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_arguments_exit_2_without_running() {
    let cases: &[&[&str]] = &[
        &["table3", "--scale", "ful"], // neither quick nor full
        &["table3", "--scale"],        // flag without value
        &["table3", "--seed", "x"],    // not a number
        &["table3", "--seed"],         // flag without value
        &["table3", "--jobs", "0"],    // zero workers is nonsense
        &["fig99"],                    // unknown experiment
    ];
    for args in cases {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, 2, "args {args:?} should exit 2, stderr: {stderr}");
        assert!(!stderr.is_empty(), "args {args:?} should explain on stderr");
        assert!(stdout.is_empty(), "args {args:?} ran something: {stdout}");
    }
}
