//! Exit-code contract of the `d2-load` binary: an argument it does not
//! know exits 2 with usage on stderr, before it dials anything.

use std::process::{Command, Stdio};

#[test]
fn removed_and_unknown_flags_exit_2_with_usage() {
    // There is no `--mode`: a serial run is `--window 1`.
    for args in [&["--mode", "serial"][..], &["--bogus", "1"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_d2-load"))
            .args(["--node", "127.0.0.1:1"])
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn d2-load");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: d2-load"), "{args:?}: {stderr}");
    }
}
