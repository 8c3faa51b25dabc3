//! Exit-code contract of the `d2-node` binary: argument errors exit 2
//! with usage on stderr, operational failures exit 1, successes exit 0.
//! Scripts (scripts/tcp_cluster.sh, operators' tooling) key off these
//! codes, so they are a public interface.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

fn d2_node(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_d2-node"));
    cmd.args(args).stdin(Stdio::null());
    cmd
}

/// Runs to completion and returns (exit code, stderr).
fn run(args: &[&str]) -> (i32, String) {
    let out = d2_node(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn d2-node");
    (
        out.status.code().expect("no exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A TCP port that nothing is listening on (bound, then released).
fn dead_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    let cases: &[&[&str]] = &[
        &[],                                                    // no subcommand
        &["frobnicate"],                                        // unknown subcommand
        &["serve"],                                             // missing --listen/--pos
        &["serve", "--listen", "127.0.0.1:0"],                  // missing --pos
        &["lookup", "--node", "127.0.0.1:1"],                   // missing key
        &["lookup", "--key-frac", "0.5"],                       // missing --node
        &["put", "--node", "127.0.0.1:1", "--key-frac", "0.5"], // missing --data
        &["status"],                                            // missing --node
        &["stop", "--node"],                                    // flag without value
        &["status", "--node", "127.0.0.1:1", "--bogus", "x"],   // unknown flag
        &["serve-many"],                                        // missing --nodes
        &["check"],                                             // missing --node
    ];
    for args in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "args {args:?} should exit 2, stderr: {stderr}");
        assert!(!stderr.is_empty(), "args {args:?} should explain on stderr");
    }
}

#[test]
fn malformed_values_exit_2() {
    let cases: &[&[&str]] = &[
        &["status", "--node", "not-an-addr"],
        &["status", "--node", "example.org:80"], // hostnames are not IPv4 literals
        &["serve", "--listen", "127.0.0.1:0", "--pos", "1.5"], // pos out of [0,1]
        &["serve", "--listen", "127.0.0.1:0", "--pos", "abc"],
        &["lookup", "--node", "127.0.0.1:1", "--key-frac", "-0.25"],
        &["lookup", "--node", "127.0.0.1:1", "--key-u64", "twelve"],
        &[
            "put",
            "--node",
            "127.0.0.1:1",
            "--key-frac",
            "0.5",
            "--data",
            "x",
            "--replicas",
            "0",
        ],
        &["serve-many", "--nodes", "0"],    // zero nodes is nonsense
        &["serve-many", "--nodes", "many"], // not a number
        &["serve-many", "--nodes", "4", "--join-batch", "0"],
        &["serve-many", "--nodes", "4", "--tick-ms", "0"],
        &["check", "--node", "127.0.0.1:1", "--expect", "0"],
    ];
    for args in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "args {args:?} should exit 2, stderr: {stderr}");
    }
}

#[test]
fn operations_against_dead_node_exit_1() {
    let node = format!("127.0.0.1:{}", dead_port());
    let cases: &[&[&str]] = &[
        &["lookup", "--node", &node, "--key-frac", "0.5"],
        &[
            "put",
            "--node",
            &node,
            "--key-frac",
            "0.5",
            "--data",
            "hello",
        ],
        &["get", "--node", &node, "--key-u64", "7"],
        &["status", "--node", &node],
        &["check", "--node", &node],
        &["stop", "--node", &node],
        &["stop", "--node", &node, "--all"],
    ];
    for args in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, 1, "args {args:?} should exit 1, stderr: {stderr}");
        assert!(
            stderr.contains("failed"),
            "args {args:?} should report the failure, stderr: {stderr}"
        );
    }
}

/// Kills a serve child if a test assertion unwinds before `stop` lands.
struct Reap(Child);
impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_status_stop_roundtrip_exits_0() {
    let child = d2_node(&["serve", "--listen", "127.0.0.1:0", "--pos", "0.5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut child = Reap(child);

    // The serve process prints the actual bound address first.
    let stdout = child.0.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout);
    let mut first = String::new();
    lines.read_line(&mut first).expect("read LISTEN line");
    let addr = first
        .trim()
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("expected LISTEN line, got {first:?}"))
        .to_string();

    let (code, stderr) = run(&["status", "--node", &addr]);
    assert_eq!(code, 0, "status against live node, stderr: {stderr}");

    // `stopped` means the ShutdownAck arrived: the node's host exits
    // on that request, and the reactor must flush the ack it queued
    // before it closes.
    let stop = d2_node(&["stop", "--node", &addr]).output().expect("stop");
    assert_eq!(String::from_utf8_lossy(&stop.stdout), "stopped\n");
    assert_eq!(stop.status.code(), Some(0), "stop against live node");

    let status = child.0.wait().expect("serve exit");
    assert_eq!(status.code(), Some(0), "serve should exit 0 after stop");
    // Drain any remaining output so the pipe closes cleanly.
    let mut rest = String::new();
    let _ = lines.read_to_string(&mut rest);
}
