//! Every workload, run through the real binary with `--smoke` (1 s
//! window, tiny key space), must emit every metric `BENCHMARK.json`
//! names: the end-to-end list untraced, the per-layer list traced.
//!
//! The live workloads spawn `d2-node`; when it is not yet beside the
//! test binary this builds it with the same cargo and profile.

use d2_benchmark::json::Json;
use d2_benchmark::spec::{self, MetricSpec};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Once;

const BENCH: &str = env!("CARGO_BIN_EXE_d2-bench");

fn ensure_node_binary() {
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let dir = PathBuf::from(BENCH)
            .parent()
            .expect("binary has a directory")
            .to_path_buf();
        if dir.join("d2-node").is_file() {
            return;
        }
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut cmd = Command::new(cargo);
        cmd.args(["build", "--offline", "-p", "d2-net", "--bin", "d2-node"])
            .args([
                "--manifest-path",
                concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"),
            ]);
        if dir.ends_with("release") {
            cmd.arg("--release");
        }
        assert!(
            cmd.status().expect("cargo runs").success(),
            "building d2-node failed"
        );
    });
}

fn run_smoke(workload: &str, trace: bool, specs: &[MetricSpec]) {
    ensure_node_binary();
    let out = Command::new(BENCH)
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("d2-bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let doc =
        Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), specs.len(), "{workload}: metric count");
    for spec in specs {
        let m = metrics
            .get(spec.name)
            .unwrap_or_else(|| panic!("{workload}: {} missing", spec.name));
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {} is not finite", spec.name);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
        if !trace {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {} read {value}",
                spec.name
            );
        }
        // Each human-readable line names the metric too.
        assert!(stdout.lines().any(|l| l.starts_with(spec.name)) || trace && value == 0.0);
    }
}

#[test]
fn ring3_seq_small_smoke() {
    run_smoke("ring3_seq_small", false, &spec::END_TO_END);
    run_smoke("ring3_seq_small", true, &spec::PER_LAYER);
}

#[test]
fn ring3_para_block8k_smoke() {
    run_smoke("ring3_para_block8k", false, &spec::END_TO_END);
    run_smoke("ring3_para_block8k", true, &spec::PER_LAYER);
}

#[test]
fn many64_tasks_smoke() {
    run_smoke("many64_tasks", false, &spec::END_TO_END);
    run_smoke("many64_tasks", true, &spec::PER_LAYER);
}

#[test]
fn sim_harvard32_smoke() {
    run_smoke("sim_harvard32", false, &spec::END_TO_END);
    run_smoke("sim_harvard32", true, &spec::PER_LAYER);
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["run"],
        &["run", "--workload"],
    ] {
        let out = Command::new(BENCH)
            .args(args)
            .output()
            .expect("d2-bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
