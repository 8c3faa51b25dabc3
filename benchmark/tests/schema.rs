//! `BENCHMARK.json` and the binary must agree on workload names, metric
//! names, units and directions, and the file must stay inside the
//! contract's limits.

use d2_benchmark::json::Json;
use d2_benchmark::spec::{self, MetricSpec};
use std::collections::HashSet;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {v:?}"))
}

fn name_is_valid(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn check_metrics(listed: &[Json], specs: &[MetricSpec], keys: &[&str]) {
    assert_eq!(listed.len(), specs.len(), "metric count differs");
    for (entry, spec) in listed.iter().zip(specs) {
        let obj = entry.as_obj().expect("metric is an object");
        let have: HashSet<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(have, keys.iter().copied().collect(), "keys of {entry:?}");
        assert_eq!(str_of(entry, "name"), spec.name);
        assert_eq!(str_of(entry, "unit"), spec.unit, "unit of {}", spec.name);
        assert_eq!(
            str_of(entry, "better"),
            spec.better.as_str(),
            "direction of {}",
            spec.name
        );
        assert!(name_is_valid(spec.name), "bad metric name {:?}", spec.name);
        let unit_ok =
            |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        assert!(
            spec.unit.len() <= 16 && spec.unit.chars().all(unit_ok),
            "bad unit {:?}",
            spec.unit
        );
    }
}

#[test]
fn manifest_and_binary_agree() {
    let doc = manifest();
    let top: HashSet<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    let want = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    assert_eq!(top, want.into_iter().collect());

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, spec::WORKLOADS);
    for w in workloads {
        assert_eq!(
            w.as_obj().unwrap().len(),
            2,
            "a workload has exactly name and why"
        );
        let why = str_of(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {} too long",
            str_of(w, "name")
        );
        assert!(name_is_valid(str_of(w, "name")));
    }

    let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    check_metrics(e2e, &spec::END_TO_END, &["name", "unit", "better", "bound"]);
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound of {}",
            str_of(m, "name")
        );
    }
    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is gated");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let largest = e2e
        .iter()
        .filter_map(|m| m.get("bound")?.as_f64())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));

    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    check_metrics(per_layer, &spec::PER_LAYER, &["name", "unit", "better"]);
    assert!(per_layer.len() <= 128);

    let mut seen = HashSet::new();
    for n in spec::END_TO_END
        .iter()
        .chain(&spec::PER_LAYER)
        .map(|m| m.name)
        .chain(names)
    {
        assert!(seen.insert(n), "name {n:?} is used twice");
    }

    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert_eq!(seconds, d2_benchmark::cli::DEFAULT_SECONDS);
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
}
