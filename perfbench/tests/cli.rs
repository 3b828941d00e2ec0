//! Runs the benchmark binary on the scaled-down workloads and checks
//! its output against `BENCHMARK.json`: every metric it declares prints,
//! by name and with its unit, on every workload.

use dws_metrics::export::parse;
use dws_metrics::JsonValue;
use std::process::Command;

fn bench_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    parse(text.trim()).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = bench_json();
    let items = doc.get(section).and_then(JsonValue::as_arr).expect(section);
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let doc = bench_json();
    let items = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads");
    items
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dws-perfbench"))
        .args(args)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Run one small workload and check its result line and table.
fn check_pass(workload: &str, seed: &str, trace: &str) {
    let section = if trace == "0" {
        "end_to_end"
    } else {
        "per_layer"
    };
    let stdout = run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--scale",
        "small",
    ]);
    let last = stdout.lines().last().expect("a result line");
    let doc = parse(last).expect("result line is JSON");
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)), "{stdout}");
    assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(doc.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
    let JsonValue::Obj(metrics) = doc.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    let want = declared(section);
    assert_eq!(metrics.len(), want.len(), "{workload}: {last}");
    for (name, unit) in want {
        let m = doc.get("metrics").and_then(|m| m.get(&name));
        let m = m.unwrap_or_else(|| panic!("{workload} trace {trace}: no {name}"));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str())
        );
        let value = m.get("value").and_then(JsonValue::as_num);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {m}"
        );
        assert!(
            stdout.lines().any(|l| l.starts_with(&format!("{name} "))
                && l.trim_end().ends_with(&format!(" {unit}"))),
            "{workload}: {name} not printed with unit {unit}"
        );
    }
}

#[test]
fn every_end_to_end_metric_prints_with_its_unit() {
    for w in workloads() {
        check_pass(&w, "1", "0");
    }
}

#[test]
fn every_per_layer_metric_prints_with_its_unit() {
    for w in workloads() {
        check_pass(&w, "1", "1");
    }
}

#[test]
fn all_runs_every_workload_at_two_seeds() {
    let stdout = run(&[
        "--workload",
        "all",
        "--seed",
        "7",
        "--seconds",
        "0",
        "--scale",
        "small",
    ]);
    for w in workloads() {
        for seed in ["1", "7"] {
            assert!(stdout.contains(&format!("== {w} (seed {seed}, end-to-end pass) ==")));
        }
    }
    let doc = parse(stdout.lines().last().expect("summary line")).expect("JSON");
    assert_eq!(
        doc.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(stdout.contains("failed_ratio"));
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "traced_why", "--trace", "2"],
        &["--workload", "traced_why", "--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dws-perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
