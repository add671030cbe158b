//! Runs the harness at `--smoke` scale and holds what it prints against
//! `BENCHMARK.json`: the shape the acceptance pipeline reads, and the names
//! of workloads and metrics in both directions.

use std::collections::BTreeSet;
use std::process::Command;

use feir_benchmark::catalog::{END_TO_END, PER_LAYER};
use feir_benchmark::json::{parse, Value};
use feir_benchmark::workloads::Kind;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// The `name`s of one of the manifest's lists.
fn manifest_names(manifest: &Value, list: &str) -> BTreeSet<String> {
    manifest
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {list}"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

fn keys(object: &Value) -> BTreeSet<String> {
    object
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// Runs the harness and parses the last line of its stdout.
fn harness(args: &[&str]) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_feir-benchmark"))
        .args(args)
        .output()
        .expect("harness starts");
    assert!(
        output.status.success(),
        "harness {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

fn assert_valid_name(name: &str) {
    assert!(
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
        "{name:?} is not [A-Za-z0-9_.-]+"
    );
}

#[test]
fn catalog_and_manifest_agree() {
    let manifest = manifest();
    assert_eq!(
        keys(&manifest),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
        .map(String::from)
        .into()
    );
    let listed = |list: &str| {
        manifest
            .get(list)
            .and_then(Value::as_array)
            .unwrap()
            .to_vec()
    };
    let field = |entry: &Value, key: &str| entry.get(key).and_then(Value::as_str).map(String::from);

    let workloads = listed("workloads");
    assert_eq!(workloads.len(), Kind::ALL.len());
    for (entry, kind) in workloads.iter().zip(Kind::ALL) {
        assert_eq!(field(entry, "name").as_deref(), Some(kind.name()));
        assert_eq!(field(entry, "why").as_deref(), Some(kind.why()));
        assert!(kind.why().len() <= 200 && !kind.why().contains('\n'));
        assert_valid_name(kind.name());
    }
    let end_to_end = listed("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(entry, "name").as_deref(), Some(metric.name));
        assert_eq!(field(entry, "unit").as_deref(), Some(metric.unit));
        assert_eq!(field(entry, "better").as_deref(), Some("lower"));
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(metric.bound)
        );
        assert!(metric.bound <= 0.25);
    }
    let per_layer = listed("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, metric) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(entry, "name").as_deref(), Some(metric.name));
        assert_eq!(field(entry, "unit").as_deref(), Some(metric.unit));
        assert_eq!(field(entry, "better").as_deref(), Some(metric.better));
        assert_valid_name(metric.name);
    }
    let names: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(
        names.len(),
        PER_LAYER.len(),
        "a per-layer name is used twice"
    );
}

#[test]
fn smoke_run_emits_exactly_the_listed_names() {
    let manifest = manifest();
    let workloads = manifest_names(&manifest, "workloads");
    let end_to_end = manifest_names(&manifest, "end_to_end");
    let per_layer = manifest_names(&manifest, "per_layer");

    // The summary of `--workload all`: every workload, every metric.
    let summary = harness(&["--smoke", "--workload", "all", "--seed", "1"]);
    assert_eq!(
        summary.get("claim"),
        Some(&Value::Null),
        "no gain is claimed"
    );
    let reported = summary.get("workloads").expect("workloads object");
    assert_eq!(keys(reported), workloads);
    let all_metrics: BTreeSet<String> = end_to_end.union(&per_layer).cloned().collect();
    for (name, result) in reported.as_object().unwrap() {
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{name}");
        assert_eq!(
            result.get("ops_failed").and_then(Value::as_f64),
            Some(0.0),
            "{name}"
        );
        assert!(result.get("ops_attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let metrics = result.get("metrics").expect("metrics object");
        assert_eq!(keys(metrics), all_metrics, "{name}");
        for (metric, value) in metrics.as_object().unwrap() {
            assert_valid_name(metric);
            let v = value.get("value").and_then(Value::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{name}/{metric}: {value:?}");
        }
    }

    // The line the acceptance pipeline reads, untraced and traced.
    for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
        let line = harness(&[
            "--smoke",
            "--workload",
            "due_afeir",
            "--seed",
            "2",
            "--seconds",
            "0",
            "--trace",
            trace,
        ]);
        assert_eq!(
            keys(&line),
            ["correct", "attempted", "failed", "metrics"]
                .map(String::from)
                .into()
        );
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        let attempted = line.get("attempted").and_then(Value::as_f64).unwrap();
        assert!(attempted >= 1.0 && attempted.fract() == 0.0);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(&keys(metrics), expected, "--trace {trace}");
        for (_, value) in metrics.as_object().unwrap() {
            assert_eq!(keys(value), ["value", "unit"].map(String::from).into());
        }
    }
}
