//! Smoke test of the benchmark binary: a tiny run of every workload, traced
//! and untraced, reports every metric `BENCHMARK.json` declares with its
//! unit, and malformed arguments give the one-line usage error and exit 2.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["solo_sync_soak", "keyed_zipf_space", "es_lossy_quorum"];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// `(name, unit)` of every metric in one array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` array"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the array is closed")];
    let field = |entry: &str, key: &str| -> String {
        let from = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[from..from + entry[from..].find('"').expect("string closed")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn check_reports(trace: &str, section: &str) {
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for w in WORKLOADS {
        let out = perfbench(&[
            "--workload",
            w,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--size",
            "tiny",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{w} --trace {trace} failed:\n{stdout}"
        );
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, "), "{last}");
        for (name, unit) in &metrics {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = last
                .find(&entry)
                .unwrap_or_else(|| panic!("{w} --trace {trace} does not report {name}"));
            let rest = &last[at + entry.len()..];
            let close = rest.find('}').expect("entry closed");
            assert!(
                rest[..close].ends_with(&format!("\"unit\": \"{unit}\"")),
                "{w}: {name} lacks unit {unit}: {}",
                &rest[..close]
            );
        }
        assert_eq!(
            last.matches("\"value\": ").count(),
            metrics.len(),
            "{w} --trace {trace} reports undeclared metrics"
        );
    }
}

#[test]
fn untraced_tiny_runs_report_every_end_to_end_metric() {
    check_reports("0", "end_to_end");
}

#[test]
fn traced_tiny_runs_report_every_per_layer_metric() {
    check_reports("1", "per_layer");
}

#[test]
fn malformed_arguments_exit_2_with_one_usage_line() {
    for args in [
        &[][..],
        &["--workload"][..],
        &["--workload", "nope"][..],
        &["--workload", "solo_sync_soak", "--seed", "x"][..],
        &["--workload", "solo_sync_soak", "--seconds", "0"][..],
        &["--workload", "solo_sync_soak", "--trace", "2"][..],
        &["--workload", "solo_sync_soak", "--bogus"][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains("usage: perfbench"));
    }
}
