//! Runs all three workloads at small sizes, with every correctness check
//! on, untraced and traced, and holds the printed result to the metric
//! lists in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

/// The metric names of one `BENCHMARK.json` section, in file order.
fn names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed name")].to_owned())
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--small",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work")
        .arg(&work)
        .arg("--hummingbird")
        .arg(env!("CARGO_BIN_EXE_hummingbird"))
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let stdout = run(workload, trace);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, "),
            "{workload}: {last}"
        );
        assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
        let expected = names(section);
        assert!(!expected.is_empty());
        let printed = last.matches("\"value\": ").count();
        assert_eq!(
            printed,
            expected.len(),
            "{workload} prints exactly the {section} metrics"
        );
        for name in expected {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload}: {name} missing"
            );
        }
    }
}

#[test]
fn file_report_runs_and_checks() {
    check("file-report");
}

#[test]
fn daemon_eco_runs_and_checks() {
    check("daemon-eco");
}

#[test]
fn closure_loop_runs_and_checks() {
    check("closure-loop");
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
