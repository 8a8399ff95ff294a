//! Short runs of every workload through the built benchmark. (That a
//! wrong campus reference fails the run is tested in `src/campus.rs`.)
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root; the tests build `mcps-serve` into the same
//! target directory first.

use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard, OnceLock};

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: std::collections::BTreeMap<String, Value>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root").to_path_buf()
}

fn benchmark() -> Benchmark {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `mcps-serve`, built in the profile and target directory of this test.
fn serve_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
        let profile = exe.parent().expect("profile dir");
        let target = profile.parent().expect("target dir");
        let mut cmd = Command::new(option_env!("CARGO").unwrap_or("cargo"));
        cmd.args(["build", "--quiet", "-p", "mcps-serve", "--bin", "mcps-serve"])
            .arg("--manifest-path")
            .arg(root().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target);
        if profile.file_name().is_some_and(|n| n == "release") {
            cmd.arg("--release");
        }
        assert!(cmd.status().expect("cargo runs").success(), "building mcps-serve failed");
        profile.join("mcps-serve")
    })
}

/// Serialises the tests: a workload measured beside another one is
/// starved of the cores it assumes, and its latency checks can fail.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> (Output, Option<ResultLine>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .arg("--serve-bin")
        .arg(serve_bin())
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().and_then(|l| serde_json::from_str(l).ok());
    (out, line)
}

/// Runs `workload` untraced and traced; each must pass its checks and
/// emit exactly the metrics `BENCHMARK.json` declares, with their units.
fn emits_every_metric(workload: &str) {
    let _quiet = exclusive();
    let bench = benchmark();
    for (trace, declared) in [(0, &bench.end_to_end), (1, &bench.per_layer)] {
        let (out, line) = run(workload, trace, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = line.unwrap_or_else(|| panic!("{workload} trace {trace}: no result\n{stderr}"));
        assert!(out.status.success() && line.correct, "{workload} trace {trace}:\n{stderr}");
        assert!(line.attempted >= 1 && line.failed == 0);
        assert_eq!(line.metrics.len(), declared.len(), "{workload} trace {trace}");
        for m in declared {
            let got = line
                .metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("{workload} trace {trace}: metric {} missing", m.name));
            assert_eq!(got.unit, m.unit, "{workload}: unit of {}", m.name);
            assert!(got.value.is_finite());
            if trace == 0 {
                assert!(got.value > 0.0, "{workload}: end-to-end {} is 0", m.name);
            }
        }
    }
}

#[test]
fn benchmark_names_the_serve_workloads() {
    let names: Vec<String> = benchmark().workloads.into_iter().map(|w| w.name).collect();
    assert_eq!(names, ["serve_flood", "serve_interlock"]);
}

#[test]
fn serve_flood_emits_every_metric() {
    emits_every_metric("serve_flood");
}

#[test]
fn serve_interlock_emits_every_metric() {
    emits_every_metric("serve_interlock");
}

#[test]
fn serve_run_without_a_stop_fails() {
    let _quiet = exclusive();
    // The fusion detector waits for correlated respiratory depression;
    // the workload's danger is SpO2 alone, so this supervisor never
    // commands a stop and every episode must count as missed.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let wrapper = dir.join("serve-fusion-detector.sh");
    std::fs::write(
        &wrapper,
        format!("#!/bin/sh\nexec '{}' \"$@\" --detector fusion\n", serve_bin().display()),
    )
    .expect("write wrapper");
    let chmod = Command::new("chmod").arg("+x").arg(&wrapper).status().expect("chmod");
    assert!(chmod.success());
    let (out, line) = run("serve_flood", 0, &["--serve-bin", wrapper.to_str().expect("utf-8")]);
    let line = line.expect("a result line");
    assert!(!line.correct);
    assert!(line.failed >= 1, "missed episodes count as failed");
    assert!(!out.status.success());
}
