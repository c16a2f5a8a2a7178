//! The benchmark binary end to end, at its tiny test size: every workload
//! passes its gates, prints exactly the metrics `BENCHMARK.json` lists,
//! and leaves no scratch directory or worker process behind.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["stream-sim", "churn-oracle", "serve-wal", "sweep-fleet"];

/// The names listed under `key` ("end_to_end" or "per_layer") in
/// `BENCHMARK.json`, in file order.
fn listed(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{key}\"")).unwrap();
    let section = &text[start..];
    let section = &section[..section.find(']').unwrap()];
    section.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

/// A fresh working directory for one run.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Processes whose working directory is `dir`.
fn processes_in(dir: &Path) -> Vec<String> {
    let dir = dir.canonicalize().unwrap();
    std::fs::read_dir("/proc")
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().chars().all(|c| c.is_ascii_digit()))
        .filter(|e| std::fs::read_link(e.path().join("cwd")).is_ok_and(|cwd| cwd == dir))
        .map(|e| e.file_name().to_string_lossy().to_string())
        .collect()
}

struct Run {
    status: i32,
    stdout: String,
    stderr: String,
}

fn run(dir: &Path, args: &[&str]) -> Run {
    let out =
        Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).current_dir(dir).output().unwrap();
    Run {
        status: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8(out.stdout).unwrap(),
        stderr: String::from_utf8(out.stderr).unwrap(),
    }
}

/// The metric names of a result line, in order.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\": {").unwrap() + 12..];
    metrics
        .split("{\"value\"")
        .filter_map(|s| s.strip_suffix("\": "))
        .map(|s| s[s.rfind('"').unwrap() + 1..].to_string())
        .collect()
}

fn check_workload(workload: &str, trace: &str, key: &str) {
    let dir = workdir(&format!("{workload}-trace{trace}"));
    let r = run(
        &dir,
        &[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--scale",
            "tiny",
        ],
    );
    assert_eq!(r.status, 0, "{workload}: {}", r.stderr);
    let lines: Vec<&str> = r.stdout.lines().collect();
    let result = lines.last().unwrap();
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {result}\n{}",
        r.stderr
    );
    assert!(result.contains("\"failed\": 0, "), "{workload}: {result}");
    assert_eq!(metric_names(result), listed(key), "{workload} trace {trace}");
    assert!(lines[lines.len() - 2].starts_with("{\"detail\": {\"workload\": "));
    assert!(r.stdout.contains("\"fingerprint_digest\": "));
    assert!(!dir.join(".bench_tmp").exists(), "{workload}: scratch directory left behind");
    assert!(processes_in(&dir).is_empty(), "{workload}: processes left behind");
    assert_eq!(dir.join(".bench_trace").exists(), trace == "1");
}

#[test]
fn stream_sim_passes_its_gates() {
    check_workload("stream-sim", "0", "end_to_end");
    check_workload("stream-sim", "1", "per_layer");
}

#[test]
fn churn_oracle_passes_its_gates() {
    check_workload("churn-oracle", "0", "end_to_end");
    check_workload("churn-oracle", "1", "per_layer");
}

#[test]
fn serve_wal_passes_its_gates() {
    check_workload("serve-wal", "0", "end_to_end");
    check_workload("serve-wal", "1", "per_layer");
}

#[test]
fn sweep_fleet_passes_its_gates() {
    check_workload("sweep-fleet", "0", "end_to_end");
    check_workload("sweep-fleet", "1", "per_layer");
}

#[test]
fn every_workload_is_listed() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} missing from BENCHMARK.json");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let dir = workdir("bad-args");
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "stream-sim", "--seed", "1", "--seconds", "0", "--trace", "0"],
        &["--workload", "stream-sim", "--seed", "1", "--seconds", "1"],
    ] {
        let r = run(&dir, args);
        assert_ne!(r.status, 0, "{args:?}");
        assert!(r.stdout.is_empty(), "{args:?}: {}", r.stdout);
    }
}
