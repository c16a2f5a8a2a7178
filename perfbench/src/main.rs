//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! Runs one workload (`stream-sim`, `churn-oracle`, `serve-wal`,
//! `sweep-fleet`) with inputs generated from the seed for about `S`
//! seconds, checks its outputs, and prints a detail line followed by the
//! result line: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1` (its spans are written to
//! `.bench_trace/<workload>.jsonl`). `--scale tiny` is the benchmark's own
//! test size. See `perfbench/LEDGER.md` for what each metric measures.
//!
//! The sweep-fleet workload re-executes this binary as its fleet workers,
//! with `--fleet-worker` and the fleet's worker flags.

mod host;
mod metrics;
mod scratch;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use metrics::{json_num, json_str, END_TO_END, PER_LAYER};
use scratch::ScratchRoot;
use workloads::fleet::{self, FleetBench, Grid};
use workloads::serve::ServeBench;
use workloads::session::SessionBench;
use workloads::{drive, fingerprint_digest, Bench, Outcome, Scale, Settings, Workload};

const USAGE: &str = "usage: perfbench --workload stream-sim|churn-oracle|serve-wal|sweep-fleet \
                     --seed N --seconds S --trace 0|1 [--scale full|tiny]";

/// A fleet worker's command line.
struct WorkerArgs {
    grid: Grid,
    scale: Scale,
    seed: u64,
    round: u64,
    connect: String,
    worker_id: u32,
    heartbeat: Duration,
}

enum Mode {
    Bench(Settings),
    Worker(WorkerArgs),
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: invalid value {v:?}"))
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut fleet_worker = false;
    let mut grid = Grid::Main;
    let mut round = 0u64;
    let mut connect = None;
    let mut worker_id = 0u32;
    let mut heartbeat = Duration::from_millis(25);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if matches!(flag, "--fleet-worker" | "--worker") {
            fleet_worker = true;
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(parse_num::<u64>(flag, value)?),
            "--seconds" => {
                let s: f64 = parse_num(flag, value)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            "--scale" => {
                scale = Scale::parse(value).ok_or_else(|| format!("unknown scale {value:?}"))?
            }
            "--grid" => {
                grid = Grid::parse(value).ok_or_else(|| format!("unknown grid {value:?}"))?
            }
            "--round" => round = parse_num(flag, value)?,
            "--connect" => connect = Some(value.clone()),
            "--worker-id" => worker_id = parse_num(flag, value)?,
            "--heartbeat-ms" => heartbeat = Duration::from_millis(parse_num(flag, value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    let seed = seed.ok_or("--seed is required")?;
    if fleet_worker {
        let connect = connect.ok_or("a fleet worker needs --connect")?;
        return Ok(Mode::Worker(WorkerArgs {
            grid,
            scale,
            seed,
            round,
            connect,
            worker_id,
            heartbeat,
        }));
    }
    Ok(Mode::Bench(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    }))
}

fn bench_for(settings: &Settings) -> Box<dyn Bench> {
    match settings.workload {
        Workload::StreamSim | Workload::ChurnOracle => {
            Box::new(SessionBench::new(settings.workload, settings.scale, settings.seed))
        }
        Workload::ServeWal => Box::new(ServeBench::new(settings.scale, settings.seed)),
        Workload::SweepFleet => Box::new(FleetBench::new(settings.scale, settings.seed)),
    }
}

/// Shares of a batch's time, for the detail line of a traced run.
fn shares(per_layer: &std::collections::BTreeMap<&str, f64>) -> Vec<(&'static str, f64)> {
    let get = |k: &str| per_layer.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let batch = get("engines.batch_s");
    let rtt = get("serve.send_s") + get("serve.flush_rtt_s") + get("serve.snapshot_rtt_s");
    vec![
        ("propagation_of_batch", ratio(get("engines.propagation_s"), batch)),
        (
            "substrate_seed_oracle_of_batch",
            ratio(get("graph.substrate_s") + get("algos.seed_s") + get("algos.oracle_s"), batch),
        ),
        (
            "flush_snapshot_of_round_trip",
            ratio(get("serve.flush_rtt_s") + get("serve.snapshot_rtt_s"), rtt),
        ),
    ]
}

fn object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn detail_line(settings: &Settings, out: &Outcome) -> String {
    let mut d: Vec<(String, String)> = vec![
        ("workload".into(), json_str(settings.workload.name())),
        ("seed".into(), settings.seed.to_string()),
        ("seconds".into(), json_num(settings.seconds)),
        ("trace".into(), settings.trace.to_string()),
        ("scale".into(), json_str(settings.scale.name())),
        ("host_cpus".into(), host::cpus().to_string()),
        ("build_profile".into(), json_str(host::profile())),
        ("git_commit".into(), json_str(&host::git_commit())),
        ("source_digest".into(), json_str(&host::source_digest())),
    ];
    let fp: Vec<(String, String)> =
        out.fingerprint.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    d.push(("fingerprint".into(), object(&fp)));
    d.push(("fingerprint_digest".into(), json_str(&fingerprint_digest(&out.fingerprint))));
    d.extend(out.detail.iter().cloned());
    if settings.trace {
        let e2e: Vec<(String, String)> =
            out.end_to_end.iter().map(|(k, v)| (k.to_string(), json_num(*v))).collect();
        d.push(("untraced_half_end_to_end".into(), object(&e2e)));
        let sh: Vec<(String, String)> =
            shares(&out.per_layer).into_iter().map(|(k, v)| (k.to_string(), json_num(v))).collect();
        d.push(("shares".into(), object(&sh)));
    }
    format!("{{\"detail\": {}}}", object(&d))
}

fn write_spans(settings: &Settings, out: &Outcome) {
    let Some(tracer) = &out.spans else { return };
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}.jsonl", settings.workload.name()));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
    {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn run(settings: &Settings) -> Result<String, String> {
    let mut scratch =
        ScratchRoot::create().map_err(|e| format!("creating scratch directory: {e}"))?;
    let mut bench = bench_for(settings);
    let out = drive(bench.as_mut(), settings, &mut scratch)?;
    drop(bench);
    for f in &out.failures {
        eprintln!("perfbench: gate failed: {f}");
    }
    write_spans(settings, &out);
    let (catalogue, values) = if settings.trace {
        (&PER_LAYER[..], &out.per_layer)
    } else {
        (&END_TO_END[..], &out.end_to_end)
    };
    let result = metrics::result_line(catalogue, values, out.attempted, out.failed)?;
    Ok(format!("{}\n{result}", detail_line(settings, &out)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Worker(w) => {
            match fleet::worker(
                w.grid,
                w.scale,
                w.seed,
                w.round,
                &w.connect,
                w.worker_id,
                w.heartbeat,
            ) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: fleet worker {}: {e}", w.worker_id);
                    ExitCode::FAILURE
                }
            }
        }
        Mode::Bench(settings) => match std::panic::catch_unwind(|| run(&settings)) {
            Ok(Ok(lines)) => {
                println!("{lines}");
                ExitCode::SUCCESS
            }
            Ok(Err(e)) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
            Err(_) => ExitCode::FAILURE,
        },
    }
}
