//! The four workloads and the round loop that drives them.
//!
//! A workload sets up several times (the last set-up is kept), then runs
//! *rounds* — fixed units of work; round `r` does the same work every time
//! for a given seed — until its time budget is spent. Every round checks
//! its own outputs. With tracing, the budget is split: untraced rounds
//! first, then traced rounds numbered from 0 again, each of which must
//! reproduce the simulated counts of the untraced round with its index.
//! The traced rounds' spans give the per-layer metrics: times and counts
//! are means per traced round, the simulated counts those of round 0.

pub mod fleet;
pub mod serve;
pub mod session;

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::Fnv;
use crate::metrics::SIMULATED;
use crate::scratch::ScratchRoot;
use crate::stats;
use crate::trace::{self, Tracer};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Simulator-bound streaming sessions.
    StreamSim,
    /// Deletion-heavy dirty ingest with an oracle every batch.
    ChurnOracle,
    /// A closed-loop client against the serve daemon.
    ServeWal,
    /// The process fleet against the in-process sweep runner.
    SweepFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::StreamSim, Workload::ChurnOracle, Workload::ServeWal, Workload::SweepFleet];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamSim => "stream-sim",
            Workload::ChurnOracle => "churn-oracle",
            Workload::ServeWal => "serve-wal",
            Workload::SweepFleet => "sweep-fleet",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one operation and one latency sample are, for the result's
    /// detail line.
    pub fn units(self) -> (&'static str, &'static str) {
        match self {
            Workload::StreamSim => ("batch", "mean ingest_batch time of a round"),
            Workload::ChurnOracle => ("batch", "ingest_batch call"),
            Workload::ServeWal => {
                ("data line", "batch round trip, first line sent to snapshot reply")
            }
            Workload::SweepFleet => ("fleet cell", "fleet run of the whole grid"),
        }
    }

    /// The highest percentile `op_tail_ms` is read at, in tenths of a
    /// percent: the highest one with ten samples beyond it in every
    /// full-size run, so the percentile does not move with the host's
    /// speed (see [`stats::tail`]).
    pub fn tail_cap(self) -> usize {
        match self {
            // One sample per round, a few dozen rounds.
            Workload::StreamSim => 500,
            // 250 batches per round, thousands of batches.
            Workload::ChurnOracle => 990,
            // 8 round trips per round, a few hundred round trips.
            Workload::ServeWal => 900,
            // One sample per round, at least 40 rounds.
            Workload::SweepFleet => 750,
        }
    }
}

/// Input size: the benchmark's own, or the tests' tiny one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark size.
    Full,
    /// A seconds-long size for the benchmark's own tests.
    Tiny,
}

impl Scale {
    /// The scale's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Self> {
        [Scale::Full, Scale::Tiny].into_iter().find(|x| x.name() == s)
    }
}

/// Time split of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The whole set-up, up to the first timed operation.
    pub total: f64,
    /// Input generation.
    pub generate: f64,
    /// Session open (or, for the daemon, the hello that opens it).
    pub open: f64,
}

/// What one round did.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of the round's timed part.
    pub wall: f64,
    /// The time rates are taken over (the round's measured phase).
    pub timed: f64,
    /// Operations completed.
    pub ops: u64,
    /// Latency samples, ms.
    pub latencies_ms: Vec<f64>,
    /// Operations whose correctness gate failed.
    pub failed: u64,
    /// What failed, for stderr.
    pub failures: Vec<String>,
    /// Simulated counts of the round, keyed by [`SIMULATED`] names.
    pub simulated: BTreeMap<&'static str, u64>,
    /// Per-layer values measured outside spans (summed across rounds,
    /// except `*peak*` keys, which keep the maximum).
    pub layer: BTreeMap<&'static str, f64>,
}

/// A workload [`drive`] can run.
pub trait Bench {
    /// How many times to set up (the median is reported).
    fn setup_repeats(&self) -> usize;

    /// Sets up from scratch, replacing any earlier set-up.
    ///
    /// # Errors
    ///
    /// A set-up failure; the run cannot proceed.
    fn setup(&mut self, scratch: &mut ScratchRoot) -> Result<SetupTimes, String>;

    /// Runs round `index` of a phase, tracing it when `tracer` is given.
    /// Round `index` must do the same simulated work every time it runs;
    /// different rounds draw different inputs from the seed, so a run's
    /// medians average over many inputs.
    ///
    /// # Errors
    ///
    /// A failure that makes further rounds meaningless (gate failures are
    /// reported in the [`Round`] instead).
    fn round(
        &mut self,
        index: u64,
        scratch: &mut ScratchRoot,
        tracer: Option<&mut Tracer>,
    ) -> Result<Round, String>;

    /// Extra detail for the result's detail line (`(key, JSON value)`).
    fn detail(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

/// The run's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Whether to make the traced run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Gate failures, for stderr.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced rounds).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced rounds); empty without tracing.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The simulated counts of one round.
    pub fingerprint: BTreeMap<&'static str, u64>,
    /// `(key, JSON value)` pairs for the detail line.
    pub detail: Vec<(String, String)>,
    /// The traced run's spans.
    pub spans: Option<Tracer>,
}

/// FNV digest of a fingerprint's `key=value` lines.
pub fn fingerprint_digest(fp: &BTreeMap<&'static str, u64>) -> String {
    let mut h = Fnv::default();
    for (k, v) in fp {
        h.write(format!("{k}={v}\n").as_bytes());
    }
    format!("{:016x}", h.0)
}

/// Span name → per-layer metric for the self-time totals.
const SPAN_METRICS: [(&str, &str); 13] = [
    ("compose", "graph.compose_s"),
    (trace::SUBSTRATE, "graph.substrate_s"),
    (trace::SEED, "algos.seed_s"),
    (trace::ORACLE, "algos.oracle_s"),
    (trace::PROPAGATION, "engines.propagation_s"),
    ("finish", "engines.finish_s"),
    ("serve.hello", "serve.hello_s"),
    ("serve.send", "serve.send_s"),
    ("serve.flush", "serve.flush_rtt_s"),
    ("serve.snapshot", "serve.snapshot_rtt_s"),
    ("serve.finish", "serve.finish_s"),
    ("fleet.run", "fleet.run_s"),
    ("sweep.run", "sweep.run_s"),
];

/// Simulated accesses of a round.
fn accesses(r: &Round) -> f64 {
    r.simulated.get("sim.accesses").copied().unwrap_or(0) as f64
}

/// Runs rounds 0, 1, … until `budget` seconds are spent (at least one).
fn run_phase(
    bench: &mut dyn Bench,
    scratch: &mut ScratchRoot,
    budget: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    for index in 0.. {
        rounds.push(bench.round(index, scratch, tracer.as_deref_mut())?);
        if start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    Ok(rounds)
}

/// Runs `bench` under `settings`.
///
/// # Errors
///
/// A set-up or round failure that stopped the run.
pub fn drive(
    bench: &mut dyn Bench,
    settings: &Settings,
    scratch: &mut ScratchRoot,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    for _ in 0..bench.setup_repeats().max(1) {
        setups.push(bench.setup(scratch)?);
    }
    let untraced_budget = if settings.trace { settings.seconds / 2.0 } else { settings.seconds };
    let untraced = run_phase(bench, scratch, untraced_budget, None)?;
    let (traced, tracer) = if settings.trace {
        let mut tracer = Tracer::new();
        let phase = run_phase(bench, scratch, settings.seconds / 2.0, Some(&mut tracer))?;
        (Some(phase), Some(tracer))
    } else {
        (None, None)
    };

    let mut out = Outcome {
        fingerprint: untraced.first().map(|r| r.simulated.clone()).unwrap_or_default(),
        ..Outcome::default()
    };
    let phases = [Some(&untraced), traced.as_ref()];
    for (name, phase) in ["untraced", "traced"].into_iter().zip(phases.into_iter().flatten()) {
        for (i, r) in phase.iter().enumerate() {
            out.attempted += r.ops;
            let mut failed = r.failed;
            out.failures.extend(r.failures.iter().cloned());
            if name == "traced" && untraced.get(i).is_some_and(|u| u.simulated != r.simulated) {
                failed = r.ops;
                out.failures.push(format!("{name} round {i}: simulated counts differ"));
            }
            out.failed += failed;
        }
    }

    let setup_total: Vec<f64> = setups.iter().map(|s| s.total).collect();
    let latencies: Vec<f64> =
        untraced.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect();
    // Rates are medians of per-round rates, so a burst of host noise that
    // slows a few rounds does not move them.
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        stats::median(&untraced.iter().map(|r| f(r) / r.timed).collect::<Vec<_>>())
    };
    let tail = stats::tail(&latencies, settings.workload.tail_cap());
    out.end_to_end = BTreeMap::from([
        ("setup_s", stats::median(&setup_total)),
        ("peak_rss_mb", crate::host::peak_rss_mb()),
        ("sim_maccesses_per_s", per_round(&|r| accesses(r) / 1e6)),
        ("ops_per_s", per_round(&|r| r.ops as f64)),
        ("op_p50_ms", stats::median(&latencies)),
        ("op_tail_ms", tail.value),
    ]);
    let (op, sample) = settings.workload.units();
    out.detail.push(("operation".into(), crate::metrics::json_str(op)));
    out.detail.push(("latency_sample".into(), crate::metrics::json_str(sample)));
    out.detail.push(("op_tail_percentile".into(), crate::metrics::json_num(tail.percentile)));
    out.detail.push(("latency_samples".into(), tail.samples.to_string()));
    out.detail.push(("untraced_rounds".into(), untraced.len().to_string()));
    let rates: Vec<String> =
        untraced.iter().map(|r| format!("{:.4}", r.ops as f64 / r.timed)).collect();
    out.detail.push(("round_ops_per_s".into(), format!("[{}]", rates.join(", "))));
    let setup_list: Vec<String> = setup_total.iter().map(|t| format!("{t:.6}")).collect();
    out.detail.push(("setups_s".into(), format!("[{}]", setup_list.join(", "))));

    if let (Some(traced), Some(tracer)) = (traced, tracer) {
        out.per_layer = per_layer(&traced, &untraced, &setups, &tracer, out.failed, out.attempted);
        out.detail.push(("traced_rounds".into(), traced.len().to_string()));
        out.spans = Some(tracer);
    }
    out.detail.extend(bench.detail());
    Ok(out)
}

/// Span-derived per-layer propagation time per engine.
const ENGINE_METRICS: [(&str, &str); 2] = [
    ("ligra-o", "engines.propagation_s.ligra-o"),
    ("tdgraph-h", "engines.propagation_s.tdgraph-h"),
];

fn per_layer(
    traced: &[Round],
    untraced: &[Round],
    setups: &[SetupTimes],
    tracer: &Tracer,
    failed: u64,
    attempted: u64,
) -> BTreeMap<&'static str, f64> {
    let rounds = traced.len() as f64;
    let mut m: BTreeMap<&'static str, f64> =
        crate::metrics::PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let spans = tracer.spans();
    let totals = trace::self_time_by_name(spans, None);
    for (span, metric) in SPAN_METRICS {
        if let Some(t) = totals.get(span) {
            m.insert(metric, t / rounds);
        }
    }
    for (engine, metric) in ENGINE_METRICS {
        let by_engine = trace::self_time_by_name(spans, Some(engine));
        m.insert(metric, by_engine.get(trace::PROPAGATION).copied().unwrap_or(0.0) / rounds);
    }
    let batch_total: f64 =
        spans.iter().filter(|s| s.name == trace::BATCH).map(|s| s.end - s.start).sum();
    m.insert("engines.batch_s", batch_total / rounds);

    for r in traced {
        for (k, v) in &r.layer {
            let slot = m.entry(k).or_insert(0.0);
            if k.contains("peak") {
                *slot = slot.max(*v);
            } else {
                *slot += v / rounds;
            }
        }
    }
    if let Some(first) = traced.first() {
        for key in SIMULATED {
            m.insert(key, first.simulated.get(key).copied().unwrap_or(0) as f64);
        }
    }
    let timed: f64 = traced.iter().map(|r| r.timed).sum();
    let total: f64 = traced.iter().map(accesses).sum();
    m.insert("sim.host_ns_per_access", if total > 0.0 { timed / total * 1e9 } else { 0.0 });
    m.insert(
        "graph.generate_s",
        stats::median(&setups.iter().map(|s| s.generate).collect::<Vec<_>>()),
    );
    m.insert(
        "engines.session_open_s",
        stats::median(&setups.iter().map(|s| s.open).collect::<Vec<_>>()),
    );
    m.insert("failed_frac", if attempted > 0 { failed as f64 / attempted as f64 } else { 1.0 });
    // Rounds with the same index do the same work, so they pair up.
    let ratios: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t.wall / u.wall).collect();
    m.insert("obs.trace_overhead_frac", stats::median(&ratios) - 1.0);
    m
}
