//! `sweep-fleet`: a grid of tiny cells run by the in-process
//! `SweepRunner` and by `run_fleet` over worker processes.
//!
//! A round runs the grid twice — `SweepRunner` with two threads, then
//! `run_fleet` with two workers re-executing this binary
//! (`SelfExecSpawner`) and its checkpoint and lease log in a fresh
//! directory — and requires the fleet's canonical lines and merged
//! observability snapshot to be byte-identical to the in-process run.
//! The in-process run is the baseline that isolates the fleet layer.

use std::time::{Duration, Instant};

use tdgraph::prelude::{
    keys, run_fleet, run_worker, Dataset, FleetConfig, FleetStats, SelfExecSpawner, Sizing,
    SweepReport, SweepRunner, SweepSpec, WorkerDirective,
};

use super::session::derive_seed;
use super::{Bench, Round, Scale, SetupTimes};
use crate::scratch::ScratchRoot;
use crate::trace::{spanned, Tracer};

/// Worker-process count, and the in-process runner's thread count.
const WORKERS: u32 = 2;

/// Which grid a worker must expand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The one-cell grid of the set-up's fleet start.
    Warmup,
    /// The measured grid.
    Main,
}

impl Grid {
    fn name(self) -> &'static str {
        match self {
            Grid::Warmup => "warmup",
            Grid::Main => "main",
        }
    }

    /// Parses a grid name.
    pub fn parse(s: &str) -> Option<Self> {
        [Grid::Warmup, Grid::Main].into_iter().find(|g| g.name() == s)
    }
}

/// The sweep spec of `grid` in round `round`: Amazon and DBLP Tiny ×
/// {ligra-o, tdgraph-h} × run seeds drawn from the workload seed and the
/// round (one seed at tiny scale); the warm-up grid is its first cell.
pub fn spec(grid: Grid, scale: Scale, seed: u64, round: u64) -> SweepSpec {
    let seeds = if scale == Scale::Tiny { 1 } else { 2 };
    let round_seed = derive_seed(derive_seed(seed, 5), round);
    let base = SweepSpec::new().sizing(Sizing::Tiny).hub_sssp().engine_named("ligra-o");
    match grid {
        Grid::Warmup => base.datasets([Dataset::Amazon]).seeds([round_seed]),
        Grid::Main => base
            .datasets([Dataset::Amazon, Dataset::Dblp])
            .engine_named("tdgraph-h")
            .seeds((0..seeds).map(|i| derive_seed(round_seed, i))),
    }
}

/// Worker mode: serves the coordinator at `connect` until drained.
///
/// # Errors
///
/// A local set-up failure of the worker.
pub fn worker(
    grid: Grid,
    scale: Scale,
    seed: u64,
    round: u64,
    connect: &str,
    worker_id: u32,
    heartbeat: Duration,
) -> Result<(), String> {
    run_worker(
        &spec(grid, scale, seed, round),
        connect,
        worker_id,
        heartbeat,
        WorkerDirective::Clean,
    )
    .map_err(|e| e.to_string())
}

/// The sweep-fleet workload.
pub struct FleetBench {
    scale: Scale,
    seed: u64,
    cells: usize,
}

impl FleetBench {
    /// The sweep-fleet bench.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self { scale, seed, cells: spec(Grid::Main, scale, seed, 0).cell_count() }
    }

    fn fleet(
        &self,
        grid: Grid,
        round: u64,
        scratch: &mut ScratchRoot,
    ) -> Result<(SweepReport, FleetStats), String> {
        let dir = scratch.fresh("fleet").map_err(|e| e.to_string())?;
        let cfg = FleetConfig::default()
            .workers(WORKERS)
            .observe(true)
            .checkpoint_to(dir.path().join("sweep.ckpt"));
        let mut spawner = SelfExecSpawner::new(vec![
            "--fleet-worker".to_string(),
            "--grid".to_string(),
            grid.name().to_string(),
            "--scale".to_string(),
            self.scale.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--round".to_string(),
            round.to_string(),
        ]);
        let spec = spec(grid, self.scale, self.seed, round);
        let outcome = run_fleet(&spec, &cfg, &mut spawner).map_err(|e| e.to_string())?;
        Ok((outcome.report, outcome.stats))
    }
}

fn sum_wall(report: &SweepReport) -> f64 {
    report.cells.iter().map(|c| c.wall.as_secs_f64()).sum()
}

impl Bench for FleetBench {
    fn setup_repeats(&self) -> usize {
        5
    }

    fn setup(&mut self, scratch: &mut ScratchRoot) -> Result<SetupTimes, String> {
        let start = Instant::now();
        let (report, _) = self.fleet(Grid::Warmup, 0, scratch)?;
        if !report.all_ok() {
            return Err(format!("fleet start failed:\n{}", report.failure_digest()));
        }
        Ok(SetupTimes { total: start.elapsed().as_secs_f64(), generate: 0.0, open: 0.0 })
    }

    fn round(
        &mut self,
        index: u64,
        scratch: &mut ScratchRoot,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Round, String> {
        let mut round = Round::default();
        let runner = SweepRunner::new().threads(WORKERS as usize).observe(true);
        let spec = spec(Grid::Main, self.scale, self.seed, index);
        let (sweep, sweep_wall) = spanned(&mut tracer, "sweep.run", || {
            let t0 = Instant::now();
            (runner.run(&spec), t0.elapsed().as_secs_f64())
        });
        let ((fleet, stats), fleet_wall) = spanned(&mut tracer, "fleet.run", || {
            let t0 = Instant::now();
            self.fleet(Grid::Main, index, scratch).map(|r| (r, t0.elapsed().as_secs_f64()))
        })?;

        round.wall = sweep_wall + fleet_wall;
        round.timed = fleet_wall;
        round.ops = self.cells as u64;
        round.latencies_ms.push(fleet_wall * 1e3);

        let obs_line = |r: &SweepReport| r.obs.as_ref().map(|s| s.canonical_json_line());
        let mut failures = Vec::new();
        if !(sweep.all_ok() && sweep.all_verified()) {
            failures.push(format!("in-process sweep failed:\n{}", sweep.failure_digest()));
        }
        if !(fleet.all_ok() && fleet.all_verified()) {
            failures.push(format!("fleet sweep failed:\n{}", fleet.failure_digest()));
        }
        if fleet.canonical_lines() != sweep.canonical_lines() {
            failures.push("fleet canonical lines differ from the in-process sweep".to_string());
        }
        if obs_line(&fleet).is_none() || obs_line(&fleet) != obs_line(&sweep) {
            failures.push("fleet merged snapshot differs from the in-process sweep".to_string());
        }
        if !failures.is_empty() {
            round.failed = round.ops;
            round.failures = failures;
        }

        if let Some(obs) = &fleet.obs {
            for key in crate::metrics::SIMULATED {
                round.simulated.insert(key, obs.counter(key));
            }
        }
        let cells = self.cells as f64;
        let sweep_run = sum_wall(&sweep);
        round.layer.insert(
            "fleet.overhead_ms_per_cell",
            (f64::from(WORKERS) * fleet_wall - sweep_run) / cells * 1e3,
        );
        round.layer.insert("sweep.cell_run_s", sweep_run);
        round.layer.insert("sweep.cells_per_s", cells / sweep_wall);
        round.layer.insert(keys::FLEET_HEARTBEATS, stats.heartbeats as f64);
        round.layer.insert(keys::FLEET_RESPAWNS, stats.respawns as f64);
        round.layer.insert(keys::FLEET_RECLAIMS_EXPIRED, stats.reclaims_expired as f64);
        round.layer.insert(keys::FLEET_STALE_RESULTS, stats.stale_results as f64);
        round.layer.insert(keys::FLEET_CELLS_INLINE, stats.cells_inline as f64);
        Ok(round)
    }

    fn detail(&self) -> Vec<(String, String)> {
        vec![
            ("grid_cells".to_string(), self.cells.to_string()),
            ("workers".to_string(), WORKERS.to_string()),
        ]
    }
}
