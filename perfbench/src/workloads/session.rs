//! `stream-sim` and `churn-oracle`: streaming sessions driven batch by
//! batch through `StreamingSession::{new, ingest_batch, finish}`.
//!
//! A round runs every cell once from a fresh session over the dataset
//! profile's graph, so the modelled caches start empty at each cell's
//! first batch. Batches come from a `BatchComposer` seeded from the
//! workload seed and the round index, so a run averages over many
//! distinct batches while round `r` of a seed always does the same work;
//! churn-oracle also damages them with a seeded `FaultPlan` and ingests
//! leniently, as `RunConfig::run` does.

use std::time::Instant;

use tdgraph::prelude::{
    registry_with_defaults, Algo, BatchComposer, Dataset, EngineRegistry, FaultPlan, IngestMode,
    NullRecorder, OracleMode, Recorder, RunConfig, RunResult, SimConfig, Sizing, StreamingSession,
    StreamingWorkload,
};

use super::{Bench, Round, Scale, SetupTimes, Workload};
use crate::metrics::json_str;
use crate::scratch::ScratchRoot;
use crate::trace::{self, spanned, Tracer};

/// SplitMix64 of `seed` and `salt`: independent seeds for each generated
/// input from the one workload seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy)]
enum AlgoSel {
    HubSssp,
    PageRank,
}

#[derive(Debug, Clone)]
struct Cell {
    engine: &'static str,
    algo: AlgoSel,
    cfg: RunConfig,
}

/// A session workload: one generated graph and the cells run over it.
pub struct SessionBench {
    dataset: Dataset,
    sizing: Sizing,
    cells: Vec<Cell>,
    batches: usize,
    repeats: usize,
    registry: EngineRegistry,
    workload: Option<StreamingWorkload>,
    /// Sessions opened by the last set-up, used by the first round.
    ready: Vec<StreamingSession>,
}

impl SessionBench {
    /// The session bench for `kind` (stream-sim or churn-oracle).
    pub fn new(kind: Workload, scale: Scale, seed: u64) -> Self {
        let tiny = scale == Scale::Tiny;
        let sizing = if tiny { Sizing::Tiny } else { Sizing::Small };
        let base = RunConfig { sim: SimConfig::scaled_reference(), ..RunConfig::default() }
            .with_seed(derive_seed(seed, 2));
        let (dataset, cells, batches, repeats) = if kind == Workload::ChurnOracle {
            let fault = FaultPlan::seeded(derive_seed(seed, 3))
                .with_nan_weights(0.02)
                .with_out_of_range_ids(0.02)
                .with_duplicate_edges(0.02)
                .with_absent_deletions(0.5);
            let cfg = base
                .with_batch_size(64)
                .with_add_fraction(0.4)
                .with_ingest(IngestMode::Lenient)
                .with_fault_plan(fault)
                .with_oracle(OracleMode::EveryNBatches(1));
            let cells = vec![Cell { engine: "ligra-o", algo: AlgoSel::HubSssp, cfg }];
            (Dataset::Orkut, cells, if tiny { 10 } else { 250 }, 9)
        } else {
            let mut cells = Vec::new();
            for algo in [AlgoSel::HubSssp, AlgoSel::PageRank] {
                for engine in ["ligra-o", "tdgraph-h"] {
                    cells.push(Cell { engine, algo, cfg: base.clone() });
                }
            }
            (Dataset::Friendster, cells, if tiny { 1 } else { 2 }, 9)
        };
        Self {
            dataset,
            sizing,
            cells,
            batches,
            repeats,
            registry: registry_with_defaults(),
            workload: None,
            ready: Vec::new(),
        }
    }

    fn open(&self, cell: &Cell) -> Result<StreamingSession, String> {
        let workload = self.workload.clone().ok_or("no workload: set-up did not run")?;
        let algo = match cell.algo {
            AlgoSel::HubSssp => Algo::sssp(workload.hub_vertex()),
            AlgoSel::PageRank => Algo::pagerank(),
        };
        StreamingSession::new(algo, workload, cell.cfg.clone()).map_err(|e| e.to_string())
    }
}

/// The simulated counts of a finished session.
pub(crate) fn simulated(result: &RunResult) -> [(&'static str, u64); 9] {
    let m = &result.metrics;
    [
        ("sim.accesses", m.machine.accesses),
        ("sim.llc_misses", m.machine.llc_misses),
        ("sim.dram_bytes", m.dram_bytes),
        ("run.cycles", m.cycles),
        ("updates.state_writes", m.state_updates),
        ("updates.useful", m.useful_updates),
        ("updates.edges_processed", m.edges_processed),
        ("quarantine.total", result.quarantine.total()),
        ("oracle.checks", result.oracle.checks),
    ]
}

impl Bench for SessionBench {
    fn setup_repeats(&self) -> usize {
        self.repeats
    }

    fn setup(&mut self, _scratch: &mut ScratchRoot) -> Result<SetupTimes, String> {
        self.ready.clear();
        let start = Instant::now();
        self.workload = Some(
            StreamingWorkload::try_prepare(self.dataset, self.sizing)
                .map_err(|e| format!("generating {:?}: {e}", self.dataset))?,
        );
        let generate = start.elapsed().as_secs_f64();
        let opened = Instant::now();
        // Opened in reverse so the first round pops them in cell order.
        let mut ready = Vec::new();
        for cell in self.cells.iter().rev() {
            ready.push(self.open(cell)?);
        }
        self.ready = ready;
        let open = opened.elapsed().as_secs_f64();
        Ok(SetupTimes { total: start.elapsed().as_secs_f64(), generate, open })
    }

    fn round(
        &mut self,
        index: u64,
        _scratch: &mut ScratchRoot,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Round, String> {
        let round_start = Instant::now();
        let mut round = Round::default();
        let mut null = NullRecorder;
        let mut batch_id = 0u64;
        let mut batch_ms = Vec::new();
        for cell in self.cells.clone() {
            if let Some(t) = tracer.as_deref_mut() {
                t.set_context(batch_id, cell.engine);
            }
            let mut session = match self.ready.pop() {
                Some(s) => s,
                None => match tracer.as_deref_mut() {
                    Some(t) => t.scope("session.open", |_| self.open(&cell))?,
                    None => self.open(&cell)?,
                },
            };
            let mut engine = self.registry.try_build(cell.engine).map_err(|e| e.to_string())?;
            let vertices = session.vertex_count();
            let mut composer = BatchComposer::new(
                session.take_pending(),
                cell.cfg.add_fraction,
                derive_seed(cell.cfg.seed, index),
            );
            let phase = Instant::now();
            let mut cell_failed = None;
            for batch in 0..self.batches {
                let fault_index = index * self.batches as u64 + batch as u64;
                batch_id += 1;
                if let Some(t) = tracer.as_deref_mut() {
                    t.set_context(batch_id, cell.engine);
                }
                let raw = spanned(&mut tracer, "compose", || {
                    let present = session.present_edges();
                    composer.next_batch(session.batch_size(), &present).map(|composed| {
                        cell.cfg.fault_plan.corrupt_updates(
                            fault_index,
                            composed.updates(),
                            vertices,
                        )
                    })
                });
                let Some(raw) = raw else {
                    cell_failed =
                        Some(format!("{}: composer ran dry at batch {batch}", cell.engine));
                    break;
                };
                let span = tracer.as_deref_mut().map(|t| {
                    let b = t.enter(trace::BATCH);
                    t.enter(trace::SUBSTRATE);
                    b
                });
                let rec: &mut dyn Recorder = match tracer.as_deref_mut() {
                    Some(t) => t,
                    None => &mut null,
                };
                let t0 = Instant::now();
                let ingested = session.ingest_batch(engine.as_mut(), raw, rec);
                batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if let (Some(t), Some(b)) = (tracer.as_deref_mut(), span) {
                    t.exit(b);
                }
                round.ops += 1;
                if let Err(e) = ingested {
                    cell_failed = Some(format!("{}: batch {batch}: {e}", cell.engine));
                    break;
                }
            }
            let result = match tracer.as_deref_mut() {
                Some(t) => t.scope("finish", |t| session.finish(engine.as_ref(), t)),
                None => session.finish(engine.as_ref(), &mut null),
            };
            round.timed += phase.elapsed().as_secs_f64();
            if cell_failed.is_none() && !(result.verify.is_match() && result.oracle.mismatches == 0)
            {
                cell_failed = Some(format!(
                    "{} {:?}: verify {:?}, {} oracle mismatches",
                    cell.engine, cell.algo, result.verify, result.oracle.mismatches
                ));
            }
            if let Some(why) = cell_failed {
                round.failed += self.batches as u64;
                round.failures.push(why);
            }
            for (key, v) in simulated(&result) {
                *round.simulated.entry(key).or_insert(0) += v;
            }
        }
        round.wall = round_start.elapsed().as_secs_f64();
        round.latencies_ms = if self.cells.len() > 1 {
            // Batch times of different cells form separate clusters, and a
            // percentile at a cluster boundary flips with noise: one
            // sample per round (its mean batch time) keeps the median
            // steady.
            vec![batch_ms.iter().sum::<f64>() / batch_ms.len().max(1) as f64]
        } else {
            batch_ms
        };
        Ok(round)
    }

    fn detail(&self) -> Vec<(String, String)> {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| json_str(&format!("{:?}/{:?}/{}", self.dataset, c.algo, c.engine)))
            .collect();
        let mut out = vec![
            ("cells".to_string(), format!("[{}]", cells.join(", "))),
            ("batches_per_cell_per_round".to_string(), self.batches.to_string()),
        ];
        if let Some(w) = &self.workload {
            out.push(("graph_vertices".to_string(), w.graph.vertex_count().to_string()));
            out.push(("graph_loaded_edges".to_string(), w.graph.edge_count().to_string()));
        }
        out
    }
}
