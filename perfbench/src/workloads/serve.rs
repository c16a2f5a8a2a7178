//! `serve-wal`: one `ServeClient` in a closed loop against an in-process
//! `TdServer` that logs every tenant to a fresh WAL directory.
//!
//! A round is one tenant's life: hello, then per batch the composed update
//! lines, `flush` and `snapshot` (the only completion signal, since data
//! lines are not acknowledged), then `finish`. Round `r`'s tenant streams
//! a schedule composed from the seed and `r`. The session keeps the service defaults (Amazon
//! Tiny, hub SSSP, ligra-o, 256-entry batches) except the latency
//! deadline, which is raised so that only the client's flushes close
//! batches: batch boundaries, and with them every simulated count, then
//! repeat exactly. Each finish reply must be byte-identical to an offline
//! `RunSource::Recorded` replay of the schedule it returns.

use std::time::{Duration, Instant};

use tdgraph::graph::wire::{format_update_line, RecordedSchedule};
use tdgraph::prelude::{
    keys, registry_with_defaults, BatchComposer, EngineRegistry, MemoryRecorder, RunSource,
    ServeClient, Service, ServiceConfig, SessionConfig, Snapshot, StreamingWorkload, TdServer,
    TenantOutcome, TenantReport,
};
use tdgraph::serve::render_report;

use super::session::{derive_seed, simulated};
use super::{Bench, Round, Scale, SetupTimes};
use crate::scratch::{ScratchDir, ScratchRoot};
use crate::trace::{spanned, Tracer};

/// Service counters reported per round (deltas across the round).
const STAT_COUNTERS: [&str; 5] = [
    keys::SERVE_WAL_FSYNCS,
    keys::SERVE_WAL_APPENDED_ENTRIES,
    keys::SERVE_BATCHES_SIZE_CLOSED,
    keys::SERVE_BATCHES_DEADLINE_CLOSED,
    keys::SERVE_BATCHES_FLUSHED,
];

/// The serve-wal workload.
pub struct ServeBench {
    seed: u64,
    batches: usize,
    lines_per_batch: usize,
    repeats: usize,
    session: SessionConfig,
    registry: EngineRegistry,
    /// The schedule of round `.0`: update lines per batch.
    schedule: (u64, Vec<Vec<String>>),
    client: Option<ServeClient>,
    server: Option<TdServer>,
    wal: Option<ScratchDir>,
    tenants: u64,
}

impl ServeBench {
    /// The serve-wal bench.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (batches, lines_per_batch, repeats) =
            if scale == Scale::Tiny { (2, 32, 2) } else { (8, 128, 5) };
        Self {
            seed,
            batches,
            lines_per_batch,
            repeats,
            session: SessionConfig::default().with_batch_deadline(Duration::from_secs(30)),
            registry: registry_with_defaults(),
            schedule: (0, Vec::new()),
            client: None,
            server: None,
            wal: None,
            tenants: 0,
        }
    }

    fn workload(&self) -> Result<StreamingWorkload, String> {
        StreamingWorkload::try_prepare(self.session.dataset, self.session.sizing)
            .map_err(|e| e.to_string())
    }

    /// Composes round `index`'s schedule against a local copy of the graph.
    fn compose(&self, index: u64) -> Result<Vec<Vec<String>>, String> {
        let workload = self.workload()?;
        let mut graph = workload.graph;
        let seed = derive_seed(derive_seed(self.seed, 4), index);
        let mut composer = BatchComposer::new(workload.pending, 0.5, seed);
        let mut schedule = Vec::with_capacity(self.batches);
        for index in 0..self.batches {
            let batch = composer
                .next_batch(self.lines_per_batch, &graph.edges_vec())
                .ok_or_else(|| format!("composer ran dry at batch {index}"))?;
            graph.apply_batch(&batch).map_err(|e| e.to_string())?;
            schedule.push(batch.updates().iter().map(format_update_line).collect());
        }
        Ok(schedule)
    }

    fn connect(&mut self) -> Result<(), String> {
        let addr = self.server.as_ref().ok_or("no server: set-up did not run")?.addr();
        let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
        self.tenants += 1;
        client.hello(&format!("t{}", self.tenants)).map_err(|e| e.to_string())?;
        self.client = Some(client);
        Ok(())
    }

    fn stop(&mut self) {
        self.client = None;
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
        self.wal = None;
    }

    /// Renders an offline replay of the schedule a finish reply carries,
    /// as the daemon renders its own report.
    fn replay(
        &self,
        tenant: &str,
        reply: &[String],
    ) -> Result<(Vec<String>, TenantReport), String> {
        if reply.len() < 2 {
            return Err(format!("finish reply too short: {reply:?}"));
        }
        let schedule = RecordedSchedule::from_jsonl(&reply[1..reply.len() - 1].join("\n"))?;
        let workload = self.workload()?;
        let algo = self.session.algo.resolve(workload.hub_vertex());
        let mut engine =
            self.registry.try_build(&self.session.engine).map_err(|e| e.to_string())?;
        let mut recorder = MemoryRecorder::default();
        let source = RunSource::Recorded { workload, schedule: schedule.clone() };
        let result = self
            .session
            .run
            .run_observed(engine.as_mut(), algo, source, &mut recorder)
            .map_err(|e| e.to_string())?;
        let report = TenantReport {
            tenant: tenant.to_string(),
            engine: self.session.engine.clone(),
            algo: algo.name().to_string(),
            result: Ok(result),
            schedule,
            snapshot: recorder.into_snapshot(),
            queue_peak: 0,
            outcome: TenantOutcome::Completed,
        };
        let mut lines = render_report(&report);
        lines.pop(); // the end marker, which `ServeClient::finish` strips
        Ok((lines, report))
    }

    fn stats(&self) -> Snapshot {
        self.server.as_ref().map(|s| s.service().stats()).unwrap_or_default()
    }
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Bench for ServeBench {
    fn setup_repeats(&self) -> usize {
        self.repeats
    }

    fn setup(&mut self, scratch: &mut ScratchRoot) -> Result<SetupTimes, String> {
        self.stop();
        let start = Instant::now();
        self.schedule = (0, self.compose(0)?);
        let generate = start.elapsed().as_secs_f64();
        let wal = scratch.fresh("wal").map_err(|e| e.to_string())?;
        let cfg = ServiceConfig::new()
            .with_wal_dir(wal.path())
            .with_session_defaults(self.session.clone());
        let service = Service::new(cfg, registry_with_defaults()).map_err(|e| e.to_string())?;
        let server = TdServer::bind(service, "127.0.0.1:0").map_err(|e| e.to_string())?;
        self.server = Some(server);
        self.wal = Some(wal);
        let opened = Instant::now();
        self.connect()?;
        let open = opened.elapsed().as_secs_f64();
        // One flush and snapshot exchange confirms the session is serving
        // (flushing the empty batch former records nothing).
        let client = self.client.as_mut().ok_or("no client")?;
        client.flush().map_err(|e| e.to_string())?;
        client.snapshot().map_err(|e| e.to_string())?;
        Ok(SetupTimes { total: start.elapsed().as_secs_f64(), generate, open })
    }

    fn round(
        &mut self,
        index: u64,
        _scratch: &mut ScratchRoot,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Round, String> {
        if self.schedule.0 != index {
            self.schedule = (index, self.compose(index)?);
        }
        let before = self.stats();
        let start = Instant::now();
        let mut round = Round::default();
        if self.client.is_none() {
            spanned(&mut tracer, "serve.hello", || self.connect())?;
        }
        let tenant = format!("t{}", self.tenants);
        let mut client = self.client.take().ok_or("no client")?;
        for (batch, lines) in self.schedule.1.iter().enumerate() {
            if let Some(t) = tracer.as_deref_mut() {
                t.set_context(batch as u64, "");
            }
            let t0 = Instant::now();
            let span = tracer.as_deref_mut().map(|t| t.enter("serve.batch"));
            spanned(&mut tracer, "serve.send", || {
                lines.iter().try_for_each(|line| client.send_line(line))
            })
            .map_err(|e| e.to_string())?;
            spanned(&mut tracer, "serve.flush", || client.flush()).map_err(|e| e.to_string())?;
            spanned(&mut tracer, "serve.snapshot", || client.snapshot())
                .map_err(|e| e.to_string())?;
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.exit(s);
            }
            round.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            round.ops += lines.len() as u64;
        }
        let reply =
            spanned(&mut tracer, "serve.finish", || client.finish()).map_err(|e| e.to_string())?;
        round.timed = start.elapsed().as_secs_f64();
        round.wall = round.timed;
        drop(client);

        match self.replay(&tenant, &reply) {
            Ok((offline, report)) => {
                if offline != reply {
                    round.failed = round.ops;
                    round
                        .failures
                        .push(format!("{tenant}: finish reply differs from offline replay"));
                }
                if let Ok(result) = &report.result {
                    if !result.verify.is_match() {
                        round.failed = round.ops;
                        round.failures.push(format!("{tenant}: verify {:?}", result.verify));
                    }
                    round.simulated = simulated(result).into_iter().collect();
                }
            }
            Err(e) => {
                round.failed = round.ops;
                round.failures.push(format!("{tenant}: replay failed: {e}"));
            }
        }
        let after = self.stats();
        for key in STAT_COUNTERS {
            round.layer.insert(key, after.counter(key).saturating_sub(before.counter(key)) as f64);
        }
        let peak = after.histogram(keys::SERVE_QUEUE_PEAK_DEPTH).map_or(0, |h| h.max);
        round.layer.insert(keys::SERVE_QUEUE_PEAK_DEPTH, peak as f64);
        Ok(round)
    }

    fn detail(&self) -> Vec<(String, String)> {
        vec![
            ("tenant_batches".to_string(), self.batches.to_string()),
            ("lines_per_batch".to_string(), self.lines_per_batch.to_string()),
            ("tenants".to_string(), self.tenants.to_string()),
        ]
    }
}
