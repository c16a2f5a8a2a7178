//! Determinism acceptance matrix for multi-lane parallel reduce.
//!
//! The reducer lanes partition the LLC and touch-index state by
//! cache-line key range, so every observable surface must stay
//! byte-identical to the serial walk across the whole matrix:
//!
//! * `SweepReport::canonical_lines`, the merged observability snapshot,
//!   and the verified fixpoints across {1, 2, 4} reducer lanes ×
//!   {1, 2} sweep host threads,
//! * the same surfaces for every registered engine (software baselines
//!   and every accelerator model) under a laned config,
//! * the wall-clock pipeline report, which must stay consistent with the
//!   configuration it describes without ever entering those surfaces.

use tdgraph::prelude::*;

const LANES: [usize; 3] = [1, 2, 4];
const HOST_THREADS: [usize; 2] = [1, 2];

fn base_spec() -> SweepSpec {
    SweepSpec::new()
        .dataset(Dataset::Amazon)
        .sizing(Sizing::Tiny)
        .engines([EngineKind::TdGraphH, EngineKind::LigraO, EngineKind::GraphBolt])
        .oracle_modes([OracleMode::Final])
        .tune(|o| {
            o.sim = SimConfig::small_test();
            o.batches = 2;
        })
}

/// One observed sweep of `spec` pinned to `exec`, at `threads` host
/// threads. Returns the three determinism surfaces: canonical report
/// lines, the merged snapshot's canonical rendering, and the per-cell
/// verified fixpoints (oracle verdict + full metrics).
fn run_pinned(spec: &SweepSpec, exec: ExecConfig, threads: usize) -> (String, String, Vec<String>) {
    let spec = spec.clone().tune(move |o| o.exec = exec);
    let report = SweepRunner::new().threads(threads).observe(true).run(&spec);
    report.assert_all_ok();
    let snapshot = report.obs.as_ref().expect("observe(true) fills the snapshot");
    let fixpoints = report
        .cells
        .iter()
        .map(|c| {
            let r = c.run_result().expect("ok cells carry their result");
            format!("{:?} {:?}", r.verify, r.metrics)
        })
        .collect();
    (report.canonical_lines(), snapshot.canonical_json_line(), fixpoints)
}

/// The headline acceptance criterion of the lane work: the full
/// {lanes} × {host threads} matrix is byte-identical to the serial walk on
/// every determinism surface.
#[test]
fn lane_matrix_is_byte_identical_to_serial() {
    let spec = base_spec();
    let serial = run_pinned(&spec, ExecConfig::serial(), 2);
    assert!(!serial.0.is_empty());
    for lanes in LANES {
        for threads in HOST_THREADS {
            let exec = ExecConfig::serial().shards(2).reduce_lanes(lanes);
            let run = run_pinned(&spec, exec, threads);
            assert_eq!(
                serial,
                run,
                "{} at {threads} sweep host threads diverged from serial",
                exec.label()
            );
        }
    }
}

/// Every registered engine — the software baselines and every
/// accelerator model — reaches the serial fixpoint and metrics under the
/// laned reduce.
#[test]
fn every_engine_matches_serial_under_laned_execution() {
    let laned = ExecConfig::serial().shards(2).reduce_lanes(4);
    for kind in EngineKind::ALL {
        let run = |exec: ExecConfig| {
            Experiment::new(Dataset::Amazon)
                .sizing(Sizing::Tiny)
                .tune(move |o| {
                    o.sim = SimConfig::small_test();
                    o.batches = 2;
                    o.exec = exec;
                })
                .run(kind)
        };
        let serial = run(ExecConfig::serial());
        let sharded = run(laned);
        assert!(serial.verify.is_match() || matches!(serial.verify, VerifyOutcome::Skipped));
        assert_eq!(
            format!("{:?}", serial.metrics),
            format!("{:?}", sharded.metrics),
            "{} metrics diverged under {}",
            kind.key(),
            laned.label()
        );
        assert_eq!(
            format!("{:?}", serial.verify),
            format!("{:?}", sharded.verify),
            "{} verdict diverged under {}",
            kind.key(),
            laned.label()
        );
    }
}

/// The wall-clock pipeline report rides next to the deterministic
/// surfaces and must describe the configuration that ran: lane count,
/// one reduce wall per lane, and byte totals consistent with the event
/// counts.
#[test]
fn pipeline_report_is_consistent_with_its_configuration() {
    for exec in [
        ExecConfig::serial().shards(2).reduce_lanes(2),
        ExecConfig::serial().shards(2).reduce_lanes(4),
    ] {
        let res = Experiment::new(Dataset::Amazon)
            .sizing(Sizing::Tiny)
            .tune(move |o| {
                o.sim = SimConfig::small_test();
                o.batches = 2;
                o.exec = exec;
            })
            .run(EngineKind::TdGraphH);
        let report = res.exec.expect("sharded runs carry a pipeline report");
        assert_eq!(report.reduce_lanes, exec.lanes());
        assert_eq!(report.reduce_wall.len(), exec.lanes());
        assert_eq!(report.touch_bytes, 8 * report.touch_events);
        assert_eq!(report.fill_bytes, 24 * report.fill_events);
        assert!(report.touch_events > 0, "the reference cell crosses the boundary");
    }
}
