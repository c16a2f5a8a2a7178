//! The metric catalogue and the result line.
//!
//! Every workload reports every metric below, so the names here are the
//! ones `BENCHMARK.json` lists. End-to-end metrics come from untraced
//! rounds; per-layer metrics from the traced run, normalised per round
//! (a round is the workload's fixed unit of work), with 0 for a layer the
//! workload does not exercise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_maccesses_per_s", "M/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("failed_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("graph.generate_s", "s"),
    ("engines.session_open_s", "s"),
    ("graph.compose_s", "s"),
    ("graph.substrate_s", "s"),
    ("algos.seed_s", "s"),
    ("algos.oracle_s", "s"),
    ("engines.batch_s", "s"),
    ("engines.propagation_s", "s"),
    ("engines.propagation_s.ligra-o", "s"),
    ("engines.propagation_s.tdgraph-h", "s"),
    ("engines.finish_s", "s"),
    ("sim.host_ns_per_access", "ns"),
    ("serve.hello_s", "s"),
    ("serve.send_s", "s"),
    ("serve.flush_rtt_s", "s"),
    ("serve.snapshot_rtt_s", "s"),
    ("serve.finish_s", "s"),
    ("serve.wal.fsyncs", "count"),
    ("serve.wal.appended_entries", "count"),
    ("serve.batches_size_closed", "count"),
    ("serve.batches_deadline_closed", "count"),
    ("serve.batches_flushed", "count"),
    ("serve.queue_peak_depth", "count"),
    ("fleet.run_s", "s"),
    ("fleet.overhead_ms_per_cell", "ms"),
    ("fleet.heartbeats", "count"),
    ("fleet.respawns", "count"),
    ("fleet.reclaims_expired", "count"),
    ("fleet.stale_results", "count"),
    ("fleet.cells_inline", "count"),
    ("sweep.run_s", "s"),
    ("sweep.cell_run_s", "s"),
    ("sweep.cells_per_s", "1/s"),
    ("sim.accesses", "count"),
    ("sim.llc_misses", "count"),
    ("sim.dram_bytes", "bytes"),
    ("run.cycles", "cycles"),
    ("updates.state_writes", "count"),
    ("updates.useful", "count"),
    ("updates.edges_processed", "count"),
    ("quarantine.total", "count"),
    ("oracle.checks", "count"),
];

/// The simulated counts of the fingerprint (a subset of [`PER_LAYER`]).
pub const SIMULATED: [&str; 9] = [
    "sim.accesses",
    "sim.llc_misses",
    "sim.dram_bytes",
    "run.cycles",
    "updates.state_writes",
    "updates.useful",
    "updates.edges_processed",
    "quarantine.total",
    "oracle.checks",
];

/// A JSON number: finite values as Rust prints them (shortest exact
/// form), anything else as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal (the names and labels here need no escapes
/// beyond quotes and backslashes).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics` in
/// catalogue order. A catalogue metric missing from `values` is an error.
///
/// # Errors
///
/// The name of the first catalogue metric `values` lacks.
pub fn result_line(
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for key in SIMULATED {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == key), "{key} not a per-layer metric");
        }
    }

    #[test]
    fn result_line_lists_metrics_in_order() {
        let values = BTreeMap::from([("a", 1.5), ("b", 2.0)]);
        let line = result_line(&[("b", "s"), ("a", "ms")], &values, 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 2.0, \"unit\": \"s\"}, \"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(&[("c", "s")], &values, 1, 0).is_err());
        assert!(result_line(&[("a", "s")], &values, 1, 1).unwrap().contains("\"correct\": false"));
    }
}
