//! The result line and the metric vocabulary of `BENCHMARK.json`.
//!
//! Every workload fills the same two structs, so all four print the same
//! metric names in the same order.

use crate::ledger::Layer;

/// One measured value.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one workload run produced.
pub struct RunResult {
    /// Every wrong output found; empty when the run is correct.
    pub problems: Vec<String>,
    /// Audits attempted.
    pub attempted: usize,
    /// Audits whose campaign failed.
    pub failed: usize,
    /// The end-to-end or the per-layer metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The metric names, in order.
    #[cfg(test)]
    pub fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|m| m.name.as_str()).collect()
    }
}

/// The end-to-end metrics of an untraced run.
pub struct EndToEnd {
    pub contracts_per_s: f64,
    pub contract_ms_p50: f64,
    pub contract_ms_p90: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub recall: f64,
    pub branches_per_contract: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("contracts_per_s", self.contracts_per_s, "1/s"),
            metric("contract_ms_p50", self.contract_ms_p50, "ms"),
            metric("contract_ms_p90", self.contract_ms_p90, "ms"),
            metric("setup_s", self.setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric("recall", self.recall, "ratio"),
            metric("branches_per_contract", self.branches_per_contract, "count"),
        ]
    }
}

/// The per-layer readings of a traced run. A reading of a layer that the
/// workload does not run, or cannot see, stays 0.
#[derive(Default)]
pub struct Layers {
    /// Busy seconds, indexed by [`Layer`].
    pub busy_s: [f64; Layer::ALL.len()],
    /// What the shares are shares of: the traced pass's wall time, or the
    /// worker-slot time of a multi-process sweep.
    pub share_of_s: f64,
    pub execute_calls: f64,
    pub ns_per_instr: f64,
    pub useful_ratio: f64,
    pub replay_records: f64,
    pub ns_per_record: f64,
    pub queries: f64,
    pub sat_ratio: f64,
    pub memo_hit_ratio: f64,
    pub fleet_hit_ratio: f64,
    pub trace_overhead: f64,
    /// Time inside campaigns, summed over workers.
    pub campaign_busy_s: f64,
    pub metrics_frames: f64,
    pub persist_save_s: f64,
    pub persist_load_s: f64,
    pub persist_entries: f64,
    pub journal_append_us: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for layer in Layer::ALL {
            let busy = self.busy_s[layer as usize];
            out.push(metric(format!("{}.busy_s", layer.name()), busy, "s"));
            out.push(metric(
                format!("{}.share", layer.name()),
                ratio(busy, self.share_of_s),
                "ratio",
            ));
        }
        out.extend([
            metric("chain.execute.calls", self.execute_calls, "count"),
            metric("chain.execute.ns_per_instr", self.ns_per_instr, "ns"),
            metric("engine.observe.useful_ratio", self.useful_ratio, "ratio"),
            metric("symex.replay.records", self.replay_records, "count"),
            metric("symex.replay.ns_per_record", self.ns_per_record, "ns"),
            metric("smt.solve.queries", self.queries, "count"),
            metric("smt.solve.sat_ratio", self.sat_ratio, "ratio"),
            metric("smt.solve.memo_hit_ratio", self.memo_hit_ratio, "ratio"),
            metric("smt.cache.fleet_hit_ratio", self.fleet_hit_ratio, "ratio"),
            metric("trace_overhead", self.trace_overhead, "ratio"),
            metric("fleet.campaign_busy_s", self.campaign_busy_s, "s"),
            metric(
                "fleet.overhead_share",
                1.0 - ratio(self.campaign_busy_s, self.share_of_s),
                "ratio",
            ),
            metric("fleet.metrics_frames", self.metrics_frames, "count"),
            metric("smt.persist.save_s", self.persist_save_s, "s"),
            metric("smt.persist.load_s", self.persist_load_s, "s"),
            metric("smt.persist.entries", self.persist_entries, "count"),
            metric("journal.append_us", self.journal_append_us, "us"),
        ]);
        out
    }
}
