//! Fuzzer configuration.

use crate::clock::CostModel;

/// Tunables of one fuzzing campaign (§4's experimental setup: 5-minute
/// timeout, bounded SMT solving).
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Virtual time budget in microseconds (default: 5 minutes, §4).
    pub timeout_us: u64,
    /// SMT conflict budget per query (the 3,000 ms cap stand-in).
    pub smt_budget: wasai_smt::Budget,
    /// Maximum flip queries solved per fuzzing iteration.
    pub max_queries_per_iter: usize,
    /// Stop early after this many iterations without new coverage and no
    /// unattempted flip targets (the series is padded to the timeout).
    pub stall_iters: u64,
    /// RNG seed — campaigns are fully deterministic.
    pub rng_seed: u64,
    /// Virtual-time cost model.
    pub cost: CostModel,
    /// Enable the concolic feedback loop (§3.4). Disabling it degrades the
    /// engine to random fuzzing with WASAI's oracles — the ablation that
    /// isolates how much of the accuracy/coverage story the solver carries.
    pub feedback: bool,
    /// Cooperative wall-clock watchdog. Every long-running stage (engine
    /// iterations, symbolic replay, SMT search) checks this deadline and
    /// degrades to a partial, `truncated` report when it fires. The default
    /// [`wasai_smt::Deadline::NONE`] never expires, keeping campaigns fully
    /// deterministic.
    pub deadline: wasai_smt::Deadline,
    /// Enable the solver reuse layer: the per-campaign query memo cache
    /// (plus the fleet-wide cache when one is attached). Reuse gates only
    /// the cache lookups and stores; every miss is one from-scratch
    /// `wasai_smt::check`. Reuse is observationally pure — reports and
    /// traces (modulo the `cache_hit`/`incremental` tags) are byte-identical
    /// either way — so disabling it is only useful as the reference arm.
    pub smt_reuse: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            timeout_us: 300_000_000,
            smt_budget: wasai_smt::Budget::conflicts(20_000),
            max_queries_per_iter: 4,
            stall_iters: 60,
            rng_seed: 0xa5a5_5a5a,
            cost: CostModel::default(),
            feedback: true,
            deadline: wasai_smt::Deadline::NONE,
            smt_reuse: true,
        }
    }
}

impl FuzzConfig {
    /// A fast configuration for unit tests: short budget, early stalls.
    pub fn quick() -> Self {
        FuzzConfig {
            timeout_us: 30_000_000,
            stall_iters: 30,
            ..FuzzConfig::default()
        }
    }
}
