//! The sharded, lock-free metrics registry.
//!
//! Every metric series is enumerated at compile time ([`Counter`],
//! [`Gauge`], [`Histogram`]) so the storage is a handful of fixed atomic
//! arrays — no allocation, no locking, no hashing on the write path. Writes
//! land in a per-thread shard ([`SHARDS`] cache-line-padded `AtomicU64`s per
//! counter) with `Relaxed` ordering; reads sum the shards. A disabled
//! registry short-circuits every write after one relaxed boolean load, which
//! is what makes the instrumentation affordable to leave compiled into the
//! hot paths of the engine, the solver and the interpreter.
//!
//! The registry is **write-only telemetry**: nothing in the analysis ever
//! reads it back, so enabling or disabling observability cannot perturb
//! reports, traces, or seed schedules (see the crate docs for the
//! determinism contract).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Write shards per counter/histogram cell. Each thread picks one shard
/// (round-robin at first use) and keeps it, so concurrent writers touch
/// different cache lines.
pub const SHARDS: usize = 8;

/// One cache-line-padded atomic cell, so neighboring shards never false-share.
#[repr(align(64))]
#[derive(Debug)]
pub(crate) struct Shard(pub(crate) AtomicU64);

impl Shard {
    // Array-repeat initializer, never read as a const.
    #[allow(clippy::declare_interior_mutable_const)]
    pub(crate) const ZERO: Shard = Shard(AtomicU64::new(0));
}

type ShardRow = [Shard; SHARDS];

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: ShardRow = [Shard::ZERO; SHARDS];

/// The thread's shard index, assigned round-robin on first use.
fn my_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

macro_rules! metric_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vmeta])* $variant),+
        }

        impl $name {
            /// Every series, in exposition order (same-family series are
            /// adjacent so HELP/TYPE headers are emitted once per family).
            pub const ALL: &'static [$name] = &[$($name::$variant),+];
            /// Number of series.
            pub const COUNT: usize = $name::ALL.len();
        }
    };
}

metric_enum! {
    /// Every counter series the registry tracks. Families with labels
    /// (e.g. `wasai_campaigns_total{outcome=…}`) enumerate one variant per
    /// label value.
    Counter {
        /// `wasai_campaigns_total{outcome="ok"}`
        CampaignsOk,
        /// `wasai_campaigns_total{outcome="failed"}`
        CampaignsFailed,
        /// `wasai_campaigns_total{outcome="panicked"}`
        CampaignsPanicked,
        /// `wasai_campaigns_total{outcome="timed-out"}`
        CampaignsTimedOut,
        /// `wasai_campaigns_total{outcome="crashed"}` — supervised-mode
        /// campaigns lost with a worker process after retries were
        /// exhausted.
        CampaignsCrashed,
        /// `wasai_worker_restarts_total` — worker processes re-dispatched by
        /// the supervisor after a death or stall.
        WorkerRestarts,
        /// `wasai_journal_records_total` — campaign outcomes appended to the
        /// durable journal.
        JournalRecords,
        /// `wasai_journal_replayed_total` — journaled outcomes restored by
        /// `--resume` instead of re-running the campaign.
        JournalReplayed,
        /// `wasai_iterations_total`
        Iterations,
        /// `wasai_seeds_executed_total`
        SeedsExecuted,
        /// `wasai_coverage_branches_total`
        CoverageBranches,
        /// `wasai_branch_sites_total`
        BranchSites,
        /// `wasai_replays_total`
        Replays,
        /// `wasai_replays_skipped_total` — replays skipped because the
        /// trace had no live flip target.
        ReplaysSkipped,
        /// `wasai_flips_total`
        Flips,
        /// `wasai_smt_queries_total{outcome="sat"}`
        SmtSat,
        /// `wasai_smt_queries_total{outcome="unsat"}`
        SmtUnsat,
        /// `wasai_smt_queries_total{outcome="unknown"}`
        SmtUnknown,
        /// `wasai_smt_propagations_total`
        SmtPropagations,
        /// `wasai_smt_cache_lookups_total{level="campaign"}`
        CacheLookupsCampaign,
        /// `wasai_smt_cache_lookups_total{level="fleet"}`
        CacheLookupsFleet,
        /// `wasai_smt_cache_hits_total{level="campaign"}`
        CacheHitsCampaign,
        /// `wasai_smt_cache_hits_total{level="fleet"}`
        CacheHitsFleet,
        /// `wasai_smt_cache_store_dropped_total`
        CacheStoreDropped,
        /// `wasai_vm_instructions_total`
        VmInstructions,
        /// `wasai_vm_tape_compiles_total`
        VmTapeCompiles,
        /// `wasai_vm_snapshot_restores_total`
        VmSnapshotRestores,
        /// `wasai_obs_listener_failed_total` — `--metrics-addr` listeners
        /// that never came up after the bounded bind-retry loop.
        ObsListenerFailed,
        /// `wasai_metrics_frames_merged_total` — worker registry snapshot
        /// frames the supervisor merged into the fleet rollup.
        MetricsFramesMerged,
        /// `wasai_metrics_frames_rejected_total` — snapshot frames dropped
        /// as stale (a killed worker's tail after re-dispatch).
        MetricsFramesRejected,
    }
}

impl Counter {
    /// The Prometheus metric family this series belongs to.
    pub fn family(self) -> &'static str {
        match self {
            Counter::CampaignsOk
            | Counter::CampaignsFailed
            | Counter::CampaignsPanicked
            | Counter::CampaignsTimedOut
            | Counter::CampaignsCrashed => "wasai_campaigns_total",
            Counter::WorkerRestarts => "wasai_worker_restarts_total",
            Counter::JournalRecords => "wasai_journal_records_total",
            Counter::JournalReplayed => "wasai_journal_replayed_total",
            Counter::Iterations => "wasai_iterations_total",
            Counter::SeedsExecuted => "wasai_seeds_executed_total",
            Counter::CoverageBranches => "wasai_coverage_branches_total",
            Counter::BranchSites => "wasai_branch_sites_total",
            Counter::Replays => "wasai_replays_total",
            Counter::ReplaysSkipped => "wasai_replays_skipped_total",
            Counter::Flips => "wasai_flips_total",
            Counter::SmtSat | Counter::SmtUnsat | Counter::SmtUnknown => "wasai_smt_queries_total",
            Counter::SmtPropagations => "wasai_smt_propagations_total",
            Counter::CacheLookupsCampaign | Counter::CacheLookupsFleet => {
                "wasai_smt_cache_lookups_total"
            }
            Counter::CacheHitsCampaign | Counter::CacheHitsFleet => "wasai_smt_cache_hits_total",
            Counter::CacheStoreDropped => "wasai_smt_cache_store_dropped_total",
            Counter::VmInstructions => "wasai_vm_instructions_total",
            Counter::VmTapeCompiles => "wasai_vm_tape_compiles_total",
            Counter::VmSnapshotRestores => "wasai_vm_snapshot_restores_total",
            Counter::ObsListenerFailed => "wasai_obs_listener_failed_total",
            Counter::MetricsFramesMerged => "wasai_metrics_frames_merged_total",
            Counter::MetricsFramesRejected => "wasai_metrics_frames_rejected_total",
        }
    }

    /// The series label, if its family is labeled.
    pub fn label(self) -> Option<(&'static str, &'static str)> {
        match self {
            Counter::CampaignsOk => Some(("outcome", "ok")),
            Counter::CampaignsFailed => Some(("outcome", "failed")),
            Counter::CampaignsPanicked => Some(("outcome", "panicked")),
            Counter::CampaignsTimedOut => Some(("outcome", "timed-out")),
            Counter::CampaignsCrashed => Some(("outcome", "crashed")),
            Counter::SmtSat => Some(("outcome", "sat")),
            Counter::SmtUnsat => Some(("outcome", "unsat")),
            Counter::SmtUnknown => Some(("outcome", "unknown")),
            Counter::CacheLookupsCampaign | Counter::CacheHitsCampaign => {
                Some(("level", "campaign"))
            }
            Counter::CacheLookupsFleet | Counter::CacheHitsFleet => Some(("level", "fleet")),
            _ => None,
        }
    }

    /// The family HELP text.
    pub fn help(self) -> &'static str {
        match self {
            Counter::CampaignsOk
            | Counter::CampaignsFailed
            | Counter::CampaignsPanicked
            | Counter::CampaignsTimedOut
            | Counter::CampaignsCrashed => "Campaigns finished, by outcome tag.",
            Counter::WorkerRestarts => {
                "Worker processes re-dispatched by the fleet supervisor after a death or stall."
            }
            Counter::JournalRecords => "Campaign outcomes appended to the durable journal.",
            Counter::JournalReplayed => {
                "Journaled campaign outcomes restored by --resume without re-running."
            }
            Counter::Iterations => "Fuzzing-loop iterations executed.",
            Counter::SeedsExecuted => "Seeds executed on the local chain.",
            Counter::CoverageBranches => {
                "New distinct branches discovered, summed across campaigns."
            }
            Counter::BranchSites => {
                "Coverable branch directions in prepared targets, summed once per campaign \
                 (coverage denominator)."
            }
            Counter::Replays => "Symbolic trace replays performed.",
            Counter::ReplaysSkipped => {
                "Symbolic trace replays skipped because no flip target in the trace was live."
            }
            Counter::Flips => "Constraints flipped into adaptive seeds.",
            Counter::SmtSat | Counter::SmtUnsat | Counter::SmtUnknown => {
                "SMT flip queries answered, by verdict."
            }
            Counter::SmtPropagations => "SAT unit propagations charged to queries.",
            Counter::CacheLookupsCampaign | Counter::CacheLookupsFleet => {
                "Solver query-cache lookups, by cache level."
            }
            Counter::CacheHitsCampaign | Counter::CacheHitsFleet => {
                "Solver query-cache hits, by cache level."
            }
            Counter::CacheStoreDropped => {
                "Fleet query-cache entries lost to the capacity cap (refused or evicted)."
            }
            Counter::VmInstructions => "Wasm instructions interpreted by the VM.",
            Counter::VmTapeCompiles => "Modules lowered to threaded-code tapes by the fast path.",
            Counter::VmSnapshotRestores => {
                "Chain forks restored from a prepared post-setup snapshot."
            }
            Counter::ObsListenerFailed => {
                "Metrics listeners that never bound after the bounded retry loop \
                 (the run continued dark)."
            }
            Counter::MetricsFramesMerged => {
                "Worker registry snapshot frames merged into the fleet rollup."
            }
            Counter::MetricsFramesRejected => {
                "Worker registry snapshot frames dropped as stale after a re-dispatch."
            }
        }
    }
}

metric_enum! {
    /// Every gauge series.
    Gauge {
        /// `wasai_fleet_campaigns` — campaigns in the current sweep.
        FleetCampaigns,
        /// `wasai_campaigns_running` — campaigns currently executing.
        CampaignsRunning,
        /// `wasai_stalled_campaigns` — campaigns flagged by the stall
        /// detector right now.
        StalledCampaigns,
        /// `wasai_heartbeat_overflow` — workers sharing (aliasing) a
        /// heartbeat slot because the table's capacity was exceeded.
        HeartbeatOverflow,
    }
}

impl Gauge {
    /// The Prometheus metric family (gauges here are unlabeled, one series
    /// per family).
    pub fn family(self) -> &'static str {
        match self {
            Gauge::FleetCampaigns => "wasai_fleet_campaigns",
            Gauge::CampaignsRunning => "wasai_campaigns_running",
            Gauge::StalledCampaigns => "wasai_stalled_campaigns",
            Gauge::HeartbeatOverflow => "wasai_heartbeat_overflow",
        }
    }

    /// The family HELP text.
    pub fn help(self) -> &'static str {
        match self {
            Gauge::FleetCampaigns => "Campaigns scheduled in the current sweep.",
            Gauge::CampaignsRunning => "Campaigns currently executing on a worker.",
            Gauge::StalledCampaigns => {
                "Campaigns currently flagged by the heartbeat stall detector."
            }
            Gauge::HeartbeatOverflow => {
                "Workers aliasing a heartbeat slot because the table's capacity was exceeded."
            }
        }
    }
}

metric_enum! {
    /// Every wall-time histogram series (fixed log-spaced buckets, observed
    /// in microseconds, exposed in seconds).
    Histogram {
        /// `wasai_campaign_wall_seconds`
        CampaignWallSeconds,
        /// `wasai_replay_wall_seconds`
        ReplayWallSeconds,
        /// `wasai_solve_wall_seconds`
        SolveWallSeconds,
        /// `wasai_vm_tape_compile_wall_seconds`
        TapeCompileWallSeconds,
        /// `wasai_vm_snapshot_restore_wall_seconds`
        SnapshotRestoreWallSeconds,
    }
}

impl Histogram {
    /// The Prometheus metric family.
    pub fn family(self) -> &'static str {
        match self {
            Histogram::CampaignWallSeconds => "wasai_campaign_wall_seconds",
            Histogram::ReplayWallSeconds => "wasai_replay_wall_seconds",
            Histogram::SolveWallSeconds => "wasai_solve_wall_seconds",
            Histogram::TapeCompileWallSeconds => "wasai_vm_tape_compile_wall_seconds",
            Histogram::SnapshotRestoreWallSeconds => "wasai_vm_snapshot_restore_wall_seconds",
        }
    }

    /// The family HELP text.
    pub fn help(self) -> &'static str {
        match self {
            Histogram::CampaignWallSeconds => "Wall-clock duration of one campaign.",
            Histogram::ReplayWallSeconds => "Wall-clock duration of one symbolic replay.",
            Histogram::SolveWallSeconds => "Wall-clock duration of one SMT flip query.",
            Histogram::TapeCompileWallSeconds => {
                "Wall-clock duration of lowering one module to tapes."
            }
            Histogram::SnapshotRestoreWallSeconds => {
                "Wall-clock duration of forking the prepared chain snapshot."
            }
        }
    }
}

/// Upper bounds of the histogram buckets, in microseconds. The final
/// implicit bucket is `+Inf`.
pub const BUCKET_BOUNDS_US: [u64; 8] = [
    100,        // 100 µs
    1_000,      // 1 ms
    10_000,     // 10 ms
    100_000,    // 100 ms
    1_000_000,  // 1 s
    5_000_000,  // 5 s
    30_000_000, // 30 s
    60_000_000, // 60 s
];

/// Number of buckets including the `+Inf` overflow bucket.
pub const NUM_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// Per-histogram storage: one sharded row per bucket plus sharded sum and
/// count rows.
#[derive(Debug)]
struct HistCells {
    buckets: [ShardRow; NUM_BUCKETS],
    sum_us: ShardRow,
    count: ShardRow,
}

impl HistCells {
    // Array-repeat initializer, never read as a const.
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: HistCells = HistCells {
        buckets: [ZERO_ROW; NUM_BUCKETS],
        sum_us: ZERO_ROW,
        count: ZERO_ROW,
    };
}

/// A point-in-time reading of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket (non-cumulative) observation counts; the last entry is the
    /// `+Inf` overflow bucket.
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all observed durations, in microseconds.
    pub sum_us: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistSnapshot {
    /// Cumulative bucket counts in `le` order (what Prometheus exposes); the
    /// last entry equals [`HistSnapshot::count`].
    pub fn cumulative(&self) -> [u64; NUM_BUCKETS] {
        let mut out = [0u64; NUM_BUCKETS];
        let mut acc = 0u64;
        for (slot, &b) in out.iter_mut().zip(self.buckets.iter()) {
            acc += b;
            *slot = acc;
        }
        out
    }
}

/// The metrics registry: every series' storage plus the enabled flag.
///
/// Use [`crate::global`] for the process-wide instance the instrumented hot
/// paths write to; tests construct private instances with [`Registry::new`]
/// so exact-total assertions cannot race with unrelated code.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    counters: [ShardRow; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    hists: [HistCells; Histogram::COUNT],
}

impl Registry {
    /// A fresh registry with every series at zero, **disabled**.
    pub const fn new() -> Registry {
        // Array-repeat initializer, never read as a const.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO_GAUGE: AtomicU64 = AtomicU64::new(0);
        Registry {
            enabled: AtomicBool::new(false),
            counters: [ZERO_ROW; Counter::COUNT],
            gauges: [ZERO_GAUGE; Gauge::COUNT],
            hists: [HistCells::ZERO; Histogram::COUNT],
        }
    }

    /// Turn writes on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Turn writes off (writes become one-load no-ops again).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether writes are currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Add `n` to a counter (no-op while disabled).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if !self.is_enabled() || n == 0 {
            return;
        }
        self.counters[c as usize][my_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter by one (no-op while disabled).
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// The current summed value of a counter (readable even while disabled).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Set a gauge to an absolute value (no-op while disabled).
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        if self.is_enabled() {
            self.gauges[g as usize].store(v, Ordering::Relaxed);
        }
    }

    /// Add to a gauge (no-op while disabled).
    pub fn gauge_add(&self, g: Gauge, n: u64) {
        if self.is_enabled() {
            self.gauges[g as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtract from a gauge, saturating at zero (no-op while disabled).
    pub fn gauge_sub(&self, g: Gauge, n: u64) {
        if self.is_enabled() {
            let cell = &self.gauges[g as usize];
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(n);
                match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// The current value of a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Record one wall-time observation, in microseconds (no-op while
    /// disabled).
    #[inline]
    pub fn observe_us(&self, h: Histogram, us: u64) {
        if !self.is_enabled() {
            return;
        }
        let cells = &self.hists[h as usize];
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        let shard = my_shard();
        cells.buckets[idx][shard].0.fetch_add(1, Ordering::Relaxed);
        cells.sum_us[shard].0.fetch_add(us, Ordering::Relaxed);
        cells.count[shard].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one wall-time observation from a [`std::time::Duration`].
    #[inline]
    pub fn observe(&self, h: Histogram, d: std::time::Duration) {
        self.observe_us(h, d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Merge a histogram delta (another registry's observations, e.g. a
    /// worker snapshot) into this histogram's cells (no-op while disabled).
    ///
    /// Unlike [`Registry::observe_us`] this preserves the source's bucket
    /// placement and sum exactly, so fleet-merged histograms keep correct
    /// sums instead of re-bucketing a lossy average.
    pub fn merge_hist(&self, h: Histogram, delta: &HistSnapshot) {
        if !self.is_enabled() || (delta.count == 0 && delta.sum_us == 0) {
            return;
        }
        let cells = &self.hists[h as usize];
        let shard = my_shard();
        for (row, &n) in cells.buckets.iter().zip(delta.buckets.iter()) {
            if n > 0 {
                row[shard].0.fetch_add(n, Ordering::Relaxed);
            }
        }
        cells.sum_us[shard]
            .0
            .fetch_add(delta.sum_us, Ordering::Relaxed);
        cells.count[shard]
            .0
            .fetch_add(delta.count, Ordering::Relaxed);
    }

    /// A point-in-time reading of one histogram.
    pub fn histogram(&self, h: Histogram) -> HistSnapshot {
        let cells = &self.hists[h as usize];
        let sum_row =
            |row: &ShardRow| -> u64 { row.iter().map(|s| s.0.load(Ordering::Relaxed)).sum() };
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, row) in buckets.iter_mut().zip(cells.buckets.iter()) {
            *slot = sum_row(row);
        }
        HistSnapshot {
            buckets,
            sum_us: sum_row(&cells.sum_us),
            count: sum_row(&cells.count),
        }
    }

    /// Reset every series to zero (the enabled flag is untouched). Intended
    /// for sweep starts in single-sweep processes and for tests; concurrent
    /// writers may land increments on either side of the reset.
    pub fn reset(&self) {
        for row in &self.counters {
            for s in row {
                s.0.store(0, Ordering::Relaxed);
            }
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        for cells in &self.hists {
            for row in &cells.buckets {
                for s in row {
                    s.0.store(0, Ordering::Relaxed);
                }
            }
            for s in &cells.sum_us {
                s.0.store(0, Ordering::Relaxed);
            }
            for s in &cells.count {
                s.0.store(0, Ordering::Relaxed);
            }
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.inc(Counter::SeedsExecuted);
        r.gauge_set(Gauge::FleetCampaigns, 9);
        r.observe_us(Histogram::SolveWallSeconds, 5);
        assert_eq!(r.counter(Counter::SeedsExecuted), 0);
        assert_eq!(r.gauge(Gauge::FleetCampaigns), 0);
        assert_eq!(r.histogram(Histogram::SolveWallSeconds).count, 0);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let r = Registry::new();
        r.enable();
        r.add(Counter::VmInstructions, 41);
        r.inc(Counter::VmInstructions);
        assert_eq!(r.counter(Counter::VmInstructions), 42);

        r.gauge_set(Gauge::FleetCampaigns, 24);
        r.gauge_add(Gauge::CampaignsRunning, 3);
        r.gauge_sub(Gauge::CampaignsRunning, 1);
        r.gauge_sub(Gauge::StalledCampaigns, 5); // saturates, no underflow
        assert_eq!(r.gauge(Gauge::FleetCampaigns), 24);
        assert_eq!(r.gauge(Gauge::CampaignsRunning), 2);
        assert_eq!(r.gauge(Gauge::StalledCampaigns), 0);

        r.observe_us(Histogram::SolveWallSeconds, 50); // ≤ 100µs bucket
        r.observe_us(Histogram::SolveWallSeconds, 2_000_000); // ≤ 5s bucket
        r.observe_us(Histogram::SolveWallSeconds, u64::MAX); // +Inf bucket
        let h = r.histogram(Histogram::SolveWallSeconds);
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[5], 1);
        assert_eq!(h.buckets[NUM_BUCKETS - 1], 1);
        let cum = h.cumulative();
        assert_eq!(cum[NUM_BUCKETS - 1], h.count);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "monotone cumulative");
    }

    #[test]
    fn reset_zeroes_every_series() {
        let r = Registry::new();
        r.enable();
        r.add(Counter::Flips, 7);
        r.gauge_set(Gauge::FleetCampaigns, 7);
        r.observe_us(Histogram::CampaignWallSeconds, 7);
        r.reset();
        assert_eq!(r.counter(Counter::Flips), 0);
        assert_eq!(r.gauge(Gauge::FleetCampaigns), 0);
        assert_eq!(r.histogram(Histogram::CampaignWallSeconds).count, 0);
        assert!(r.is_enabled(), "reset must not flip the enabled latch");
    }

    #[test]
    fn sharded_writes_sum_exactly_across_threads() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let r = Registry::new();
        r.enable();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..PER_THREAD {
                        r.inc(Counter::SeedsExecuted);
                        r.add(Counter::SmtPropagations, 3);
                        r.observe_us(Histogram::SolveWallSeconds, i % 2_000);
                    }
                });
            }
        });
        assert_eq!(
            r.counter(Counter::SeedsExecuted),
            THREADS as u64 * PER_THREAD
        );
        assert_eq!(
            r.counter(Counter::SmtPropagations),
            THREADS as u64 * PER_THREAD * 3
        );
        let h = r.histogram(Histogram::SolveWallSeconds);
        assert_eq!(h.count, THREADS as u64 * PER_THREAD);
        assert_eq!(h.cumulative()[NUM_BUCKETS - 1], h.count);
    }

    #[test]
    fn series_enumerations_are_family_grouped() {
        // Exposition emits HELP/TYPE once per family, so same-family series
        // must be adjacent in ALL.
        let mut seen = Vec::new();
        for c in Counter::ALL {
            let fam = c.family();
            if seen.last() != Some(&fam) {
                assert!(!seen.contains(&fam), "family {fam} split in Counter::ALL");
                seen.push(fam);
            }
        }
    }
}
