//! # wasai-obs — wall-clock fleet observability
//!
//! Live, out-of-band metrics for WASAI fleet runs: a sharded lock-free
//! [`Registry`] of counters/gauges/wall-time histograms written from the
//! hot paths of the engine, fleet workers, SMT solver and VM; Prometheus
//! text exposition ([`expo::render_prometheus`]) and one-shot JSON dumps
//! served over a tiny self-contained HTTP listener
//! ([`http::MetricsServer`]); and a heartbeat-based stall detector
//! ([`heartbeat::HeartbeatTable`]) feeding the live progress monitor.
//!
//! ## The determinism boundary
//!
//! Everything in this crate measures **wall-clock** behaviour, which varies
//! run to run — so nothing in this crate may ever influence analysis
//! results. The contract, relied on by the repo's byte-identity tests:
//!
//! 1. The registry and heartbeat table are **write-only from workers**.
//!    No code in the engine, fleet scheduler, solver or VM reads a metric
//!    back to make a decision.
//! 2. Every write is gated on [`Registry::is_enabled`]; disabled, the
//!    instrumentation is a single relaxed atomic load per call site.
//! 3. The monitor/exposition side only *reads* and renders to stderr or a
//!    socket — never to stdout, reports, traces or triage files.
//!
//! Consequently reports, golden traces and seed schedules are byte-identical
//! with observability on or off, at any `WASAI_JOBS`. This crate has no
//! dependencies and is `std`-only, so `wasai-vm` and `wasai-smt` can link it
//! without cycles (they cannot depend on `wasai-core`).

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod expo;
pub mod fnv;
pub mod heartbeat;
pub mod http;
pub mod record;
pub mod registry;
pub mod snapshot;

pub use fnv::Fnv;
pub use heartbeat::{HeartbeatTable, SlotReading, Stage, StallReport};
pub use registry::{Counter, Gauge, HistSnapshot, Histogram, Registry};
pub use snapshot::{FleetStore, RegistrySnapshot};

/// The process-wide registry the instrumented hot paths write to.
///
/// Starts **disabled** — a process that never calls [`enable`] pays one
/// relaxed atomic load per instrumentation site and records nothing. Tests
/// asserting exact totals should construct private [`Registry`] instances
/// instead, so parallel tests can't cross-contaminate counts.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// The process-wide heartbeat table the fleet workers stamp.
pub fn heartbeats() -> &'static HeartbeatTable {
    static TABLE: HeartbeatTable = HeartbeatTable::new();
    &TABLE
}

/// The process-wide per-shard metric store the fleet supervisor merges
/// worker snapshot frames into. Empty in worker processes and in-process
/// sweeps, so exposition over it degrades to the plain single-registry
/// view.
pub fn fleet() -> &'static FleetStore {
    static STORE: FleetStore = FleetStore::new();
    &STORE
}

/// Enable the global registry (idempotent). Called by the CLI when any
/// observability surface (`--metrics-addr`, `--metrics-dump`, progress
/// monitor) is requested.
pub fn enable() {
    global().enable();
}

/// Whether the global registry is recording.
#[inline]
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Add to a global counter. One relaxed load and out when observability is
/// off — cheap enough for engine/solver hot paths (the VM batches further).
#[inline]
pub fn add(c: Counter, n: u64) {
    global().add(c, n);
}

/// Increment a global counter by one.
#[inline]
pub fn inc(c: Counter) {
    global().inc(c);
}

/// Record a wall-time observation (µs) on a global histogram.
#[inline]
pub fn observe_us(h: Histogram, us: u64) {
    global().observe_us(h, us);
}

/// Per-worker-thread heartbeat stamping against the global
/// [`heartbeats`] table.
///
/// Each worker thread lazily claims one table slot on first use and keeps
/// it for its lifetime, so callers (fleet workers, the engine's hot loop)
/// never thread slot indices around. Every call is gated on the global
/// enabled flag — one relaxed load and out when observability is off.
pub mod worker {
    use super::{enabled, heartbeats, Stage};
    use std::cell::Cell;

    thread_local! {
        static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn slot() -> usize {
        SLOT.with(|s| match s.get() {
            Some(i) => i,
            None => {
                let i = heartbeats().claim_slot();
                s.set(Some(i));
                i
            }
        })
    }

    /// Mark `campaign` as running on this thread's slot.
    pub fn begin(campaign: u64) {
        if enabled() {
            heartbeats().begin(slot(), campaign);
        }
    }

    /// Record one unit of forward progress on this thread's campaign.
    #[inline]
    pub fn tick() {
        if enabled() {
            heartbeats().tick(slot());
        }
    }

    /// Record the watchdog stage this thread is in.
    #[inline]
    pub fn set_stage(stage: Stage) {
        if enabled() {
            heartbeats().set_stage(slot(), stage);
        }
    }

    /// Map a PR 2 stage marker string to its heartbeat stage and record it;
    /// unknown markers fall back to the campaign stage.
    #[inline]
    pub fn set_stage_name(name: &str) {
        if enabled() {
            heartbeats().set_stage(slot(), Stage::from_name(name));
        }
    }

    /// Mark this thread's slot idle.
    pub fn end() {
        if enabled() {
            heartbeats().end(slot());
        }
    }
}

/// A scope timer: measures wall time from construction to drop and records
/// it on a global histogram — but only if observability was enabled at
/// construction, so the disabled path never calls `Instant::now`.
#[derive(Debug)]
pub struct ScopeTimer {
    hist: Histogram,
    start: Option<std::time::Instant>,
}

impl ScopeTimer {
    /// Start timing for `hist` (no-op shell when observability is off).
    #[inline]
    pub fn start(hist: Histogram) -> ScopeTimer {
        ScopeTimer {
            hist,
            start: enabled().then(std::time::Instant::now),
        }
    }
}

impl Drop for ScopeTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            global().observe(self.hist, t0.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_timer_records_only_when_enabled() {
        // Private registry can't exercise ScopeTimer (it targets the global
        // one), so assert the disabled path on the global registry without
        // enabling it: no observation may land.
        let before = global().histogram(Histogram::ReplayWallSeconds).count;
        {
            let _t = ScopeTimer::start(Histogram::ReplayWallSeconds);
        }
        let after = global().histogram(Histogram::ReplayWallSeconds).count;
        assert_eq!(before, after, "disabled ScopeTimer must not record");
    }

    #[test]
    fn global_accessors_are_stable() {
        assert!(std::ptr::eq(global(), global()));
        assert!(std::ptr::eq(heartbeats(), heartbeats()));
    }
}
