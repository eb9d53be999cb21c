//! Telemetry — deterministic structured event tracing and per-stage metrics.
//!
//! The engine computes every quantity the paper's evaluation is built on —
//! coverage growth over virtual time, seeds solved vs. discarded, SMT query
//! outcomes, per-oracle verdicts — but (before this module) never exposed
//! them as first-class data. A [`TelemetrySink`] receives typed
//! [`TelemetryEvent`]s from the engine, the fleet scheduler, and the replay
//! and solver stages; everything downstream (the [`Metrics`] aggregator, the
//! JSONL trace writer behind `wasai … --trace-out`, the `wasai stats`
//! summarizer) is a fold over that one event stream.
//!
//! # Determinism contract
//!
//! Events are keyed by **virtual-clock** timestamps, never wall clocks, and
//! every event is derived from campaign-local state (the campaign's own RNG,
//! clock, and coverage set). A campaign therefore emits a byte-identical
//! event stream regardless of scheduling, and a fleet trace merged in
//! campaign-index order is byte-identical for every `WASAI_JOBS` setting —
//! the same contract the fleet's result merging already obeys. Fleet-level
//! events ([`TelemetryEvent::CampaignAborted`]) are emitted *after* the
//! index-keyed merge, in index order, for the same reason.
//!
//! # Sink lifecycle
//!
//! Campaigns default to **no sink**: the engine skips event construction
//! entirely (a single `Option` check per site), so untraced runs behave and
//! perform exactly as before. A sink is attached per campaign
//! ([`crate::Wasai::with_sink`] / [`crate::Engine::set_sink`]), lives for
//! that campaign only, and observes events strictly in emission order. The
//! [`Recorder`] sink buffers events for post-campaign inspection; the
//! [`Metrics`] sink folds them into counters and virtual-time histograms on
//! the fly.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::report::VulnClass;

/// The long-running campaign stages virtual time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Target preparation: decode, validate, instrument, compile.
    Prepare,
    /// Instrumented concrete execution on the local chain.
    Execute,
    /// Symbolic trace replay (Symback).
    Replay,
    /// Constraint solving.
    Solve,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Prepare, Stage::Execute, Stage::Replay, Stage::Solve];

    /// The stable machine-readable name (the JSONL spelling).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Prepare => "prepare",
            Stage::Execute => "execute",
            Stage::Replay => "replay",
            Stage::Solve => "solve",
        }
    }

    /// Parse the JSONL spelling back.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one SMT query, as telemetry records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SmtOutcome {
    /// Satisfiable — a model (and thus an adaptive seed) was produced.
    Sat,
    /// Unsatisfiable — the flipped branch is infeasible on this path.
    Unsat,
    /// Budget or deadline exhausted before a verdict.
    Unknown,
}

impl SmtOutcome {
    /// The stable machine-readable name (the JSONL spelling).
    pub fn name(self) -> &'static str {
        match self {
            SmtOutcome::Sat => "sat",
            SmtOutcome::Unsat => "unsat",
            SmtOutcome::Unknown => "unknown",
        }
    }

    /// Parse the JSONL spelling back.
    pub fn parse(s: &str) -> Option<SmtOutcome> {
        [SmtOutcome::Sat, SmtOutcome::Unsat, SmtOutcome::Unknown]
            .into_iter()
            .find(|o| o.name() == s)
    }
}

impl fmt::Display for SmtOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed telemetry event.
///
/// Every variant carries `vtime`, the emitting campaign's virtual-clock
/// reading in microseconds at emission — the determinism key that makes
/// traces reproducible across worker counts.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A campaign began (virtual time zero).
    CampaignStarted {
        /// The campaign's RNG seed.
        seed: u64,
        /// Number of declared ABI actions under fuzz.
        actions: usize,
        /// Virtual microseconds at emission (always 0).
        vtime: u64,
    },
    /// Virtual time was charged to a stage.
    StageTiming {
        /// The stage the charge belongs to.
        stage: Stage,
        /// Virtual microseconds charged by this step.
        dur_us: u64,
        /// Virtual microseconds at emission (after the charge).
        vtime: u64,
    },
    /// One seed was executed on the local chain.
    SeedExecuted {
        /// The action invoked.
        action: String,
        /// The delivery payload (`official`, `direct-fake`, …).
        payload: String,
        /// New distinct branches this execution discovered.
        coverage_delta: usize,
        /// Cumulative distinct branches after this execution.
        branches: usize,
        /// Virtual microseconds at emission.
        vtime: u64,
    },
    /// One trace was replayed symbolically. Emitted for performed replays
    /// only: a replay the engine skips because its trace holds no live flip
    /// target emits nothing.
    Replayed {
        /// Trace records processed.
        records: usize,
        /// Conditional states (flip candidates) collected.
        conditionals: usize,
        /// Replay was cut short by the wall-clock watchdog.
        truncated: bool,
        /// Virtual microseconds at emission.
        vtime: u64,
    },
    /// One SMT flip query was solved.
    SmtQuery {
        /// Solver verdict.
        outcome: SmtOutcome,
        /// SAT conflicts used.
        conflicts: u64,
        /// Unit propagations performed (what the virtual clock charges).
        props: u64,
        /// The query was answered from the campaign's memo cache (an
        /// identical canonical query was solved earlier this campaign).
        /// Deterministic: independent of worker count and of any fleet-level
        /// cache.
        cache_hit: bool,
        /// Not the first query answered for this replay (always false with
        /// solver reuse off). Earlier queries count whether they were
        /// solved or replayed from the memo/fleet cache, so the tag does not
        /// depend on which layer answered, and stays deterministic.
        incremental: bool,
        /// Virtual microseconds at emission (after the charge).
        vtime: u64,
    },
    /// A solved model produced an adaptive seed for an unexplored branch.
    ConstraintFlipped {
        /// Function index of the flipped site.
        func: u32,
        /// Instruction offset of the flipped site.
        pc: u32,
        /// Target direction (branches: condition ≠ 0).
        direction: u64,
        /// Virtual microseconds at emission.
        vtime: u64,
    },
    /// One oracle's final verdict (emitted once per oracle at campaign end).
    OracleVerdict {
        /// Oracle name (the five `VulnClass` display names, or a custom
        /// oracle's name).
        oracle: String,
        /// Whether the oracle flagged the contract.
        flagged: bool,
        /// Virtual microseconds at emission (the campaign's final reading).
        vtime: u64,
    },
    /// A campaign ran to completion (its report follows out of band).
    CampaignFinished {
        /// Fuzzing iterations executed.
        iterations: u64,
        /// Distinct branches covered.
        branches: usize,
        /// The wall-clock watchdog cut the campaign short.
        truncated: bool,
        /// Final virtual-clock reading.
        vtime: u64,
    },
    /// A fault-isolated campaign died instead of completing (emitted by the
    /// fleet scheduler after the index-keyed merge, never by the campaign).
    CampaignAborted {
        /// Campaign index in the fleet.
        campaign: usize,
        /// Stage marker active when the campaign died.
        stage: String,
        /// Outcome tag: `failed`, `panicked`, or `timed-out`.
        outcome: String,
        /// Virtual microseconds (always 0 — the campaign's clock is lost).
        vtime: u64,
    },
}

impl TelemetryEvent {
    /// The stable machine-readable event name (the JSONL `event` field).
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::CampaignStarted { .. } => "campaign_started",
            TelemetryEvent::StageTiming { .. } => "stage_timing",
            TelemetryEvent::SeedExecuted { .. } => "seed_executed",
            TelemetryEvent::Replayed { .. } => "replayed",
            TelemetryEvent::SmtQuery { .. } => "smt_query",
            TelemetryEvent::ConstraintFlipped { .. } => "constraint_flipped",
            TelemetryEvent::OracleVerdict { .. } => "oracle_verdict",
            TelemetryEvent::CampaignFinished { .. } => "campaign_finished",
            TelemetryEvent::CampaignAborted { .. } => "campaign_aborted",
        }
    }

    /// The virtual-clock timestamp of the event.
    pub fn vtime(&self) -> u64 {
        match self {
            TelemetryEvent::CampaignStarted { vtime, .. }
            | TelemetryEvent::StageTiming { vtime, .. }
            | TelemetryEvent::SeedExecuted { vtime, .. }
            | TelemetryEvent::Replayed { vtime, .. }
            | TelemetryEvent::SmtQuery { vtime, .. }
            | TelemetryEvent::ConstraintFlipped { vtime, .. }
            | TelemetryEvent::OracleVerdict { vtime, .. }
            | TelemetryEvent::CampaignFinished { vtime, .. }
            | TelemetryEvent::CampaignAborted { vtime, .. } => *vtime,
        }
    }

    /// Serialize as one JSONL trace line for campaign index `campaign`.
    ///
    /// The field order is fixed, so equal event streams serialize to
    /// byte-identical traces.
    pub fn to_jsonl(&self, campaign: usize) -> String {
        let head = format!(
            "{{\"campaign\":{campaign},\"event\":\"{}\",\"vtime\":{}",
            self.name(),
            self.vtime()
        );
        let body = match self {
            TelemetryEvent::CampaignStarted { seed, actions, .. } => {
                format!(",\"seed\":{seed},\"actions\":{actions}")
            }
            TelemetryEvent::StageTiming { stage, dur_us, .. } => {
                format!(",\"stage\":\"{}\",\"dur_us\":{dur_us}", stage.name())
            }
            TelemetryEvent::SeedExecuted {
                action,
                payload,
                coverage_delta,
                branches,
                ..
            } => format!(
                ",\"action\":\"{}\",\"payload\":\"{}\",\"coverage_delta\":{coverage_delta},\"branches\":{branches}",
                json_escape(action),
                json_escape(payload)
            ),
            TelemetryEvent::Replayed {
                records,
                conditionals,
                truncated,
                ..
            } => format!(
                ",\"records\":{records},\"conditionals\":{conditionals},\"truncated\":{truncated}"
            ),
            TelemetryEvent::SmtQuery {
                outcome,
                conflicts,
                props,
                cache_hit,
                incremental,
                ..
            } => format!(
                ",\"outcome\":\"{}\",\"conflicts\":{conflicts},\"props\":{props},\"cache_hit\":{cache_hit},\"incremental\":{incremental}",
                outcome.name()
            ),
            TelemetryEvent::ConstraintFlipped {
                func,
                pc,
                direction,
                ..
            } => format!(",\"func\":{func},\"pc\":{pc},\"direction\":{direction}"),
            TelemetryEvent::OracleVerdict {
                oracle, flagged, ..
            } => format!(",\"oracle\":\"{}\",\"flagged\":{flagged}", json_escape(oracle)),
            TelemetryEvent::CampaignFinished {
                iterations,
                branches,
                truncated,
                ..
            } => format!(
                ",\"iterations\":{iterations},\"branches\":{branches},\"truncated\":{truncated}"
            ),
            TelemetryEvent::CampaignAborted {
                stage, outcome, ..
            } => format!(
                ",\"stage\":\"{}\",\"outcome\":\"{}\"",
                json_escape(stage),
                json_escape(outcome)
            ),
        };
        format!("{head}{body}}}")
    }

    /// Parse one JSONL trace line back into `(campaign, event)`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token or missing field.
    pub fn parse_jsonl(line: &str) -> Result<(usize, TelemetryEvent), String> {
        let fields = parse_json_fields(line)?;
        let str_of = |k: &str| -> Result<String, String> {
            match fields.get(k) {
                Some(JsonValue::Str(s)) => Ok(s.clone()),
                _ => Err(format!("missing string field {k:?} in {line:?}")),
            }
        };
        let num_of = |k: &str| -> Result<u64, String> {
            match fields.get(k) {
                Some(JsonValue::Num(n)) => Ok(*n),
                _ => Err(format!("missing numeric field {k:?} in {line:?}")),
            }
        };
        let bool_of = |k: &str| -> Result<bool, String> {
            match fields.get(k) {
                Some(JsonValue::Bool(b)) => Ok(*b),
                _ => Err(format!("missing boolean field {k:?} in {line:?}")),
            }
        };
        let campaign = num_of("campaign")? as usize;
        let vtime = num_of("vtime")?;
        let name = str_of("event")?;
        let event = match name.as_str() {
            "campaign_started" => TelemetryEvent::CampaignStarted {
                seed: num_of("seed")?,
                actions: num_of("actions")? as usize,
                vtime,
            },
            "stage_timing" => TelemetryEvent::StageTiming {
                stage: Stage::parse(&str_of("stage")?)
                    .ok_or_else(|| format!("unknown stage in {line:?}"))?,
                dur_us: num_of("dur_us")?,
                vtime,
            },
            "seed_executed" => TelemetryEvent::SeedExecuted {
                action: str_of("action")?,
                payload: str_of("payload")?,
                coverage_delta: num_of("coverage_delta")? as usize,
                branches: num_of("branches")? as usize,
                vtime,
            },
            "replayed" => TelemetryEvent::Replayed {
                records: num_of("records")? as usize,
                conditionals: num_of("conditionals")? as usize,
                truncated: bool_of("truncated")?,
                vtime,
            },
            "smt_query" => TelemetryEvent::SmtQuery {
                outcome: SmtOutcome::parse(&str_of("outcome")?)
                    .ok_or_else(|| format!("unknown outcome in {line:?}"))?,
                conflicts: num_of("conflicts")?,
                props: num_of("props")?,
                // Reuse tags postdate the trace format: absent in old
                // traces, which means the query was solved from scratch.
                cache_hit: bool_of("cache_hit").unwrap_or(false),
                incremental: bool_of("incremental").unwrap_or(false),
                vtime,
            },
            "constraint_flipped" => TelemetryEvent::ConstraintFlipped {
                func: num_of("func")? as u32,
                pc: num_of("pc")? as u32,
                direction: num_of("direction")?,
                vtime,
            },
            "oracle_verdict" => TelemetryEvent::OracleVerdict {
                oracle: str_of("oracle")?,
                flagged: bool_of("flagged")?,
                vtime,
            },
            "campaign_finished" => TelemetryEvent::CampaignFinished {
                iterations: num_of("iterations")?,
                branches: num_of("branches")? as usize,
                truncated: bool_of("truncated")?,
                vtime,
            },
            "campaign_aborted" => TelemetryEvent::CampaignAborted {
                campaign,
                stage: str_of("stage")?,
                outcome: str_of("outcome")?,
                vtime,
            },
            other => return Err(format!("unknown event {other:?}")),
        };
        Ok((campaign, event))
    }
}

/// A consumer of telemetry events.
///
/// Implementations must not let scheduling influence what they derive from
/// the stream: the events themselves are deterministic, and a sink that only
/// folds over them (like [`Metrics`]) inherits that determinism.
pub trait TelemetrySink: fmt::Debug + Send {
    /// Observe one event, in emission order.
    fn record(&mut self, event: TelemetryEvent);
}

/// A sink that discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn record(&mut self, _event: TelemetryEvent) {}
}

/// A sink that buffers every event for post-campaign inspection.
///
/// Clones share one buffer, so a clone handed to the engine (which consumes
/// its sink) leaves the original able to [`Recorder::take`] the events after
/// the campaign completes.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    events: Arc<Mutex<Vec<TelemetryEvent>>>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Drain the recorded events (in emission order).
    pub fn take(&self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut *lock_events(&self.events))
    }

    /// A copy of the recorded events (in emission order).
    pub fn snapshot(&self) -> Vec<TelemetryEvent> {
        lock_events(&self.events).clone()
    }
}

fn lock_events(m: &Mutex<Vec<TelemetryEvent>>) -> std::sync::MutexGuard<'_, Vec<TelemetryEvent>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl TelemetrySink for Recorder {
    fn record(&mut self, event: TelemetryEvent) {
        lock_events(&self.events).push(event);
    }
}

/// Number of log₂ buckets in a [`VtimeHistogram`] (covers up to ~8 virtual
/// seconds per step; longer steps saturate into the last bucket).
pub const HIST_BUCKETS: usize = 24;

/// A histogram of virtual-time durations with power-of-two buckets.
///
/// Bucket `i` counts durations in `[2^(i-1), 2^i)` microseconds (bucket 0
/// counts sub-microsecond charges). The exact totals are preserved in
/// [`VtimeHistogram::total_us`], so histogram totals can be checked against
/// the engine's final [`crate::VirtualClock`] reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VtimeHistogram {
    counts: [u64; HIST_BUCKETS],
    /// Number of observations.
    pub samples: u64,
    /// Sum of all observed durations, in virtual microseconds.
    pub total_us: u64,
}

impl Default for VtimeHistogram {
    fn default() -> Self {
        VtimeHistogram {
            counts: [0; HIST_BUCKETS],
            samples: 0,
            total_us: 0,
        }
    }
}

impl VtimeHistogram {
    /// The bucket index a duration falls into.
    pub fn bucket_of(dur_us: u64) -> usize {
        (64 - u64::leading_zeros(dur_us) as usize).min(HIST_BUCKETS - 1)
    }

    /// Record one duration.
    pub fn observe(&mut self, dur_us: u64) {
        self.counts[Self::bucket_of(dur_us)] += 1;
        self.samples += 1;
        self.total_us += dur_us;
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Mean duration in virtual microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.samples).unwrap_or(0)
    }
}

/// Counters and per-stage virtual-time histograms folded from an event
/// stream — the aggregation behind `wasai stats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Campaigns started.
    pub campaigns: u64,
    /// Campaigns that ran to completion.
    pub finished: u64,
    /// Seeds executed on the chain.
    pub seeds: u64,
    /// Sum of per-execution coverage deltas (new branches discovered).
    pub coverage_gained: u64,
    /// Symbolic replays performed.
    pub replays: u64,
    /// Trace records replayed in total.
    pub replay_records: u64,
    /// Constraints successfully flipped into adaptive seeds.
    pub flips: u64,
    /// SMT queries answered Sat.
    pub smt_sat: u64,
    /// SMT queries answered Unsat.
    pub smt_unsat: u64,
    /// SMT queries that exhausted their budget.
    pub smt_unknown: u64,
    /// Total SAT unit propagations.
    pub smt_props: u64,
    /// Total SAT conflicts.
    pub smt_conflicts: u64,
    /// SMT queries answered from the campaign memo cache.
    pub smt_cache_hits: u64,
    /// SMT queries tagged `incremental` (not their replay's first query).
    pub smt_incremental: u64,
    /// Virtual-time histograms per stage.
    pub stage_vtime: BTreeMap<Stage, VtimeHistogram>,
    /// Per-oracle flagged counts.
    pub oracle_flagged: BTreeMap<String, u64>,
    /// Per-oracle clean counts.
    pub oracle_clean: BTreeMap<String, u64>,
    /// Aborted campaigns by outcome tag (`failed`, `panicked`, `timed-out`).
    pub aborted: BTreeMap<String, u64>,
    /// Campaigns whose report was truncated by the wall-clock watchdog.
    pub truncated: u64,
}

impl Metrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Fold one event in.
    pub fn observe(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::CampaignStarted { .. } => self.campaigns += 1,
            TelemetryEvent::StageTiming { stage, dur_us, .. } => {
                self.stage_vtime.entry(*stage).or_default().observe(*dur_us);
            }
            TelemetryEvent::SeedExecuted { coverage_delta, .. } => {
                self.seeds += 1;
                self.coverage_gained += *coverage_delta as u64;
            }
            TelemetryEvent::Replayed { records, .. } => {
                self.replays += 1;
                self.replay_records += *records as u64;
            }
            TelemetryEvent::SmtQuery {
                outcome,
                conflicts,
                props,
                cache_hit,
                incremental,
                ..
            } => {
                match outcome {
                    SmtOutcome::Sat => self.smt_sat += 1,
                    SmtOutcome::Unsat => self.smt_unsat += 1,
                    SmtOutcome::Unknown => self.smt_unknown += 1,
                }
                self.smt_conflicts += conflicts;
                self.smt_props += props;
                if *cache_hit {
                    self.smt_cache_hits += 1;
                }
                if *incremental {
                    self.smt_incremental += 1;
                }
            }
            TelemetryEvent::ConstraintFlipped { .. } => self.flips += 1,
            TelemetryEvent::OracleVerdict {
                oracle, flagged, ..
            } => {
                let slot = if *flagged {
                    &mut self.oracle_flagged
                } else {
                    &mut self.oracle_clean
                };
                *slot.entry(oracle.clone()).or_default() += 1;
            }
            TelemetryEvent::CampaignFinished { truncated, .. } => {
                self.finished += 1;
                if *truncated {
                    self.truncated += 1;
                }
            }
            TelemetryEvent::CampaignAborted { outcome, .. } => {
                *self.aborted.entry(outcome.clone()).or_default() += 1;
            }
        }
    }

    /// Fold a whole event stream.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TelemetryEvent>) -> Self {
        let mut m = Metrics::new();
        for ev in events {
            m.observe(ev);
        }
        m
    }

    /// Total SMT queries (sat + unsat + unknown).
    pub fn smt_queries(&self) -> u64 {
        self.smt_sat + self.smt_unsat + self.smt_unknown
    }

    /// Virtual microseconds attributed to one stage.
    pub fn stage_total_us(&self, stage: Stage) -> u64 {
        self.stage_vtime.get(&stage).map_or(0, |h| h.total_us)
    }

    /// Virtual microseconds attributed across all stages.
    ///
    /// For a single campaign this equals the engine's final
    /// [`crate::VirtualClock`] reading: every charge the clock takes is
    /// emitted as exactly one [`TelemetryEvent::StageTiming`].
    pub fn total_vtime_us(&self) -> u64 {
        Stage::ALL.iter().map(|&s| self.stage_total_us(s)).sum()
    }

    /// Total aborted campaigns across all outcome tags.
    pub fn total_aborted(&self) -> u64 {
        self.aborted.values().sum()
    }

    /// Render the human-readable summary table (`wasai stats`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== campaign telemetry ===");
        let _ = writeln!(
            out,
            "campaigns: {} started, {} finished, {} aborted, {} truncated",
            self.campaigns,
            self.finished,
            self.total_aborted(),
            self.truncated
        );
        if !self.aborted.is_empty() {
            let parts: Vec<String> = self
                .aborted
                .iter()
                .map(|(k, n)| format!("{n} {k}"))
                .collect();
            let _ = writeln!(out, "aborted by outcome: {}", parts.join(", "));
        }
        let _ = writeln!(
            out,
            "seeds executed: {} ({} new branches discovered)",
            self.seeds, self.coverage_gained
        );
        let _ = writeln!(
            out,
            "symbolic replays: {} ({} trace records)",
            self.replays, self.replay_records
        );
        let _ = writeln!(out, "constraints flipped into seeds: {}", self.flips);
        let _ = writeln!(
            out,
            "SMT queries: {} (sat {}, unsat {}, unknown {}) — {} conflicts, {} propagations",
            self.smt_queries(),
            self.smt_sat,
            self.smt_unsat,
            self.smt_unknown,
            self.smt_conflicts,
            self.smt_props
        );
        let _ = writeln!(
            out,
            "solver reuse: {} cache hits ({:.1}% hit rate), {} incremental",
            self.smt_cache_hits,
            100.0 * self.smt_cache_hits as f64 / self.smt_queries().max(1) as f64,
            self.smt_incremental
        );
        let total = self.total_vtime_us().max(1);
        let _ = writeln!(out, "\nper-stage virtual time:");
        let _ = writeln!(
            out,
            "  {:<10} {:>14} {:>7} {:>9} {:>11}",
            "stage", "total(µs)", "share", "samples", "mean(µs)"
        );
        for stage in Stage::ALL {
            let h = self.stage_vtime.get(&stage).cloned().unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<10} {:>14} {:>6.1}% {:>9} {:>11}",
                stage.name(),
                h.total_us,
                100.0 * h.total_us as f64 / total as f64,
                h.samples,
                h.mean_us()
            );
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>14} {:>6.1}%",
            "total",
            self.total_vtime_us(),
            100.0
        );
        if !(self.oracle_flagged.is_empty() && self.oracle_clean.is_empty()) {
            let _ = writeln!(out, "\noracle verdicts (flagged / clean):");
            let names: BTreeSet<&String> = self
                .oracle_flagged
                .keys()
                .chain(self.oracle_clean.keys())
                .collect();
            for name in names {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>5} / {:<5}",
                    name,
                    self.oracle_flagged.get(name).copied().unwrap_or(0),
                    self.oracle_clean.get(name).copied().unwrap_or(0)
                );
            }
        }
        out
    }
}

impl TelemetrySink for Metrics {
    fn record(&mut self, event: TelemetryEvent) {
        self.observe(&event);
    }
}

/// Build the per-oracle verdict events a campaign emits at its end: one
/// [`TelemetryEvent::OracleVerdict`] per [`VulnClass`] (in the paper's
/// order), then one per custom oracle finding.
///
/// Shared by the engine and the oracle unit tests so "what telemetry says"
/// and "what the report says" cannot drift apart.
pub fn oracle_verdicts(
    findings: &BTreeSet<VulnClass>,
    custom_findings: &[(String, String)],
    vtime: u64,
) -> Vec<TelemetryEvent> {
    oracle_verdicts_for(&VulnClass::ALL, findings, custom_findings, vtime)
}

/// [`oracle_verdicts`] against an explicit class list — each substrate
/// passes its own oracle catalog ([`VulnClass::ALL`] for EOSIO,
/// [`VulnClass::COSMWASM`] for CosmWasm) so the event stream always carries
/// one verdict per oracle the campaign actually ran.
pub fn oracle_verdicts_for(
    classes: &[VulnClass],
    findings: &BTreeSet<VulnClass>,
    custom_findings: &[(String, String)],
    vtime: u64,
) -> Vec<TelemetryEvent> {
    let mut out: Vec<TelemetryEvent> = classes
        .iter()
        .map(|class| TelemetryEvent::OracleVerdict {
            oracle: class.to_string(),
            flagged: findings.contains(class),
            vtime,
        })
        .collect();
    for (name, _) in custom_findings {
        out.push(TelemetryEvent::OracleVerdict {
            oracle: name.clone(),
            flagged: true,
            vtime,
        });
    }
    out
}

/// Serialize per-campaign event streams into one JSONL trace, in the order
/// given (callers pass campaigns in index order for deterministic traces).
pub fn write_trace<'a>(
    campaigns: impl IntoIterator<Item = (usize, &'a [TelemetryEvent])>,
) -> String {
    let mut out = String::new();
    for (index, events) in campaigns {
        for ev in events {
            out.push_str(&ev.to_jsonl(index));
            out.push('\n');
        }
    }
    out
}

/// Parse a JSONL trace back into `(campaign, event)` pairs, skipping blank
/// lines.
///
/// # Errors
///
/// Returns the first line that fails to parse, with its line number.
pub fn parse_trace(text: &str) -> Result<Vec<(usize, TelemetryEvent)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            TelemetryEvent::parse_jsonl(line).map_err(|e| format!("line {}: {e}", lineno + 1))?,
        );
    }
    Ok(out)
}

/// Minimal JSON string escaping for trace/triage lines (flat objects only).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A value in a flat JSON object line (the only shapes the trace and triage
/// formats emit).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// An unsigned integer.
    Num(u64),
    /// A non-negative decimal fraction (observability dumps emit histogram
    /// `_sum` series in seconds).
    Float(f64),
    /// A string (unescaped).
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is an integer.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a float, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one flat JSON object line (string/unsigned-number/decimal/boolean
/// values only — exactly what the trace, triage, and metrics-dump writers
/// emit).
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn parse_json_fields(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut fields = BTreeMap::new();
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
    let mut chars = inner.chars().peekable();
    loop {
        // Skip separators and whitespace.
        while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let key = parse_json_string(&mut chars)?;
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_json_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() => {
                let mut digits = String::new();
                while matches!(chars.peek(), Some(c) if c.is_ascii_digit()) {
                    digits.push(chars.next().unwrap_or('0'));
                }
                if chars.peek() == Some(&'.') {
                    digits.push(chars.next().unwrap_or('.'));
                    while matches!(chars.peek(), Some(c) if c.is_ascii_digit()) {
                        digits.push(chars.next().unwrap_or('0'));
                    }
                    JsonValue::Float(
                        digits
                            .parse()
                            .map_err(|e| format!("bad number {digits:?}: {e}"))?,
                    )
                } else {
                    JsonValue::Num(
                        digits
                            .parse()
                            .map_err(|e| format!("bad number {digits:?}: {e}"))?,
                    )
                }
            }
            Some('t' | 'f') => {
                let mut word = String::new();
                while matches!(chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
                    word.push(chars.next().unwrap_or(' '));
                }
                match word.as_str() {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    other => return Err(format!("bad literal {other:?}")),
                }
            }
            other => return Err(format!("unexpected value start {other:?} for key {key:?}")),
        };
        fields.insert(key, value);
    }
    Ok(fields)
}

/// Parse a quoted, escaped JSON string starting at the current character.
fn parse_json_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected opening quote".to_string());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_string()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::CampaignStarted {
                seed: 7,
                actions: 3,
                vtime: 0,
            },
            TelemetryEvent::StageTiming {
                stage: Stage::Execute,
                dur_us: 2_500,
                vtime: 2_500,
            },
            TelemetryEvent::SeedExecuted {
                action: "transfer".into(),
                payload: "official".into(),
                coverage_delta: 2,
                branches: 2,
                vtime: 2_500,
            },
            TelemetryEvent::Replayed {
                records: 120,
                conditionals: 4,
                truncated: false,
                vtime: 2_500,
            },
            TelemetryEvent::StageTiming {
                stage: Stage::Solve,
                dur_us: 21_000,
                vtime: 23_500,
            },
            TelemetryEvent::SmtQuery {
                outcome: SmtOutcome::Sat,
                conflicts: 3,
                props: 500,
                cache_hit: true,
                incremental: false,
                vtime: 23_500,
            },
            TelemetryEvent::ConstraintFlipped {
                func: 4,
                pc: 17,
                direction: 1,
                vtime: 23_500,
            },
            TelemetryEvent::OracleVerdict {
                oracle: "Fake EOS".into(),
                flagged: true,
                vtime: 23_500,
            },
            TelemetryEvent::CampaignFinished {
                iterations: 9,
                branches: 2,
                truncated: false,
                vtime: 23_500,
            },
            TelemetryEvent::CampaignAborted {
                campaign: 0,
                stage: "replay".into(),
                outcome: "panicked".into(),
                vtime: 0,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        for ev in sample_events() {
            let line = ev.to_jsonl(3);
            let (campaign, back) = TelemetryEvent::parse_jsonl(&line).expect("parses");
            // CampaignAborted carries its own index; the line's index wins.
            let expected = match ev {
                TelemetryEvent::CampaignAborted {
                    stage,
                    outcome,
                    vtime,
                    ..
                } => TelemetryEvent::CampaignAborted {
                    campaign: 3,
                    stage,
                    outcome,
                    vtime,
                },
                other => other,
            };
            assert_eq!(campaign, 3);
            assert_eq!(back, expected, "line: {line}");
        }
    }

    #[test]
    fn write_then_parse_trace_is_identity() {
        let events = sample_events();
        let text = write_trace([(0, events.as_slice()), (2, events.as_slice())]);
        let parsed = parse_trace(&text).expect("parses");
        assert_eq!(parsed.len(), events.len() * 2);
        assert_eq!(parsed[0].0, 0);
        assert_eq!(parsed[events.len()].0, 2);
    }

    #[test]
    fn escaped_strings_round_trip() {
        let ev = TelemetryEvent::SeedExecuted {
            action: "we\"ird\\na\nme\t".into(),
            payload: "direct-fake".into(),
            coverage_delta: 0,
            branches: 0,
            vtime: 1,
        };
        let line = ev.to_jsonl(0);
        let (_, back) = TelemetryEvent::parse_jsonl(&line).expect("parses");
        assert_eq!(back, ev);
    }

    #[test]
    fn metrics_fold_counts_and_histograms() {
        let events = sample_events();
        let m = Metrics::from_events(&events);
        assert_eq!(m.campaigns, 1);
        assert_eq!(m.finished, 1);
        assert_eq!(m.seeds, 1);
        assert_eq!(m.coverage_gained, 2);
        assert_eq!(m.replays, 1);
        assert_eq!(m.replay_records, 120);
        assert_eq!(m.flips, 1);
        assert_eq!(m.smt_queries(), 1);
        assert_eq!(m.smt_sat, 1);
        assert_eq!(m.smt_cache_hits, 1);
        assert_eq!(m.smt_incremental, 0);
        assert_eq!(m.total_vtime_us(), 23_500);
        assert_eq!(m.stage_total_us(Stage::Execute), 2_500);
        assert_eq!(m.stage_total_us(Stage::Solve), 21_000);
        assert_eq!(m.oracle_flagged.get("Fake EOS"), Some(&1));
        assert_eq!(m.aborted.get("panicked"), Some(&1));
        assert_eq!(m.total_aborted(), 1);
        // Incremental sink fold equals the batch fold.
        let mut inc = Metrics::new();
        for ev in events {
            inc.record(ev);
        }
        assert_eq!(inc, m);
        // The rendered table mentions the headline numbers.
        let table = m.render();
        assert!(table.contains("SMT queries: 1 (sat 1, unsat 0, unknown 0)"));
        assert!(table.contains("solver reuse: 1 cache hits (100.0% hit rate), 0 incremental"));
        assert!(table.contains("execute"));
        assert!(table.contains("Fake EOS"));
    }

    #[test]
    fn pre_reuse_smt_query_lines_parse_with_tags_false() {
        // Traces written before the reuse tags existed must keep parsing;
        // a missing tag means the query was solved from scratch.
        let line = "{\"campaign\":0,\"event\":\"smt_query\",\"vtime\":5,\
                    \"outcome\":\"sat\",\"conflicts\":1,\"props\":2}";
        let (_, ev) = TelemetryEvent::parse_jsonl(line).expect("parses");
        assert_eq!(
            ev,
            TelemetryEvent::SmtQuery {
                outcome: SmtOutcome::Sat,
                conflicts: 1,
                props: 2,
                cache_hit: false,
                incremental: false,
                vtime: 5,
            }
        );
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(VtimeHistogram::bucket_of(0), 0);
        assert_eq!(VtimeHistogram::bucket_of(1), 1);
        assert_eq!(VtimeHistogram::bucket_of(2), 2);
        assert_eq!(VtimeHistogram::bucket_of(3), 2);
        assert_eq!(VtimeHistogram::bucket_of(1024), 11);
        assert_eq!(VtimeHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let mut h = VtimeHistogram::default();
        h.observe(3);
        h.observe(5);
        assert_eq!(h.samples, 2);
        assert_eq!(h.total_us, 8);
        assert_eq!(h.mean_us(), 4);
    }

    #[test]
    fn oracle_verdicts_cover_all_classes_in_order() {
        let mut findings = BTreeSet::new();
        findings.insert(VulnClass::Rollback);
        let custom = vec![("tapos".to_string(), "seen".to_string())];
        let events = oracle_verdicts(&findings, &custom, 42);
        assert_eq!(events.len(), VulnClass::ALL.len() + 1);
        for (class, ev) in VulnClass::ALL.iter().zip(&events) {
            match ev {
                TelemetryEvent::OracleVerdict {
                    oracle,
                    flagged,
                    vtime,
                } => {
                    assert_eq!(oracle, &class.to_string());
                    assert_eq!(*flagged, *class == VulnClass::Rollback);
                    assert_eq!(*vtime, 42);
                }
                other => panic!("expected verdict, got {other:?}"),
            }
        }
        match &events[5] {
            TelemetryEvent::OracleVerdict {
                oracle, flagged, ..
            } => {
                assert_eq!(oracle, "tapos");
                assert!(flagged);
            }
            other => panic!("expected custom verdict, got {other:?}"),
        }
    }

    #[test]
    fn recorder_clones_share_one_buffer() {
        let rec = Recorder::new();
        let mut handle: Box<dyn TelemetrySink> = Box::new(rec.clone());
        handle.record(TelemetryEvent::CampaignStarted {
            seed: 1,
            actions: 1,
            vtime: 0,
        });
        drop(handle);
        assert_eq!(rec.snapshot().len(), 1);
        assert_eq!(rec.take().len(), 1);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TelemetryEvent::parse_jsonl("not json").is_err());
        assert!(TelemetryEvent::parse_jsonl("{\"campaign\":0}").is_err());
        assert!(
            TelemetryEvent::parse_jsonl("{\"campaign\":0,\"event\":\"nope\",\"vtime\":0}").is_err()
        );
        assert!(parse_json_fields("{\"a\":}").is_err());
    }
}
