//! The wall-clock layer ledger.
//!
//! The engine already reports its progress through [`TelemetrySink`]
//! callbacks. [`LedgerSink`] timestamps each callback; the gap since the
//! previous timestamp is charged to the layer whose work precedes that
//! callback ([`Layer::closed_by`]). The bench marks its own calls the same
//! way ([`Ledger::mark`]), so every nanosecond of a traced pass lands in
//! exactly one layer and the layers sum to the pass's wall time.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wasai_core::{SmtOutcome, Stage, TelemetryEvent, TelemetrySink};

/// A layer of the audit pipeline, named after the module doing the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `PreparedTarget::prepare`: instrument, compile, scan branch sites.
    HarnessPrepare,
    /// Campaign construction up to `CampaignStarted` (chain fork, engine).
    EngineSetup,
    /// Seed pick, transaction build and `Chain::push_transaction`.
    ChainExecute,
    /// `Scanner::observe`, dependency graph, coverage extension.
    EngineObserve,
    /// Symbolic trace replay.
    SymexReplay,
    /// Flip construction, SMT solving and seed-from-model.
    SmtSolve,
    /// Oracle verdicts and the campaign tail until `run()` returns.
    EngineVerdicts,
    /// Rendering the outcome record (`OutcomeRecord::to_jsonl`).
    Report,
    /// The bench's own bookkeeping between contracts.
    Unattributed,
}

impl Layer {
    /// Every layer, in pipeline order.
    pub const ALL: [Layer; 9] = [
        Layer::HarnessPrepare,
        Layer::EngineSetup,
        Layer::ChainExecute,
        Layer::EngineObserve,
        Layer::SymexReplay,
        Layer::SmtSolve,
        Layer::EngineVerdicts,
        Layer::Report,
        Layer::Unattributed,
    ];

    /// The metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::HarnessPrepare => "harness.prepare",
            Layer::EngineSetup => "engine.setup",
            Layer::ChainExecute => "chain.execute",
            Layer::EngineObserve => "engine.observe",
            Layer::SymexReplay => "symex.replay",
            Layer::SmtSolve => "smt.solve",
            Layer::EngineVerdicts => "engine.verdicts",
            Layer::Report => "report",
            Layer::Unattributed => "unattributed",
        }
    }

    /// The layer whose work runs between the previous callback and `event`.
    pub fn closed_by(event: &TelemetryEvent) -> Layer {
        match event {
            TelemetryEvent::StageTiming {
                stage: Stage::Prepare,
                ..
            } => Layer::HarnessPrepare,
            TelemetryEvent::CampaignStarted { .. } => Layer::EngineSetup,
            TelemetryEvent::StageTiming {
                stage: Stage::Execute,
                ..
            } => Layer::ChainExecute,
            TelemetryEvent::SeedExecuted { .. } => Layer::EngineObserve,
            TelemetryEvent::StageTiming {
                stage: Stage::Replay,
                ..
            }
            | TelemetryEvent::Replayed { .. } => Layer::SymexReplay,
            TelemetryEvent::StageTiming {
                stage: Stage::Solve,
                ..
            }
            | TelemetryEvent::SmtQuery { .. }
            | TelemetryEvent::ConstraintFlipped { .. } => Layer::SmtSolve,
            TelemetryEvent::OracleVerdict { .. } | TelemetryEvent::CampaignFinished { .. } => {
                Layer::EngineVerdicts
            }
            TelemetryEvent::CampaignAborted { .. } => Layer::Unattributed,
        }
    }
}

/// Work counts read off the same callbacks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Seeds executed on the chain.
    pub executions: u64,
    /// Executions that discovered at least one new branch.
    pub useful_executions: u64,
    /// Trace records replayed symbolically.
    pub replay_records: u64,
    /// SMT flip queries answered.
    pub queries: u64,
    /// Queries answered `Sat`.
    pub sat: u64,
    /// Queries answered from the campaign's memo cache.
    pub memo_hits: u64,
}

/// Per-layer busy time of one traced pass.
#[derive(Debug, Clone)]
pub struct Ledger {
    busy: [Duration; Layer::ALL.len()],
    last: Instant,
    counts: Counts,
}

impl Ledger {
    /// An empty ledger whose first gap starts at `start`.
    pub fn new(start: Instant) -> Ledger {
        Ledger {
            busy: [Duration::ZERO; Layer::ALL.len()],
            last: start,
            counts: Counts::default(),
        }
    }

    /// Charge the time since the previous mark to `layer`.
    pub fn mark(&mut self, layer: Layer, now: Instant) {
        self.busy[layer as usize] += now.saturating_duration_since(self.last);
        self.last = now;
    }

    /// Count `event` and charge the gap it closes, as of `now`.
    pub fn observe(&mut self, event: &TelemetryEvent, now: Instant) {
        let c = &mut self.counts;
        match event {
            TelemetryEvent::SeedExecuted { coverage_delta, .. } => {
                c.executions += 1;
                c.useful_executions += u64::from(*coverage_delta > 0);
            }
            TelemetryEvent::Replayed { records, .. } => c.replay_records += *records as u64,
            TelemetryEvent::SmtQuery {
                outcome, cache_hit, ..
            } => {
                c.queries += 1;
                c.sat += u64::from(*outcome == SmtOutcome::Sat);
                c.memo_hits += u64::from(*cache_hit);
            }
            _ => {}
        }
        self.mark(Layer::closed_by(event), now);
    }

    /// Busy time charged to `layer`.
    pub fn busy(&self, layer: Layer) -> Duration {
        self.busy[layer as usize]
    }

    /// Sum over every layer: the time from `start` to the last mark.
    pub fn total(&self) -> Duration {
        self.busy.iter().sum()
    }

    /// The work counts.
    pub fn counts(&self) -> Counts {
        self.counts
    }
}

/// A telemetry sink that feeds a shared [`Ledger`].
#[derive(Debug, Clone)]
pub struct LedgerSink(pub Arc<Mutex<Ledger>>);

impl TelemetrySink for LedgerSink {
    fn record(&mut self, event: TelemetryEvent) {
        let now = Instant::now();
        self.0
            .lock()
            .expect("ledger lock poisoned by a panicking campaign")
            .observe(&event, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_executed(coverage_delta: usize) -> TelemetryEvent {
        TelemetryEvent::SeedExecuted {
            action: "transfer".into(),
            payload: "official".into(),
            coverage_delta,
            branches: 3,
            vtime: 0,
        }
    }

    fn stage(stage: Stage) -> TelemetryEvent {
        TelemetryEvent::StageTiming {
            stage,
            dur_us: 1,
            vtime: 0,
        }
    }

    #[test]
    fn scripted_stream_is_attributed_exactly_and_sums_to_the_total() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut ledger = Ledger::new(t0);
        ledger.mark(Layer::HarnessPrepare, at(5));
        let script = [
            (
                TelemetryEvent::CampaignStarted {
                    seed: 1,
                    actions: 3,
                    vtime: 0,
                },
                7,
            ),
            (stage(Stage::Execute), 17),
            (seed_executed(2), 20),
            (
                TelemetryEvent::Replayed {
                    records: 40,
                    conditionals: 2,
                    truncated: false,
                    vtime: 0,
                },
                35,
            ),
            (stage(Stage::Solve), 50),
            (
                TelemetryEvent::SmtQuery {
                    outcome: SmtOutcome::Sat,
                    conflicts: 0,
                    props: 9,
                    cache_hit: true,
                    incremental: false,
                    vtime: 0,
                },
                51,
            ),
            (
                TelemetryEvent::ConstraintFlipped {
                    func: 1,
                    pc: 2,
                    direction: 1,
                    vtime: 0,
                },
                52,
            ),
            (stage(Stage::Execute), 60),
            (seed_executed(0), 62),
            (
                TelemetryEvent::OracleVerdict {
                    oracle: "Fake EOS".into(),
                    flagged: false,
                    vtime: 0,
                },
                63,
            ),
            (
                TelemetryEvent::CampaignFinished {
                    iterations: 2,
                    branches: 3,
                    truncated: false,
                    vtime: 0,
                },
                64,
            ),
        ];
        for (event, ms) in &script {
            ledger.observe(event, at(*ms));
        }
        ledger.mark(Layer::EngineVerdicts, at(66));
        ledger.mark(Layer::Report, at(67));
        ledger.mark(Layer::Unattributed, at(70));

        let ms = |layer| ledger.busy(layer).as_millis();
        assert_eq!(ms(Layer::HarnessPrepare), 5);
        assert_eq!(ms(Layer::EngineSetup), 2);
        assert_eq!(ms(Layer::ChainExecute), 10 + 8);
        assert_eq!(ms(Layer::EngineObserve), 3 + 2);
        assert_eq!(ms(Layer::SymexReplay), 15);
        assert_eq!(ms(Layer::SmtSolve), 15 + 1 + 1);
        assert_eq!(ms(Layer::EngineVerdicts), 1 + 1 + 2);
        assert_eq!(ms(Layer::Report), 1);
        assert_eq!(ms(Layer::Unattributed), 3);
        assert_eq!(ledger.total(), Duration::from_millis(70));
        assert_eq!(
            ledger.counts(),
            Counts {
                executions: 2,
                useful_executions: 1,
                replay_records: 40,
                queries: 1,
                sat: 1,
                memo_hits: 1,
            }
        );
    }

    #[test]
    fn the_sink_charges_the_shared_ledger() {
        let ledger = Arc::new(Mutex::new(Ledger::new(Instant::now())));
        let mut sink: Box<dyn TelemetrySink> = Box::new(LedgerSink(ledger.clone()));
        sink.record(seed_executed(1));
        let ledger = ledger.lock().unwrap();
        assert_eq!(ledger.counts().executions, 1);
        assert_eq!(ledger.total(), ledger.busy(Layer::EngineObserve));
    }
}
