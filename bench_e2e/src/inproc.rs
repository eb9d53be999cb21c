//! The in-process workloads: `table4`, `wild_sdk` and `cosmwasm`.
//!
//! One client audits one contract at a time (a closed loop): prepare,
//! campaign, outcome record. Every campaign uses the configuration
//! `audit-dir` uses, `FuzzConfig { rng_seed: seed ^ index, ..default }`,
//! and each round over the corpus shares one fresh `SolverCache`, as one
//! `audit-dir` sweep would.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wasai_bench::Metrics;
use wasai_chain::abi::Abi;
use wasai_core::{
    FuzzConfig, FuzzReport, OutcomeRecord, PreparedTarget, TargetInfo, VulnClass, Wasai,
};
use wasai_corpus::{cw_corpus, table4_benchmark, wild_corpus, WildRates};
use wasai_obs as obs;
use wasai_smt::SolverCache;

use crate::ledger::{Layer, Ledger, LedgerSink};
use crate::report::{ratio, EndToEnd, Layers, RunResult};
use crate::stats::{percentile, score, undisturbed, windows, WINDOW_AUDITS, WINDOW_S};
use crate::{peak_rss_mib, timed_setup};

/// Which in-process corpus to audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Table 4 ground-truth benchmark at full scale (3,340 contracts).
    Table4,
    /// 480 wild-mix contracts with CDT-shaped decode loops.
    WildSdk,
    /// 16,384 labeled CosmWasm contracts.
    Cosmwasm,
}

impl Kind {
    /// Corpus size of a full run. Each is larger than one run audits (but
    /// for `table4`, the paper's full benchmark), so a run's sample of
    /// contracts is fresh and its p90 is not one corpus's tail.
    pub fn full_size(self) -> usize {
        match self {
            Kind::Table4 => 3_340,
            Kind::WildSdk => 480,
            Kind::Cosmwasm => 16_384,
        }
    }
}

/// Decode-loop iterations per `wild_sdk` action: enough that instrumented
/// execution and replay dominate the solver, few enough that a run audits
/// a few hundred contracts.
const SDK_WORK: u32 = 256;

/// One labeled contract, with its index in the generated corpus (which
/// fixes its campaign seed, whatever order the loop visits it in).
pub struct Contract {
    index: usize,
    info: TargetInfo,
    label: BTreeSet<VulnClass>,
}

/// Generate `size` contracts of `kind` from `seed`, in a seeded shuffle so
/// that any prefix of a time-bounded pass is a uniform sample (the Table 4
/// generator emits its classes in blocks).
pub fn corpus(kind: Kind, seed: u64, size: usize) -> Vec<Contract> {
    let raw: Vec<(TargetInfo, BTreeSet<VulnClass>)> = match kind {
        Kind::Table4 => table4_benchmark(seed, size as f64 / Kind::Table4.full_size() as f64)
            .into_iter()
            .map(|s| {
                (
                    TargetInfo::new(s.contract.module, s.contract.abi),
                    s.contract.label,
                )
            })
            .collect(),
        Kind::WildSdk => wild_corpus(
            seed,
            size,
            WildRates {
                sdk_work: SDK_WORK,
                ..WildRates::default()
            },
        )
        .into_iter()
        .map(|w| {
            (
                TargetInfo::new(w.deployed.module, w.deployed.abi),
                w.deployed.label,
            )
        })
        .collect(),
        Kind::Cosmwasm => cw_corpus(seed, size)
            .into_iter()
            .map(|c| (TargetInfo::new(c.module, Abi::default()), c.label))
            .collect(),
    };
    let mut out: Vec<Contract> = raw
        .into_iter()
        .enumerate()
        .map(|(index, (info, label))| Contract { index, info, label })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out.truncate(size);
    out
}

/// When a pass ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the first contract boundary after this much wall time, once the
    /// pass holds one latency window ([`WINDOW_AUDITS`] audits).
    After(Duration),
    /// After this many audits.
    Audits(usize),
}

/// The deterministic result of one audit: what telemetry must not change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audit {
    index: usize,
    findings: BTreeSet<VulnClass>,
    branches: usize,
    iterations: u64,
    smt_queries: u64,
}

/// One closed-loop pass over the corpus.
pub struct Pass {
    wall: Duration,
    latencies_ms: Vec<f64>,
    /// Each audit's completion time, in seconds since the pass began.
    ends_s: Vec<f64>,
    /// One entry per audit; `None` when the campaign failed.
    audits: Vec<Option<Audit>>,
    ledger: Option<Ledger>,
}

/// Audit `corpus` round-robin until `stop`. A traced pass attaches a
/// [`LedgerSink`] to every campaign and marks the bench's own calls.
pub fn run_pass(corpus: &[Contract], seed: u64, stop: Stop, traced: bool) -> Pass {
    let start = Instant::now();
    let ledger = traced.then(|| Arc::new(Mutex::new(Ledger::new(start))));
    let mark = |layer: Layer| {
        if let Some(l) = &ledger {
            let now = Instant::now();
            l.lock().expect("ledger lock poisoned").mark(layer, now);
        }
    };
    let mut latencies_ms = Vec::new();
    let mut ends_s = Vec::new();
    let mut audits = Vec::new();
    let mut cache = Arc::new(SolverCache::new());
    for pos in 0.. {
        let done = match stop {
            Stop::After(d) => pos >= WINDOW_AUDITS && start.elapsed() >= d,
            Stop::Audits(n) => pos >= n,
        };
        if done {
            break;
        }
        if pos > 0 && pos % corpus.len() == 0 {
            cache = Arc::new(SolverCache::new());
        }
        let c = &corpus[pos % corpus.len()];
        let t0 = Instant::now();
        let prepared = PreparedTarget::prepare(c.info.clone());
        mark(Layer::HarnessPrepare);
        let report = prepared.and_then(|p| {
            let mut w = Wasai::from_prepared(p)
                .with_config(FuzzConfig {
                    rng_seed: seed ^ c.index as u64,
                    ..FuzzConfig::default()
                })
                .with_solver_cache(cache.clone());
            if let Some(l) = &ledger {
                w = w.with_sink(Box::new(LedgerSink(l.clone())));
            }
            w.run()
        });
        mark(Layer::EngineVerdicts);
        black_box(outcome_record(c, seed, &report, t0.elapsed()).to_jsonl());
        mark(Layer::Report);
        let end = Instant::now();
        latencies_ms.push((end - t0).as_secs_f64() * 1e3);
        ends_s.push((end - start).as_secs_f64());
        audits.push(report.ok().map(|r| Audit {
            index: c.index,
            findings: r.findings,
            branches: r.branches,
            iterations: r.iterations,
            smt_queries: r.smt_queries,
        }));
        mark(Layer::Unattributed);
    }
    let wall = start.elapsed();
    let ledger = ledger.map(|l| {
        let mut l = l.lock().expect("ledger lock poisoned").clone();
        l.mark(Layer::Unattributed, start + wall);
        l
    });
    Pass {
        wall,
        latencies_ms,
        ends_s,
        audits,
        ledger,
    }
}

/// The record `audit-dir` journals and renders for one campaign.
fn outcome_record(
    c: &Contract,
    seed: u64,
    report: &Result<FuzzReport, wasai_chain::ChainError>,
    elapsed: Duration,
) -> OutcomeRecord {
    let ok = report.as_ref().ok();
    let findings: Vec<String> = ok
        .map(|r| r.findings.iter().map(|c| c.to_string()).collect())
        .unwrap_or_default();
    OutcomeRecord {
        index: c.index,
        contract: format!("contract_{:04}.wasm", c.index),
        outcome: if ok.is_some() { "ok" } else { "failed" }.to_string(),
        stage: "-".to_string(),
        detail: report
            .as_ref()
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default(),
        seed: seed ^ c.index as u64,
        truncated: ok.is_some_and(|r| r.truncated),
        branches: ok.map_or(0, |r| r.branches as u64),
        findings: findings.join(", "),
        virtual_us: ok.map_or(0, |r| r.virtual_us),
        iterations: ok.map_or(0, |r| r.iterations),
        smt_queries: ok.map_or(0, |r| r.smt_queries),
        exec_us: ok.map_or(0, |r| r.exec_virtual_us),
        solve_us: ok.map_or(0, |r| r.solve_virtual_us),
        elapsed_ms: elapsed.as_millis() as u64,
    }
}

/// Accuracy of a pass, plus every correctness problem found in it.
fn check(kind: Kind, corpus: &[Contract], pass: &Pass, problems: &mut Vec<String>) -> Metrics {
    let labels: BTreeMap<usize, &BTreeSet<VulnClass>> =
        corpus.iter().map(|c| (c.index, &c.label)).collect();
    let mut m = Metrics::default();
    for a in pass.audits.iter().flatten() {
        let label = labels[&a.index];
        score(&mut m, &a.findings, label);
        if kind == Kind::Cosmwasm && &a.findings != label {
            problems.push(format!(
                "cosmwasm contract {}: findings {:?} differ from label {:?}",
                a.index, a.findings, label
            ));
        }
    }
    if m.precision() < 1.0 {
        problems.push(format!(
            "precision {} < 1.0 ({} false positives)",
            m.precision(),
            m.fp
        ));
    }
    m
}

/// Run one in-process workload: set up, one untraced timed pass, and with
/// `trace` a traced pass over the same audits.
pub fn run(
    kind: Kind,
    seed: u64,
    size: usize,
    stop: Stop,
    trace: bool,
) -> Result<RunResult, String> {
    let (corpus, setup_s) = timed_setup(|| Ok(corpus(kind, seed, size)))?;
    eprintln!("{kind:?}: {} contracts, setup {setup_s:.3}s", corpus.len());
    let base = run_pass(&corpus, seed, stop, false);
    let mut problems = Vec::new();
    let accuracy = check(kind, &corpus, &base, &mut problems);
    let failed = base.audits.iter().filter(|a| a.is_none()).count();
    eprintln!(
        "{kind:?}: {} audits in {:.3}s, precision {}, recall {}",
        base.audits.len(),
        base.wall.as_secs_f64(),
        accuracy.precision(),
        accuracy.recall()
    );
    if !trace {
        return Ok(RunResult {
            problems,
            attempted: base.audits.len(),
            failed,
            metrics: end_to_end(&base, &accuracy, setup_s)?.metrics(),
        });
    }

    obs::enable();
    obs::global().reset();
    let traced = run_pass(&corpus, seed, Stop::Audits(base.audits.len()), true);
    check(kind, &corpus, &traced, &mut problems);
    if let Some(i) = (0..base.audits.len()).find(|&i| base.audits[i] != traced.audits[i]) {
        problems.push(format!(
            "audit {i} differs between the untraced and traced pass: {:?} vs {:?}",
            base.audits[i], traced.audits[i]
        ));
    }
    Ok(RunResult {
        problems,
        attempted: base.audits.len() + traced.audits.len(),
        failed: failed + traced.audits.iter().filter(|a| a.is_none()).count(),
        metrics: per_layer(&base, &traced).metrics(),
    })
}

fn end_to_end(pass: &Pass, accuracy: &Metrics, setup_s: f64) -> Result<EndToEnd, String> {
    let rates: Vec<f64> = windows(&pass.ends_s, WINDOW_S, 1)
        .into_iter()
        .map(|(audits, wall)| audits.len() as f64 / wall)
        .collect();
    let pct = |p: f64| -> Result<f64, String> {
        let per_window = windows(&pass.ends_s, WINDOW_S, WINDOW_AUDITS)
            .into_iter()
            .map(|(audits, _)| {
                let mut lat = pass.latencies_ms[audits].to_vec();
                lat.sort_by(f64::total_cmp);
                percentile(&lat, p)
                    .ok_or_else(|| format!("{} audits are too few for a percentile", lat.len()))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(undisturbed(&per_window, true))
    };
    let ok: Vec<&Audit> = pass.audits.iter().flatten().collect();
    Ok(EndToEnd {
        contracts_per_s: undisturbed(&rates, false),
        contract_ms_p50: pct(0.5)?,
        contract_ms_p90: pct(0.9)?,
        setup_s,
        peak_rss_mb: peak_rss_mib()?,
        recall: accuracy.recall(),
        branches_per_contract: ok.iter().map(|a| a.branches as f64).sum::<f64>()
            / ok.len().max(1) as f64,
    })
}

fn per_layer(base: &Pass, traced: &Pass) -> Layers {
    let ledger = traced
        .ledger
        .as_ref()
        .expect("a traced pass keeps its ledger");
    let secs = |layer: Layer| ledger.busy(layer).as_secs_f64();
    let ns = |layer: Layer| ledger.busy(layer).as_nanos() as f64;
    let c = ledger.counts();
    let reg = obs::global();
    let campaign_layers = [
        Layer::EngineSetup,
        Layer::ChainExecute,
        Layer::EngineObserve,
        Layer::SymexReplay,
        Layer::SmtSolve,
        Layer::EngineVerdicts,
    ];
    // The layers sum to the traced pass's wall time by construction.
    let wall = ledger.total().as_secs_f64();
    Layers {
        busy_s: Layer::ALL.map(secs),
        share_of_s: wall,
        execute_calls: c.executions as f64,
        ns_per_instr: ratio(
            ns(Layer::ChainExecute),
            reg.counter(obs::Counter::VmInstructions) as f64,
        ),
        useful_ratio: ratio(c.useful_executions as f64, c.executions as f64),
        replay_records: c.replay_records as f64,
        ns_per_record: ratio(ns(Layer::SymexReplay), c.replay_records as f64),
        queries: c.queries as f64,
        sat_ratio: ratio(c.sat as f64, c.queries as f64),
        memo_hit_ratio: ratio(c.memo_hits as f64, c.queries as f64),
        fleet_hit_ratio: ratio(
            reg.counter(obs::Counter::CacheHitsFleet) as f64,
            reg.counter(obs::Counter::CacheLookupsFleet) as f64,
        ),
        trace_overhead: wall / base.wall.as_secs_f64() - 1.0,
        campaign_busy_s: campaign_layers.map(secs).iter().sum(),
        ..Layers::default()
    }
}
