//! `bench_e2e` — contracts audited per second, end to end, on four
//! workloads, with a wall-clock ledger of where the time goes.
//!
//! ```text
//! bench_e2e --workload <table4|wild_sdk|cosmwasm|sweep_warm> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation runs one workload: set-up (at least five times and a
//! quarter second; `setup_s` is the median), then one untraced pass that
//! measures for `--seconds` (default 15). The last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` (or
//! `--traced`) a second, traced pass repeats the same audits and the
//! metrics are the per-layer ones. The seed (default `0xe05`) is the only
//! input; every corpus is generated from it. Exit 1 when an output is
//! wrong, 2 on a usage error.
//!
//! # Workloads
//!
//! Each is a closed loop with one client: the next contract (or sweep)
//! starts when the previous one finishes. EOSIO campaigns use the `audit-dir`
//! configuration, `FuzzConfig { rng_seed: seed ^ index, ..default }`, with
//! one shared `SolverCache` per round over the corpus.
//!
//! | name | input | why |
//! |---|---|---|
//! | `table4` | `table4_benchmark(seed, 1.0)`, 3,340 contracts, shuffled, in-process | The paper's ground-truth corpus. Execution, replay and solving each take a quarter to a third, so a solver or replay change shows; labels give recall. |
//! | `wild_sdk` | `wild_corpus(seed, 480, sdk_work: 256)`, deployed versions, in-process | RQ4's wild mix with CDT-shaped decode loops: long traces, execution and replay take over 80%, the solver about 2%. A trace-path change moves it; a solver change must not. |
//! | `cosmwasm` | `cw_corpus(seed, 16384)` through `Wasai::from_prepared`, in-process | The bypass workload: no symbolic replay, no solving; `prepare` is a tenth. A replay or solver change predicts no change here. |
//! | `sweep_warm` | `wasai audit-dir --procs 2 --journal --solver-cache --triage` over `wasai gen` (100 contracts), warm cache restored before each pass | The product path with both durable formats: worker protocol, metrics frames, journal and solver-cache persistence. Flip queries are answered from the cache. |
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! `contracts_per_s`; `contract_ms_p50` and `contract_ms_p90` (prepare +
//! campaign + report per contract; for `sweep_warm`, the `elapsed_ms` of the
//! journal records, interpolated inside each whole millisecond); `setup_s`;
//! `peak_rss_mb` (`VmHWM` of this process, or for `sweep_warm` the largest
//! child process); `recall` over (contract, class) pairs against the
//! labels; `branches_per_contract`. A percentile is reported only when at
//! least ten samples lie beyond it.
//!
//! Timings are read per window of the pass: windows of at least a second
//! for throughput, and of at least a second and 100 audits for latency
//! percentiles (one window per sweep in `sweep_warm`). Other tenants of a
//! shared host only ever slow a window down, so each timing is the
//! least-disturbed quartile over the windows: the upper quartile of
//! throughputs, the lower quartile of latencies.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The layers are measured from outside the program. A [`ledger::LedgerSink`]
//! timestamps every telemetry callback and charges the gap since the
//! previous one to the layer whose work precedes it:
//!
//! - `CampaignStarted` closes `engine.setup`;
//! - `StageTiming{Execute}` closes `chain.execute` (seed pick, transaction
//!   build, `Chain::push_transaction`);
//! - `SeedExecuted` closes `engine.observe` (`Scanner::observe`, the
//!   dependency graph, `BranchSites::extend_from_trace`);
//! - `Replayed` closes `symex.replay`;
//! - `StageTiming{Solve}`, `SmtQuery` and `ConstraintFlipped` close
//!   `smt.solve` (flip construction and solving);
//! - `OracleVerdict`, `CampaignFinished` and the tail until `run()` returns
//!   close `engine.verdicts`.
//!
//! The bench's own calls are `harness.prepare` (`PreparedTarget::prepare`)
//! and `report` (`OutcomeRecord::to_jsonl`); the rest is `unattributed`.
//! Each layer reports `<layer>.busy_s` and `<layer>.share` of the traced
//! pass's wall time, and the layers sum to it. Counts come from the same
//! callbacks and from the obs registry (`VmInstructions`, fleet cache
//! lookups). In `sweep_warm` the engine runs in worker processes, so
//! `symex.replay` and `smt.solve` come from the `--metrics-dump` wall-time
//! histograms, the rest of campaign time is `unattributed`, shares are of
//! worker-slot time (wall × 2), and `smt.persist.*` and
//! `journal.append_us` time `persist::{load_into,save}` and
//! `Journal::append` on the sweep's own files. A metric of a layer that a
//! workload does not run, or cannot see, reads 0.
//!
//! Which layer moves which end-to-end metric (always `contracts_per_s` and
//! `contract_ms_*`): `chain.execute` and `engine.observe` on `wild_sdk`
//! first, then `table4` and `cosmwasm`; `symex.replay` on `table4` and
//! `wild_sdk`, not on `cosmwasm`; `smt.solve` on `table4` only;
//! `harness.prepare` on `cosmwasm`; `smt.persist.*` and
//! `fleet.overhead_share` on `sweep_warm` only.
//!
//! # Correctness gates
//!
//! The run is incorrect (exit 1) when precision is below 1.0 on any
//! workload, when a `cosmwasm` finding set differs from its label, or when
//! a contract's `(findings, branches, iterations, smt_queries)` differs
//! between the untraced and the traced pass.

mod inproc;
mod ledger;
mod report;
mod stats;
mod sweep;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up runs at least this many times, and for at least
/// [`SETUP_MIN_S`] in all; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// A set-up of a few milliseconds is repeated until this many seconds have
/// passed, so that its median is not one scheduler hiccup.
const SETUP_MIN_S: f64 = 0.25;

/// Run `setup` repeatedly (see [`SETUP_REPS`]); the last result and the
/// median time.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("set-up ran at least once"),
        stats::median(&times),
    ))
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM".to_string())
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    InProcess(inproc::Kind),
    SweepWarm,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "table4" => Workload::InProcess(inproc::Kind::Table4),
            "wild_sdk" => Workload::InProcess(inproc::Kind::WildSdk),
            "cosmwasm" => Workload::InProcess(inproc::Kind::Cosmwasm),
            "sweep_warm" => Workload::SweepWarm,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0xe05;
    let mut seconds = 15;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--traced" => trace = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            eprintln!(
                "usage: bench_e2e --workload <table4|wild_sdk|cosmwasm|sweep_warm> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let stop = Duration::from_secs(args.seconds);
    let result = match args.workload {
        Workload::InProcess(kind) => inproc::run(
            kind,
            args.seed,
            kind.full_size(),
            inproc::Stop::After(stop),
            args.trace,
        ),
        Workload::SweepWarm => sweep::run(args.seed, stop, args.trace),
    };
    match result {
        Ok(r) => {
            for p in &r.problems {
                eprintln!("bench_e2e: INCORRECT: {p}");
            }
            println!("{}", r.to_json());
            if r.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_every_flag_and_reject_strays() {
        let a = parse_args(&strs(&[
            "--workload",
            "wild_sdk",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::InProcess(inproc::Kind::WildSdk));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let d = parse_args(&strs(&["--workload", "sweep_warm"])).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (0xe05, 15, false));
        assert!(parse_args(&strs(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strs(&["--trace", "2", "--workload", "table4"])).is_err());
        assert!(parse_args(&strs(&["--seed", "1"])).is_err());
    }

    /// The three in-process workloads on an 8-contract corpus, untraced
    /// (cycled to one latency window) and traced, on the code path of the
    /// full runs.
    #[test]
    fn in_process_workloads_smoke_at_n8() {
        for kind in [
            inproc::Kind::Table4,
            inproc::Kind::WildSdk,
            inproc::Kind::Cosmwasm,
        ] {
            for (trace, audits) in [(false, stats::WINDOW_AUDITS), (true, 8)] {
                let r = inproc::run(kind, 0xe05, 8, inproc::Stop::Audits(audits), trace)
                    .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
                assert!(r.problems.is_empty(), "{kind:?}: {:?}", r.problems);
                assert_eq!(r.failed, 0, "{kind:?}");
                assert_eq!(r.attempted, if trace { 2 * audits } else { audits });
                let json = r.to_json();
                assert!(json.starts_with("{\"correct\": true"), "{json}");
                let names = r.names();
                let expect: &[&str] = if trace {
                    &[
                        "harness.prepare.busy_s",
                        "unattributed.share",
                        "trace_overhead",
                    ]
                } else {
                    &["contracts_per_s", "setup_s", "recall"]
                };
                for name in expect {
                    assert!(names.contains(name), "{kind:?}: no {name} in {names:?}");
                }
            }
        }
    }
}
