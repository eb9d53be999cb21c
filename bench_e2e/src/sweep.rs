//! The `sweep_warm` workload: the product path through the `wasai` CLI.
//!
//! Set-up writes a corpus with `wasai gen` and runs one cold
//! `audit-dir --procs 2 --journal J --solver-cache C --triage T` pass, which
//! leaves a warm solver cache. Each timed pass restores that warm cache,
//! deletes the journal, and runs the same sweep again; the next pass starts
//! when the previous one exits (a closed loop with one client).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use wasai_bench::Metrics;
use wasai_core::telemetry::parse_json_fields;
use wasai_core::{Journal, JournalMeta, OutcomeRecord, VulnClass};
use wasai_corpus::parse_label_sidecar;
use wasai_smt::{persist, SolverCache};

use crate::ledger::Layer;
use crate::report::{ratio, EndToEnd, Layers, RunResult};
use crate::stats::{median, percentile_whole_ms, score, undisturbed};
use crate::timed_setup;

/// Contracts in the sweep directory. Every campaign re-saves the whole
/// cache, so a pass costs about `CONTRACTS²`. 100 keeps a pass near half a
/// second on two cores, so a run holds a few dozen passes, and each pass
/// still holds enough records for a p90.
const CONTRACTS: usize = 100;
/// Worker processes (`--procs`), and `WASAI_JOBS` threads in total.
const PROCS: usize = 2;

/// The files one sweep reads and writes, all under the work directory.
struct Files {
    corpus: PathBuf,
    cache: PathBuf,
    warm: PathBuf,
    journal: PathBuf,
    triage: PathBuf,
    dump: PathBuf,
}

impl Files {
    fn under(work: &Path) -> Files {
        Files {
            corpus: work.join("corpus"),
            cache: work.join("solver.cache"),
            warm: work.join("warm.cache"),
            journal: work.join("journal.jsonl"),
            triage: work.join("triage.jsonl"),
            dump: work.join("metrics.json"),
        }
    }
}

/// Run the workload with the `wasai` binary next to this executable, in a
/// work directory under the build's target directory (removed afterwards).
pub fn run(seed: u64, stop: Duration, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the bench binary: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("the bench binary has no parent directory")?;
    let wasai = bin_dir.join("wasai");
    if !wasai.is_file() {
        return Err(format!(
            "{} is missing: build it into the same target directory with \
             `cargo build --release --bin wasai`",
            wasai.display()
        ));
    }
    let work = bin_dir
        .parent()
        .unwrap_or(bin_dir)
        .join("bench_e2e-work")
        .join(format!("sweep-{}", std::process::id()));
    let result = run_in(&wasai, &work, seed, stop, trace);
    let _ = fs::remove_dir_all(&work);
    result
}

fn run_in(
    wasai: &Path,
    work: &Path,
    seed: u64,
    stop: Duration,
    trace: bool,
) -> Result<RunResult, String> {
    let f = Files::under(work);
    let (labels, setup_s) = timed_setup(|| {
        let _ = fs::remove_dir_all(work);
        fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
        let gen = Command::new(wasai)
            .arg("gen")
            .arg(&f.corpus)
            .arg(CONTRACTS.to_string())
            .arg(seed.to_string())
            .stdout(Stdio::null())
            .output()
            .map_err(|e| format!("spawning wasai gen: {e}"))?;
        if !gen.status.success() {
            return Err(format!(
                "wasai gen failed: {}",
                String::from_utf8_lossy(&gen.stderr)
            ));
        }
        audit_dir(wasai, &f, seed, false)?;
        fs::copy(&f.cache, &f.warm).map_err(|e| format!("keeping the warm cache: {e}"))?;
        read_labels(&f.corpus)
    })?;
    eprintln!("sweep_warm: {CONTRACTS} contracts, setup {setup_s:.3}s");

    let mut walls = Vec::new();
    let mut passes: Vec<Vec<OutcomeRecord>> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < stop {
        walls.push(audit_dir(wasai, &f, seed, false)?);
        passes.push(read_journal(&f.journal)?);
    }
    let mut problems = Vec::new();
    let accuracy = check(&passes, &labels, &mut problems);
    let records: Vec<&OutcomeRecord> = passes.iter().flatten().collect();
    let failed = records.iter().filter(|r| !r.is_ok()).count();
    let busy: f64 = walls.iter().map(Duration::as_secs_f64).sum();
    eprintln!(
        "sweep_warm: {} passes, {} audits in {busy:.3}s, precision {}, recall {}",
        passes.len(),
        records.len(),
        accuracy.precision(),
        accuracy.recall()
    );

    if !trace {
        // Each pass is one window.
        let rates: Vec<f64> = passes
            .iter()
            .zip(&walls)
            .map(|(p, wall)| p.len() as f64 / wall.as_secs_f64())
            .collect();
        let pct = |p: f64| -> Result<f64, String> {
            let per_pass = passes
                .iter()
                .map(|recs| {
                    let mut ms: Vec<u64> = recs.iter().map(|r| r.elapsed_ms).collect();
                    ms.sort_unstable();
                    percentile_whole_ms(&ms, p)
                        .ok_or_else(|| format!("{} audits are too few for a percentile", ms.len()))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(undisturbed(&per_pass, true))
        };
        let ok: Vec<&&OutcomeRecord> = records.iter().filter(|r| r.is_ok()).collect();
        let e2e = EndToEnd {
            contracts_per_s: undisturbed(&rates, false),
            contract_ms_p50: pct(0.5)?,
            contract_ms_p90: pct(0.9)?,
            setup_s,
            peak_rss_mb: children_peak_rss_mib()?,
            recall: accuracy.recall(),
            branches_per_contract: ok.iter().map(|r| r.branches as f64).sum::<f64>()
                / ok.len().max(1) as f64,
        };
        return Ok(RunResult {
            problems,
            attempted: records.len(),
            failed,
            metrics: e2e.metrics(),
        });
    }

    let traced_wall = audit_dir(wasai, &f, seed, true)?;
    let traced = read_journal(&f.journal)?;
    check(std::slice::from_ref(&traced), &labels, &mut problems);
    let findings = |recs: &[OutcomeRecord]| -> BTreeMap<usize, String> {
        recs.iter().map(|r| (r.index, r.findings.clone())).collect()
    };
    if findings(&traced) != findings(&passes[0]) {
        problems.push("findings differ between the untraced and traced sweep".to_string());
    }
    let dump = fs::read_to_string(&f.dump).map_err(|e| format!("{}: {e}", f.dump.display()))?;
    let dump = parse_json_fields(&dump).map_err(|e| format!("{}: {e}", f.dump.display()))?;
    let series = |key: &str| -> f64 { dump.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) };

    let campaign_busy_s = series("wasai_campaign_wall_seconds_sum");
    let replay = series("wasai_replay_wall_seconds_sum");
    let solve = series("wasai_solve_wall_seconds_sum");
    // The engine layers run inside the workers; the dump splits campaign
    // time only into replay, solve and the rest, reported as unattributed.
    let mut busy_s = [0.0; Layer::ALL.len()];
    busy_s[Layer::SymexReplay as usize] = replay;
    busy_s[Layer::SmtSolve as usize] = solve;
    busy_s[Layer::Unattributed as usize] = campaign_busy_s - replay - solve;
    let queries: f64 = ["sat", "unsat", "unknown"]
        .iter()
        .map(|o| series(&format!("wasai_smt_queries_total{{outcome=\"{o}\"}}")))
        .sum();
    let (persist_save_s, persist_load_s, entries) = persist_probe(&f, work)?;
    let untraced_s: Vec<f64> = walls.iter().map(Duration::as_secs_f64).collect();
    let layers = Layers {
        busy_s,
        share_of_s: traced_wall.as_secs_f64() * PROCS as f64,
        execute_calls: series("wasai_seeds_executed_total"),
        queries,
        sat_ratio: ratio(series("wasai_smt_queries_total{outcome=\"sat\"}"), queries),
        memo_hit_ratio: ratio(
            series("wasai_smt_cache_hits_total{level=\"campaign\"}"),
            queries,
        ),
        fleet_hit_ratio: ratio(
            series("wasai_smt_cache_hits_total{level=\"fleet\"}"),
            series("wasai_smt_cache_lookups_total{level=\"fleet\"}"),
        ),
        trace_overhead: traced_wall.as_secs_f64() / median(&untraced_s) - 1.0,
        campaign_busy_s,
        metrics_frames: series("wasai_metrics_frames_merged_total"),
        persist_save_s,
        persist_load_s,
        persist_entries: entries as f64,
        journal_append_us: journal_append_us(&traced, seed, work)?,
        ..Layers::default()
    };
    Ok(RunResult {
        problems,
        attempted: records.len() + traced.len(),
        failed: failed + traced.iter().filter(|r| !r.is_ok()).count(),
        metrics: layers.metrics(),
    })
}

/// One sweep over the corpus: restore the warm cache (when set-up has left
/// one), delete the journal, and time the `audit-dir` process.
fn audit_dir(wasai: &Path, f: &Files, seed: u64, dump: bool) -> Result<Duration, String> {
    if f.warm.exists() {
        fs::copy(&f.warm, &f.cache).map_err(|e| format!("restoring the warm cache: {e}"))?;
    }
    let _ = fs::remove_file(&f.journal);
    let mut cmd = Command::new(wasai);
    cmd.arg("audit-dir")
        .arg(&f.corpus)
        .arg(seed.to_string())
        .arg("--procs")
        .arg(PROCS.to_string())
        .arg("--journal")
        .arg(&f.journal)
        .arg("--solver-cache")
        .arg(&f.cache)
        .arg("--triage")
        .arg(&f.triage)
        .env("WASAI_JOBS", PROCS.to_string())
        .env("WASAI_PROGRESS", "0")
        .env_remove("WASAI_PROCS")
        .env_remove("WASAI_DEADLINE")
        .env_remove("WASAI_CHAOS")
        .env_remove("WASAI_METRICS_ADDR")
        .stdout(Stdio::null());
    if dump {
        cmd.arg("--metrics-dump").arg(&f.dump);
    }
    let t0 = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("spawning wasai audit-dir: {e}"))?;
    let wall = t0.elapsed();
    // Exit 2 means the sweep completed with failed campaigns; the journal
    // records which, and they are counted as failed.
    if !matches!(out.status.code(), Some(0 | 2)) {
        return Err(format!(
            "wasai audit-dir failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(wall)
}

/// The outcome records of one sweep, from its journal.
fn read_journal(path: &Path) -> Result<Vec<OutcomeRecord>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records: Vec<OutcomeRecord> = text
        .lines()
        .skip(1)
        .map(OutcomeRecord::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if records.len() != CONTRACTS {
        return Err(format!(
            "{}: {} records for {CONTRACTS} contracts",
            path.display(),
            records.len()
        ));
    }
    Ok(records)
}

/// Ground truth from the `.label` sidecars `wasai gen` writes.
fn read_labels(corpus: &Path) -> Result<BTreeMap<String, BTreeSet<VulnClass>>, String> {
    let mut labels = BTreeMap::new();
    for i in 0..CONTRACTS {
        let path = corpus.join(format!("contract_{i:04}.label"));
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let label = parse_label_sidecar(&text)
            .ok_or_else(|| format!("{}: not a label sidecar", path.display()))?;
        labels.insert(format!("contract_{i:04}.wasm"), label);
    }
    Ok(labels)
}

/// Accuracy over every pass, plus every correctness problem found.
fn check(
    passes: &[Vec<OutcomeRecord>],
    labels: &BTreeMap<String, BTreeSet<VulnClass>>,
    problems: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    for r in passes.iter().flatten().filter(|r| r.is_ok()) {
        let found: Option<BTreeSet<VulnClass>> = if r.findings.is_empty() {
            Some(BTreeSet::new())
        } else {
            r.findings.split(", ").map(VulnClass::from_label).collect()
        };
        match (found, labels.get(&r.contract)) {
            (Some(found), Some(label)) => score(&mut m, &found, label),
            _ => problems.push(format!(
                "{}: unreadable findings {:?} or no label",
                r.contract, r.findings
            )),
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

/// Time `persist::load_into` and `persist::save` on the warm cache file,
/// as every worker does per sweep and per campaign; medians of three.
fn persist_probe(f: &Files, work: &Path) -> Result<(f64, f64, usize), String> {
    let probe = work.join("probe.cache");
    let (mut saves, mut loads, mut entries) = (Vec::new(), Vec::new(), 0);
    for _ in 0..3 {
        let cache = SolverCache::evicting();
        let t = Instant::now();
        entries = persist::load_into(&f.warm, &cache)?;
        loads.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        persist::save(&probe, &cache)?;
        saves.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&saves), median(&loads), entries))
}

/// Mean wall time of `Journal::append` over one sweep's records, appended
/// to a fresh journal as the supervisor does.
fn journal_append_us(records: &[OutcomeRecord], seed: u64, work: &Path) -> Result<f64, String> {
    let names: Vec<String> = (0..CONTRACTS)
        .map(|i| format!("contract_{i:04}.wasm"))
        .collect();
    let path = work.join("probe.journal");
    let mut journal =
        Journal::create(&path, &JournalMeta::new(seed, &names)).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for r in records {
        journal.append(r).map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / records.len() as f64)
}

/// The largest resident set, in MiB, of any finished child of this process
/// (the sweep's supervisor and its workers), from
/// `getrusage(RUSAGE_CHILDREN)`.
fn children_peak_rss_mib() -> Result<f64, String> {
    use std::os::raw::{c_int, c_long};
    /// `struct rusage` on Linux: two `timeval`s, then fourteen `long`s of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_CHILDREN: c_int = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `Rusage` laid out as the C
    // `struct rusage`, which is the only memory getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss as f64 / 1024.0)
}
