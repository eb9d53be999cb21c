//! The `wasai` command-line tool.
//!
//! ```text
//! wasai audit     <contract.wasm> <contract.abi> [--trace-out FILE]
//!                       [--substrate eosio|cosmwasm|auto] [--profile-out FILE] [obs flags]
//!                                                 analyze a contract binary
//! wasai audit-dir <dir> [seed] [--deadline-secs S] [--triage FILE] [--trace-out FILE]
//!                       [--procs N] [--journal FILE] [--resume FILE]
//!                       [--substrate eosio|cosmwasm|auto] [--profile-out FILE] [obs flags]
//!                                                 analyze every *.wasm in a directory
//! wasai stats     <trace-or-triage.jsonl> [--format table|json] [--fleet]
//!                                                 summarize a telemetry trace or triage report
//! wasai gen       <out-dir> [count] [seed] [--substrate eosio|cosmwasm]
//!                                                 emit a labeled sample corpus
//! wasai show      <contract.wasm>                 dump a WAT-like listing
//! ```
//!
//! `--substrate` pins the chain backend for every campaign; the default
//! (`auto`) detects it per module from the entry exports (`apply` → eosio,
//! `instantiate`/`execute` → cosmwasm). Worker subprocesses spawned by
//! `--procs` inherit the flag verbatim.
//!
//! Observability flags (shared by `audit` and `audit-dir`):
//!
//! - `--metrics-addr ADDR` (or `WASAI_METRICS_ADDR`) serves live Prometheus
//!   text exposition on `http://ADDR/metrics` (JSON at `/metrics.json`) for
//!   the duration of the run; `WASAI_METRICS_LINGER_SECS` keeps the
//!   listener up that many seconds after the sweep so late scrapes land.
//! - `--metrics-dump FILE` writes a one-shot JSON snapshot of every metric
//!   at exit.
//! - `--progress` / `--no-progress` (or `WASAI_PROGRESS=1|0`) force the
//!   live stderr progress line on or off; the default is on only when
//!   stderr is a terminal. `--stall-secs N` (default 30) sets the
//!   heartbeat threshold after which a quiet campaign is flagged STALLED.
//!
//! All observability output is wall-clock and strictly out-of-band: stdout
//! verdicts, triage files, and telemetry traces are byte-identical with
//! these surfaces on or off (see DESIGN.md, "The determinism boundary").
//!
//! `audit-dir` fans campaigns out over `WASAI_JOBS` worker threads (default:
//! available parallelism; `1` forces serial) and reports per-contract
//! verdicts in directory order regardless of worker count. Campaigns are
//! fault-isolated: a contract that panics the pipeline, hangs the solver, or
//! fails to validate is triaged and the sweep keeps going. `--deadline-secs`
//! (or `WASAI_DEADLINE`, seconds) arms a wall-clock watchdog shared by every
//! stage; `--triage FILE` writes a machine-readable JSON-lines report with
//! one record per contract:
//!
//! ```text
//! {"contract":"c.wasm","index":3,"outcome":"panicked","stage":"replay",
//!  "detail":"...","seed":1234,"truncated":false,"branches":12,
//!  "virtual_us":500000,"exec_us":450000,"solve_us":50000,
//!  "iterations":96,"smt_queries":14,"elapsed_ms":17}
//! ```
//!
//! The per-campaign timeline fields (`virtual_us` = `exec_us` + `solve_us`,
//! `iterations`, `smt_queries`) are deterministic; `elapsed_ms` is the only
//! wall-clock field and stays last so it can be stripped with a one-line
//! `sed` for byte comparison across schedules.
//!
//! `--profile-out FILE` writes a folded-stack span profile (one
//! `wasai;<contract>;execute|solve <virtual-µs>` line per non-zero stage,
//! sweep order) ready for any flamegraph renderer. Weights come from the
//! virtual clock, so the file is byte-identical at any `WASAI_JOBS`,
//! `--procs` value, or resume schedule.
//!
//! `--trace-out FILE` writes the campaigns' telemetry event stream as JSON
//! lines (see `wasai_core::telemetry`), merged in campaign-index order —
//! the trace is byte-identical for every `WASAI_JOBS` value. `wasai stats`
//! renders either file kind as a human-readable table; on a
//! `--metrics-dump` snapshot, `wasai stats --fleet` splits the
//! `shard="N"` series into one table per worker shard after the
//! fleet-total rollup.
//!
//! `--procs N` (or `WASAI_PROCS`) promotes fault isolation from threads to
//! **processes**: a supervisor shards the corpus across N `audit-worker`
//! subprocesses (each running the thread fleet internally on
//! `WASAI_JOBS / N` threads) and merges their streamed outcome records.
//! A worker that dies or stalls is re-dispatched with only its unfinished
//! campaigns (bounded exponential backoff; `WASAI_MAX_ATTEMPTS`,
//! `WASAI_RETRY_BACKOFF_MS`, `WASAI_WORKER_STALL_SECS` tune it) and
//! campaigns that outlive every retry are triaged as `crashed`. Because
//! campaign seeds depend only on the sweep seed and the campaign's index,
//! verdicts and triage are byte-identical to a single-process run at any
//! `--procs` value and any kill schedule.
//!
//! `--journal FILE` additionally appends each completed campaign's outcome
//! record to a durable JSONL journal (fsync'd per record, digest-checked);
//! `--resume FILE` is the same flag with intent spelled out: if FILE
//! already holds records from an interrupted sweep of the same corpus and
//! seed, those campaigns are restored without re-running and only the
//! unfinished remainder executes. A torn final line (the power-loss case)
//! is dropped and rewritten; any other corruption is a hard error. The
//! aggregate report after a resume is byte-identical to an uninterrupted
//! run. `audit-worker` is the internal worker entrypoint spawned by
//! `--procs`; it is not part of the public interface.
//!
//! Exit codes: `0` — sweep completed, every contract audited cleanly (the
//! contracts may still be *vulnerable*; findings are verdicts, not errors);
//! `2` — sweep completed but at least one contract failed, panicked, or
//! timed out (see the triage report); `1` — fatal usage or I/O error before
//! the sweep could run.
//!
//! The ABI sidecar is one action per line, `name(type,…)` with types from
//! {name, asset, string, u64, u32, u8, i64, f64}:
//!
//! ```text
//! transfer(name,name,asset,string)
//! reveal(name,u64)
//! ```

use std::fs;
use std::io::IsTerminal;
use std::path::{Path, PathBuf};
use std::process::{ExitCode, Stdio};
use std::time::Duration;

use wasai::prelude::*;
use wasai::wasai_chain::ChainError;
use wasai::wasai_core::chaos;
use wasai::wasai_core::fleet::journal::{Journal, JournalMeta, OutcomeRecord};
use wasai::wasai_core::fleet::supervisor::{run_supervised, SupervisorOpts};
use wasai::wasai_core::fleet::{self, stage, CampaignOutcome, CampaignRun};
use wasai::wasai_core::obs_bridge::{self, ProgressMonitor};
use wasai::wasai_core::profile;
use wasai::wasai_core::telemetry::{self, json_escape, Metrics, TelemetryEvent};
use wasai::wasai_core::SubstrateKind;
use wasai::wasai_corpus::{cw_corpus, label_sidecar, wild_corpus};
use wasai::wasai_obs as obs;
use wasai::wasai_smt::Deadline;
use wasai::wasai_wasm::{decode, display, encode};

/// Observability options shared by `audit` and `audit-dir`.
#[derive(Debug, Default)]
struct ObsOpts {
    /// `--metrics-addr ADDR`: serve Prometheus exposition over HTTP.
    metrics_addr: Option<String>,
    /// `--metrics-dump FILE`: one-shot JSON metrics snapshot at exit.
    metrics_dump: Option<String>,
    /// `--progress` / `--no-progress` override (None = auto: stderr TTY).
    progress: Option<bool>,
    /// `--stall-secs N`: heartbeat stall threshold (default 30).
    stall_secs: f64,
}

impl ObsOpts {
    fn new() -> ObsOpts {
        ObsOpts {
            stall_secs: 30.0,
            ..ObsOpts::default()
        }
    }

    /// Try to consume one observability flag; `Ok(true)` if `arg` was ours.
    fn parse_flag(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match arg {
            "--metrics-addr" => {
                let v = it.next().ok_or("--metrics-addr needs host:port")?;
                self.metrics_addr = Some(v.clone());
            }
            "--metrics-dump" => {
                let v = it.next().ok_or("--metrics-dump needs a file path")?;
                self.metrics_dump = Some(v.clone());
            }
            "--progress" => self.progress = Some(true),
            "--no-progress" => self.progress = Some(false),
            "--stall-secs" => {
                let v = it.next().ok_or("--stall-secs needs a value")?;
                self.stall_secs = v.parse().map_err(|e| format!("--stall-secs {v}: {e}"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The metrics address, with the `WASAI_METRICS_ADDR` env fallback.
    fn resolved_addr(&self) -> Option<String> {
        self.metrics_addr.clone().or_else(|| {
            std::env::var("WASAI_METRICS_ADDR")
                .ok()
                .filter(|s| !s.trim().is_empty())
        })
    }

    /// Whether the live progress line is wanted: explicit flag, then
    /// `WASAI_PROGRESS=1|0`, then "stderr is a terminal".
    fn resolved_progress(&self) -> bool {
        if let Some(p) = self.progress {
            return p;
        }
        match std::env::var("WASAI_PROGRESS").ok().as_deref() {
            Some("1") => true,
            Some("0") => false,
            _ => std::io::stderr().is_terminal(),
        }
    }
}

/// The live observability surfaces of one run. Everything here renders to
/// stderr or a socket — stdout and result files are untouched, so reports
/// stay byte-identical whether or not a session is active.
struct ObsSession {
    server: Option<obs::http::MetricsServer>,
    monitor: Option<wasai::wasai_core::MonitorHandle>,
}

/// Start the requested observability surfaces for a run of `total`
/// campaigns. Enables the global registry iff any surface is on.
fn obs_start(opts: &ObsOpts, total: u64) -> Result<ObsSession, String> {
    let addr = opts.resolved_addr();
    let progress = opts.resolved_progress();
    if addr.is_some() || opts.metrics_dump.is_some() || progress {
        obs::enable();
    }
    // A metrics listener that can't come up must not take the audit down
    // with it: observability is strictly auxiliary to the sweep. An
    // in-use address gets a short bounded backoff (3 attempts, 250 ms
    // apart — the previous run's listener may still be draining its
    // linger window); after that — or on any other bind error — count the
    // degradation on `wasai_obs_listener_failed_total`, warn, and run
    // dark. The server is fleet-aware: supervised sweeps merge worker
    // frames into `obs::fleet()`, and each scrape renders its shards.
    let server = addr.and_then(|a| {
        let mut attempt = obs::http::MetricsServer::bind_fleet(&a, obs::global(), obs::fleet());
        for _ in 1..3 {
            let in_use = matches!(&attempt, Err(e) if e.kind() == std::io::ErrorKind::AddrInUse);
            if !in_use {
                break;
            }
            eprintln!("warning: --metrics-addr {a} is in use; retrying in 250ms");
            std::thread::sleep(Duration::from_millis(250));
            attempt = obs::http::MetricsServer::bind_fleet(&a, obs::global(), obs::fleet());
        }
        match attempt {
            Ok(srv) => {
                eprintln!("metrics listening on http://{}/metrics", srv.local_addr());
                Some(srv)
            }
            Err(e) => {
                obs::inc(obs::Counter::ObsListenerFailed);
                eprintln!(
                    "warning: --metrics-addr {a}: {e}; continuing without the metrics listener"
                );
                None
            }
        }
    });
    let monitor = progress.then(|| {
        ProgressMonitor::new(total, Duration::from_secs_f64(opts.stall_secs.max(0.0)))
            .spawn(Duration::from_millis(500), std::io::stderr().is_terminal())
    });
    Ok(ObsSession { server, monitor })
}

/// Tear a session down: stop the monitor, write the `--metrics-dump`
/// snapshot, honor `WASAI_METRICS_LINGER_SECS`, then close the listener.
fn obs_finish(mut session: ObsSession, opts: &ObsOpts) -> Result<(), String> {
    if let Some(mut monitor) = session.monitor.take() {
        monitor.stop();
    }
    if let Some(path) = &opts.metrics_dump {
        // Fleet-aware dump: under `--procs` the global registry already
        // holds the merged fleet totals and `obs::fleet()` the per-shard
        // series; single-process runs have an empty shard list and render
        // byte-identically to the plain dump.
        let shards = obs::fleet().snapshot();
        fs::write(path, obs::expo::render_json_fleet(obs::global(), &shards))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics dump written to {path}");
    }
    if session.server.is_some() {
        let linger = std::env::var("WASAI_METRICS_LINGER_SECS")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|s| *s > 0.0);
        if let Some(secs) = linger {
            eprintln!("metrics listener lingering {secs}s for late scrapes");
            std::thread::sleep(Duration::from_secs_f64(secs));
        }
    }
    Ok(())
}

fn parse_abi(text: &str) -> Result<Abi, String> {
    let mut actions = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("ABI line {}: {m}", lineno + 1);
        let (name, rest) = line
            .split_once('(')
            .ok_or_else(|| err("expected `name(…)`"))?;
        let params_str = rest.strip_suffix(')').ok_or_else(|| err("missing `)`"))?;
        let mut params = Vec::new();
        for ty in params_str
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            params.push(match ty {
                "name" => ParamType::Name,
                "asset" => ParamType::Asset,
                "string" => ParamType::String,
                "u64" | "uint64" => ParamType::U64,
                "u32" | "uint32" => ParamType::U32,
                "u8" | "uint8" => ParamType::U8,
                "i64" | "int64" => ParamType::I64,
                "f64" | "float64" => ParamType::F64,
                other => return Err(err(&format!("unknown type {other:?}"))),
            });
        }
        let action: Name = name
            .trim()
            .parse()
            .map_err(|e| err(&format!("bad action name: {e}")))?;
        actions.push(ActionDecl::new(action, params));
    }
    Ok(Abi::new(actions))
}

/// Parse a `--substrate` value: `auto` means detect from the module's entry
/// exports (`None`), anything else must be a known substrate name.
fn parse_substrate(v: &str) -> Result<Option<SubstrateKind>, String> {
    if v == "auto" {
        return Ok(None);
    }
    SubstrateKind::parse(v)
        .map(Some)
        .ok_or_else(|| format!("--substrate must be eosio, cosmwasm or auto, got {v:?}"))
}

/// Parsed `audit` invocation: positionals plus every optional flag.
#[derive(Debug)]
struct AuditArgs {
    wasm: String,
    abi: String,
    trace_out: Option<String>,
    substrate: Option<SubstrateKind>,
    solver_cache: Option<String>,
    profile_out: Option<String>,
    obs: ObsOpts,
}

fn audit(a: &AuditArgs) -> Result<(), String> {
    let (wasm_path, abi_path) = (a.wasm.as_str(), a.abi.as_str());
    let bytes = fs::read(wasm_path).map_err(|e| format!("{wasm_path}: {e}"))?;
    let module = decode::decode(&bytes).map_err(|e| format!("{wasm_path}: {e}"))?;
    let abi = parse_abi(&fs::read_to_string(abi_path).map_err(|e| format!("{abi_path}: {e}"))?)?;
    eprintln!(
        "auditing {wasm_path}: {} instructions, {} functions, {} declared actions",
        module.code_size(),
        module.funcs.len(),
        abi.actions.len()
    );
    let session = obs_start(&a.obs, 1)?;
    // A single audit never enters the fleet scheduler, so bracket the
    // campaign's heartbeat here for the stall detector.
    obs::worker::begin(0);
    let solver_cache = open_solver_cache(a.solver_cache.as_deref())?;
    let mut wasai = Wasai::new(module, abi).with_solver_cache(solver_cache.clone());
    if let Some(kind) = a.substrate {
        wasai = wasai.with_substrate(kind);
    }
    let run_result = if let Some(path) = a.trace_out.as_deref() {
        wasai
            .run_traced()
            .map_err(|e| e.to_string())
            .and_then(|(report, events)| {
                fs::write(path, telemetry::write_trace([(0, events.as_slice())]))
                    .map_err(|e| format!("{path}: {e}"))?;
                eprintln!(
                    "telemetry trace written to {path} ({} events)",
                    events.len()
                );
                Ok(report)
            })
    } else {
        wasai.run().map_err(|e| e.to_string())
    };
    obs::worker::end();
    if let Some(path) = a.solver_cache.as_deref() {
        save_solver_cache(path, &solver_cache)?;
    }
    obs_finish(session, &a.obs)?;
    let report = run_result?;
    if let Some(path) = a.profile_out.as_deref() {
        let campaign = std::path::Path::new(wasm_path).file_name().map_or_else(
            || wasm_path.to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        let spans = [profile::ProfileSpan {
            campaign,
            exec_us: report.exec_virtual_us,
            solve_us: report.solve_virtual_us,
        }];
        fs::write(path, profile::folded_stacks(&spans)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("span profile written to {path}");
    }
    println!(
        "campaign: {} iterations, {} SMT queries, {} branches covered",
        report.iterations, report.smt_queries, report.branches
    );
    if report.findings.is_empty() {
        println!("no vulnerabilities detected");
    } else {
        for class in &report.findings {
            println!("VULNERABLE: {class}");
        }
        for e in &report.exploits {
            println!("  payload [{}]: {}", e.class, e.payload);
        }
    }
    Ok(())
}

/// Options for `audit-dir` beyond the directory and seed.
struct AuditDirOpts {
    /// Wall-clock watchdog from `--deadline-secs` (overrides
    /// `WASAI_DEADLINE`).
    deadline_secs: Option<f64>,
    /// Destination for the JSON-lines triage report.
    triage_path: Option<String>,
    /// Destination for the JSON-lines telemetry trace.
    trace_path: Option<String>,
    /// `--procs N`: shard across worker subprocesses (None = `WASAI_PROCS`
    /// env, else 1 = in-process).
    procs: Option<usize>,
    /// `--journal FILE`: durable outcome journal.
    journal_path: Option<String>,
    /// `--resume FILE`: journal to FILE and restore any outcomes already
    /// recorded there.
    resume_path: Option<String>,
    /// `--substrate eosio|cosmwasm|auto`: pin the chain substrate for every
    /// campaign (None = auto-detect per module). Inherited verbatim by
    /// `audit-worker` subprocesses.
    substrate: Option<SubstrateKind>,
    /// `--solver-cache FILE`: warm-start the fleet solver cache from FILE
    /// before the sweep and persist it back after (created if missing).
    solver_cache_path: Option<String>,
    /// `--profile-out FILE`: folded-stack span profile (virtual-clock
    /// weights, flamegraph-compatible, byte-identical at any job count).
    profile_path: Option<String>,
    /// Observability surfaces (metrics listener, dump, progress monitor).
    obs: ObsOpts,
}

impl Default for AuditDirOpts {
    fn default() -> Self {
        AuditDirOpts {
            deadline_secs: None,
            triage_path: None,
            trace_path: None,
            procs: None,
            journal_path: None,
            resume_path: None,
            substrate: None,
            solver_cache_path: None,
            profile_path: None,
            obs: ObsOpts::new(),
        }
    }
}

impl AuditDirOpts {
    /// Worker subprocess count: flag, then `WASAI_PROCS`, then 1.
    fn resolved_procs(&self) -> Result<usize, String> {
        if let Some(p) = self.procs {
            return Ok(p.max(1));
        }
        match std::env::var("WASAI_PROCS") {
            Ok(v) => v
                .trim()
                .parse::<usize>()
                .map(|p| p.max(1))
                .map_err(|e| format!("WASAI_PROCS {v:?}: {e}")),
            Err(_) => Ok(1),
        }
    }

    /// The journal destination: `--resume` wins, then `--journal`.
    fn journal_dest(&self) -> Option<&str> {
        self.resume_path.as_deref().or(self.journal_path.as_deref())
    }
}

/// Build the fleet solver cache, warm-started from `path` when one was
/// configured. A persistent cache uses the deterministic-eviction policy so
/// its on-disk end state is a pure function of the offered key set.
fn open_solver_cache(
    path: Option<&str>,
) -> Result<std::sync::Arc<wasai::wasai_smt::SolverCache>, String> {
    use wasai::wasai_smt::{persist, SolverCache};
    let Some(path) = path else {
        return Ok(std::sync::Arc::new(SolverCache::new()));
    };
    let cache = SolverCache::evicting();
    let loaded = persist::load_into(Path::new(path), &cache)?;
    if loaded > 0 {
        eprintln!("solver cache: warm-started {loaded} entries from {path}");
    }
    Ok(std::sync::Arc::new(cache))
}

/// Persist the fleet solver cache back to `path` and summarize its traffic
/// on stderr (out-of-band: fleet hit counts are schedule-dependent).
fn save_solver_cache(path: &str, cache: &wasai::wasai_smt::SolverCache) -> Result<(), String> {
    let written = wasai::wasai_smt::persist::save(Path::new(path), cache)?;
    eprintln!(
        "solver cache: saved {written} entries to {path} \
         ({}/{} fleet hits, {} stores dropped)",
        cache.hits(),
        cache.lookups(),
        cache.dropped()
    );
    Ok(())
}

/// Analyze every `*.wasm` (with `.abi` sidecar) in a directory, in parallel,
/// with per-contract fault isolation.
///
/// Returns the documented sweep exit code: `0` when every contract audited
/// cleanly, `2` when the sweep completed but some contracts failed, panicked
/// or timed out.
/// Discover the sorted `*.wasm` corpus of `dir` with its contract names.
///
/// Sorted order fixes the campaign indices (and thus each campaign's seed),
/// independent of directory enumeration order — the supervisor, its worker
/// subprocesses, and a resumed run all see the identical corpus layout.
fn corpus(dir: &str) -> Result<(Vec<PathBuf>, Vec<String>), String> {
    let mut wasm_paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "wasm"))
        .collect();
    wasm_paths.sort();
    if wasm_paths.is_empty() {
        return Err(format!("{dir}: no *.wasm files"));
    }
    let names: Vec<String> = wasm_paths
        .iter()
        .map(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        })
        .collect();
    Ok((wasm_paths, names))
}

/// Everything one campaign needs beyond its index and contract path —
/// shared by the in-process fleet and the `audit-worker` entrypoint.
struct CampaignCtx {
    seed: u64,
    deadline: Deadline,
    tracing: bool,
    substrate: Option<SubstrateKind>,
    solver_cache: std::sync::Arc<wasai::wasai_smt::SolverCache>,
}

/// Load, decode, and fuzz one contract — the campaign body shared by the
/// in-process fleet and the `audit-worker` subprocess entrypoint.
fn audit_campaign(
    i: usize,
    path: &Path,
    ctx: &CampaignCtx,
) -> Result<(FuzzReport, Vec<TelemetryEvent>), ChainError> {
    stage::enter(stage::PREPARE);
    let bytes = fs::read(path).map_err(|e| ChainError::BadContract(e.to_string()))?;
    let module = decode::decode(&bytes).map_err(|e| ChainError::BadContract(e.to_string()))?;
    let abi_path = path.with_extension("abi");
    let abi_text = fs::read_to_string(&abi_path)
        .map_err(|e| ChainError::BadContract(format!("{}: {e}", abi_path.display())))?;
    let abi = parse_abi(&abi_text).map_err(ChainError::BadContract)?;
    let mut wasai = Wasai::new(module, abi)
        .with_config(FuzzConfig {
            rng_seed: ctx.seed ^ (i as u64),
            deadline: ctx.deadline,
            ..FuzzConfig::default()
        })
        .with_solver_cache(ctx.solver_cache.clone());
    if let Some(kind) = ctx.substrate {
        wasai = wasai.with_substrate(kind);
    }
    if ctx.tracing {
        wasai.run_traced()
    } else {
        wasai.run().map(|r| (r, Vec::new()))
    }
}

/// One campaign's result as a journal-ready outcome record. The record is
/// the single source for verdict lines, triage lines, the durable journal,
/// and the worker wire protocol, so every consumer renders identical bytes.
fn record_from_run(
    index: usize,
    name: &str,
    repro_seed: u64,
    run: &CampaignRun<(FuzzReport, Vec<TelemetryEvent>)>,
) -> OutcomeRecord {
    let report = run.outcome.as_ok().map(|(report, _)| report);
    let (truncated, branches, findings, virtual_us) = match report {
        Some(report) => (
            report.truncated,
            report.branches as u64,
            report
                .findings
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            report.virtual_us,
        ),
        // Timed-out campaigns report as truncated, like a deadline-cut
        // in-campaign run would.
        None => (
            matches!(run.outcome, CampaignOutcome::TimedOut { .. }),
            0,
            String::new(),
            0,
        ),
    };
    OutcomeRecord {
        index,
        contract: name.to_string(),
        outcome: run.outcome.kind().to_string(),
        stage: run.outcome.stage().to_string(),
        detail: run.outcome.detail(),
        seed: repro_seed,
        truncated,
        branches,
        findings,
        virtual_us,
        iterations: report.map_or(0, |r| r.iterations),
        smt_queries: report.map_or(0, |r| r.smt_queries),
        exec_us: report.map_or(0, |r| r.exec_virtual_us),
        solve_us: report.map_or(0, |r| r.solve_virtual_us),
        elapsed_ms: run.elapsed.as_millis() as u64,
    }
}

fn audit_dir(dir: &str, seed: u64, opts: &AuditDirOpts) -> Result<ExitCode, String> {
    let (wasm_paths, names) = corpus(dir)?;
    let jobs = wasai::wasai_core::jobs_from_env();
    let procs = opts.resolved_procs()?;
    // Telemetry events do not cross the worker-process boundary, and a
    // resumed sweep skips journaled campaigns — either way the merged trace
    // would be incomplete, so refuse the combination up front.
    if opts.trace_path.is_some() {
        if procs > 1 {
            return Err(
                "--trace-out is incompatible with --procs > 1 (telemetry events stay \
                 inside the worker processes); drop one of the two"
                    .to_string(),
            );
        }
        if opts.journal_dest().is_some() {
            return Err(
                "--trace-out is incompatible with --journal/--resume (a resumed sweep \
                 skips journaled campaigns, leaving the trace incomplete)"
                    .to_string(),
            );
        }
    }
    let deadline = match opts.deadline_secs {
        Some(secs) if secs > 0.0 => Deadline::after_secs(secs),
        Some(_) => Deadline::NONE,
        None => fleet::deadline_from_env(),
    };
    eprintln!(
        "auditing {} contracts from {dir} on {jobs} worker(s){}{}",
        wasm_paths.len(),
        if procs > 1 {
            format!(" across {procs} process(es)")
        } else {
            String::new()
        },
        match deadline.remaining() {
            Some(d) => format!(", deadline {:.1}s", d.as_secs_f64()),
            None => String::new(),
        }
    );

    let session = obs_start(&opts.obs, wasm_paths.len() as u64)?;
    let start = std::time::Instant::now();
    // Campaigns run traced only when a trace destination was requested;
    // untraced sweeps attach no sink at all and behave exactly as before.
    let tracing = opts.trace_path.is_some();

    // Every campaign outcome lands in its index-keyed slot: freshly run,
    // streamed from a worker subprocess, or restored from a journal. The
    // report is rendered from the slots alone, so all three sources
    // produce identical bytes.
    let meta = JournalMeta::new(seed, &names);
    let mut slots: Vec<Option<OutcomeRecord>> = names.iter().map(|_| None).collect();
    let mut journal = None;
    if let Some(path) = opts.journal_dest() {
        let (j, restored) = Journal::open_or_resume(Path::new(path), &meta)?;
        if !restored.is_empty() {
            obs::add(obs::Counter::JournalReplayed, restored.len() as u64);
            eprintln!(
                "resume: restored {} of {} campaign outcome(s) from {path}; {} left to run",
                restored.len(),
                names.len(),
                names.len() - restored.len()
            );
        }
        for rec in restored {
            let idx = rec.index;
            slots[idx] = Some(rec);
        }
        journal = Some(j);
    }
    let pending: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();

    let mut trace_lines = Vec::new();
    if pending.is_empty() {
        eprintln!("resume: every campaign is already journaled; rendering the report");
    } else if procs <= 1 {
        // In-process thread fleet over the pending campaigns. All campaigns
        // share one solver query cache: contracts in a sweep often repeat
        // guard shapes, and a fleet hit replays the exact result a fresh
        // solve would produce, so the triage and trace stay byte-identical.
        let ctx = CampaignCtx {
            seed,
            deadline,
            tracing,
            substrate: opts.substrate,
            solver_cache: open_solver_cache(opts.solver_cache_path.as_deref())?,
        };
        let audit_one = |i: usize, path: PathBuf| audit_campaign(i, &path, &ctx);
        let journal_cell = journal.take().map(std::sync::Mutex::new);
        let items: Vec<(usize, PathBuf)> = pending
            .iter()
            .map(|&i| (i, wasm_paths[i].clone()))
            .collect();
        let outs = fleet::run_jobs(jobs, items, |_, (gi, path)| {
            let run = fleet::run_campaign_isolated(gi, path, deadline, &audit_one);
            let rec = record_from_run(gi, &names[gi], seed ^ gi as u64, &run);
            if let Some(cell) = &journal_cell {
                let mut j = cell.lock().unwrap_or_else(|p| p.into_inner());
                if let Err(e) = j.append(&rec) {
                    eprintln!("warning: journal append failed: {e}");
                }
            }
            (rec, run)
        });
        journal = journal_cell.map(|c| c.into_inner().unwrap_or_else(|p| p.into_inner()));
        for (rec, run) in outs {
            if tracing {
                match &run.outcome {
                    CampaignOutcome::Ok((_, events)) => {
                        trace_lines.extend(events.iter().map(|ev| ev.to_jsonl(rec.index)));
                    }
                    other => {
                        // Aborted campaigns leave a structured marker in the
                        // trace, mirroring `run_jobs_isolated_with_sink`.
                        trace_lines.push(
                            TelemetryEvent::CampaignAborted {
                                campaign: rec.index,
                                stage: other.stage().to_string(),
                                outcome: other.kind().to_string(),
                                vtime: 0,
                            }
                            .to_jsonl(rec.index),
                        );
                    }
                }
            }
            let idx = rec.index;
            slots[idx] = Some(rec);
        }
        if let Some(path) = &opts.solver_cache_path {
            save_solver_cache(path, &ctx.solver_cache)?;
        }
    } else {
        // Supervised subprocess fleet: shard the pending campaigns across
        // `procs` audit-worker children, each running the thread fleet on
        // its share of the job budget.
        let exe = std::env::current_exe().map_err(|e| format!("resolving own executable: {e}"))?;
        let worker_jobs = (jobs / procs).max(1);
        let chaos_spec = std::env::var("WASAI_CHAOS").ok();
        let env_parse = |name: &str, default: f64| -> Result<f64, String> {
            match std::env::var(name) {
                Ok(v) => v.trim().parse().map_err(|e| format!("{name} {v:?}: {e}")),
                Err(_) => Ok(default),
            }
        };
        let max_attempts = env_parse("WASAI_MAX_ATTEMPTS", 3.0)?.max(1.0) as u32;
        let backoff_ms = env_parse("WASAI_RETRY_BACKOFF_MS", 100.0)?.max(0.0);
        let stall_secs = env_parse("WASAI_WORKER_STALL_SECS", 120.0)?;
        let sup = SupervisorOpts {
            procs,
            max_attempts,
            backoff: Duration::from_millis(backoff_ms as u64),
            stall_timeout: (stall_secs > 0.0).then(|| Duration::from_secs_f64(stall_secs)),
            poll: Duration::from_millis(25),
        };
        let deadline_secs = opts.deadline_secs;
        let substrate = opts.substrate;
        // Each worker shard warm-starts from the shared cache file and saves
        // its additions to a private sibling (`FILE.shard-<first-index>`);
        // the supervisor merges the shards after the sweep. Shard names are
        // keyed by the shard's first campaign index, so a retried worker
        // overwrites its own shard instead of leaking a stale one.
        let shard_paths = std::cell::RefCell::new(std::collections::BTreeSet::<String>::new());
        let cache_path = opts.solver_cache_path.clone();
        let spawn = |attempt: u32, indices: &[usize]| {
            let csv: Vec<String> = indices.iter().map(ToString::to_string).collect();
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("audit-worker")
                .arg(dir)
                .arg("--seed")
                .arg(seed.to_string())
                .arg("--indices")
                .arg(csv.join(","))
                .env("WASAI_JOBS", worker_jobs.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(secs) = deadline_secs {
                cmd.arg("--deadline-secs").arg(secs.to_string());
            }
            if let Some(kind) = substrate {
                cmd.arg("--substrate").arg(kind.name());
            }
            if let Some(file) = &cache_path {
                let shard = format!("{file}.shard-{}", indices.first().copied().unwrap_or(0));
                cmd.arg("--solver-cache").arg(file);
                cmd.arg("--solver-cache-out").arg(&shard);
                shard_paths.borrow_mut().insert(shard);
            }
            if attempt > 1 {
                // Proc-level chaos faults fire at most once: strip them
                // from the environment of re-dispatched workers so a
                // `kill@i` doesn't re-kill every retry.
                if let Some(stripped) = chaos_spec
                    .as_deref()
                    .and_then(|s| chaos::ChaosPlan::parse(s).ok())
                    .map(|p| p.without_proc_faults().to_string())
                {
                    cmd.env("WASAI_CHAOS", stripped);
                }
            }
            cmd.spawn()
        };
        let journal_cell = journal.take().map(std::cell::RefCell::new);
        let records = run_supervised(&sup, &names, seed, &pending, spawn, |rec| {
            if let Some(cell) = &journal_cell {
                if let Err(e) = cell.borrow_mut().append(rec) {
                    eprintln!("warning: journal append failed: {e}");
                }
            }
        })?;
        journal = journal_cell.map(|c| c.into_inner());
        for rec in records {
            let idx = rec.index;
            slots[idx] = Some(rec);
        }
        if let Some(file) = &cache_path {
            // Merge: prior cache contents first, then every shard in sorted
            // path order. Entries are idempotent and eviction keeps the
            // smallest N keys, so the merged file is independent of which
            // worker finished first — and of `--procs` itself.
            let merged = wasai::wasai_smt::SolverCache::evicting();
            wasai::wasai_smt::persist::load_into(Path::new(file), &merged)?;
            for shard in shard_paths.borrow().iter() {
                wasai::wasai_smt::persist::load_into(Path::new(shard), &merged)?;
            }
            save_solver_cache(file, &merged)?;
            for shard in shard_paths.borrow().iter() {
                let _ = fs::remove_file(shard);
            }
        }
    }
    let wall = start.elapsed();
    drop(journal);

    // Render the report from the index-keyed slots. Per-contract failures
    // (including crashed shards) are triaged, not fatal: a sweep survives
    // malformed, panicking, hanging, or worker-killing binaries.
    let mut vulnerable = 0usize;
    let mut clean = 0usize;
    let mut failures = 0usize;
    let mut triage_lines = Vec::with_capacity(slots.len());
    let mut virtual_us = 0u64;
    for (i, slot) in slots.iter().enumerate() {
        let Some(rec) = slot else {
            return Err(format!(
                "internal error: campaign {i} finished without an outcome record"
            ));
        };
        if rec.outcome == "ok" {
            let truncated = if rec.truncated { ", truncated" } else { "" };
            if rec.findings.is_empty() {
                clean += 1;
                println!(
                    "{}: clean ({} branches{truncated})",
                    rec.contract, rec.branches
                );
            } else {
                vulnerable += 1;
                println!("{}: VULNERABLE — {}{truncated}", rec.contract, rec.findings);
            }
            virtual_us += rec.virtual_us;
        } else {
            failures += 1;
            println!("{}: {} — {}", rec.contract, rec.outcome, rec.detail);
        }
        // The per-contract audit timeline: deterministic stage/vtime
        // breakdowns and work counters before the wall-clock tail (CI's
        // byte-identity diffs strip only `elapsed_ms`).
        triage_lines.push(format!(
            "{{\"contract\":\"{}\",\"index\":{i},\"outcome\":\"{}\",\"stage\":\"{}\",\"detail\":\"{}\",\"seed\":{},\"truncated\":{},\"branches\":{},\"virtual_us\":{},\"exec_us\":{},\"solve_us\":{},\"iterations\":{},\"smt_queries\":{},\"elapsed_ms\":{}}}",
            json_escape(&rec.contract),
            rec.outcome,
            rec.stage,
            json_escape(&rec.detail),
            rec.seed,
            rec.truncated,
            rec.branches,
            rec.virtual_us,
            rec.exec_us,
            rec.solve_us,
            rec.iterations,
            rec.smt_queries,
            rec.elapsed_ms,
        ));
    }

    let stats = wasai::wasai_core::FleetStats {
        jobs: jobs.max(1),
        campaigns: slots.len(),
        virtual_us,
        wall,
    };
    println!(
        "\n{} contracts: {} vulnerable, {} clean, {} failed",
        slots.len(),
        vulnerable,
        clean,
        failures,
    );
    println!("{}", stats.summary());

    if let Some(path) = &opts.triage_path {
        fs::write(path, triage_lines.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("triage report written to {path}");
    }
    if let Some(path) = &opts.trace_path {
        let body = if trace_lines.is_empty() {
            String::new()
        } else {
            trace_lines.join("\n") + "\n"
        };
        fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "telemetry trace written to {path} ({} events)",
            trace_lines.len()
        );
    }
    if let Some(path) = &opts.profile_path {
        // Spans in sweep order from the deterministic record fields — any
        // WASAI_JOBS or --procs value folds to the same bytes.
        let spans: Vec<profile::ProfileSpan> = slots
            .iter()
            .flatten()
            .map(|rec| profile::ProfileSpan {
                campaign: rec.contract.clone(),
                exec_us: rec.exec_us,
                solve_us: rec.solve_us,
            })
            .collect();
        fs::write(path, profile::folded_stacks(&spans)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("span profile written to {path} ({} campaigns)", spans.len());
    }
    // Finish observability last (the dump reflects the whole run, and the
    // listener's linger window must not delay the triage/trace files that
    // scrapers wait on).
    obs_finish(session, &opts.obs)?;

    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// The internal worker entrypoint behind `audit-dir --procs` (spawned by
/// the supervisor, never meant to be typed by hand): audit the given
/// campaign indices of `dir`'s sorted corpus on the in-process thread
/// fleet, streaming the status protocol on stdout — one digest-checked
/// outcome record per completed campaign, periodic heartbeat relays and
/// registry snapshot frames, and a terminal `{"type":"done"}` marker.
fn audit_worker(dir: &str, w: &WorkerArgs) -> Result<(), String> {
    let indices = &w.indices;
    let (wasm_paths, names) = corpus(dir)?;
    if let Some(&bad) = indices.iter().find(|&&i| i >= names.len()) {
        return Err(format!(
            "--indices {bad}: corpus has only {} contracts",
            names.len()
        ));
    }
    // The registry and heartbeat table feed the status relay, so a worker
    // is always instrumented; the supervisor decides what to surface.
    obs::enable();
    let deadline = match w.deadline_secs {
        Some(secs) if secs > 0.0 => Deadline::after_secs(secs),
        Some(_) => Deadline::NONE,
        None => fleet::deadline_from_env(),
    };
    let jobs = wasai::wasai_core::jobs_from_env();
    // Warm-start from the shared cache file; additions are saved to this
    // worker's private shard (the supervisor merges shards afterwards), so
    // concurrent workers never write the same file.
    let solver_cache = open_solver_cache(w.solver_cache_in.as_deref())?;

    // Heartbeat/metrics pump: relay this process's heartbeat table and
    // registry snapshot upstream a few times a second. `println!` holds the
    // stdout lock for the whole call, so protocol lines never interleave;
    // stdout is line-buffered, so completed lines survive even an abort().
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pump = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            while !stop.load(Ordering::Relaxed) {
                for r in obs::heartbeats().snapshot() {
                    println!(
                        "{{\"type\":\"hb\",\"slot\":{},\"campaign\":{},\"ticks\":{},\"stage\":\"{}\"}}",
                        r.slot,
                        r.campaign,
                        r.ticks,
                        r.stage.name()
                    );
                }
                // Full-registry snapshot frame: every counter, gauge, and
                // histogram bucket crosses to the supervisor, which merges
                // the delta since our previous frame. Losing one frame
                // (e.g. a kill mid-line) only costs latency — the next
                // frame's cumulative absolutes supersede it.
                println!(
                    "{}",
                    obs::RegistrySnapshot::capture(obs::global()).to_frame()
                );
                std::thread::sleep(Duration::from_millis(200));
            }
        })
    };

    let ctx = CampaignCtx {
        seed: w.seed,
        deadline,
        tracing: false,
        substrate: w.substrate,
        solver_cache,
    };
    let audit_one = |i: usize, path: PathBuf| audit_campaign(i, &path, &ctx);
    // Serializes per-campaign shard saves across the worker's job threads.
    let shard_save_lock = std::sync::Mutex::new(());
    let items: Vec<(usize, PathBuf)> = indices
        .iter()
        .map(|&i| (i, wasm_paths[i].clone()))
        .collect();
    fleet::run_jobs(jobs, items, |_, (gi, path)| {
        // Proc-level chaos faults are honored here, and only here: the
        // thread scheduler ignores them, so the same WASAI_CHAOS plan run
        // unsupervised is undisturbed.
        match chaos::fault_at(gi) {
            Some(chaos::Fault::KillProc) => {
                eprintln!("chaos: aborting worker process at campaign {gi}");
                std::process::abort();
            }
            Some(chaos::Fault::StallProc) => {
                eprintln!("chaos: stalling worker process at campaign {gi}");
                std::thread::sleep(Duration::from_secs(3600));
            }
            _ => {}
        }
        let run = fleet::run_campaign_isolated(gi, path, deadline, &audit_one);
        // Persist the shard BEFORE announcing the record: the supervisor
        // kills workers as soon as every campaign is accounted for, so the
        // save must already be durable when the last record line lands.
        // Atomic tmp+rename saves mean a kill leaves the previous complete
        // shard, never a torn one.
        if let Some(out) = w.solver_cache_out.as_deref() {
            let _guard = shard_save_lock.lock().unwrap_or_else(|p| p.into_inner());
            if let Err(e) = wasai::wasai_smt::persist::save(Path::new(out), &ctx.solver_cache) {
                eprintln!("warning: solver cache shard {out}: {e}");
            }
        }
        let rec = record_from_run(gi, &names[gi], w.seed ^ gi as u64, &run);
        // Frame-before-record: the supervisor tears down as soon as every
        // campaign is accounted for, so the snapshot carrying this
        // campaign's counts must precede the record announcing it — the
        // exit frame below can lose the race and only costs gauge latency.
        println!(
            "{}",
            obs::RegistrySnapshot::capture(obs::global()).to_frame()
        );
        println!("{}", rec.to_jsonl());
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = pump.join();
    // Exit frame: the authoritative final registry state, emitted after
    // the fleet has quiesced so the supervisor's totals are exact even if
    // every periodic frame was missed.
    println!(
        "{}",
        obs::RegistrySnapshot::capture(obs::global()).to_frame()
    );
    println!("{{\"type\":\"done\"}}");
    Ok(())
}

/// Parsed `audit-worker` invocation (everything after the directory).
struct WorkerArgs {
    seed: u64,
    indices: Vec<usize>,
    deadline_secs: Option<f64>,
    substrate: Option<SubstrateKind>,
    /// `--solver-cache FILE`: shared warm-start source (read only).
    solver_cache_in: Option<String>,
    /// `--solver-cache-out FILE`: this worker's private shard (write only).
    solver_cache_out: Option<String>,
}

/// Parse `audit-worker`'s tail: `--seed N --indices CSV [--deadline-secs S]
/// [--substrate NAME] [--solver-cache FILE] [--solver-cache-out FILE]`.
fn parse_audit_worker_args(rest: &[String]) -> Result<WorkerArgs, String> {
    let mut seed = None;
    let mut indices = None;
    let mut deadline = None;
    let mut substrate = None;
    let mut solver_cache_in = None;
    let mut solver_cache_out = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--substrate" => {
                let v = it.next().ok_or("--substrate needs a value")?;
                substrate = parse_substrate(v)?;
            }
            "--solver-cache" => {
                let v = it.next().ok_or("--solver-cache needs a file path")?;
                solver_cache_in = Some(v.clone());
            }
            "--solver-cache-out" => {
                let v = it.next().ok_or("--solver-cache-out needs a file path")?;
                solver_cache_out = Some(v.clone());
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--indices" => {
                let v = it.next().ok_or("--indices needs a comma-separated list")?;
                let mut list = Vec::new();
                for part in v.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    list.push(
                        part.parse()
                            .map_err(|e| format!("--indices {part:?}: {e}"))?,
                    );
                }
                indices = Some(list);
            }
            "--deadline-secs" => {
                let v = it.next().ok_or("--deadline-secs needs a value")?;
                deadline = Some(v.parse().map_err(|e| format!("--deadline-secs {v}: {e}"))?);
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(WorkerArgs {
        seed: seed.ok_or("audit-worker needs --seed")?,
        indices: indices.ok_or("audit-worker needs --indices")?,
        deadline_secs: deadline,
        substrate,
        solver_cache_in,
        solver_cache_out,
    })
}

fn gen(
    out_dir: &str,
    count: usize,
    seed: u64,
    substrate: Option<SubstrateKind>,
) -> Result<(), String> {
    if substrate == Some(SubstrateKind::Cosmwasm) {
        return gen_cw(out_dir, count, seed);
    }
    fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let corpus = wild_corpus(seed, count, wasai::wasai_corpus::WildRates::default());
    for (i, w) in corpus.iter().enumerate() {
        let base = format!("{out_dir}/contract_{i:04}");
        fs::write(format!("{base}.wasm"), encode::encode(&w.deployed.module))
            .map_err(|e| e.to_string())?;
        let abi_text: String = w
            .deployed
            .abi
            .actions
            .iter()
            .map(|a| {
                let tys: Vec<String> = a.params.iter().map(|t| t.to_string()).collect();
                format!("{}({})\n", a.name, tys.join(","))
            })
            .collect();
        fs::write(format!("{base}.abi"), abi_text).map_err(|e| e.to_string())?;
        let label: Vec<String> = w.deployed.label.iter().map(|c| c.to_string()).collect();
        fs::write(format!("{base}.label"), label.join(",") + "\n").map_err(|e| e.to_string())?;
    }
    println!("wrote {count} contracts (+.abi/.label sidecars) to {out_dir}");
    Ok(())
}

/// `gen --substrate cosmwasm`: write the labeled CosmWasm ground-truth
/// corpus. The `.abi` sidecar lists the entry exports in the same
/// `name(type,…)` line format as EOSIO sidecars so `audit-dir` loads both
/// corpora identically; labels use the shared comma-joined class schema.
fn gen_cw(out_dir: &str, count: usize, seed: u64) -> Result<(), String> {
    fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let corpus = cw_corpus(seed, count);
    for (i, c) in corpus.iter().enumerate() {
        let base = format!("{out_dir}/cw_contract_{i:04}");
        fs::write(format!("{base}.wasm"), encode::encode(&c.module)).map_err(|e| e.to_string())?;
        let abi_text: String = ["instantiate", "execute", "query", "reply"]
            .iter()
            .filter(|name| c.module.exported_func(name).is_some())
            .map(|name| format!("{name}(i64,i64,i64)\n"))
            .collect();
        fs::write(format!("{base}.abi"), abi_text).map_err(|e| e.to_string())?;
        fs::write(format!("{base}.label"), label_sidecar(&c.label)).map_err(|e| e.to_string())?;
    }
    println!("wrote {count} cosmwasm contracts (+.abi/.label sidecars) to {out_dir}");
    Ok(())
}

/// Summarize a JSONL telemetry trace (`--trace-out`), a triage report
/// (`--triage`), or a metrics dump (`--metrics-dump`) as a human-readable
/// table.
///
/// The formats are distinguished structurally: a metrics dump is one
/// pretty-printed JSON object (first line is a bare `{`), trace lines carry
/// `"event"`, triage lines carry `"contract"`.
/// Split a `shard="N"` label out of a Prometheus series name, returning the
/// name with the remaining labels intact: `wasai_campaigns_total{outcome="ok",shard="1"}`
/// becomes `(wasai_campaigns_total{outcome="ok"}, Some(1))`.
fn split_shard(series: &str) -> (String, Option<usize>) {
    let (Some(open), Some(close)) = (series.find('{'), series.rfind('}')) else {
        return (series.to_string(), None);
    };
    let mut kept = Vec::new();
    let mut shard = None;
    for part in series[open + 1..close].split(',') {
        match part
            .strip_prefix("shard=\"")
            .and_then(|r| r.strip_suffix('"'))
        {
            Some(v) => shard = v.parse().ok(),
            None if !part.is_empty() => kept.push(part),
            None => {}
        }
    }
    let base = if kept.is_empty() {
        series[..open].to_string()
    } else {
        format!("{}{{{}}}", &series[..open], kept.join(","))
    };
    (base, shard)
}

/// Render one `name -> value` table block, hiding zero series like the
/// single-registry view.
fn render_series_table(rows: &[(String, &telemetry::JsonValue)]) {
    let mut zeros = 0usize;
    for (name, value) in rows {
        match value.as_f64() {
            Some(0.0) => zeros += 1,
            Some(_) => match value.as_num() {
                Some(n) => println!("  {name:<48} {n:>12}"),
                None => println!("  {name:<48} {:>12}", value.as_f64().unwrap_or(0.0)),
            },
            None => println!("  {name:<48} {:>12}", value.as_str().unwrap_or("?")),
        }
    }
    if zeros > 0 {
        println!("  ({zeros} zero series not shown)");
    }
}

fn stats_cmd(path: &str, format: &str, fleet: bool) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let first = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty file"))?;
    if first.trim() == "{" {
        // A `--metrics-dump` snapshot: one flat object keyed by Prometheus
        // series names. Render the non-zero series (this is where solver
        // counters with no telemetry event live, e.g.
        // `wasai_smt_cache_store_dropped_total`).
        let fields = telemetry::parse_json_fields(&text).map_err(|e| format!("{path}: {e}"))?;
        if format == "json" {
            print!("{text}");
            return Ok(());
        }
        if fleet {
            // Group `shard="N"` series under their shard; everything else is
            // the fleet-total rollup.
            let mut totals: Vec<(String, &telemetry::JsonValue)> = Vec::new();
            let mut shards =
                std::collections::BTreeMap::<usize, Vec<(String, &telemetry::JsonValue)>>::new();
            for (name, value) in &fields {
                match split_shard(name) {
                    (base, Some(id)) => shards.entry(id).or_default().push((base, value)),
                    (base, None) => totals.push((base, value)),
                }
            }
            println!(
                "fleet metrics {path}: {} series across {} shard(s)\n",
                fields.len(),
                shards.len()
            );
            println!("fleet totals:");
            render_series_table(&totals);
            for (id, rows) in &shards {
                println!("\nshard {id}:");
                render_series_table(rows);
            }
            return Ok(());
        }
        println!("metrics {path}: {} series\n", fields.len());
        let rows: Vec<(String, &telemetry::JsonValue)> = fields
            .iter()
            .map(|(name, value)| (name.clone(), value))
            .collect();
        render_series_table(&rows);
        return Ok(());
    }
    if fleet {
        return Err(format!(
            "{path}: --fleet requires a --metrics-dump snapshot (traces and triage reports have no shard series)"
        ));
    }
    let fields = telemetry::parse_json_fields(first).map_err(|e| format!("{path}: {e}"))?;
    if fields.contains_key("event") {
        let events = telemetry::parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        let metrics = Metrics::from_events(events.iter().map(|(_, ev)| ev));
        if format == "json" {
            // Machine-readable, keyed by the same Prometheus series names
            // the live `/metrics` exposition uses.
            print!("{}", obs_bridge::metrics_json(&metrics));
            return Ok(());
        }
        let campaigns: std::collections::BTreeSet<usize> = events.iter().map(|&(c, _)| c).collect();
        println!(
            "trace {path}: {} events across {} campaign(s)\n",
            events.len(),
            campaigns.len()
        );
        print!("{}", metrics.render());
        Ok(())
    } else if format == "json" {
        Err(format!(
            "{path}: --format json requires a telemetry trace (triage reports are already JSON lines)"
        ))
    } else if fields.contains_key("contract") {
        let mut by_outcome = std::collections::BTreeMap::<String, usize>::new();
        let mut failed_stages = std::collections::BTreeMap::<String, usize>::new();
        let mut total = 0usize;
        let mut elapsed_ms = 0u64;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = telemetry::parse_json_fields(line)
                .map_err(|e| format!("{path} line {}: {e}", lineno + 1))?;
            let outcome = rec
                .get("outcome")
                .and_then(|v| v.as_str())
                .unwrap_or("unknown")
                .to_string();
            if outcome != "ok" {
                let stage = rec
                    .get("stage")
                    .and_then(|v| v.as_str())
                    .unwrap_or("unknown")
                    .to_string();
                *failed_stages.entry(stage).or_default() += 1;
            }
            *by_outcome.entry(outcome).or_default() += 1;
            elapsed_ms += rec.get("elapsed_ms").and_then(|v| v.as_num()).unwrap_or(0);
            total += 1;
        }
        println!("triage {path}: {total} contract(s), {elapsed_ms} ms total wall clock\n");
        println!("by outcome:");
        for (outcome, n) in &by_outcome {
            println!("  {outcome:<10} {n:>5}");
        }
        if !failed_stages.is_empty() {
            println!("non-ok by stage:");
            for (stage, n) in &failed_stages {
                println!("  {stage:<10} {n:>5}");
            }
        }
        Ok(())
    } else {
        Err(format!(
            "{path}: neither a telemetry trace (no \"event\" field) nor a triage report (no \"contract\" field)"
        ))
    }
}

fn show(wasm_path: &str) -> Result<(), String> {
    let bytes = fs::read(wasm_path).map_err(|e| format!("{wasm_path}: {e}"))?;
    let module = decode::decode(&bytes).map_err(|e| format!("{wasm_path}: {e}"))?;
    println!("{}", display::module_to_string(&module));
    Ok(())
}

/// Parse `audit-dir`'s tail: positional `[seed]` plus `--deadline-secs S`,
/// `--triage FILE`, `--trace-out FILE`, and the observability flags, in any
/// order.
fn parse_audit_dir_args(rest: &[String]) -> Result<(u64, AuditDirOpts), String> {
    let mut seed = 0xe05u64;
    let mut seed_seen = false;
    let mut opts = AuditDirOpts::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if opts.obs.parse_flag(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--deadline-secs" => {
                let v = it.next().ok_or("--deadline-secs needs a value")?;
                opts.deadline_secs =
                    Some(v.parse().map_err(|e| format!("--deadline-secs {v}: {e}"))?);
            }
            "--triage" => {
                let v = it.next().ok_or("--triage needs a file path")?;
                opts.triage_path = Some(v.clone());
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a file path")?;
                opts.trace_path = Some(v.clone());
            }
            "--procs" => {
                let v = it.next().ok_or("--procs needs a count")?;
                opts.procs = Some(v.parse().map_err(|e| format!("--procs {v}: {e}"))?);
            }
            "--journal" => {
                let v = it.next().ok_or("--journal needs a file path")?;
                opts.journal_path = Some(v.clone());
            }
            "--resume" => {
                let v = it.next().ok_or("--resume needs a journal file path")?;
                opts.resume_path = Some(v.clone());
            }
            "--substrate" => {
                let v = it.next().ok_or("--substrate needs a value")?;
                opts.substrate = parse_substrate(v)?;
            }
            "--solver-cache" => {
                let v = it.next().ok_or("--solver-cache needs a file path")?;
                opts.solver_cache_path = Some(v.clone());
            }
            "--profile-out" => {
                let v = it.next().ok_or("--profile-out needs a file path")?;
                opts.profile_path = Some(v.clone());
            }
            other if !seed_seen && !other.starts_with("--") => {
                seed = other
                    .parse()
                    .map_err(|e| format!("bad seed {other:?}: {e}"))?;
                seed_seen = true;
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok((seed, opts))
}

/// Parse `audit`'s tail: positional `<wasm> <abi>` plus `--trace-out FILE`,
/// `--solver-cache FILE`, `--profile-out FILE` and the observability flags,
/// in any order.
fn parse_audit_args(rest: &[String]) -> Result<AuditArgs, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut trace_out = None;
    let mut substrate = None;
    let mut solver_cache = None;
    let mut profile_out = None;
    let mut obs_opts = ObsOpts::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if obs_opts.parse_flag(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a file path")?;
                trace_out = Some(v.clone());
            }
            "--substrate" => {
                let v = it.next().ok_or("--substrate needs a value")?;
                substrate = parse_substrate(v)?;
            }
            "--solver-cache" => {
                let v = it.next().ok_or("--solver-cache needs a file path")?;
                solver_cache = Some(v.clone());
            }
            "--profile-out" => {
                let v = it.next().ok_or("--profile-out needs a file path")?;
                profile_out = Some(v.clone());
            }
            other if !other.starts_with("--") && positional.len() < 2 => {
                positional.push(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let [wasm, abi] = positional.try_into().map_err(|p: Vec<String>| {
        format!(
            "audit needs <contract.wasm> <contract.abi>, got {} positional args",
            p.len()
        )
    })?;
    Ok(AuditArgs {
        wasm,
        abi,
        trace_out,
        substrate,
        solver_cache,
        profile_out,
        obs: obs_opts,
    })
}

/// Parse `stats`'s tail: `--format table|json` and `--fleet`, in any order.
fn parse_stats_args(rest: &[String]) -> Result<(String, bool), String> {
    let mut format = "table".to_string();
    let mut fleet = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                match v.as_str() {
                    "table" | "json" => format = v.clone(),
                    other => return Err(format!("--format must be table or json, got {other:?}")),
                }
            }
            "--fleet" => fleet = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok((format, fleet))
}

/// Parse `gen`'s tail: positional `[count] [seed]` plus an optional
/// `--substrate NAME` anywhere.
///
/// A malformed count or seed is a usage error, not a silent fallback: the
/// old `.parse().ok().unwrap_or(…)` pattern turned `wasai gen out 1O0`
/// (typo'd letter O) into a 10-contract corpus with no hint anything was
/// wrong — poison for reproducibility scripts that record the command line.
fn parse_gen_args(rest: &[String]) -> Result<(usize, u64, Option<SubstrateKind>), String> {
    let mut positional = Vec::new();
    let mut substrate = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--substrate" {
            let v = it.next().ok_or("--substrate needs a value")?;
            substrate = parse_substrate(v)?;
        } else {
            positional.push(arg.clone());
        }
    }
    if positional.len() > 2 {
        return Err(format!(
            "gen takes at most [count] [seed], got {} positional args",
            positional.len()
        ));
    }
    let count = match positional.first() {
        Some(v) => v.parse().map_err(|e| format!("gen count {v:?}: {e}"))?,
        None => 10,
    };
    let seed = match positional.get(1) {
        Some(v) => v.parse().map_err(|e| format!("gen seed {v:?}: {e}"))?,
        None => 1,
    };
    Ok((count, seed, substrate))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage:\n  wasai audit <contract.wasm> <contract.abi> [--trace-out FILE] [--substrate eosio|cosmwasm|auto]\n              [--solver-cache FILE] [--profile-out FILE] [obs flags]\n  wasai audit-dir <dir> [seed] [--deadline-secs S] [--triage FILE] [--trace-out FILE]\n                  [--procs N] [--journal FILE] [--resume FILE] [--substrate eosio|cosmwasm|auto]\n                  [--solver-cache FILE] [--profile-out FILE] [obs flags]\n  wasai stats <trace-triage-or-metrics.json[l]> [--format table|json] [--fleet]\n  wasai gen <out-dir> [count] [seed] [--substrate eosio|cosmwasm]\n  wasai show <contract.wasm>\n\nobs flags: --metrics-addr HOST:PORT | --metrics-dump FILE | --progress | --no-progress | --stall-secs N";
    let result: Result<ExitCode, String> = match args.get(1).map(String::as_str) {
        Some("audit") if args.len() >= 4 => parse_audit_args(&args[2..])
            .and_then(|parsed| audit(&parsed).map(|()| ExitCode::SUCCESS)),
        Some("audit-dir") if args.len() >= 3 => parse_audit_dir_args(&args[3..])
            .and_then(|(seed, opts)| audit_dir(&args[2], seed, &opts)),
        Some("audit-worker") if args.len() >= 3 => parse_audit_worker_args(&args[3..])
            .and_then(|parsed| audit_worker(&args[2], &parsed).map(|()| ExitCode::SUCCESS)),
        Some("stats") if args.len() >= 3 => parse_stats_args(&args[3..])
            .and_then(|(format, fleet)| stats_cmd(&args[2], &format, fleet))
            .map(|()| ExitCode::SUCCESS),
        Some("gen") if args.len() >= 3 => parse_gen_args(&args[3..])
            .and_then(|(count, seed, sub)| gen(&args[2], count, seed, sub))
            .map(|()| ExitCode::SUCCESS),
        Some("show") if args.len() == 3 => show(&args[2]).map(|()| ExitCode::SUCCESS),
        _ => Err(usage.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn gen_defaults_when_no_positionals() {
        let (count, seed, sub) = parse_gen_args(&[]).expect("defaults parse");
        assert_eq!((count, seed), (10, 1));
        assert!(sub.is_none());
    }

    #[test]
    fn gen_malformed_count_is_a_usage_error_not_a_fallback() {
        // The regression: `1O0` (letter O) used to silently become count=10.
        let err = parse_gen_args(&strs(&["1O0"])).unwrap_err();
        assert!(err.contains("gen count \"1O0\""), "got {err:?}");
        let err = parse_gen_args(&strs(&["5", "0x12"])).unwrap_err();
        assert!(err.contains("gen seed \"0x12\""), "got {err:?}");
    }

    #[test]
    fn gen_rejects_extra_positionals() {
        let err = parse_gen_args(&strs(&["5", "9", "7"])).unwrap_err();
        assert!(err.contains("at most"), "got {err:?}");
    }

    #[test]
    fn gen_parses_count_seed_and_substrate_anywhere() {
        let (count, seed, sub) =
            parse_gen_args(&strs(&["8", "--substrate", "cosmwasm", "42"])).expect("parses");
        assert_eq!((count, seed), (8, 42));
        assert_eq!(sub, Some(SubstrateKind::Cosmwasm));
    }

    #[test]
    fn audit_dir_parses_solver_cache_and_rejects_unknown_flags() {
        let (seed, opts) =
            parse_audit_dir_args(&strs(&["7", "--solver-cache", "warm.cache"])).expect("parses");
        assert_eq!(seed, 7);
        assert_eq!(opts.solver_cache_path.as_deref(), Some("warm.cache"));
        // An unknown flag is a usage error, never a silently ignored option
        // or a seed — whether it comes after the seed or before it.
        for args in [["5", "--bogus", "3"], ["--bogus", "3", "5"]] {
            let err = parse_audit_dir_args(&strs(&args)).err().expect("rejected");
            assert!(
                err.contains("unexpected argument \"--bogus\""),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn audit_worker_parses_cache_shard_flags() {
        let w = parse_audit_worker_args(&strs(&[
            "--seed",
            "9",
            "--indices",
            "0,2",
            "--solver-cache",
            "warm.cache",
            "--solver-cache-out",
            "warm.cache.shard-0",
        ]))
        .expect("parses");
        assert_eq!(w.seed, 9);
        assert_eq!(w.indices, vec![0, 2]);
        assert_eq!(w.solver_cache_in.as_deref(), Some("warm.cache"));
        assert_eq!(w.solver_cache_out.as_deref(), Some("warm.cache.shard-0"));
        let err =
            parse_audit_worker_args(&strs(&["--seed", "9", "--indices", "0", "--bogus", "2"]))
                .err()
                .expect("rejected");
        assert!(
            err.contains("unexpected argument \"--bogus\""),
            "got {err:?}"
        );
    }

    #[test]
    fn audit_args_parse_solver_cache() {
        let a = parse_audit_args(&strs(&["c.wasm", "c.abi", "--solver-cache", "warm.cache"]))
            .expect("parses");
        assert_eq!(a.wasm, "c.wasm");
        assert_eq!(a.solver_cache.as_deref(), Some("warm.cache"));
        let err = parse_audit_args(&strs(&["c.wasm", "c.abi", "--bogus", "4"])).unwrap_err();
        assert!(
            err.contains("unexpected argument \"--bogus\""),
            "got {err:?}"
        );
    }

    #[test]
    fn audit_args_parse_profile_out() {
        let a = parse_audit_args(&strs(&["c.wasm", "c.abi", "--profile-out", "p.folded"]))
            .expect("parses");
        assert_eq!(a.profile_out.as_deref(), Some("p.folded"));
        let err = parse_audit_args(&strs(&["c.wasm", "c.abi", "--profile-out"])).unwrap_err();
        assert!(err.contains("--profile-out"), "got {err:?}");
    }

    #[test]
    fn audit_dir_parses_profile_out_anywhere() {
        let (seed, opts) =
            parse_audit_dir_args(&strs(&["--profile-out", "sweep.folded", "11"])).expect("parses");
        assert_eq!(seed, 11);
        assert_eq!(opts.profile_path.as_deref(), Some("sweep.folded"));
    }

    #[test]
    fn stats_args_default_and_flags() {
        assert_eq!(
            parse_stats_args(&[]).expect("defaults"),
            ("table".into(), false)
        );
        assert_eq!(
            parse_stats_args(&strs(&["--fleet"])).expect("fleet"),
            ("table".into(), true)
        );
        assert_eq!(
            parse_stats_args(&strs(&["--format", "json", "--fleet"])).expect("both"),
            ("json".into(), true)
        );
        let err = parse_stats_args(&strs(&["--format", "yaml"])).unwrap_err();
        assert!(err.contains("table or json"), "got {err:?}");
        let err = parse_stats_args(&strs(&["--shard"])).unwrap_err();
        assert!(err.contains("unexpected argument"), "got {err:?}");
    }

    #[test]
    fn split_shard_extracts_the_label_and_keeps_the_rest() {
        assert_eq!(
            split_shard("wasai_seeds_executed_total"),
            ("wasai_seeds_executed_total".into(), None)
        );
        assert_eq!(
            split_shard("wasai_seeds_executed_total{shard=\"3\"}"),
            ("wasai_seeds_executed_total".into(), Some(3))
        );
        assert_eq!(
            split_shard("wasai_campaigns_total{outcome=\"ok\",shard=\"1\"}"),
            ("wasai_campaigns_total{outcome=\"ok\"}".into(), Some(1))
        );
        assert_eq!(
            split_shard("wasai_campaign_wall_seconds_bucket{le=\"0.1\",shard=\"0\"}"),
            (
                "wasai_campaign_wall_seconds_bucket{le=\"0.1\"}".into(),
                Some(0)
            )
        );
    }
}
