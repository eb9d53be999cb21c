//! The `wasai` command-line tool: `audit` analyzes one contract binary,
//! `audit-dir` every `*.wasm` in a directory, `stats` summarizes a
//! telemetry trace, triage report or metrics dump, `gen` emits a labeled
//! sample corpus and `show` dumps a WAT-like listing. Every subcommand
//! parses through one flag table ([`FLAGS`]); running `wasai` with no
//! arguments prints the usage text generated from it.
//!
//! `--substrate` pins the chain backend for every campaign; the default
//! (`auto`) detects it per module from the entry exports (`apply` → eosio,
//! `instantiate`/`execute` → cosmwasm). Worker subprocesses spawned by
//! `--procs` inherit it, like every flag whose table row carries the
//! forward mark: the supervisor hands each worker those flags' tokens
//! verbatim, and the worker parses them with the same table.
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
//! `--resume FILE` is a second spelling of the same flag: if FILE
//! already holds records from an interrupted sweep of the same corpus and
//! seed, those campaigns are restored without re-running and only the
//! unfinished remainder executes. A torn final line (the power-loss case)
//! is dropped and rewritten; any other corruption is a hard error. The
//! aggregate report after a resume is byte-identical to an uninterrupted
//! run. `audit-worker <dir> <seed> --indices CSV` is the internal worker
//! entrypoint spawned by `--procs`; it is not part of the public interface.
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

/// Every option of every subcommand, filled by [`parse`] from [`FLAGS`]
/// and the subcommand's positionals in [`COMMANDS`].
#[derive(Debug, Default)]
struct Opts {
    /// Path positionals in order: contract and ABI (`audit`), directory
    /// (`audit-dir`, `audit-worker`, `gen`), input file (`stats`, `show`).
    paths: Vec<String>,
    /// `[seed]`: the sweep seed, or `gen`'s corpus seed.
    seed: u64,
    /// `gen`'s `[count]`.
    count: usize,
    trace_out: Option<String>,
    triage: Option<String>,
    deadline_secs: Option<f64>,
    procs: Option<usize>,
    /// `--journal`/`--resume`: durable outcome journal, restored from if it
    /// already holds records of this sweep.
    journal: Option<String>,
    /// `None` = auto-detect per module.
    substrate: Option<SubstrateKind>,
    /// Fleet solver cache: warm-start source, and (outside `audit-worker`)
    /// where the cache is saved back.
    solver_cache: Option<String>,
    /// `audit-worker`'s private cache shard (write only).
    solver_cache_out: Option<String>,
    /// `audit-worker`'s campaign indices.
    indices: Vec<usize>,
    profile_out: Option<String>,
    metrics_addr: Option<String>,
    metrics_dump: Option<String>,
    /// `--progress`/`--no-progress` (None = auto: stderr is a terminal).
    progress: Option<bool>,
    stall_secs: Option<f64>,
    /// `stats --format json`.
    json: bool,
    fleet: bool,
    /// The tokens of every forwarded flag, verbatim and in order.
    forward: Vec<String>,
}

/// One row of the flag table.
struct Flag {
    /// Spellings; the first is canonical.
    names: &'static [&'static str],
    /// Value metavar, or `None` for a switch.
    value: Option<&'static str>,
    /// Subcommands that accept the flag.
    cmds: &'static [&'static str],
    /// Whether `audit-dir --procs` hands the flag's tokens to every
    /// `audit-worker`: set on each flag that can change a campaign.
    forward: bool,
    /// Write the value (`""` for a switch) into the flag's typed field.
    set: fn(&mut Opts, &str) -> Result<(), String>,
}

const AUDITS: &[&str] = &["audit", "audit-dir"];
const CAMPAIGNS: &[&str] = &["audit", "audit-dir", "audit-worker"];

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { names: &["--trace-out"], value: Some("FILE"), cmds: AUDITS, forward: false, set: |o, v| put(&mut o.trace_out, v) },
    Flag { names: &["--triage"], value: Some("FILE"), cmds: &["audit-dir"], forward: false, set: |o, v| put(&mut o.triage, v) },
    Flag { names: &["--deadline-secs"], value: Some("S"), cmds: &["audit-dir", "audit-worker"], forward: true,
           set: |o, v| put(&mut o.deadline_secs, v) },
    Flag { names: &["--procs"], value: Some("N"), cmds: &["audit-dir"], forward: false, set: |o, v| put(&mut o.procs, v) },
    Flag { names: &["--journal", "--resume"], value: Some("FILE"), cmds: &["audit-dir"], forward: false,
           set: |o, v| put(&mut o.journal, v) },
    Flag { names: &["--substrate"], value: Some("eosio|cosmwasm|auto"), cmds: &["audit", "audit-dir", "audit-worker", "gen"],
           forward: true, set: |o, v| {
               o.substrate = (v != "auto").then(|| SubstrateKind::parse(v).ok_or("must be eosio, cosmwasm or auto")).transpose()?;
               Ok(())
           } },
    Flag { names: &["--solver-cache"], value: Some("FILE"), cmds: CAMPAIGNS, forward: true, set: |o, v| put(&mut o.solver_cache, v) },
    Flag { names: &["--solver-cache-out"], value: Some("FILE"), cmds: &["audit-worker"], forward: false,
           set: |o, v| put(&mut o.solver_cache_out, v) },
    Flag { names: &["--indices"], value: Some("CSV"), cmds: &["audit-worker"], forward: false, set: |o, v| {
               let parts = v.split(',').map(str::trim).filter(|s| !s.is_empty());
               o.indices = parts.map(str::parse::<usize>).collect::<Result<_, _>>().map_err(|e| e.to_string())?;
               Ok(())
           } },
    Flag { names: &["--profile-out"], value: Some("FILE"), cmds: AUDITS, forward: false, set: |o, v| put(&mut o.profile_out, v) },
    Flag { names: &["--metrics-addr"], value: Some("HOST:PORT"), cmds: AUDITS, forward: false, set: |o, v| put(&mut o.metrics_addr, v) },
    Flag { names: &["--metrics-dump"], value: Some("FILE"), cmds: AUDITS, forward: false, set: |o, v| put(&mut o.metrics_dump, v) },
    Flag { names: &["--progress"], value: None, cmds: AUDITS, forward: false, set: |o, _| put(&mut o.progress, "true") },
    Flag { names: &["--no-progress"], value: None, cmds: AUDITS, forward: false, set: |o, _| put(&mut o.progress, "false") },
    Flag { names: &["--stall-secs"], value: Some("N"), cmds: AUDITS, forward: false, set: |o, v| put(&mut o.stall_secs, v) },
    Flag { names: &["--format"], value: Some("table|json"), cmds: &["stats"], forward: false, set: |o, v| {
               o.json = match v { "json" => true, "table" => false, _ => return Err("must be table or json".into()) };
               Ok(())
           } },
    Flag { names: &["--fleet"], value: None, cmds: &["stats"], forward: false, set: |o, _| { o.fleet = true; Ok(()) } },
];

/// Each subcommand's positionals in order, `<required>` or `[optional]`,
/// with the text an omitted optional parses as (`3589` is `0xe05`).
#[rustfmt::skip]
const COMMANDS: &[(&str, &[(&str, &str)])] = &[
    ("audit",        &[("<contract.wasm>", ""), ("<contract.abi>", "")]),
    ("audit-dir",    &[("<dir>", ""), ("[seed]", "3589")]),
    ("audit-worker", &[("<dir>", ""), ("<seed>", "")]),
    ("stats",        &[("<trace-triage-or-metrics.json[l]>", "")]),
    ("gen",          &[("<out-dir>", ""), ("[count]", "10"), ("[seed]", "1")]),
    ("show",         &[("<contract.wasm>", "")]),
];

/// Parse `v` into `field`.
fn put<T: std::str::FromStr>(field: &mut Option<T>, v: &str) -> Result<(), String>
where
    T::Err: std::fmt::Display,
{
    *field = Some(v.parse().map_err(|e: T::Err| e.to_string())?);
    Ok(())
}

/// Parse one subcommand's argv tail: every `--flag` is looked up among the
/// [`FLAGS`] rows `cmd` accepts, everything else is a positional.
fn parse(cmd: &str, args: &[String]) -> Result<Opts, String> {
    let Some(&(_, positionals)) = COMMANDS.iter().find(|(name, _)| *name == cmd) else {
        return Err(usage());
    };
    let mut o = Opts::default();
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            given.push(arg.as_str());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.names.contains(&arg.as_str()) && f.cmds.contains(&cmd))
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let v = match flag.value {
            Some(meta) => it.next().ok_or_else(|| format!("{arg} needs {meta}"))?,
            None => "",
        };
        (flag.set)(&mut o, v).map_err(|e| format!("{arg} {v}: {e}"))?;
        if flag.forward {
            o.forward.push(arg.clone());
            o.forward.extend(flag.value.map(|_| v.to_string()));
        }
    }
    let required = positionals.iter().filter(|p| p.0.starts_with('<')).count();
    if !(required..=positionals.len()).contains(&given.len()) {
        let (verb, shown) = if given.len() < required {
            ("needs", required)
        } else {
            ("takes at most", positionals.len())
        };
        let metas: Vec<&str> = positionals[..shown].iter().map(|&(m, _)| m).collect();
        return Err(format!(
            "{cmd} {verb} {}, got {} positional args",
            metas.join(" "),
            given.len()
        ));
    }
    for (i, &(meta, default)) in positionals.iter().enumerate() {
        let v = given.get(i).copied().unwrap_or(default);
        let name = meta.trim_matches(['<', '>', '[', ']']);
        let bad = |e: std::num::ParseIntError| format!("{cmd} {name} {v:?}: {e}");
        match name {
            "seed" => o.seed = v.parse().map_err(bad)?,
            "count" => o.count = v.parse().map_err(bad)?,
            _ => o.paths.push(v.to_string()),
        }
    }
    Ok(o)
}

/// The usage text, generated from [`COMMANDS`] and [`FLAGS`].
fn usage() -> String {
    let mut out = String::from("usage:");
    for &(cmd, positionals) in COMMANDS.iter().filter(|(c, _)| *c != "audit-worker") {
        let mut line = format!("  wasai {cmd}");
        let flags = FLAGS.iter().filter(|f| f.cmds.contains(&cmd));
        let flags = flags.map(|f| {
            format!(
                "[{}{}]",
                f.names.join("|"),
                f.value.map_or(String::new(), |m| format!(" {m}"))
            )
        });
        for word in positionals.iter().map(|&(m, _)| m.to_string()).chain(flags) {
            if line.len() + word.len() > 96 {
                out = format!("{out}\n{line}");
                line = " ".repeat(8);
            }
            line = format!("{line} {word}");
        }
        out = format!("{out}\n{line}");
    }
    out
}

impl Opts {
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

    /// The wall-clock watchdog: `--deadline-secs` (zero or less disables
    /// it), then `WASAI_DEADLINE`.
    fn deadline(&self) -> Deadline {
        match self.deadline_secs {
            Some(secs) if secs > 0.0 => Deadline::after_secs(secs),
            Some(_) => Deadline::NONE,
            None => fleet::deadline_from_env(),
        }
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
fn obs_start(opts: &Opts, total: u64) -> Result<ObsSession, String> {
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
        let stall = opts.stall_secs.unwrap_or(30.0).max(0.0);
        ProgressMonitor::new(total, Duration::from_secs_f64(stall))
            .spawn(Duration::from_millis(500), std::io::stderr().is_terminal())
    });
    Ok(ObsSession { server, monitor })
}

/// Tear a session down: stop the monitor, write the `--metrics-dump`
/// snapshot, honor `WASAI_METRICS_LINGER_SECS`, then close the listener.
fn obs_finish(mut session: ObsSession, opts: &Opts) -> Result<(), String> {
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

fn audit(a: &Opts) -> Result<(), String> {
    let (wasm_path, abi_path) = (a.paths[0].as_str(), a.paths[1].as_str());
    let bytes = fs::read(wasm_path).map_err(|e| format!("{wasm_path}: {e}"))?;
    let module = decode::decode(&bytes).map_err(|e| format!("{wasm_path}: {e}"))?;
    let abi = parse_abi(&fs::read_to_string(abi_path).map_err(|e| format!("{abi_path}: {e}"))?)?;
    eprintln!(
        "auditing {wasm_path}: {} instructions, {} functions, {} declared actions",
        module.code_size(),
        module.funcs.len(),
        abi.actions.len()
    );
    let session = obs_start(a, 1)?;
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
    obs_finish(session, a)?;
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

/// Analyze every `*.wasm` (with `.abi` sidecar) in a directory, in parallel,
/// with per-contract fault isolation.
///
/// Returns the documented sweep exit code: `0` when every contract audited
/// cleanly, `2` when the sweep completed but some contracts failed, panicked
/// or timed out.
fn audit_dir(opts: &Opts) -> Result<ExitCode, String> {
    let (dir, seed) = (opts.paths[0].as_str(), opts.seed);
    let (wasm_paths, names) = corpus(dir)?;
    let jobs = wasai::wasai_core::jobs_from_env();
    let procs = opts.resolved_procs()?;
    // Telemetry events do not cross the worker-process boundary, and a
    // resumed sweep skips journaled campaigns — either way the merged trace
    // would be incomplete, so refuse the combination up front.
    if opts.trace_out.is_some() {
        if procs > 1 {
            return Err(
                "--trace-out is incompatible with --procs > 1 (telemetry events stay \
                 inside the worker processes); drop one of the two"
                    .to_string(),
            );
        }
        if opts.journal.is_some() {
            return Err(
                "--trace-out is incompatible with --journal/--resume (a resumed sweep \
                 skips journaled campaigns, leaving the trace incomplete)"
                    .to_string(),
            );
        }
    }
    let deadline = opts.deadline();
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

    let session = obs_start(opts, wasm_paths.len() as u64)?;
    let start = std::time::Instant::now();
    // Campaigns run traced only when a trace destination was requested;
    // untraced sweeps attach no sink at all and behave exactly as before.
    let tracing = opts.trace_out.is_some();

    // Every campaign outcome lands in its index-keyed slot: freshly run,
    // streamed from a worker subprocess, or restored from a journal. The
    // report is rendered from the slots alone, so all three sources
    // produce identical bytes.
    let meta = JournalMeta::new(seed, &names);
    let mut slots: Vec<Option<OutcomeRecord>> = names.iter().map(|_| None).collect();
    let mut journal = None;
    if let Some(path) = &opts.journal {
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
            solver_cache: open_solver_cache(opts.solver_cache.as_deref())?,
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
        if let Some(path) = &opts.solver_cache {
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
        // Each worker shard warm-starts from the shared cache file (which
        // reaches it as a forwarded flag) and saves its additions to a
        // private sibling (`FILE.shard-<first-index>`); the supervisor
        // merges the shards after the sweep. Shard names are keyed by the
        // shard's first campaign index, so a retried worker overwrites its
        // own shard instead of leaking a stale one.
        let shard_paths = std::cell::RefCell::new(std::collections::BTreeSet::<String>::new());
        let cache_path = opts.solver_cache.clone();
        let spawn = |attempt: u32, indices: &[usize]| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(worker_args(opts, indices))
                .env("WASAI_JOBS", worker_jobs.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(file) = &cache_path {
                let shard = format!("{file}.shard-{}", indices.first().copied().unwrap_or(0));
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

    if let Some(path) = &opts.triage {
        fs::write(path, triage_lines.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("triage report written to {path}");
    }
    if let Some(path) = &opts.trace_out {
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
    if let Some(path) = &opts.profile_out {
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
    obs_finish(session, opts)?;

    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// The argv (after the executable) of an `audit-worker` that runs
/// `indices` of the sweep `opts` describes: the sweep's directory and seed,
/// the indices, then every forwarded flag's tokens as the supervisor got
/// them.
fn worker_args(opts: &Opts, indices: &[usize]) -> Vec<String> {
    let csv: Vec<String> = indices.iter().map(ToString::to_string).collect();
    let head = [
        "audit-worker".to_string(),
        opts.paths[0].clone(),
        opts.seed.to_string(),
        "--indices".to_string(),
        csv.join(","),
    ];
    head.into_iter()
        .chain(opts.forward.iter().cloned())
        .collect()
}

/// The internal worker entrypoint behind `audit-dir --procs` (spawned by
/// the supervisor, never meant to be typed by hand): audit the given
/// campaign indices of `dir`'s sorted corpus on the in-process thread
/// fleet, streaming the status protocol on stdout — one digest-checked
/// outcome record per completed campaign, periodic heartbeat relays and
/// registry snapshot frames, and a terminal `{"type":"done"}` marker.
fn audit_worker(w: &Opts) -> Result<(), String> {
    let indices = &w.indices;
    let (wasm_paths, names) = corpus(&w.paths[0])?;
    if let Some(&bad) = indices.iter().find(|&&i| i >= names.len()) {
        return Err(format!(
            "--indices {bad}: corpus has only {} contracts",
            names.len()
        ));
    }
    // The registry and heartbeat table feed the status relay, so a worker
    // is always instrumented; the supervisor decides what to surface.
    obs::enable();
    let deadline = w.deadline();
    let jobs = wasai::wasai_core::jobs_from_env();
    // Warm-start from the shared cache file; additions are saved to this
    // worker's private shard (the supervisor merges shards afterwards), so
    // concurrent workers never write the same file.
    let solver_cache = open_solver_cache(w.solver_cache.as_deref())?;

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

/// Summarize a JSONL telemetry trace (`--trace-out`), a triage report
/// (`--triage`), or a metrics dump (`--metrics-dump`) as a human-readable
/// table.
///
/// The formats are distinguished structurally: a metrics dump is one
/// pretty-printed JSON object (first line is a bare `{`), trace lines carry
/// `"event"`, triage lines carry `"contract"`.
fn stats_cmd(path: &str, json: bool, fleet: bool) -> Result<(), String> {
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
        if json {
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
        if json {
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
    } else if json {
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = args
        .split_first()
        .ok_or_else(usage)
        .and_then(|(cmd, tail)| {
            let o = parse(cmd, tail)?;
            let done = match cmd.as_str() {
                "audit" => audit(&o),
                "audit-dir" => return audit_dir(&o),
                "audit-worker" => audit_worker(&o),
                "stats" => stats_cmd(&o.paths[0], o.json, o.fleet),
                "gen" => gen(&o.paths[0], o.count, o.seed, o.substrate),
                _ => show(&o.paths[0]),
            };
            done.map(|()| ExitCode::SUCCESS)
        });
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

    /// Parse `cmd` with a whitespace-separated argv tail.
    fn parse_line(cmd: &str, line: &str) -> Result<Opts, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(cmd, &args)
    }

    fn parse_ok(cmd: &str, line: &str) -> Opts {
        parse_line(cmd, line).expect("parses")
    }

    fn parse_err(cmd: &str, line: &str) -> String {
        parse_line(cmd, line).expect_err("rejected")
    }

    #[test]
    fn gen_defaults_when_no_positionals() {
        let o = parse_ok("gen", "out");
        assert_eq!((o.count, o.seed, o.substrate), (10, 1, None));
    }

    #[test]
    fn gen_malformed_count_is_a_usage_error_not_a_fallback() {
        // The regression: `1O0` (letter O) used to silently become count=10.
        let err = parse_err("gen", "out 1O0");
        assert!(err.contains("gen count \"1O0\""), "got {err:?}");
        let err = parse_err("gen", "out 5 0x12");
        assert!(err.contains("gen seed \"0x12\""), "got {err:?}");
    }

    #[test]
    fn gen_rejects_extra_positionals() {
        let err = parse_err("gen", "out 5 9 7");
        assert!(err.contains("at most"), "got {err:?}");
    }

    #[test]
    fn gen_parses_count_seed_and_substrate_anywhere() {
        let o = parse_ok("gen", "out 8 --substrate cosmwasm 42");
        assert_eq!((o.count, o.seed), (8, 42));
        assert_eq!(o.substrate, Some(SubstrateKind::Cosmwasm));
    }

    #[test]
    fn audit_dir_parses_solver_cache_and_rejects_unknown_flags() {
        let o = parse_ok("audit-dir", "d 7 --solver-cache warm.cache");
        assert_eq!(o.seed, 7);
        assert_eq!(o.solver_cache.as_deref(), Some("warm.cache"));
        // An unknown flag is a usage error, never a silently ignored option
        // or a seed — whether it comes after the seed or before it.
        for line in ["d 5 --bogus 3", "d --bogus 3 5"] {
            let err = parse_err("audit-dir", line);
            assert!(err.contains("unexpected argument \"--bogus\""), "{err}");
        }
    }

    #[test]
    fn audit_worker_parses_cache_shard_flags() {
        let w = parse_ok(
            "audit-worker",
            "d 9 --indices 0,2 --solver-cache warm.cache --solver-cache-out warm.cache.shard-0",
        );
        assert_eq!((w.seed, w.indices.as_slice()), (9, &[0, 2][..]));
        assert_eq!(w.solver_cache.as_deref(), Some("warm.cache"));
        assert_eq!(w.solver_cache_out.as_deref(), Some("warm.cache.shard-0"));
        let err = parse_err("audit-worker", "d 9 --indices 0 --bogus 2");
        assert!(err.contains("unexpected argument \"--bogus\""), "{err}");
    }

    #[test]
    fn audit_args_parse_solver_cache() {
        let a = parse_ok("audit", "c.wasm c.abi --solver-cache warm.cache");
        assert_eq!(a.paths, ["c.wasm", "c.abi"]);
        assert_eq!(a.solver_cache.as_deref(), Some("warm.cache"));
        let err = parse_err("audit", "c.wasm c.abi --bogus 4");
        assert!(err.contains("unexpected argument \"--bogus\""), "{err}");
    }

    #[test]
    fn audit_args_parse_profile_out() {
        let a = parse_ok("audit", "c.wasm c.abi --profile-out p.folded");
        assert_eq!(a.profile_out.as_deref(), Some("p.folded"));
        let err = parse_err("audit", "c.wasm c.abi --profile-out");
        assert!(err.contains("--profile-out"), "got {err:?}");
    }

    #[test]
    fn audit_dir_parses_profile_out_anywhere() {
        let o = parse_ok("audit-dir", "d --profile-out sweep.folded 11");
        assert_eq!(o.seed, 11);
        assert_eq!(o.profile_out.as_deref(), Some("sweep.folded"));
    }

    #[test]
    fn stats_args_default_and_flags() {
        let flags = |line| {
            let o = parse_ok("stats", line);
            (o.json, o.fleet)
        };
        assert_eq!(flags("t.jsonl"), (false, false));
        assert_eq!(flags("t.jsonl --fleet"), (false, true));
        assert_eq!(flags("t.jsonl --format json --fleet"), (true, true));
        let err = parse_err("stats", "t.jsonl --format yaml");
        assert!(err.contains("table or json"), "got {err:?}");
        let err = parse_err("stats", "t.jsonl --shard");
        assert!(err.contains("unexpected argument"), "got {err:?}");
    }

    #[test]
    fn worker_argv_inherits_every_forwarded_flag() {
        let mut line = "d 7 --triage t.jsonl --procs 2".to_string();
        for flag in FLAGS.iter().filter(|f| f.forward) {
            let value = match flag.names[0] {
                "--deadline-secs" => "7.5",
                "--substrate" => "cosmwasm",
                "--solver-cache" => "warm.cache",
                other => panic!("give the forwarded flag {other} a sample value"),
            };
            line = format!("{line} {} {value}", flag.names[0]);
        }
        let sup = parse_ok("audit-dir", &line);
        let argv = worker_args(&sup, &[0, 2]);
        let w = parse(&argv[0], &argv[1..]).expect("worker parses");
        // The fields a campaign is built from, all set away from defaults.
        let campaign = |o: &Opts| {
            let (dir, seed, secs) = (&o.paths, o.seed, o.deadline_secs);
            format!(
                "{dir:?} {seed} {secs:?} {:?} {:?}",
                o.substrate, o.solver_cache
            )
        };
        let expected = r#"["d"] 7 Some(7.5) Some(Cosmwasm) Some("warm.cache")"#;
        assert_eq!(campaign(&sup), expected);
        assert_eq!(campaign(&w), expected);
        assert_eq!(w.indices, [0, 2]);
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let text = usage();
        for shown in [
            "audit-dir <dir> [seed]",
            "[--journal|--resume FILE]",
            "[--fleet]",
        ] {
            assert!(text.contains(shown), "{text}");
        }
        assert!(!text.contains("audit-worker") && !text.contains("--indices"));
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
