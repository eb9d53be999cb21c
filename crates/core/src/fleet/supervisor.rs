//! Process-level fleet supervision: shard campaigns across worker
//! subprocesses, survive their deaths, converge deterministically.
//!
//! Thread-level isolation ([`super::run_jobs_isolated`]) contains panics
//! and hangs, but not the failures that take the whole process with them —
//! OOM kills, SIGKILL, a VM bug that corrupts the heap. The supervisor
//! promotes the failure domain to the process: the corpus is sharded
//! across `procs` worker subprocesses (each running the ordinary thread
//! fleet internally), and each worker streams a status protocol back over
//! its stdout pipe:
//!
//! ```text
//! {"v":2,"index":3,…,"digest":"…"}        one OutcomeRecord per campaign
//! {"type":"hb","slot":0,"campaign":3,"ticks":412,"stage":"solve"}
//! {"type":"metrics","v":1,"counters":"…","gauges":"…","hists":"…","digest":"…"}
//! {"type":"done"}
//! ```
//!
//! Outcome lines are digest-checked [`OutcomeRecord`]s — the same format
//! the durable journal stores — so "merge the pipe" and "replay the
//! journal" are the same code path. Heartbeat lines bridge the worker's
//! PR 5 heartbeat table into the supervisor's, so the existing
//! `ProgressMonitor` stall detector watches subprocess campaigns exactly
//! like threads.
//!
//! Metrics frames carry the worker's **entire** cumulative registry — every
//! counter, gauge, and histogram bucket array, digest-checked
//! ([`obs::RegistrySnapshot`]). The supervisor merges each frame as a
//! *delta against the last frame from the same spawn generation*: counters
//! and histogram cells are `frame − last_frame` (applied to the global
//! registry as fleet totals and to [`obs::fleet`] as `shard="N"` series),
//! gauges are levels (latest value wins, fleet value is the per-shard sum).
//! A respawn resets the per-shard baseline to zero, and stale-generation
//! frames (a killed worker's drained tail) are rejected outright — so a
//! killed-and-retried worker can never double-count: whatever its ghost
//! already contributed stays, and the replacement re-reports from zero.
//! Losing a frame loses only latency, never data, because the next frame's
//! absolutes supersede it.
//!
//! # Failure policy
//!
//! A worker that exits without `done` (or goes `stall_timeout` without any
//! progress — no outcome, no fresh heartbeat tick — and is killed) is
//! re-dispatched with only its **unfinished** indices, after an
//! exponential backoff, at most `max_attempts` total spawns per shard.
//! When attempts are exhausted the shard's remaining campaigns are marked
//! `crashed` in their index-keyed slots and the sweep completes.
//!
//! # Determinism
//!
//! Campaign seeds derive from the sweep seed and the campaign's index in
//! the sorted corpus — never from the shard layout — so any `procs` value,
//! any kill schedule, and any retry interleaving converge to byte-identical
//! completed outcomes. The supervisor only decides *whether* a campaign
//! completed, never *what* it produced.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::process::Child;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use wasai_obs as obs;

use super::journal::OutcomeRecord;
use super::CampaignOutcome;

/// Tuning for one supervised sweep.
#[derive(Debug, Clone)]
pub struct SupervisorOpts {
    /// Worker subprocesses to shard the corpus across (≥ 1).
    pub procs: usize,
    /// Total spawn attempts per shard before its remaining campaigns are
    /// marked crashed (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
    /// Kill and re-dispatch a worker with no observable progress (no
    /// outcome, no heartbeat advance) for this long. `None` disables the
    /// process-level stall detector.
    pub stall_timeout: Option<Duration>,
    /// Event-loop poll cadence (message wait timeout and housekeeping
    /// interval).
    pub poll: Duration,
}

impl Default for SupervisorOpts {
    fn default() -> Self {
        SupervisorOpts {
            procs: 1,
            max_attempts: 3,
            backoff: Duration::from_millis(100),
            stall_timeout: Some(Duration::from_secs(120)),
            poll: Duration::from_millis(25),
        }
    }
}

/// One parsed worker status line.
#[derive(Debug)]
enum WorkerMsg {
    /// A completed campaign's digest-checked record.
    Outcome(OutcomeRecord),
    /// A relayed heartbeat slot reading.
    Heartbeat {
        slot: usize,
        campaign: u64,
        ticks: u64,
        stage: String,
    },
    /// A full cumulative registry snapshot (boxed: ~50 series of state).
    Metrics(Box<obs::RegistrySnapshot>),
    /// The worker finished its loop cleanly.
    Done,
}

/// Parse one line of the worker status protocol. `None` for lines that are
/// not ours (a worker's dependencies could print to stdout); malformed
/// *protocol* lines also come back as `None` — the campaign they described
/// stays unfinished and is simply re-run, which is always safe.
fn parse_worker_line(line: &str) -> Option<WorkerMsg> {
    let trimmed = line.trim();
    if trimmed.starts_with("{\"v\":") {
        return OutcomeRecord::parse(trimmed).ok().map(WorkerMsg::Outcome);
    }
    if !trimmed.starts_with("{\"type\":") {
        return None;
    }
    let fields = crate::telemetry::parse_json_fields(trimmed).ok()?;
    let num = |key: &str| fields.get(key).and_then(|v| v.as_num());
    match fields.get("type").and_then(|v| v.as_str())? {
        "hb" => Some(WorkerMsg::Heartbeat {
            slot: num("slot")? as usize,
            campaign: num("campaign")?,
            ticks: num("ticks")?,
            stage: fields
                .get("stage")
                .and_then(|v| v.as_str())
                .unwrap_or("campaign")
                .to_string(),
        }),
        // A malformed metrics frame (torn line, digest tamper, version
        // skew) is dropped like any other bad protocol line: the next
        // frame's cumulative absolutes supersede whatever this one carried.
        "metrics" => {
            let text = |key: &str| fields.get(key).and_then(|v| v.as_str());
            obs::RegistrySnapshot::from_parts(
                num("v")?,
                text("counters")?,
                text("gauges")?,
                text("hists")?,
                text("digest")?,
            )
            .ok()
            .map(|snap| WorkerMsg::Metrics(Box::new(snap)))
        }
        "done" => Some(WorkerMsg::Done),
        _ => None,
    }
}

/// Events the per-worker reader threads feed the supervisor loop, tagged
/// with the shard and its spawn generation (stale generations — a killed
/// worker's tail — still deliver outcomes but never deaths).
enum Event {
    Msg(usize, u32, WorkerMsg),
    Eof(usize, u32),
}

struct Shard {
    /// Indices not yet completed (re-dispatch set).
    remaining: BTreeSet<usize>,
    /// Spawn attempts so far.
    attempts: u32,
    /// Spawn generation of the current child (== attempts at spawn time).
    generation: u32,
    child: Option<Child>,
    readers: Vec<std::thread::JoinHandle<()>>,
    /// Wall time of the last observed progress (spawn, outcome, or
    /// heartbeat tick advance).
    last_progress: Instant,
    /// Last seen per-worker-slot tick counts (stall detection input).
    last_ticks: BTreeMap<usize, u64>,
    /// Last merged metrics frame from the current generation — the delta
    /// baseline. Reset to zero on respawn, so a fresh worker's cumulative
    /// counts merge in full without double-counting the dead one's.
    last_snap: Box<obs::RegistrySnapshot>,
    /// When to respawn after a death (exponential backoff).
    retry_at: Option<Instant>,
    /// Description of the most recent process failure.
    last_err: String,
    /// All attempts exhausted; remaining campaigns are crashed.
    dead: bool,
    /// Saw `done` with nothing remaining.
    done: bool,
    /// Supervisor-side heartbeat slots claimed per worker slot.
    hb_slots: BTreeMap<usize, usize>,
}

impl Shard {
    fn finished(&self) -> bool {
        self.done || self.dead || self.remaining.is_empty()
    }
}

/// Run a supervised sweep over `pending` (global campaign indices into the
/// sorted corpus `names`), spawning workers with `spawn(attempt, indices)`.
///
/// `on_record` fires once per **completed** campaign record, as it arrives
/// (journal append point). The returned vector holds one record per
/// pending index — completed records verbatim, plus fabricated `crashed`
/// records for campaigns lost with their shard — in index order.
///
/// # Errors
///
/// Only setup failures (first spawn of a shard's first attempt) abort the
/// sweep; once running, every failure is contained in a shard.
pub fn run_supervised<F>(
    opts: &SupervisorOpts,
    names: &[String],
    seed: u64,
    pending: &[usize],
    mut spawn: F,
    mut on_record: impl FnMut(&OutcomeRecord),
) -> Result<Vec<OutcomeRecord>, String>
where
    F: FnMut(u32, &[usize]) -> std::io::Result<Child>,
{
    let procs = opts.procs.max(1).min(pending.len().max(1));
    let (tx, rx) = mpsc::channel::<Event>();

    // Contiguous sharding: shard k takes the k-th chunk of pending. The
    // layout is a scheduling detail — results are keyed by global index.
    let chunk = pending.len().div_ceil(procs.max(1)).max(1);
    let mut shards: Vec<Shard> = pending
        .chunks(chunk)
        .map(|indices| Shard {
            remaining: indices.iter().copied().collect(),
            attempts: 0,
            generation: 0,
            child: None,
            readers: Vec::new(),
            last_progress: Instant::now(),
            last_ticks: BTreeMap::new(),
            last_snap: Box::new(obs::RegistrySnapshot::zero()),
            retry_at: None,
            last_err: String::new(),
            dead: false,
            done: false,
            hb_slots: BTreeMap::new(),
        })
        .collect();

    let mut results: BTreeMap<usize, OutcomeRecord> = BTreeMap::new();

    for (wid, shard) in shards.iter_mut().enumerate() {
        spawn_shard(shard, wid, &mut spawn, &tx)
            .map_err(|e| format!("spawning worker {wid}: {e}"))?;
    }

    while !shards.iter().all(Shard::finished) {
        match rx.recv_timeout(opts.poll) {
            Ok(Event::Msg(wid, generation, msg)) => {
                let shard = &mut shards[wid];
                let stale = generation != shard.generation;
                match msg {
                    WorkerMsg::Outcome(rec) => {
                        // Outcomes are valid from any generation: a killed
                        // worker's drained tail is still true, completed
                        // work (the record is digest-checked). The worker
                        // counts its own outcomes into its registry, which
                        // metrics frames deliver — counting here too would
                        // double every campaign in the fleet totals.
                        shard.remaining.remove(&rec.index);
                        shard.last_progress = Instant::now();
                        if let Entry::Vacant(slot) = results.entry(rec.index) {
                            on_record(&rec);
                            slot.insert(rec);
                        }
                    }
                    WorkerMsg::Heartbeat {
                        slot,
                        campaign,
                        ticks,
                        stage,
                    } if !stale => {
                        let advanced = shard
                            .last_ticks
                            .insert(slot, ticks)
                            .is_none_or(|prev| ticks > prev);
                        if advanced {
                            shard.last_progress = Instant::now();
                        }
                        bridge_heartbeat(shard, slot, campaign, ticks, &stage);
                    }
                    WorkerMsg::Metrics(snap) => {
                        merge_metrics_frame(shard, wid, stale, snap);
                    }
                    // `done` with campaigns missing is a protocol breach;
                    // the exit handler treats it as a death.
                    WorkerMsg::Done if !stale && shard.remaining.is_empty() => {
                        shard.done = true;
                    }
                    _ => {}
                }
            }
            Ok(Event::Eof(wid, generation)) => {
                if generation == shards[wid].generation {
                    let status = reap(&mut shards[wid]);
                    handle_worker_loss(&mut shards[wid], wid, &status, opts);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }

        // Housekeeping: stall kills and scheduled respawns.
        let now = Instant::now();
        for (wid, shard) in shards.iter_mut().enumerate() {
            if shard.finished() {
                continue;
            }
            if let (Some(timeout), Some(_)) = (opts.stall_timeout, shard.child.as_ref()) {
                if now.duration_since(shard.last_progress) >= timeout {
                    kill(shard);
                    // Orphan the dead child's pending EOF so it can't be
                    // double-counted as a second loss before the respawn.
                    shard.generation = u32::MAX;
                    let detail = format!("no progress for {:.1}s, killed", timeout.as_secs_f64());
                    handle_worker_loss(shard, wid, &detail, opts);
                }
            }
            if shard.retry_at.is_some_and(|at| now >= at) {
                shard.retry_at = None;
                obs::inc(obs::Counter::WorkerRestarts);
                eprintln!(
                    "supervisor: re-dispatching worker {wid} (attempt {}/{}, campaigns {})",
                    shard.attempts + 1,
                    opts.max_attempts,
                    fmt_indices(&shard.remaining),
                );
                if let Err(e) = spawn_shard(shard, wid, &mut spawn, &tx) {
                    let detail = format!("respawn failed: {e}");
                    handle_worker_loss(shard, wid, &detail, opts);
                }
            }
        }
    }

    // Tear down whatever is still running (all campaigns accounted for —
    // e.g. another shard's drained tail completed this shard's indices).
    for shard in &mut shards {
        kill(shard);
        end_bridged_heartbeats(shard);
        for handle in shard.readers.drain(..) {
            let _ = handle.join();
        }
    }
    drop(tx);

    // Fabricate crashed records for campaigns lost with a dead shard, via
    // the CampaignOutcome accessors so the triage vocabulary stays single-
    // sourced.
    let mut out = Vec::with_capacity(pending.len());
    for &i in pending {
        match results.remove(&i) {
            Some(rec) => out.push(rec),
            None => {
                let shard = shards.iter().find(|s| s.remaining.contains(&i));
                let outcome: CampaignOutcome<()> = CampaignOutcome::Crashed {
                    attempts: shard.map_or(0, |s| s.attempts),
                    detail: format!(
                        "worker process lost ({})",
                        shard.map_or("unknown", |s| s.last_err.as_str())
                    ),
                };
                obs::inc(obs::Counter::CampaignsCrashed);
                out.push(OutcomeRecord {
                    index: i,
                    contract: names.get(i).cloned().unwrap_or_default(),
                    outcome: outcome.kind().to_string(),
                    stage: outcome.stage().to_string(),
                    detail: outcome.detail(),
                    seed: seed ^ (i as u64),
                    truncated: false,
                    branches: 0,
                    findings: String::new(),
                    virtual_us: 0,
                    iterations: 0,
                    smt_queries: 0,
                    exec_us: 0,
                    solve_us: 0,
                    elapsed_ms: 0,
                });
            }
        }
    }
    Ok(out)
}

/// Spawn (or respawn) `shard`'s worker and wire its stdout to the event
/// channel. Increments the attempt/generation counters.
fn spawn_shard<F>(
    shard: &mut Shard,
    wid: usize,
    spawn: &mut F,
    tx: &mpsc::Sender<Event>,
) -> std::io::Result<()>
where
    F: FnMut(u32, &[usize]) -> std::io::Result<Child>,
{
    shard.attempts += 1;
    shard.generation = shard.attempts;
    shard.last_ticks.clear();
    // New process, new cumulative registry: the delta baseline restarts at
    // zero so the replacement's counts merge in full.
    *shard.last_snap = obs::RegistrySnapshot::zero();
    shard.last_progress = Instant::now();
    let indices: Vec<usize> = shard.remaining.iter().copied().collect();
    let mut child = spawn(shard.attempts, &indices)?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| std::io::Error::other("worker spawned without a piped stdout"))?;
    let generation = shard.generation;
    let tx = tx.clone();
    shard.readers.push(std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if let Some(msg) = parse_worker_line(&line) {
                if tx.send(Event::Msg(wid, generation, msg)).is_err() {
                    return;
                }
            }
        }
        let _ = tx.send(Event::Eof(wid, generation));
    }));
    shard.child = Some(child);
    Ok(())
}

/// Merge one worker metrics frame into the fleet plane: the delta against
/// the shard's generation baseline lands in the supervisor's global
/// registry (fleet totals) and the per-shard store (`shard="N"` series).
///
/// Stale frames — a killed generation's drained tail — are rejected
/// outright: the ghost's last merged frame already stands as true work,
/// and the replacement's baseline is back at zero, so merging the tail
/// would double-count everything the ghost reported.
fn merge_metrics_frame(
    shard: &mut Shard,
    wid: usize,
    stale: bool,
    snap: Box<obs::RegistrySnapshot>,
) {
    if stale {
        obs::inc(obs::Counter::MetricsFramesRejected);
        return;
    }
    if !obs::enabled() {
        return;
    }
    let delta = snap.saturating_delta(&shard.last_snap);
    delta.apply_to(obs::global());
    obs::fleet().apply(wid, &delta);
    // Gauges are levels, not sums-of-deltas: the fleet value is the sum of
    // each shard's latest reading.
    obs::global().gauge_set(
        obs::Gauge::CampaignsRunning,
        obs::fleet().gauge_sum(obs::Gauge::CampaignsRunning),
    );
    obs::inc(obs::Counter::MetricsFramesMerged);
    shard.last_snap = snap;
}

/// A worker died (EOF + exit), stalled out, or failed to respawn: name the
/// lost shard, then either schedule a backed-off retry or mark it dead.
fn handle_worker_loss(shard: &mut Shard, wid: usize, detail: &str, opts: &SupervisorOpts) {
    if shard.finished() {
        shard.done = shard.remaining.is_empty();
        return;
    }
    shard.last_err = detail.to_string();
    end_bridged_heartbeats(shard);
    eprintln!(
        "supervisor: worker {wid} lost (campaigns {}): {detail}",
        fmt_indices(&shard.remaining),
    );
    if shard.attempts < opts.max_attempts {
        // Exponential backoff: base × 2^(retries so far).
        let backoff = opts.backoff * 2u32.saturating_pow(shard.attempts.saturating_sub(1));
        eprintln!(
            "supervisor: retrying worker {wid} in {:.2}s",
            backoff.as_secs_f64()
        );
        shard.retry_at = Some(Instant::now() + backoff);
    } else {
        eprintln!(
            "supervisor: worker {wid} exhausted {} attempt(s); marking campaigns {} crashed",
            opts.max_attempts,
            fmt_indices(&shard.remaining),
        );
        shard.dead = true;
    }
}

/// Wait for the current child (must have exited or been killed) and
/// describe its exit status.
fn reap(shard: &mut Shard) -> String {
    match shard.child.take() {
        Some(mut child) => match child.wait() {
            Ok(status) => format!("exited: {status}"),
            Err(e) => format!("wait failed: {e}"),
        },
        None => "no child".to_string(),
    }
}

/// Kill and reap the current child, if any.
fn kill(shard: &mut Shard) {
    if let Some(mut child) = shard.child.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Mirror a relayed worker heartbeat into the supervisor's own table so
/// the ProgressMonitor sees subprocess campaigns. Slots are claimed lazily
/// per (shard, worker-slot) and only when observability is on.
fn bridge_heartbeat(shard: &mut Shard, worker_slot: usize, campaign: u64, ticks: u64, stage: &str) {
    if !obs::enabled() {
        return;
    }
    let table = obs::heartbeats();
    let slot = *shard
        .hb_slots
        .entry(worker_slot)
        .or_insert_with(|| table.claim_slot());
    let known = table
        .snapshot()
        .into_iter()
        .find(|r| r.slot == slot)
        .map(|r| r.campaign);
    if known != Some(campaign) {
        table.begin(slot, campaign);
    }
    // One tick per relayed advance keeps `last_ms` fresh; the absolute
    // worker-side count is monitoring detail, not state.
    if ticks > 0 {
        table.tick(slot);
    }
    table.set_stage(slot, obs::Stage::from_name(stage));
}

/// Idle out every heartbeat slot bridged for `shard` (worker lost or sweep
/// over).
fn end_bridged_heartbeats(shard: &mut Shard) {
    if shard.hb_slots.is_empty() {
        return;
    }
    let table = obs::heartbeats();
    for (_, slot) in std::mem::take(&mut shard.hb_slots) {
        table.end(slot);
    }
}

fn fmt_indices(set: &BTreeSet<usize>) -> String {
    let mut s = String::new();
    for (n, i) in set.iter().enumerate() {
        if n == 8 {
            s.push_str(&format!("… ({} total)", set.len()));
            return s;
        }
        if n > 0 {
            s.push(',');
        }
        s.push_str(&i.to_string());
    }
    if s.is_empty() {
        s.push('-');
    }
    s
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::process::{Command, Stdio};

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("c{i:04}.wasm")).collect()
    }

    fn record(index: usize, seed: u64) -> OutcomeRecord {
        OutcomeRecord {
            index,
            contract: format!("c{index:04}.wasm"),
            outcome: "ok".to_string(),
            stage: "-".to_string(),
            detail: String::new(),
            seed: seed ^ index as u64,
            truncated: false,
            branches: 3,
            findings: String::new(),
            virtual_us: 100,
            iterations: 4,
            smt_queries: 1,
            exec_us: 90,
            solve_us: 10,
            elapsed_ms: 1,
        }
    }

    /// A worker that prints the given protocol lines via `sh` and exits
    /// with `code`.
    fn sh_worker(lines: &[String], code: i32) -> std::io::Result<Child> {
        let mut script = String::new();
        for l in lines {
            script.push_str("printf '%s\\n' '");
            script.push_str(l);
            script.push_str("'\n");
        }
        script.push_str(&format!("exit {code}\n"));
        Command::new("sh")
            .arg("-c")
            .arg(script)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
    }

    fn fast_opts(procs: usize) -> SupervisorOpts {
        SupervisorOpts {
            procs,
            max_attempts: 3,
            backoff: Duration::from_millis(5),
            stall_timeout: Some(Duration::from_secs(2)),
            poll: Duration::from_millis(5),
        }
    }

    #[test]
    fn merges_outcomes_from_clean_workers_in_index_order() {
        let names = names(5);
        let pending: Vec<usize> = (0..5).collect();
        let mut journaled = Vec::new();
        let out = run_supervised(
            &fast_opts(2),
            &names,
            7,
            &pending,
            |_, indices| {
                let mut lines: Vec<String> =
                    indices.iter().map(|&i| record(i, 7).to_jsonl()).collect();
                lines.push("{\"type\":\"done\"}".to_string());
                sh_worker(&lines, 0)
            },
            |rec| journaled.push(rec.index),
        )
        .expect("supervised run");
        assert_eq!(out.len(), 5);
        for (i, rec) in out.iter().enumerate() {
            assert_eq!(rec.index, i);
            assert_eq!(rec.outcome, "ok");
        }
        journaled.sort_unstable();
        assert_eq!(journaled, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dead_worker_is_retried_and_converges() {
        let names = names(4);
        let pending: Vec<usize> = (0..4).collect();
        let mut spawns = Vec::new();
        let out = run_supervised(
            &fast_opts(1),
            &names,
            3,
            &pending,
            |attempt, indices| {
                spawns.push((attempt, indices.to_vec()));
                if attempt == 1 {
                    // First attempt: one outcome, then die without `done`.
                    sh_worker(&[record(0, 3).to_jsonl()], 1)
                } else {
                    let mut lines: Vec<String> =
                        indices.iter().map(|&i| record(i, 3).to_jsonl()).collect();
                    lines.push("{\"type\":\"done\"}".to_string());
                    sh_worker(&lines, 0)
                }
            },
            |_| {},
        )
        .expect("supervised run");
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r.outcome == "ok"));
        assert_eq!(spawns.len(), 2, "exactly one retry");
        assert_eq!(spawns[1].0, 2);
        assert_eq!(
            spawns[1].1,
            vec![1, 2, 3],
            "retry re-dispatches only unfinished campaigns"
        );
    }

    #[test]
    fn exhausted_retries_mark_remaining_crashed() {
        let names = names(3);
        let pending: Vec<usize> = (0..3).collect();
        let opts = SupervisorOpts {
            max_attempts: 2,
            ..fast_opts(1)
        };
        let mut spawns = 0;
        let out = run_supervised(
            &opts,
            &names,
            9,
            &pending,
            |_, _| {
                spawns += 1;
                sh_worker(&[record(0, 9).to_jsonl()], 137)
            },
            |_| {},
        )
        .expect("supervised run");
        assert_eq!(spawns, 2);
        assert_eq!(out[0].outcome, "ok", "drained outcome survives the death");
        for rec in &out[1..] {
            assert_eq!(rec.outcome, "crashed");
            assert_eq!(rec.contract, names[rec.index]);
            assert_eq!(rec.seed, 9 ^ rec.index as u64);
            assert!(rec.detail.contains("after 2 attempt(s)"), "{}", rec.detail);
        }
    }

    #[test]
    fn stalled_worker_is_killed_and_retried() {
        let names = names(2);
        let pending: Vec<usize> = (0..2).collect();
        let opts = SupervisorOpts {
            stall_timeout: Some(Duration::from_millis(80)),
            ..fast_opts(1)
        };
        let mut attempts = 0;
        let out = run_supervised(
            &opts,
            &names,
            1,
            &pending,
            |attempt, indices| {
                attempts = attempt;
                if attempt == 1 {
                    // Hang without emitting anything: the stall detector
                    // must kill and re-dispatch.
                    Command::new("sleep")
                        .arg("600")
                        .stdout(Stdio::piped())
                        .spawn()
                } else {
                    let mut lines: Vec<String> =
                        indices.iter().map(|&i| record(i, 1).to_jsonl()).collect();
                    lines.push("{\"type\":\"done\"}".to_string());
                    sh_worker(&lines, 0)
                }
            },
            |_| {},
        )
        .expect("supervised run");
        assert_eq!(attempts, 2, "stall must trigger a re-dispatch");
        assert!(out.iter().all(|r| r.outcome == "ok"));
    }

    /// Serializes tests that assert on the process-global [`obs::fleet`]
    /// store (and resets it), so parallel tests can't cross-contaminate.
    fn fleet_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        obs::enable();
        obs::fleet().reset();
        guard
    }

    /// A metrics frame claiming `seeds` cumulative SeedsExecuted.
    fn frame(seeds: u64) -> String {
        let mut snap = obs::RegistrySnapshot::zero();
        snap.counters[obs::Counter::SeedsExecuted as usize] = seeds;
        snap.to_frame()
    }

    fn fleet_seeds(wid: usize) -> u64 {
        obs::fleet()
            .snapshot()
            .into_iter()
            .find(|(id, _)| *id == wid)
            .map(|(_, snap)| snap.counters[obs::Counter::SeedsExecuted as usize])
            .unwrap_or(0)
    }

    #[test]
    fn metrics_frames_merge_as_deltas_within_a_generation() {
        let _guard = fleet_lock();
        let names = names(2);
        let pending: Vec<usize> = (0..2).collect();
        let out = run_supervised(
            &fast_opts(1),
            &names,
            7,
            &pending,
            |_, indices| {
                // Two cumulative frames: 100 then 150. The merged total
                // must be 150, not 250 — frames are absolutes, not deltas.
                let mut lines = vec![frame(100), frame(150)];
                lines.extend(indices.iter().map(|&i| record(i, 7).to_jsonl()));
                lines.push("{\"type\":\"done\"}".to_string());
                sh_worker(&lines, 0)
            },
            |_| {},
        )
        .expect("supervised run");
        assert!(out.iter().all(|r| r.outcome == "ok"));
        assert_eq!(
            fleet_seeds(0),
            150,
            "cumulative frames must merge as deltas"
        );
    }

    #[test]
    fn killed_worker_generations_never_double_count() {
        let _guard = fleet_lock();
        let names = names(2);
        let pending: Vec<usize> = (0..2).collect();
        let out = run_supervised(
            &fast_opts(1),
            &names,
            3,
            &pending,
            |attempt, indices| {
                if attempt == 1 {
                    // Report 100 seeds, then die without `done`.
                    sh_worker(&[frame(100)], 1)
                } else {
                    // The replacement restarts its registry from zero: its
                    // 30 must land on top of the ghost's 100, not replace
                    // or double it.
                    let mut lines = vec![frame(30)];
                    lines.extend(indices.iter().map(|&i| record(i, 3).to_jsonl()));
                    lines.push("{\"type\":\"done\"}".to_string());
                    sh_worker(&lines, 0)
                }
            },
            |_| {},
        )
        .expect("supervised run");
        assert!(out.iter().all(|r| r.outcome == "ok"));
        assert_eq!(
            fleet_seeds(0),
            130,
            "ghost's merged work stays, replacement re-reports from zero"
        );
    }

    #[test]
    fn stale_generation_frame_is_rejected_without_poisoning_totals() {
        let _guard = fleet_lock();
        let mut shard = Shard {
            remaining: BTreeSet::new(),
            attempts: 1,
            generation: 1,
            child: None,
            readers: Vec::new(),
            last_progress: Instant::now(),
            last_ticks: BTreeMap::new(),
            last_snap: Box::new(obs::RegistrySnapshot::zero()),
            retry_at: None,
            last_err: String::new(),
            dead: false,
            done: false,
            hb_slots: BTreeMap::new(),
        };
        let mut snap = obs::RegistrySnapshot::zero();
        snap.counters[obs::Counter::SeedsExecuted as usize] = 40;
        merge_metrics_frame(&mut shard, 9, false, Box::new(snap.clone()));
        assert_eq!(fleet_seeds(9), 40);

        // The drained tail of a killed generation claims a huge cumulative
        // count; merging it against the fresh zero baseline would inject
        // phantom work.
        let mut tail = obs::RegistrySnapshot::zero();
        tail.counters[obs::Counter::SeedsExecuted as usize] = 1_000_000;
        merge_metrics_frame(&mut shard, 9, true, Box::new(tail));
        assert_eq!(fleet_seeds(9), 40, "stale frame must not poison totals");

        // The live generation keeps merging normally afterwards.
        snap.counters[obs::Counter::SeedsExecuted as usize] = 55;
        merge_metrics_frame(&mut shard, 9, false, Box::new(snap));
        assert_eq!(fleet_seeds(9), 55);
    }

    #[test]
    fn worker_frames_never_clobber_monitor_owned_gauges() {
        let _guard = fleet_lock();
        let mut shard = Shard {
            remaining: BTreeSet::new(),
            attempts: 1,
            generation: 1,
            child: None,
            readers: Vec::new(),
            last_progress: Instant::now(),
            last_ticks: BTreeMap::new(),
            last_snap: Box::new(obs::RegistrySnapshot::zero()),
            retry_at: None,
            last_err: String::new(),
            dead: false,
            done: false,
            hb_slots: BTreeMap::new(),
        };
        // StalledCampaigns and HeartbeatOverflow belong to the supervisor's
        // own ProgressMonitor; CampaignsRunning is the one gauge summed from
        // shard frames.
        obs::global().gauge_set(obs::Gauge::HeartbeatOverflow, 1);
        let mut snap = obs::RegistrySnapshot::zero();
        snap.gauges[obs::Gauge::HeartbeatOverflow as usize] = 5;
        snap.gauges[obs::Gauge::CampaignsRunning as usize] = 2;
        merge_metrics_frame(&mut shard, 0, false, Box::new(snap));
        assert_eq!(
            obs::global().gauge(obs::Gauge::HeartbeatOverflow),
            1,
            "a worker's overflow reading must not overwrite the monitor's"
        );
        assert_eq!(
            obs::global().gauge(obs::Gauge::CampaignsRunning),
            obs::fleet().gauge_sum(obs::Gauge::CampaignsRunning),
            "running count is the sum of shard levels"
        );
        assert_eq!(obs::global().gauge(obs::Gauge::CampaignsRunning), 2);
    }

    #[test]
    fn metrics_frame_parses_and_tampering_is_rejected() {
        let line = frame(42);
        match parse_worker_line(&line) {
            Some(WorkerMsg::Metrics(snap)) => {
                assert_eq!(snap.counters[obs::Counter::SeedsExecuted as usize], 42);
            }
            other => panic!("expected metrics frame, got {other:?}"),
        }
        // Digest tamper: flip the seed count in the payload.
        let tampered = line.replace(",42,", ",43,");
        assert_ne!(line, tampered, "fixture must actually contain the value");
        assert!(
            parse_worker_line(&tampered).is_none(),
            "tampered frame must be dropped"
        );
        // Torn frame: truncation mid-payload is dropped, not a panic.
        assert!(parse_worker_line(&line[..line.len() / 2]).is_none());
    }

    #[test]
    fn protocol_parser_is_tolerant() {
        assert!(parse_worker_line("not json at all").is_none());
        assert!(parse_worker_line("{\"type\":\"mystery\"}").is_none());
        assert!(
            parse_worker_line("{\"v\":1,\"index\":0}").is_none(),
            "bad record"
        );
        assert!(matches!(
            parse_worker_line("{\"type\":\"done\"}"),
            Some(WorkerMsg::Done)
        ));
        let hb = parse_worker_line(
            "{\"type\":\"hb\",\"slot\":2,\"campaign\":5,\"ticks\":10,\"stage\":\"solve\"}",
        );
        match hb {
            Some(WorkerMsg::Heartbeat {
                slot,
                campaign,
                ticks,
                stage,
            }) => {
                assert_eq!((slot, campaign, ticks, stage.as_str()), (2, 5, 10, "solve"));
            }
            other => panic!("expected heartbeat, got {other:?}"),
        }
        let rec = record(1, 4);
        match parse_worker_line(&rec.to_jsonl()) {
            Some(WorkerMsg::Outcome(parsed)) => assert_eq!(parsed, rec),
            other => panic!("expected outcome, got {other:?}"),
        }
    }
}
