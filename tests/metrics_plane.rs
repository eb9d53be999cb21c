//! The fleet metrics plane: worker subprocesses stream full registry
//! snapshots to the supervisor, which merges them into fleet totals plus
//! per-shard `shard="N"` series. These tests drive the real `wasai` binary
//! and check the plane's load-bearing properties end to end:
//!
//! - a `--metrics-dump` under `--procs N` reports the same deterministic
//!   fleet totals as a single-process run (the PR's satellite 1 regression);
//! - a mid-sweep scrape of `--metrics-addr` exposes per-shard series;
//! - `--profile-out` is byte-identical at any `WASAI_JOBS` and under
//!   `--procs`, and adding it perturbs no other output;
//! - `wasai stats --fleet` renders the shard split from a dump.

use std::fs;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use wasai::wasai_core::telemetry::parse_json_fields;

/// A fresh scratch directory under the target dir (no tempfile dependency).
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("test-scratch")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Generate a labeled corpus with real action-function branches.
fn write_corpus(dir: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_wasai"))
        .arg("gen")
        .arg(dir)
        .arg("3")
        .arg("7")
        .output()
        .expect("spawn wasai gen");
    assert!(out.status.success(), "gen failed: {out:?}");
}

fn read_dump(path: &Path) -> std::collections::BTreeMap<String, u64> {
    let raw = fs::read_to_string(path).expect("metrics dump");
    parse_json_fields(&raw)
        .expect("parseable metrics dump")
        .into_iter()
        .filter_map(|(k, v)| v.as_num().map(|n| (k, n)))
        .collect()
}

/// Deterministic work counters: identical at any `--procs` / `WASAI_JOBS`
/// because they count simulated work, not wall time or cache luck.
const DETERMINISTIC_SERIES: &[&str] = &[
    "wasai_campaigns_total{outcome=\"ok\"}",
    "wasai_seeds_executed_total",
    "wasai_iterations_total",
    "wasai_coverage_branches_total",
    "wasai_branch_sites_total",
    "wasai_flips_total",
    "wasai_replays_total",
    "wasai_replays_skipped_total",
];

/// Run an `audit-dir` sweep over `dir`, returning (dump path, stdout).
fn sweep(dir: &Path, tag: &str, procs: Option<&str>, extra: &[&str]) -> (PathBuf, String) {
    let dump = dir.join(format!("dump-{tag}.json"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wasai"));
    cmd.arg("audit-dir")
        .arg(dir)
        .arg("5")
        .arg("--deadline-secs")
        .arg("300")
        .arg("--metrics-dump")
        .arg(&dump)
        .env("WASAI_PROGRESS", "0");
    if let Some(n) = procs {
        cmd.arg("--procs").arg(n);
    }
    for arg in extra {
        cmd.arg(arg);
    }
    let out = cmd.output().expect("spawn wasai");
    assert_eq!(out.status.code(), Some(0), "{tag}: {out:?}");
    (dump, verdict_lines(&out.stdout))
}

/// Per-contract verdict lines: stdout up to the summary (which reports
/// wall-clock time and so differs run to run by design).
fn verdict_lines(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .take_while(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Satellite 1: under `--procs N` the dump must report *fleet totals* — the
/// metrics frames stream every worker's registry to the supervisor — so the
/// deterministic series match a single-process run exactly. Before the
/// metrics plane, worker counters died with the worker processes and the
/// supervisor's dump undercounted everything the workers did.
#[test]
fn metrics_dump_under_procs_reports_fleet_totals() {
    let dir = scratch_dir("fleet-dump");
    write_corpus(&dir);

    let (dump1, stdout1) = sweep(&dir, "procs1", None, &[]);
    let (dump4, stdout4) = sweep(&dir, "procs4", Some("4"), &[]);
    assert_eq!(stdout1, stdout4, "verdicts drifted across --procs");

    let d1 = read_dump(&dump1);
    let d4 = read_dump(&dump4);
    for key in DETERMINISTIC_SERIES {
        assert_eq!(
            d1.get(*key),
            d4.get(*key),
            "{key} drifted between procs=1 and procs=4"
        );
        assert!(
            d1.get(*key).copied().unwrap_or(0) > 0,
            "{key} never counted"
        );
    }
    // The supervisor counted the merged frames and rejected none.
    assert!(
        d4.get("wasai_metrics_frames_merged_total")
            .copied()
            .unwrap_or(0)
            >= 4,
        "expected at least one merged frame per worker: {d4:?}"
    );
    assert_eq!(
        d4.get("wasai_metrics_frames_rejected_total").copied(),
        Some(0),
        "frames rejected in a clean run"
    );
    // Per-shard series exist in the procs dump and sum to the fleet total.
    let shard_seeds: u64 = d4
        .iter()
        .filter(|(k, _)| k.starts_with("wasai_seeds_executed_total{shard=\""))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(
        Some(shard_seeds),
        d4.get("wasai_seeds_executed_total").copied(),
        "shard series don't sum to the fleet total: {d4:?}"
    );
    // The single-process dump has no shard series to confuse dashboards.
    assert!(
        !d1.keys().any(|k| k.contains("shard=")),
        "procs=1 dump grew shard series: {d1:?}"
    );
}

/// Minimal HTTP GET against the metrics listener.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let (_, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    body.to_string()
}

/// The tentpole's live view: scraping `--metrics-addr` during (or right
/// after, under linger) a `--procs` sweep serves per-shard series next to
/// the fleet rollup.
#[test]
fn live_scrape_under_procs_serves_shard_series() {
    let dir = scratch_dir("fleet-scrape");
    write_corpus(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_wasai"))
        .arg("audit-dir")
        .arg(&dir)
        .arg("5")
        .arg("--deadline-secs")
        .arg("300")
        .arg("--procs")
        .arg("2")
        .arg("--metrics-addr")
        .arg("127.0.0.1:0")
        .env("WASAI_PROGRESS", "0")
        .env("WASAI_METRICS_LINGER_SECS", "60")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wasai");

    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("stderr closed before listener banner")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("metrics listening on http://") {
            break rest
                .strip_suffix("/metrics")
                .expect("banner ends in /metrics")
                .to_string();
        }
    };

    // Workers stream a frame at least every 200ms; poll until both shards
    // have merged one (the linger window keeps the listener alive after the
    // sweep, so this cannot deadlock on a fast run).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let body = loop {
        let body = http_get(&addr, "/metrics");
        let shards_up = body.contains("shard=\"0\"") && body.contains("shard=\"1\"");
        if shards_up || std::time::Instant::now() > deadline {
            break body;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    };
    for series in [
        "wasai_seeds_executed_total{shard=\"0\"}",
        "wasai_seeds_executed_total{shard=\"1\"}",
    ] {
        assert!(body.contains(series), "missing {series}:\n{body}");
    }
    // Totals precede their shard split (exposition readability contract).
    let total_at = body
        .find("\nwasai_seeds_executed_total ")
        .expect("fleet total line");
    let shard_at = body
        .find("wasai_seeds_executed_total{shard=")
        .expect("shard line");
    assert!(total_at < shard_at, "shard series before the fleet total");

    // The JSON twin carries the same shard keys.
    let jbody = http_get(&addr, "/metrics.json");
    let fields = parse_json_fields(&jbody).expect("parseable /metrics.json");
    assert!(
        fields
            .keys()
            .any(|k| k.starts_with("wasai_seeds_executed_total{shard=")),
        "JSON twin missing shard series: {jbody}"
    );

    child.kill().expect("kill lingering child");
    child.wait().expect("reap child");
}

/// `--profile-out` folds the virtual-clock span partition, so the file is
/// byte-identical at any `WASAI_JOBS` and under `--procs`, and turning it
/// on perturbs neither verdicts nor triage.
#[test]
fn profile_is_byte_identical_across_schedules_and_out_of_band() {
    let dir = scratch_dir("fleet-profile");
    write_corpus(&dir);

    let run = |tag: &str, jobs: &str, procs: Option<&str>, profile: bool| {
        let profile_path = dir.join(format!("profile-{tag}.folded"));
        let triage_path = dir.join(format!("triage-{tag}.jsonl"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_wasai"));
        cmd.arg("audit-dir")
            .arg(&dir)
            .arg("5")
            .arg("--deadline-secs")
            .arg("300")
            .arg("--triage")
            .arg(&triage_path)
            .env("WASAI_JOBS", jobs)
            .env("WASAI_PROGRESS", "0");
        if profile {
            cmd.arg("--profile-out").arg(&profile_path);
        }
        if let Some(n) = procs {
            cmd.arg("--procs").arg(n);
        }
        let out = cmd.output().expect("spawn wasai");
        assert_eq!(out.status.code(), Some(0), "{tag}: {out:?}");
        let profile_text = if profile {
            fs::read_to_string(&profile_path).expect("profile exists")
        } else {
            String::new()
        };
        let triage = fs::read_to_string(&triage_path).expect("triage exists");
        // Strip the only wall-clock field before comparing schedules.
        let triage_det: String = triage
            .lines()
            .map(|l| {
                let (head, _) = l.rsplit_once(",\"elapsed_ms\"").expect("elapsed_ms last");
                format!("{head}}}\n")
            })
            .collect();
        (profile_text, triage_det, verdict_lines(&out.stdout))
    };

    let (profile1, triage1, stdout1) = run("j1", "1", None, true);
    assert!(
        profile1.lines().count() >= 3,
        "profile too small for a 3-contract corpus:\n{profile1}"
    );
    for line in profile1.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("weight separator");
        assert!(stack.starts_with("wasai;"), "bad stack root: {line}");
        assert!(
            stack.ends_with(";execute") || stack.ends_with(";solve"),
            "bad leaf frame: {line}"
        );
        weight.parse::<u64>().expect("numeric weight");
    }

    let (profile4, triage4, stdout4) = run("j4", "4", None, true);
    assert_eq!(profile1, profile4, "profile drifted across WASAI_JOBS");
    assert_eq!(triage1, triage4, "triage drifted across WASAI_JOBS");
    assert_eq!(stdout1, stdout4, "verdicts drifted across WASAI_JOBS");

    let (profile_p, _, stdout_p) = run("p2", "2", Some("2"), true);
    assert_eq!(profile1, profile_p, "profile drifted under --procs");
    assert_eq!(stdout1, stdout_p, "verdicts drifted under --procs");

    // Out-of-band: the profile flag changes nothing else.
    let (_, triage_dark, stdout_dark) = run("dark", "1", None, false);
    assert_eq!(triage1, triage_dark, "--profile-out perturbed triage");
    assert_eq!(stdout1, stdout_dark, "--profile-out perturbed verdicts");
}

/// `wasai stats --fleet` renders a procs dump as the fleet-total table
/// followed by one table per shard.
#[test]
fn stats_fleet_renders_shard_tables_from_a_procs_dump() {
    let dir = scratch_dir("fleet-stats");
    write_corpus(&dir);
    let (dump, _) = sweep(&dir, "stats", Some("2"), &[]);

    let out = Command::new(env!("CARGO_BIN_EXE_wasai"))
        .arg("stats")
        .arg(&dump)
        .arg("--fleet")
        .output()
        .expect("spawn wasai stats");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fleet totals:"), "no totals table:\n{text}");
    assert!(text.contains("\nshard 0:"), "no shard 0 table:\n{text}");
    assert!(text.contains("\nshard 1:"), "no shard 1 table:\n{text}");
    // Shard tables show the de-labeled series names.
    let shard0 = text.split("\nshard 0:").nth(1).expect("shard 0 section");
    assert!(
        shard0.contains("wasai_seeds_executed_total"),
        "shard table missing seeds series:\n{text}"
    );
    assert!(
        !shard0.contains("shard=\""),
        "shard label leaked into a shard table:\n{text}"
    );

    // --fleet on a non-dump input is a usage error, not a silent fallback.
    let triage = dir.join("t.jsonl");
    fs::write(&triage, "{\"contract\":\"x\",\"outcome\":\"ok\"}\n").expect("write triage stub");
    let out = Command::new(env!("CARGO_BIN_EXE_wasai"))
        .arg("stats")
        .arg(&triage)
        .arg("--fleet")
        .output()
        .expect("spawn wasai stats");
    assert_ne!(out.status.code(), Some(0), "--fleet accepted a triage file");
}
