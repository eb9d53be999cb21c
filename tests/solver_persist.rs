//! The persistent solver cache's end-to-end contract, driven through the
//! real `wasai` binary:
//!
//! - **Warm start**: a second sweep pointed at the same `--solver-cache`
//!   file answers (nearly) every fleet lookup from disk, and its reports
//!   are byte-identical to the cold run's — persistence is observationally
//!   pure, exactly like the in-memory cache it extends.
//! - **Schedule independence**: the saved cache file is a pure function of
//!   the corpus, not of `WASAI_JOBS` or `--procs` — entries are idempotent
//!   and eviction keeps the smallest N keys, so any arrival order converges
//!   to the same bytes.
//! - **Durability**: a mid-file corruption is refused with a line number
//!   (fail loudly, like the fleet journal), while other damage shapes are
//!   covered by the unit suite in `crates/smt/src/persist.rs`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use wasai::wasai_core::telemetry::parse_json_fields;

/// A fresh scratch directory under the target dir (no tempfile dependency;
/// target/ is already gitignored and writable).
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("test-scratch")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Generate a small labeled corpus with the repo's own generator.
fn gen_corpus(dir: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_wasai"))
        .arg("gen")
        .arg(dir)
        .arg("4")
        .arg("1")
        .output()
        .expect("spawn wasai gen");
    assert!(out.status.success(), "gen failed: {out:?}");
}

struct SweepRun {
    exit_code: i32,
    /// Per-contract verdict lines (stdout up to the summary blank line —
    /// the summary carries wall-clock timings and is not part of the
    /// byte-identity contract).
    verdicts: Vec<String>,
    stderr: String,
}

/// Run `wasai audit-dir <dir> 5 …` with a deterministic environment.
fn run_audit_dir(dir: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> SweepRun {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wasai"));
    cmd.arg("audit-dir")
        .arg(dir)
        .arg("5")
        .arg("--deadline-secs")
        .arg("300")
        .env_remove("WASAI_CHAOS")
        .env_remove("WASAI_PROCS")
        .env("WASAI_JOBS", "2")
        .env("WASAI_PROGRESS", "0");
    for a in extra_args {
        cmd.arg(a);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn wasai audit-dir");
    let verdicts = String::from_utf8_lossy(&out.stdout)
        .lines()
        .take_while(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    SweepRun {
        exit_code: out.status.code().expect("exit code"),
        verdicts,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Read one integer series out of a `--metrics-dump` snapshot.
fn dump_counter(path: &Path, series: &str) -> u64 {
    let raw = fs::read_to_string(path).expect("metrics dump exists");
    let fields = parse_json_fields(&raw).expect("parseable metrics dump");
    fields
        .get(series)
        .and_then(|v| v.as_num())
        .unwrap_or_else(|| panic!("series {series} missing from {}", path.display()))
}

#[test]
fn warm_start_hits_disk_and_reports_stay_byte_identical() {
    let dir = scratch_dir("persist-warm");
    gen_corpus(&dir);
    let cache = dir.join("solver.cache");
    let cache_arg = cache.to_str().unwrap().to_string();

    let cold_dump = dir.join("cold.json");
    let cold = run_audit_dir(
        &dir,
        &[
            "--solver-cache",
            &cache_arg,
            "--metrics-dump",
            cold_dump.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(cold.exit_code, 0, "cold sweep failed: {}", cold.stderr);
    assert!(cache.is_file(), "cold sweep must create the cache file");
    let cold_bytes = fs::read(&cache).expect("cache file readable");
    assert!(
        fs::read_to_string(&cache)
            .unwrap()
            .starts_with("wasai-solver-cache v"),
        "cache file must carry the versioned header"
    );

    let warm_dump = dir.join("warm.json");
    let warm = run_audit_dir(
        &dir,
        &[
            "--solver-cache",
            &cache_arg,
            "--metrics-dump",
            warm_dump.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(warm.exit_code, 0, "warm sweep failed: {}", warm.stderr);
    assert_eq!(
        cold.verdicts, warm.verdicts,
        "a warm-started sweep must render byte-identical reports"
    );
    assert_eq!(
        fs::read(&cache).expect("cache file readable"),
        cold_bytes,
        "re-saving a fully warmed cache must be byte-identical"
    );

    // The whole point of the warm start: the second run answers its fleet
    // lookups from disk instead of re-solving.
    let lookups = dump_counter(&warm_dump, "wasai_smt_cache_lookups_total{level=\"fleet\"}");
    let hits = dump_counter(&warm_dump, "wasai_smt_cache_hits_total{level=\"fleet\"}");
    assert!(lookups > 0, "warm sweep performed no fleet lookups");
    let rate = hits as f64 / lookups as f64;
    assert!(
        rate >= 0.8,
        "warm fleet hit rate {rate:.2} ({hits}/{lookups}) below 0.8"
    );
    let cold_hits = dump_counter(&cold_dump, "wasai_smt_cache_hits_total{level=\"fleet\"}");
    assert!(
        hits > cold_hits,
        "warm hits ({hits}) must exceed cold hits ({cold_hits})"
    );
}

#[test]
fn cache_file_is_independent_of_jobs_and_procs() {
    let dir = scratch_dir("persist-sched");
    gen_corpus(&dir);

    let mut reference: Option<(Vec<u8>, Vec<String>)> = None;
    for (tag, extra, envs) in [
        ("j1", vec![], vec![("WASAI_JOBS", "1")]),
        ("j4", vec![], vec![("WASAI_JOBS", "4")]),
        ("p2", vec!["--procs", "2"], vec![("WASAI_JOBS", "2")]),
    ] {
        let cache = dir.join(format!("solver-{tag}.cache"));
        let cache_arg = cache.to_str().unwrap().to_string();
        let mut args = vec!["--solver-cache", &cache_arg];
        args.extend(extra);
        let run = run_audit_dir(&dir, &args, &envs);
        assert_eq!(run.exit_code, 0, "{tag} sweep failed: {}", run.stderr);
        let bytes = fs::read(&cache).expect("cache file readable");
        match &reference {
            None => reference = Some((bytes, run.verdicts)),
            Some((ref_bytes, ref_stdout)) => {
                assert_eq!(
                    &bytes, ref_bytes,
                    "{tag}: cache file must not depend on the schedule"
                );
                assert_eq!(
                    &run.verdicts, ref_stdout,
                    "{tag}: reports must not depend on the schedule"
                );
            }
        }
    }
}

#[test]
fn corrupt_cache_file_is_refused_with_a_line_number() {
    let dir = scratch_dir("persist-corrupt");
    gen_corpus(&dir);
    let cache = dir.join("solver.cache");
    let cache_arg = cache.to_str().unwrap().to_string();
    let cold = run_audit_dir(&dir, &["--solver-cache", &cache_arg], &[]);
    assert_eq!(cold.exit_code, 0, "cold sweep failed: {}", cold.stderr);

    // Flip a digit inside the first record (line 2): digest check fails.
    let text = fs::read_to_string(&cache).expect("cache file readable");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(lines.len() >= 2, "expected at least one cache record");
    lines[1] = lines[1].replace(['0', '1'], "2");
    fs::write(&cache, lines.join("\n") + "\n").expect("rewrite cache");

    let run = run_audit_dir(&dir, &["--solver-cache", &cache_arg], &[]);
    assert_eq!(run.exit_code, 1, "corrupt cache must be fatal");
    assert!(
        run.stderr.contains("line 2"),
        "error must name the corrupt line: {}",
        run.stderr
    );
}
