//! EOSIO byte-identity across the substrate boundary.
//!
//! The substrate refactor moved the EOSIO campaign body behind the
//! [`wasai::wasai_core::Substrate`] trait verbatim; the golden telemetry
//! snapshots (`tests/telemetry_golden.rs`) pin its output against the
//! pre-refactor bytes. This suite proves the remaining seam: routing a
//! campaign through `--substrate eosio` explicitly produces byte-identical
//! reports, traces, verdict lines and triage records to the auto-detected
//! default — in process, across thread-fleet worker counts, and across
//! `--procs` subprocess sharding.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use wasai::prelude::*;
use wasai::wasai_core::fleet;

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

/// A small mixed corpus: one clean, one Fake EOS, one MissAuth sample.
fn eosio_samples() -> Vec<LabeledContract> {
    vec![
        generate(Blueprint {
            seed: 11,
            ..Blueprint::default()
        }),
        generate(Blueprint {
            seed: 12,
            code_guard: false,
            ..Blueprint::default()
        }),
        generate(Blueprint {
            seed: 13,
            auth_check: false,
            ..Blueprint::default()
        }),
    ]
}

#[test]
fn pinned_eosio_report_and_trace_match_the_default_byte_for_byte() {
    for (i, c) in eosio_samples().into_iter().enumerate() {
        let cfg = FuzzConfig {
            rng_seed: 77 ^ i as u64,
            ..FuzzConfig::quick()
        };
        let (auto_report, auto_trace) = Wasai::new(c.module.clone(), c.abi.clone())
            .with_config(cfg)
            .run_traced()
            .expect("deploys");
        let (pinned_report, pinned_trace) = Wasai::new(c.module.clone(), c.abi.clone())
            .with_config(cfg)
            .with_substrate(SubstrateKind::Eosio)
            .run_traced()
            .expect("deploys");
        assert_eq!(
            auto_report.render(),
            pinned_report.render(),
            "sample {i}: report text must be byte-identical"
        );
        assert_eq!(
            auto_trace, pinned_trace,
            "sample {i}: telemetry event streams must be identical"
        );
        assert_eq!(auto_report.findings, c.label, "sample {i}: ground truth");
    }
}

#[test]
fn thread_fleet_is_invariant_to_worker_count_with_the_substrate_pinned() {
    let samples = eosio_samples();
    let sweep = |jobs: usize| -> Vec<String> {
        let items: Vec<(usize, LabeledContract)> = samples.iter().cloned().enumerate().collect();
        fleet::run_jobs(jobs, items, |_, (i, c)| {
            Wasai::new(c.module, c.abi)
                .with_config(FuzzConfig {
                    rng_seed: 5 ^ i as u64,
                    ..FuzzConfig::quick()
                })
                .with_substrate(SubstrateKind::Eosio)
                .run()
                .expect("deploys")
                .render()
        })
    };
    assert_eq!(
        sweep(1),
        sweep(4),
        "1-worker and 4-worker sweeps must render identical reports"
    );
}

/// One CLI sweep's comparable output: per-contract verdict lines plus
/// triage records with the wall-clock `elapsed_ms` field stripped.
fn run_sweep(dir: &Path, tag: &str, extra_args: &[&str]) -> (Vec<String>, Vec<String>) {
    let triage_path = dir.join(format!("triage-{tag}.jsonl"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wasai"));
    cmd.arg("audit-dir")
        .arg(dir)
        .arg("9")
        .arg("--triage")
        .arg(&triage_path)
        .env_remove("WASAI_CHAOS")
        .env_remove("WASAI_PROCS")
        .env_remove("WASAI_JOBS")
        .env("WASAI_PROGRESS", "0");
    for a in extra_args {
        cmd.arg(a);
    }
    let out = cmd.output().expect("spawn wasai audit-dir");
    assert!(
        out.status.success(),
        "sweep {tag} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verdicts = String::from_utf8_lossy(&out.stdout)
        .lines()
        .take_while(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    let triage = fs::read_to_string(&triage_path)
        .expect("triage report exists")
        .lines()
        .map(|line| match line.find(",\"elapsed_ms\":") {
            Some(cut) => format!("{}}}", &line[..cut]),
            None => line.to_string(),
        })
        .collect();
    (verdicts, triage)
}

#[test]
fn cli_sweep_is_identical_with_and_without_the_flag_and_under_procs() {
    let dir = scratch_dir("substrate-diff");
    let out = Command::new(env!("CARGO_BIN_EXE_wasai"))
        .arg("gen")
        .arg(&dir)
        .arg("4")
        .arg("2")
        .output()
        .expect("spawn wasai gen");
    assert!(out.status.success(), "gen failed: {out:?}");

    let baseline = run_sweep(&dir, "default", &[]);
    let pinned = run_sweep(&dir, "pinned", &["--substrate", "eosio"]);
    assert_eq!(
        baseline, pinned,
        "--substrate eosio must not change a single verdict or triage byte"
    );

    let procs = run_sweep(&dir, "procs", &["--substrate", "eosio", "--procs", "2"]);
    assert_eq!(
        baseline, procs,
        "subprocess sharding inherits the substrate and stays byte-identical"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn procs_workers_inherit_a_substrate_pin_that_changes_the_answer() {
    // On a CosmWasm corpus, pinning eosio changes every verdict, so a worker
    // that lost the flag at the process boundary would show in the triage.
    let dir = scratch_dir("substrate-inherit");
    let out = Command::new(env!("CARGO_BIN_EXE_wasai"))
        .args(["gen", dir.to_str().expect("utf8 path"), "4", "2"])
        .args(["--substrate", "cosmwasm"])
        .output()
        .expect("spawn wasai gen");
    assert!(out.status.success(), "gen failed: {out:?}");

    let auto = run_sweep(&dir, "auto", &[]);
    let pinned = run_sweep(&dir, "pinned", &["--substrate", "eosio"]);
    let procs = run_sweep(&dir, "procs", &["--substrate", "eosio", "--procs", "2"]);
    assert_ne!(auto.1, pinned.1, "the pin must change the triage");
    assert_eq!(
        procs.1, pinned.1,
        "--procs 2 workers must run under the supervisor's substrate pin"
    );
    assert_eq!(procs.0, pinned.0);
    let _ = fs::remove_dir_all(&dir);
}
