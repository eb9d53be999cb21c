//! Tier-1 gate for the execution fast path (threaded-code tapes + COW chain
//! snapshots): the accelerated stack must be observationally pure. Reports,
//! telemetry traces and transaction receipts must be byte-identical to the
//! reference interpreter running against genesis-initialized chains, at any
//! worker count. These tests pin both arms explicitly
//! (`PreparedTarget::prepare` vs `PreparedTarget::prepare_reference`).

use std::sync::Arc;

use wasai::wasai_chain::abi::ParamValue;
use wasai::wasai_chain::asset::Asset;
use wasai::wasai_chain::name::Name;
use wasai::wasai_core::harness::{self, accounts};
use wasai::wasai_core::{run_jobs, PreparedTarget, TargetInfo, Wasai};
use wasai::wasai_corpus::{generate, wild_corpus, Blueprint, WildRates};
use wasai_bench::bench_fuzz_config;

fn corpus_targets(seed: u64, n: usize) -> Vec<TargetInfo> {
    wild_corpus(seed, n, WildRates::default())
        .into_iter()
        .map(|w| TargetInfo::new(w.deployed.module, w.deployed.abi))
        .collect()
}

fn transfer_params() -> Vec<ParamValue> {
    vec![
        ParamValue::Name(accounts::attacker()),
        ParamValue::Name(accounts::target()),
        ParamValue::Asset(Asset::eos(5)),
        ParamValue::String("memo".into()),
    ]
}

/// The four §3.5 payload templates plus a direct action — enough traffic to
/// exercise wasm execution, the token ledger, notifications and the db APIs.
fn payload_burst() -> Vec<wasai::wasai_chain::Transaction> {
    let p = transfer_params();
    vec![
        harness::official_transfer(&p),
        harness::direct_fake_transfer(&p),
        harness::fake_token_transfer(&p),
        harness::fake_notif_transfer(&p),
        harness::direct_action(Name::new("transfer"), &p),
    ]
}

#[test]
fn fast_path_reports_and_traces_match_reference() {
    // Full campaigns over a wild-corpus slice: the fast arm (tape execution
    // + snapshot forks) must reproduce the reference arm's report AND its
    // entire telemetry event stream bit-for-bit.
    let targets = corpus_targets(0x7a9e, 6);
    for (i, info) in targets.iter().enumerate() {
        let seed = 0xfa57 ^ i as u64;
        let fast = PreparedTarget::prepare(info.clone()).expect("prepare fast");
        let reference = PreparedTarget::prepare_reference(info.clone()).expect("prepare reference");
        let (fast_report, fast_events) = Wasai::from_prepared(fast)
            .with_config(bench_fuzz_config(seed))
            .run_traced()
            .expect("fast campaign");
        let (ref_report, ref_events) = Wasai::from_prepared(reference)
            .with_config(bench_fuzz_config(seed))
            .run_traced()
            .expect("reference campaign");
        assert_eq!(
            fast_report, ref_report,
            "contract {i}: fast-path report drifted from the reference interpreter"
        );
        assert_eq!(
            fast_events, ref_events,
            "contract {i}: fast-path telemetry drifted from the reference interpreter"
        );
    }
}

#[test]
fn fast_fleet_matches_reference_at_any_worker_count() {
    // The reference serial run is ground truth; the fast path must match it
    // on 1 worker and on 4 (campaign results may not depend on scheduling,
    // snapshot-fork order, or Arc sharing across workers).
    let targets = corpus_targets(0x11, 5);
    let reference: Vec<_> = targets
        .iter()
        .enumerate()
        .map(|(i, info)| {
            let p = PreparedTarget::prepare_reference(info.clone()).expect("prepare reference");
            Wasai::from_prepared(p)
                .with_config(bench_fuzz_config(0xe05 ^ i as u64))
                .run()
                .expect("reference campaign")
        })
        .collect();
    let prepared: Vec<Arc<PreparedTarget>> = targets
        .iter()
        .map(|info| PreparedTarget::prepare(info.clone()).expect("prepare fast"))
        .collect();
    for jobs in [1usize, 4] {
        let reports = run_jobs(jobs, (0..targets.len()).collect(), |_, i: usize| {
            Wasai::from_prepared(prepared[i].clone())
                .with_config(bench_fuzz_config(0xe05 ^ i as u64))
                .run()
                .expect("fast campaign")
        });
        assert_eq!(
            reports, reference,
            "fast path at jobs={jobs} drifted from the serial reference"
        );
    }
}

#[test]
fn loop_heavy_replay_matches_reference() {
    // Wild contracts whose eosponser carries an sdk_work byte-mix loop,
    // instrumented as every campaign runs them. Receipts (results, executed
    // actions, api events, traces, fuel) must be bit-identical between a
    // fast COW fork and a legacy-cost genesis chain running the reference
    // interpreter.
    use wasai::wasai_chain::ChainConfig;
    let targets: Vec<TargetInfo> = wild_corpus(
        0xbeef,
        3,
        WildRates {
            sdk_work: 512,
            ..WildRates::default()
        },
    )
    .into_iter()
    .map(|w| TargetInfo::new(w.deployed.module, w.deployed.abi))
    .collect();
    for (i, info) in targets.iter().enumerate() {
        let fast = PreparedTarget::prepare(info.clone()).expect("prepare fast");
        let reference = PreparedTarget::prepare_reference(info.clone()).expect("prepare reference");
        let mut forked = fast.fork_chain().expect("fork");
        let mut genesis = reference.setup_chain_genesis().expect("genesis");
        genesis.set_config(ChainConfig {
            legacy_exec_costs: true,
            ..genesis.config()
        });
        for (j, tx) in payload_burst().iter().enumerate() {
            assert_eq!(
                forked.push_transaction(tx),
                genesis.push_transaction(tx),
                "contract {i} payload {j}: loop-heavy fast path diverged from reference"
            );
        }
    }
}

#[test]
fn snapshot_fork_receipts_match_genesis_setup() {
    // A COW fork of the post-setup snapshot must be transaction-for-
    // transaction indistinguishable from a chain deployed from genesis:
    // same receipts (executed actions, api events, traces, fuel) and same
    // errors, across payloads that hit wasm, the ledger and notifications.
    let contract = generate(Blueprint::default());
    let info = TargetInfo::new(contract.module, contract.abi);
    let prepared = PreparedTarget::prepare(info).expect("prepare");
    let mut forked = prepared.fork_chain().expect("fork");
    let mut genesis = prepared.setup_chain_genesis().expect("genesis");
    for (i, tx) in payload_burst().iter().enumerate() {
        let from_fork = forked.push_transaction(tx);
        let from_genesis = genesis.push_transaction(tx);
        assert_eq!(
            from_fork, from_genesis,
            "payload {i}: snapshot fork diverged from genesis setup"
        );
    }
}

#[test]
fn sibling_forks_never_observe_each_others_writes() {
    // Overlay isolation at the chain level: a fork taken AFTER another fork
    // has executed writes must still behave exactly like genesis — the
    // sibling's db/ledger mutations must not leak through the shared base.
    let contract = generate(Blueprint::default());
    let info = TargetInfo::new(contract.module, contract.abi);
    let prepared = PreparedTarget::prepare(info).expect("prepare");
    let mut dirty = prepared.fork_chain().expect("fork dirty");
    for tx in payload_burst() {
        let _ = dirty.push_transaction(&tx);
    }
    let mut clean = prepared.fork_chain().expect("fork clean");
    let mut genesis = prepared.setup_chain_genesis().expect("genesis");
    for (i, tx) in payload_burst().iter().enumerate() {
        assert_eq!(
            clean.push_transaction(tx),
            genesis.push_transaction(tx),
            "payload {i}: a sibling fork's writes leaked into the snapshot"
        );
    }
}
