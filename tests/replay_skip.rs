//! The engine skips a symbolic replay when the concrete trace holds no live
//! flip target (`FlipSites::has_live_target`). In debug builds the engine
//! replays every skipped trace anyway and asserts that each flip target the
//! replay yields is already explored or exhausted, so a wrong skip panics
//! the campaign. These tests drive that cross-check over three *generated*
//! corpora and assert that the skip fired on each, so the cross-check is
//! never vacuous.
//!
//! Run them in a debug build (`cargo test --test replay_skip`): a release
//! build compiles the cross-check out.

use std::sync::Mutex;

use wasai::wasai_core::{FuzzConfig, Wasai};
use wasai::wasai_corpus::{table4_benchmark, wild_corpus, LabeledContract, WildRates};
use wasai::wasai_obs as obs;

/// The obs registry is process-global: one corpus at a time, so each
/// test's counter deltas are its own.
static SERIAL: Mutex<()> = Mutex::new(());

/// Audit every contract with WASAI; returns (replays performed, replays
/// skipped) over the sweep.
fn audit<'a>(contracts: impl IntoIterator<Item = &'a LabeledContract>) -> (u64, u64) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::enable();
    let reg = obs::global();
    let performed = reg.counter(obs::Counter::Replays);
    let skipped = reg.counter(obs::Counter::ReplaysSkipped);
    for (i, c) in contracts.into_iter().enumerate() {
        Wasai::new(c.module.clone(), c.abi.clone())
            .with_config(FuzzConfig {
                rng_seed: 0x5eed ^ i as u64,
                ..FuzzConfig::quick()
            })
            .run()
            .expect("campaign runs");
    }
    (
        reg.counter(obs::Counter::Replays) - performed,
        reg.counter(obs::Counter::ReplaysSkipped) - skipped,
    )
}

fn assert_both_paths_ran(corpus: &str, (performed, skipped): (u64, u64)) {
    assert!(skipped > 0, "{corpus}: the skip never fired");
    assert!(performed > 0, "{corpus}: every replay was skipped");
}

#[test]
fn skip_is_sound_on_table4_benchmark() {
    let samples = table4_benchmark(11, 0.05);
    let counts = audit(samples.iter().map(|s| &s.contract));
    assert_both_paths_ran("table4", counts);
}

#[test]
fn skip_is_sound_on_wild_corpus_with_sdk_work() {
    let rates = WildRates {
        sdk_work: 32,
        ..WildRates::default()
    };
    let corpus = wild_corpus(12, 24, rates);
    let counts = audit(corpus.iter().map(|w| &w.deployed));
    assert_both_paths_ran("wild_sdk", counts);
}

#[test]
fn skip_is_sound_on_generated_corpora() {
    // `wasai gen`'s corpus: the wild mix at default rates, several seeds.
    for seed in [1, 7, 23] {
        let corpus = wild_corpus(seed, 12, WildRates::default());
        let counts = audit(corpus.iter().map(|w| &w.deployed));
        assert_both_paths_ran(&format!("gen seed {seed}"), counts);
    }
}
