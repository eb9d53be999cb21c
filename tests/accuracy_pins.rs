//! Accuracy pins: exact per-class TP/FP/FN of WASAI, EOSFuzzer and EOSAFE on
//! the Table 4, 5 and 6 corpora at scale 0.05 (default seed).
//!
//! Every engine, VM or solver change that claims to leave behaviour alone
//! must leave these counts alone too, so no refactor can trade accuracy
//! silently. The full-scale Table 4 is pinned in CI
//! (`tests/snapshots/table4_full.txt`). To re-derive a pin after an
//! intended accuracy change, run the test and copy the printed counts.

use std::fmt::Write as _;

use wasai_bench::{evaluate_with, AccuracyTable};
use wasai_corpus::{table4_benchmark, table5_benchmark, table6_benchmark, BenchmarkSample};

const SCALE: f64 = 0.05;
const SEED: u64 = 0xe05;

/// One line per class: `TP/FP/FN` for each tool that supports the class.
fn render(table: &AccuracyTable) -> String {
    let mut out = String::new();
    for (class, row) in table {
        write!(out, "{class}:").unwrap();
        for (tool, m) in row.iter().filter(|(t, _)| t.supports(*class)) {
            write!(out, " {} {}/{}/{}", tool.name(), m.tp, m.fp, m.fn_).unwrap();
        }
        out.push('\n');
    }
    out
}

fn assert_pinned(samples: Vec<BenchmarkSample>, pin: &str) {
    let got = render(&evaluate_with(&samples, SEED, 1).0);
    assert_eq!(got, pin, "accuracy moved; counts now:\n{got}");
}

#[test]
fn table4_counts_are_pinned() {
    assert_pinned(
        table4_benchmark(SEED, SCALE),
        "\
Fake EOS: WASAI 6/0/0 EOSFuzzer 6/0/0 EOSAFE 6/0/0
Fake Notif: WASAI 34/0/0 EOSFuzzer 34/0/0 EOSAFE 34/0/0
MissAuth: WASAI 22/0/0 EOSAFE 22/0/0
BlockinfoDep: WASAI 10/0/0 EOSFuzzer 0/0/10
Rollback: WASAI 10/0/0 EOSAFE 10/10/0
",
    );
}

#[test]
fn table5_counts_are_pinned() {
    assert_pinned(
        table5_benchmark(SEED, SCALE),
        "\
Fake EOS: WASAI 6/0/0 EOSFuzzer 6/0/0 EOSAFE 0/0/6
Fake Notif: WASAI 34/0/0 EOSFuzzer 34/0/0 EOSAFE 34/0/0
MissAuth: WASAI 22/0/0 EOSAFE 0/0/22
BlockinfoDep: WASAI 10/0/0 EOSFuzzer 0/0/10
Rollback: WASAI 10/0/0 EOSAFE 10/10/0
",
    );
}

#[test]
fn table6_counts_are_pinned() {
    assert_pinned(
        table6_benchmark(SEED, SCALE),
        "\
Fake EOS: WASAI 5/0/0 EOSFuzzer 5/5/0 EOSAFE 5/0/0
Fake Notif: WASAI 29/0/0 EOSFuzzer 0/0/29 EOSAFE 29/0/0
MissAuth: WASAI 19/0/0 EOSAFE 19/0/0
BlockinfoDep: WASAI 10/0/0 EOSFuzzer 0/0/10
Rollback: WASAI 10/0/0 EOSAFE 10/10/0
",
    );
}
