//! Windows, percentiles and accuracy counting.
//!
//! Other tenants of a shared host slow it by up to a quarter for seconds at
//! a time, and a disturbance only ever makes a window slower. So a timing is
//! read per window of a pass and reported from the least-disturbed quarter
//! of the windows ([`undisturbed`]).

use std::collections::BTreeSet;
use std::ops::Range;

use wasai_bench::Metrics;
use wasai_core::VulnClass;

/// A percentile is reported only when at least this many samples lie
/// beyond it; a thinner tail is noise.
pub const MIN_TAIL: usize = 10;

/// The shortest window, in seconds.
pub const WINDOW_S: f64 = 1.0;

/// The fewest audits in a window whose latency percentiles are taken: a p90
/// then has [`MIN_TAIL`] samples beyond it.
pub const WINDOW_AUDITS: usize = 100;

/// Cut a pass into consecutive windows, given each audit's completion time
/// in seconds since the pass began (ascending). A window closes at the
/// first audit that makes it both `min_s` long and `min_audits` strong; a
/// tail too short to close joins the window before it. Returns each
/// window's audits and its wall time.
pub fn windows(ends: &[f64], min_s: f64, min_audits: usize) -> Vec<(Range<usize>, f64)> {
    let mut out: Vec<(Range<usize>, f64)> = Vec::new();
    let (mut first, mut start) = (0, 0.0);
    for (i, &end) in ends.iter().enumerate() {
        if i + 1 - first >= min_audits && end - start >= min_s {
            out.push((first..i + 1, end - start));
            (first, start) = (i + 1, end);
        }
    }
    if let Some(&end) = ends.last().filter(|_| first < ends.len()) {
        match out.last_mut() {
            Some((range, wall)) => {
                range.end = ends.len();
                *wall += end - start;
            }
            None => out.push((first..ends.len(), end - start)),
        }
    }
    out
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    (rank >= 1 && sorted.len() - rank >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// The `p`-quantile of durations truncated to whole milliseconds, as the
/// `elapsed_ms` fields of triage records are. A reading `v` stands for the
/// interval `[v, v + 1)`, and the quantile is interpolated linearly inside
/// the interval that holds its rank (the grouped-data estimate). `None`
/// under the same tail rule as [`percentile`].
pub fn percentile_whole_ms(sorted: &[u64], p: f64) -> Option<f64> {
    let rank = p * sorted.len() as f64;
    let idx = (rank.ceil() as usize).checked_sub(1)?;
    if sorted.len() - (idx + 1) < MIN_TAIL {
        return None;
    }
    let v = sorted[idx];
    let below = sorted.partition_point(|&x| x < v);
    let within = sorted.partition_point(|&x| x <= v) - below;
    Some(v as f64 + (rank - below as f64) / within as f64)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of a non-empty sample, interpolated
/// linearly between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A timing read from per-window values: the upper quartile of
/// throughputs, or the lower quartile of latencies when `lower_is_better`.
pub fn undisturbed(per_window: &[f64], lower_is_better: bool) -> f64 {
    quantile(per_window, if lower_is_better { 0.25 } else { 0.75 })
}

/// Score one audit: one (contract, class) pair per vulnerability class of
/// either substrate, true when `label` holds the class and flagged when
/// `found` does.
pub fn score(m: &mut Metrics, found: &BTreeSet<VulnClass>, label: &BTreeSet<VulnClass>) {
    for class in VulnClass::ALL.iter().chain(&VulnClass::COSMWASM) {
        m.record(label.contains(class), found.contains(class));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_at_n120_takes_rank_108_and_thin_tails_are_refused() {
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(108.0));
        assert_eq!(percentile(&xs, 0.5), Some(60.0));
        // Rank 110 leaves exactly ten beyond it; rank 111 leaves nine.
        assert_eq!(percentile(&xs, 0.91), Some(110.0));
        assert_eq!(percentile(&xs, 0.925), None);
        assert_eq!(percentile(&xs[..99], 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn whole_ms_quantiles_interpolate_inside_the_reading() {
        // 40 readings of 2 ms and 60 of 3 ms: the median falls a sixth of
        // the way into the 3 ms interval.
        let mut xs = vec![2u64; 40];
        xs.extend([3; 60]);
        let p50 = percentile_whole_ms(&xs, 0.5).unwrap();
        assert!((p50 - (3.0 + 10.0 / 60.0)).abs() < 1e-12, "{p50}");
        let p20 = percentile_whole_ms(&xs, 0.2).unwrap();
        assert!((p20 - 2.5).abs() < 1e-12, "{p20}");
        assert_eq!(percentile_whole_ms(&xs, 0.95), None);
        assert_eq!(percentile_whole_ms(&[], 0.5), None);
    }

    #[test]
    fn windows_close_on_time_and_count_and_absorb_the_tail() {
        let ends = [0.4, 0.9, 1.2, 1.5, 2.3, 2.4, 2.5];
        let w = windows(&ends, 1.0, 2);
        assert_eq!(
            w.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(),
            [0..3, 3..7]
        );
        assert!((w[0].1 - 1.2).abs() < 1e-12 && (w[1].1 - 1.3).abs() < 1e-12);
        // Too few audits to close any window: one window holds them all.
        assert_eq!(windows(&ends, 1.0, 50), [(0..7, 2.5)]);
        assert!(windows(&[], 1.0, 1).is_empty());
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        let windows = [10.0, 40.0, 20.0, 30.0, 50.0];
        assert_eq!(undisturbed(&windows, false), 40.0);
        assert_eq!(undisturbed(&windows, true), 20.0);
    }

    #[test]
    fn accuracy_counts_contract_class_pairs() {
        let set = |cs: &[VulnClass]| cs.iter().copied().collect::<BTreeSet<_>>();
        let mut m = Metrics::default();
        // Found one of two labeled classes, plus one the label lacks.
        score(
            &mut m,
            &set(&[VulnClass::FakeEos, VulnClass::MissAuth]),
            &set(&[VulnClass::FakeEos, VulnClass::Rollback]),
        );
        // A clean twin left clean.
        score(&mut m, &set(&[]), &set(&[]));
        // A CosmWasm class found exactly.
        score(
            &mut m,
            &set(&[VulnClass::UncheckedReply]),
            &set(&[VulnClass::UncheckedReply]),
        );
        let classes = VulnClass::ALL.len() + VulnClass::COSMWASM.len();
        assert_eq!((m.tp, m.fp, m.fn_), (2, 1, 1));
        assert_eq!(m.total(), 3 * classes);
        assert!((m.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall() - 2.0 / 3.0).abs() < 1e-12);
    }
}
