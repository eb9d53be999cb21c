//! Serializable registry snapshots: the wire format of the fleet metrics
//! plane.
//!
//! An `audit-worker` process owns a full [`Registry`] of its own, but only
//! its stdout pipe reaches the supervisor. A [`RegistrySnapshot`] freezes
//! every counter, gauge, and histogram bucket array into one line-atomic,
//! digest-checked `{"type":"metrics",…}` frame that rides the existing
//! worker status protocol. The supervisor parses frames back, computes the
//! **per-generation delta** against the previous frame from the same worker
//! spawn, and folds the delta into its own global registry (the fleet
//! rollup) plus a per-shard [`FleetStore`] entry (the `shard="N"` series).
//!
//! # Why deltas, not absolutes
//!
//! Worker counters are cumulative from process start. A killed worker's
//! replacement starts from zero, so merging absolutes would either
//! double-count (sum every frame) or lose history (keep the latest). The
//! supervisor instead tracks the last frame seen for the *current* spawn
//! generation, resets that baseline to zero on re-dispatch, and accumulates
//! only the increments — a killed-and-retried worker never double-counts,
//! and work that completed before the kill is never erased.
//!
//! # Integrity
//!
//! Frames mirror the durable journal's discipline: an FNV-1a digest over
//! the versioned payload, rechecked at parse. A torn, truncated, or
//! tampered frame fails the digest (or the shape check) and is dropped —
//! the next periodic frame supersedes it, because frames carry absolute
//! cumulative values, not increments. Losing a frame therefore loses
//! nothing but latency.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::fnv::Fnv;
use crate::registry::{Counter, Gauge, HistSnapshot, Histogram, Registry, NUM_BUCKETS};

/// Snapshot wire-format version. Bumped whenever the series enumeration
/// changes shape; a mismatched frame is rejected wholesale (worker and
/// supervisor are always the same binary, so this only trips on torn
/// frames and operator error).
pub const SNAPSHOT_VERSION: u64 = 1;

/// A point-in-time copy of every series in a [`Registry`]: plain data,
/// mergeable, serializable. Counters and histogram cells are cumulative
/// totals; gauges are the instantaneous values at capture time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// One cumulative value per [`Counter`], in `Counter::ALL` order.
    pub counters: [u64; Counter::COUNT],
    /// One instantaneous value per [`Gauge`], in `Gauge::ALL` order.
    pub gauges: [u64; Gauge::COUNT],
    /// One reading per [`Histogram`], in `Histogram::ALL` order.
    pub hists: [HistSnapshot; Histogram::COUNT],
}

impl Default for RegistrySnapshot {
    fn default() -> Self {
        RegistrySnapshot::zero()
    }
}

impl RegistrySnapshot {
    /// The all-zero snapshot — the merge baseline of a freshly spawned
    /// worker.
    pub fn zero() -> RegistrySnapshot {
        RegistrySnapshot {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: std::array::from_fn(|_| HistSnapshot {
                buckets: [0; NUM_BUCKETS],
                sum_us: 0,
                count: 0,
            }),
        }
    }

    /// Freeze the current value of every series in `reg`.
    pub fn capture(reg: &Registry) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: std::array::from_fn(|i| reg.counter(Counter::ALL[i])),
            gauges: std::array::from_fn(|i| reg.gauge(Gauge::ALL[i])),
            hists: std::array::from_fn(|i| reg.histogram(Histogram::ALL[i])),
        }
    }

    /// The per-generation merge delta: counters and histogram cells as
    /// `self - prev` (saturating — a cumulative series can never regress
    /// within one worker generation, so any apparent regression is clamped
    /// to zero rather than poisoning totals), gauges as `self`'s latest
    /// absolute values (gauges are levels, not accumulations).
    pub fn saturating_delta(&self, prev: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: std::array::from_fn(|i| self.counters[i].saturating_sub(prev.counters[i])),
            gauges: self.gauges,
            hists: std::array::from_fn(|i| {
                let (a, b) = (&self.hists[i], &prev.hists[i]);
                HistSnapshot {
                    buckets: std::array::from_fn(|j| a.buckets[j].saturating_sub(b.buckets[j])),
                    sum_us: a.sum_us.saturating_sub(b.sum_us),
                    count: a.count.saturating_sub(b.count),
                }
            }),
        }
    }

    /// Accumulate a delta in place (counters and histogram cells add;
    /// gauges take the delta's latest absolute value).
    pub fn accumulate(&mut self, delta: &RegistrySnapshot) {
        for (slot, v) in self.counters.iter_mut().zip(delta.counters.iter()) {
            *slot = slot.saturating_add(*v);
        }
        self.gauges = delta.gauges;
        for (slot, v) in self.hists.iter_mut().zip(delta.hists.iter()) {
            for (b, d) in slot.buckets.iter_mut().zip(v.buckets.iter()) {
                *b = b.saturating_add(*d);
            }
            slot.sum_us = slot.sum_us.saturating_add(v.sum_us);
            slot.count = slot.count.saturating_add(v.count);
        }
    }

    /// Apply a counter/histogram delta to a live registry (the fleet
    /// rollup). Gauges are deliberately untouched: worker gauges are
    /// levels, summed across shards by the caller, not accumulated.
    pub fn apply_to(&self, reg: &Registry) {
        for (i, &v) in self.counters.iter().enumerate() {
            reg.add(Counter::ALL[i], v);
        }
        for (i, h) in self.hists.iter().enumerate() {
            reg.merge_hist(Histogram::ALL[i], h);
        }
    }

    /// The three CSV payload strings of the wire frame:
    /// `(counters, gauges, hists)`. Histograms flatten to
    /// `NUM_BUCKETS + 2` values each (buckets…, sum_us, count).
    fn encode_parts(&self) -> (String, String, String) {
        let csv = |vals: &mut dyn Iterator<Item = u64>| -> String {
            let mut s = String::new();
            for (n, v) in vals.enumerate() {
                if n > 0 {
                    s.push(',');
                }
                s.push_str(&v.to_string());
            }
            s
        };
        let counters = csv(&mut self.counters.iter().copied());
        let gauges = csv(&mut self.gauges.iter().copied());
        let hists = csv(&mut self.hists.iter().flat_map(|h| {
            h.buckets
                .iter()
                .copied()
                .chain([h.sum_us, h.count])
                .collect::<Vec<u64>>()
        }));
        (counters, gauges, hists)
    }

    /// The frame digest over the versioned payload.
    fn digest_parts(counters: &str, gauges: &str, hists: &str) -> u64 {
        let mut h = Fnv::new();
        h.field(SNAPSHOT_VERSION.to_string().as_bytes());
        h.field(counters.as_bytes());
        h.field(gauges.as_bytes());
        h.field(hists.as_bytes());
        h.finish()
    }

    /// Render the snapshot as one line-atomic worker-protocol frame.
    pub fn to_frame(&self) -> String {
        let (counters, gauges, hists) = self.encode_parts();
        let digest = Self::digest_parts(&counters, &gauges, &hists);
        format!(
            "{{\"type\":\"metrics\",\"v\":{SNAPSHOT_VERSION},\"counters\":\"{counters}\",\
             \"gauges\":\"{gauges}\",\"hists\":\"{hists}\",\"digest\":\"{digest:016x}\"}}"
        )
    }

    /// Reassemble a snapshot from a parsed frame's fields, rechecking the
    /// version, the digest, and the series-count shape.
    pub fn from_parts(
        version: u64,
        counters: &str,
        gauges: &str,
        hists: &str,
        digest_hex: &str,
    ) -> Result<RegistrySnapshot, String> {
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot frame version {version}, expected {SNAPSHOT_VERSION}"
            ));
        }
        let expect = Self::digest_parts(counters, gauges, hists);
        let got = u64::from_str_radix(digest_hex, 16).map_err(|e| format!("bad digest: {e}"))?;
        if got != expect {
            return Err(format!(
                "snapshot frame digest mismatch: claims {got:016x}, payload hashes to {expect:016x}"
            ));
        }
        let parse_csv = |s: &str, want: usize, what: &str| -> Result<Vec<u64>, String> {
            let vals: Result<Vec<u64>, _> = if s.is_empty() {
                Ok(Vec::new())
            } else {
                s.split(',').map(|p| p.parse::<u64>()).collect()
            };
            let vals = vals.map_err(|e| format!("bad {what} value: {e}"))?;
            if vals.len() != want {
                return Err(format!("{what}: {} values, expected {want}", vals.len()));
            }
            Ok(vals)
        };
        let counters = parse_csv(counters, Counter::COUNT, "counters")?;
        let gauges = parse_csv(gauges, Gauge::COUNT, "gauges")?;
        const HIST_STRIDE: usize = NUM_BUCKETS + 2;
        let hists = parse_csv(hists, Histogram::COUNT * HIST_STRIDE, "hists")?;
        Ok(RegistrySnapshot {
            counters: std::array::from_fn(|i| counters[i]),
            gauges: std::array::from_fn(|i| gauges[i]),
            hists: std::array::from_fn(|i| {
                let row = &hists[i * HIST_STRIDE..(i + 1) * HIST_STRIDE];
                HistSnapshot {
                    buckets: std::array::from_fn(|j| row[j]),
                    sum_us: row[NUM_BUCKETS],
                    count: row[NUM_BUCKETS + 1],
                }
            }),
        })
    }
}

/// The supervisor's per-shard metric store: one cumulative
/// [`RegistrySnapshot`] per worker shard, accumulated across that shard's
/// spawn generations. This is what the `shard="N"` exposition series and
/// the `wasai stats --fleet` table render from; fleet totals live in the
/// supervisor's own global registry (deltas are applied there too).
#[derive(Debug)]
pub struct FleetStore {
    shards: Mutex<BTreeMap<usize, RegistrySnapshot>>,
}

impl FleetStore {
    /// An empty store (no shards — the in-process fleet's state).
    pub const fn new() -> FleetStore {
        FleetStore {
            shards: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<usize, RegistrySnapshot>> {
        self.shards.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Fold one per-generation delta into shard `id`'s cumulative totals.
    pub fn apply(&self, id: usize, delta: &RegistrySnapshot) {
        self.lock().entry(id).or_default().accumulate(delta);
    }

    /// All shards' cumulative snapshots, in shard-id order.
    pub fn snapshot(&self) -> Vec<(usize, RegistrySnapshot)> {
        self.lock().iter().map(|(&k, v)| (k, v.clone())).collect()
    }

    /// Sum of the latest per-shard values of one gauge (worker gauges are
    /// levels; the fleet level is their sum).
    pub fn gauge_sum(&self, g: Gauge) -> u64 {
        self.lock()
            .values()
            .map(|s| s.gauges[g as usize])
            .fold(0u64, u64::saturating_add)
    }

    /// True when no shard has reported yet (single-process sweeps).
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drop every shard (test isolation and back-to-back sweeps).
    pub fn reset(&self) {
        self.lock().clear();
    }
}

impl Default for FleetStore {
    fn default() -> Self {
        FleetStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RegistrySnapshot {
        let reg = Registry::new();
        reg.enable();
        reg.add(Counter::SeedsExecuted, 123);
        reg.inc(Counter::CampaignsOk);
        reg.gauge_set(Gauge::CampaignsRunning, 2);
        reg.gauge_set(Gauge::HeartbeatOverflow, 1);
        reg.observe_us(Histogram::CampaignWallSeconds, 50);
        reg.observe_us(Histogram::CampaignWallSeconds, 2_000_000);
        RegistrySnapshot::capture(&reg)
    }

    #[test]
    fn frame_round_trips_every_series() {
        let snap = sample();
        let frame = snap.to_frame();
        assert!(
            frame.starts_with("{\"type\":\"metrics\",\"v\":1,"),
            "{frame}"
        );
        assert!(!frame.contains('\n'), "frames must be line-atomic");
        let fields = parse_frame_fields(&frame);
        let parsed = RegistrySnapshot::from_parts(
            fields["v"].parse().unwrap(),
            &fields["counters"],
            &fields["gauges"],
            &fields["hists"],
            &fields["digest"],
        )
        .expect("round trip");
        assert_eq!(parsed, snap);
        assert_eq!(
            parsed.counters[Counter::SeedsExecuted as usize],
            123,
            "counter survives"
        );
        assert_eq!(
            parsed.hists[Histogram::CampaignWallSeconds as usize].sum_us,
            2_000_050,
            "histogram sum survives exactly"
        );
    }

    /// Minimal flat-JSON field splitter for tests (the real protocol parse
    /// lives in wasai-core's telemetry module, which this crate must not
    /// depend on).
    fn parse_frame_fields(frame: &str) -> BTreeMap<String, String> {
        let body = frame
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .expect("object");
        // Split on unquoted commas; CSV payloads live inside quotes.
        let mut out = BTreeMap::new();
        for part in split_top(body) {
            let (k, v) = part.split_once(':').expect("k:v");
            let k = k.trim_matches('"').to_string();
            let v = v.trim_matches('"').to_string();
            out.insert(k, v);
        }
        out
    }

    fn split_top(s: &str) -> Vec<&str> {
        let mut parts = Vec::new();
        let mut depth_quote = false;
        let mut start = 0;
        for (i, c) in s.char_indices() {
            match c {
                '"' => depth_quote = !depth_quote,
                ',' if !depth_quote => {
                    parts.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push(&s[start..]);
        parts
    }

    #[test]
    fn digest_tamper_is_rejected() {
        let snap = sample();
        let (counters, gauges, hists) = snap.encode_parts();
        let digest = RegistrySnapshot::digest_parts(&counters, &gauges, &hists);
        // Flip one counter value without re-hashing: a tampered payload.
        let tampered = counters.replacen("123", "999", 1);
        let err = RegistrySnapshot::from_parts(
            SNAPSHOT_VERSION,
            &tampered,
            &gauges,
            &hists,
            &format!("{digest:016x}"),
        )
        .unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn truncated_payload_is_rejected_not_misread() {
        let snap = sample();
        let (counters, gauges, hists) = snap.encode_parts();
        // A torn write that lost the tail of the histogram payload. The
        // digest no longer matches, so the shape check is never even
        // reached — but verify both layers independently.
        let torn = &hists[..hists.len() / 2];
        let err = RegistrySnapshot::from_parts(
            SNAPSHOT_VERSION,
            &counters,
            &gauges,
            torn,
            &format!(
                "{:016x}",
                RegistrySnapshot::digest_parts(&counters, &gauges, torn)
            ),
        )
        .unwrap_err();
        assert!(
            err.contains("hists"),
            "shape check catches re-hashed truncation: {err}"
        );
        let err2 = RegistrySnapshot::from_parts(
            SNAPSHOT_VERSION,
            &counters,
            &gauges,
            torn,
            &format!(
                "{:016x}",
                RegistrySnapshot::digest_parts(&counters, &gauges, &hists)
            ),
        )
        .unwrap_err();
        assert!(err2.contains("digest mismatch"), "{err2}");
    }

    #[test]
    fn version_skew_is_rejected() {
        let snap = sample();
        let (counters, gauges, hists) = snap.encode_parts();
        let digest = RegistrySnapshot::digest_parts(&counters, &gauges, &hists);
        let err = RegistrySnapshot::from_parts(
            SNAPSHOT_VERSION + 1,
            &counters,
            &gauges,
            &hists,
            &format!("{digest:016x}"),
        )
        .unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn delta_merge_never_double_counts_across_generations() {
        // Generation 1 reports 100 seeds, then 150, then dies. Its
        // replacement starts from zero and reports 30. The correct fleet
        // total is 150 + 30, never 100 + 150 + 30.
        let mut gen1_a = RegistrySnapshot::zero();
        gen1_a.counters[Counter::SeedsExecuted as usize] = 100;
        let mut gen1_b = RegistrySnapshot::zero();
        gen1_b.counters[Counter::SeedsExecuted as usize] = 150;
        let mut gen2 = RegistrySnapshot::zero();
        gen2.counters[Counter::SeedsExecuted as usize] = 30;

        let store = FleetStore::new();
        let mut last = RegistrySnapshot::zero();
        for frame in [gen1_a, gen1_b] {
            store.apply(0, &frame.saturating_delta(&last));
            last = frame;
        }
        // Re-dispatch: the baseline resets with the new generation.
        last = RegistrySnapshot::zero();
        store.apply(0, &gen2.saturating_delta(&last));

        let shards = store.snapshot();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].1.counters[Counter::SeedsExecuted as usize], 180);
    }

    #[test]
    fn gauges_merge_as_levels_and_histograms_as_sums() {
        let store = FleetStore::new();
        let mut a = RegistrySnapshot::zero();
        a.gauges[Gauge::CampaignsRunning as usize] = 3;
        a.gauges[Gauge::HeartbeatOverflow as usize] = 1;
        a.hists[0].buckets[2] = 4;
        a.hists[0].sum_us = 40_000;
        a.hists[0].count = 4;
        let mut b = RegistrySnapshot::zero();
        b.gauges[Gauge::CampaignsRunning as usize] = 2;
        b.hists[0].buckets[2] = 1;
        b.hists[0].sum_us = 9_000;
        b.hists[0].count = 1;
        store.apply(0, &a);
        store.apply(1, &b);
        assert_eq!(store.gauge_sum(Gauge::CampaignsRunning), 5);
        assert_eq!(store.gauge_sum(Gauge::HeartbeatOverflow), 1);
        let shards = store.snapshot();
        assert_eq!(shards[0].1.hists[0].sum_us, 40_000);
        assert_eq!(shards[1].1.hists[0].count, 1);
        // A later frame from shard 0 replaces its gauge level but adds to
        // its histogram cells.
        let mut a2 = RegistrySnapshot::zero();
        a2.gauges[Gauge::CampaignsRunning as usize] = 0;
        a2.hists[0].buckets[2] = 2;
        a2.hists[0].sum_us = 20_000;
        a2.hists[0].count = 2;
        store.apply(0, &a2);
        assert_eq!(store.gauge_sum(Gauge::CampaignsRunning), 2);
        assert_eq!(store.snapshot()[0].1.hists[0].sum_us, 60_000);
    }

    #[test]
    fn apply_to_registry_preserves_histogram_sums() {
        let snap = sample();
        let reg = Registry::new();
        reg.enable();
        snap.apply_to(&reg);
        assert_eq!(reg.counter(Counter::SeedsExecuted), 123);
        let h = reg.histogram(Histogram::CampaignWallSeconds);
        assert_eq!(h.sum_us, 2_000_050);
        assert_eq!(h.count, 2);
        assert_eq!(
            h.buckets,
            snap.hists[Histogram::CampaignWallSeconds as usize].buckets
        );
        assert_eq!(
            reg.gauge(Gauge::CampaignsRunning),
            0,
            "apply_to must not touch gauges"
        );
    }
}
