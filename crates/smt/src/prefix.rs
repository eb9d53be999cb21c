//! Shared-prefix incremental solving for flip-query families.
//!
//! WASAI's adaptive-seed loop (§3.4.4) flips the conditionals of one trace
//! in execution order, so the i-th query asserts `path[..nᵢ] ∧ flipᵢ` with
//! nondecreasing `nᵢ`: every query's prefix extends the previous one. A
//! [`PrefixSolver`] blasts that chain of path constraints *once* into a
//! shared [`BitBlaster`]/SAT instance, and answers each query by forking
//! the instance ([`Clone`]) and adding only the flipped condition — N flips
//! of one trace cost one prefix blast instead of N.
//!
//! # Why determinism survives
//!
//! The fork inherits exactly the clause database, trail, counters and gate
//! caches that a from-scratch [`check`] of `path[..nᵢ]` would have built
//! (same assertion order, same preprocessing, hash-consed term identity),
//! so extending it with `flipᵢ` and solving yields bit-identical results
//! *and* [`SolveStats`] — the reuse layer is observationally invisible, and
//! campaign reports stay byte-identical whether it is on or off. What is
//! saved is real work: the prefix's unit propagations and Tseitin gate
//! construction happen once; [`PrefixSolver::performed_propagations`]
//! counts only the propagations actually executed, which
//! `tests::fork_path_saves_propagations` compares against the from-scratch
//! total.
//!
//! The fork path is the only query mode. Any mode that changes
//! [`SolveStats`] — assumption-based solving on a persistent instance,
//! learnt clauses carried between forks — changes what the virtual clock
//! charges, and with it campaign trajectories and reports.

use std::collections::HashSet;

use crate::bitblast::BitBlaster;
use crate::solver::{result_of, stats_of, Budget, Model, SolveResult, SolveStats};
use crate::term::{TermId, TermPool};

/// A solver session over one replay's path-constraint chain.
pub struct PrefixSolver<'p> {
    pool: &'p TermPool,
    bb: BitBlaster<'p>,
    /// Raw prefix items consumed so far (slices passed to later calls must
    /// extend the earlier ones — debug-asserted).
    #[cfg(debug_assertions)]
    raw: Vec<TermId>,
    raw_seen: usize,
    /// Effective (post-preprocessing) constraints asserted into `bb`.
    asserted: usize,
    seen: HashSet<TermId>,
    /// Raw index of the first constant-false prefix item, if one was seen:
    /// every query whose prefix reaches it is unsat without touching `bb`.
    false_at: Option<usize>,
    started: bool,
    forks: u64,
    work_props: u64,
}

impl<'p> PrefixSolver<'p> {
    /// A fresh session over `pool`.
    pub fn new(pool: &'p TermPool) -> Self {
        PrefixSolver {
            pool,
            bb: BitBlaster::new(pool),
            #[cfg(debug_assertions)]
            raw: Vec::new(),
            raw_seen: 0,
            asserted: 0,
            seen: HashSet::new(),
            false_at: None,
            started: false,
            forks: 0,
            work_props: 0,
        }
    }

    /// True once the session has consumed any prefix or answered any query —
    /// the "this query extends an existing instance" telemetry signal.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Queries answered by forking the shared instance.
    pub fn forks(&self) -> u64 {
        self.forks
    }

    /// Unit propagations actually executed by this session (shared prefix
    /// propagation counted once, plus each fork's own work) — the honest
    /// cost, as opposed to the per-query [`SolveStats::propagations`] which
    /// deliberately report the from-scratch-equivalent figure.
    pub fn performed_propagations(&self) -> u64 {
        self.work_props
    }

    /// Enforce the nondecreasing-prefix contract. The length comparison is
    /// always on — a shorter prefix would silently inherit stale asserted
    /// constraints from the longer one, corrupting answers rather than
    /// crashing, so it must fail loudly in release builds too. The
    /// element-wise comparison (contents actually extend) is debug-only.
    fn check_extends(&self, prefix: &[TermId]) {
        assert!(
            prefix.len() >= self.raw_seen,
            "prefix slices must extend previously seen ones \
             (got {} items after consuming {})",
            prefix.len(),
            self.raw_seen
        );
        #[cfg(debug_assertions)]
        assert!(
            prefix[..self.raw_seen] == self.raw[..],
            "prefix slices must extend previously seen ones \
             (same length, diverging contents)"
        );
    }

    /// Scan for a constant-false item in `prefix ∧ delta` (the from-scratch
    /// fast path), latching the earliest prefix position seen.
    fn trivially_false(&mut self, prefix: &[TermId], delta: Option<TermId>) -> bool {
        if let Some(p) = self.false_at {
            if prefix.len() > p {
                return true;
            }
        }
        for (i, &c) in prefix.iter().enumerate().skip(self.raw_seen) {
            if self.pool.as_const(c) == Some(0) {
                let earliest = self.false_at.map_or(i, |p| p.min(i));
                self.false_at = Some(earliest);
                return true;
            }
        }
        delta.is_some_and(|d| self.pool.as_const(d) == Some(0))
    }

    /// Blast any not-yet-consumed part of `prefix` into the shared instance
    /// (trivial and repeated constraints are skipped, mirroring
    /// [`check`](crate::solver::check)'s preprocessing). Used directly when
    /// a fleet-cache hit skips the solve but the session must keep pace.
    pub fn advance(&mut self, prefix: &[TermId]) {
        self.check_extends(prefix);
        if self.trivially_false(prefix, None) {
            return;
        }
        self.started = true;
        let before = self.bb.sat.propagations;
        for &c in &prefix[self.raw_seen..] {
            #[cfg(debug_assertions)]
            self.raw.push(c);
            if self.pool.as_const(c) == Some(1) {
                continue;
            }
            if self.seen.insert(c) {
                self.bb.assert_true(c);
                self.asserted += 1;
            }
        }
        self.raw_seen = prefix.len();
        self.work_props += self.bb.sat.propagations - before;
    }

    /// Solve `prefix ∧ delta` under `budget`, bit-identically (result and
    /// statistics) to `check(pool, prefix + [delta], budget)`.
    pub fn solve(
        &mut self,
        prefix: &[TermId],
        delta: TermId,
        budget: Budget,
    ) -> (SolveResult, SolveStats) {
        if self.trivially_false(prefix, Some(delta)) {
            return (SolveResult::Unsat, SolveStats::default());
        }
        self.advance(prefix);
        let delta_dropped = self.pool.as_const(delta) == Some(1) || self.seen.contains(&delta);
        if self.asserted == 0 && delta_dropped {
            return (SolveResult::Sat(Model::default()), SolveStats::default());
        }
        // Fork the shared prefix instance and extend with just the flip.
        let base_props = self.bb.sat.propagations;
        let mut fork = self.bb.clone();
        self.forks += 1;
        wasai_obs::inc(wasai_obs::Counter::PrefixForks);
        if !delta_dropped {
            fork.assert_true(delta);
        }
        let outcome = fork.sat.solve(budget.max_conflicts, budget.deadline);
        self.work_props += fork.sat.propagations - base_props;
        let stats = stats_of(&fork);
        (result_of(self.pool, &fork, outcome), stats)
    }
}

impl std::fmt::Debug for PrefixSolver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixSolver")
            .field("raw_seen", &self.raw_seen)
            .field("asserted", &self.asserted)
            .field("forks", &self.forks)
            .field("work_props", &self.work_props)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::check;
    use crate::term::{BvOp, CmpOp};

    /// Build a replay-like family: a chain of path guards over `arg` vars
    /// plus one flip per step, nondecreasing prefixes. The `salt` index
    /// randomizes constants (deterministic LCG).
    fn flip_family(pool: &mut TermPool, steps: usize, salt: u64) -> (Vec<TermId>, Vec<TermId>) {
        let mut rng = salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let a = pool.var("arg0", 64);
        let b = pool.var("arg1", 64);
        let mut path = Vec::new();
        let mut flips = Vec::new();
        for i in 0..steps {
            let k = pool.bv_const(next() % 1000 + 1, 64);
            let guard = match i % 3 {
                0 => pool.cmp(CmpOp::Ult, a, k),
                1 => {
                    let s = pool.bv(BvOp::Add, a, b);
                    pool.cmp(CmpOp::Ule, s, k)
                }
                _ => {
                    let x = pool.bv(BvOp::Xor, a, b);
                    let z = pool.bv_const(next() % 7, 64);
                    pool.cmp(CmpOp::Ule, z, x)
                }
            };
            path.push(guard);
            flips.push(pool.not(guard));
        }
        (path, flips)
    }

    /// A flip family whose prefix pins a *bounded* factoring constraint
    /// (`a·b = K, 2 ≤ a,b < 64`): bounding the operands defeats the
    /// modular-wraparound shortcut, so CDCL genuinely searches and learns
    /// non-unit clauses — unlike the BCP-trivial [`flip_family`].
    fn hard_family(pool: &mut TermPool, steps: usize, salt: u64) -> (Vec<TermId>, Vec<TermId>) {
        let mut rng = salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let a = pool.var("arg0", 12);
        let b = pool.var("arg1", 12);
        let product = pool.bv(BvOp::Mul, a, b);
        let k = pool.bv_const((next() % 50 + 13) * (next() % 40 + 11), 12);
        let lim = pool.bv_const(64, 12);
        let two = pool.bv_const(2, 12);
        let mut path = vec![
            pool.eq(product, k),
            pool.cmp(CmpOp::Ult, a, lim),
            pool.cmp(CmpOp::Ult, b, lim),
            pool.cmp(CmpOp::Ule, two, a),
            pool.cmp(CmpOp::Ule, two, b),
        ];
        for i in 0..steps {
            let k = pool.bv_const(next() % 60 + 2, 12);
            let guard = if i % 2 == 0 {
                pool.cmp(CmpOp::Ult, a, k)
            } else {
                let x = pool.bv(BvOp::Xor, a, b);
                pool.cmp(CmpOp::Ule, x, k)
            };
            path.push(guard);
        }
        let flips = path.iter().map(|&g| pool.not(g)).collect();
        (path, flips)
    }

    type Family = fn(&mut TermPool, usize, u64) -> (Vec<TermId>, Vec<TermId>);

    /// Both families, so the check covers BCP-trivial forks and forks whose
    /// search genuinely conflicts and learns clauses.
    #[test]
    fn fork_path_is_bit_identical_to_from_scratch() {
        let families: [(&str, Family, usize, u64); 2] =
            [("flip", flip_family, 12, 4), ("hard", hard_family, 6, 16)];
        for (name, family, steps, salts) in families {
            let mut conflicts = 0u64;
            for salt in 0..salts {
                let mut pool = TermPool::new();
                let (path, flips) = family(&mut pool, steps, salt);
                let mut session = PrefixSolver::new(&pool);
                for (i, &flip) in flips.iter().enumerate() {
                    let mut scratch: Vec<TermId> = path[..i].to_vec();
                    scratch.push(flip);
                    let (want_res, want_stats) = check(&pool, &scratch, Budget::default());
                    let (got_res, got_stats) = session.solve(&path[..i], flip, Budget::default());
                    assert_eq!(
                        want_res, got_res,
                        "{name} salt {salt} flip {i}: result diverged"
                    );
                    assert_eq!(
                        want_stats, got_stats,
                        "{name} salt {salt} flip {i}: stats diverged"
                    );
                    conflicts += got_stats.conflicts;
                }
            }
            if name == "hard" {
                assert!(conflicts > 0, "hard family never reached a conflict");
            }
        }
    }

    #[test]
    fn fork_path_saves_propagations() {
        // Eight replay-shaped families of sixteen queries each: the shared
        // prefix must at least halve the from-scratch propagation work.
        let mut scratch = 0u64;
        let mut reused = 0u64;
        for salt in 0..8 {
            let mut pool = TermPool::new();
            let (path, flips) = flip_family(&mut pool, 16, salt);
            for (i, &flip) in flips.iter().enumerate() {
                let mut q: Vec<TermId> = path[..i].to_vec();
                q.push(flip);
                let (_, stats) = check(&pool, &q, Budget::default());
                scratch += stats.propagations;
            }
            let mut session = PrefixSolver::new(&pool);
            for (i, &flip) in flips.iter().enumerate() {
                session.solve(&path[..i], flip, Budget::default());
            }
            reused += session.performed_propagations();
        }
        assert!(
            reused * 2 <= scratch,
            "shared prefix must at least halve propagation work: {reused} vs {scratch}"
        );
    }

    #[test]
    #[should_panic(expected = "extend previously seen")]
    fn shrinking_prefix_fails_loudly() {
        // The nondecreasing-prefix contract must hold in release builds
        // too: a shorter prefix would silently reuse stale constraints
        // asserted for the longer one.
        let mut pool = TermPool::new();
        let (path, flips) = flip_family(&mut pool, 3, 1);
        let mut session = PrefixSolver::new(&pool);
        session.solve(&path[..2], flips[2], Budget::default());
        session.solve(&path[..1], flips[1], Budget::default());
    }

    #[test]
    fn trivial_prefix_queries_match_check_fast_paths() {
        let mut pool = TermPool::new();
        let t = pool.bool_const(true);
        let f = pool.bool_const(false);
        let x = pool.var("x", 8);
        let c = pool.bv_const(3, 8);
        let real = pool.eq(x, c);

        let mut session = PrefixSolver::new(&pool);
        // All-trivial query: Sat, default model, no blasting.
        let (res, stats) = session.solve(&[t], t, Budget::default());
        assert_eq!(res, SolveResult::Sat(Model::default()));
        assert_eq!(stats, SolveStats::default());
        // Constant-false delta: Unsat without touching the shared instance.
        let (res, stats) = session.solve(&[t], f, Budget::default());
        assert_eq!(res, SolveResult::Unsat);
        assert_eq!(stats, SolveStats::default());
        // The session still answers real queries afterwards.
        let (res, _) = session.solve(&[t, real], real, Budget::default());
        assert!(matches!(res, SolveResult::Sat(_)));
        // A constant-false in the prefix poisons longer prefixes only.
        let (res, _) = session.solve(&[t, real, f], real, Budget::default());
        assert_eq!(res, SolveResult::Unsat);
    }
}
