//! The solver frontend: assert terms, check with a budget, read a model.

use std::collections::HashMap;

use crate::bitblast::BitBlaster;
use crate::deadline::Deadline;
use crate::sat::SatOutcome;
use crate::term::{TermId, TermPool};

/// Resource budget for one `check` (the deterministic analogue of the
/// paper's 3,000 ms per-query cap, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum SAT conflicts before giving up with `Unknown`.
    pub max_conflicts: u64,
    /// Wall-clock watchdog: the SAT search also gives up with `Unknown`
    /// once this deadline passes. [`Deadline::NONE`] (the default) keeps
    /// solving fully deterministic.
    pub deadline: Deadline,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_conflicts: 50_000,
            deadline: Deadline::NONE,
        }
    }
}

impl Budget {
    /// A budget with `max_conflicts` and no wall-clock deadline.
    pub fn conflicts(max_conflicts: u64) -> Self {
        Budget {
            max_conflicts,
            ..Budget::default()
        }
    }
}

/// A satisfying assignment, keyed by pool variable index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<u32, u64>,
}

impl Model {
    /// Value of a variable by pool index (unconstrained variables are 0).
    pub fn value(&self, var: u32) -> u64 {
        self.values.get(&var).copied().unwrap_or(0)
    }

    /// Value of a variable by name.
    pub fn value_by_name(&self, pool: &TermPool, name: &str) -> Option<u64> {
        pool.var_index(name).map(|v| self.value(v))
    }

    /// Dense value vector suitable for [`TermPool::eval`].
    pub fn to_vec(&self, pool: &TermPool) -> Vec<u64> {
        (0..pool.vars().len() as u32)
            .map(|v| self.value(v))
            .collect()
    }

    /// Build a model from explicit per-variable values (the cache's decode
    /// path reconstructs models this way).
    pub(crate) fn from_values(values: HashMap<u32, u64>) -> Model {
        Model { values }
    }

    /// The explicit value map (the cache's encode path reads it).
    pub(crate) fn values(&self) -> &HashMap<u32, u64> {
        &self.values
    }
}

/// Outcome of a `check`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted.
    Unknown,
}

impl SolveResult {
    /// The model, if Sat.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Machine-readable outcome tag: `sat`, `unsat`, or `unknown` (the
    /// spelling telemetry traces use).
    pub fn kind(&self) -> &'static str {
        match self {
            SolveResult::Sat(_) => "sat",
            SolveResult::Unsat => "unsat",
            SolveResult::Unknown => "unknown",
        }
    }
}

/// Statistics from one `check`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// SAT conflicts used.
    pub conflicts: u64,
    /// Unit propagations performed (the virtual clock charges per unit).
    pub propagations: u64,
    /// CNF variables created.
    pub sat_vars: usize,
    /// CNF clauses created.
    pub sat_clauses: usize,
}

/// Preprocess an assertion list: detect constant-false assertions, prune
/// constant-true ones and dedup repeated term ids, preserving first-seen
/// order. Returns `None` when the conjunction is trivially unsat.
///
/// Pruning is CNF-neutral for non-trivial queries (a `BoolConst(true)`
/// assertion adds no gates and its unit clause is satisfied at level 0; a
/// repeated assertion hits the blaster's cache and its unit is already
/// true), so it never changes results or solve statistics — it only lets
/// fully trivial queries skip the blaster entirely.
fn preprocess(pool: &TermPool, assertions: &[TermId]) -> Option<Vec<TermId>> {
    if assertions.iter().any(|&a| pool.as_const(a) == Some(0)) {
        return None;
    }
    let mut seen: std::collections::HashSet<TermId> = std::collections::HashSet::new();
    let mut effective = Vec::with_capacity(assertions.len());
    for &a in assertions {
        if pool.as_const(a) == Some(1) {
            continue;
        }
        if seen.insert(a) {
            effective.push(a);
        }
    }
    Some(effective)
}

/// Check the conjunction of `assertions` under `budget`.
///
/// Each call bit-blasts its (preprocessed) assertion list from scratch,
/// which keeps the solver stateless: the same query always yields the same
/// result and statistics, so [`crate::cache::SolverCache`] can replay a
/// memoized `(result, stats)` pair in place of a solve. Debug builds check
/// every `Sat` model against each assertion with [`TermPool::eval`].
pub fn check(pool: &TermPool, assertions: &[TermId], budget: Budget) -> (SolveResult, SolveStats) {
    // Fast paths: constant-folded assertions never reach the blaster.
    let Some(effective) = preprocess(pool, assertions) else {
        return (SolveResult::Unsat, SolveStats::default());
    };
    if effective.is_empty() {
        return (SolveResult::Sat(Model::default()), SolveStats::default());
    }
    let mut bb = BitBlaster::new(pool);
    for &a in &effective {
        bb.assert_true(a);
    }
    let outcome = bb.sat.solve(budget.max_conflicts, budget.deadline);
    let stats = SolveStats {
        conflicts: bb.sat.conflicts,
        propagations: bb.sat.propagations,
        sat_vars: bb.sat.num_vars(),
        sat_clauses: bb.sat.num_clauses(),
    };
    let result = match outcome {
        SatOutcome::Sat => {
            // Zero values stay implicit ([`Model::value`] defaults to 0), so
            // models are canonical: a memoized model decoded in another pool
            // compares equal to the one a fresh solve would have built.
            let values = (0..pool.vars().len() as u32)
                .map(|v| (v, bb.var_value(v)))
                .filter(|&(_, value)| value != 0)
                .collect();
            let model = Model { values };
            #[cfg(debug_assertions)]
            {
                let dense = model.to_vec(pool);
                for &a in &effective {
                    assert_eq!(pool.eval(a, &dense), 1, "Sat model violates {a:?}");
                }
            }
            SolveResult::Sat(model)
        }
        SatOutcome::Unsat => SolveResult::Unsat,
        SatOutcome::Unknown => SolveResult::Unknown,
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{BvOp, CmpOp};

    #[test]
    fn sat_model_satisfies_all_assertions() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let sum = p.bv(BvOp::Add, x, y);
        let c100 = p.bv_const(100, 32);
        let c30 = p.bv_const(30, 32);
        let a1 = p.eq(sum, c100);
        let a2 = p.cmp(CmpOp::Ult, x, c30);
        let (res, stats) = check(&p, &[a1, a2], Budget::default());
        let model = res.model().expect("sat").to_vec(&p);
        assert_eq!(p.eval(a1, &model), 1);
        assert_eq!(p.eval(a2, &model), 1);
        assert!(stats.sat_vars > 0);
    }

    #[test]
    fn unsat_contradiction() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let c1 = p.bv_const(1, 8);
        let c2 = p.bv_const(2, 8);
        let a1 = p.eq(x, c1);
        let a2 = p.eq(x, c2);
        let (res, _) = check(&p, &[a1, a2], Budget::default());
        assert_eq!(res, SolveResult::Unsat);
    }

    #[test]
    fn folded_false_short_circuits() {
        let mut p = TermPool::new();
        let f = p.bool_const(false);
        let (res, stats) = check(&p, &[f], Budget::default());
        assert_eq!(res, SolveResult::Unsat);
        assert_eq!(stats.sat_vars, 0, "no blasting should happen");
    }

    #[test]
    fn folded_true_short_circuits() {
        // All assertions fold to constant true: Sat with the default model,
        // and — mirroring folded_false_short_circuits — no blasting.
        let mut p = TermPool::new();
        let t = p.bool_const(true);
        let c1 = p.bv_const(7, 32);
        let c2 = p.bv_const(7, 32);
        let folded = p.eq(c1, c2); // folds to BoolConst(true)
        let (res, stats) = check(&p, &[t, folded, t], Budget::default());
        assert_eq!(res, SolveResult::Sat(Model::default()));
        assert_eq!(stats.sat_vars, 0, "no blasting should happen");
        assert_eq!(stats, SolveStats::default());
    }

    #[test]
    fn empty_assertion_list_is_trivially_sat() {
        let p = TermPool::new();
        let (res, stats) = check(&p, &[], Budget::default());
        assert_eq!(res, SolveResult::Sat(Model::default()));
        assert_eq!(stats.sat_vars, 0);
    }

    #[test]
    fn preprocessing_is_result_and_stats_neutral() {
        // Repeating assertions and interleaving constant-true assertions must
        // not change the verdict, the model, or the solve statistics relative
        // to the plain query — the preprocessing contract the reuse layer
        // relies on.
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let sum = p.bv(BvOp::Add, x, y);
        let c100 = p.bv_const(100, 32);
        let c30 = p.bv_const(30, 32);
        let a1 = p.eq(sum, c100);
        let a2 = p.cmp(CmpOp::Ult, x, c30);
        let t = p.bool_const(true);
        let (plain_res, plain_stats) = check(&p, &[a1, a2], Budget::default());
        let (noisy_res, noisy_stats) = check(&p, &[t, a1, a1, t, a2, a2, a1], Budget::default());
        assert_eq!(plain_res, noisy_res);
        assert_eq!(plain_stats, noisy_stats);
    }

    #[test]
    fn tiny_budget_yields_unknown_on_hard_instance() {
        // x² == 3 (mod 2^64) has no solution (squares are 0 or 1 mod 4),
        // but proving that needs far more than one conflict.
        let mut p = TermPool::new();
        let x = p.var("x", 64);
        let prod = p.bv(BvOp::Mul, x, x);
        let c = p.bv_const(3, 64);
        let a = p.eq(prod, c);
        let (res, _) = check(&p, &[a], Budget::conflicts(1));
        assert_eq!(res, SolveResult::Unknown);
    }

    #[test]
    fn expired_deadline_yields_unknown_on_hard_instance() {
        // Same hard instance as above, generous conflict budget, but the
        // wall-clock watchdog has already fired: the search must give up.
        let mut p = TermPool::new();
        let x = p.var("x", 64);
        let prod = p.bv(BvOp::Mul, x, x);
        let c = p.bv_const(3, 64);
        let a = p.eq(prod, c);
        let budget = Budget {
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..Budget::default()
        };
        let (res, _) = check(&p, &[a], budget);
        assert_eq!(res, SolveResult::Unknown);
    }

    /// A replay-shaped flip family whose prefix pins a *bounded* factoring
    /// constraint (`a·b = K, 2 ≤ a,b < 64`): bounding the operands defeats
    /// the modular-wraparound shortcut, so CDCL genuinely searches and
    /// learns non-unit clauses. Returns the path; query `i` asserts
    /// `path[..i] ∧ ¬path[i]`. `salt` randomizes constants (LCG).
    fn hard_family(pool: &mut TermPool, steps: usize, salt: u64) -> Vec<TermId> {
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
        path
    }

    #[test]
    fn hard_family_learns_and_its_models_check() {
        // CDCL learning must keep a correctness test: the family's searches
        // conflict, every model satisfies its query, and a repeated check
        // reproduces the (result, stats) pair the caches replay.
        let mut conflicts = 0u64;
        for salt in 0..16 {
            let mut pool = TermPool::new();
            let path = hard_family(&mut pool, 6, salt);
            for i in 0..path.len() {
                let mut query = path[..i].to_vec();
                query.push(pool.not(path[i]));
                let (res, stats) = check(&pool, &query, Budget::default());
                if let SolveResult::Sat(model) = &res {
                    let values = model.to_vec(&pool);
                    for &a in &query {
                        assert_eq!(pool.eval(a, &values), 1, "salt {salt} flip {i}");
                    }
                }
                assert_eq!(check(&pool, &query, Budget::default()), (res, stats));
                conflicts += stats.conflicts;
            }
        }
        assert!(conflicts > 0, "hard family never reached a conflict");
    }

    #[test]
    fn unconstrained_vars_default_to_zero() {
        let mut p = TermPool::new();
        let _unused = p.var("unused", 32);
        let x = p.var("x", 32);
        let c = p.bv_const(9, 32);
        let a = p.eq(x, c);
        let (res, _) = check(&p, &[a], Budget::default());
        let m = res.model().unwrap();
        assert_eq!(m.value_by_name(&p, "unused"), Some(0));
        assert_eq!(m.value_by_name(&p, "x"), Some(9));
    }
}
