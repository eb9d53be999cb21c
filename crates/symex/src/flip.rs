//! Constraint flipping (§3.4.4).
//!
//! For each conditional state whose *other* side has not been explored yet,
//! assemble `path-prefix ∧ flipped` — "the path to the conditional state
//! must be feasible" ∧ "the jumping condition holds for the opposite
//! branch" — ready to hand to the solver.
//!
//! All queries from one replay share the same path-constraint chain, so the
//! result is a [`FlipSet`]: the chain stored once, plus per-query
//! `(prefix_len, flipped)` pairs. A query's constraint list is materialized
//! only when it reaches the solver ([`FlipQuery::constraints`]).
//!
//! [`FlipSites`] answers the question before any of that work: from the
//! concrete trace alone, could the replay yield a query still worth
//! solving?

use std::collections::{HashMap, HashSet};

use wasai_smt::TermId;
use wasai_vm::{TraceKind, TraceRecord};
use wasai_wasm::instr::Instr;
use wasai_wasm::Module;

use crate::replay::{assert_imports, CondKind, ReplayOutcome, Replayer};

/// A flip target's coverage key: `(func, pc, direction)`.
pub type FlipKey = (u32, u32, u64);

/// Solver attempts a flip target gets before the engine writes it off. A
/// solved model does not guarantee the chased seed reaches the flipped
/// branch, so a target is retried a few times, but not forever.
pub const MAX_FLIP_ATTEMPTS: u32 = 3;

/// The coverage key of flipping the conditional at `site` toward
/// `target_taken`.
///
/// Branches use directions 0/1 (the `taken` flag recorded in traces).
/// Asserts use 2/3 — their own key space — so an assert flip at a site
/// never aliases a branch flip at the same `(func, pc)`: `explored` only
/// ever holds branch keys, and an aliased key would silently suppress
/// whichever query came second.
pub fn flip_key(site: (u32, u32), kind: CondKind, target_taken: bool) -> FlipKey {
    let dir = match kind {
        CondKind::Branch => target_taken as u64,
        CondKind::Assert => 2 + target_taken as u64,
    };
    (site.0, site.1, dir)
}

/// One ready-to-solve flip query: the first `prefix_len` constraints of the
/// owning [`FlipSet`]'s chain, conjoined with `flipped`.
#[derive(Debug, Clone)]
pub struct FlipQuery {
    /// How much of the shared path-constraint chain precedes this
    /// conditional.
    pub prefix_len: usize,
    /// The negated jumping condition.
    pub flipped: TermId,
    /// The branch site being flipped.
    pub site: (u32, u32),
    /// The direction the new seed should take (branches) — `taken` negated.
    pub target_taken: bool,
    /// Branch or assert.
    pub kind: CondKind,
}

impl FlipQuery {
    /// The coverage key this query targets (see [`flip_key`]).
    pub fn target_key(&self) -> FlipKey {
        flip_key(self.site, self.kind, self.target_taken)
    }

    /// Materialize the full constraint list against the owning set's
    /// `prefix`.
    pub fn constraints(&self, prefix: &[TermId]) -> Vec<TermId> {
        let mut out: Vec<TermId> = prefix[..self.prefix_len].to_vec();
        out.push(self.flipped);
        out
    }
}

/// All flip queries from one replay, sharing a single path-constraint chain.
#[derive(Debug, Clone, Default)]
pub struct FlipSet {
    /// The replay's full path-constraint chain; each query uses a prefix of
    /// it. Queries appear in trace order, so their `prefix_len`s are
    /// non-decreasing.
    pub prefix: Vec<TermId>,
    /// The queries, in trace order.
    pub queries: Vec<FlipQuery>,
}

impl FlipSet {
    /// Materialized constraints of `q` (see [`FlipQuery::constraints`]).
    pub fn constraints_of(&self, q: &FlipQuery) -> Vec<TermId> {
        q.constraints(&self.prefix)
    }
}

/// Build flip queries from a replay, skipping targets already in `explored`
/// (branch directions some earlier seed has covered) and deduplicating
/// repeated targets within the run — asserts included: a guard re-checked
/// on every loop iteration yields one query, not one per iteration.
pub fn flip_queries(outcome: &ReplayOutcome, explored: &HashSet<FlipKey>) -> FlipSet {
    let mut seen_this_run: HashSet<FlipKey> = HashSet::new();
    let mut queries = Vec::new();
    for cond in &outcome.conditionals {
        let q = FlipQuery {
            prefix_len: cond.path_len,
            flipped: cond.flipped,
            site: cond.site,
            target_taken: !cond.taken,
            kind: cond.kind,
        };
        let key = q.target_key();
        if explored.contains(&key) || seen_this_run.contains(&key) {
            continue;
        }
        seen_this_run.insert(key);
        queries.push(q);
    }
    FlipSet {
        prefix: outcome.path.clone(),
        queries,
    }
}

/// What an instruction can contribute to a flip target during replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteRole {
    /// Nothing the pre-check needs.
    Other,
    /// `br_if` / `if`: a branch conditional state once its condition is a
    /// term.
    Cond,
    /// A call to an `eosio_assert` import: an assert conditional state when
    /// it fails.
    AssertCall,
    /// A memory store: the replayer tracks the stored bytes, so later loads
    /// of them yield terms.
    Store,
}

/// The instructions of one module at which a replay can open a flip
/// target, tabled once per module so the engine can tell from the
/// *concrete* trace — without replaying it — whether the replay could
/// reach the solver at all ([`FlipSites::has_live_target`]).
#[derive(Debug, Clone, Default)]
pub struct FlipSites {
    first_local: u32,
    /// One role per instruction of each local function, indexed by pc.
    roles: Vec<Box<[SiteRole]>>,
}

impl FlipSites {
    /// Table every local function of `module` (the *original* module, whose
    /// numbering trace sites use).
    pub fn new(module: &Module) -> Self {
        let asserts = assert_imports(module);
        let roles = module
            .funcs
            .iter()
            .map(|f| {
                f.body
                    .iter()
                    .map(|instr| match instr {
                        Instr::BrIf(_) | Instr::If(_) => SiteRole::Cond,
                        Instr::Call(callee) if asserts.contains(callee) => SiteRole::AssertCall,
                        other if other.memory_access().is_some_and(|a| a.is_store) => {
                            SiteRole::Store
                        }
                        _ => SiteRole::Other,
                    })
                    .collect()
            })
            .collect();
        FlipSites {
            first_local: module.num_imported_funcs(),
            roles,
        }
    }

    fn role(&self, func: u32, pc: u32) -> SiteRole {
        func.checked_sub(self.first_local)
            .and_then(|i| self.roles.get(i as usize))
            .and_then(|body| body.get(pc as usize))
            .copied()
            .unwrap_or(SiteRole::Other)
    }

    /// Whether replaying `trace` with inputs at `action_func` could yield a
    /// flip query that is still live: its target not in `explored` and
    /// tried fewer than [`MAX_FLIP_ATTEMPTS`] times per `attempted`.
    ///
    /// `false` is a guarantee: every query [`flip_queries`] would build
    /// from the replay targets an explored or exhausted key. The check
    /// over-approximates what the replayer can turn into a conditional
    /// state:
    ///
    /// - No term exists before the action function first begins (its
    ///   inputs are installed there) or a memory store first runs (stored
    ///   bytes are tracked, so later loads of them are terms). Sites before
    ///   the earlier of the two are ignored; every site after it is assumed
    ///   symbolic.
    /// - A `br_if` / `if` site targets its untaken direction.
    /// - A failing `eosio_assert` call — operand 0 of the `CallPre` record
    ///   that follows the site is 0, or no `CallPre` follows — targets its
    ///   assert key.
    /// - `br_table` and `select` only extend the path constraint.
    pub fn has_live_target(
        &self,
        trace: &[TraceRecord],
        action_func: u32,
        explored: &HashSet<FlipKey>,
        attempted: &HashMap<FlipKey, u32>,
    ) -> bool {
        let live = |key: FlipKey| {
            !explored.contains(&key) && attempted.get(&key).is_none_or(|&n| n < MAX_FLIP_ATTEMPTS)
        };
        let mut terms = false;
        for (i, rec) in trace.iter().enumerate() {
            let (func, pc) = match rec.kind {
                TraceKind::FuncBegin { func } => {
                    terms |= func == action_func;
                    continue;
                }
                TraceKind::Site { func, pc } => (func, pc),
                _ => continue,
            };
            match self.role(func, pc) {
                SiteRole::Store => terms = true,
                SiteRole::Cond if terms => {
                    let taken = Replayer::op_u64(&rec.operands, 0) != 0;
                    if live(flip_key((func, pc), CondKind::Branch, !taken)) {
                        return true;
                    }
                }
                SiteRole::AssertCall if terms => {
                    let passed = match trace.get(i + 1) {
                        Some(next) if matches!(next.kind, TraceKind::CallPre { .. }) => {
                            Replayer::op_u64(&next.operands, 0) != 0
                        }
                        _ => false,
                    };
                    if !passed && live(flip_key((func, pc), CondKind::Assert, true)) {
                        return true;
                    }
                }
                _ => {}
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use wasai_chain::abi::{ParamType, ParamValue};
    use wasai_smt::{CmpOp, TermPool};

    /// A replay with hand-placed conditionals over one `arg0` guard chain.
    fn outcome(
        conds: Vec<ConditionalState>,
        path: Vec<TermId>,
        mut pool: TermPool,
    ) -> ReplayOutcome {
        let spec = InputSpec::build(&mut pool, 7, 1, &[(ParamType::U64, ParamValue::U64(5))]);
        ReplayOutcome {
            pool,
            spec,
            conditionals: conds,
            path,
            branches: HashSet::new(),
            func_chain: vec![7],
            records: 0,
            truncated: false,
        }
    }

    use crate::replay::ConditionalState;

    fn guard(pool: &mut TermPool, k: u64) -> (TermId, TermId) {
        let v = pool.var("g", 64);
        let c = pool.bv_const(k, 64);
        let taken = pool.cmp(CmpOp::Ult, v, c);
        let flipped = pool.not(taken);
        (taken, flipped)
    }

    #[test]
    fn repeated_asserts_dedup_to_one_query() {
        // Regression: the dedup filter used to apply only to
        // `CondKind::Branch`, so an assert re-checked N times (a guard in a
        // loop) produced N identical queries, wasting the per-iteration
        // query budget.
        let mut pool = TermPool::new();
        let (taken, flipped) = guard(&mut pool, 10);
        let cond = |path_len| ConditionalState {
            site: (3, 42),
            taken: false,
            kind: CondKind::Assert,
            flipped,
            path_len,
        };
        let out = outcome(vec![cond(0), cond(1), cond(2)], vec![taken, taken], pool);
        let set = flip_queries(&out, &HashSet::new());
        assert_eq!(set.queries.len(), 1, "identical assert targets must dedup");
        assert_eq!(set.queries[0].prefix_len, 0, "first occurrence wins");
    }

    #[test]
    fn assert_keys_do_not_alias_branch_keys() {
        // An assert and a branch at the same (func, pc) flipping the same
        // direction must both survive: asserts live in key space 2/3.
        let mut pool = TermPool::new();
        let (taken, flipped) = guard(&mut pool, 10);
        let branch = ConditionalState {
            site: (3, 42),
            taken: false,
            kind: CondKind::Branch,
            flipped,
            path_len: 0,
        };
        let assert_ = ConditionalState {
            site: (3, 42),
            taken: false,
            kind: CondKind::Assert,
            flipped,
            path_len: 1,
        };
        let out = outcome(vec![branch, assert_], vec![taken], pool);
        let set = flip_queries(&out, &HashSet::new());
        assert_eq!(set.queries.len(), 2);
        let k_branch = set.queries[0].target_key();
        let k_assert = set.queries[1].target_key();
        assert_ne!(k_branch, k_assert);
        assert_eq!(k_branch, (3, 42, 1));
        assert_eq!(k_assert, (3, 42, 3));

        // `explored` holding the branch key must not suppress the assert.
        let explored: HashSet<_> = [k_branch].into_iter().collect();
        let set = flip_queries(&out, &explored);
        assert_eq!(set.queries.len(), 1);
        assert_eq!(set.queries[0].kind, CondKind::Assert);
    }

    #[test]
    fn constraints_materialize_prefix_plus_flip() {
        let mut pool = TermPool::new();
        let (taken, flipped) = guard(&mut pool, 10);
        let cond = ConditionalState {
            site: (1, 2),
            taken: true,
            kind: CondKind::Branch,
            flipped,
            path_len: 2,
        };
        let out = outcome(vec![cond], vec![taken, taken, taken], pool);
        let set = flip_queries(&out, &HashSet::new());
        let q = &set.queries[0];
        assert_eq!(set.constraints_of(q), vec![taken, taken, flipped]);
        assert_eq!(q.constraints(&set.prefix), vec![taken, taken, flipped]);
    }
}
