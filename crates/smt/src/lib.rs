#![warn(missing_docs)]

//! # wasai-smt — a self-contained QF_BV solver (the Z3 substitute)
//!
//! The paper's Symback uses Z3 4.8.6 to solve flipped branch constraints
//! (§3.4.4). The native Z3 library is not part of this workspace's sanctioned
//! dependency set, so this crate implements the fragment WASAI actually
//! needs, from scratch:
//!
//! - [`term`]: a hash-consed, constant-folding bitvector term DAG
//!   (widths 1–64 — every Wasm value; the 128-bit `asset` struct is two
//!   64-bit memory words);
//! - [`bitblast`]: Tseitin lowering to CNF — ripple-carry adders, shift-add
//!   multipliers, restoring dividers, barrel shifters and a popcount adder
//!   tree (the obfuscator's primitive, §4.3);
//! - [`sat`]: a CDCL SAT solver (two-watched literals, 1UIP learning,
//!   VSIDS activities, phase saving, restarts);
//! - [`solver`]: the assert/check/model frontend with the deterministic
//!   resource budget that replaces the paper's 3,000 ms cap;
//! - [`canon`] / [`cache`]: the reuse layer — pool-independent canonical
//!   query keys and a fleet-shared memo cache that replays the exact
//!   `(result, stats)` a from-scratch [`check`] produces.
//! - [`persist`]: journal-grade on-disk warm-start persistence for the
//!   fleet cache.
//!
//! The byte-array role Z3 plays in the paper (its `Store`/`Select` memory
//! model, §3.4.1) is implemented in `wasai-symex` directly: WASAI's memory
//! model keys cells by *concrete* trace addresses, so the solver only ever
//! sees plain bitvector constraints plus fresh variables for symbolic-load
//! objects ⟨a, s⟩.
//!
//! # Examples
//!
//! Solve the Fake-EOS-guard shape — "what `code` makes this branch flip?":
//!
//! ```
//! use wasai_smt::{TermPool, Budget, check, SolveResult};
//!
//! let mut pool = TermPool::new();
//! let code = pool.var("code", 64);
//! let token = pool.bv_const(0x5530ea033482a600, 64); // N(eosio.token)
//! let guard = pool.eq(code, token);
//! let (result, _stats) = check(&pool, &[guard], Budget::default());
//! match result {
//!     SolveResult::Sat(model) => {
//!         assert_eq!(model.value_by_name(&pool, "code"), Some(0x5530ea033482a600));
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

pub mod bitblast;
pub mod cache;
pub mod canon;
pub mod deadline;
pub mod persist;
pub mod sat;
pub mod solver;
pub mod term;

pub use cache::{cacheable, CachedQuery, SolverCache};
pub use canon::{query_key, QueryKey, CANON_VERSION};
pub use deadline::Deadline;
pub use solver::{check, Budget, Model, SolveResult, SolveStats};
pub use term::{BvOp, CmpOp, Sort, TermId, TermKind, TermPool};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = BvOp> {
        prop_oneof![
            Just(BvOp::Add),
            Just(BvOp::Sub),
            Just(BvOp::Mul),
            Just(BvOp::UDiv),
            Just(BvOp::URem),
            Just(BvOp::SDiv),
            Just(BvOp::SRem),
            Just(BvOp::And),
            Just(BvOp::Or),
            Just(BvOp::Xor),
            Just(BvOp::Shl),
            Just(BvOp::LShr),
            Just(BvOp::AShr),
            Just(BvOp::Rotl),
            Just(BvOp::Rotr),
        ]
    }

    fn arb_cmp() -> impl Strategy<Value = CmpOp> {
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ult),
            Just(CmpOp::Ule),
            Just(CmpOp::Slt),
            Just(CmpOp::Sle),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `check` is complete on narrow widths: over two variables of 1 to
        /// 4 bits, a conjunction of random comparisons of random bit-ops is
        /// Sat exactly when brute-force enumeration finds a witness.
        #[test]
        fn check_agrees_with_enumeration(
            w in 1u32..5,
            ops in (arb_op(), arb_op()),
            cmps in (arb_cmp(), arb_cmp()),
            consts in (any::<u64>(), any::<u64>()),
            negate in any::<bool>(),
        ) {
            let mut p = TermPool::new();
            let x = p.var("x", w);
            let y = p.var("y", w);
            let c0 = p.bv_const(consts.0, w);
            let c1 = p.bv_const(consts.1, w);
            let lhs0 = p.bv(ops.0, x, y);
            let lhs1 = p.bv(ops.1, y, x);
            let a0 = p.cmp(cmps.0, lhs0, c0);
            let a1 = p.cmp(cmps.1, lhs1, c1);
            let a1 = if negate { p.not(a1) } else { a1 };
            let (res, _) = check(&p, &[a0, a1], Budget::default());
            let witness = (0..1u64 << w)
                .flat_map(|xv| (0..1u64 << w).map(move |yv| [xv, yv]))
                .find(|v| p.eval(a0, v) == 1 && p.eval(a1, v) == 1);
            prop_assert_eq!(matches!(res, SolveResult::Sat(_)), witness.is_some(),
                "w {} ops {:?} cmps {:?} consts {:?} negate {}", w, ops, cmps, consts, negate);
        }

        /// The bit-blaster and the term evaluator must agree: for random op
        /// and constants x, y, asserting `op(X, Y) == eval(op, x, y) ∧ X == x
        /// ∧ Y == y` is satisfiable.
        #[test]
        fn bitblast_agrees_with_eval(op in arb_op(), x: u64, y: u64) {
            let w = 16;
            let (x, y) = (x & 0xffff, y & 0xffff);
            let mut p = TermPool::new();
            let vx = p.var("x", w);
            let vy = p.var("y", w);
            let cx = p.bv_const(x, w);
            let cy = p.bv_const(y, w);
            let sym = p.bv(op, vx, vy);
            let expected = {
                let folded = p.bv(op, cx, cy);
                p.as_const(folded).expect("constants fold")
            };
            let cexp = p.bv_const(expected, w);
            let a1 = p.eq(vx, cx);
            let a2 = p.eq(vy, cy);
            let a3 = p.eq(sym, cexp);
            let (res, _) = check(&p, &[a1, a2, a3], Budget::default());
            prop_assert!(matches!(res, SolveResult::Sat(_)),
                "op {:?} with x={:#x} y={:#x} expected {:#x}", op, x, y, expected);
        }

        /// Conversely, forcing the op result to differ from the true value
        /// while pinning both operands must be Unsat.
        #[test]
        fn bitblast_rejects_wrong_results(op in arb_op(), x: u64, y: u64) {
            let w = 8;
            let (x, y) = (x & 0xff, y & 0xff);
            let mut p = TermPool::new();
            let vx = p.var("x", w);
            let vy = p.var("y", w);
            let cx = p.bv_const(x, w);
            let cy = p.bv_const(y, w);
            let sym = p.bv(op, vx, vy);
            let expected = {
                let folded = p.bv(op, cx, cy);
                p.as_const(folded).expect("constants fold")
            };
            let wrong = p.bv_const(expected ^ 1, w);
            let a1 = p.eq(vx, cx);
            let a2 = p.eq(vy, cy);
            let a3 = p.eq(sym, wrong);
            let (res, _) = check(&p, &[a1, a2, a3], Budget::default());
            prop_assert_eq!(res, SolveResult::Unsat);
        }

        /// Any model returned for a random comparison constraint actually
        /// satisfies it under `eval`.
        #[test]
        fn models_validate_under_eval(c: u64, ult in any::<bool>()) {
            let w = 32;
            let c = c & 0xffff_ffff;
            let mut p = TermPool::new();
            let x = p.var("x", w);
            let cc = p.bv_const(c, w);
            let a = if ult { p.cmp(CmpOp::Ult, x, cc) } else { p.cmp(CmpOp::Slt, cc, x) };
            let (res, _) = check(&p, &[a], Budget::default());
            if let SolveResult::Sat(m) = res {
                let vals = m.to_vec(&p);
                prop_assert_eq!(p.eval(a, &vals), 1);
            }
        }
    }
}
