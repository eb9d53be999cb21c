//! Bit-blasting of bitvector terms to CNF (Tseitin encoding).
//!
//! Every [`TermId`] lowers to either a single SAT literal (Bool sort) or a
//! little-endian vector of literals (BitVec sort). Arithmetic uses
//! ripple-carry adders, shift-add multipliers, restoring dividers and barrel
//! shifters; `popcnt` (the obfuscator's primitive, §4.3) lowers to an adder
//! tree, which is what lets WASAI solve popcount-encoded guards where
//! EOSAFE's pattern matching goes blind (Table 5).

use std::collections::HashMap;

use crate::sat::{Lit, SatSolver};
use crate::term::{BvOp, CmpOp, Sort, TermId, TermKind, TermPool};

/// Lowers a term DAG into a [`SatSolver`].
#[derive(Debug)]
pub struct BitBlaster<'p> {
    pool: &'p TermPool,
    /// The SAT instance being built.
    pub sat: SatSolver,
    bool_cache: HashMap<TermId, Lit>,
    bv_cache: HashMap<TermId, Vec<Lit>>,
    var_bits: HashMap<u32, Vec<Lit>>,
    lit_true: Lit,
}

impl<'p> BitBlaster<'p> {
    /// A new blaster over a pool.
    pub fn new(pool: &'p TermPool) -> Self {
        let mut sat = SatSolver::new();
        let t = Lit::pos(sat.new_var());
        sat.add_clause(&[t]);
        BitBlaster {
            pool,
            sat,
            bool_cache: HashMap::new(),
            bv_cache: HashMap::new(),
            var_bits: HashMap::new(),
            lit_true: t,
        }
    }

    /// The always-true literal.
    pub fn lit_true(&self) -> Lit {
        self.lit_true
    }

    /// The always-false literal.
    pub fn lit_false(&self) -> Lit {
        self.lit_true.negate()
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.lit_true
        } else {
            self.lit_false()
        }
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    /// `c = a ∧ b`.
    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_true {
            return b;
        }
        if b == self.lit_true {
            return a;
        }
        if a == self.lit_false() || b == self.lit_false() {
            return self.lit_false();
        }
        if a == b {
            return a;
        }
        if a == b.negate() {
            return self.lit_false();
        }
        let c = self.fresh();
        self.sat.add_clause(&[a.negate(), b.negate(), c]);
        self.sat.add_clause(&[a, c.negate()]);
        self.sat.add_clause(&[b, c.negate()]);
        c
    }

    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.and_gate(a.negate(), b.negate()).negate()
    }

    /// `c = a ⊕ b`.
    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_true {
            return b.negate();
        }
        if b == self.lit_true {
            return a.negate();
        }
        if a == self.lit_false() {
            return b;
        }
        if b == self.lit_false() {
            return a;
        }
        if a == b {
            return self.lit_false();
        }
        if a == b.negate() {
            return self.lit_true;
        }
        let c = self.fresh();
        self.sat.add_clause(&[a.negate(), b.negate(), c.negate()]);
        self.sat.add_clause(&[a, b, c.negate()]);
        self.sat.add_clause(&[a.negate(), b, c]);
        self.sat.add_clause(&[a, b.negate(), c]);
        c
    }

    /// `c = if s then a else b`.
    fn mux_gate(&mut self, s: Lit, a: Lit, b: Lit) -> Lit {
        if s == self.lit_true {
            return a;
        }
        if s == self.lit_false() {
            return b;
        }
        if a == b {
            return a;
        }
        let sa = self.and_gate(s, a);
        let nsb = self.and_gate(s.negate(), b);
        self.or_gate(sa, nsb)
    }

    fn mux_vec(&mut self, s: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux_gate(s, x, y))
            .collect()
    }

    /// Full adder over vectors, returning (sum, carry-out).
    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor_gate(x, y);
            sum.push(self.xor_gate(xy, carry));
            let maj1 = self.and_gate(x, y);
            let maj2 = self.and_gate(xy, carry);
            carry = self.or_gate(maj1, maj2);
        }
        (sum, carry)
    }

    fn neg_vec(&mut self, a: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = a.iter().map(|l| l.negate()).collect();
        let zero: Vec<Lit> = vec![self.lit_false(); a.len()];
        let (sum, _) = self.adder(&inv, &zero, self.lit_true);
        sum
    }

    fn sub_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
        let (sum, _) = self.adder(a, &inv, self.lit_true);
        sum
    }

    /// `a >= b` (unsigned): carry-out of a + ¬b + 1.
    fn uge_gate(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let inv: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
        let (_, carry) = self.adder(a, &inv, self.lit_true);
        carry
    }

    fn eq_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.lit_true;
        for (&x, &y) in a.iter().zip(b) {
            let same = self.xor_gate(x, y).negate();
            acc = self.and_gate(acc, same);
        }
        acc
    }

    fn mul_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc: Vec<Lit> = vec![self.lit_false(); w];
        for (i, &bit) in b.iter().enumerate() {
            // partial = (a << i) & bit
            let mut partial: Vec<Lit> = vec![self.lit_false(); w];
            for j in i..w {
                partial[j] = self.and_gate(a[j - i], bit);
            }
            let (sum, _) = self.adder(&acc, &partial, self.lit_false());
            acc = sum;
        }
        acc
    }

    /// Restoring division: returns (quotient, remainder). Division by zero
    /// follows SMT-LIB: q = all-ones, r = a.
    fn udivrem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let mut rem: Vec<Lit> = vec![self.lit_false(); w];
        let mut quo: Vec<Lit> = vec![self.lit_false(); w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            rem.rotate_right(1);
            rem[0] = a[i];
            let ge = self.uge_gate(&rem, b);
            let sub = self.sub_vec(&rem, b);
            rem = self.mux_vec(ge, &sub, &rem);
            quo[i] = ge;
        }
        // b == 0 fixup.
        let zero: Vec<Lit> = vec![self.lit_false(); w];
        let b_zero = self.eq_vec(b, &zero);
        let ones: Vec<Lit> = vec![self.lit_true; w];
        let quo = self.mux_vec(b_zero, &ones, &quo);
        let rem = self.mux_vec(b_zero, a, &rem);
        (quo, rem)
    }

    /// The shift amount reduced modulo the width `w` (Wasm and `eval`
    /// semantics), and the number of barrel stages it needs. For a
    /// power-of-two width the reduction is the low `log2 w` bits; any other
    /// width goes through the divider and needs ⌈log2 w⌉ stages.
    fn shift_amount(&mut self, amount: &[Lit]) -> (Vec<Lit>, usize) {
        let w = amount.len();
        if w.is_power_of_two() {
            return (amount.to_vec(), w.trailing_zeros() as usize);
        }
        let modulus: Vec<Lit> = (0..w).map(|i| self.const_lit(w >> i & 1 == 1)).collect();
        let (_, rem) = self.udivrem(amount, &modulus);
        (rem, (usize::BITS - (w - 1).leading_zeros()) as usize)
    }

    /// Barrel shifter. `left = true` for shl; `arith` for ashr. The shift
    /// amount is reduced modulo the width (Wasm semantics).
    #[allow(clippy::needless_range_loop)] // index math is clearer than iterators here
    fn shift(&mut self, a: &[Lit], amount: &[Lit], left: bool, arith: bool) -> Vec<Lit> {
        let w = a.len();
        let (amount, stages) = self.shift_amount(amount);
        let fill = if arith { a[w - 1] } else { self.lit_false() };
        let mut cur: Vec<Lit> = a.to_vec();
        for k in 0..stages {
            let s = amount[k];
            let dist = 1usize << k;
            let mut shifted = vec![fill; w];
            for j in 0..w {
                if left {
                    if j >= dist {
                        shifted[j] = cur[j - dist];
                    } else {
                        shifted[j] = self.lit_false();
                    }
                } else if j + dist < w {
                    shifted[j] = cur[j + dist];
                }
            }
            cur = self.mux_vec(s, &shifted, &cur);
        }
        cur
    }

    #[allow(clippy::needless_range_loop)] // index math is clearer than iterators here
    fn rotate(&mut self, a: &[Lit], amount: &[Lit], left: bool) -> Vec<Lit> {
        let w = a.len();
        let (amount, stages) = self.shift_amount(amount);
        let mut cur: Vec<Lit> = a.to_vec();
        for k in 0..stages {
            let s = amount[k];
            let dist = 1usize << k;
            let mut rotated = vec![self.lit_false(); w];
            for j in 0..w {
                let src = if left {
                    (j + w - dist) % w
                } else {
                    (j + dist) % w
                };
                rotated[j] = cur[src];
            }
            cur = self.mux_vec(s, &rotated, &cur);
        }
        cur
    }

    /// Adder tree for population count, zero-extended to the operand width.
    fn popcnt_vec(&mut self, a: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        // Sum bits as width-w vectors (cheap enough at w ≤ 64 and simple).
        let mut acc: Vec<Lit> = vec![self.lit_false(); w];
        for &bit in a {
            let mut addend = vec![self.lit_false(); w];
            addend[0] = bit;
            let (sum, _) = self.adder(&acc, &addend, self.lit_false());
            acc = sum;
        }
        acc
    }

    /// Lower a Bool-sorted term to a literal.
    pub fn blast_bool(&mut self, t: TermId) -> Lit {
        if let Some(&l) = self.bool_cache.get(&t) {
            return l;
        }
        debug_assert_eq!(self.pool.sort(t), Sort::Bool);
        let l = match *self.pool.kind(t) {
            TermKind::BoolConst(b) => self.const_lit(b),
            TermKind::Not(x) => self.blast_bool(x).negate(),
            TermKind::AndB(a, b) => {
                let la = self.blast_bool(a);
                let lb = self.blast_bool(b);
                self.and_gate(la, lb)
            }
            TermKind::OrB(a, b) => {
                let la = self.blast_bool(a);
                let lb = self.blast_bool(b);
                self.or_gate(la, lb)
            }
            TermKind::Cmp(op, a, b) => {
                let va = self.blast_bv(a);
                let vb = self.blast_bv(b);
                match op {
                    CmpOp::Eq => self.eq_vec(&va, &vb),
                    CmpOp::Ult => self.uge_gate(&va, &vb).negate(),
                    CmpOp::Ule => self.uge_gate(&vb, &va),
                    CmpOp::Slt => {
                        let (fa, fb) = (self.flip_sign(&va), self.flip_sign(&vb));
                        self.uge_gate(&fa, &fb).negate()
                    }
                    CmpOp::Sle => {
                        let (fa, fb) = (self.flip_sign(&va), self.flip_sign(&vb));
                        self.uge_gate(&fb, &fa)
                    }
                }
            }
            TermKind::Ite(c, a, b) => {
                let lc = self.blast_bool(c);
                let la = self.blast_bool(a);
                let lb = self.blast_bool(b);
                self.mux_gate(lc, la, lb)
            }
            ref other => unreachable!("non-Bool kind {other:?} with Bool sort"),
        };
        self.bool_cache.insert(t, l);
        l
    }

    fn flip_sign(&self, v: &[Lit]) -> Vec<Lit> {
        let mut out = v.to_vec();
        let last = out.len() - 1;
        out[last] = out[last].negate();
        out
    }

    /// Lower a BitVec-sorted term to its bit literals (LSB first).
    pub fn blast_bv(&mut self, t: TermId) -> Vec<Lit> {
        if let Some(v) = self.bv_cache.get(&t) {
            return v.clone();
        }
        let v: Vec<Lit> = match *self.pool.kind(t) {
            TermKind::BvConst { width, bits } => (0..width)
                .map(|i| self.const_lit((bits >> i) & 1 == 1))
                .collect(),
            TermKind::Var { width, var } => {
                if let Some(bits) = self.var_bits.get(&var) {
                    bits.clone()
                } else {
                    let bits: Vec<Lit> = (0..width).map(|_| Lit::pos(self.sat.new_var())).collect();
                    self.var_bits.insert(var, bits.clone());
                    bits
                }
            }
            TermKind::Bv(op, a, b) => {
                let va = self.blast_bv(a);
                let vb = self.blast_bv(b);
                match op {
                    BvOp::Add => self.adder(&va, &vb, self.lit_false()).0,
                    BvOp::Sub => self.sub_vec(&va, &vb),
                    BvOp::Mul => self.mul_vec(&va, &vb),
                    BvOp::UDiv => self.udivrem(&va, &vb).0,
                    BvOp::URem => self.udivrem(&va, &vb).1,
                    BvOp::SDiv => self.sdiv_or_srem(&va, &vb, true),
                    BvOp::SRem => self.sdiv_or_srem(&va, &vb, false),
                    BvOp::And => va
                        .iter()
                        .zip(&vb)
                        .map(|(&x, &y)| self.and_gate(x, y))
                        .collect(),
                    BvOp::Or => va
                        .iter()
                        .zip(&vb)
                        .map(|(&x, &y)| self.or_gate(x, y))
                        .collect(),
                    BvOp::Xor => va
                        .iter()
                        .zip(&vb)
                        .map(|(&x, &y)| self.xor_gate(x, y))
                        .collect(),
                    BvOp::Shl => self.shift(&va, &vb, true, false),
                    BvOp::LShr => self.shift(&va, &vb, false, false),
                    BvOp::AShr => self.shift(&va, &vb, false, true),
                    BvOp::Rotl => self.rotate(&va, &vb, true),
                    BvOp::Rotr => self.rotate(&va, &vb, false),
                }
            }
            TermKind::BvNot(a) => {
                let va = self.blast_bv(a);
                va.iter().map(|l| l.negate()).collect()
            }
            TermKind::BvNeg(a) => {
                let va = self.blast_bv(a);
                self.neg_vec(&va)
            }
            TermKind::Popcnt(a) => {
                let va = self.blast_bv(a);
                self.popcnt_vec(&va)
            }
            TermKind::Concat(hi, lo) => {
                let mut v = self.blast_bv(lo);
                v.extend(self.blast_bv(hi));
                v
            }
            TermKind::Extract { term, hi, lo } => {
                let v = self.blast_bv(term);
                v[lo as usize..=hi as usize].to_vec()
            }
            TermKind::ZeroExt { term, add } => {
                let mut v = self.blast_bv(term);
                v.extend(std::iter::repeat_n(self.lit_false(), add as usize));
                v
            }
            TermKind::SignExt { term, add } => {
                let mut v = self.blast_bv(term);
                let sign = *v.last().expect("non-empty bv");
                v.extend(std::iter::repeat_n(sign, add as usize));
                v
            }
            TermKind::Ite(c, a, b) => {
                let lc = self.blast_bool(c);
                let va = self.blast_bv(a);
                let vb = self.blast_bv(b);
                self.mux_vec(lc, &va, &vb)
            }
            ref other => unreachable!("non-BV kind {other:?} with BV sort"),
        };
        self.bv_cache.insert(t, v.clone());
        v
    }

    fn sdiv_or_srem(&mut self, a: &[Lit], b: &[Lit], want_div: bool) -> Vec<Lit> {
        let w = a.len();
        let sa = a[w - 1];
        let sb = b[w - 1];
        let na = self.neg_vec(a);
        let nb = self.neg_vec(b);
        let abs_a = self.mux_vec(sa, &na, a);
        let abs_b = self.mux_vec(sb, &nb, b);
        let (q, r) = self.udivrem(&abs_a, &abs_b);
        if want_div {
            let neg_q = self.neg_vec(&q);
            let sign_differs = self.xor_gate(sa, sb);
            self.mux_vec(sign_differs, &neg_q, &q)
        } else {
            // Remainder takes the dividend's sign.
            let neg_r = self.neg_vec(&r);
            self.mux_vec(sa, &neg_r, &r)
        }
    }

    /// Assert a Bool term.
    pub fn assert_true(&mut self, t: TermId) {
        let l = self.blast_bool(t);
        self.sat.add_clause(&[l]);
    }

    /// After a Sat outcome, read back a variable's value (missing variables —
    /// ones the assertions never constrained — default to 0).
    pub fn var_value(&self, var: u32) -> u64 {
        match self.var_bits.get(&var) {
            None => 0,
            Some(bits) => bits.iter().enumerate().fold(0u64, |acc, (i, l)| {
                let bit = self.sat.value(l.var()) != l.is_neg();
                acc | ((bit as u64) << i)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::Deadline;
    use crate::sat::SatOutcome;

    /// Solve `assertions` and return the model value of `x` if Sat.
    fn solve_for(pool: &mut TermPool, assertions: &[TermId]) -> Option<Vec<u64>> {
        let mut bb = BitBlaster::new(pool);
        for &a in assertions {
            bb.assert_true(a);
        }
        match bb.sat.solve(200_000, Deadline::NONE) {
            SatOutcome::Sat => Some(
                (0..pool.vars().len() as u32)
                    .map(|v| bb.var_value(v))
                    .collect(),
            ),
            _ => None,
        }
    }

    #[test]
    fn solves_linear_equation() {
        // x + 17 == 42  →  x == 25
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let c17 = p.bv_const(17, 32);
        let c42 = p.bv_const(42, 32);
        let sum = p.bv(BvOp::Add, x, c17);
        let eq = p.eq(sum, c42);
        let model = solve_for(&mut p, &[eq]).expect("sat");
        assert_eq!(model[0], 25);
    }

    #[test]
    fn solves_multiplication() {
        // x * 6 == 42 with x < 100 → x == 7 (among the solutions; verify by eval)
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let six = p.bv_const(6, 16);
        let c42 = p.bv_const(42, 16);
        let prod = p.bv(BvOp::Mul, x, six);
        let eq = p.eq(prod, c42);
        let model = solve_for(&mut p, &[eq]).expect("sat");
        assert_eq!(p.eval(eq, &model), 1, "model must satisfy the assertion");
    }

    #[test]
    fn detects_unsat() {
        // x < 5 ∧ x > 10 is unsat.
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let c5 = p.bv_const(5, 32);
        let c10 = p.bv_const(10, 32);
        let lt = p.cmp(CmpOp::Ult, x, c5);
        let gt = p.cmp(CmpOp::Ult, c10, x);
        assert!(solve_for(&mut p, &[lt, gt]).is_none());
    }

    #[test]
    fn signed_comparison_crosses_zero() {
        // x <s 0 ∧ x >s -4 → x ∈ {-3, -2, -1}
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let zero = p.bv_const(0, 32);
        let m4 = p.bv_const((-4i64) as u64, 32);
        let neg = p.cmp(CmpOp::Slt, x, zero);
        let gt = p.cmp(CmpOp::Slt, m4, x);
        let model = solve_for(&mut p, &[neg, gt]).expect("sat");
        let sx = model[0] as u32 as i32;
        assert!((-3..=-1).contains(&sx), "got {sx}");
    }

    #[test]
    fn division_is_exact() {
        // x / 7 == 5 ∧ x % 7 == 3  →  x == 38
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let c7 = p.bv_const(7, 16);
        let c5 = p.bv_const(5, 16);
        let c3 = p.bv_const(3, 16);
        let q = p.bv(BvOp::UDiv, x, c7);
        let r = p.bv(BvOp::URem, x, c7);
        let e1 = p.eq(q, c5);
        let e2 = p.eq(r, c3);
        let model = solve_for(&mut p, &[e1, e2]).expect("sat");
        assert_eq!(model[0], 38);
    }

    #[test]
    fn shift_solving() {
        // (x << 3) == 0b101000 → x low bits = 0b101 (mod 2^w-3)
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let three = p.bv_const(3, 16);
        let target = p.bv_const(0b101000, 16);
        let shl = p.bv(BvOp::Shl, x, three);
        let eq = p.eq(shl, target);
        let model = solve_for(&mut p, &[eq]).expect("sat");
        assert_eq!(model[0] & 0x1fff, 0b101);
    }

    #[test]
    fn shifts_and_rotates_match_eval_at_odd_widths() {
        // At a width that is not a power of two the amount is reduced
        // through the divider: every (x, y), amounts past the width
        // included, must blast to the value `eval` computes.
        for w in [3u32, 5] {
            for op in [BvOp::Shl, BvOp::LShr, BvOp::AShr, BvOp::Rotl, BvOp::Rotr] {
                for xv in 0..1u64 << w {
                    for yv in 0..1u64 << w {
                        let mut p = TermPool::new();
                        let x = p.var("x", w);
                        let y = p.var("y", w);
                        let r = p.var("r", w);
                        let t = p.bv(op, x, y);
                        let cx = p.bv_const(xv, w);
                        let cy = p.bv_const(yv, w);
                        let pins = [p.eq(x, cx), p.eq(y, cy), p.eq(r, t)];
                        let model = solve_for(&mut p, &pins).expect("sat");
                        assert_eq!(model[2], p.eval(t, &[xv, yv]), "w {w} {op:?} x {xv} y {yv}");
                    }
                }
            }
        }
    }

    #[test]
    fn popcnt_constraint_is_solvable() {
        // popcnt(x) == 13 on 16 bits — the obfuscated-guard shape of §4.3.
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let pc = p.popcnt(x);
        let c13 = p.bv_const(13, 16);
        let eq = p.eq(pc, c13);
        let model = solve_for(&mut p, &[eq]).expect("sat");
        assert_eq!((model[0] & 0xffff).count_ones(), 13);
    }

    #[test]
    fn popcnt_unsat_when_impossible() {
        // popcnt(x) == 9 on 8 bits is impossible.
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let pc = p.popcnt(x);
        let c9 = p.bv_const(9, 8);
        let eq = p.eq(pc, c9);
        assert!(solve_for(&mut p, &[eq]).is_none());
    }

    #[test]
    fn models_satisfy_random_mixed_constraints() {
        // Differential check: build assorted constraints, and whenever the
        // solver says Sat, evaluate the terms under the model.
        let mut seed = 42u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 32
        };
        let ops = [
            BvOp::Add,
            BvOp::Sub,
            BvOp::Mul,
            BvOp::And,
            BvOp::Or,
            BvOp::Xor,
        ];
        for case in 0..12 {
            let mut p = TermPool::new();
            let x = p.var("x", 16);
            let y = p.var("y", 16);
            let op = ops[case % ops.len()];
            let mixed = p.bv(op, x, y);
            let c = p.bv_const(rnd() & 0xffff, 16);
            let eq = p.eq(mixed, c);
            if let Some(model) = solve_for(&mut p, &[eq]) {
                assert_eq!(p.eval(eq, &model), 1, "case {case} ({op:?})");
            }
        }
    }

    #[test]
    fn sixty_four_bit_name_equality() {
        // The Fake EOS guard shape: code == N(eosio.token) as a 64-bit eq.
        let mut p = TermPool::new();
        let code = p.var("code", 64);
        let token = p.bv_const(0x5530ea033482a600, 64);
        let eq = p.eq(code, token);
        let model = solve_for(&mut p, &[eq]).expect("sat");
        assert_eq!(model[0], 0x5530ea033482a600);
    }
}
