//! Compiled-tape execution: the concrete-execution fast path.
//!
//! [`lower_module`] flattens each validated function body once into a
//! threaded-code tape: structured control (`block`/`loop`/`end`/`nop`)
//! disappears entirely, branch targets are pre-resolved to tape offsets with
//! their stack adjustment (`trunc`/`keep`) baked in, and fuel is charged in
//! per-basic-block batches instead of per instruction.
//!
//! # The one fused window
//!
//! Campaigns run contracts in their instrumented form, where a
//! `trace_site` hook call precedes every original instruction, so a
//! multi-instruction window of the original code never survives into the
//! module that runs. One window does: before each logged binary op or
//! comparison, the instrumenter restores its operands from scratch locals
//! as `local.get a; local.get b` right in front of the op. That window
//! lowers to one `GetGet{Bin,Cmp}{I32,I64}` op; every other instruction
//! lowers to exactly one op. The window is kept because deleting it
//! measurably slowed the decode-loop-heavy `wild_sdk` bench workload
//! (DESIGN.md, "Tape format").
//!
//! # Fuel batching
//!
//! Every tape op carries a `cost`: its own tick plus the ticks of the
//! structural instructions (`block`/`loop`/`end`/`nop`) and fused operands
//! that *precede* it on the straight-line path. Costs attach forward — an
//! op is always the **last** covered instruction of its charge — so a trap
//! never needs a refund. At every potential jump target the pending
//! accumulator is flushed into a standalone [`OpKind::Charge`] op placed
//! *before* the target offset: fall-through execution pays the structural
//! fuel, branches land past it, exactly like the reference interpreter's
//! per-instruction `Fuel::tick`. When `fuel < cost` the op's observable
//! effect has not happened and every covered instruction is non-observable,
//! so `fuel = 0` + [`Trap::StepLimit`] reproduces the reference behavior
//! bit-for-bit.
//!
//! # Fallback
//!
//! Lowering is all-or-nothing per module: any function the mini-validator
//! cannot track (stack-height surprises, bad indices) makes the whole module
//! fall back to the reference interpreter. The differential suite
//! (`tests/vm_fastpath.rs`, the tests below and the generated-module arm of
//! `crates/wasm/tests/proptests.rs`) pins tape and reference to
//! byte-identical results, traps, traces and fuel.

use wasai_wasm::instr::{Instr, InstrClass};
use wasai_wasm::module::Module;
use wasai_wasm::types::ValType;

use crate::error::Trap;
use crate::host::Host;
use crate::interp::{CtrlTarget, Fuel, Instance, MAX_CALL_DEPTH};
use crate::numeric;
use crate::value::Value;

/// A branch destination with its pre-resolved stack adjustment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BrDest {
    /// Tape offset to continue at (a pc during lowering, fixed up after).
    target: u32,
    /// Truncate the value stack to this height...
    trunc: u32,
    /// ...after saving this many top-of-stack values.
    keep: u32,
}

/// Comparison selector of the fused `local.get; local.get; <cmp>` ops.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cmp {
    Eq,
    Ne,
    LtS,
    LtU,
    GtS,
    GtU,
    LeS,
    LeU,
    GeS,
    GeU,
}

impl Cmp {
    fn of_i32(i: &Instr) -> Option<Cmp> {
        Some(match i {
            Instr::I32Eq => Cmp::Eq,
            Instr::I32Ne => Cmp::Ne,
            Instr::I32LtS => Cmp::LtS,
            Instr::I32LtU => Cmp::LtU,
            Instr::I32GtS => Cmp::GtS,
            Instr::I32GtU => Cmp::GtU,
            Instr::I32LeS => Cmp::LeS,
            Instr::I32LeU => Cmp::LeU,
            Instr::I32GeS => Cmp::GeS,
            Instr::I32GeU => Cmp::GeU,
            _ => return None,
        })
    }

    fn of_i64(i: &Instr) -> Option<Cmp> {
        Some(match i {
            Instr::I64Eq => Cmp::Eq,
            Instr::I64Ne => Cmp::Ne,
            Instr::I64LtS => Cmp::LtS,
            Instr::I64LtU => Cmp::LtU,
            Instr::I64GtS => Cmp::GtS,
            Instr::I64GtU => Cmp::GtU,
            Instr::I64LeS => Cmp::LeS,
            Instr::I64LeU => Cmp::LeU,
            Instr::I64GeS => Cmp::GeS,
            Instr::I64GeU => Cmp::GeU,
            _ => return None,
        })
    }

    #[inline]
    fn eval_i32(self, a: i32, b: i32) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::LtS => a < b,
            Cmp::LtU => (a as u32) < (b as u32),
            Cmp::GtS => a > b,
            Cmp::GtU => (a as u32) > (b as u32),
            Cmp::LeS => a <= b,
            Cmp::LeU => (a as u32) <= (b as u32),
            Cmp::GeS => a >= b,
            Cmp::GeU => (a as u32) >= (b as u32),
        }
    }

    #[inline]
    fn eval_i64(self, a: i64, b: i64) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::LtS => a < b,
            Cmp::LtU => (a as u64) < (b as u64),
            Cmp::GtS => a > b,
            Cmp::GtU => (a as u64) > (b as u64),
            Cmp::LeS => a <= b,
            Cmp::LeU => (a as u64) <= (b as u64),
            Cmp::GeS => a >= b,
            Cmp::GeU => (a as u64) >= (b as u64),
        }
    }
}

/// Binary-operator selector of the fused `local.get; local.get; <binop>`
/// ops. The evaluation rules mirror [`numeric::exec`] exactly (wrapping
/// arithmetic, masked shift counts).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bin {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    ShrS,
    ShrU,
}

impl Bin {
    fn of_i32(i: &Instr) -> Option<Bin> {
        Some(match i {
            Instr::I32Add => Bin::Add,
            Instr::I32Sub => Bin::Sub,
            Instr::I32Mul => Bin::Mul,
            Instr::I32And => Bin::And,
            Instr::I32Or => Bin::Or,
            Instr::I32Xor => Bin::Xor,
            Instr::I32Shl => Bin::Shl,
            Instr::I32ShrS => Bin::ShrS,
            Instr::I32ShrU => Bin::ShrU,
            _ => return None,
        })
    }

    fn of_i64(i: &Instr) -> Option<Bin> {
        Some(match i {
            Instr::I64Add => Bin::Add,
            Instr::I64Sub => Bin::Sub,
            Instr::I64Mul => Bin::Mul,
            Instr::I64And => Bin::And,
            Instr::I64Or => Bin::Or,
            Instr::I64Xor => Bin::Xor,
            Instr::I64Shl => Bin::Shl,
            Instr::I64ShrS => Bin::ShrS,
            Instr::I64ShrU => Bin::ShrU,
            _ => return None,
        })
    }

    #[inline]
    fn eval_i32(self, a: i32, b: i32) -> i32 {
        match self {
            Bin::Add => a.wrapping_add(b),
            Bin::Sub => a.wrapping_sub(b),
            Bin::Mul => a.wrapping_mul(b),
            Bin::And => a & b,
            Bin::Or => a | b,
            Bin::Xor => a ^ b,
            Bin::Shl => a.wrapping_shl(b as u32),
            Bin::ShrS => a.wrapping_shr(b as u32),
            Bin::ShrU => ((a as u32).wrapping_shr(b as u32)) as i32,
        }
    }

    #[inline]
    fn eval_i64(self, a: i64, b: i64) -> i64 {
        match self {
            Bin::Add => a.wrapping_add(b),
            Bin::Sub => a.wrapping_sub(b),
            Bin::Mul => a.wrapping_mul(b),
            Bin::And => a & b,
            Bin::Or => a | b,
            Bin::Xor => a ^ b,
            Bin::Shl => a.wrapping_shl(b as u32),
            Bin::ShrS => a.wrapping_shr(b as u32),
            Bin::ShrU => ((a as u64).wrapping_shr(b as u32)) as i64,
        }
    }
}

/// One flattened tape operation.
///
/// `repr(u8)` keeps the tag a plain byte. Left to itself, the compiler
/// packs the tag into a niche of `Num`'s `Instr`, and every dispatch in
/// [`run`] must then decode it with a compare and a conditional move; that
/// cost the VM-bound bench workloads (`wild_sdk`, `cosmwasm`) 13–16% of
/// their throughput.
#[derive(Debug, Clone)]
#[repr(u8)]
pub(crate) enum OpKind {
    /// Pure fuel charge for structural instructions before a jump target.
    Charge,
    /// `unreachable`.
    Unreachable,
    /// Unconditional jump (an `else` fallthrough).
    Jump(u32),
    /// `if`: pop the condition, jump when zero.
    JumpIfZero(u32),
    /// `br`.
    Br(BrDest),
    /// `br_if`.
    BrIf(BrDest),
    /// `br_table`; index into [`Tape::tables`], default entry last.
    BrTable(u32),
    /// Return from the function (explicit `return`, the final `end`, or a
    /// branch to the function label).
    Ret,
    /// Call a locally defined function.
    CallLocal {
        /// Callee in the global function index space.
        callee: u32,
        /// Number of arguments to pass.
        nargs: u32,
    },
    /// Call an imported host function.
    CallHost {
        /// Import index (into `Instance::host_ids`).
        import: u32,
        /// Number of arguments to pass.
        nargs: u32,
    },
    /// `call_indirect` with the expected type index.
    CallIndirect(u32),
    /// `drop`.
    Drop,
    /// `select`.
    Select,
    /// `local.get`.
    LocalGet(u32),
    /// `local.set`.
    LocalSet(u32),
    /// `local.tee`.
    LocalTee(u32),
    /// `global.get`.
    GlobalGet(u32),
    /// `global.set`.
    GlobalSet(u32),
    /// `memory.size`.
    MemorySize,
    /// `memory.grow`.
    MemoryGrow,
    /// `i32.const`.
    I32Const(i32),
    /// `i64.const`.
    I64Const(i64),
    /// `f32.const`.
    F32Const(f32),
    /// `f64.const`.
    F64Const(f64),
    /// Any of the 14 loads, pre-decoded.
    Load {
        offset: u32,
        bytes: u8,
        signed: bool,
        ty: ValType,
    },
    /// Any of the 9 stores, pre-decoded.
    Store { offset: u32, bytes: u8 },
    /// Fused `local.get a; local.get b; <i32 binop>`.
    GetGetBinI32 { a: u32, b: u32, op: Bin },
    /// Fused `local.get a; local.get b; <i64 binop>`.
    GetGetBinI64 { a: u32, b: u32, op: Bin },
    /// Fused `local.get a; local.get b; i32 comparison`.
    GetGetCmpI32 { a: u32, b: u32, cmp: Cmp },
    /// Fused `local.get a; local.get b; i64 comparison`.
    GetGetCmpI64 { a: u32, b: u32, cmp: Cmp },
    /// Numeric tail: shares [`numeric::exec`] with the reference loop.
    Num(Instr),
}

/// An op with its batched fuel cost.
#[derive(Debug, Clone)]
pub(crate) struct TapeOp {
    cost: u32,
    kind: OpKind,
}

/// A lowered function body.
#[derive(Debug, Clone)]
pub(crate) struct Tape {
    ops: Vec<TapeOp>,
    tables: Vec<Vec<BrDest>>,
    /// Maximum value-stack height of the function, from the lowering pass's
    /// abstract tracking — frames pre-allocate exactly this capacity so
    /// pushes never reallocate.
    max_stack: u32,
}

/// Truncate `stack` to `trunc` entries while preserving the top `keep`
/// values — the branch stack adjustment, shared by both dispatch loops.
#[inline]
pub(crate) fn adjust(stack: &mut Vec<Value>, trunc: usize, keep: usize) {
    let len = stack.len();
    if keep > 0 && len - keep != trunc {
        stack.copy_within(len - keep.., trunc);
    }
    stack.truncate(trunc + keep);
}

/// Lower every function of `module`; `None` if any function resists (the
/// whole module then stays on the reference interpreter).
pub(crate) fn lower_module(module: &Module, targets: &[Vec<CtrlTarget>]) -> Option<Vec<Tape>> {
    let mut tapes = Vec::with_capacity(module.funcs.len());
    for (local_i, func_targets) in targets.iter().enumerate().take(module.funcs.len()) {
        tapes.push(lower_function(module, local_i, func_targets)?);
    }
    Some(tapes)
}

/// A structured-control entry of the lowering pass's static label stack.
#[derive(Debug, Clone, Copy)]
struct CtrlFrame {
    height: u32,
    bt_arity: u32,
    is_loop: bool,
    start_pc: u32,
    end_pc: u32,
    dead: bool,
}

#[allow(clippy::too_many_lines)]
fn lower_function(module: &Module, local_i: usize, targets: &[CtrlTarget]) -> Option<Tape> {
    let f = &module.funcs[local_i];
    let n_imp = module.num_imported_funcs();
    let ftype = module.types.get(f.type_idx as usize)?;
    let result_arity = ftype.results.len() as u32;
    let body_len = f.body.len();

    // Pass 1: over-approximate the jump-target set. Marking a pc that is
    // never branched to only splits a charge, never changes semantics.
    let mut jt = vec![false; body_len + 1];
    jt[body_len] = true;
    for (pc, i) in f.body.iter().enumerate() {
        match i {
            Instr::Block(_) => jt[targets[pc].end_pc as usize + 1] = true,
            Instr::Loop(_) => jt[pc] = true,
            Instr::If(_) => {
                let t = targets[pc];
                jt[t.end_pc as usize + 1] = true;
                if let Some(e) = t.else_pc {
                    jt[e as usize + 1] = true;
                }
            }
            _ => {}
        }
    }

    // Pass 2: emission with abstract stack-height tracking.
    let mut ops: Vec<TapeOp> = Vec::with_capacity(body_len + 2);
    let mut tables: Vec<Vec<BrDest>> = Vec::new();
    let mut pc_to_ip = vec![0u32; body_len + 1];
    let mut ctrls: Vec<CtrlFrame> = Vec::new();
    let mut h: u32 = 0;
    let mut max_h: u32 = 0;
    let mut pending: u32 = 0;
    let mut dead = false;

    let resolve = |l: u32, ctrls: &[CtrlFrame], h: u32| -> Option<BrDest> {
        let depth = l as usize;
        if depth < ctrls.len() {
            let c = &ctrls[ctrls.len() - 1 - depth];
            let keep = if c.is_loop { 0 } else { c.bt_arity };
            let target = if c.is_loop { c.start_pc } else { c.end_pc + 1 };
            if c.dead || h < c.height + keep {
                return None;
            }
            Some(BrDest {
                target,
                trunc: c.height,
                keep,
            })
        } else if depth == ctrls.len() {
            if h < result_arity {
                return None;
            }
            Some(BrDest {
                target: body_len as u32,
                trunc: 0,
                keep: result_arity,
            })
        } else {
            None
        }
    };

    let mut pc = 0usize;
    while pc < body_len {
        max_h = max_h.max(h);
        if jt[pc] && pending > 0 {
            ops.push(TapeOp {
                cost: pending,
                kind: OpKind::Charge,
            });
            pending = 0;
        }
        pc_to_ip[pc] = ops.len() as u32;
        let instr = &f.body[pc];

        if dead {
            // Skipped code never executes and never charges; only the
            // structural nesting is tracked so reachability resumes at the
            // right `else`/`end`.
            match instr {
                Instr::Block(bt) | Instr::Loop(bt) | Instr::If(bt) => ctrls.push(CtrlFrame {
                    height: 0,
                    bt_arity: bt.arity() as u32,
                    is_loop: matches!(instr, Instr::Loop(_)),
                    start_pc: pc as u32,
                    end_pc: targets[pc].end_pc,
                    dead: true,
                }),
                Instr::Else => {
                    let c = *ctrls.last()?;
                    if !c.dead {
                        // A live `if` whose then-arm ended unreachable: the
                        // else-arm is reached via the if-false jump. The
                        // `else` itself never executes, so no charge.
                        h = c.height;
                        dead = false;
                    }
                }
                Instr::End => match ctrls.pop() {
                    Some(c) => {
                        if !c.dead {
                            // Branches to this construct land at end_pc+1;
                            // the `end` itself never executes.
                            h = c.height + c.bt_arity;
                            dead = false;
                        }
                    }
                    None => {
                        // Final `end` in dead code: still emit the
                        // fallthrough return — an inner block's end_pc+1 can
                        // land exactly here and must pay this end's tick.
                        ops.push(TapeOp {
                            cost: pending + 1,
                            kind: OpKind::Ret,
                        });
                        pending = 0;
                    }
                },
                _ => {}
            }
            pc += 1;
            continue;
        }

        match instr {
            Instr::Nop => pending += 1,
            Instr::Block(bt) | Instr::Loop(bt) => {
                ctrls.push(CtrlFrame {
                    height: h,
                    bt_arity: bt.arity() as u32,
                    is_loop: matches!(instr, Instr::Loop(_)),
                    start_pc: pc as u32,
                    end_pc: targets[pc].end_pc,
                    dead: false,
                });
                pending += 1;
            }
            Instr::If(bt) => {
                h = h.checked_sub(1)?;
                let t = targets[pc];
                let false_target = match t.else_pc {
                    Some(e) => e + 1,
                    None => t.end_pc + 1,
                };
                ctrls.push(CtrlFrame {
                    height: h,
                    bt_arity: bt.arity() as u32,
                    is_loop: false,
                    start_pc: pc as u32,
                    end_pc: t.end_pc,
                    dead: false,
                });
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::JumpIfZero(false_target),
                });
                pending = 0;
            }
            Instr::Else => {
                let c = *ctrls.last()?;
                if c.dead || h != c.height + c.bt_arity {
                    return None;
                }
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::Jump(c.end_pc + 1),
                });
                pending = 0;
                h = c.height;
            }
            Instr::End => match ctrls.pop() {
                Some(c) => {
                    if h != c.height + c.bt_arity {
                        return None;
                    }
                    pending += 1;
                }
                None => {
                    // The function's final `end`: fallthrough return.
                    if pc + 1 != body_len || h != result_arity {
                        return None;
                    }
                    ops.push(TapeOp {
                        cost: pending + 1,
                        kind: OpKind::Ret,
                    });
                    pending = 0;
                }
            },
            Instr::Br(l) => {
                let d = resolve(*l, &ctrls, h)?;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::Br(d),
                });
                pending = 0;
                dead = true;
            }
            Instr::BrIf(l) => {
                h = h.checked_sub(1)?;
                let d = resolve(*l, &ctrls, h)?;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::BrIf(d),
                });
                pending = 0;
            }
            Instr::BrTable(labels, default) => {
                h = h.checked_sub(1)?;
                let mut t = Vec::with_capacity(labels.len() + 1);
                for &l in labels {
                    t.push(resolve(l, &ctrls, h)?);
                }
                t.push(resolve(*default, &ctrls, h)?);
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::BrTable(tables.len() as u32),
                });
                tables.push(t);
                pending = 0;
                dead = true;
            }
            Instr::Return => {
                if h < result_arity {
                    return None;
                }
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::Ret,
                });
                pending = 0;
                dead = true;
            }
            Instr::Unreachable => {
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::Unreachable,
                });
                pending = 0;
                dead = true;
            }
            Instr::Call(callee) => {
                let ft = module.func_type(*callee)?;
                let nargs = ft.params.len() as u32;
                h = h.checked_sub(nargs)?;
                h += ft.results.len() as u32;
                let kind = if *callee < n_imp {
                    OpKind::CallHost {
                        import: *callee,
                        nargs,
                    }
                } else {
                    OpKind::CallLocal {
                        callee: *callee,
                        nargs,
                    }
                };
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind,
                });
                pending = 0;
            }
            Instr::CallIndirect(type_idx) => {
                let ft = module.types.get(*type_idx as usize)?;
                h = h.checked_sub(1)?;
                h = h.checked_sub(ft.params.len() as u32)?;
                h += ft.results.len() as u32;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::CallIndirect(*type_idx),
                });
                pending = 0;
            }
            Instr::Drop => {
                h = h.checked_sub(1)?;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::Drop,
                });
                pending = 0;
            }
            Instr::Select => {
                h = h.checked_sub(2)?;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::Select,
                });
                pending = 0;
            }
            Instr::LocalGet(x) => {
                // The operand restore (see `fuse`) collapses into one op,
                // unless a jump lands inside it.
                let fused = if pc + 2 < body_len && !jt[pc + 1] && !jt[pc + 2] {
                    fuse(*x, &f.body[pc + 1], &f.body[pc + 2])
                } else {
                    None
                };
                if let Some(kind) = fused {
                    ops.push(TapeOp {
                        cost: pending + 3,
                        kind,
                    });
                    pending = 0;
                    h += 1;
                    pc_to_ip[pc + 1] = ops.len() as u32 - 1;
                    pc_to_ip[pc + 2] = ops.len() as u32 - 1;
                    pc += 3;
                    continue;
                }
                h += 1;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::LocalGet(*x),
                });
                pending = 0;
            }
            Instr::LocalSet(x) => {
                h = h.checked_sub(1)?;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::LocalSet(*x),
                });
                pending = 0;
            }
            Instr::LocalTee(x) => {
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::LocalTee(*x),
                });
                pending = 0;
            }
            Instr::GlobalGet(x) => {
                h += 1;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::GlobalGet(*x),
                });
                pending = 0;
            }
            Instr::GlobalSet(x) => {
                h = h.checked_sub(1)?;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::GlobalSet(*x),
                });
                pending = 0;
            }
            Instr::MemorySize => {
                h += 1;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::MemorySize,
                });
                pending = 0;
            }
            Instr::MemoryGrow => {
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::MemoryGrow,
                });
                pending = 0;
            }
            Instr::I32Const(v) => {
                h += 1;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::I32Const(*v),
                });
                pending = 0;
            }
            Instr::I64Const(v) => {
                h += 1;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::I64Const(*v),
                });
                pending = 0;
            }
            Instr::F32Const(v) => {
                h += 1;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::F32Const(*v),
                });
                pending = 0;
            }
            Instr::F64Const(v) => {
                h += 1;
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::F64Const(*v),
                });
                pending = 0;
            }
            other if other.memory_access().is_some() => {
                let acc = other.memory_access().expect("guarded");
                let m = other.mem_arg().expect("memory instr has memarg");
                if acc.is_store {
                    h = h.checked_sub(2)?;
                    ops.push(TapeOp {
                        cost: pending + 1,
                        kind: OpKind::Store {
                            offset: m.offset,
                            bytes: acc.bytes as u8,
                        },
                    });
                    pending = 0;
                } else {
                    // Pop address, push value: net zero.
                    h.checked_sub(1)?;
                    ops.push(TapeOp {
                        cost: pending + 1,
                        kind: OpKind::Load {
                            offset: m.offset,
                            bytes: acc.bytes as u8,
                            signed: acc.signed,
                            ty: acc.val_type,
                        },
                    });
                    pending = 0;
                }
            }
            other => {
                match other.class() {
                    InstrClass::Unary => {
                        h.checked_sub(1)?;
                    }
                    InstrClass::Binary => {
                        h = h.checked_sub(2)? + 1;
                    }
                    _ => return None,
                }
                ops.push(TapeOp {
                    cost: pending + 1,
                    kind: OpKind::Num(other.clone()),
                });
                pending = 0;
            }
        }
        pc += 1;
    }

    if !ctrls.is_empty() {
        return None;
    }
    // Branch-to-function-label exit: the final `end` is skipped, so no tick.
    pc_to_ip[body_len] = ops.len() as u32;
    ops.push(TapeOp {
        cost: 0,
        kind: OpKind::Ret,
    });

    // Pass 3: rewrite pc-encoded targets to tape offsets.
    let fix = |t: u32| pc_to_ip[t as usize];
    for op in &mut ops {
        match &mut op.kind {
            OpKind::Jump(t) | OpKind::JumpIfZero(t) => *t = fix(*t),
            OpKind::Br(d) | OpKind::BrIf(d) => d.target = fix(d.target),
            _ => {}
        }
    }
    for t in &mut tables {
        for d in t {
            d.target = fix(d.target);
        }
    }

    // Pass 4: batch fuel per straight-line run. A batch is a maximal run of
    // ops where only the final op can trap, observe or branch, and no op
    // except the first is a jump target. The head op pre-charges the whole
    // run; interior ops become cost 0. See the module docs for why this is
    // observationally pure.
    let mut is_target = vec![false; ops.len() + 1];
    is_target[0] = true;
    for op in &ops {
        match &op.kind {
            OpKind::Jump(t) | OpKind::JumpIfZero(t) => is_target[*t as usize] = true,
            OpKind::Br(d) | OpKind::BrIf(d) => is_target[d.target as usize] = true,
            _ => {}
        }
    }
    for t in &tables {
        for d in t {
            is_target[d.target as usize] = true;
        }
    }
    let mut i = 0;
    while i < ops.len() {
        let mut j = i;
        let mut total = ops[i].cost;
        while !ends_batch(&ops[j].kind) && j + 1 < ops.len() && !is_target[j + 1] {
            j += 1;
            total += ops[j].cost;
        }
        if j > i {
            ops[i].cost = total;
            for op in &mut ops[i + 1..=j] {
                op.cost = 0;
            }
        }
        i = j + 1;
    }

    Some(Tape {
        ops,
        tables,
        max_stack: max_h,
    })
}

/// Try to fuse `local.get a; i1; i2` into a superinstruction: the operand
/// restore `local.get a; local.get b; <binop or compare>` that the
/// instrumenter emits before every logged binary. Its members can neither
/// trap nor observe anything, so one op may charge all three ticks.
fn fuse(a: u32, i1: &Instr, i2: &Instr) -> Option<OpKind> {
    let Instr::LocalGet(b) = *i1 else {
        return None;
    };
    if let Some(op) = Bin::of_i32(i2) {
        Some(OpKind::GetGetBinI32 { a, b, op })
    } else if let Some(op) = Bin::of_i64(i2) {
        Some(OpKind::GetGetBinI64 { a, b, op })
    } else if let Some(cmp) = Cmp::of_i32(i2) {
        Some(OpKind::GetGetCmpI32 { a, b, cmp })
    } else {
        Cmp::of_i64(i2).map(|cmp| OpKind::GetGetCmpI64 { a, b, cmp })
    }
}

/// Can this numeric-tail instruction trap? Trapping ops may only ever end a
/// fuel batch, never sit inside one.
fn num_can_trap(i: &Instr) -> bool {
    matches!(
        i,
        Instr::I32DivS
            | Instr::I32DivU
            | Instr::I32RemS
            | Instr::I32RemU
            | Instr::I64DivS
            | Instr::I64DivU
            | Instr::I64RemS
            | Instr::I64RemU
            | Instr::I32TruncF32S
            | Instr::I32TruncF32U
            | Instr::I32TruncF64S
            | Instr::I32TruncF64U
            | Instr::I64TruncF32S
            | Instr::I64TruncF32U
            | Instr::I64TruncF64S
            | Instr::I64TruncF64U
    )
}

/// Does this op end a fuel batch? Anything that can trap, observe the
/// outside world, or transfer control must be the *last* op of its charge,
/// so a trap never charges for work that did not happen and a branch never
/// lands inside a pre-charged run.
fn ends_batch(kind: &OpKind) -> bool {
    match kind {
        OpKind::Unreachable
        | OpKind::Jump(_)
        | OpKind::JumpIfZero(_)
        | OpKind::Br(_)
        | OpKind::BrIf(_)
        | OpKind::BrTable(_)
        | OpKind::Ret
        | OpKind::CallLocal { .. }
        | OpKind::CallHost { .. }
        | OpKind::CallIndirect(_)
        | OpKind::MemoryGrow
        | OpKind::Load { .. }
        | OpKind::Store { .. } => true,
        OpKind::Num(i) => num_can_trap(i),
        _ => false,
    }
}

/// Execute `entry` on the compiled tapes. Mirrors the reference
/// `run_frames` driver exactly: same frame discipline, same call-depth
/// bound, same trap order, batched fuel.
#[allow(clippy::too_many_lines)]
pub(crate) fn run(
    inst: &mut Instance,
    host: &mut dyn Host,
    entry: u32,
    entry_args: &[Value],
    fuel: &mut Fuel,
) -> Result<Vec<Value>, Trap> {
    let compiled = inst.compiled().clone();
    let module = compiled.module();
    let tapes = compiled.tapes().expect("tape execution requires tapes");
    let n_imp = module.num_imported_funcs();

    enum Next {
        Push(u32, Vec<Value>),
        Pop(Vec<Value>),
    }

    struct TFrame {
        local_i: usize,
        locals: Vec<Value>,
        stack: Vec<Value>,
        ip: usize,
        result_arity: usize,
    }

    let new_frame = |func_idx: u32, args: Vec<Value>| -> TFrame {
        let local_i = (func_idx - n_imp) as usize;
        let f = &module.funcs[local_i];
        let ftype = &module.types[f.type_idx as usize];
        let mut locals = args;
        locals.extend(f.locals.iter().map(|&t| Value::zero(t)));
        TFrame {
            local_i,
            locals,
            stack: Vec::with_capacity(tapes[local_i].max_stack as usize),
            ip: 0,
            result_arity: ftype.results.len(),
        }
    };

    let mut frames: Vec<TFrame> = vec![new_frame(entry, entry_args.to_vec())];

    // Fuel lives in a register for the whole run; every exit path — trap,
    // host error or completion — writes it back through `fuel` first. The
    // `tri!` macro is the fallible-op `?` with that write-back attached.
    let mut f = fuel.0;
    macro_rules! tri {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(t) => {
                    fuel.0 = f;
                    return Err(t);
                }
            }
        };
    }

    loop {
        let next: Next = 'frame: {
            let fi = frames.len() - 1;
            let frame = &mut frames[fi];
            let tape = &tapes[frame.local_i];
            let mut ip = frame.ip;

            macro_rules! pop {
                () => {
                    frame.stack.pop().expect("validated stack never underflows")
                };
            }

            loop {
                let op = &tape.ops[ip];
                let c = op.cost as u64;
                if f < c {
                    fuel.0 = 0;
                    return Err(Trap::StepLimit);
                }
                f -= c;
                let mut next_ip = ip + 1;
                match &op.kind {
                    OpKind::Charge => {}
                    OpKind::Unreachable => {
                        fuel.0 = f;
                        return Err(Trap::Unreachable);
                    }
                    OpKind::Jump(t) => next_ip = *t as usize,
                    OpKind::JumpIfZero(t) => {
                        if pop!().as_i32() == 0 {
                            next_ip = *t as usize;
                        }
                    }
                    OpKind::Br(d) => {
                        adjust(&mut frame.stack, d.trunc as usize, d.keep as usize);
                        next_ip = d.target as usize;
                    }
                    OpKind::BrIf(d) => {
                        if pop!().as_i32() != 0 {
                            adjust(&mut frame.stack, d.trunc as usize, d.keep as usize);
                            next_ip = d.target as usize;
                        }
                    }
                    OpKind::BrTable(ti) => {
                        let t = &tape.tables[*ti as usize];
                        let idx = pop!().as_i32() as u32 as usize;
                        let d = if idx < t.len() - 1 {
                            t[idx]
                        } else {
                            t[t.len() - 1]
                        };
                        adjust(&mut frame.stack, d.trunc as usize, d.keep as usize);
                        next_ip = d.target as usize;
                    }
                    OpKind::Ret => {
                        let at = frame.stack.len() - frame.result_arity;
                        let results = frame.stack.split_off(at);
                        break 'frame Next::Pop(results);
                    }
                    OpKind::CallLocal { callee, nargs } => {
                        let at = frame.stack.len() - *nargs as usize;
                        let call_args = frame.stack.split_off(at);
                        frame.ip = next_ip;
                        break 'frame Next::Push(*callee, call_args);
                    }
                    OpKind::CallHost { import, nargs } => {
                        let at = frame.stack.len() - *nargs as usize;
                        let id = inst.host_ids[*import as usize];
                        let r = tri!(host.call(id, &frame.stack[at..], &mut inst.mem));
                        frame.stack.truncate(at);
                        frame.stack.extend(r);
                    }
                    OpKind::CallIndirect(type_idx) => {
                        let idx = pop!().as_i32() as u32;
                        let slot = tri!(inst
                            .table
                            .get(idx as usize)
                            .copied()
                            .ok_or(Trap::TableOutOfBounds));
                        let callee = tri!(slot.ok_or(Trap::UndefinedElement));
                        let expected = tri!(module
                            .types
                            .get(*type_idx as usize)
                            .ok_or_else(|| Trap::Host(format!("bad type index {type_idx}"))));
                        let actual = tri!(module
                            .func_type(callee)
                            .ok_or_else(|| Trap::Host(format!("bad table target {callee}"))));
                        if expected != actual {
                            fuel.0 = f;
                            return Err(Trap::IndirectCallTypeMismatch);
                        }
                        let n = expected.params.len();
                        let at = frame.stack.len() - n;
                        if callee < n_imp {
                            let id = inst.host_ids[callee as usize];
                            let r = tri!(host.call(id, &frame.stack[at..], &mut inst.mem));
                            frame.stack.truncate(at);
                            frame.stack.extend(r);
                        } else {
                            let call_args = frame.stack.split_off(at);
                            frame.ip = next_ip;
                            break 'frame Next::Push(callee, call_args);
                        }
                    }
                    OpKind::Drop => {
                        pop!();
                    }
                    OpKind::Select => {
                        let cond = pop!().as_i32();
                        let b = pop!();
                        let a = pop!();
                        frame.stack.push(if cond != 0 { a } else { b });
                    }
                    OpKind::LocalGet(x) => frame.stack.push(frame.locals[*x as usize]),
                    OpKind::LocalSet(x) => frame.locals[*x as usize] = pop!(),
                    OpKind::LocalTee(x) => {
                        frame.locals[*x as usize] = *frame.stack.last().expect("tee operand");
                    }
                    OpKind::GlobalGet(x) => frame.stack.push(inst.globals[*x as usize]),
                    OpKind::GlobalSet(x) => inst.globals[*x as usize] = pop!(),
                    OpKind::MemorySize => {
                        frame.stack.push(Value::I32(inst.mem.size_pages() as i32));
                    }
                    OpKind::MemoryGrow => {
                        let delta = pop!().as_i32();
                        let r = if delta < 0 {
                            -1
                        } else {
                            inst.mem.grow(delta as u32)
                        };
                        frame.stack.push(Value::I32(r));
                    }
                    OpKind::I32Const(v) => frame.stack.push(Value::I32(*v)),
                    OpKind::I64Const(v) => frame.stack.push(Value::I64(*v)),
                    OpKind::F32Const(v) => frame.stack.push(Value::F32(*v)),
                    OpKind::F64Const(v) => frame.stack.push(Value::F64(*v)),
                    OpKind::Load {
                        offset,
                        bytes,
                        signed,
                        ty,
                    } => {
                        let base = pop!().as_i32() as u32 as u64;
                        let addr = base + *offset as u64;
                        let raw = tri!(inst.mem.load_uint(addr, *bytes as u32));
                        frame
                            .stack
                            .push(numeric::extend_loaded(raw, *bytes as u32, *signed, *ty));
                    }
                    OpKind::Store { offset, bytes } => {
                        let value = pop!();
                        let base = pop!().as_i32() as u32 as u64;
                        let addr = base + *offset as u64;
                        tri!(inst.mem.store_uint(addr, *bytes as u32, value.to_bits()));
                    }
                    OpKind::GetGetBinI32 { a, b, op } => {
                        let x = frame.locals[*a as usize].as_i32();
                        let y = frame.locals[*b as usize].as_i32();
                        frame.stack.push(Value::I32(op.eval_i32(x, y)));
                    }
                    OpKind::GetGetBinI64 { a, b, op } => {
                        let x = frame.locals[*a as usize].as_i64();
                        let y = frame.locals[*b as usize].as_i64();
                        frame.stack.push(Value::I64(op.eval_i64(x, y)));
                    }
                    OpKind::GetGetCmpI32 { a, b, cmp } => {
                        let x = frame.locals[*a as usize].as_i32();
                        let y = frame.locals[*b as usize].as_i32();
                        frame.stack.push(Value::I32(cmp.eval_i32(x, y) as i32));
                    }
                    OpKind::GetGetCmpI64 { a, b, cmp } => {
                        let x = frame.locals[*a as usize].as_i64();
                        let y = frame.locals[*b as usize].as_i64();
                        frame.stack.push(Value::I32(cmp.eval_i64(x, y) as i32));
                    }
                    OpKind::Num(instr) => tri!(numeric::exec(instr, &mut frame.stack)),
                }
                ip = next_ip;
            }
        };
        match next {
            Next::Push(callee, args) => {
                if frames.len() as u32 >= MAX_CALL_DEPTH {
                    fuel.0 = f;
                    return Err(Trap::CallStackExhausted);
                }
                frames.push(new_frame(callee, args));
            }
            Next::Pop(results) => {
                frames.pop();
                match frames.last_mut() {
                    None => {
                        fuel.0 = f;
                        return Ok(results);
                    }
                    Some(parent) => parent.stack.extend(results),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::NullHost;
    use crate::interp::{CompiledModule, Fuel};
    use wasai_wasm::builder::ModuleBuilder;
    use wasai_wasm::module::Module;
    use wasai_wasm::types::{BlockType, ValType::*};

    /// Run `apply(args)` on both paths for every fuel budget in `0..=max`
    /// and demand identical results, traps and remaining fuel — the
    /// bit-exactness contract the whole fast path rests on.
    fn assert_differential(module: Module, args: &[Value], max_fuel: u64) {
        let fast = CompiledModule::compile(module.clone()).expect("fast compile");
        assert!(fast.has_fast_path(), "lowering unexpectedly bailed");
        let refr = CompiledModule::compile_reference(module).expect("ref compile");
        assert!(!refr.has_fast_path());
        for budget in 0..=max_fuel {
            let mut host = NullHost;
            let mut fi = Instance::new(fast.clone(), &mut host).expect("fast instance");
            let mut ff = Fuel(budget);
            let fr = fi.invoke_export(&mut host, "apply", args, &mut ff);
            let mut ri = Instance::new(refr.clone(), &mut host).expect("ref instance");
            let mut rf = Fuel(budget);
            let rr = ri.invoke_export(&mut host, "apply", args, &mut rf);
            assert_eq!(fr, rr, "result diverged at fuel {budget}");
            assert_eq!(ff, rf, "remaining fuel diverged at budget {budget}");
        }
    }

    #[test]
    fn counting_loop_matches_reference() {
        // Sums 1..=n: a `local.get; local.get; i32.add` window, a
        // `local.get; i32.const; i32.add` decrement, loop back-edges and
        // charge flushes.
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32],
            &[I32],
            &[I32],
            vec![
                Instr::Block(BlockType::Empty),
                Instr::Loop(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::I32Eqz,
                Instr::BrIf(1),
                Instr::LocalGet(1),
                Instr::LocalGet(0),
                Instr::I32Add,
                Instr::LocalSet(1),
                Instr::LocalGet(0),
                Instr::I32Const(-1),
                Instr::I32Add,
                Instr::LocalSet(0),
                Instr::Br(0),
                Instr::End,
                Instr::End,
                Instr::LocalGet(1),
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        assert_differential(b.build(), &[Value::I32(5)], 120);
    }

    #[test]
    fn if_else_and_nops_match_reference() {
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32],
            &[I32],
            &[],
            vec![
                Instr::Nop,
                Instr::LocalGet(0),
                Instr::If(BlockType::Value(I32)),
                Instr::Nop,
                Instr::I32Const(7),
                Instr::Else,
                Instr::Nop,
                Instr::Nop,
                Instr::I32Const(9),
                Instr::End,
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        assert_differential(b.build(), &[Value::I32(1)], 20);
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32],
            &[I32],
            &[],
            vec![
                Instr::Nop,
                Instr::LocalGet(0),
                Instr::If(BlockType::Value(I32)),
                Instr::Nop,
                Instr::I32Const(7),
                Instr::Else,
                Instr::Nop,
                Instr::Nop,
                Instr::I32Const(9),
                Instr::End,
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        assert_differential(b.build(), &[Value::I32(0)], 20);
    }

    #[test]
    fn br_table_and_dead_code_match_reference() {
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32],
            &[I32],
            &[],
            vec![
                Instr::Block(BlockType::Empty),
                Instr::Block(BlockType::Empty),
                Instr::Block(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::BrTable(vec![0, 1], 2),
                Instr::I32Const(-1), // dead
                Instr::Drop,         // dead
                Instr::End,
                Instr::I32Const(10),
                Instr::Return,
                Instr::End,
                Instr::I32Const(20),
                Instr::Return,
                Instr::End,
                Instr::I32Const(30),
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        let m = b.build();
        for v in [-1, 0, 1, 2, 7] {
            assert_differential(m.clone(), &[Value::I32(v)], 20);
        }
    }

    #[test]
    fn traps_and_branch_to_function_label_match_reference() {
        // Division traps mid-body, plus a `br` to the function label from a
        // nested block (skips the final end's tick on the reference too).
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32, I32],
            &[I32],
            &[],
            vec![
                Instr::Block(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I32DivS,
                Instr::Br(1),
                Instr::End,
                Instr::Unreachable,
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        let m = b.build();
        for (a, v) in [(7, 2), (7, 0), (i32::MIN, -1)] {
            assert_differential(m.clone(), &[Value::I32(a), Value::I32(v)], 20);
        }
    }

    #[test]
    fn nested_calls_match_reference() {
        let mut b = ModuleBuilder::new();
        let helper = b.func(
            &[I64, I64],
            &[I64],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64Add,
                Instr::End,
            ],
        );
        let f = b.func(
            &[I64],
            &[I64],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::I64Const(5),
                Instr::Call(helper),
                Instr::LocalGet(0),
                Instr::Call(helper),
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        assert_differential(b.build(), &[Value::I64(100)], 30);
    }

    #[test]
    fn compare_and_branch_matches_reference() {
        // The sdk_work byte-mix shape: a loop whose backedge is a
        // `local.tee; local.get; i32.lt_u; br_if` guard and whose body mixes
        // `local.get; i64.const; i64.mul` with stack-fed binaries, swept
        // across the backedge target's fuel batching.
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32],
            &[I64],
            &[I32, I64],
            vec![
                Instr::Loop(BlockType::Empty),
                Instr::LocalGet(2),
                Instr::I64Const(0x100_0000_01b3),
                Instr::I64Mul,
                Instr::LocalGet(1),
                Instr::I64ExtendI32U,
                Instr::I64Xor,
                Instr::LocalSet(2),
                Instr::LocalGet(1),
                Instr::I32Const(1),
                Instr::I32Add,
                Instr::LocalTee(1),
                Instr::LocalGet(0),
                Instr::I32LtU,
                Instr::BrIf(0),
                Instr::End,
                Instr::LocalGet(2),
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        assert_differential(b.build(), &[Value::I32(6)], 120);
    }

    #[test]
    fn compare_and_if_matches_reference() {
        // Dispatcher shape: `local.get; i64.const; i64.eq; if` plus a
        // guard `local.get; local.get; i64.ne; if`, on both taken and
        // not-taken arms.
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I64, I64],
            &[I64],
            &[I64],
            vec![
                Instr::LocalGet(0),
                Instr::I64Const(7),
                Instr::I64Eq,
                Instr::If(BlockType::Empty),
                Instr::I64Const(100),
                Instr::LocalSet(2),
                Instr::End,
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64Ne,
                Instr::If(BlockType::Empty),
                Instr::LocalGet(2),
                Instr::I64Const(1),
                Instr::I64Add,
                Instr::LocalSet(2),
                Instr::End,
                Instr::LocalGet(2),
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        let m = b.build();
        for (a, bb) in [(7, 7), (7, 8), (3, 3), (3, 9)] {
            assert_differential(m.clone(), &[Value::I64(a), Value::I64(bb)], 40);
        }
    }

    #[test]
    fn const_folded_windows_match_reference() {
        // Stack-fed binaries with a constant right operand: `i32.const;
        // i32.and`, `i64.const; i64.gt_s; br_if`, and a trapping div as a
        // batch-final op, swept over every fuel budget.
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32, I32],
            &[I32],
            &[],
            vec![
                Instr::Block(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I32DivS,
                Instr::I32Const(255),
                Instr::I32And,
                Instr::I32Const(64),
                Instr::I32Shl,
                Instr::Drop,
                Instr::LocalGet(0),
                Instr::I64ExtendI32S,
                Instr::I64Const(50),
                Instr::I64GtS,
                Instr::BrIf(0),
                Instr::I32Const(-1),
                Instr::Return,
                Instr::End,
                Instr::I32Const(1),
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        let m = b.build();
        for (a, d) in [(100, 3), (10, 3), (7, 0), (i32::MIN, -1)] {
            assert_differential(m.clone(), &[Value::I32(a), Value::I32(d)], 30);
        }
    }

    #[test]
    fn backedge_sink_and_idx_load_windows_match_reference() {
        // The full SDK byte-mix loop: `acc = acc*k ^ mem[16 + (i & 63)];
        // i += 1; if i < n continue` — a masked indexed load with a
        // widening extend, a binary stored by `local.set` and a counted
        // backedge. The prologue stores a narrow binary with `local.set`
        // and the epilogue a wide one with `local.tee`, swept over every
        // fuel budget.
        use wasai_wasm::instr::MemArg;
        let mut b = ModuleBuilder::with_memory(1);
        b.data(16, (0u8..64).map(|i| i.wrapping_mul(37) ^ 0x5a).collect());
        let f = b.func(
            &[I64],
            &[I64],
            &[I32, I64, I32],
            vec![
                // scratch3 = eqz(i) + i — a stack-fed i32 add, then local.set.
                Instr::LocalGet(1),
                Instr::I32Eqz,
                Instr::LocalGet(1),
                Instr::I32Add,
                Instr::LocalSet(3),
                Instr::LocalGet(0),
                Instr::LocalSet(2),
                Instr::Loop(BlockType::Empty),
                Instr::LocalGet(2),
                Instr::I64Const(0x100_0000_01b3),
                Instr::I64Mul,
                Instr::I32Const(16),
                Instr::LocalGet(1),
                Instr::I32Const(63),
                Instr::I32And,
                Instr::I32Add,
                Instr::I32Load8U(MemArg::offset(0)),
                Instr::I64ExtendI32U,
                Instr::I64Xor,
                Instr::LocalSet(2),
                Instr::LocalGet(1),
                Instr::I32Const(1),
                Instr::I32Add,
                Instr::LocalTee(1),
                Instr::I32Const(9),
                Instr::I32LtU,
                Instr::BrIf(0),
                Instr::End,
                // acc*k2 + acc — the trailing add is stack-fed, then local.tee.
                Instr::LocalGet(2),
                Instr::I64Const(0x9e37),
                Instr::I64Mul,
                Instr::LocalGet(2),
                Instr::I64Add,
                Instr::LocalTee(2),
                Instr::End,
            ],
        );
        b.export_func("apply", f);
        assert_differential(b.build(), &[Value::I64(0xcbf2_9ce4)], 260);
    }

    #[test]
    fn load_extend_absorption_matches_reference() {
        // Every load/extend pairing over bytes that exercise the sign bit,
        // including `i32.load8_s; i64.extend_i32_u`, where the loaded byte
        // is negative, so zero- and sign-extension genuinely differ.
        use wasai_wasm::instr::MemArg;
        let cases = vec![
            (Instr::I32Load8S(MemArg::offset(0)), Instr::I64ExtendI32S),
            (Instr::I32Load8S(MemArg::offset(0)), Instr::I64ExtendI32U),
            (Instr::I32Load8U(MemArg::offset(0)), Instr::I64ExtendI32S),
            (Instr::I32Load8U(MemArg::offset(0)), Instr::I64ExtendI32U),
            (Instr::I32Load16S(MemArg::offset(0)), Instr::I64ExtendI32S),
            (Instr::I32Load16U(MemArg::offset(0)), Instr::I64ExtendI32U),
            (Instr::I32Load(MemArg::offset(0)), Instr::I64ExtendI32S),
            (Instr::I32Load(MemArg::offset(0)), Instr::I64ExtendI32U),
        ];
        for (load, ext) in cases {
            let mut b = ModuleBuilder::with_memory(1);
            b.data(8, vec![0x80, 0xff, 0x7f, 0xee, 0x80, 0x01, 0x00, 0xcc]);
            let f = b.func(
                &[I32],
                &[I64],
                &[],
                vec![Instr::LocalGet(0), load.clone(), ext.clone(), Instr::End],
            );
            b.export_func("apply", f);
            assert_differential(b.build(), &[Value::I32(8)], 8);
        }
    }

    #[test]
    fn adjust_matches_split_off_semantics() {
        let mut s = vec![
            Value::I32(1),
            Value::I32(2),
            Value::I32(3),
            Value::I32(4),
            Value::I32(5),
        ];
        adjust(&mut s, 1, 2);
        assert_eq!(s, vec![Value::I32(1), Value::I32(4), Value::I32(5)]);
        let mut s = vec![Value::I32(1), Value::I32(2)];
        adjust(&mut s, 0, 0);
        assert!(s.is_empty());
        let mut s = vec![Value::I32(1), Value::I32(2)];
        adjust(&mut s, 1, 1);
        assert_eq!(s, vec![Value::I32(1), Value::I32(2)]);
    }

    #[test]
    fn compile_builds_tapes_and_compile_reference_does_not() {
        let mut b = ModuleBuilder::new();
        let f = b.func(&[], &[I32], &[], vec![Instr::I32Const(1), Instr::End]);
        b.export_func("apply", f);
        let m = b.build();
        assert!(CompiledModule::compile(m.clone())
            .expect("compile")
            .has_fast_path());
        assert!(!CompiledModule::compile_reference(m)
            .expect("compile")
            .has_fast_path());
    }
}
