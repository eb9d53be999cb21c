//! Trace replay: lifting runtime traces to symbolic machine states
//! (§3.4.3, Table 3).
//!
//! The replayer walks the trace records an instrumented execution produced
//! and mirrors each instruction's effect on a symbolic machine state
//! μ = ⟨code, μ_m, μ_s, μ_l, μ_g, μ_r⟩. Stack/local/global slots hold
//! `Option<TermId>`: `None` means "concrete" — the concrete value is always
//! available from the logged operands, so terms are only materialized where
//! symbolic input actually flows. Conditional states (`br_if`/`if` and
//! `eosio_assert`, §3.1) are collected together with the path constraints
//! needed to flip them (§3.4.4).

use std::collections::{HashMap, HashSet};

use wasai_chain::abi::{ParamType, ParamValue};
use wasai_smt::{BvOp, CmpOp, Deadline, TermId, TermPool};
use wasai_vm::{TraceKind, TraceRecord, TraceVal};
use wasai_wasm::instr::{Instr, InstrClass};
use wasai_wasm::module::Module;
use wasai_wasm::types::ValType;

use crate::inputs::InputSpec;
use crate::memory::SymMemory;

/// Cap on recorded conditional states per execution (bounds solving work).
pub const MAX_CONDITIONALS: usize = 512;

/// Trace records replayed between wall-clock deadline checks — frequent
/// enough that a watchdog fires within milliseconds, rare enough that the
/// `Instant::now()` syscall never shows up in replay profiles.
pub const DEADLINE_POLL_RECORDS: usize = 4096;

/// What kind of conditional state produced a constraint (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondKind {
    /// A `br_if` / `if` branch instruction.
    Branch,
    /// An `eosio_assert` call that failed (flipping = making it pass).
    Assert,
}

/// One flip candidate.
#[derive(Debug, Clone)]
pub struct ConditionalState {
    /// `(func, pc)` of the branch/assert site in the original module.
    pub site: (u32, u32),
    /// Direction executed (branches: condition ≠ 0; asserts: always false).
    pub taken: bool,
    /// Branch or assert.
    pub kind: CondKind,
    /// Constraint whose model explores the *other* side.
    pub flipped: TermId,
    /// Number of path constraints accumulated before this site
    /// (prefix of [`ReplayOutcome::path`]).
    pub path_len: usize,
}

/// Everything Symback extracted from one execution.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The term pool (owns all constraint terms).
    pub pool: TermPool,
    /// The symbolic input description used.
    pub spec: InputSpec,
    /// Flip candidates in execution order.
    pub conditionals: Vec<ConditionalState>,
    /// Path constraints in execution order (conditions as executed).
    pub path: Vec<TermId>,
    /// Distinct branches covered: `(func, pc, direction)`.
    pub branches: HashSet<(u32, u32, u64)>,
    /// Function ids observed starting (the i⃗d chain of §3.5).
    pub func_chain: Vec<u32>,
    /// Trace records actually replayed (< `trace.len()` when truncated) —
    /// what telemetry reports as per-replay work.
    pub records: usize,
    /// Replay stopped early because the wall-clock deadline fired; the
    /// collected observations cover only a prefix of the trace.
    pub truncated: bool,
}

#[derive(Debug, Default)]
struct SymLabel {
    height: usize,
    arity: usize,
    is_loop: bool,
}

#[derive(Debug, Default)]
struct SymFrame {
    locals: Vec<Option<TermId>>,
    stack: Vec<Option<TermId>>,
    labels: Vec<SymLabel>,
    /// local index → parameter index awaiting lazy pointee installation.
    pending_ptr: HashMap<u32, usize>,
}

impl SymFrame {
    fn local(&mut self, idx: u32) -> Option<TermId> {
        if (idx as usize) < self.locals.len() {
            self.locals[idx as usize]
        } else {
            None
        }
    }

    fn set_local(&mut self, idx: u32, v: Option<TermId>) {
        if self.locals.len() <= idx as usize {
            self.locals.resize(idx as usize + 1, None);
        }
        self.locals[idx as usize] = v;
    }

    fn pop(&mut self) -> Option<TermId> {
        self.stack.pop().unwrap_or(None)
    }
}

/// The Symback trace replayer.
#[derive(Debug)]
pub struct Replayer<'m> {
    module: &'m Module,
    assert_funcs: HashSet<u32>,
    pool: TermPool,
    mem: SymMemory,
    spec: InputSpec,
    frames: Vec<SymFrame>,
    globals: HashMap<u32, Option<TermId>>,
    pending_args: Option<Vec<Option<TermId>>>,
    pending_results: Option<Vec<Option<TermId>>>,
    conditionals: Vec<ConditionalState>,
    path: Vec<TermId>,
    branches: HashSet<(u32, u32, u64)>,
    func_chain: Vec<u32>,
    depths: HashMap<u32, Vec<u32>>,
    deadline: Deadline,
}

/// The function indices of `module`'s `eosio_assert` imports: the callees
/// whose failing calls are conditional states (§3.1).
pub(crate) fn assert_imports(module: &Module) -> HashSet<u32> {
    (0..module.num_imported_funcs())
        .filter(|&i| {
            module
                .imported_func(i)
                .map(|imp| imp.name == "eosio_assert")
                .unwrap_or(false)
        })
        .collect()
}

fn width_of(t: ValType) -> u32 {
    t.bit_width()
}

impl<'m> Replayer<'m> {
    /// Create a replayer for one execution of `module` with symbolic inputs
    /// installed at `action_func` per the Table 2 layout.
    pub fn new(
        module: &'m Module,
        action_func: u32,
        local_base: u32,
        params: &[(ParamType, ParamValue)],
    ) -> Self {
        let mut pool = TermPool::new();
        let spec = InputSpec::build(&mut pool, action_func, local_base, params);
        Replayer {
            module,
            assert_funcs: assert_imports(module),
            pool,
            mem: SymMemory::new(),
            spec,
            frames: Vec::new(),
            globals: HashMap::new(),
            pending_args: None,
            pending_results: None,
            conditionals: Vec::new(),
            path: Vec::new(),
            branches: HashSet::new(),
            func_chain: Vec::new(),
            depths: HashMap::new(),
            deadline: Deadline::NONE,
        }
    }

    /// Attach a wall-clock deadline: [`Replayer::run`] polls it every
    /// [`DEADLINE_POLL_RECORDS`] trace records and returns a truncated
    /// outcome when it fires. The default [`Deadline::NONE`] never fires.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Replay a trace and return the collected symbolic observations.
    pub fn run(mut self, trace: &[TraceRecord]) -> ReplayOutcome {
        let mut truncated = false;
        let mut records = 0usize;
        for (i, record) in trace.iter().enumerate() {
            if i % DEADLINE_POLL_RECORDS == DEADLINE_POLL_RECORDS - 1 && self.deadline.expired() {
                truncated = true;
                break;
            }
            records = i + 1;
            match record.kind {
                TraceKind::FuncBegin { func } => self.on_func_begin(func),
                TraceKind::FuncEnd { func } => self.on_func_end(func),
                TraceKind::CallPre { .. } => {}
                TraceKind::CallPost { callee } => self.on_call_post(callee, &record.operands),
                TraceKind::Site { func, pc } => {
                    // Call instructions log their duplicated arguments into
                    // the CallPre record that immediately follows the site.
                    let call_ops: &[TraceVal] = match trace.get(i + 1) {
                        Some(next) if matches!(next.kind, TraceKind::CallPre { .. }) => {
                            &next.operands
                        }
                        _ => &[],
                    };
                    self.on_site(func, pc, &record.operands, call_ops);
                }
            }
        }
        ReplayOutcome {
            pool: self.pool,
            spec: self.spec,
            conditionals: self.conditionals,
            path: self.path,
            branches: self.branches,
            func_chain: self.func_chain,
            records,
            truncated,
        }
    }

    fn on_func_begin(&mut self, func: u32) {
        self.func_chain.push(func);
        let mut frame = SymFrame::default();
        if let Some(args) = self.pending_args.take() {
            frame.locals = args;
        }
        if func == self.spec.action_func {
            for (i, _) in self.spec.params.iter().enumerate() {
                let local_idx = self.spec.local_base + i as u32;
                match self.spec.local_term(i) {
                    Some(term) => frame.set_local(local_idx, Some(term)),
                    None => {
                        if matches!(self.spec.params[i].ty, ParamType::Asset | ParamType::String) {
                            frame.pending_ptr.insert(local_idx, i);
                        }
                    }
                }
            }
        }
        self.frames.push(frame);
    }

    fn on_func_end(&mut self, func: u32) {
        let arity = self
            .module
            .func_type(func)
            .map(|t| t.results.len())
            .unwrap_or(0);
        if let Some(mut frame) = self.frames.pop() {
            let at = frame.stack.len().saturating_sub(arity);
            let results = frame.stack.split_off(at);
            self.pending_results = Some(results);
        }
    }

    fn on_call_post(&mut self, _callee: i32, operands: &[TraceVal]) {
        // Host call leftovers: arguments never consumed by a FuncBegin.
        self.pending_args = None;
        let results = match self.pending_results.take() {
            Some(r) => r,
            // Host function: results are concrete (their values are in the
            // log; downstream consumers read their own operand logs).
            None => vec![None; operands.len()],
        };
        if let Some(frame) = self.frames.last_mut() {
            frame.stack.extend(results);
        }
    }

    /// Static nesting depth before each pc of a function body.
    fn depth_table(&mut self, func: u32) -> &Vec<u32> {
        let module = self.module;
        self.depths.entry(func).or_insert_with(|| {
            let body = &module.local_func(func).expect("local function").body;
            let mut out = Vec::with_capacity(body.len());
            let mut cur: u32 = 0;
            for (pc, i) in body.iter().enumerate() {
                match i {
                    Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => {
                        out.push(cur);
                        cur += 1;
                    }
                    Instr::End => {
                        out.push(cur);
                        if pc + 1 != body.len() {
                            cur = cur.saturating_sub(1);
                        }
                    }
                    _ => out.push(cur),
                }
            }
            out
        })
    }

    /// Operand `i`'s bits, 0 when absent.
    pub(crate) fn op_u64(operands: &[TraceVal], i: usize) -> u64 {
        operands.get(i).map(|v| v.bits()).unwrap_or(0)
    }

    /// The term for a consumed operand: the tracked symbolic term if any,
    /// else a constant built from the logged concrete value.
    fn operand_term(&mut self, tracked: Option<TermId>, logged: u64, width: u32) -> TermId {
        match tracked {
            Some(t) => t,
            None => self.pool.bv_const(logged, width),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn on_site(&mut self, func: u32, pc: u32, operands: &[TraceVal], call_ops: &[TraceVal]) {
        let Some(f) = self.module.local_func(func) else {
            return;
        };
        let Some(instr) = f.body.get(pc as usize).cloned() else {
            return;
        };
        // Ensure the depth table exists before borrowing the frame.
        let depth = self.depth_table(func)[pc as usize] as usize;
        if self.frames.is_empty() {
            // Tolerate traces that begin mid-function.
            self.frames.push(SymFrame::default());
        }

        // Label-depth repair: pops labels whose End events were skipped by
        // control flow (if-arms not taken leave their End uninstrumented on
        // the executed path).
        {
            let frame = self.frames.last_mut().expect("non-empty");
            while frame.labels.len() > depth {
                frame.labels.pop();
            }
        }

        match instr {
            Instr::Block(bt) => {
                let frame = self.frames.last_mut().expect("non-empty");
                frame.labels.push(SymLabel {
                    height: frame.stack.len(),
                    arity: bt.arity(),
                    is_loop: false,
                });
            }
            Instr::Loop(_) => {
                let frame = self.frames.last_mut().expect("non-empty");
                frame.labels.push(SymLabel {
                    height: frame.stack.len(),
                    arity: 0,
                    is_loop: true,
                });
            }
            Instr::If(bt) => {
                let cond = self.frames.last_mut().expect("non-empty").pop();
                let cond_val = Self::op_u64(operands, 0);
                self.record_branch(func, pc, cond, cond_val);
                let frame = self.frames.last_mut().expect("non-empty");
                frame.labels.push(SymLabel {
                    height: frame.stack.len(),
                    arity: bt.arity(),
                    is_loop: false,
                });
            }
            Instr::Else => {
                // End of the then-arm; the if label is popped by repair when
                // control resumes past the matching end.
            }
            Instr::End => {
                let frame = self.frames.last_mut().expect("non-empty");
                if let Some(label) = frame.labels.pop() {
                    let at = frame.stack.len().saturating_sub(label.arity);
                    let kept = frame.stack.split_off(at);
                    frame.stack.truncate(label.height);
                    frame.stack.extend(kept);
                }
            }
            Instr::Br(l) => self.do_branch_unwind(l),
            Instr::BrIf(l) => {
                let cond = self.frames.last_mut().expect("non-empty").pop();
                let cond_val = Self::op_u64(operands, 0);
                self.record_branch(func, pc, cond, cond_val);
                if cond_val != 0 {
                    self.do_branch_unwind(l);
                }
            }
            Instr::BrTable(labels, default) => {
                let idx_term = self.frames.last_mut().expect("non-empty").pop();
                let idx = Self::op_u64(operands, 0);
                self.branches.insert((func, pc, idx));
                if let Some(t) = idx_term {
                    // The executed case constrains the index (path condition).
                    let c = self.pool.bv_const(idx & 0xffff_ffff, 32);
                    let eq = self.pool.eq(t, c);
                    self.push_path(eq);
                }
                let l = labels.get(idx as usize).copied().unwrap_or(default);
                self.do_branch_unwind(l);
            }
            Instr::Return => {
                // FuncEnd handles result movement.
            }
            Instr::Unreachable | Instr::Nop => {}
            Instr::Call(callee) => self.on_call(callee, func, pc, call_ops),
            Instr::CallIndirect(type_idx) => {
                let n = self
                    .module
                    .types
                    .get(type_idx as usize)
                    .map(|t| t.params.len())
                    .unwrap_or(0);
                let frame = self.frames.last_mut().expect("non-empty");
                let _index = frame.pop();
                let mut args = vec![None; n];
                for slot in args.iter_mut().rev() {
                    *slot = frame.pop();
                }
                self.pending_args = Some(args);
            }
            Instr::Drop => {
                self.frames.last_mut().expect("non-empty").pop();
            }
            Instr::Select => {
                let frame = self.frames.last_mut().expect("non-empty");
                let cond = frame.pop();
                let b = frame.pop();
                let a = frame.pop();
                let cond_val = Self::op_u64(operands, 2);
                if let Some(t) = cond {
                    let zero = self.pool.bv_const(0, 32);
                    let as_exec = if cond_val != 0 {
                        self.pool.ne(t, zero)
                    } else {
                        self.pool.eq(t, zero)
                    };
                    self.push_path(as_exec);
                }
                let frame = self.frames.last_mut().expect("non-empty");
                frame.stack.push(if cond_val != 0 { a } else { b });
            }
            Instr::LocalGet(x) => {
                // Lazy pointee installation for pointer-typed parameters:
                // the first read reveals the concrete pointer.
                let pending = self
                    .frames
                    .last()
                    .and_then(|fr| fr.pending_ptr.get(&x).copied());
                if let Some(param_idx) = pending {
                    let ptr = Self::op_u64(operands, 0);
                    let spec = self.spec.clone();
                    spec.install_pointee(param_idx, ptr, &mut self.pool, &mut self.mem);
                    self.frames
                        .last_mut()
                        .expect("non-empty")
                        .pending_ptr
                        .remove(&x);
                }
                let frame = self.frames.last_mut().expect("non-empty");
                let v = frame.local(x);
                frame.stack.push(v);
            }
            Instr::LocalSet(x) => {
                let frame = self.frames.last_mut().expect("non-empty");
                let v = frame.pop();
                frame.set_local(x, v);
                frame.pending_ptr.remove(&x);
            }
            Instr::LocalTee(x) => {
                let frame = self.frames.last_mut().expect("non-empty");
                let v = frame.stack.last().copied().unwrap_or(None);
                frame.set_local(x, v);
                frame.pending_ptr.remove(&x);
            }
            Instr::GlobalGet(x) => {
                let v = self.globals.get(&x).copied().unwrap_or(None);
                self.frames.last_mut().expect("non-empty").stack.push(v);
            }
            Instr::GlobalSet(x) => {
                let v = self.frames.last_mut().expect("non-empty").pop();
                self.globals.insert(x, v);
            }
            Instr::MemorySize => {
                // Table 3: balance the stack with a constant.
                self.frames.last_mut().expect("non-empty").stack.push(None);
            }
            Instr::MemoryGrow => {
                let frame = self.frames.last_mut().expect("non-empty");
                frame.pop();
                frame.stack.push(None);
            }
            Instr::I32Const(_) | Instr::I64Const(_) | Instr::F32Const(_) | Instr::F64Const(_) => {
                self.frames.last_mut().expect("non-empty").stack.push(None);
            }
            ref other if other.memory_access().is_some() => {
                self.on_memory(other, operands);
            }
            ref other => match other.class() {
                InstrClass::Unary => self.on_unary(other, operands),
                InstrClass::Binary => self.on_binary(other, operands),
                _ => {}
            },
        }
    }

    fn do_branch_unwind(&mut self, l: u32) {
        let frame = self.frames.last_mut().expect("non-empty");
        if frame.labels.len() <= l as usize {
            return;
        }
        let idx = frame.labels.len() - 1 - l as usize;
        let (height, arity, is_loop) = {
            let lab = &frame.labels[idx];
            (lab.height, lab.arity, lab.is_loop)
        };
        if is_loop {
            frame.stack.truncate(height);
            frame.labels.truncate(idx + 1);
        } else {
            let keep = arity.min(frame.stack.len());
            let kept = frame.stack.split_off(frame.stack.len() - keep);
            frame.stack.truncate(height);
            frame.stack.extend(kept);
            frame.labels.truncate(idx);
        }
    }

    fn push_path(&mut self, constraint: TermId) {
        if self.pool.as_const(constraint) != Some(1) && self.path.len() < 4 * MAX_CONDITIONALS {
            self.path.push(constraint);
        }
    }

    fn record_branch(&mut self, func: u32, pc: u32, cond: Option<TermId>, cond_val: u64) {
        let taken = cond_val != 0;
        self.branches.insert((func, pc, taken as u64));
        if let Some(t) = cond {
            let zero = self.pool.bv_const(0, 32);
            let (as_exec, flipped) = if taken {
                (self.pool.ne(t, zero), self.pool.eq(t, zero))
            } else {
                (self.pool.eq(t, zero), self.pool.ne(t, zero))
            };
            if self.conditionals.len() < MAX_CONDITIONALS {
                self.conditionals.push(ConditionalState {
                    site: (func, pc),
                    taken,
                    kind: CondKind::Branch,
                    flipped,
                    path_len: self.path.len(),
                });
            }
            self.push_path(as_exec);
        }
    }

    fn on_call(&mut self, callee: u32, site_func: u32, site_pc: u32, call_ops: &[TraceVal]) {
        let n = self
            .module
            .func_type(callee)
            .map(|t| t.params.len())
            .unwrap_or(0);
        let mut args = vec![None; n];
        {
            let frame = self.frames.last_mut().expect("non-empty");
            for slot in args.iter_mut().rev() {
                *slot = frame.pop();
            }
        }
        // eosio_assert: a conditional state (§3.1). A failing assert's flip
        // constraint demands the condition hold (§3.4.4).
        if self.assert_funcs.contains(&callee) {
            let cond = args.first().copied().flatten();
            let cond_val = Self::op_u64(call_ops, 0);
            if let Some(t) = cond {
                let zero = self.pool.bv_const(0, 32);
                if cond_val != 0 {
                    let as_exec = self.pool.ne(t, zero);
                    self.push_path(as_exec);
                } else if self.conditionals.len() < MAX_CONDITIONALS {
                    let flipped = self.pool.ne(t, zero);
                    self.conditionals.push(ConditionalState {
                        site: (site_func, site_pc),
                        taken: false,
                        kind: CondKind::Assert,
                        flipped,
                        path_len: self.path.len(),
                    });
                }
            }
        }
        self.pending_args = Some(args);
    }

    fn on_memory(&mut self, instr: &Instr, operands: &[TraceVal]) {
        let acc = instr.memory_access().expect("memory instruction");
        let offset = instr.mem_arg().expect("memarg").offset as u64;
        if acc.is_store {
            let (value, _addr_term) = {
                let frame = self.frames.last_mut().expect("non-empty");
                let v = frame.pop();
                let a = frame.pop();
                (v, a)
            };
            let addr = (Self::op_u64(operands, 0) & 0xffff_ffff) + offset;
            let logged_value = Self::op_u64(operands, 1);
            if acc.val_type.is_int() {
                let w = width_of(acc.val_type);
                let term = self.operand_term(value, logged_value & mask64(w), w);
                let stored = if acc.bytes * 8 < w {
                    self.pool.extract(term, acc.bytes * 8 - 1, 0)
                } else {
                    term
                };
                self.mem.store(&mut self.pool, addr, acc.bytes, stored);
            } else {
                // Floats are opaque: store the concrete bits.
                self.mem
                    .store_concrete(&mut self.pool, addr, acc.bytes, logged_value);
            }
        } else {
            self.frames.last_mut().expect("non-empty").pop(); // address
            let addr = (Self::op_u64(operands, 0) & 0xffff_ffff) + offset;
            let term = if acc.val_type.is_int() {
                self.mem
                    .load(&mut self.pool, addr, acc.bytes)
                    .map(|loaded| {
                        let w = width_of(acc.val_type);
                        let add = w - acc.bytes * 8;
                        if add == 0 {
                            loaded
                        } else if acc.signed {
                            self.pool.sign_ext(loaded, add)
                        } else {
                            self.pool.zero_ext(loaded, add)
                        }
                    })
            } else {
                // A float load still consults the model (keeps it warm) but
                // produces no term.
                let _ = self.mem.load(&mut self.pool, addr, acc.bytes);
                None
            };
            self.frames.last_mut().expect("non-empty").stack.push(term);
        }
    }

    fn on_unary(&mut self, instr: &Instr, operands: &[TraceVal]) {
        let a = self.frames.last_mut().expect("non-empty").pop();
        let logged = Self::op_u64(operands, 0);
        let result = match (instr, a) {
            (_, None) => None,
            (Instr::I32Eqz, Some(t)) => {
                let zero = self.pool.bv_const(0, 32);
                let b = self.pool.eq(t, zero);
                Some(self.pool.bool_to_bv(b, 32))
            }
            (Instr::I64Eqz, Some(t)) => {
                let zero = self.pool.bv_const(0, 64);
                let b = self.pool.eq(t, zero);
                Some(self.pool.bool_to_bv(b, 32))
            }
            (Instr::I32Popcnt, Some(t)) | (Instr::I64Popcnt, Some(t)) => Some(self.pool.popcnt(t)),
            (Instr::I32WrapI64, Some(t)) => Some(self.pool.extract(t, 31, 0)),
            (Instr::I64ExtendI32S, Some(t)) => Some(self.pool.sign_ext(t, 32)),
            (Instr::I64ExtendI32U, Some(t)) => Some(self.pool.zero_ext(t, 32)),
            // clz/ctz, float ops, conversions through floats: opaque. The
            // concrete value remains visible to later consumers via their
            // operand logs.
            _ => None,
        };
        let _ = logged;
        self.frames
            .last_mut()
            .expect("non-empty")
            .stack
            .push(result);
    }

    fn on_binary(&mut self, instr: &Instr, operands: &[TraceVal]) {
        let (b, a) = {
            let frame = self.frames.last_mut().expect("non-empty");
            let b = frame.pop();
            let a = frame.pop();
            (b, a)
        };
        if a.is_none() && b.is_none() {
            self.frames.last_mut().expect("non-empty").stack.push(None);
            return;
        }
        let mn = instr.mnemonic();
        let w = if mn.starts_with("i32") {
            32
        } else if mn.starts_with("i64") {
            64
        } else {
            // Float binary: opaque.
            self.frames.last_mut().expect("non-empty").stack.push(None);
            return;
        };
        let la = Self::op_u64(operands, 0) & mask64(w);
        let lb = Self::op_u64(operands, 1) & mask64(w);
        let ta = self.operand_term(a, la, w);
        let tb = self.operand_term(b, lb, w);
        let result = self.binary_term(instr, ta, tb);
        self.frames
            .last_mut()
            .expect("non-empty")
            .stack
            .push(result);
    }

    fn binary_term(&mut self, instr: &Instr, a: TermId, b: TermId) -> Option<TermId> {
        use Instr::*;
        let bv = |s: &mut Self, op: BvOp| Some(s.pool.bv(op, a, b));
        let cmp = |s: &mut Self, op: CmpOp, swap: bool| {
            let (x, y) = if swap { (b, a) } else { (a, b) };
            let c = s.pool.cmp(op, x, y);
            Some(s.pool.bool_to_bv(c, 32))
        };
        match instr {
            I32Add | I64Add => bv(self, BvOp::Add),
            I32Sub | I64Sub => bv(self, BvOp::Sub),
            I32Mul | I64Mul => bv(self, BvOp::Mul),
            I32DivS | I64DivS => bv(self, BvOp::SDiv),
            I32DivU | I64DivU => bv(self, BvOp::UDiv),
            I32RemS | I64RemS => bv(self, BvOp::SRem),
            I32RemU | I64RemU => bv(self, BvOp::URem),
            I32And | I64And => bv(self, BvOp::And),
            I32Or | I64Or => bv(self, BvOp::Or),
            I32Xor | I64Xor => bv(self, BvOp::Xor),
            I32Shl | I64Shl => bv(self, BvOp::Shl),
            I32ShrS | I64ShrS => bv(self, BvOp::AShr),
            I32ShrU | I64ShrU => bv(self, BvOp::LShr),
            I32Rotl | I64Rotl => bv(self, BvOp::Rotl),
            I32Rotr | I64Rotr => bv(self, BvOp::Rotr),
            I32Eq | I64Eq => cmp(self, CmpOp::Eq, false),
            I32Ne | I64Ne => {
                let e = self.pool.ne(a, b);
                Some(self.pool.bool_to_bv(e, 32))
            }
            I32LtS | I64LtS => cmp(self, CmpOp::Slt, false),
            I32LtU | I64LtU => cmp(self, CmpOp::Ult, false),
            I32GtS | I64GtS => cmp(self, CmpOp::Slt, true),
            I32GtU | I64GtU => cmp(self, CmpOp::Ult, true),
            I32LeS | I64LeS => cmp(self, CmpOp::Sle, false),
            I32LeU | I64LeU => cmp(self, CmpOp::Ule, false),
            I32GeS | I64GeS => cmp(self, CmpOp::Sle, true),
            I32GeU | I64GeU => cmp(self, CmpOp::Ule, true),
            _ => None,
        }
    }
}

fn mask64(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}
