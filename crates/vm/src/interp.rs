//! The EOSVM interpreter: a stack-based Wasm machine with a call stack,
//! Local/Global sections and a linear memory (§2.2).
//!
//! Contracts are compiled once per module ([`CompiledModule`] precomputes
//! structured-control targets) and instantiated per action execution
//! ([`Instance`]), matching EOSIO's fresh-instance-per-action semantics.
//! Execution is metered ([`Fuel`]) so the fuzzer's virtual clock and the
//! deterministic time-outs of §4 have a cost model to charge against.

use std::sync::Arc;

use wasai_wasm::instr::Instr;
use wasai_wasm::module::{ImportDesc, Module};

use crate::error::{InstanceError, Trap};
use crate::host::{Host, HostFnId};
use crate::memory::LinearMemory;
use crate::numeric;
use crate::tape::{self, Tape};
use crate::value::Value;

/// Maximum nested call depth (EOSVM isolates function namespaces with
/// sub-stacks; we bound them to keep the obfuscator's decoy recursion safe).
pub const MAX_CALL_DEPTH: u32 = 250;

/// A step budget. One unit ≈ one executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fuel(pub u64);

impl Fuel {
    /// Consume one step.
    fn tick(&mut self) -> Result<(), Trap> {
        if self.0 == 0 {
            return Err(Trap::StepLimit);
        }
        self.0 -= 1;
        Ok(())
    }
}

/// Per-pc structured-control targets, precomputed at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CtrlTarget {
    /// For `if`: pc of the matching `else`, if present.
    pub(crate) else_pc: Option<u32>,
    /// For block/loop/if: pc of the matching `end`.
    pub(crate) end_pc: u32,
}

/// A module plus the metadata the interpreter needs (control-flow targets),
/// and — unless compiled for the reference interpreter — the execution tapes.
#[derive(Debug)]
pub struct CompiledModule {
    module: Arc<Module>,
    /// `targets[local_func][pc]` is meaningful for Block/Loop/If pcs.
    targets: Vec<Vec<CtrlTarget>>,
    /// Flattened threaded-code tapes, one per local function; `None` when
    /// compiled for the reference interpreter or lowering bailed
    /// (all-or-nothing per module).
    tapes: Option<Vec<Tape>>,
}

impl CompiledModule {
    /// Compile a module (which should already validate) and build its
    /// threaded-code tapes.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::MalformedControlFlow`] on unmatched
    /// block/if/end nesting.
    pub fn compile(module: Module) -> Result<Arc<Self>, InstanceError> {
        Self::compile_inner(module, true)
    }

    /// Compile without building tapes: the reference interpreter path.
    ///
    /// Differential tests use this to pin the fast path against the
    /// reference.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledModule::compile`].
    pub fn compile_reference(module: Module) -> Result<Arc<Self>, InstanceError> {
        Self::compile_inner(module, false)
    }

    fn compile_inner(module: Module, build_tapes: bool) -> Result<Arc<Self>, InstanceError> {
        let module = Arc::new(module);
        let mut targets = Vec::with_capacity(module.funcs.len());
        for (local_i, f) in module.funcs.iter().enumerate() {
            let func = module.num_imported_funcs() + local_i as u32;
            let mut t = vec![CtrlTarget::default(); f.body.len()];
            let mut stack: Vec<u32> = Vec::new();
            for (pc, i) in f.body.iter().enumerate() {
                match i {
                    Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => stack.push(pc as u32),
                    Instr::Else => {
                        let open = *stack
                            .last()
                            .ok_or(InstanceError::MalformedControlFlow { func })?;
                        t[open as usize].else_pc = Some(pc as u32);
                    }
                    Instr::End => {
                        // The final End closes the function body itself.
                        if let Some(open) = stack.pop() {
                            t[open as usize].end_pc = pc as u32;
                        } else if pc + 1 != f.body.len() {
                            return Err(InstanceError::MalformedControlFlow { func });
                        }
                    }
                    _ => {}
                }
            }
            if !stack.is_empty() {
                return Err(InstanceError::MalformedControlFlow { func });
            }
            targets.push(t);
        }
        let tapes = if build_tapes {
            let timer = wasai_obs::ScopeTimer::start(wasai_obs::Histogram::TapeCompileWallSeconds);
            let tapes = tape::lower_module(&module, &targets);
            if tapes.is_some() {
                wasai_obs::inc(wasai_obs::Counter::VmTapeCompiles);
            }
            drop(timer);
            tapes
        } else {
            None
        };
        Ok(Arc::new(CompiledModule {
            module,
            targets,
            tapes,
        }))
    }

    /// The underlying module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The compiled tapes, when the fast path built them.
    pub(crate) fn tapes(&self) -> Option<&Vec<Tape>> {
        self.tapes.as_ref()
    }

    /// Does this module execute on the compiled-tape fast path?
    pub fn has_fast_path(&self) -> bool {
        self.tapes.is_some()
    }
}

/// A control label on the per-function label stack.
#[derive(Debug, Clone, Copy)]
struct Label {
    /// Value-stack height at label entry.
    height: usize,
    /// Values a branch to this label carries (0 for loops).
    arity: usize,
    /// Where a branch to this label continues.
    target: u32,
    /// Loops branch backwards and keep re-pushing their label.
    is_loop: bool,
}

/// Resolve a compiled module's function imports against `host`.
///
/// Split out of [`Instance::new`] so callers that instantiate the same
/// module many times (the chain's fresh-instance-per-action loop) can
/// resolve once and reuse the table via [`Instance::with_host_ids`].
///
/// # Errors
///
/// Fails if an import cannot be resolved or names a bad type index.
pub fn resolve_imports(
    compiled: &CompiledModule,
    host: &mut dyn Host,
) -> Result<Arc<Vec<HostFnId>>, InstanceError> {
    let module = &compiled.module;
    let mut host_ids = Vec::new();
    for imp in &module.imports {
        if let ImportDesc::Func(type_idx) = imp.desc {
            let ty = module
                .types
                .get(type_idx as usize)
                .ok_or_else(|| InstanceError::BadIndex(format!("type {type_idx}")))?;
            let id = host.resolve(&imp.module, &imp.name, ty).ok_or_else(|| {
                InstanceError::UnresolvedImport {
                    module: imp.module.clone(),
                    name: imp.name.clone(),
                }
            })?;
            host_ids.push(id);
        }
    }
    Ok(Arc::new(host_ids))
}

fn init_globals(module: &Module) -> Result<Vec<Value>, InstanceError> {
    let mut globals = Vec::with_capacity(module.globals.len());
    for g in &module.globals {
        let v = match g.init {
            Instr::I32Const(v) => Value::I32(v),
            Instr::I64Const(v) => Value::I64(v),
            Instr::F32Const(v) => Value::F32(v),
            Instr::F64Const(v) => Value::F64(v),
            ref other => return Err(InstanceError::BadIndex(format!("global init {other:?}"))),
        };
        globals.push(v);
    }
    Ok(globals)
}

fn init_table(module: &Module) -> Result<Vec<Option<u32>>, InstanceError> {
    let table_size = module.tables.first().map(|l| l.min).unwrap_or(0);
    let mut table = vec![None; table_size as usize];
    for e in &module.elems {
        for (k, &f) in e.funcs.iter().enumerate() {
            let slot = e.offset as usize + k;
            if slot >= table.len() {
                return Err(InstanceError::ElemSegmentOutOfBounds);
            }
            table[slot] = Some(f);
        }
    }
    Ok(table)
}

/// A live contract instance: memory, globals, table, resolved imports.
#[derive(Debug)]
pub struct Instance {
    compiled: Arc<CompiledModule>,
    /// The instance's linear memory (public so hosts can service APIs like
    /// `read_action_data` between calls).
    pub mem: LinearMemory,
    pub(crate) globals: Vec<Value>,
    pub(crate) table: Vec<Option<u32>>,
    pub(crate) host_ids: Arc<Vec<HostFnId>>,
}

impl Instance {
    /// Instantiate a compiled module, resolving imports against `host` and
    /// applying data/element segments.
    ///
    /// # Errors
    ///
    /// Fails if an import cannot be resolved, a segment is out of bounds, or
    /// an index is invalid.
    pub fn new(compiled: Arc<CompiledModule>, host: &mut dyn Host) -> Result<Self, InstanceError> {
        let host_ids = resolve_imports(&compiled, host)?;
        Self::with_host_ids(compiled, host_ids)
    }

    /// Instantiate with an import table resolved earlier by
    /// [`resolve_imports`] (skips the per-instantiation resolve loop).
    ///
    /// # Errors
    ///
    /// Fails if a segment is out of bounds or an index is invalid.
    pub fn with_host_ids(
        compiled: Arc<CompiledModule>,
        host_ids: Arc<Vec<HostFnId>>,
    ) -> Result<Self, InstanceError> {
        let module = compiled.module.clone();
        let mem = match module.memories.first() {
            Some(l) => LinearMemory::new(l.min, l.max),
            None => LinearMemory::new(0, Some(0)),
        };

        let globals = init_globals(&module)?;
        let table = init_table(&module)?;

        let mut inst = Instance {
            compiled,
            mem,
            globals,
            table,
            host_ids,
        };
        inst.apply_data_segments()?;
        Ok(inst)
    }

    /// Restore the freshly-instantiated state so the instance (and its
    /// linear-memory allocation) can be reused for another top-level call:
    /// memory back to min pages and all zeroes, globals and table re-derived
    /// from their init expressions, data segments re-applied. A reset
    /// instance is indistinguishable from one built by
    /// [`Instance::with_host_ids`].
    ///
    /// # Errors
    ///
    /// The same segment/index validation as instantiation; cannot fail for a
    /// module that instantiated successfully before.
    pub fn reset(&mut self) -> Result<(), InstanceError> {
        self.mem.reset();
        self.globals = init_globals(&self.compiled.module)?;
        self.table = init_table(&self.compiled.module)?;
        self.apply_data_segments()
    }

    fn apply_data_segments(&mut self) -> Result<(), InstanceError> {
        for d in &self.compiled.module.data.clone() {
            self.mem
                .write(d.offset as u64, &d.bytes)
                .map_err(|_| InstanceError::DataSegmentOutOfBounds)?;
        }
        Ok(())
    }

    /// The compiled module this instance runs.
    pub fn compiled(&self) -> &Arc<CompiledModule> {
        &self.compiled
    }

    /// Invoke an exported function by name.
    ///
    /// # Errors
    ///
    /// Traps propagate from execution; a missing export is a `Host` trap.
    pub fn invoke_export(
        &mut self,
        host: &mut dyn Host,
        name: &str,
        args: &[Value],
        fuel: &mut Fuel,
    ) -> Result<Vec<Value>, Trap> {
        let idx = self
            .compiled
            .module
            .exported_func(name)
            .ok_or_else(|| Trap::Host(format!("no exported function named {name}")))?;
        self.invoke(host, idx, args, fuel)
    }

    /// Invoke a function by index.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised during execution.
    pub fn invoke(
        &mut self,
        host: &mut dyn Host,
        func_idx: u32,
        args: &[Value],
        fuel: &mut Fuel,
    ) -> Result<Vec<Value>, Trap> {
        let fuel_before = fuel.0;
        let r = self.call_function(host, func_idx, args, fuel);
        // Fuel only decreases during a call, so the delta is the executed
        // instruction count; one batched counter add per invoke keeps the
        // per-instruction loop untouched.
        wasai_obs::add(
            wasai_obs::Counter::VmInstructions,
            fuel_before.saturating_sub(fuel.0),
        );
        r
    }

    fn call_function(
        &mut self,
        host: &mut dyn Host,
        func_idx: u32,
        args: &[Value],
        fuel: &mut Fuel,
    ) -> Result<Vec<Value>, Trap> {
        let n_imp = self.compiled.module.num_imported_funcs();
        if func_idx < n_imp {
            let id = self.host_ids[func_idx as usize];
            let r = host.call(id, args, &mut self.mem)?;
            return Ok(r.into_iter().collect());
        }
        if self.compiled.tapes.is_some() {
            return tape::run(self, host, func_idx, args, fuel);
        }
        self.run_frames(host, func_idx, args, fuel)
    }

    #[allow(clippy::too_many_lines)]
    fn run_frames(
        &mut self,
        host: &mut dyn Host,
        entry: u32,
        entry_args: &[Value],
        fuel: &mut Fuel,
    ) -> Result<Vec<Value>, Trap> {
        let compiled = self.compiled.clone();
        let module = &*compiled.module;
        let n_imp = module.num_imported_funcs();

        /// What the current frame wants the driver loop to do next.
        enum Next {
            /// Call into another local function with the given arguments.
            Push(u32, Vec<Value>),
            /// The frame finished with these results.
            Pop(Vec<Value>),
        }

        /// One activation record: the per-function sub-stack of EOSVM.
        struct Frame {
            local_i: usize,
            locals: Vec<Value>,
            stack: Vec<Value>,
            labels: Vec<Label>,
            pc: u32,
            result_arity: usize,
        }

        let new_frame = |func_idx: u32, args: Vec<Value>| -> Frame {
            let local_i = (func_idx - n_imp) as usize;
            let f = &module.funcs[local_i];
            let ftype = &module.types[f.type_idx as usize];
            let mut locals = args;
            locals.extend(f.locals.iter().map(|&t| Value::zero(t)));
            Frame {
                local_i,
                locals,
                stack: Vec::new(),
                labels: vec![Label {
                    height: 0,
                    arity: ftype.results.len(),
                    target: f.body.len() as u32,
                    is_loop: false,
                }],
                pc: 0,
                result_arity: ftype.results.len(),
            }
        };

        /// Execute a branch to relative depth `l`; returns the new pc.
        fn do_branch(labels: &mut Vec<Label>, stack: &mut Vec<Value>, l: u32) -> u32 {
            let idx = labels.len() - 1 - l as usize;
            let lab = labels[idx];
            let keep = if lab.is_loop { 0 } else { lab.arity };
            tape::adjust(stack, lab.height, keep);
            // Loops jump back to the Loop instruction, which re-pushes the
            // label; forward branches discard the label.
            labels.truncate(idx);
            lab.target
        }

        let mut frames: Vec<Frame> = vec![new_frame(entry, entry_args.to_vec())];

        loop {
            let next: Next = 'frame: {
                let fi = frames.len() - 1;
                let frame = &mut frames[fi];
                let f = &module.funcs[frame.local_i];
                let targets = &compiled.targets[frame.local_i];
                let body_len = f.body.len() as u32;

                macro_rules! pop {
                    () => {
                        frame.stack.pop().expect("validated stack never underflows")
                    };
                }

                loop {
                    if frame.pc >= body_len {
                        let at = frame.stack.len() - frame.result_arity;
                        let results = frame.stack.split_off(at);
                        break 'frame Next::Pop(results);
                    }
                    fuel.tick()?;
                    let instr = &f.body[frame.pc as usize];
                    let mut next_pc = frame.pc + 1;
                    match instr {
                        Instr::Unreachable => return Err(Trap::Unreachable),
                        Instr::Nop => {}
                        Instr::Block(bt) => {
                            frame.labels.push(Label {
                                height: frame.stack.len(),
                                arity: bt.arity(),
                                target: targets[frame.pc as usize].end_pc + 1,
                                is_loop: false,
                            });
                        }
                        Instr::Loop(_) => {
                            frame.labels.push(Label {
                                height: frame.stack.len(),
                                arity: 0,
                                target: frame.pc,
                                is_loop: true,
                            });
                        }
                        Instr::If(bt) => {
                            let cond = pop!().as_i32();
                            let t = targets[frame.pc as usize];
                            if cond != 0 {
                                frame.labels.push(Label {
                                    height: frame.stack.len(),
                                    arity: bt.arity(),
                                    target: t.end_pc + 1,
                                    is_loop: false,
                                });
                            } else if let Some(else_pc) = t.else_pc {
                                frame.labels.push(Label {
                                    height: frame.stack.len(),
                                    arity: bt.arity(),
                                    target: t.end_pc + 1,
                                    is_loop: false,
                                });
                                next_pc = else_pc + 1;
                            } else {
                                next_pc = t.end_pc + 1;
                            }
                        }
                        Instr::Else => {
                            // Fallthrough from the then-arm: jump past the matching end.
                            let lab = frame.labels.pop().expect("else inside if");
                            next_pc = lab.target;
                        }
                        Instr::End => {
                            frame.labels.pop();
                        }
                        Instr::Br(l) => {
                            next_pc = do_branch(&mut frame.labels, &mut frame.stack, *l)
                        }
                        Instr::BrIf(l) => {
                            let cond = pop!().as_i32();
                            if cond != 0 {
                                next_pc = do_branch(&mut frame.labels, &mut frame.stack, *l);
                            }
                        }
                        Instr::BrTable(table_labels, default) => {
                            let idx = pop!().as_i32() as u32;
                            let l = table_labels.get(idx as usize).copied().unwrap_or(*default);
                            next_pc = do_branch(&mut frame.labels, &mut frame.stack, l);
                        }
                        Instr::Return => {
                            let results = frame
                                .stack
                                .split_off(frame.stack.len() - frame.result_arity);
                            break 'frame Next::Pop(results);
                        }
                        Instr::Call(callee) => {
                            let ft = module.func_type(*callee).ok_or_else(|| {
                                Trap::Host(format!("call target {callee} missing"))
                            })?;
                            let n = ft.params.len();
                            let call_args = frame.stack.split_off(frame.stack.len() - n);
                            if *callee < n_imp {
                                let id = self.host_ids[*callee as usize];
                                let r = host.call(id, &call_args, &mut self.mem)?;
                                frame.stack.extend(r);
                            } else {
                                frame.pc = next_pc;
                                break 'frame Next::Push(*callee, call_args);
                            }
                        }
                        Instr::CallIndirect(type_idx) => {
                            let idx = pop!().as_i32() as u32;
                            let slot = self
                                .table
                                .get(idx as usize)
                                .copied()
                                .ok_or(Trap::TableOutOfBounds)?;
                            let callee = slot.ok_or(Trap::UndefinedElement)?;
                            let expected = module
                                .types
                                .get(*type_idx as usize)
                                .ok_or_else(|| Trap::Host(format!("bad type index {type_idx}")))?;
                            let actual = module
                                .func_type(callee)
                                .ok_or_else(|| Trap::Host(format!("bad table target {callee}")))?;
                            if expected != actual {
                                return Err(Trap::IndirectCallTypeMismatch);
                            }
                            let n = expected.params.len();
                            let call_args = frame.stack.split_off(frame.stack.len() - n);
                            if callee < n_imp {
                                let id = self.host_ids[callee as usize];
                                let r = host.call(id, &call_args, &mut self.mem)?;
                                frame.stack.extend(r);
                            } else {
                                frame.pc = next_pc;
                                break 'frame Next::Push(callee, call_args);
                            }
                        }
                        Instr::Drop => {
                            pop!();
                        }
                        Instr::Select => {
                            let cond = pop!().as_i32();
                            let b = pop!();
                            let a = pop!();
                            frame.stack.push(if cond != 0 { a } else { b });
                        }
                        Instr::LocalGet(x) => frame.stack.push(frame.locals[*x as usize]),
                        Instr::LocalSet(x) => frame.locals[*x as usize] = pop!(),
                        Instr::LocalTee(x) => {
                            frame.locals[*x as usize] = *frame.stack.last().expect("tee operand");
                        }
                        Instr::GlobalGet(x) => frame.stack.push(self.globals[*x as usize]),
                        Instr::GlobalSet(x) => self.globals[*x as usize] = pop!(),
                        Instr::MemorySize => {
                            frame.stack.push(Value::I32(self.mem.size_pages() as i32))
                        }
                        Instr::MemoryGrow => {
                            let delta = pop!().as_i32();
                            let r = if delta < 0 {
                                -1
                            } else {
                                self.mem.grow(delta as u32)
                            };
                            frame.stack.push(Value::I32(r));
                        }
                        Instr::I32Const(v) => frame.stack.push(Value::I32(*v)),
                        Instr::I64Const(v) => frame.stack.push(Value::I64(*v)),
                        Instr::F32Const(v) => frame.stack.push(Value::F32(*v)),
                        Instr::F64Const(v) => frame.stack.push(Value::F64(*v)),

                        // Loads / stores.
                        other if other.memory_access().is_some() => {
                            let acc = other.memory_access().expect("guarded");
                            let m = other.mem_arg().expect("memory instr has memarg");
                            if acc.is_store {
                                let value = pop!();
                                let base = pop!().as_i32() as u32 as u64;
                                let addr = base + m.offset as u64;
                                self.mem.store_uint(addr, acc.bytes, value.to_bits())?;
                            } else {
                                let base = pop!().as_i32() as u32 as u64;
                                let addr = base + m.offset as u64;
                                let raw = self.mem.load_uint(addr, acc.bytes)?;
                                let v = numeric::extend_loaded(
                                    raw,
                                    acc.bytes,
                                    acc.signed,
                                    acc.val_type,
                                );
                                frame.stack.push(v);
                            }
                        }

                        // Numeric tail (compares, arithmetic, conversions):
                        // shared with the tape executor via [`numeric::exec`]
                        // so the two dispatch loops cannot drift.
                        other => numeric::exec(other, &mut frame.stack)?,
                    }

                    frame.pc = next_pc;
                }
            };
            match next {
                Next::Push(callee, args) => {
                    if frames.len() as u32 >= MAX_CALL_DEPTH {
                        return Err(Trap::CallStackExhausted);
                    }
                    frames.push(new_frame(callee, args));
                }
                Next::Pop(results) => {
                    frames.pop();
                    match frames.last_mut() {
                        None => return Ok(results),
                        Some(parent) => parent.stack.extend(results),
                    }
                }
            }
        }
    }
}
