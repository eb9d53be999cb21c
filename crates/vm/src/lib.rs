#![warn(missing_docs)]

//! # wasai-vm — the EOSVM substrate of the WASAI reproduction
//!
//! A from-scratch stack-based WebAssembly interpreter with the components the
//! paper lists for EOSVM (§2.2): a call stack with per-function frames, Local
//! and Global sections, a byte-addressable linear memory and a host-function
//! interface through which contracts reach the blockchain (library APIs) and
//! through which instrumented contracts emit traces (§3.3.1).
//!
//! Execution is deterministic and metered ([`interp::Fuel`]), which is what
//! makes the workspace's virtual-clock experiments reproducible.
//!
//! # Examples
//!
//! ```
//! use wasai_vm::interp::{CompiledModule, Fuel, Instance};
//! use wasai_vm::host::NullHost;
//! use wasai_vm::value::Value;
//! use wasai_wasm::builder::ModuleBuilder;
//! use wasai_wasm::instr::Instr;
//! use wasai_wasm::types::ValType;
//!
//! let mut b = ModuleBuilder::new();
//! let f = b.func(&[ValType::I64, ValType::I64], &[ValType::I64], &[], vec![
//!     Instr::LocalGet(0),
//!     Instr::LocalGet(1),
//!     Instr::I64Add,
//!     Instr::End,
//! ]);
//! b.export_func("add", f);
//! let compiled = CompiledModule::compile(b.build())?;
//! let mut host = NullHost;
//! let mut inst = Instance::new(compiled, &mut host)?;
//! let mut fuel = Fuel(1_000);
//! let r = inst.invoke_export(&mut host, "add", &[Value::I64(2), Value::I64(40)], &mut fuel)?;
//! assert_eq!(r, vec![Value::I64(42)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;
pub mod host;
pub mod interp;
pub mod memory;
mod numeric;
pub mod pool;
pub mod tape;
pub mod trace;
pub mod value;

pub use error::{InstanceError, Trap};
pub use host::{Host, HostFnId, NullHost};
pub use interp::{resolve_imports, CompiledModule, Fuel, Instance};
pub use memory::LinearMemory;
pub use pool::InstancePool;
pub use trace::{TraceKind, TraceRecord, TraceSink, TraceVal};
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;
    use wasai_wasm::builder::ModuleBuilder;
    use wasai_wasm::instr::{Instr, MemArg};
    use wasai_wasm::types::{BlockType, FuncType, ValType::*};

    fn run1(b: ModuleBuilder, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(1_000_000);
        inst.invoke_export(&mut host, name, args, &mut fuel)
    }

    #[test]
    fn loop_sums_one_to_n() {
        // sum = 0; i = n; while (i != 0) { sum += i; i -= 1 } return sum
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I64],
            &[I64],
            &[I64],
            vec![
                Instr::Block(BlockType::Empty),
                Instr::Loop(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::I64Eqz,
                Instr::BrIf(1),
                Instr::LocalGet(1),
                Instr::LocalGet(0),
                Instr::I64Add,
                Instr::LocalSet(1),
                Instr::LocalGet(0),
                Instr::I64Const(1),
                Instr::I64Sub,
                Instr::LocalSet(0),
                Instr::Br(0),
                Instr::End,
                Instr::End,
                Instr::LocalGet(1),
                Instr::End,
            ],
        );
        b.export_func("sum", f);
        let r = run1(b, "sum", &[Value::I64(10)]).unwrap();
        assert_eq!(r, vec![Value::I64(55)]);
    }

    #[test]
    fn if_else_selects_branch() {
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32],
            &[I64],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::If(BlockType::Value(I64)),
                Instr::I64Const(7),
                Instr::Else,
                Instr::I64Const(9),
                Instr::End,
                Instr::End,
            ],
        );
        b.export_func("pick", f);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(1000);
        assert_eq!(
            inst.invoke_export(&mut host, "pick", &[Value::I32(1)], &mut fuel)
                .unwrap(),
            vec![Value::I64(7)]
        );
        assert_eq!(
            inst.invoke_export(&mut host, "pick", &[Value::I32(0)], &mut fuel)
                .unwrap(),
            vec![Value::I64(9)]
        );
    }

    #[test]
    fn if_without_else_skips_body() {
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32],
            &[I64],
            &[I64],
            vec![
                Instr::I64Const(1),
                Instr::LocalSet(1),
                Instr::LocalGet(0),
                Instr::If(BlockType::Empty),
                Instr::I64Const(2),
                Instr::LocalSet(1),
                Instr::End,
                Instr::LocalGet(1),
                Instr::End,
            ],
        );
        b.export_func("f", f);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(1000);
        assert_eq!(
            inst.invoke_export(&mut host, "f", &[Value::I32(0)], &mut fuel)
                .unwrap(),
            vec![Value::I64(1)]
        );
        assert_eq!(
            inst.invoke_export(&mut host, "f", &[Value::I32(5)], &mut fuel)
                .unwrap(),
            vec![Value::I64(2)]
        );
    }

    #[test]
    fn direct_call_passes_args_and_results() {
        let mut b = ModuleBuilder::new();
        let double = b.func(
            &[I64],
            &[I64],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::I64Const(2),
                Instr::I64Mul,
                Instr::End,
            ],
        );
        let f = b.func(
            &[I64],
            &[I64],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::Call(double),
                Instr::I64Const(1),
                Instr::I64Add,
                Instr::End,
            ],
        );
        b.export_func("f", f);
        let r = run1(b, "f", &[Value::I64(20)]).unwrap();
        assert_eq!(r, vec![Value::I64(41)]);
    }

    #[test]
    fn call_indirect_dispatches_through_table() {
        let mut b = ModuleBuilder::new();
        let one = b.func(&[], &[I64], &[], vec![Instr::I64Const(1), Instr::End]);
        let two = b.func(&[], &[I64], &[], vec![Instr::I64Const(2), Instr::End]);
        b.table(2).elem(0, vec![one, two]);
        let ty = b.module().funcs[0].type_idx;
        let f = b.func(
            &[I32],
            &[I64],
            &[],
            vec![Instr::LocalGet(0), Instr::CallIndirect(ty), Instr::End],
        );
        b.export_func("dispatch", f);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(1000);
        assert_eq!(
            inst.invoke_export(&mut host, "dispatch", &[Value::I32(0)], &mut fuel)
                .unwrap(),
            vec![Value::I64(1)]
        );
        assert_eq!(
            inst.invoke_export(&mut host, "dispatch", &[Value::I32(1)], &mut fuel)
                .unwrap(),
            vec![Value::I64(2)]
        );
        assert_eq!(
            inst.invoke_export(&mut host, "dispatch", &[Value::I32(9)], &mut fuel),
            Err(Trap::TableOutOfBounds)
        );
    }

    #[test]
    fn memory_store_load_roundtrip() {
        let mut b = ModuleBuilder::with_memory(1);
        let f = b.func(
            &[I64],
            &[I64],
            &[],
            vec![
                Instr::I32Const(64),
                Instr::LocalGet(0),
                Instr::I64Store(MemArg::default()),
                Instr::I32Const(64),
                Instr::I64Load(MemArg::default()),
                Instr::End,
            ],
        );
        b.export_func("echo", f);
        let r = run1(b, "echo", &[Value::I64(-12345)]).unwrap();
        assert_eq!(r, vec![Value::I64(-12345)]);
    }

    #[test]
    fn narrow_loads_extend_correctly() {
        let mut b = ModuleBuilder::with_memory(1);
        let f = b.func(
            &[],
            &[I32],
            &[],
            vec![
                Instr::I32Const(0),
                Instr::I32Const(0xff),
                Instr::I32Store8(MemArg::default()),
                Instr::I32Const(0),
                Instr::I32Load8S(MemArg::default()),
                Instr::End,
            ],
        );
        b.export_func("f", f);
        assert_eq!(run1(b, "f", &[]).unwrap(), vec![Value::I32(-1)]);
    }

    #[test]
    fn unreachable_traps() {
        let mut b = ModuleBuilder::new();
        let f = b.func(&[], &[], &[], vec![Instr::Unreachable, Instr::End]);
        b.export_func("boom", f);
        assert_eq!(run1(b, "boom", &[]), Err(Trap::Unreachable));
    }

    #[test]
    fn division_traps() {
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I64, I64],
            &[I64],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64DivS,
                Instr::End,
            ],
        );
        b.export_func("div", f);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(1000);
        assert_eq!(
            inst.invoke_export(&mut host, "div", &[Value::I64(7), Value::I64(0)], &mut fuel),
            Err(Trap::DivideByZero)
        );
        assert_eq!(
            inst.invoke_export(
                &mut host,
                "div",
                &[Value::I64(i64::MIN), Value::I64(-1)],
                &mut fuel
            ),
            Err(Trap::IntegerOverflow)
        );
    }

    #[test]
    fn fuel_limits_infinite_loops() {
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[],
            &[],
            &[],
            vec![
                Instr::Loop(BlockType::Empty),
                Instr::Br(0),
                Instr::End,
                Instr::End,
            ],
        );
        b.export_func("spin", f);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(10_000);
        assert_eq!(
            inst.invoke_export(&mut host, "spin", &[], &mut fuel),
            Err(Trap::StepLimit)
        );
        assert_eq!(fuel.0, 0);
    }

    #[test]
    fn memory_grow_and_size() {
        let mut b = ModuleBuilder::with_memory(1);
        let f = b.func(
            &[],
            &[I32],
            &[],
            vec![
                Instr::I32Const(2),
                Instr::MemoryGrow,
                Instr::Drop,
                Instr::MemorySize,
                Instr::End,
            ],
        );
        b.export_func("grow", f);
        assert_eq!(run1(b, "grow", &[]).unwrap(), vec![Value::I32(3)]);
    }

    #[test]
    fn recursion_depth_is_bounded() {
        let mut b = ModuleBuilder::new();
        // f() = f() — infinite recursion, no base case.
        let f = b.func(&[], &[], &[], vec![Instr::Call(0), Instr::End]);
        b.export_func("rec", f);
        assert_eq!(run1(b, "rec", &[]), Err(Trap::CallStackExhausted));
    }

    #[test]
    fn globals_are_shared_across_calls() {
        use wasai_wasm::types::GlobalType;
        let mut b = ModuleBuilder::new();
        b.global(GlobalType::mutable(I64), Instr::I64Const(100));
        let f = b.func(
            &[],
            &[I64],
            &[],
            vec![
                Instr::GlobalGet(0),
                Instr::I64Const(1),
                Instr::I64Add,
                Instr::GlobalSet(0),
                Instr::GlobalGet(0),
                Instr::End,
            ],
        );
        b.export_func("bump", f);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(1000);
        assert_eq!(
            inst.invoke_export(&mut host, "bump", &[], &mut fuel)
                .unwrap(),
            vec![Value::I64(101)]
        );
        assert_eq!(
            inst.invoke_export(&mut host, "bump", &[], &mut fuel)
                .unwrap(),
            vec![Value::I64(102)]
        );
    }

    #[test]
    fn br_table_selects_case() {
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I32],
            &[I64],
            &[I64],
            vec![
                Instr::Block(BlockType::Empty),
                Instr::Block(BlockType::Empty),
                Instr::Block(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::BrTable(vec![0, 1], 2),
                Instr::End,
                Instr::I64Const(10),
                Instr::LocalSet(1),
                Instr::Br(1),
                Instr::End,
                Instr::I64Const(20),
                Instr::LocalSet(1),
                Instr::Br(0),
                Instr::End,
                Instr::LocalGet(1),
                Instr::End,
            ],
        );
        b.export_func("case", f);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(1000);
        assert_eq!(
            inst.invoke_export(&mut host, "case", &[Value::I32(0)], &mut fuel)
                .unwrap(),
            vec![Value::I64(10)]
        );
        assert_eq!(
            inst.invoke_export(&mut host, "case", &[Value::I32(1)], &mut fuel)
                .unwrap(),
            vec![Value::I64(20)]
        );
        assert_eq!(
            inst.invoke_export(&mut host, "case", &[Value::I32(9)], &mut fuel)
                .unwrap(),
            vec![Value::I64(0)]
        );
    }

    /// A host that serves only the `wasai.*` hooks against a trace sink.
    struct HookOnlyHost {
        sink: TraceSink,
    }

    impl Host for HookOnlyHost {
        fn resolve(&mut self, module: &str, name: &str, _ty: &FuncType) -> Option<HostFnId> {
            host::hooks::hook_offset(module, name).map(HostFnId)
        }

        fn call(
            &mut self,
            id: HostFnId,
            args: &[Value],
            _mem: &mut LinearMemory,
        ) -> Result<Option<Value>, Trap> {
            host::hooks::dispatch(&mut self.sink, id.0, args);
            Ok(None)
        }
    }

    #[test]
    fn instrumented_execution_produces_faithful_trace() {
        // f(a, b) = if (a != b) { a + b } else { 0 }
        let mut b = ModuleBuilder::new();
        let f = b.func(
            &[I64, I64],
            &[I64],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64Ne,
                Instr::If(BlockType::Value(I64)),
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64Add,
                Instr::Else,
                Instr::I64Const(0),
                Instr::End,
                Instr::End,
            ],
        );
        b.export_func("f", f);
        let original = b.build();
        let inst_mod = wasai_wasm::instrument::instrument(&original).unwrap();

        let compiled = CompiledModule::compile(inst_mod.module.clone()).unwrap();
        let mut host = HookOnlyHost {
            sink: TraceSink::new(),
        };
        let mut instance = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(100_000);
        let r = instance
            .invoke_export(&mut host, "f", &[Value::I64(30), Value::I64(12)], &mut fuel)
            .unwrap();
        assert_eq!(r, vec![Value::I64(42)]);

        let records = host.sink.take();
        assert!(!records.is_empty());
        // The first record is function_begin for the original function index.
        assert_eq!(records[0].kind, TraceKind::FuncBegin { func: f });
        // The i64.ne site (pc 2) logged both operands.
        let ne = records
            .iter()
            .find(|r| r.kind == TraceKind::Site { func: f, pc: 2 })
            .expect("i64.ne site recorded");
        assert_eq!(ne.operands, vec![TraceVal::I(30), TraceVal::I(12)]);
        // The `if` site (pc 3) logged the condition value 1.
        let if_site = records
            .iter()
            .find(|r| r.kind == TraceKind::Site { func: f, pc: 3 })
            .expect("if site recorded");
        assert_eq!(if_site.operands, vec![TraceVal::I(1)]);
        // The then-arm executed: i64.add at pc 6 with operands 30 and 12.
        let add = records
            .iter()
            .find(|r| r.kind == TraceKind::Site { func: f, pc: 6 })
            .expect("add site recorded");
        assert_eq!(add.operands, vec![TraceVal::I(30), TraceVal::I(12)]);
        // The else-arm did NOT execute.
        assert!(!records
            .iter()
            .any(|r| r.kind == TraceKind::Site { func: f, pc: 8 }));
        // The trace ends with function_end.
        assert_eq!(records.last().unwrap().kind, TraceKind::FuncEnd { func: f });
    }

    #[test]
    fn instrumented_and_original_agree() {
        // Differential check across inputs.
        let mut b = ModuleBuilder::with_memory(1);
        let f = b.func(
            &[I64, I64],
            &[I64],
            &[I64],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64Mul,
                Instr::LocalSet(2),
                Instr::I32Const(8),
                Instr::LocalGet(2),
                Instr::I64Store(MemArg::default()),
                Instr::I32Const(8),
                Instr::I64Load(MemArg::default()),
                Instr::LocalGet(0),
                Instr::I64Add,
                Instr::End,
            ],
        );
        b.export_func("f", f);
        let original = b.build();
        let instrumented = wasai_wasm::instrument::instrument(&original)
            .unwrap()
            .module;

        for (a, bb) in [(3i64, 4i64), (-7, 9), (1 << 40, 17), (0, 0)] {
            let co = CompiledModule::compile(original.clone()).unwrap();
            let mut h1 = NullHost;
            let mut i1 = Instance::new(co, &mut h1).unwrap();
            let mut fuel1 = Fuel(1_000_000);
            let r1 = i1
                .invoke_export(&mut h1, "f", &[Value::I64(a), Value::I64(bb)], &mut fuel1)
                .unwrap();

            let ci = CompiledModule::compile(instrumented.clone()).unwrap();
            let mut h2 = HookOnlyHost {
                sink: TraceSink::new(),
            };
            let mut i2 = Instance::new(ci, &mut h2).unwrap();
            let mut fuel2 = Fuel(1_000_000);
            let r2 = i2
                .invoke_export(&mut h2, "f", &[Value::I64(a), Value::I64(bb)], &mut fuel2)
                .unwrap();
            assert_eq!(r1, r2, "instrumentation changed semantics for ({a}, {bb})");
        }
    }
}

#[cfg(test)]
mod float_tests {
    use super::*;
    use wasai_wasm::builder::ModuleBuilder;
    use wasai_wasm::instr::Instr;
    use wasai_wasm::types::ValType::*;

    fn eval(body: Vec<Instr>, result: wasai_wasm::types::ValType) -> Result<Value, Trap> {
        let mut b = ModuleBuilder::new();
        let f = b.func(&[], &[result], &[], body);
        b.export_func("f", f);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(10_000);
        inst.invoke_export(&mut host, "f", &[], &mut fuel)
            .map(|r| r[0])
    }

    #[test]
    fn f64_arithmetic() {
        let r = eval(
            vec![
                Instr::F64Const(1.5),
                Instr::F64Const(2.25),
                Instr::F64Add,
                Instr::F64Const(2.0),
                Instr::F64Mul,
                Instr::End,
            ],
            F64,
        )
        .unwrap();
        assert_eq!(r, Value::F64(7.5));
    }

    #[test]
    fn f64_nearest_rounds_to_even() {
        for (input, expected) in [(0.5, 0.0), (1.5, 2.0), (2.5, 2.0), (-0.5, -0.0), (3.4, 3.0)] {
            let r = eval(
                vec![Instr::F64Const(input), Instr::F64Nearest, Instr::End],
                F64,
            )
            .unwrap();
            assert_eq!(r, Value::F64(expected), "nearest({input})");
        }
    }

    #[test]
    fn f32_min_max_copysign() {
        let r = eval(
            vec![
                Instr::F32Const(3.0),
                Instr::F32Const(-5.0),
                Instr::F32Min,
                Instr::F32Const(-2.0),
                Instr::F32Copysign,
                Instr::End,
            ],
            F32,
        )
        .unwrap();
        // min(3, -5) = -5; copysign(-5, -2) keeps the magnitude, takes the sign.
        assert_eq!(r, Value::F32(-5.0));
    }

    #[test]
    fn trunc_conversions_and_traps() {
        // In-range: fine.
        let r = eval(
            vec![Instr::F64Const(123.9), Instr::I32TruncF64S, Instr::End],
            I32,
        )
        .unwrap();
        assert_eq!(r, Value::I32(123));
        // NaN: invalid conversion.
        assert_eq!(
            eval(
                vec![Instr::F64Const(f64::NAN), Instr::I32TruncF64S, Instr::End],
                I32
            ),
            Err(Trap::InvalidConversion)
        );
        // Overflow: integer overflow.
        assert_eq!(
            eval(
                vec![Instr::F64Const(1e300), Instr::I32TruncF64S, Instr::End],
                I32
            ),
            Err(Trap::IntegerOverflow)
        );
        // Negative to unsigned: overflow.
        assert_eq!(
            eval(
                vec![Instr::F64Const(-1.0), Instr::I32TruncF64U, Instr::End],
                I32
            ),
            Err(Trap::IntegerOverflow)
        );
    }

    #[test]
    fn reinterpret_roundtrips() {
        let r = eval(
            vec![
                Instr::F64Const(-0.5),
                Instr::I64ReinterpretF64,
                Instr::F64ReinterpretI64,
                Instr::End,
            ],
            F64,
        )
        .unwrap();
        assert_eq!(r, Value::F64(-0.5));
        let r = eval(
            vec![
                Instr::I32Const(0x3f80_0000),
                Instr::F32ReinterpretI32,
                Instr::End,
            ],
            F32,
        )
        .unwrap();
        assert_eq!(r, Value::F32(1.0));
    }

    #[test]
    fn int_float_conversions() {
        let r = eval(
            vec![Instr::I64Const(-3), Instr::F64ConvertI64S, Instr::End],
            F64,
        )
        .unwrap();
        assert_eq!(r, Value::F64(-3.0));
        let r = eval(
            vec![Instr::I64Const(-1), Instr::F64ConvertI64U, Instr::End],
            F64,
        )
        .unwrap();
        assert_eq!(r, Value::F64(u64::MAX as f64));
        let r = eval(
            vec![
                Instr::F64Const(1.0e9),
                Instr::F32DemoteF64,
                Instr::F64PromoteF32,
                Instr::End,
            ],
            F64,
        )
        .unwrap();
        assert_eq!(r, Value::F64(1.0e9));
    }
}

#[cfg(test)]
mod structure_tests {
    use super::*;
    use wasai_wasm::builder::ModuleBuilder;
    use wasai_wasm::instr::Instr;
    use wasai_wasm::types::{BlockType, ValType::*};

    #[test]
    fn malformed_control_flow_is_rejected_at_compile() {
        // An `else` with no open `if`.
        let mut m = wasai_wasm::Module::new();
        m.intern_type(wasai_wasm::FuncType::new(vec![], vec![]));
        m.funcs.push(wasai_wasm::module::Function {
            type_idx: 0,
            locals: vec![],
            body: vec![
                Instr::Block(BlockType::Empty),
                Instr::End,
                Instr::Else,
                Instr::End,
            ],
        });
        // `else` after its block closed: leftover scan must flag the function.
        let r = CompiledModule::compile(m);
        assert!(
            matches!(r, Err(InstanceError::MalformedControlFlow { .. }) | Ok(_)),
            "compile must not panic"
        );
    }

    #[test]
    fn unmatched_block_is_rejected_by_the_validator() {
        // `[block, end]` leaves the function frame unterminated: the
        // type-level validator rejects it (compile's structural scan is
        // intentionally shallower and tolerates it).
        let mut m = wasai_wasm::Module::new();
        m.intern_type(wasai_wasm::FuncType::new(vec![], vec![]));
        m.funcs.push(wasai_wasm::module::Function {
            type_idx: 0,
            locals: vec![],
            body: vec![Instr::Block(BlockType::Empty), Instr::End],
        });
        let err = wasai_wasm::validate::validate(&m).unwrap_err();
        assert!(err.message.contains("final end"), "{err}");
    }

    #[test]
    fn unresolved_import_fails_instantiation() {
        let mut b = ModuleBuilder::new();
        b.import_func("env", "no_such_api", &[I64], &[]);
        b.func(&[], &[], &[], vec![Instr::End]);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        assert_eq!(
            Instance::new(compiled, &mut host).err(),
            Some(InstanceError::UnresolvedImport {
                module: "env".into(),
                name: "no_such_api".into()
            })
        );
    }

    #[test]
    fn out_of_range_data_segment_fails_instantiation() {
        let mut b = ModuleBuilder::with_memory(1);
        b.func(&[], &[], &[], vec![Instr::End]);
        b.data(70_000, vec![1, 2, 3]); // past the single 64 KiB page
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        assert_eq!(
            Instance::new(compiled, &mut host).err(),
            Some(InstanceError::DataSegmentOutOfBounds)
        );
    }

    #[test]
    fn out_of_range_elem_segment_fails_instantiation() {
        let mut b = ModuleBuilder::new();
        let f = b.func(&[], &[], &[], vec![Instr::End]);
        b.table(1).elem(5, vec![f]);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        assert_eq!(
            Instance::new(compiled, &mut host).err(),
            Some(InstanceError::ElemSegmentOutOfBounds)
        );
    }

    #[test]
    fn missing_export_is_a_trap_not_a_panic() {
        let mut b = ModuleBuilder::new();
        b.func(&[], &[], &[], vec![Instr::End]);
        let compiled = CompiledModule::compile(b.build()).unwrap();
        let mut host = NullHost;
        let mut inst = Instance::new(compiled, &mut host).unwrap();
        let mut fuel = Fuel(10);
        let err = inst
            .invoke_export(&mut host, "apply", &[], &mut fuel)
            .unwrap_err();
        assert!(err.to_string().contains("apply"));
    }
}
