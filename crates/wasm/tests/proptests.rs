//! Property tests over randomly generated (valid-by-construction) modules:
//! the binary format round-trips, the validator accepts what the generator
//! builds, instrumentation preserves behaviour bit for bit, and the VM's
//! compiled tape agrees with its reference interpreter.

use std::sync::Arc;

use proptest::prelude::*;
use wasai_vm::{CompiledModule, Fuel, Host, HostFnId, Instance, TraceRecord, Trap, Value};

use wasai_wasm::builder::ModuleBuilder;
use wasai_wasm::instr::Instr;
use wasai_wasm::types::{BlockType, ValType};
use wasai_wasm::Module;

/// One step of a stack program over i64 values, trap-free by construction.
#[derive(Debug, Clone)]
enum Step {
    Const(i64),
    GetParam(u8),
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl(u8),
    Rotl(u8),
    Popcnt,
    Eqz,
    EqConst(i64),
    LtUParams,
    IfNonZero,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<i64>().prop_map(Step::Const),
        (0u8..2).prop_map(Step::GetParam),
        Just(Step::Add),
        Just(Step::Sub),
        Just(Step::Mul),
        Just(Step::And),
        Just(Step::Or),
        Just(Step::Xor),
        (0u8..63).prop_map(Step::Shl),
        (0u8..63).prop_map(Step::Rotl),
        Just(Step::Popcnt),
        Just(Step::Eqz),
        any::<i64>().prop_map(Step::EqConst),
        Just(Step::LtUParams),
        Just(Step::IfNonZero),
    ]
}

/// A call argument: uniform, or one of the edge values 0, 1, -1, MIN and
/// MAX, so that two arguments are often equal.
fn arb_arg() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        Just(0),
        Just(1),
        Just(-1),
        Just(i64::MIN),
        Just(i64::MAX),
    ]
}

/// Lower steps into a valid `(i64, i64) -> i64` function body. Tracks the
/// i64 stack depth so every instruction is well-typed; `IfNonZero` wraps
/// the current accumulator in a conditional that doubles it.
fn build_module(steps: &[Step]) -> Module {
    let mut b = ModuleBuilder::with_memory(1);
    let mut body: Vec<Instr> = vec![Instr::LocalGet(0)];
    let mut depth = 1usize; // i64 values on the stack
    for s in steps {
        match s {
            Step::Const(v) => {
                body.push(Instr::I64Const(*v));
                depth += 1;
            }
            Step::GetParam(p) => {
                body.push(Instr::LocalGet(*p as u32 % 2));
                depth += 1;
            }
            Step::Add | Step::Sub | Step::Mul | Step::And | Step::Or | Step::Xor if depth >= 2 => {
                body.push(match s {
                    Step::Add => Instr::I64Add,
                    Step::Sub => Instr::I64Sub,
                    Step::Mul => Instr::I64Mul,
                    Step::And => Instr::I64And,
                    Step::Or => Instr::I64Or,
                    _ => Instr::I64Xor,
                });
                depth -= 1;
            }
            Step::Shl(k) => {
                body.push(Instr::I64Const(*k as i64));
                body.push(Instr::I64Shl);
            }
            Step::Rotl(k) => {
                body.push(Instr::I64Const(*k as i64));
                body.push(Instr::I64Rotl);
            }
            Step::Popcnt => body.push(Instr::I64Popcnt),
            Step::Eqz => {
                body.push(Instr::I64Eqz);
                body.push(Instr::I64ExtendI32U);
            }
            Step::EqConst(v) => {
                body.push(Instr::I64Const(*v));
                body.push(Instr::I64Eq);
                body.push(Instr::I64ExtendI32U);
            }
            Step::LtUParams => {
                // The `local.get; local.get; <cmp>` window the tape fuses.
                body.push(Instr::LocalGet(0));
                body.push(Instr::LocalGet(1));
                body.push(Instr::I64LtU);
                body.push(Instr::I64ExtendI32U);
                depth += 1;
            }
            Step::IfNonZero => {
                // if (top != 0) { top *= 2 } — consumes and restores depth.
                body.push(Instr::LocalSet(2));
                body.push(Instr::LocalGet(2));
                body.push(Instr::I64Const(0));
                body.push(Instr::I64Ne);
                body.push(Instr::If(BlockType::Empty));
                body.push(Instr::LocalGet(2));
                body.push(Instr::I64Const(2));
                body.push(Instr::I64Mul);
                body.push(Instr::LocalSet(2));
                body.push(Instr::End);
                body.push(Instr::LocalGet(2));
            }
            _ => {} // binary op with depth < 2: skip
        }
    }
    // Fold everything down to one value.
    while depth > 1 {
        body.push(Instr::I64Xor);
        depth -= 1;
    }
    body.push(Instr::End);
    let f = b.func(
        &[ValType::I64, ValType::I64],
        &[ValType::I64],
        &[ValType::I64],
        body,
    );
    b.export_func("f", f);
    b.build()
}

/// Records the hook calls of an instrumented module; plain modules import
/// nothing, so it is never called for them.
struct HookHost(wasai_vm::TraceSink);

impl Host for HookHost {
    fn resolve(
        &mut self,
        module: &str,
        name: &str,
        _ty: &wasai_wasm::types::FuncType,
    ) -> Option<HostFnId> {
        wasai_vm::host::hooks::hook_offset(module, name).map(HostFnId)
    }
    fn call(
        &mut self,
        id: HostFnId,
        args: &[Value],
        _mem: &mut wasai_vm::LinearMemory,
    ) -> Result<Option<Value>, Trap> {
        wasai_vm::host::hooks::dispatch(&mut self.0, id.0, args);
        Ok(None)
    }
}

/// `module`, instrumented when `trace` is set, compiled to tapes (`fast`)
/// or for the reference interpreter only.
fn compile(module: &Module, trace: bool, fast: bool) -> Arc<CompiledModule> {
    let module = if trace {
        wasai_wasm::instrument::instrument(module)
            .expect("instrumentable")
            .module
    } else {
        module.clone()
    };
    if fast {
        CompiledModule::compile(module).expect("compiles")
    } else {
        CompiledModule::compile_reference(module).expect("compiles")
    }
}

/// One `f(a, b)` call with `budget` fuel: its result or trap, the fuel left
/// and the hook trace.
fn invoke(
    compiled: &Arc<CompiledModule>,
    a: i64,
    b: i64,
    budget: u64,
) -> (Result<Vec<Value>, Trap>, Fuel, Vec<TraceRecord>) {
    let mut host = HookHost(wasai_vm::TraceSink::new());
    let mut inst = Instance::new(compiled.clone(), &mut host).expect("instantiates");
    let mut fuel = Fuel(budget);
    let r = inst.invoke_export(&mut host, "f", &[Value::I64(a), Value::I64(b)], &mut fuel);
    (r, fuel, host.0.take())
}

fn run(module: Module, a: i64, b: i64, trace: bool) -> i64 {
    let (r, _, _) = invoke(&compile(&module, trace, true), a, b, 10_000_000);
    r.expect("trap-free by construction")[0].as_i64()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated modules validate and survive the binary round trip.
    #[test]
    fn roundtrip_and_validate(steps in prop::collection::vec(arb_step(), 0..40)) {
        let m = build_module(&steps);
        wasai_wasm::validate::validate(&m).expect("valid by construction");
        let bytes = wasai_wasm::encode::encode(&m);
        let back = wasai_wasm::decode::decode(&bytes).expect("decodes");
        prop_assert_eq!(back, m);
    }

    /// Instrumentation is semantics-preserving on random programs.
    #[test]
    fn instrumentation_preserves_behaviour(
        steps in prop::collection::vec(arb_step(), 0..30),
        a: i64,
        b: i64,
    ) {
        let m = build_module(&steps);
        let plain = run(m.clone(), a, b, false);
        let traced = run(m, a, b, true);
        prop_assert_eq!(plain, traced);
    }

    /// The compiled tape is bit-exact against the reference interpreter on
    /// plain and instrumented modules: the same result or trap, the same
    /// fuel left and the same trace at every budget from zero to one past
    /// what the call needs, so every fuel batch is cut at every op.
    #[test]
    fn tape_matches_reference(
        steps in prop::collection::vec(arb_step(), 0..30),
        a in arb_arg(),
        b in arb_arg(),
    ) {
        let m = build_module(&steps);
        for trace in [false, true] {
            let fast = compile(&m, trace, true);
            prop_assert!(fast.has_fast_path(), "lowering bailed");
            let refr = compile(&m, trace, false);
            let (_, Fuel(left), _) = invoke(&refr, a, b, u64::MAX);
            let need = u64::MAX - left;
            for budget in 0..=need + 1 {
                prop_assert_eq!(
                    invoke(&fast, a, b, budget),
                    invoke(&refr, a, b, budget),
                    "trace {} budget {} of {}", trace, budget, need
                );
            }
        }
    }

    /// The instrumented module still validates, whatever the program.
    #[test]
    fn instrumented_modules_validate(steps in prop::collection::vec(arb_step(), 0..40)) {
        let m = build_module(&steps);
        let inst = wasai_wasm::instrument::instrument(&m).expect("instrumentable");
        wasai_wasm::validate::validate(&inst.module).expect("instrumented output valid");
    }

    /// LEB128 encoders round-trip through the decoder at every width.
    #[test]
    fn leb128_roundtrip(v: u64, s: i64) {
        let mut buf = Vec::new();
        wasai_wasm::encode::write_u64(&mut buf, v);
        wasai_wasm::encode::write_i64(&mut buf, s);
        // Decode through a module containing the const (exercises the
        // public decoder path).
        let mut b = ModuleBuilder::new();
        b.func(&[], &[ValType::I64], &[], vec![Instr::I64Const(s), Instr::End]);
        let m = b.build();
        let bytes = wasai_wasm::encode::encode(&m);
        prop_assert_eq!(wasai_wasm::decode::decode(&bytes).expect("decodes"), m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The decoder never panics on arbitrary bytes — it returns errors.
    #[test]
    fn decoder_is_panic_free(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = wasai_wasm::decode::decode(&bytes);
    }

    /// Arbitrary mutations of a valid binary never panic the decoder, and
    /// anything that still decodes can be re-encoded losslessly.
    #[test]
    fn mutated_binaries_are_handled(
        steps in prop::collection::vec(arb_step(), 0..10),
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        let m = build_module(&steps);
        let mut bytes = wasai_wasm::encode::encode(&m);
        for (pos, val) in flips {
            let len = bytes.len();
            bytes[pos as usize % len] = val;
        }
        if let Ok(decoded) = wasai_wasm::decode::decode(&bytes) {
            let re = wasai_wasm::encode::encode(&decoded);
            prop_assert_eq!(wasai_wasm::decode::decode(&re).expect("re-decodes"), decoded);
        }
    }
}
