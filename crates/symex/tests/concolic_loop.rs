//! End-to-end Symback tests: instrument → execute → replay → flip → solve →
//! adaptive seed. These close the concolic feedback loop of Algorithm 1.

use std::collections::{HashMap, HashSet};

use wasai_chain::abi::{ParamType, ParamValue};
use wasai_chain::asset::Asset;
use wasai_smt::{check, Budget, SolveResult};
use wasai_symex::{
    constraint_vars, flip_key, flip_queries, seed_from_model, CondKind, FlipKey, FlipSites,
    Replayer, MAX_FLIP_ATTEMPTS,
};
use wasai_vm::{
    CompiledModule, Fuel, Host, HostFnId, Instance, LinearMemory, TraceRecord, TraceSink, Trap,
    Value,
};
use wasai_wasm::builder::ModuleBuilder;
use wasai_wasm::instr::{Instr, MemArg};
use wasai_wasm::types::{BlockType, FuncType, ValType::*};

/// Host serving the trace hooks plus a trapping `eosio_assert`.
struct TestHost {
    sink: TraceSink,
}

impl Host for TestHost {
    fn resolve(&mut self, module: &str, name: &str, _ty: &FuncType) -> Option<HostFnId> {
        if let Some(off) = wasai_vm::host::hooks::hook_offset(module, name) {
            return Some(HostFnId(off));
        }
        if module == "env" && name == "eosio_assert" {
            return Some(HostFnId(100));
        }
        None
    }

    fn call(
        &mut self,
        id: HostFnId,
        args: &[Value],
        _mem: &mut LinearMemory,
    ) -> Result<Option<Value>, Trap> {
        if id.0 < 100 {
            wasai_vm::host::hooks::dispatch(&mut self.sink, id.0, args);
            Ok(None)
        } else if args[0].as_i32() != 0 {
            Ok(None)
        } else {
            Err(Trap::AssertFailed("test".into()))
        }
    }
}

/// Run the instrumented form of `module` and return the trace (tolerates
/// traps — WASAI analyzes failing runs too).
fn trace_of(module: &wasai_wasm::Module, export: &str, args: &[Value]) -> Vec<TraceRecord> {
    let inst_mod = wasai_wasm::instrument::instrument(module).unwrap().module;
    let compiled = CompiledModule::compile(inst_mod).unwrap();
    let mut host = TestHost {
        sink: TraceSink::new(),
    };
    let mut instance = Instance::new(compiled, &mut host).unwrap();
    let mut fuel = Fuel(1_000_000);
    let _ = instance.invoke_export(&mut host, export, args, &mut fuel);
    host.sink.take()
}

fn apply_args() -> [Value; 3] {
    [Value::I64(1), Value::I64(1), Value::I64(1)]
}

/// A contract whose action function branches on its i64 argument:
/// `action(self, x): if (x == 0xdeadbeef) hit() else miss()`.
fn branchy_contract() -> (wasai_wasm::Module, u32) {
    let mut b = ModuleBuilder::with_memory(1);
    let hit = b.func(&[], &[], &[], vec![Instr::Nop, Instr::End]);
    let miss = b.func(&[], &[], &[], vec![Instr::Nop, Instr::End]);
    let action = b.func(
        &[I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(1),
            Instr::I64Const(0xdeadbeef),
            Instr::I64Eq,
            Instr::If(BlockType::Empty),
            Instr::Call(hit),
            Instr::Else,
            Instr::Call(miss),
            Instr::End,
            Instr::End,
        ],
    );
    // apply(receiver, code, action_name) calls action(receiver, 7).
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(7),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    (b.build(), action)
}

#[test]
fn replay_collects_branch_and_flip_solves_it() {
    let (module, action) = branchy_contract();
    let trace = trace_of(&module, "apply", &apply_args());
    assert!(!trace.is_empty());

    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let replayer = Replayer::new(&module, action, 1, &params);
    let outcome = replayer.run(&trace);

    // One conditional state: the `if` on x == 0xdeadbeef, not taken.
    assert_eq!(
        outcome.conditionals.len(),
        1,
        "conds: {:?}",
        outcome.conditionals
    );
    let cond = &outcome.conditionals[0];
    assert!(!cond.taken);
    assert_eq!(cond.kind, CondKind::Branch);

    // Flip it and solve: the model must assign x = 0xdeadbeef.
    let set = flip_queries(&outcome, &HashSet::new());
    assert_eq!(set.queries.len(), 1);
    let constraints = set.constraints_of(&set.queries[0]);
    let (res, _) = check(&outcome.pool, &constraints, Budget::default());
    let model = match res {
        SolveResult::Sat(m) => m,
        other => panic!("expected sat, got {other:?}"),
    };
    let vars = constraint_vars(&outcome.pool, &constraints);
    let new_seed = seed_from_model(&outcome.spec, &outcome.pool, &model, &vars);
    assert_eq!(new_seed, vec![ParamValue::U64(0xdeadbeef)]);
}

#[test]
fn adaptive_seed_actually_flips_the_branch() {
    // Close the loop: run with the adaptive value and check the replay now
    // takes the other direction.
    let (module, action) = branchy_contract();
    // Patch apply to pass 0xdeadbeef.
    let mut patched = module.clone();
    let apply_idx = patched.exported_func("apply").unwrap();
    let apply = patched.local_func_mut(apply_idx).unwrap();
    apply.body[1] = Instr::I64Const(0xdeadbeef);

    let trace = trace_of(&patched, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(0xdeadbeef))];
    let outcome = Replayer::new(&patched, action, 1, &params).run(&trace);
    assert!(outcome.conditionals[0].taken, "branch should now be taken");
}

#[test]
fn branch_coverage_accumulates_distinct_directions() {
    let (module, action) = branchy_contract();
    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let outcome = Replayer::new(&module, action, 1, &params).run(&trace);
    // The if at (action, pc 3), direction false.
    assert!(outcome.branches.contains(&(action, 3, 0)));
    assert!(!outcome.branches.contains(&(action, 3, 1)));
    // Function chain records apply → action → miss.
    assert!(outcome.func_chain.len() >= 3);
}

/// `action(self, x): eosio_assert(x == 42, "…")`, called by `apply` with
/// `x` = `arg`.
fn assert_contract(arg: i64) -> (wasai_wasm::Module, u32) {
    let mut b = ModuleBuilder::with_memory(1);
    let assert_fn = b.import_func("env", "eosio_assert", &[I32, I32], &[]);
    let action = b.func(
        &[I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(1),
            Instr::I64Const(42),
            Instr::I64Eq,
            Instr::I32Const(0),
            Instr::Call(assert_fn),
            Instr::End,
        ],
    );
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(arg),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    let module = b.build();
    (module, action)
}

#[test]
fn failing_assert_yields_satisfiable_flip() {
    let (module, action) = assert_contract(7);

    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let outcome = Replayer::new(&module, action, 1, &params).run(&trace);
    let asserts: Vec<_> = outcome
        .conditionals
        .iter()
        .filter(|c| c.kind == CondKind::Assert)
        .collect();
    assert_eq!(
        asserts.len(),
        1,
        "failed assert must be a conditional state"
    );
    let set = flip_queries(&outcome, &HashSet::new());
    let q = set
        .queries
        .iter()
        .find(|q| q.kind == CondKind::Assert)
        .unwrap();
    let constraints = set.constraints_of(q);
    let (res, _) = check(&outcome.pool, &constraints, Budget::default());
    let model = res.model().expect("assert flip must be satisfiable");
    let vars = constraint_vars(&outcome.pool, &constraints);
    let seed = seed_from_model(&outcome.spec, &outcome.pool, model, &vars);
    assert_eq!(
        seed,
        vec![ParamValue::U64(42)],
        "solver finds the passing value"
    );
}

#[test]
fn asset_pointer_parameter_flows_through_memory() {
    // action(self, qty_ptr): amount = i64.load(qty_ptr);
    //   if (amount == 100000) hit.
    // The wrapper writes amount=77 at address 64 and calls action(1, 64).
    let mut b = ModuleBuilder::with_memory(1);
    let action = b.func(
        &[I64, I32],
        &[],
        &[],
        vec![
            Instr::LocalGet(1),
            Instr::I64Load(MemArg::default()),
            Instr::I64Const(100_000),
            Instr::I64Eq,
            Instr::If(BlockType::Empty),
            Instr::Nop,
            Instr::End,
            Instr::End,
        ],
    );
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            // mem[64] = 77 (the executed seed's amount)
            Instr::I32Const(64),
            Instr::I64Const(77),
            Instr::I64Store(MemArg::default()),
            // mem[72] = symbol of "4,EOS"
            Instr::I32Const(72),
            Instr::I64Const(wasai_chain::asset::eos_symbol().raw() as i64),
            Instr::I64Store(MemArg::default()),
            Instr::LocalGet(0),
            Instr::I32Const(64),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    let module = b.build();

    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(
        ParamType::Asset,
        ParamValue::Asset(Asset::new(77, wasai_chain::asset::eos_symbol())),
    )];
    let outcome = Replayer::new(&module, action, 1, &params).run(&trace);
    assert_eq!(
        outcome.conditionals.len(),
        1,
        "amount comparison must be symbolic"
    );

    let set = flip_queries(&outcome, &HashSet::new());
    let constraints = set.constraints_of(&set.queries[0]);
    let (res, _) = check(&outcome.pool, &constraints, Budget::default());
    let model = res.model().expect("sat");
    let vars = constraint_vars(&outcome.pool, &constraints);
    let seed = seed_from_model(&outcome.spec, &outcome.pool, model, &vars);
    match &seed[0] {
        ParamValue::Asset(a) => {
            assert_eq!(a.amount, 100_000, "solved amount is \"10.0000 EOS\"");
            assert_eq!(
                a.symbol,
                wasai_chain::asset::eos_symbol(),
                "symbol untouched"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn nested_branches_build_path_constraints() {
    // action(self, x): if (x > 10) { if (x < 20) hit; }
    // Executed with x = 5: flipping the outer branch requires x > 10.
    let mut b = ModuleBuilder::with_memory(1);
    let action = b.func(
        &[I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(1),
            Instr::I64Const(10),
            Instr::I64GtS,
            Instr::If(BlockType::Empty),
            Instr::LocalGet(1),
            Instr::I64Const(20),
            Instr::I64LtS,
            Instr::If(BlockType::Empty),
            Instr::Nop,
            Instr::End,
            Instr::End,
            Instr::End,
        ],
    );
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(5),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    let module = b.build();

    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::I64, ParamValue::I64(5))];
    let outcome = Replayer::new(&module, action, 1, &params).run(&trace);
    assert_eq!(outcome.conditionals.len(), 1, "only outer branch executed");
    let set = flip_queries(&outcome, &HashSet::new());
    let constraints = set.constraints_of(&set.queries[0]);
    let (res, _) = check(&outcome.pool, &constraints, Budget::default());
    let model = res.model().expect("sat");
    let vars = constraint_vars(&outcome.pool, &constraints);
    let seed = seed_from_model(&outcome.spec, &outcome.pool, model, &vars);
    match seed[0] {
        ParamValue::I64(v) => assert!(v > 10, "solved x = {v} must exceed 10"),
        ref other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn explored_directions_are_not_requeried() {
    let (module, action) = branchy_contract();
    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let outcome = Replayer::new(&module, action, 1, &params).run(&trace);
    let mut explored = HashSet::new();
    explored.insert((action, 3u32, 1u64)); // other direction already seen
    assert!(flip_queries(&outcome, &explored).queries.is_empty());
}

#[test]
fn loops_replay_without_desync() {
    // action(self, n): count down from n, then if (n == 3) hit.
    let mut b = ModuleBuilder::with_memory(1);
    let action = b.func(
        &[I64, I64],
        &[],
        &[I64],
        vec![
            Instr::LocalGet(1),
            Instr::LocalSet(2),
            Instr::Block(BlockType::Empty),
            Instr::Loop(BlockType::Empty),
            Instr::LocalGet(2),
            Instr::I64Eqz,
            Instr::BrIf(1),
            Instr::LocalGet(2),
            Instr::I64Const(1),
            Instr::I64Sub,
            Instr::LocalSet(2),
            Instr::Br(0),
            Instr::End,
            Instr::End,
            Instr::LocalGet(1),
            Instr::I64Const(3),
            Instr::I64Eq,
            Instr::If(BlockType::Empty),
            Instr::Nop,
            Instr::End,
            Instr::End,
        ],
    );
    let apply = b.func(
        &[I64, I64, I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(2),
            Instr::Call(action),
            Instr::End,
        ],
    );
    b.export_func("apply", apply);
    let module = b.build();

    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(2))];
    let outcome = Replayer::new(&module, action, 1, &params).run(&trace);
    // The loop exit br_if ran 3 times (n=2) plus the final == 3 check.
    let final_if = outcome.conditionals.last().unwrap();
    assert!(!final_if.taken);
    let set = flip_queries(&outcome, &HashSet::new());
    // Flipping the final if demands n == 3, which contradicts the executed
    // loop-trip count (n − 2 == 0 is on the path): must be Unsat. That is
    // how concolic execution learns a different trip count needs a
    // different trace.
    let q_last = set.queries.last().unwrap();
    let (res, _) = check(
        &outcome.pool,
        &set.constraints_of(q_last),
        Budget::default(),
    );
    assert_eq!(res, SolveResult::Unsat);
    // But flipping the FIRST loop-exit test (n == 0) is satisfiable.
    let c0 = set.constraints_of(&set.queries[0]);
    let (res0, _) = check(&outcome.pool, &c0, Budget::default());
    let m = res0.model().expect("sat");
    let vars = constraint_vars(&outcome.pool, &c0);
    let seed = seed_from_model(&outcome.spec, &outcome.pool, m, &vars);
    assert_eq!(seed, vec![ParamValue::U64(0)]);
}

/// Run the replay-skip pre-check on `trace` and hold it to its contract:
/// when it reports no live target, every query the replay yields must be
/// explored or exhausted. Returns the pre-check's answer.
fn live_target(
    module: &wasai_wasm::Module,
    action: u32,
    params: &[(ParamType, ParamValue)],
    trace: &[TraceRecord],
    explored: &HashSet<FlipKey>,
    attempted: &HashMap<FlipKey, u32>,
) -> bool {
    let live = FlipSites::new(module).has_live_target(trace, action, explored, attempted);
    if !live {
        let outcome = Replayer::new(module, action, 1, params).run(trace);
        for q in flip_queries(&outcome, explored).queries {
            let tries = attempted.get(&q.target_key()).copied().unwrap_or(0);
            assert!(
                tries >= MAX_FLIP_ATTEMPTS,
                "pre-check missed live target {:?}",
                q.target_key()
            );
        }
    }
    live
}

#[test]
fn skip_check_tracks_explored_and_exhausted_branch_targets() {
    let (module, action) = branchy_contract();
    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let live = |explored: &HashSet<FlipKey>, attempted: &HashMap<FlipKey, u32>| {
        live_target(&module, action, &params, &trace, explored, attempted)
    };
    // The `if` at pc 3 ran untaken, so its target is direction 1.
    let key = (action, 3, 1);
    assert!(live(&HashSet::new(), &HashMap::new()));
    assert!(!live(&HashSet::from([key]), &HashMap::new()));
    assert!(live(
        &HashSet::new(),
        &HashMap::from([(key, MAX_FLIP_ATTEMPTS - 1)])
    ));
    assert!(!live(
        &HashSet::new(),
        &HashMap::from([(key, MAX_FLIP_ATTEMPTS)])
    ));
}

#[test]
fn skip_check_ignores_branches_before_the_action_function() {
    // apply branches on its concrete receiver before dispatching: no term
    // exists yet, so the replay cannot flip that branch.
    let (mut module, action) = branchy_contract();
    let apply_idx = module.exported_func("apply").unwrap();
    let apply = module.local_func_mut(apply_idx).unwrap();
    let guard = [
        Instr::LocalGet(0),
        Instr::I32WrapI64,
        Instr::If(BlockType::Empty),
        Instr::Nop,
        Instr::End,
    ];
    apply.body.splice(0..0, guard);
    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let explored: HashSet<FlipKey> = [(action, 3, 1)].into_iter().collect();
    assert!(!live_target(
        &module,
        action,
        &params,
        &trace,
        &explored,
        &HashMap::new()
    ));
}

#[test]
fn skip_check_counts_failing_asserts_only() {
    let (module, action) = assert_contract(7);
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let failing = trace_of(&module, "apply", &apply_args());
    let live = |attempted: &HashMap<FlipKey, u32>| {
        live_target(
            &module,
            action,
            &params,
            &failing,
            &HashSet::new(),
            attempted,
        )
    };
    assert!(live(&HashMap::new()));
    let key = flip_key((action, 4), CondKind::Assert, true);
    assert!(!live(&HashMap::from([(key, MAX_FLIP_ATTEMPTS)])));

    let (module, action) = assert_contract(42);
    let params = vec![(ParamType::U64, ParamValue::U64(42))];
    let passing = trace_of(&module, "apply", &apply_args());
    let (explored, attempted) = (HashSet::new(), HashMap::new());
    assert!(!live_target(
        &module, action, &params, &passing, &explored, &attempted
    ));
}

#[test]
fn skip_check_counts_terms_loaded_from_memory_before_the_action() {
    // apply stores a word, loads it back and branches on it before
    // dispatching. The replay tracks stored bytes, so the load is a term
    // and the branch a flip target even though no input exists yet.
    let (mut module, action) = branchy_contract();
    let apply_idx = module.exported_func("apply").unwrap();
    let apply = module.local_func_mut(apply_idx).unwrap();
    let prologue = [
        Instr::I32Const(64),
        Instr::I32Const(5),
        Instr::I32Store(MemArg::default()),
        Instr::I32Const(64),
        Instr::I32Load(MemArg::default()),
        Instr::If(BlockType::Empty),
        Instr::Nop,
        Instr::End,
    ];
    apply.body.splice(0..0, prologue);
    let trace = trace_of(&module, "apply", &apply_args());
    let params = vec![(ParamType::U64, ParamValue::U64(7))];
    let explored: HashSet<FlipKey> = [(action, 3, 1)].into_iter().collect();
    let outcome = Replayer::new(&module, action, 1, &params).run(&trace);
    let targets: Vec<_> = flip_queries(&outcome, &explored)
        .queries
        .iter()
        .map(|q| q.target_key())
        .collect();
    assert_eq!(
        targets,
        vec![(apply_idx, 5, 0)],
        "the replay flips apply's branch"
    );
    assert!(live_target(
        &module,
        action,
        &params,
        &trace,
        &explored,
        &HashMap::new()
    ));
}
