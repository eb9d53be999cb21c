//! The fuzzing harness: local-chain initiation with the target and the
//! adversary-oracle agent contracts (Algorithm 1, line 2), plus the payload
//! transaction templates of §3.5 and action-function location (§3.4.2).

use std::sync::{Arc, OnceLock};

use wasai_chain::abi::{Abi, ActionDecl, ParamValue};
use wasai_chain::asset::Asset;
use wasai_chain::name::Name;
use wasai_chain::{Action, Chain, NativeKind, Transaction};
use wasai_symex::FlipSites;
use wasai_vm::{CompiledModule, TraceKind, TraceRecord};
use wasai_wasm::instr::Instr;
use wasai_wasm::Module;

use crate::coverage::BranchSites;

/// Well-known harness account names.
pub mod accounts {
    use wasai_chain::name::Name;

    /// The fuzz target's account.
    pub fn target() -> Name {
        Name::new("fuzz.target")
    }

    /// The attacker-controlled account.
    pub fn attacker() -> Name {
        Name::new("attacker")
    }

    /// A friendly paying user.
    pub fn alice() -> Name {
        Name::new("alice")
    }

    /// The official token contract.
    pub fn token() -> Name {
        Name::new("eosio.token")
    }

    /// The counterfeit token contract (§2.3.1).
    pub fn fake_token() -> Name {
        Name::new("fake.token")
    }

    /// The notification-forwarding agent (§2.3.2).
    pub fn fake_notif() -> Name {
        Name::new("fake.notif")
    }
}

/// The contract under test.
#[derive(Debug, Clone)]
pub struct TargetInfo {
    /// The original (uninstrumented) module — trace sites refer to it.
    pub original: Module,
    /// The contract ABI.
    pub abi: Abi,
}

impl TargetInfo {
    /// Bundle a module and ABI.
    pub fn new(original: Module, abi: Abi) -> Self {
        TargetInfo { original, abi }
    }

    /// The `transfer` declaration if the contract has an eosponser.
    pub fn transfer_decl(&self) -> Option<&ActionDecl> {
        self.abi.action(Name::new("transfer"))
    }
}

/// A target with its per-contract shared artifacts computed once: the
/// instrumented + compiled module and the branch-site table.
///
/// Instrumentation, compilation and branch-site scanning are pure functions
/// of the module, so campaigns that differ only in tool or RNG seed can
/// share one `Arc<PreparedTarget>` instead of redoing that work per
/// campaign — the fleet scheduler's shared-artifact cache.
#[derive(Debug)]
pub struct PreparedTarget {
    /// The target (original module + ABI) — what campaigns introspect.
    pub info: TargetInfo,
    /// The instrumented module, compiled once for every chain deployment.
    pub compiled: Arc<CompiledModule>,
    /// Branch sites of the *original* module (trace sites refer to it).
    pub branch_sites: BranchSites,
    /// Flip-target sites of the original module, tabled on first use
    /// (see [`PreparedTarget::flip_sites`]).
    flip_sites: OnceLock<FlipSites>,
    /// The post-setup chain state, captured once. Campaigns fork it
    /// copy-on-write instead of replaying deployment from genesis per seed.
    /// `None` when the target was prepared for the reference interpreter.
    snapshot: Option<Chain>,
}

impl PreparedTarget {
    /// Instrument, compile and scan `target` once, and capture the
    /// post-setup chain snapshot that [`PreparedTarget::fork_chain`] serves.
    ///
    /// # Errors
    ///
    /// Fails when the module cannot be instrumented or compiled.
    pub fn prepare(target: TargetInfo) -> Result<Arc<Self>, wasai_chain::ChainError> {
        Self::prepare_inner(target, false)
    }

    /// [`PreparedTarget::prepare`] pinned to the reference interpreter and
    /// genesis chain setup. The differential suites use this to compare the
    /// fast path against the unaccelerated execution stack.
    ///
    /// # Errors
    ///
    /// Fails when the module cannot be instrumented or compiled.
    pub fn prepare_reference(target: TargetInfo) -> Result<Arc<Self>, wasai_chain::ChainError> {
        Self::prepare_inner(target, true)
    }

    fn prepare_inner(
        target: TargetInfo,
        reference: bool,
    ) -> Result<Arc<Self>, wasai_chain::ChainError> {
        let module = wasai_wasm::instrument::instrument(&target.original)
            .map_err(|e| wasai_chain::ChainError::BadContract(e.to_string()))?
            .module;
        let compiled = if reference {
            CompiledModule::compile_reference(module)
        } else {
            CompiledModule::compile(module)
        }
        .map_err(|e| wasai_chain::ChainError::BadContract(e.to_string()))?;
        let branch_sites = BranchSites::new(&target.original);
        let mut prepared = PreparedTarget {
            info: target,
            compiled,
            branch_sites,
            flip_sites: OnceLock::new(),
            snapshot: None,
        };
        if !reference {
            prepared.snapshot = Some(prepared.setup_chain_genesis()?);
        }
        Ok(Arc::new(prepared))
    }

    /// The flip-target site table of the original module: the engine's
    /// pre-check for replays that cannot reach the solver. Built on first
    /// use, so targets that never replay (CosmWasm) never pay for it.
    pub fn flip_sites(&self) -> &FlipSites {
        self.flip_sites
            .get_or_init(|| FlipSites::new(&self.info.original))
    }

    /// A chain ready for fuzzing: a copy-on-write fork of the post-setup
    /// snapshot when one was captured, or a fresh genesis setup otherwise.
    /// Forks are byte-equivalent to genesis setup (the harness pushes no
    /// transactions during setup) and isolated from each other — a seed's
    /// writes never reach the snapshot or sibling forks.
    ///
    /// # Errors
    ///
    /// Propagates harness account-creation errors on the genesis path.
    pub fn fork_chain(&self) -> Result<Chain, wasai_chain::ChainError> {
        match &self.snapshot {
            Some(snapshot) => {
                let timer =
                    wasai_obs::ScopeTimer::start(wasai_obs::Histogram::SnapshotRestoreWallSeconds);
                let chain = snapshot.fork();
                drop(timer);
                wasai_obs::inc(wasai_obs::Counter::VmSnapshotRestores);
                Ok(chain)
            }
            None => self.setup_chain_genesis(),
        }
    }

    /// Initialize a chain from genesis: deploy the cached compiled module
    /// and the harness cast from scratch, bypassing the snapshot. The
    /// differential suite uses this as the ground truth
    /// [`PreparedTarget::fork_chain`] must match.
    ///
    /// # Errors
    ///
    /// Propagates harness account-creation errors.
    pub fn setup_chain_genesis(&self) -> Result<Chain, wasai_chain::ChainError> {
        setup_chain_compiled(self.compiled.clone(), self.info.abi.clone())
    }
}

/// Initialize the local blockchain for a [`PreparedTarget`]: the
/// instrumented target, the token contracts and the adversary agents,
/// everyone funded. Forks the cached post-setup snapshot (or re-runs genesis
/// setup when no snapshot was captured) instead of re-instrumenting,
/// recompiling and redeploying per campaign. Every campaign entry point —
/// the WASAI engine, the baselines, the benches — obtains its chain through
/// this single helper, so the snapshot path is adopted uniformly.
///
/// # Errors
///
/// Propagates harness account-creation errors.
pub fn setup_chain_prepared(prepared: &PreparedTarget) -> Result<Chain, wasai_chain::ChainError> {
    prepared.fork_chain()
}

fn setup_chain_compiled(
    compiled: Arc<CompiledModule>,
    abi: Abi,
) -> Result<Chain, wasai_chain::ChainError> {
    let mut chain = Chain::new();
    chain.deploy_native(accounts::token(), NativeKind::Token);
    chain.deploy_native(accounts::fake_token(), NativeKind::Token);
    chain.deploy_native(
        accounts::fake_notif(),
        NativeKind::NotifForwarder {
            forward_to: accounts::target(),
        },
    );
    chain.create_account(accounts::attacker())?;
    chain.create_account(accounts::alice())?;

    chain.deploy_compiled(accounts::target(), compiled, abi);

    // Fund the cast: real EOS for users and the target (so reward payouts
    // work), fake EOS for the attacker.
    chain.issue(
        accounts::token(),
        accounts::attacker(),
        Asset::eos(1_000_000),
    );
    chain.issue(accounts::token(), accounts::alice(), Asset::eos(1_000_000));
    chain.issue(accounts::token(), accounts::target(), Asset::eos(10_000));
    chain.issue(
        accounts::fake_token(),
        accounts::attacker(),
        Asset::eos(1_000_000),
    );
    Ok(chain)
}

/// Transfer-shaped parameters with `from`/`to` forced (used by payloads that
/// must satisfy the token contract).
pub fn forced_transfer_params(params: &[ParamValue], from: Name, to: Name) -> Vec<ParamValue> {
    let mut p = params.to_vec();
    if !p.is_empty() {
        p[0] = ParamValue::Name(from);
    }
    if p.len() > 1 {
        p[1] = ParamValue::Name(to);
    }
    // Clamp the quantity into the payer's balance so the token contract
    // does not reject the payload before the victim sees it.
    if let Some(ParamValue::Asset(a)) = p.get_mut(2) {
        if a.amount <= 0 || a.amount > 10_000_000 {
            *a = Asset::eos(10);
        }
        *a = Asset::new(a.amount, wasai_chain::asset::eos_symbol());
    }
    p
}

/// Payload 1 — a legitimate payment: `transfer@eosio.token` attacker→target
/// (Figure 1's flow; used to locate the eosponser and explore it).
pub fn official_transfer(params: &[ParamValue]) -> Transaction {
    let p = forced_transfer_params(params, accounts::attacker(), accounts::target());
    Transaction::single(Action::new(
        accounts::token(),
        Name::new("transfer"),
        &[accounts::attacker()],
        &p,
    ))
}

/// Payload 2 — direct Fake EOS: invoke the victim's eosponser directly
/// (§2.3.1, exploit path 1). Parameters are fully attacker-chosen.
pub fn direct_fake_transfer(params: &[ParamValue]) -> Transaction {
    Transaction::single(Action::new(
        accounts::target(),
        Name::new("transfer"),
        &[accounts::attacker()],
        params,
    ))
}

/// Payload 3 — counterfeit token: `transfer@fake.token` attacker→target
/// (§2.3.1, exploit path 2).
pub fn fake_token_transfer(params: &[ParamValue]) -> Transaction {
    let p = forced_transfer_params(params, accounts::attacker(), accounts::target());
    Transaction::single(Action::new(
        accounts::fake_token(),
        Name::new("transfer"),
        &[accounts::attacker()],
        &p,
    ))
}

/// Payload 4 — Fake Notification: pay real EOS to the forwarding agent,
/// which relays the notification to the victim with `code` intact (§2.3.2).
pub fn fake_notif_transfer(params: &[ParamValue]) -> Transaction {
    let p = forced_transfer_params(params, accounts::attacker(), accounts::fake_notif());
    Transaction::single(Action::new(
        accounts::token(),
        Name::new("transfer"),
        &[accounts::attacker()],
        &p,
    ))
}

/// A plain direct action on the target, attacker-signed.
pub fn direct_action(action: Name, params: &[ParamValue]) -> Transaction {
    Transaction::single(Action::new(
        accounts::target(),
        action,
        &[accounts::attacker()],
        params,
    ))
}

/// Locate the executed action function from a trace (§3.4.2): the function
/// entered through the dispatcher's `call_indirect` inside `apply`. Falls
/// back to the last function entered (direct-call dispatchers).
pub fn locate_action_function(module: &Module, trace: &[TraceRecord]) -> Option<u32> {
    let apply_idx = module.exported_func("apply")?;
    let apply_body = &module.local_func(apply_idx)?.body;
    let mut after_indirect = false;
    let mut last_begin: Option<u32> = None;
    for rec in trace {
        match rec.kind {
            TraceKind::Site { func, pc } if func == apply_idx => {
                if matches!(apply_body.get(pc as usize), Some(Instr::CallIndirect(_))) {
                    after_indirect = true;
                }
            }
            TraceKind::FuncBegin { func } => {
                if after_indirect {
                    return Some(func);
                }
                if func != apply_idx {
                    last_begin = Some(func);
                }
            }
            _ => {}
        }
    }
    last_begin
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_params_pin_from_to_and_sanitize_quantity() {
        let params = vec![
            ParamValue::Name(Name::new("zzz")),
            ParamValue::Name(Name::new("yyy")),
            ParamValue::Asset(Asset::new(-5, wasai_chain::asset::eos_symbol())),
            ParamValue::String("m".into()),
        ];
        let p = forced_transfer_params(&params, accounts::attacker(), accounts::target());
        assert_eq!(p[0], ParamValue::Name(accounts::attacker()));
        assert_eq!(p[1], ParamValue::Name(accounts::target()));
        match &p[2] {
            ParamValue::Asset(a) => assert!(a.is_positive()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn payload_shapes() {
        let params = vec![
            ParamValue::Name(accounts::attacker()),
            ParamValue::Name(accounts::target()),
            ParamValue::Asset(Asset::eos(1)),
            ParamValue::String(String::new()),
        ];
        assert_eq!(
            official_transfer(&params).actions[0].account,
            accounts::token()
        );
        assert_eq!(
            direct_fake_transfer(&params).actions[0].account,
            accounts::target()
        );
        assert_eq!(
            fake_token_transfer(&params).actions[0].account,
            accounts::fake_token()
        );
        let fnotif = fake_notif_transfer(&params);
        assert_eq!(fnotif.actions[0].account, accounts::token());
        // The payee is the agent, not the target.
        let data = &fnotif.actions[0].data;
        assert_eq!(&data[8..16], &accounts::fake_notif().raw().to_le_bytes());
    }
}

#[cfg(test)]
mod locate_tests {
    use super::*;
    use wasai_vm::TraceVal;
    use wasai_wasm::builder::ModuleBuilder;
    use wasai_wasm::types::ValType::*;

    fn module_with_indirect() -> (Module, u32, u32) {
        let mut b = ModuleBuilder::new();
        let action = b.func(&[I64], &[], &[], vec![Instr::End]);
        b.table(1).elem(0, vec![action]);
        let ty = b.module().local_func(action).unwrap().type_idx;
        let apply = b.func(
            &[I64, I64, I64],
            &[],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::I32Const(0),
                Instr::CallIndirect(ty),
                Instr::End,
            ],
        );
        b.export_func("apply", apply);
        (b.build(), apply, action)
    }

    fn site(func: u32, pc: u32) -> TraceRecord {
        TraceRecord {
            kind: TraceKind::Site { func, pc },
            operands: vec![TraceVal::I(0)],
        }
    }

    fn begin(func: u32) -> TraceRecord {
        TraceRecord {
            kind: TraceKind::FuncBegin { func },
            operands: vec![],
        }
    }

    #[test]
    fn locates_via_call_indirect() {
        let (m, apply, action) = module_with_indirect();
        let trace = vec![begin(apply), site(apply, 2), begin(action)];
        assert_eq!(locate_action_function(&m, &trace), Some(action));
    }

    #[test]
    fn falls_back_to_last_entered_function() {
        let (m, apply, action) = module_with_indirect();
        // No call_indirect site observed (direct-call dispatcher).
        let trace = vec![begin(apply), begin(action)];
        assert_eq!(locate_action_function(&m, &trace), Some(action));
    }

    #[test]
    fn empty_trace_locates_nothing() {
        let (m, _, _) = module_with_indirect();
        assert_eq!(locate_action_function(&m, &[]), None);
    }
}
