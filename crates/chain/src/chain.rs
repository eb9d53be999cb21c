//! The local blockchain: accounts, contract execution, notifications,
//! inline/deferred actions and transaction rollback.
//!
//! This plays the role of the paper's Nodeos-based local chain (§3.1, step
//! "Initiation: we initiate a local blockchain with necessary smart
//! contracts, e.g. bin', eosio.token and some agent contracts used in the
//! adversary oracles").

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use wasai_vm::{
    CompiledModule, Fuel, Host, HostFnId, Instance, InstancePool, LinearMemory, Trap, Value,
};
use wasai_wasm::types::FuncType;

use crate::abi::{Abi, ParamValue};
use crate::action::{Action, ApiEvent, ExecKind, ExecutedAction, Receipt, Transaction};
use crate::asset::Asset;
use crate::database::{Database, DbAccess, DbOp, TableId};
use crate::error::{ChainError, TransactionError};
use crate::name::Name;
use crate::serialize;
use crate::token::TokenLedger;

/// Maximum nesting of notifications / inline actions.
const MAX_ACTION_DEPTH: u32 = 16;

/// Built-in (native) contract behaviours used as harness infrastructure.
///
/// The fuzz *target* is always a Wasm contract; natives model `eosio.token`
/// and the adversary-oracle agent contracts of §3.5, exactly the auxiliary
/// contracts the paper leaves uninstrumented.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeKind {
    /// An `eosio.token`-compatible token contract. Any account can host one
    /// (that is what makes Fake EOS possible, §2.3.1).
    Token,
    /// The `fake.notif` agent (§2.3.2): when notified of a transfer, it
    /// forwards the notification to `forward_to` — with `code` untouched.
    NotifForwarder {
        /// The victim to forward notifications to.
        forward_to: Name,
    },
}

/// A deployed Wasm contract.
#[derive(Debug)]
pub struct WasmContract {
    /// Compiled module ready to instantiate.
    pub compiled: Arc<CompiledModule>,
    /// Its ABI.
    pub abi: Abi,
    /// Import table resolved on first execution and reused by every later
    /// instantiation (resolution depends only on the module's import names,
    /// never on chain state, so caching cannot change behavior).
    resolved: OnceLock<Arc<Vec<HostFnId>>>,
}

impl WasmContract {
    /// Wrap a compiled module and its ABI for deployment.
    pub fn new(compiled: Arc<CompiledModule>, abi: Abi) -> Self {
        WasmContract {
            compiled,
            abi,
            resolved: OnceLock::new(),
        }
    }
}

/// What an account hosts.
#[derive(Debug, Clone, Default)]
pub enum AccountKind {
    /// No contract — a plain wallet account.
    #[default]
    Plain,
    /// A Wasm contract (behind an [`Arc`]: executing an action clones the
    /// account entry, and contracts should not deep-copy their ABI per call).
    Wasm(Arc<WasmContract>),
    /// A native harness contract.
    Native(NativeKind),
}

/// Chain configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChainConfig {
    /// Fuel budget per transaction (instructions).
    pub fuel_per_tx: u64,
    /// Reference-arm only: emulate the pre-fast-path per-transaction costs —
    /// physically deep rollback snapshots and per-action import resolution
    /// instead of COW clones and the cached table. Observationally
    /// identical, only slower; `tests/vm_fastpath.rs` uses it as the
    /// reference arm.
    pub legacy_exec_costs: bool,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            fuel_per_tx: 5_000_000,
            legacy_exec_costs: false,
        }
    }
}

/// The local blockchain.
#[derive(Debug, Default)]
pub struct Chain {
    accounts: BTreeMap<Name, AccountKind>,
    /// Persistent contract tables.
    pub db: Database,
    /// Token balances.
    pub ledger: TokenLedger,
    config: ChainConfig,
    block_num: u32,
    block_prefix: u32,
    time_us: i64,
    deferred_queue: Vec<Action>,
    // Per-transaction observation buffers.
    executed: Vec<ExecutedAction>,
    api_events: Vec<ApiEvent>,
    sink: wasai_vm::TraceSink,
    /// Reusable contract instances, keyed by receiver and compiled-module
    /// identity. Purely an allocation cache: instances are [`Instance::reset`]
    /// before reuse, so a pooled execution is indistinguishable from a fresh
    /// one. Never forked, never compared, bypassed under
    /// [`ChainConfig::legacy_exec_costs`].
    instance_pool: InstancePool<(Name, usize)>,
}

impl Chain {
    /// A fresh chain with default configuration.
    pub fn new() -> Self {
        Chain {
            sink: wasai_vm::TraceSink::new(),
            block_num: 1,
            block_prefix: 0x9e37_79b9,
            time_us: 1_600_000_000_000_000,
            ..Default::default()
        }
    }

    /// The chain's configuration.
    pub fn config(&self) -> ChainConfig {
        self.config
    }

    /// Replace the chain's configuration. The throughput benchmark uses this
    /// to flip [`ChainConfig::legacy_exec_costs`] on an already-set-up
    /// chain; configuration does not alter chain state, only execution cost.
    pub fn set_config(&mut self, config: ChainConfig) {
        self.config = config;
    }

    /// A fresh chain with a custom configuration.
    pub fn with_config(config: ChainConfig) -> Self {
        Chain {
            config,
            ..Chain::new()
        }
    }

    /// Create a plain account.
    ///
    /// # Errors
    ///
    /// Fails if the account exists.
    pub fn create_account(&mut self, name: Name) -> Result<(), ChainError> {
        if self.accounts.contains_key(&name) {
            return Err(ChainError::AccountExists(name));
        }
        self.accounts.insert(name, AccountKind::Plain);
        Ok(())
    }

    /// Deploy (or replace) a Wasm contract on an account, creating the
    /// account if needed.
    ///
    /// # Errors
    ///
    /// Fails if the module does not compile.
    pub fn deploy_wasm(
        &mut self,
        name: Name,
        module: wasai_wasm::Module,
        abi: Abi,
    ) -> Result<(), ChainError> {
        let compiled =
            CompiledModule::compile(module).map_err(|e| ChainError::BadContract(e.to_string()))?;
        self.deploy_compiled(name, compiled, abi);
        Ok(())
    }

    /// Deploy (or replace) an already-compiled Wasm contract on an account,
    /// creating the account if needed.
    ///
    /// Compilation is the expensive part of deployment; sharing one
    /// [`CompiledModule`] lets many chains (e.g. parallel fuzzing campaigns
    /// over the same contract) deploy it without recompiling.
    pub fn deploy_compiled(&mut self, name: Name, compiled: Arc<CompiledModule>, abi: Abi) {
        self.accounts.insert(
            name,
            AccountKind::Wasm(Arc::new(WasmContract::new(compiled, abi))),
        );
    }

    /// Fork this chain into an independent copy sharing unmodified state.
    ///
    /// Databases and ledgers are copy-on-write, account entries are `Arc`s:
    /// the fork starts byte-identical to `self` (minus per-transaction
    /// observation buffers, which only live inside `push_transaction`) and
    /// the two chains can never observe each other's subsequent writes.
    /// This is what turns one post-setup snapshot into thousands of
    /// per-seed chains without replaying deployment from genesis.
    pub fn fork(&self) -> Chain {
        Chain {
            accounts: self.accounts.clone(),
            db: self.db.clone(),
            ledger: self.ledger.clone(),
            config: self.config,
            block_num: self.block_num,
            block_prefix: self.block_prefix,
            time_us: self.time_us,
            deferred_queue: self.deferred_queue.clone(),
            executed: Vec::new(),
            api_events: Vec::new(),
            sink: wasai_vm::TraceSink::new(),
            instance_pool: InstancePool::new(),
        }
    }

    /// Deploy a native harness contract.
    pub fn deploy_native(&mut self, name: Name, kind: NativeKind) {
        self.accounts.insert(name, AccountKind::Native(kind));
    }

    /// True if the account exists.
    pub fn is_account(&self, name: Name) -> bool {
        self.accounts.contains_key(&name)
    }

    /// The ABI of a deployed Wasm contract.
    pub fn abi_of(&self, name: Name) -> Option<&Abi> {
        match self.accounts.get(&name) {
            Some(AccountKind::Wasm(w)) => Some(&w.abi),
            _ => None,
        }
    }

    /// Mint tokens (issuer's `issue`, shortcut for test/fuzz setup).
    pub fn issue(&mut self, token_contract: Name, to: Name, quantity: Asset) {
        self.ledger.issue(token_contract, to, quantity);
    }

    /// Balance shortcut.
    pub fn balance(&self, token_contract: Name, owner: Name) -> Asset {
        let symbol = crate::asset::eos_symbol();
        Asset::new(self.ledger.balance(token_contract, symbol, owner), symbol)
    }

    /// Current synthetic block time in microseconds.
    pub fn now_us(&self) -> i64 {
        self.time_us
    }

    /// Execute a transaction atomically.
    ///
    /// On success the state changes stick; on a trap, database and ledger are
    /// rolled back (§2.3.5) but the [`Receipt`] of the partial execution is
    /// still returned inside the error, because the fuzzer analyzes failing
    /// runs too.
    ///
    /// # Errors
    ///
    /// [`TransactionError`] when any action (or nested notification / inline
    /// action) traps.
    pub fn push_transaction(&mut self, tx: &Transaction) -> Result<Receipt, TransactionError> {
        let (db_snapshot, ledger_snapshot) = if self.config.legacy_exec_costs {
            (self.db.deep_clone(), self.ledger.deep_clone())
        } else {
            (self.db.clone(), self.ledger.clone())
        };
        let deferred_mark = self.deferred_queue.len();
        self.executed.clear();
        self.api_events.clear();
        self.sink.take();

        let mut fuel = Fuel(self.config.fuel_per_tx);
        let mut failure: Option<(usize, Trap)> = None;
        for (i, action) in tx.actions.iter().enumerate() {
            if let Err(trap) = self.exec_action(action, ExecKind::Direct, &mut fuel, 0) {
                failure = Some((i, trap));
                break;
            }
        }

        let receipt = Receipt {
            executed: std::mem::take(&mut self.executed),
            trace: self.sink.take(),
            api_events: std::mem::take(&mut self.api_events),
            steps_used: self.config.fuel_per_tx - fuel.0,
        };
        self.advance_block();
        match failure {
            None => Ok(receipt),
            Some((action_index, trap)) => {
                self.db = db_snapshot;
                self.ledger = ledger_snapshot;
                // Deferred actions queued by the reverted transaction vanish;
                // ones queued by earlier transactions stay.
                self.deferred_queue.truncate(deferred_mark);
                Err(TransactionError {
                    trap,
                    action_index,
                    receipt,
                })
            }
        }
    }

    /// Push a single action signed by `auth` as its own transaction.
    ///
    /// # Errors
    ///
    /// See [`Chain::push_transaction`].
    pub fn push_action(
        &mut self,
        account: Name,
        name: Name,
        auth: &[Name],
        params: &[ParamValue],
    ) -> Result<Receipt, TransactionError> {
        let tx = Transaction::single(Action::new(account, name, auth, params));
        self.push_transaction(&tx)
    }

    /// Run all queued deferred actions, each in its own transaction (so the
    /// original caller cannot revert them — the §2.3.5 mitigation).
    pub fn run_deferred(&mut self) -> Vec<Result<Receipt, TransactionError>> {
        let queue = std::mem::take(&mut self.deferred_queue);
        queue
            .into_iter()
            .map(|a| self.push_transaction(&Transaction::single(a)))
            .collect()
    }

    /// Number of deferred actions waiting.
    pub fn deferred_len(&self) -> usize {
        self.deferred_queue.len()
    }

    fn advance_block(&mut self) {
        self.block_num = self.block_num.wrapping_add(1);
        // A deterministic pseudo-hash so tapos values vary across blocks.
        self.block_prefix = self
            .block_prefix
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(self.block_num);
        self.time_us += 500_000;
    }

    fn exec_action(
        &mut self,
        action: &Action,
        kind: ExecKind,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<(), Trap> {
        if depth > MAX_ACTION_DEPTH {
            return Err(Trap::Host("action nesting too deep".into()));
        }
        self.executed.push(ExecutedAction {
            receiver: action.account,
            code: action.account,
            action: action.name,
            kind,
        });
        let account_kind = self.accounts.get(&action.account).cloned();
        let outcome = match account_kind {
            None => {
                return Err(Trap::Host(format!("no such account: {}", action.account)));
            }
            Some(AccountKind::Plain) => Outcome::default(),
            Some(AccountKind::Native(native)) => {
                self.exec_native(&native, action.account, action.account, action)?
            }
            Some(AccountKind::Wasm(w)) => {
                self.exec_wasm(&w, action.account, action.account, action, fuel)?
            }
        };
        self.settle(outcome, action.account, action, fuel, depth)
    }

    /// Deliver a notification: `receiver` observes `action` with the original
    /// `code` (this preserved `code` is exactly what Fake Notification
    /// exploits, §2.3.2).
    fn exec_notification(
        &mut self,
        receiver: Name,
        code: Name,
        action: &Action,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<(), Trap> {
        if depth > MAX_ACTION_DEPTH {
            return Err(Trap::Host("notification nesting too deep".into()));
        }
        self.executed.push(ExecutedAction {
            receiver,
            code,
            action: action.name,
            kind: ExecKind::Notification,
        });
        let account_kind = self.accounts.get(&receiver).cloned();
        let outcome = match account_kind {
            None | Some(AccountKind::Plain) => Outcome::default(),
            Some(AccountKind::Native(native)) => {
                self.exec_native(&native, receiver, code, action)?
            }
            Some(AccountKind::Wasm(w)) => self.exec_wasm(&w, receiver, code, action, fuel)?,
        };
        self.settle_notification(outcome, code, action, fuel, depth)
    }

    fn settle(
        &mut self,
        outcome: Outcome,
        code: Name,
        action: &Action,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<(), Trap> {
        for recipient in outcome.notifications {
            self.exec_notification(recipient, code, action, fuel, depth + 1)?;
        }
        for inline in outcome.inlines {
            self.exec_action(&inline, ExecKind::Inline, fuel, depth + 1)?;
        }
        self.deferred_queue.extend(outcome.deferred);
        Ok(())
    }

    fn settle_notification(
        &mut self,
        outcome: Outcome,
        code: Name,
        action: &Action,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<(), Trap> {
        // Notifications forwarded from a notification keep the ORIGINAL code.
        self.settle(outcome, code, action, fuel, depth)
    }

    fn exec_native(
        &mut self,
        native: &NativeKind,
        receiver: Name,
        code: Name,
        action: &Action,
    ) -> Result<Outcome, Trap> {
        match native {
            NativeKind::Token => self.exec_token(receiver, code, action),
            NativeKind::NotifForwarder { forward_to } => {
                let mut out = Outcome::default();
                if receiver != code {
                    // Notified of someone else's action: forward it verbatim.
                    self.api_events.push(ApiEvent::RequireRecipient {
                        contract: receiver,
                        recipient: *forward_to,
                    });
                    out.notifications.push(*forward_to);
                }
                Ok(out)
            }
        }
    }

    /// The `eosio.token` logic (also used by fake issuers under other
    /// account names).
    fn exec_token(&mut self, receiver: Name, code: Name, action: &Action) -> Result<Outcome, Trap> {
        let mut out = Outcome::default();
        if receiver != code {
            // The token contract ignores notifications addressed to it.
            return Ok(out);
        }
        let transfer = Name::new("transfer");
        let issue = Name::new("issue");
        if action.name == transfer {
            let decl = crate::abi::ActionDecl::transfer();
            let values = serialize::unpack(&decl.params, &action.data)
                .map_err(|e| Trap::Host(format!("token transfer unpack: {e}")))?;
            let (from, to, quantity) = match (&values[0], &values[1], &values[2]) {
                (ParamValue::Name(f), ParamValue::Name(t), ParamValue::Asset(q)) => (*f, *t, *q),
                _ => return Err(Trap::Host("token transfer: bad types".into())),
            };
            if !action.authorized_by(from) {
                return Err(Trap::Host(format!("missing authority of {from}")));
            }
            self.ledger
                .transfer(receiver, from, to, quantity)
                .map_err(|e| Trap::Host(e.to_string()))?;
            self.api_events.push(ApiEvent::TokenTransfer {
                token: receiver,
                from,
                to,
                amount: quantity.amount,
            });
            // require_recipient(from); require_recipient(to) — notifying the
            // executing account itself is a no-op, as in nodeos.
            for party in [from, to] {
                if party != receiver {
                    out.notifications.push(party);
                }
            }
        } else if action.name == issue {
            let types = [crate::abi::ParamType::Name, crate::abi::ParamType::Asset];
            let values = serialize::unpack(&types, &action.data)
                .map_err(|e| Trap::Host(format!("token issue unpack: {e}")))?;
            let (to, quantity) = match (&values[0], &values[1]) {
                (ParamValue::Name(t), ParamValue::Asset(q)) => (*t, *q),
                _ => return Err(Trap::Host("token issue: bad types".into())),
            };
            if !action.authorized_by(receiver) {
                return Err(Trap::Host(format!(
                    "issue requires authority of {receiver}"
                )));
            }
            self.ledger.issue(receiver, to, quantity);
            out.notifications.push(to);
        }
        Ok(out)
    }

    fn exec_wasm(
        &mut self,
        contract: &WasmContract,
        receiver: Name,
        code: Name,
        action: &Action,
        fuel: &mut Fuel,
    ) -> Result<Outcome, Trap> {
        let compiled = contract.compiled.clone();
        let legacy = self.config.legacy_exec_costs;
        let _ = code; // `code` reaches the contract through apply()'s args
        let pool_key = (receiver, Arc::as_ptr(&compiled) as usize);
        // Take any pooled instance out before the host borrows the chain; it
        // is reset to the freshly-instantiated state below. The pooled
        // instance keeps its `compiled` Arc alive, so the pointer key cannot
        // be reused by a different module while the entry exists.
        let pooled = if legacy {
            None
        } else {
            self.instance_pool.take(&pool_key)
        };
        let mut host = ChainHost {
            chain: self,
            receiver,
            action,
            outcome: Outcome::default(),
            iterators: Vec::new(),
        };
        // Resolution is a pure function of the module's import names, so the
        // table is resolved once per contract and reused; failures are not
        // cached (re-resolving yields the same error). The legacy bench arm
        // re-resolves every action, as the seed interpreter did.
        let host_ids = match contract.resolved.get() {
            Some(ids) if !legacy => ids.clone(),
            _ => {
                let ids = wasai_vm::resolve_imports(&compiled, &mut host)
                    .map_err(|e| Trap::Host(e.to_string()))?;
                if legacy {
                    ids
                } else {
                    contract.resolved.get_or_init(|| ids).clone()
                }
            }
        };
        let reusable = pooled.and_then(|mut inst| inst.reset().is_ok().then_some(inst));
        let mut instance = match reusable {
            Some(inst) => inst,
            None => Instance::with_host_ids(compiled, host_ids)
                .map_err(|e| Trap::Host(e.to_string()))?,
        };
        let args = [
            Value::I64(receiver.as_i64()),
            Value::I64(code.as_i64()),
            Value::I64(action.name.as_i64()),
        ];
        let result = instance.invoke_export(&mut host, "apply", &args, fuel);
        let outcome = host.outcome;
        // Pool the instance even after a trap — reset() restores it before
        // the next use, and trapping runs are common while fuzzing.
        if !legacy {
            self.instance_pool.put(pool_key, instance);
        }
        result?;
        Ok(outcome)
    }
}

/// Side effects a single contract execution wants applied.
#[derive(Debug, Default)]
struct Outcome {
    notifications: Vec<Name>,
    inlines: Vec<Action>,
    deferred: Vec<Action>,
}

/// Host-function ids (EOSIO library APIs + WASAI trace hooks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Api {
    ReadActionData,
    ActionDataSize,
    CurrentReceiver,
    RequireAuth,
    HasAuth,
    RequireAuth2,
    RequireRecipient,
    IsAccount,
    EosioAssert,
    CurrentTime,
    TaposBlockNum,
    TaposBlockPrefix,
    SendInline,
    SendDeferred,
    DbStoreI64,
    DbFindI64,
    DbGetI64,
    DbUpdateI64,
    DbRemoveI64,
    DbNextI64,
    Printi,
    Prints,
}

/// Name table for import resolution.
const API_TABLE: &[(&str, Api)] = &[
    ("read_action_data", Api::ReadActionData),
    ("action_data_size", Api::ActionDataSize),
    ("current_receiver", Api::CurrentReceiver),
    ("require_auth", Api::RequireAuth),
    ("has_auth", Api::HasAuth),
    ("require_auth2", Api::RequireAuth2),
    ("require_recipient", Api::RequireRecipient),
    ("is_account", Api::IsAccount),
    ("eosio_assert", Api::EosioAssert),
    ("current_time", Api::CurrentTime),
    ("tapos_block_num", Api::TaposBlockNum),
    ("tapos_block_prefix", Api::TaposBlockPrefix),
    ("send_inline", Api::SendInline),
    ("send_deferred", Api::SendDeferred),
    ("db_store_i64", Api::DbStoreI64),
    ("db_find_i64", Api::DbFindI64),
    ("db_get_i64", Api::DbGetI64),
    ("db_update_i64", Api::DbUpdateI64),
    ("db_remove_i64", Api::DbRemoveI64),
    ("db_next_i64", Api::DbNextI64),
    ("printi", Api::Printi),
    ("prints", Api::Prints),
];

/// Base id for the trace hooks in the [`HostFnId`] space.
const HOOK_BASE: u32 = 1000;

struct ChainHost<'a> {
    chain: &'a mut Chain,
    receiver: Name,
    action: &'a Action,
    outcome: Outcome,
    /// db iterator handles: index → (table, primary key).
    iterators: Vec<(TableId, u64)>,
}

impl ChainHost<'_> {
    fn read_cstr(mem: &LinearMemory, ptr: u32) -> String {
        let mut out = Vec::new();
        let mut addr = ptr as u64;
        while out.len() < 256 {
            match mem.load_uint(addr, 1) {
                Ok(0) | Err(_) => break,
                Ok(b) => out.push(b as u8),
            }
            addr += 1;
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    fn table_id(&self, scope: i64, table: i64) -> TableId {
        TableId {
            code: self.receiver,
            scope: Name::from_i64(scope),
            table: Name::from_i64(table),
        }
    }

    fn log_db(&mut self, access: DbAccess, table: TableId) {
        self.chain.api_events.push(ApiEvent::Db(DbOp {
            contract: self.receiver,
            access,
            table,
        }));
    }

    #[allow(clippy::too_many_lines)]
    fn call_api(
        &mut self,
        api: Api,
        args: &[Value],
        mem: &mut LinearMemory,
    ) -> Result<Option<Value>, Trap> {
        match api {
            Api::ReadActionData => {
                let ptr = args[0].as_i32() as u32;
                let len = args[1].as_i32() as u32;
                let n = (self.action.data.len() as u32).min(len);
                mem.write(ptr as u64, &self.action.data[..n as usize])?;
                Ok(Some(Value::I32(n as i32)))
            }
            Api::ActionDataSize => Ok(Some(Value::I32(self.action.data.len() as i32))),
            Api::CurrentReceiver => Ok(Some(Value::I64(self.receiver.as_i64()))),
            Api::RequireAuth => {
                let actor = Name::from_i64(args[0].as_i64());
                if self.action.authorized_by(actor) {
                    self.chain.api_events.push(ApiEvent::RequireAuth {
                        contract: self.receiver,
                        actor,
                    });
                    Ok(None)
                } else {
                    Err(Trap::Host(format!("missing required authority {actor}")))
                }
            }
            Api::RequireAuth2 => {
                let actor = Name::from_i64(args[0].as_i64());
                if self.action.authorized_by(actor) {
                    self.chain.api_events.push(ApiEvent::RequireAuth {
                        contract: self.receiver,
                        actor,
                    });
                    Ok(None)
                } else {
                    Err(Trap::Host(format!("missing required authority {actor}")))
                }
            }
            Api::HasAuth => {
                let actor = Name::from_i64(args[0].as_i64());
                let granted = self.action.authorized_by(actor);
                self.chain.api_events.push(ApiEvent::HasAuth {
                    contract: self.receiver,
                    actor,
                    granted,
                });
                Ok(Some(Value::I32(granted as i32)))
            }
            Api::RequireRecipient => {
                let recipient = Name::from_i64(args[0].as_i64());
                self.chain.api_events.push(ApiEvent::RequireRecipient {
                    contract: self.receiver,
                    recipient,
                });
                if recipient != self.receiver {
                    self.outcome.notifications.push(recipient);
                }
                Ok(None)
            }
            Api::IsAccount => {
                let name = Name::from_i64(args[0].as_i64());
                Ok(Some(Value::I32(self.chain.is_account(name) as i32)))
            }
            Api::EosioAssert => {
                let cond = args[0].as_i32();
                self.chain.api_events.push(ApiEvent::Assert {
                    contract: self.receiver,
                    passed: cond != 0,
                });
                if cond != 0 {
                    Ok(None)
                } else {
                    let msg = Self::read_cstr(mem, args[1].as_i32() as u32);
                    Err(Trap::AssertFailed(msg))
                }
            }
            Api::CurrentTime => Ok(Some(Value::I64(self.chain.time_us))),
            Api::TaposBlockNum => {
                self.chain.api_events.push(ApiEvent::TaposRead {
                    contract: self.receiver,
                });
                Ok(Some(Value::I32(self.chain.block_num as i32)))
            }
            Api::TaposBlockPrefix => {
                self.chain.api_events.push(ApiEvent::TaposRead {
                    contract: self.receiver,
                });
                Ok(Some(Value::I32(self.chain.block_prefix as i32)))
            }
            Api::SendInline => {
                let account = Name::from_i64(args[0].as_i64());
                let name = Name::from_i64(args[1].as_i64());
                let ptr = args[2].as_i32() as u32;
                let len = args[3].as_i32() as u32;
                let data = mem.read_vec(ptr as u64, len)?;
                self.chain.api_events.push(ApiEvent::SendInline {
                    contract: self.receiver,
                    target: account,
                    action: name,
                });
                // Inline actions carry the sending contract's authority.
                self.outcome.inlines.push(Action {
                    account,
                    name,
                    authorization: vec![crate::action::PermissionLevel::active(self.receiver)],
                    data,
                });
                Ok(None)
            }
            Api::SendDeferred => {
                let account = Name::from_i64(args[1].as_i64());
                let name = Name::from_i64(args[2].as_i64());
                let ptr = args[3].as_i32() as u32;
                let len = args[4].as_i32() as u32;
                let data = mem.read_vec(ptr as u64, len)?;
                self.chain.api_events.push(ApiEvent::SendDeferred {
                    contract: self.receiver,
                    target: account,
                    action: name,
                });
                self.outcome.deferred.push(Action {
                    account,
                    name,
                    authorization: vec![crate::action::PermissionLevel::active(self.receiver)],
                    data,
                });
                Ok(None)
            }
            Api::DbStoreI64 => {
                let table = self.table_id(args[0].as_i64(), args[1].as_i64());
                let id = args[3].as_i64() as u64;
                let ptr = args[4].as_i32() as u32;
                let len = args[5].as_i32() as u32;
                let data = mem.read_vec(ptr as u64, len)?;
                self.log_db(DbAccess::Write, table);
                if !self.chain.db.store(table, id, data) {
                    return Err(Trap::Host("db_store_i64: primary key exists".into()));
                }
                self.iterators.push((table, id));
                Ok(Some(Value::I32(self.iterators.len() as i32 - 1)))
            }
            Api::DbFindI64 => {
                let table = TableId {
                    code: Name::from_i64(args[0].as_i64()),
                    scope: Name::from_i64(args[1].as_i64()),
                    table: Name::from_i64(args[2].as_i64()),
                };
                let id = args[3].as_i64() as u64;
                self.log_db(DbAccess::Read, table);
                if self.chain.db.find(table, id).is_some() {
                    self.iterators.push((table, id));
                    Ok(Some(Value::I32(self.iterators.len() as i32 - 1)))
                } else {
                    Ok(Some(Value::I32(-1)))
                }
            }
            Api::DbGetI64 => {
                let itr = args[0].as_i32();
                let ptr = args[1].as_i32() as u32;
                let len = args[2].as_i32() as u32;
                let (table, id) = *self
                    .iterators
                    .get(itr as usize)
                    .ok_or_else(|| Trap::Host("db_get_i64: bad iterator".into()))?;
                let row = self
                    .chain
                    .db
                    .find(table, id)
                    .ok_or_else(|| Trap::Host("db_get_i64: row vanished".into()))?
                    .to_vec();
                let n = (row.len() as u32).min(len);
                mem.write(ptr as u64, &row[..n as usize])?;
                Ok(Some(Value::I32(row.len() as i32)))
            }
            Api::DbUpdateI64 => {
                let itr = args[0].as_i32();
                let ptr = args[2].as_i32() as u32;
                let len = args[3].as_i32() as u32;
                let (table, id) = *self
                    .iterators
                    .get(itr as usize)
                    .ok_or_else(|| Trap::Host("db_update_i64: bad iterator".into()))?;
                let data = mem.read_vec(ptr as u64, len)?;
                self.log_db(DbAccess::Write, table);
                if !self.chain.db.update(table, id, data) {
                    return Err(Trap::Host("db_update_i64: no such row".into()));
                }
                Ok(None)
            }
            Api::DbRemoveI64 => {
                let itr = args[0].as_i32();
                let (table, id) = *self
                    .iterators
                    .get(itr as usize)
                    .ok_or_else(|| Trap::Host("db_remove_i64: bad iterator".into()))?;
                self.log_db(DbAccess::Write, table);
                if !self.chain.db.remove(table, id) {
                    return Err(Trap::Host("db_remove_i64: no such row".into()));
                }
                Ok(None)
            }
            Api::DbNextI64 => {
                let itr = args[0].as_i32();
                let ptr = args[1].as_i32() as u32;
                let (table, id) = *self
                    .iterators
                    .get(itr as usize)
                    .ok_or_else(|| Trap::Host("db_next_i64: bad iterator".into()))?;
                self.log_db(DbAccess::Read, table);
                match self.chain.db.next_key(table, id) {
                    Some(next) => {
                        mem.store_uint(ptr as u64, 8, next)?;
                        self.iterators.push((table, next));
                        Ok(Some(Value::I32(self.iterators.len() as i32 - 1)))
                    }
                    None => Ok(Some(Value::I32(-1))),
                }
            }
            Api::Printi | Api::Prints => Ok(None),
        }
    }
}

impl Host for ChainHost<'_> {
    fn resolve(&mut self, module: &str, name: &str, _ty: &FuncType) -> Option<HostFnId> {
        if let Some(offset) = wasai_vm::host::hooks::hook_offset(module, name) {
            return Some(HostFnId(HOOK_BASE + offset));
        }
        if module != "env" {
            return None;
        }
        API_TABLE
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| HostFnId(i as u32))
    }

    fn call(
        &mut self,
        id: HostFnId,
        args: &[Value],
        mem: &mut LinearMemory,
    ) -> Result<Option<Value>, Trap> {
        if id.0 >= HOOK_BASE {
            wasai_vm::host::hooks::dispatch(&mut self.chain.sink, id.0 - HOOK_BASE, args);
            return Ok(None);
        }
        let api = API_TABLE[id.0 as usize].1;
        self.call_api(api, args, mem)
    }
}
