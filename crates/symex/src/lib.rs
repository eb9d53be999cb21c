#![warn(missing_docs)]

//! # wasai-symex — Symback, the trace-replay symbolic executor (§3.4)
//!
//! Symback is the feedback half of WASAI's concolic loop: it replays the
//! runtime traces captured by the instrumented contract inside an EOSVM
//! *simulator*, building symbolic machine states per the operational
//! semantics of Table 3, and then flips branch constraints to produce
//! adaptive seeds:
//!
//! - [`memory`]: the concrete-address memory model (C2, §3.4.1);
//! - [`inputs`]: calling-convention-based symbolic input construction that
//!   skips the deserializer (C3, §3.4.2, Table 2);
//! - [`replay`]: the trace simulator collecting conditional states;
//! - [`flip`]: path-prefix ∧ flipped-condition query assembly (§3.4.4);
//! - [`seedgen`]: solver models back into parameter vectors ρ⃗.

pub mod flip;
pub mod inputs;
pub mod memory;
pub mod replay;
pub mod seedgen;

pub use flip::{flip_key, flip_queries, FlipKey, FlipQuery, FlipSet, FlipSites, MAX_FLIP_ATTEMPTS};
pub use inputs::{InputSpec, ParamBinding, ParamSpec};
pub use memory::SymMemory;
pub use replay::{CondKind, ConditionalState, ReplayOutcome, Replayer};
pub use seedgen::{collect_vars, constraint_vars, seed_from_model};
