//! Engine — the concolic fuzzing loop of Algorithm 1.
//!
//! Per iteration: select an action (fulfilling database dependencies via the
//! DBG, §3.3.2), select a seed from the circular pool, execute it on the
//! local chain capturing traces (§3.3.1), report vulnerabilities (§3.5),
//! replay the trace symbolically (§3.4), flip unexplored conditional states
//! and solve them to enqueue adaptive seeds (§3.4.4) — until the (virtual)
//! timeout.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use wasai_chain::abi::{ActionDecl, ParamValue};
use wasai_chain::action::ApiEvent;
use wasai_chain::name::Name;
use wasai_chain::{Chain, Receipt, Transaction};
use wasai_obs as obs;
use wasai_smt::{CachedQuery, QueryKey, SolveResult, SolverCache};
use wasai_symex::{constraint_vars, flip_queries, seed_from_model, Replayer, MAX_FLIP_ATTEMPTS};

use crate::clock::VirtualClock;
use crate::config::FuzzConfig;
use crate::coverage::{BranchKey, CoverageSeries};
use crate::dbg::DependencyGraph;
use crate::fleet::stage;
use crate::harness::{self, accounts, PreparedTarget, TargetInfo};
use crate::oracle::CustomOracle;
use crate::pool::SeedPool;
use crate::report::FuzzReport;
use crate::scanner::{PayloadKind, Scanner};
use crate::seed::{random_seed, random_value};
use crate::telemetry::{self, SmtOutcome, Stage, TelemetryEvent, TelemetrySink};

/// The WASAI fuzzing engine.
#[derive(Debug)]
pub struct Engine {
    cfg: FuzzConfig,
    prepared: Arc<PreparedTarget>,
    chain: Chain,
    rng: StdRng,
    pool: SeedPool,
    dbg: DependencyGraph,
    clock: VirtualClock,
    scanner: Scanner,
    explored: HashSet<BranchKey>,
    attempted: HashMap<BranchKey, u32>,
    action_funcs: HashMap<Name, u32>,
    coverage_series: CoverageSeries,
    iterations: u64,
    smt_queries: u64,
    /// Virtual µs charged to execution / the solver — the deterministic
    /// split behind [`FuzzReport::exec_virtual_us`]. Accumulated at the
    /// clock charge sites, so the two always partition `clock.micros()`.
    exec_vus: u64,
    solve_vus: u64,
    stall: u64,
    transfer_round: u64,
    custom_oracles: Vec<Box<dyn CustomOracle>>,
    sink: Option<Box<dyn TelemetrySink>>,
    truncated: bool,
    /// Per-campaign query memo (L1). Keyed canonically (budget cap
    /// included), so the same guard re-reached by a later seed replays its
    /// `(result, stats)` instead of re-solving. Only definitive outcomes
    /// are stored ([`wasai_smt::cacheable`]) — a deadline-truncated
    /// `Unknown` must not shadow a retry that has time. Drives the
    /// deterministic `cache_hit` telemetry tag.
    memo: HashMap<QueryKey, CachedQuery>,
    /// Optional fleet-wide cache (L2), shared across campaigns like the
    /// `PreparedTarget` artifact cache. Hits are invisible in telemetry
    /// (they depend on sibling scheduling), which is what keeps traces
    /// byte-identical at any worker count.
    solver_cache: Option<Arc<SolverCache>>,
}

impl Engine {
    /// Set up the chain (instrumented target + agents) and the engine.
    ///
    /// # Errors
    ///
    /// Fails when the target cannot be instrumented or deployed.
    pub fn new(target: TargetInfo, cfg: FuzzConfig) -> Result<Self, wasai_chain::ChainError> {
        Self::from_prepared(PreparedTarget::prepare(target)?, cfg)
    }

    /// [`Engine::new`] against a cached [`PreparedTarget`]: the chain deploys
    /// the shared compiled module instead of re-instrumenting and
    /// recompiling, so campaigns over the same contract pay the preparation
    /// cost once.
    ///
    /// # Errors
    ///
    /// Fails when the harness chain cannot be initialized.
    pub fn from_prepared(
        prepared: Arc<PreparedTarget>,
        cfg: FuzzConfig,
    ) -> Result<Self, wasai_chain::ChainError> {
        let chain = harness::setup_chain_prepared(&prepared)?;
        Ok(Engine {
            rng: StdRng::seed_from_u64(cfg.rng_seed),
            cfg,
            prepared,
            chain,
            pool: SeedPool::new(),
            dbg: DependencyGraph::new(),
            clock: VirtualClock::new(),
            scanner: Scanner::new(),
            explored: HashSet::new(),
            attempted: HashMap::new(),
            action_funcs: HashMap::new(),
            coverage_series: CoverageSeries::new(),
            iterations: 0,
            smt_queries: 0,
            exec_vus: 0,
            solve_vus: 0,
            stall: 0,
            transfer_round: 0,
            custom_oracles: Vec::new(),
            sink: None,
            truncated: false,
            memo: HashMap::new(),
            solver_cache: None,
        })
    }

    /// Attach a fleet-shared solver query cache. Campaigns with and without
    /// one produce byte-identical reports and traces — the cache only
    /// changes how answers are obtained, never what they are.
    pub fn set_solver_cache(&mut self, cache: Arc<SolverCache>) {
        self.solver_cache = Some(cache);
    }

    /// Register a custom vulnerability oracle (§5's extension interface).
    pub fn add_oracle(&mut self, oracle: Box<dyn CustomOracle>) {
        self.custom_oracles.push(oracle);
    }

    /// Attach a telemetry sink for this campaign.
    ///
    /// Without a sink (the default) the engine skips event construction
    /// entirely, so untraced campaigns are byte-for-byte what they were
    /// before telemetry existed. Events carry virtual-clock timestamps only,
    /// so traced campaigns remain deterministic across worker counts.
    pub fn set_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.sink = Some(sink);
    }

    /// Emit one event if a sink is attached.
    fn emit(&mut self, event: TelemetryEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(event);
        }
    }

    /// Run the campaign to completion and produce the report.
    pub fn run(mut self) -> FuzzReport {
        // One Arc bump pins the action declarations for the whole campaign;
        // the hot loop below borrows them instead of cloning per iteration.
        let prepared = self.prepared.clone();

        self.emit(TelemetryEvent::CampaignStarted {
            seed: self.cfg.rng_seed,
            actions: prepared.info.abi.actions.len(),
            vtime: 0,
        });
        // Coverage denominator: this target's coverable direction count, summed once
        // per campaign so it stays consistent with the per-campaign-summed
        // coverage numerator.
        obs::add(
            obs::Counter::BranchSites,
            prepared.branch_sites.directions() as u64,
        );

        // Algorithm 1, line 2: fill `seeds` with random data.
        for decl in &prepared.info.abi.actions {
            for _ in 0..5 {
                let s = random_seed(&mut self.rng, decl, accounts::target());
                self.pool.push(s.action, s.params);
            }
        }

        self.payload_sweep();

        // Algorithm 1, lines 3–12: the fuzzing loop. The wall-clock deadline
        // check makes the loop degrade to a partial (`truncated`) report when
        // the watchdog fires, instead of running out virtual time.
        let num_actions = prepared.info.abi.actions.len();
        while !self.clock.timed_out(self.cfg.timeout_us)
            && self.stall < self.cfg.stall_iters
            && num_actions > 0
            && !self.deadline_fired()
        {
            let decl = &prepared.info.abi.actions[(self.iterations as usize) % num_actions];
            self.iterate(decl);
            self.iterations += 1;
            obs::inc(obs::Counter::Iterations);
            obs::worker::tick();
        }

        // Final adversary sweep: deeper on-chain state may open new paths.
        self.payload_sweep();

        let (findings, exploits) = self.scanner.verdicts();
        let custom_findings: Vec<(String, String)> = self
            .custom_oracles
            .iter()
            .filter_map(|o| o.verdict().map(|v| (o.name().to_string(), v)))
            .collect();
        let branches = self.explored.len();
        if self.sink.is_some() {
            for ev in telemetry::oracle_verdicts(&findings, &custom_findings, self.clock.micros()) {
                self.emit(ev);
            }
            self.emit(TelemetryEvent::CampaignFinished {
                iterations: self.iterations,
                branches,
                truncated: self.truncated,
                vtime: self.clock.micros(),
            });
        }
        let mut coverage_series = std::mem::take(&mut self.coverage_series);
        coverage_series.push(self.cfg.timeout_us.max(self.clock.micros()), branches);
        FuzzReport {
            findings,
            exploits,
            branches,
            coverage_series,
            iterations: self.iterations,
            virtual_us: self.clock.micros(),
            exec_virtual_us: self.exec_vus,
            solve_virtual_us: self.solve_vus,
            smt_queries: self.smt_queries,
            custom_findings,
            truncated: self.truncated,
        }
    }

    /// Check the wall-clock watchdog, latching [`FuzzReport::truncated`] the
    /// first time it fires. [`wasai_smt::Deadline::NONE`] (the default) never
    /// fires, so unwatched campaigns stay fully deterministic.
    fn deadline_fired(&mut self) -> bool {
        if !self.truncated && self.cfg.deadline.expired() {
            self.truncated = true;
        }
        self.truncated
    }

    /// Run the four oracle payloads (§3.5) once.
    fn payload_sweep(&mut self) {
        let prepared = self.prepared.clone();
        let Some(decl) = prepared.info.transfer_decl() else {
            return;
        };
        let base = random_seed(&mut self.rng, decl, accounts::target()).params;
        for kind in [
            PayloadKind::Official,
            PayloadKind::DirectFake,
            PayloadKind::FakeToken,
            PayloadKind::ForwardedNotif,
        ] {
            self.run_case(kind, decl.name, base.clone(), 0);
        }
    }

    /// Build the transaction for a payload kind; returns it together with
    /// the *effective* parameters (after from/to forcing), which are what
    /// the symbolic replay must bind to.
    fn build_tx(
        &self,
        kind: PayloadKind,
        action: Name,
        params: &[ParamValue],
    ) -> (Transaction, Vec<ParamValue>) {
        match kind {
            PayloadKind::Official => {
                let p = harness::forced_transfer_params(
                    params,
                    accounts::attacker(),
                    accounts::target(),
                );
                (harness::official_transfer(&p), p)
            }
            PayloadKind::DirectFake => (harness::direct_fake_transfer(params), params.to_vec()),
            PayloadKind::FakeToken => {
                let p = harness::forced_transfer_params(
                    params,
                    accounts::attacker(),
                    accounts::target(),
                );
                (harness::fake_token_transfer(&p), p)
            }
            PayloadKind::ForwardedNotif => {
                let p = harness::forced_transfer_params(
                    params,
                    accounts::attacker(),
                    accounts::fake_notif(),
                );
                (harness::fake_notif_transfer(&p), p)
            }
            PayloadKind::Action => (harness::direct_action(action, params), params.to_vec()),
        }
    }

    /// Execute one case and immediately chase its adaptive seeds *on the
    /// same delivery path*: a flipped constraint describes the path the
    /// executed payload took, so the new seed must ride the same payload to
    /// reach the flipped branch (progressively deepening through nested
    /// verification, §3.4.4).
    fn run_case(&mut self, kind: PayloadKind, action: Name, params: Vec<ParamValue>, depth: u32) {
        if self.clock.timed_out(self.cfg.timeout_us) || self.deadline_fired() {
            return;
        }
        let (tx, effective) = self.build_tx(kind, action, &params);
        let new_seeds = self.execute(kind, tx, action, effective);
        if depth < 4 {
            for s in new_seeds.into_iter().take(2) {
                // Chase the seed on the delivery that discovered the branch…
                self.run_case(kind, action, s.clone(), depth + 1);
                // …and on the forwarded path: the Fake Notif guard can only
                // be observed through the agent (to = fake.notif ≠ _self), so
                // deep guards behind verification need the solved inputs to
                // ride that payload too (§4.3's paytobtckey1 case).
                if action == Name::new("transfer") && kind != PayloadKind::ForwardedNotif {
                    self.run_case(PayloadKind::ForwardedNotif, action, s, depth + 1);
                }
            }
        }
    }

    /// One fuzzing iteration for an action.
    fn iterate(&mut self, decl: &ActionDecl) {
        // §3.3.2: if the action reads a table some other action writes,
        // execute that writer first to fulfil the transaction dependency.
        if let Some(writer) = self.dbg.writer_for_reads_of(decl.name) {
            if let Some(params) = self.pool.pop_rotate(writer) {
                // The eosponser is fed through the legitimate token path so
                // guard code does not reject the dependency prefix.
                let kind = if writer == Name::new("transfer") {
                    PayloadKind::Official
                } else {
                    PayloadKind::Action
                };
                self.run_case(kind, writer, params, 0);
            }
        }

        // Keep a trickle of fresh random seeds flowing so name-typed
        // parameters eventually hit every harness account (§3.3.2's pool
        // rotation alone would only recycle the initial candidates). This
        // must run every round: gating it on an iteration modulus aliases
        // with the action round-robin whenever the ABI size divides the
        // modulus, starving every action but the first of fresh seeds.
        let s = random_seed(&mut self.rng, decl, accounts::target());
        self.pool.push(s.action, s.params);

        let params = self.pool.pop_rotate(decl.name).unwrap_or_else(|| {
            decl.params
                .iter()
                .map(|&t| random_value(&mut self.rng, t, accounts::target()))
                .collect()
        });

        if decl.name == Name::new("transfer") {
            // Rotate through the three delivery paths so both the guard code
            // (official/forwarded) and the unguarded paths (direct) are
            // exercised with adaptive parameters. A dedicated counter keeps
            // the rotation independent of the action round-robin (which
            // shares the modulus when the ABI happens to have three actions).
            self.transfer_round += 1;
            let kind = match self.transfer_round % 3 {
                0 => PayloadKind::Official,
                1 => PayloadKind::DirectFake,
                _ => PayloadKind::ForwardedNotif,
            };
            self.run_case(kind, decl.name, params, 0);
        } else {
            self.run_case(PayloadKind::Action, decl.name, params, 0);
        }
    }

    /// Execute one transaction and run the full observation pipeline:
    /// scanner, DBG update, coverage, symbolic replay, constraint flipping.
    fn execute(
        &mut self,
        kind: PayloadKind,
        tx: Transaction,
        action: Name,
        params: Vec<ParamValue>,
    ) -> Vec<Vec<ParamValue>> {
        let prepared = self.prepared.clone();
        stage::enter(stage::EXECUTE);
        let receipt: Receipt = match self.chain.push_transaction(&tx) {
            Ok(r) => r,
            Err(e) => e.receipt,
        };
        stage::enter(stage::CAMPAIGN);
        obs::inc(obs::Counter::SeedsExecuted);
        let vtime_before = self.clock.micros();
        self.clock
            .charge_execution(&self.cfg.cost, receipt.steps_used);
        self.exec_vus += self.clock.micros() - vtime_before;
        self.emit(TelemetryEvent::StageTiming {
            stage: Stage::Execute,
            dur_us: self.clock.micros() - vtime_before,
            vtime: self.clock.micros(),
        });

        // Scanner: guard detection needs the transfer's payee value.
        let to_value = match params.get(1) {
            Some(ParamValue::Name(n)) if action == Name::new("transfer") => Some(n.raw()),
            _ => None,
        };
        self.scanner
            .observe(&prepared.info.original, kind, &receipt, to_value);
        for oracle in &mut self.custom_oracles {
            oracle.observe(&prepared.info.original, kind, &receipt);
        }

        // DBG update (§3.3.2).
        for ev in &receipt.api_events {
            if let ApiEvent::Db(op) = ev {
                if op.contract == accounts::target() {
                    self.dbg.record(action, op.access, op.table);
                }
            }
        }

        if receipt.trace.is_empty() {
            self.stall += 1;
            if self.sink.is_some() {
                let branches = self.explored.len();
                self.emit(TelemetryEvent::SeedExecuted {
                    action: action.to_string(),
                    payload: kind.name().to_string(),
                    coverage_delta: 0,
                    branches,
                    vtime: self.clock.micros(),
                });
            }
            return Vec::new();
        }

        // Locate the action function on first contact (§3.4.2).
        if let std::collections::hash_map::Entry::Vacant(entry) = self.action_funcs.entry(action) {
            if let Some(f) =
                harness::locate_action_function(&prepared.info.original, &receipt.trace)
            {
                entry.insert(f);
                if action == Name::new("transfer") && matches!(kind, PayloadKind::Official) {
                    self.scanner.set_eosponser(f);
                }
            }
        }

        // Coverage, via the target's precomputed branch-site table.
        let before = self.explored.len();
        prepared
            .branch_sites
            .extend_from_trace(&mut self.explored, &receipt.trace);
        if self.explored.len() > before {
            self.stall = 0;
        } else {
            self.stall += 1;
        }
        obs::add(
            obs::Counter::CoverageBranches,
            (self.explored.len() - before) as u64,
        );
        self.coverage_series
            .push(self.clock.micros(), self.explored.len());
        if self.sink.is_some() {
            let branches = self.explored.len();
            self.emit(TelemetryEvent::SeedExecuted {
                action: action.to_string(),
                payload: kind.name().to_string(),
                coverage_delta: branches - before,
                branches,
                vtime: self.clock.micros(),
            });
        }

        // Symbolic feedback (§3.4): replay, flip, solve, enqueue.
        if !self.cfg.feedback {
            return Vec::new();
        }
        let Some(&action_func) = self.action_funcs.get(&action) else {
            return Vec::new();
        };
        let Some(decl) = prepared.info.abi.action(action) else {
            return Vec::new();
        };
        // Replay charges no virtual time, so a replay whose trace has no
        // live flip target cannot change any output: skip it outright.
        if !prepared.flip_sites().has_live_target(
            &receipt.trace,
            action_func,
            &self.explored,
            &self.attempted,
        ) {
            obs::inc(obs::Counter::ReplaysSkipped);
            #[cfg(debug_assertions)]
            self.check_skipped_replay(action_func, decl, params, &receipt.trace);
            return Vec::new();
        }
        // `params` is consumed into the binding pairs — no per-transaction
        // re-clone of the declaration or the values.
        let pairs: Vec<_> = decl.params.iter().copied().zip(params).collect();
        stage::enter(stage::REPLAY);
        obs::inc(obs::Counter::Replays);
        let replay_timer = obs::ScopeTimer::start(obs::Histogram::ReplayWallSeconds);
        let outcome = Replayer::new(&prepared.info.original, action_func, 1, &pairs)
            .with_deadline(self.cfg.deadline)
            .run(&receipt.trace);
        drop(replay_timer);
        stage::enter(stage::CAMPAIGN);
        if outcome.truncated {
            self.truncated = true;
        }
        self.emit(TelemetryEvent::Replayed {
            records: outcome.records,
            conditionals: outcome.conditionals.len(),
            truncated: outcome.truncated,
            vtime: self.clock.micros(),
        });

        // The solver inherits the campaign watchdog: whichever of the
        // per-query budget deadline and the campaign deadline is sooner wins.
        let mut budget = self.cfg.smt_budget;
        budget.deadline = budget.deadline.earliest(self.cfg.deadline);

        let set = flip_queries(&outcome, &self.explored);
        let mut solved = 0usize;
        let mut new_seeds = Vec::new();
        for q in &set.queries {
            if solved >= self.cfg.max_queries_per_iter
                || self.clock.timed_out(self.cfg.timeout_us)
                || self.deadline_fired()
            {
                break;
            }
            let key = q.target_key();
            // A solved model does not guarantee the chased seed reaches the
            // flipped branch (the delivery path may force from/to and clamp
            // the asset, §3.5's payload templates), so allow a few retries
            // per target before writing it off — a permanently poisoned key
            // can otherwise stall a campaign two flips short of a gate.
            let tries = self.attempted.entry(key).or_insert(0);
            if *tries >= MAX_FLIP_ATTEMPTS {
                continue;
            }
            *tries += 1;
            stage::enter(stage::SOLVE);
            let solve_timer = obs::ScopeTimer::start(obs::Histogram::SolveWallSeconds);
            let constraints = q.constraints(&set.prefix);
            // Reuse gates only the cache layers: the campaign memo (L1),
            // then the fleet cache (L2), then one from-scratch `check`. A
            // hit replays the exact (result, stats) the solve would produce.
            let qkey = self.cfg.smt_reuse.then(|| {
                obs::inc(obs::Counter::CacheLookupsCampaign);
                wasai_smt::query_key(
                    &outcome.pool,
                    &constraints[..q.prefix_len],
                    Some(q.flipped),
                    budget.max_conflicts,
                )
            });
            let memo_hit = qkey.as_ref().and_then(|k| self.memo.get(k));
            let (result, stats, cache_hit) = if let Some(entry) = memo_hit {
                obs::inc(obs::Counter::CacheHitsCampaign);
                let (r, s) = entry.decode(&outcome.pool);
                (r, s, true)
            } else {
                let fleet = self.solver_cache.as_ref().zip(qkey.as_ref());
                let (r, s) = match fleet.and_then(|(c, k)| c.lookup(k, &outcome.pool)) {
                    Some(hit) => hit,
                    None => {
                        let (r, s) = wasai_smt::check(&outcome.pool, &constraints, budget);
                        // A deadline-truncated Unknown is a watchdog
                        // artifact, not the query's answer — memoizing it
                        // would replay the truncation into sibling
                        // campaigns whose solves had time, so only
                        // definitive outcomes enter the fleet cache.
                        if let Some((cache, k)) =
                            fleet.filter(|_| wasai_smt::cacheable(&r, &budget))
                        {
                            cache.store(k.clone(), CachedQuery::encode(&outcome.pool, &r, s));
                        }
                        (r, s)
                    }
                };
                // Same rule for the per-campaign memo: a transient Unknown
                // must not shadow a later retry of this key.
                if let Some(k) = qkey.filter(|_| wasai_smt::cacheable(&r, &budget)) {
                    self.memo
                        .insert(k, CachedQuery::encode(&outcome.pool, &r, s));
                }
                (r, s, false)
            };
            // Not the first query answered for this replay (reuse on only).
            let incremental = self.cfg.smt_reuse && solved > 0;
            drop(solve_timer);
            stage::enter(stage::CAMPAIGN);
            obs::inc(match result {
                SolveResult::Sat(_) => obs::Counter::SmtSat,
                SolveResult::Unsat => obs::Counter::SmtUnsat,
                SolveResult::Unknown => obs::Counter::SmtUnknown,
            });
            obs::add(obs::Counter::SmtPropagations, stats.propagations);
            obs::worker::tick();
            let vtime_before = self.clock.micros();
            self.clock.charge_smt(&self.cfg.cost, stats.propagations);
            self.solve_vus += self.clock.micros() - vtime_before;
            self.smt_queries += 1;
            solved += 1;
            if self.sink.is_some() {
                self.emit(TelemetryEvent::StageTiming {
                    stage: Stage::Solve,
                    dur_us: self.clock.micros() - vtime_before,
                    vtime: self.clock.micros(),
                });
                let outcome_tag = match result {
                    SolveResult::Sat(_) => SmtOutcome::Sat,
                    SolveResult::Unsat => SmtOutcome::Unsat,
                    SolveResult::Unknown => SmtOutcome::Unknown,
                };
                self.emit(TelemetryEvent::SmtQuery {
                    outcome: outcome_tag,
                    conflicts: stats.conflicts,
                    props: stats.propagations,
                    cache_hit,
                    incremental,
                    vtime: self.clock.micros(),
                });
            }
            if let SolveResult::Sat(model) = result {
                obs::inc(obs::Counter::Flips);
                self.emit(TelemetryEvent::ConstraintFlipped {
                    func: key.0,
                    pc: key.1,
                    direction: key.2,
                    vtime: self.clock.micros(),
                });
                let vars = constraint_vars(&outcome.pool, &constraints);
                let new_params = seed_from_model(&outcome.spec, &outcome.pool, &model, &vars);
                self.pool.push(action, new_params.clone());
                new_seeds.push(new_params);
                self.stall = 0;
            }
        }
        new_seeds
    }

    /// Debug-build proof obligation of the replay skip: replay the skipped
    /// trace anyway and assert that every flip target it yields is already
    /// explored or exhausted, so the skipped replay could not have reached
    /// the solver.
    #[cfg(debug_assertions)]
    fn check_skipped_replay(
        &self,
        action_func: u32,
        decl: &ActionDecl,
        params: Vec<ParamValue>,
        trace: &[wasai_vm::TraceRecord],
    ) {
        let pairs: Vec<_> = decl.params.iter().copied().zip(params).collect();
        let outcome =
            Replayer::new(&self.prepared.info.original, action_func, 1, &pairs).run(trace);
        for q in &flip_queries(&outcome, &self.explored).queries {
            let key = q.target_key();
            let tries = self.attempted.get(&key).copied().unwrap_or(0);
            debug_assert!(
                tries >= MAX_FLIP_ATTEMPTS,
                "skipped a replay with live flip target {key:?} ({tries} attempts)"
            );
        }
    }
}
