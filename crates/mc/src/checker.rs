//! The state-space search loop (Figure 5), violation traces and search
//! statistics, plus a random-walk simulation mode.
//!
//! # Search engines
//!
//! [`ModelChecker::run`] dispatches on [`CheckerConfig::workers`]:
//!
//! * `workers == 1` (default) — the canonical sequential depth-first search.
//!   Fully deterministic: a fixed scenario and configuration always yield the
//!   same transition count, unique-state count and violation traces.
//! * `workers > 1` — a parallel search. Each worker keeps a private stack
//!   of frontier nodes and donates work to a shared queue only while a
//!   sibling is starving. All workers deduplicate states through one shared
//!   [`ExploredStore`], so each unique state is expanded exactly once
//!   across all workers. With no truncating budget the parallel search
//!   visits the same state space as the sequential one (identical
//!   `unique_states` and `transitions`, same set of violated properties),
//!   but the *order* of exploration — and therefore which trace first
//!   reaches a violating state, and where a `max_transitions` budget cuts
//!   off — is scheduling dependent.
//!
//! Both engines, and the distributed one, turn a popped node into its
//! children with the same function, `Expander::expand` (module `expand`).
//!
//! # Frontier storage
//!
//! Every frontier node keeps its transition trace (it doubles as the
//! violation trace). What else it keeps is set by one knob,
//! [`CheckerConfig::checkpoint_interval`]: a copy-on-write snapshot of the
//! state is taken every `interval` transitions of depth and shared (via
//! `Arc`) by every descendant node until the next checkpoint, and
//! expanding a node replays only the suffix since its nearest checkpoint
//! (at most `interval - 1` transitions).
//!
//! * `1` (the default) — every node carries a snapshot of its exact state.
//!   Since [`SystemState`] is copy-on-write, the snapshot shares everything
//!   the child did not modify with its parent, so this is both fast and
//!   reasonably small.
//! * `usize::MAX` — nodes carry no state; expanding a node re-executes its
//!   whole trace from the initial state (the paper's Section 6
//!   memory-saving mode). Cheapest per node, O(depth) re-execution per
//!   expansion.
//!
//! The explored set stores only 64-bit state fingerprints (Section 6 of the
//! paper), behind the tiered [`ExploredStore`] abstraction of
//! [`crate::explored`]: exact packed in-memory tables by default, an exact
//! disk-spilling tier for runs past RAM, or lossy bitstate hashing —
//! selected by [`CheckerConfig::explored`]. Under partial-order reduction
//! ([`CheckerConfig::reduction`](crate::scenario::CheckerConfig)) each
//! fingerprint additionally remembers the sleep set it was explored with —
//! see `crate::explored::FingerprintMap` for why that keeps sleep sets
//! sound under state matching.

use crate::expand::{Counter, Expander, Node, Sink, Snapshot};
use crate::explored::{build_store, visit_explored, ExploredStore, FingerprintMap, Visit};
use crate::scenario::{CheckerConfig, Scenario};
use crate::session::{Outcome, SessionCtrl};
use crate::shard::{ShardSpec, ShardedSearch, StepOutcome};
use crate::state::SystemState;
use crate::strategy::build_strategy;
use crate::trace::{Trace, TraceEngine, TraceStep};
use crate::transition::{
    drain_control_plane, enabled_transitions, execute, DiscoveryMemo, SharedDiscoveryCache,
    Transition,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A property violation together with the trace that reproduces it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated property.
    pub property: String,
    /// The violation message.
    pub message: String,
    /// The typed, replayable transitions from the initial state that
    /// reproduce the violation, in order, plus the scenario name and engine
    /// configuration they were recorded under. Serialize with
    /// [`Trace::to_json`], re-execute with
    /// [`ModelChecker::replay`](crate::replay), render labels with
    /// [`Trace::labels`].
    pub trace: Trace,
    /// How many transitions had been explored when the violation was found.
    pub transitions_explored: u64,
    /// How many unique states had been seen when the violation was found.
    pub unique_states: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violation of {}: {}", self.property, self.message)?;
        writeln!(
            f,
            "  found after {} transitions / {} unique states; trace ({} steps):",
            self.transitions_explored,
            self.unique_states,
            self.trace.len()
        )?;
        // `Trace`'s Display renders exactly the numbered-label lines the
        // stringified representation printed, keeping this byte-identical.
        write!(f, "{}", self.trace)
    }
}

/// Per-kind counters of injected fault transitions, indexed by
/// [`Transition::fault_counter_index`]. All zero unless the scenario has an
/// enabled [`FaultPlan`](crate::faults::FaultPlan) *and* the checker ran with
/// fault injection switched on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped from an ingress channel head.
    pub drops: u64,
    /// Packets duplicated at an ingress channel head.
    pub duplicates: u64,
    /// Adjacent-packet reorderings on an ingress channel.
    pub reorders: u64,
    /// Ingress link failures.
    pub link_failures: u64,
    /// Switch crashes.
    pub crashes: u64,
    /// Switch reconnects (recovery; does not consume budget).
    pub reconnects: u64,
    /// Controller failovers to the standby runtime.
    pub failovers: u64,
    /// Byzantine mutations of in-flight OpenFlow messages.
    pub mutations: u64,
}

impl FaultStats {
    /// Number of distinct fault kinds tracked.
    pub const KINDS: usize = 8;

    /// Builds the counters from an array indexed by
    /// [`Transition::fault_counter_index`].
    pub fn from_counts(counts: [u64; Self::KINDS]) -> Self {
        FaultStats {
            drops: counts[0],
            duplicates: counts[1],
            reorders: counts[2],
            link_failures: counts[3],
            crashes: counts[4],
            reconnects: counts[5],
            failovers: counts[6],
            mutations: counts[7],
        }
    }

    /// The counters labelled with their stable (JSON-schema) names, in
    /// [`Transition::fault_counter_index`] order.
    pub fn labeled(&self) -> [(&'static str, u64); Self::KINDS] {
        [
            ("drops", self.drops),
            ("duplicates", self.duplicates),
            ("reorders", self.reorders),
            ("link_failures", self.link_failures),
            ("crashes", self.crashes),
            ("reconnects", self.reconnects),
            ("failovers", self.failovers),
            ("mutations", self.mutations),
        ]
    }

    /// Counts one executed transition if it is a fault injection.
    pub fn record(&mut self, transition: &Transition) {
        if let Some(index) = transition.fault_counter_index() {
            self.bump(index);
        }
    }

    /// Increments the counter at `index` (a
    /// [`Transition::fault_counter_index`] value).
    pub fn bump(&mut self, index: usize) {
        match index {
            0 => self.drops += 1,
            1 => self.duplicates += 1,
            2 => self.reorders += 1,
            3 => self.link_failures += 1,
            4 => self.crashes += 1,
            5 => self.reconnects += 1,
            6 => self.failovers += 1,
            7 => self.mutations += 1,
            _ => panic!("fault counter index {index} out of range"),
        }
    }

    /// Total fault transitions executed, across all kinds.
    pub fn total(&self) -> u64 {
        self.labeled().iter().map(|(_, n)| n).sum()
    }

    /// True if any fault transition was executed.
    pub fn any(&self) -> bool {
        self.total() > 0
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (label, count) in self.labeled() {
            if count > 0 {
                if !first {
                    write!(f, " | ")?;
                }
                write!(f, "{label}: {count}")?;
                first = false;
            }
        }
        if first {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// Aggregate statistics of one search.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Transitions executed.
    pub transitions: u64,
    /// Unique states encountered (by fingerprint).
    pub unique_states: u64,
    /// Terminal states reached (states with no enabled transitions).
    pub terminal_states: u64,
    /// Concolic explorations executed (cache misses of the discovery memo).
    pub symbolic_executions: u64,
    /// Enabled transitions the search strategy filtered out before
    /// execution (NO-DELAY/FLOW-IR/UNUSUAL restrictions).
    pub pruned_by_strategy: u64,
    /// Strategy-selected transitions the partial-order reduction pruned
    /// before execution (sleep-set hits plus persistent-set exclusions).
    pub pruned_by_por: u64,
    /// Executed transitions whose successor state had already been explored
    /// (fingerprint dedup after execution).
    pub dedup_hits: u64,
    /// Injected-fault counters, by kind (all zero without fault injection).
    pub faults: FaultStats,
    /// Deepest path explored.
    pub max_depth: usize,
    /// True if a budget (transition or depth limit) cut the search short.
    pub truncated: bool,
    /// Frontier nodes donated between parallel workers: a busy worker hands
    /// nodes to the shared queue only while a sibling is starving. Zero for
    /// the sequential and distributed engines. (Named `work_steals` because
    /// the dist wire format and the JSON documents carry that key.)
    pub work_steals: u64,
    /// High-water mark of the explored set's in-memory footprint, in bytes.
    pub peak_explored_bytes: u64,
    /// Cold explored-set shards spilled to disk (tiered mode only).
    pub spilled_shards: u64,
    /// Disk probes avoided because a spilled segment's bloom filter proved
    /// the fingerprint absent (tiered mode only).
    pub filter_hits: u64,
    /// Binary searches actually performed against spilled segments (tiered
    /// mode only).
    pub disk_probes: u64,
    /// Wall-clock duration of the search.
    pub duration: Duration,
}

impl SearchStats {
    /// Folds an explored-store's counters into the stats.
    pub(crate) fn absorb_explored(&mut self, stats: crate::explored::ExploredStats) {
        self.peak_explored_bytes = stats.peak_bytes;
        self.spilled_shards = stats.spilled_shards;
        self.filter_hits = stats.filter_hits;
        self.disk_probes = stats.disk_probes;
    }
}

/// The outcome of a model-checking run.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Every violation found (just the first one when
    /// `stop_at_first_violation` is set).
    pub violations: Vec<Violation>,
    /// Search statistics.
    pub stats: SearchStats,
    /// How the search ended: ran to its natural end (possibly
    /// budget-truncated — see [`SearchStats::truncated`]) or stopped early
    /// by a session's cancel token or deadline.
    pub outcome: Outcome,
    /// True if the explored set was lossy (bitstate hashing): states may
    /// have been *missed*, so a PASS is not exhaustive. Violations are
    /// never invented — every reported trace really executed — but
    /// `--expect pass` semantics are weaker, which is why the flag rides
    /// on the report itself.
    pub lossy: bool,
}

impl CheckReport {
    /// True if no property was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Imposes the stable violation order racing engines (the parallel
    /// search's worker threads, the distributed coordinator's shards) need:
    /// shortest trace first, then lexicographic by property, rendered
    /// labels and message. [`CheckReport::first_violation`] then means "a
    /// shortest witness".
    pub fn sort_violations(&mut self) {
        self.violations.sort_by(|a, b| {
            (a.trace.len(), &a.property, a.trace.labels(), &a.message).cmp(&(
                b.trace.len(),
                &b.property,
                b.trace.labels(),
                &b.message,
            ))
        });
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} | outcome: {} | transitions: {} | unique states: {} | terminal states: {} | time: {:.2?}",
            if self.passed() { "PASS" } else { "FAIL" },
            self.outcome.label(self.stats.truncated),
            self.stats.transitions,
            self.stats.unique_states,
            self.stats.terminal_states,
            self.stats.duration,
        )?;
        writeln!(
            f,
            "  pruned by strategy: {} | pruned by POR: {} | dedup hits: {}",
            self.stats.pruned_by_strategy, self.stats.pruned_by_por, self.stats.dedup_hits
        )?;
        writeln!(
            f,
            "  explored set: {} bytes peak | nodes donated: {}",
            self.stats.peak_explored_bytes, self.stats.work_steals
        )?;
        if self.stats.spilled_shards > 0 || self.stats.disk_probes > 0 || self.stats.filter_hits > 0
        {
            writeln!(
                f,
                "  spilled shards: {} | filter hits: {} | disk probes: {}",
                self.stats.spilled_shards, self.stats.filter_hits, self.stats.disk_probes
            )?;
        }
        if self.lossy {
            writeln!(
                f,
                "  lossy: bitstate hashing may have missed states (PASS is not exhaustive)"
            )?;
        }
        if self.stats.faults.any() {
            writeln!(f, "  injected faults: {}", self.stats.faults)?;
        }
        for v in &self.violations {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// The NICE model checker.
pub struct ModelChecker {
    scenario: Scenario,
    config: CheckerConfig,
}

impl ModelChecker {
    /// Creates a checker for a scenario with the given configuration.
    pub fn new(scenario: Scenario, config: CheckerConfig) -> Self {
        ModelChecker { scenario, config }
    }

    /// The scenario under test.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The search configuration.
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// Runs the search and returns the report. Dispatches to the sequential
    /// or parallel engine based on [`CheckerConfig::workers`] (see the module
    /// docs for the semantics of each).
    ///
    /// A thin wrapper over [`ModelChecker::session`] with a no-op observer,
    /// no cancel token and no deadline — bit-identical to a session-driven
    /// run (pinned by the `session_api` integration tests).
    pub fn run(&self) -> CheckReport {
        self.session().run()
    }

    /// Dispatches to the right engine under a session's control handles.
    pub(crate) fn run_with_ctrl(&self, ctrl: &SessionCtrl) -> CheckReport {
        if self.config.workers > 1 {
            self.run_parallel(ctrl)
        } else {
            self.run_sequential(ctrl)
        }
    }

    /// Builds the typed witness for a violation found at `transitions`
    /// (plus the optional violating transition) — shared by every engine
    /// and the random walk so their traces can never diverge.
    pub(crate) fn make_trace(
        &self,
        transitions: &[Transition],
        last: Option<&Transition>,
        property: &str,
        message: &str,
    ) -> Trace {
        let mut trace = Trace::from_transitions(
            &self.scenario.name,
            TraceEngine::from_config(&self.config),
            transitions.iter().cloned(),
        );
        if let Some(t) = last {
            trace.steps.push(TraceStep::Transition(t.clone()));
        }
        trace.property = Some(property.to_string());
        trace.message = Some(message.to_string());
        trace
    }

    /// Appends a violation (with its typed trace) to a random-walk report.
    pub(crate) fn record_violation(
        &self,
        report: &mut CheckReport,
        property: &str,
        message: String,
        trace: &[Transition],
        last: Option<&Transition>,
    ) {
        let trace = self.make_trace(trace, last, property, &message);
        report.violations.push(Violation {
            property: property.to_string(),
            message,
            trace,
            transitions_explored: report.stats.transitions,
            unique_states: report.stats.unique_states,
        });
    }

    // -----------------------------------------------------------------------
    // Sequential engine
    // -----------------------------------------------------------------------

    /// The canonical sequential depth-first search: a solo-shard
    /// [`ShardedSearch`] driven to completion, so a 1-shard distributed run
    /// is bit-identical to this by construction.
    fn run_sequential(&self, ctrl: &SessionCtrl) -> CheckReport {
        let mut search = ShardedSearch::new(self, ShardSpec::solo());
        while search.step_ctrl(Some(ctrl)) == StepOutcome::Expanded {}
        search.finish()
    }

    // -----------------------------------------------------------------------
    // Parallel engine
    // -----------------------------------------------------------------------

    /// The parallel search: `workers` threads expand nodes from private
    /// stacks, deduplicate through one shared [`ExploredStore`], and hand
    /// work to a starving sibling through the [`DonationQueue`].
    fn run_parallel(&self, ctrl: &SessionCtrl) -> CheckReport {
        let start = Instant::now();
        let workers = self.config.workers;
        let (root, fingerprint) = Snapshot::initial(self);
        let store = build_store(&self.config.explored);
        store.visit(fingerprint, &[]);
        let stats = SharedStats::new();
        stats.unique_states.store(1, Ordering::Relaxed);
        let queue = DonationQueue::new(
            workers,
            Node::from_root(&root, Vec::new(), Vec::new(), false),
        );

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (store, queue, stats) = (store.as_ref(), &queue, &stats);
                let root = Arc::clone(&root);
                scope.spawn(move || self.parallel_worker(root, store, queue, stats, ctrl));
            }
        });

        let mut report = stats.report();
        report.stats.absorb_explored(store.stats());
        report.lossy = store.lossy();
        // Workers race, so impose a stable order; `first_violation` then
        // means "a shortest witness".
        report.sort_violations();
        report.stats.duration = start.elapsed();
        report
    }

    /// One worker of the parallel search: pops nodes, expands them, and
    /// terminates when every worker is idle on an empty queue (or a stop
    /// condition fired). Each worker keeps a private stack of nodes and only
    /// exchanges work through the shared queue when another worker is
    /// starving, so the common case pays no synchronisation beyond the
    /// explored store and the statistics counters.
    fn parallel_worker(
        &self,
        root: Arc<Snapshot>,
        store: &dyn ExploredStore,
        queue: &DonationQueue,
        stats: &SharedStats,
        ctrl: &SessionCtrl,
    ) {
        let _stop_on_panic = OnPanic(|| queue.stop(stats));
        let memo = DiscoveryMemo::with_shared(Arc::clone(&stats.discoveries));
        let mut expander = Expander::new(self, root, ShardSpec::solo(), memo);
        let mut sink = stats;
        let mut local: Vec<Node> = Vec::new();

        loop {
            let node = if stats.stop.load(Ordering::Relaxed) {
                break;
            } else if let Some(node) = local.pop() {
                node
            } else {
                match queue.pop_work(stats) {
                    Some(node) => node,
                    None => break,
                }
            };
            // Session control: a fired cancel token or expired deadline winds
            // every worker down (each polls here, so none can hang on work
            // the others abandoned).
            if ctrl.check_interrupt().is_some() {
                queue.stop(stats);
                break;
            }
            let before = local.len();
            if !expander.expand(node, store, &mut local, &mut sink, Some(ctrl)) {
                queue.stop(stats);
                break;
            }
            // Donate only when a sibling is starving: this node's children
            // plus the older half of the private stack. Otherwise keep
            // everything local and skip the lock entirely.
            if queue.needs_work() {
                let mut donated = local.split_off(before);
                donated.extend(local.drain(..before / 2));
                stats
                    .work_steals
                    .fetch_add(donated.len() as u64, Ordering::Relaxed);
                queue.push_work(donated);
            }
        }

        stats
            .symbolic_executions
            .fetch_add(expander.memo.symbolic_executions, Ordering::Relaxed);
    }

    /// Performs `walks` random walks of at most `max_steps` transitions each
    /// (the "random walks on system states" simulation mode of Section 1.3)
    /// and returns a report covering all walks.
    pub fn run_random_walk(&self, seed: u64, walks: u32, max_steps: usize) -> CheckReport {
        let start = Instant::now();
        let strategy = build_strategy(self.config.strategy);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut memo = DiscoveryMemo::default();
        let mut report = CheckReport::default();
        let mut seen = FingerprintMap::default();

        'walks: for _ in 0..walks {
            let mut state = SystemState::initial(&self.scenario);
            let mut properties = self.scenario.properties.clone();
            let mut trace: Vec<Transition> = Vec::new();
            visit_explored(&mut seen, state.fingerprint(), &[]);

            for _ in 0..max_steps {
                let enabled = enabled_transitions(&state, &self.scenario, &self.config);
                let enabled = strategy.select(&state, enabled);
                if enabled.is_empty() {
                    report.stats.terminal_states += 1;
                    for property in &properties {
                        if let Some(message) = property.check_final(&state) {
                            self.record_violation(
                                &mut report,
                                property.name(),
                                message,
                                &trace,
                                None,
                            );
                            if self.config.stop_at_first_violation {
                                break 'walks;
                            }
                        }
                    }
                    break;
                }
                let choice = rng.gen_range(0..enabled.len());
                let transition = enabled[choice].clone();
                let mut events = Vec::new();
                execute(
                    &mut state,
                    &transition,
                    &self.scenario,
                    &self.config,
                    &mut memo,
                    &mut events,
                );
                if strategy.lock_step_control_plane() {
                    drain_control_plane(
                        &mut state,
                        &self.scenario,
                        &self.config,
                        &mut memo,
                        &mut events,
                    );
                }
                report.stats.transitions += 1;
                report.stats.faults.record(&transition);
                trace.push(transition.clone());
                report.stats.max_depth = report.stats.max_depth.max(trace.len());
                if matches!(
                    visit_explored(&mut seen, state.fingerprint(), &[]),
                    Visit::New
                ) {
                    report.stats.unique_states += 1;
                }
                for event in &events {
                    for property in properties.iter_mut() {
                        property.on_event(event, &state);
                    }
                }
                for property in &properties {
                    if let Some(message) = property.check(&state) {
                        self.record_violation(
                            &mut report,
                            property.name(),
                            message,
                            &trace[..trace.len() - 1],
                            Some(&transition),
                        );
                        if self.config.stop_at_first_violation {
                            break 'walks;
                        }
                    }
                }
            }
        }

        report.stats.symbolic_executions = memo.symbolic_executions;
        report.stats.duration = start.elapsed();
        report
    }
}

// ---------------------------------------------------------------------------
// Shared state of the parallel search
// ---------------------------------------------------------------------------

/// Shared state of one parallel run: the statistics counters, the
/// collected violations, and the stop flag every worker polls between
/// transitions. It is the workers' [`Sink`]. The *work distribution* state
/// lives in the [`DonationQueue`].
struct SharedStats {
    /// Cross-worker symbolic-discovery cache (see [`SharedDiscoveryCache`]).
    discoveries: Arc<SharedDiscoveryCache>,
    /// Set by any stop condition; whoever sets it must also wake the
    /// queue's sleepers (via [`DonationQueue::stop`]).
    stop: AtomicBool,
    transitions: AtomicU64,
    unique_states: AtomicU64,
    terminal_states: AtomicU64,
    symbolic_executions: AtomicU64,
    pruned_by_strategy: AtomicU64,
    pruned_by_por: AtomicU64,
    dedup_hits: AtomicU64,
    work_steals: AtomicU64,
    /// Per-kind fault counters, indexed by
    /// [`Transition::fault_counter_index`].
    faults: [AtomicU64; FaultStats::KINDS],
    max_depth: AtomicUsize,
    truncated: AtomicBool,
    violations: Mutex<Vec<Violation>>,
}

impl SharedStats {
    fn new() -> SharedStats {
        SharedStats {
            discoveries: Arc::new(SharedDiscoveryCache::default()),
            stop: AtomicBool::new(false),
            transitions: AtomicU64::new(0),
            unique_states: AtomicU64::new(0),
            terminal_states: AtomicU64::new(0),
            symbolic_executions: AtomicU64::new(0),
            pruned_by_strategy: AtomicU64::new(0),
            pruned_by_por: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            work_steals: AtomicU64::new(0),
            faults: std::array::from_fn(|_| AtomicU64::new(0)),
            max_depth: AtomicUsize::new(0),
            truncated: AtomicBool::new(false),
            violations: Mutex::new(Vec::new()),
        }
    }

    /// Drains the counters and violations into a report (workers must have
    /// joined).
    fn report(&self) -> CheckReport {
        let mut report = CheckReport::default();
        report.stats.transitions = self.transitions.load(Ordering::Relaxed);
        report.stats.unique_states = self.unique_states.load(Ordering::Relaxed);
        report.stats.terminal_states = self.terminal_states.load(Ordering::Relaxed);
        report.stats.symbolic_executions = self.symbolic_executions.load(Ordering::Relaxed);
        report.stats.pruned_by_strategy = self.pruned_by_strategy.load(Ordering::Relaxed);
        report.stats.pruned_by_por = self.pruned_by_por.load(Ordering::Relaxed);
        report.stats.dedup_hits = self.dedup_hits.load(Ordering::Relaxed);
        report.stats.work_steals = self.work_steals.load(Ordering::Relaxed);
        report.stats.faults = FaultStats::from_counts(std::array::from_fn(|i| {
            self.faults[i].load(Ordering::Relaxed)
        }));
        report.stats.max_depth = self.max_depth.load(Ordering::Relaxed);
        report.stats.truncated = self.truncated.load(Ordering::Relaxed);
        report.violations = std::mem::take(
            &mut *self
                .violations
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        report
    }
}

/// The parallel workers' sink: shared atomics, so every worker reports
/// into the same counters.
impl Sink for &SharedStats {
    fn stop_raised(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// On exhaustion also raises the stop flag; the calling worker then
    /// wakes the queue's sleepers.
    fn take_transition(&mut self, max: u64) -> bool {
        if max == 0 {
            self.transitions.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let mut current = self.transitions.load(Ordering::Relaxed);
        loop {
            if current >= max {
                self.truncated.store(true, Ordering::Relaxed);
                self.stop.store(true, Ordering::Relaxed);
                return false;
            }
            match self.transitions.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    fn count(&mut self, counter: Counter, n: u64) {
        let cell = match counter {
            Counter::UniqueStates => &self.unique_states,
            Counter::TerminalStates => &self.terminal_states,
            Counter::PrunedByStrategy => &self.pruned_by_strategy,
            Counter::PrunedByPor => &self.pruned_by_por,
            Counter::DedupHits => &self.dedup_hits,
            Counter::Fault(index) => &self.faults[index],
        };
        cell.fetch_add(n, Ordering::Relaxed);
    }

    fn reach_depth(&mut self, depth: usize) {
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    fn truncate(&mut self) {
        self.truncated.store(true, Ordering::Relaxed);
    }

    fn totals(&self) -> (u64, u64) {
        (
            self.transitions.load(Ordering::Relaxed),
            self.unique_states.load(Ordering::Relaxed),
        )
    }

    fn record(&mut self, violation: Violation) {
        self.violations
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(violation);
    }
}

// ---------------------------------------------------------------------------
// Donation queue
// ---------------------------------------------------------------------------

/// The donation frontier queue plus the bookkeeping its termination
/// protocol needs.
struct Frontier {
    queue: Vec<Node>,
    /// Workers currently blocked waiting for work.
    idle: usize,
    /// Set when the search should wind down (every worker idle, budget
    /// exhausted, or first violation under `stop_at_first_violation`).
    stop: bool,
}

/// The parallel scheduler: one mutex-protected LIFO frontier that busy
/// workers donate to only when a sibling is starving.
struct DonationQueue {
    workers: usize,
    frontier: Mutex<Frontier>,
    work_available: Condvar,
    /// Mirror of `Frontier::idle` readable without the queue lock.
    idle_count: AtomicUsize,
}

impl DonationQueue {
    fn new(workers: usize, root: Node) -> DonationQueue {
        DonationQueue {
            workers,
            frontier: Mutex::new(Frontier {
                queue: vec![root],
                idle: 0,
                stop: false,
            }),
            work_available: Condvar::new(),
            idle_count: AtomicUsize::new(0),
        }
    }

    /// Locks the frontier, recovering the guard if another worker panicked
    /// while holding the lock (the state under it is kept consistent at
    /// every await point, so a poisoned guard is still safe to use).
    fn lock_frontier(&self) -> std::sync::MutexGuard<'_, Frontier> {
        self.frontier
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pops the next frontier node, blocking while the queue is empty and
    /// other workers may still produce work. Returns `None` when the search
    /// is over: stop was signalled, or every worker went idle at once (no
    /// node left anywhere to generate more work from).
    fn pop_work(&self, stats: &SharedStats) -> Option<Node> {
        let mut frontier = self.lock_frontier();
        loop {
            if frontier.stop {
                return None;
            }
            if let Some(node) = frontier.queue.pop() {
                return Some(node);
            }
            frontier.idle += 1;
            self.idle_count.store(frontier.idle, Ordering::Relaxed);
            if frontier.idle == self.workers {
                frontier.stop = true;
                stats.stop.store(true, Ordering::Relaxed);
                self.work_available.notify_all();
                return None;
            }
            frontier = self
                .work_available
                .wait(frontier)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            frontier.idle -= 1;
            self.idle_count.store(frontier.idle, Ordering::Relaxed);
        }
    }

    /// True if some worker is starved for work. An empty shared queue alone
    /// is not starvation — every worker may be busy on its private stack —
    /// so only actual idleness triggers donation, keeping the steady state
    /// lock-free.
    fn needs_work(&self) -> bool {
        self.idle_count.load(Ordering::Relaxed) > 0
    }

    /// Pushes a batch of children (one lock round-trip per expanded node).
    fn push_work(&self, children: Vec<Node>) {
        if children.is_empty() {
            return;
        }
        let mut frontier = self.lock_frontier();
        let woken = children.len();
        frontier.queue.extend(children);
        drop(frontier);
        if woken == 1 {
            self.work_available.notify_one();
        } else {
            self.work_available.notify_all();
        }
    }

    /// Ends the search (first violation under stop-at-first, budget, or a
    /// panicking worker).
    fn stop(&self, stats: &SharedStats) {
        stats.stop.store(true, Ordering::Relaxed);
        let mut frontier = self.lock_frontier();
        frontier.stop = true;
        drop(frontier);
        self.work_available.notify_all();
    }
}

/// Guard ensuring a panicking worker winds the whole search down instead of
/// leaving its siblings parked forever; the panic itself is then re-raised
/// by `std::thread::scope`.
struct OnPanic<F: Fn()>(F);

impl<F: Fn()> Drop for OnPanic<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StrategyKind;
    use crate::testutil;

    #[test]
    fn hub_ping_scenario_passes_default_properties() {
        let scenario = testutil::hub_ping_scenario(1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let report = checker.run();
        assert!(report.passed(), "unexpected violation: {report}");
        assert!(report.stats.transitions > 0);
        assert!(report.stats.unique_states > 1);
        assert!(report.stats.terminal_states > 0);
        assert!(!report.stats.truncated);
    }

    #[test]
    fn forgetful_app_violates_no_forgotten_packets() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let report = checker.run();
        assert!(!report.passed());
        let violation = report.first_violation().unwrap();
        assert_eq!(violation.property, "NoForgottenPackets");
        assert!(!violation.trace.is_empty());
        assert!(violation.to_string().contains("NoForgottenPackets"));
    }

    #[test]
    fn exhaustive_and_replay_storage_agree() {
        // An exhaustive search that keeps going past violations: every
        // interval must find the same violations along the same traces.
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let exhaustive = CheckerConfig::default().with_stop_at_first(false);
        let full = ModelChecker::new(scenario.clone(), exhaustive.clone()).run();
        assert!(!full.passed());
        for interval in testutil::CHECKPOINT_INTERVALS {
            let report = ModelChecker::new(
                scenario.clone(),
                exhaustive.clone().with_checkpoint_interval(interval),
            )
            .run();
            assert_eq!(full.passed(), report.passed(), "interval {interval}");
            assert_eq!(
                full.stats.transitions, report.stats.transitions,
                "interval {interval}"
            );
            assert_eq!(
                full.stats.unique_states, report.stats.unique_states,
                "interval {interval}"
            );
            let traces = |r: &CheckReport| -> Vec<Trace> {
                r.violations.iter().map(|v| v.trace.clone()).collect()
            };
            assert_eq!(traces(&full), traces(&report), "interval {interval}");
        }
    }

    #[test]
    fn checkpoint_storage_agrees_with_full_at_every_cadence() {
        let scenario = testutil::hub_ping_scenario(2);
        let full = ModelChecker::new(scenario.clone(), CheckerConfig::default()).run();
        for interval in testutil::CHECKPOINT_INTERVALS {
            let checkpointed = ModelChecker::new(
                scenario.clone(),
                CheckerConfig::default().with_checkpoint_interval(interval),
            )
            .run();
            assert_eq!(full.passed(), checkpointed.passed(), "interval {interval}");
            assert_eq!(
                full.stats.transitions, checkpointed.stats.transitions,
                "interval {interval}"
            );
            assert_eq!(
                full.stats.unique_states, checkpointed.stats.unique_states,
                "interval {interval}"
            );
            assert_eq!(
                full.stats.max_depth, checkpointed.stats.max_depth,
                "interval {interval}"
            );
        }
    }

    #[test]
    fn checkpoint_storage_reproduces_violation_traces() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let full = ModelChecker::new(scenario.clone(), CheckerConfig::default()).run();
        let checkpointed = ModelChecker::new(
            scenario,
            CheckerConfig::default().with_checkpoint_interval(3),
        )
        .run();
        assert_eq!(
            full.first_violation().map(|v| v.trace.clone()),
            checkpointed.first_violation().map(|v| v.trace.clone())
        );
    }

    #[test]
    fn parallel_search_agrees_with_sequential() {
        let scenario = testutil::hub_ping_scenario(2);
        let sequential = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default().with_stop_at_first(false),
        )
        .run();
        for workers in [2, 4] {
            let parallel = ModelChecker::new(
                scenario.clone(),
                CheckerConfig::default()
                    .with_stop_at_first(false)
                    .with_workers(workers),
            )
            .run();
            assert!(parallel.passed());
            assert_eq!(
                sequential.stats.unique_states, parallel.stats.unique_states,
                "{workers} workers"
            );
            assert_eq!(
                sequential.stats.transitions, parallel.stats.transitions,
                "{workers} workers"
            );
            assert_eq!(
                sequential.stats.terminal_states, parallel.stats.terminal_states,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn parallel_search_finds_the_same_violated_properties() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let sequential = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default().with_stop_at_first(false),
        )
        .run();
        let parallel = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_workers(4),
        )
        .run();
        let properties = |report: &CheckReport| {
            let mut names: Vec<String> = report
                .violations
                .iter()
                .map(|v| v.property.clone())
                .collect();
            names.sort();
            names
        };
        assert!(!sequential.passed());
        assert!(!parallel.passed());
        assert_eq!(properties(&sequential), properties(&parallel));
        assert_eq!(sequential.stats.unique_states, parallel.stats.unique_states);
    }

    #[test]
    fn parallel_search_respects_stop_at_first_violation() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let report = ModelChecker::new(scenario, CheckerConfig::default().with_workers(4)).run();
        assert!(!report.passed());
        assert_eq!(
            report.first_violation().unwrap().property,
            "NoForgottenPackets"
        );
    }

    #[test]
    fn strategies_reduce_or_preserve_the_state_space() {
        let scenario = testutil::hub_ping_scenario(2);
        let full = ModelChecker::new(scenario.clone(), CheckerConfig::default()).run();
        for kind in [
            StrategyKind::NoDelay,
            StrategyKind::FlowIr,
            StrategyKind::Unusual,
        ] {
            let report = ModelChecker::new(
                scenario.clone(),
                CheckerConfig::default().with_strategy(kind),
            )
            .run();
            assert!(
                report.passed(),
                "{kind:?} found a spurious violation: {report}"
            );
            assert!(
                report.stats.transitions <= full.stats.transitions,
                "{kind:?} explored more transitions ({}) than the full search ({})",
                report.stats.transitions,
                full.stats.transitions
            );
        }
    }

    #[test]
    fn transition_budget_truncates_search() {
        let scenario = testutil::hub_ping_scenario(3);
        let report =
            ModelChecker::new(scenario, CheckerConfig::default().with_max_transitions(5)).run();
        assert!(report.stats.truncated);
        assert!(report.stats.transitions <= 5);
    }

    #[test]
    fn parallel_transition_budget_truncates_search() {
        let scenario = testutil::hub_ping_scenario(3);
        let report = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_max_transitions(5)
                .with_workers(4),
        )
        .run();
        assert!(report.stats.truncated);
        assert!(report.stats.transitions <= 5);
    }

    #[test]
    fn random_walk_mode_runs_and_reports() {
        let scenario = testutil::hub_ping_scenario(2);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let report = checker.run_random_walk(7, 3, 50);
        assert!(
            report.passed(),
            "hub scenario has no violations to find: {report}"
        );
        assert!(report.stats.transitions > 0);
        // Deterministic for a fixed seed.
        let again = checker.run_random_walk(7, 3, 50);
        assert_eq!(report.stats.transitions, again.stats.transitions);
        assert_eq!(report.stats.unique_states, again.stats.unique_states);
    }

    #[test]
    fn discovery_scenario_explores_symbolically() {
        let scenario = testutil::discovery_scenario(Box::new(testutil::HubApp::default()), 1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let report = checker.run();
        assert!(report.passed(), "{report}");
        assert!(
            report.stats.symbolic_executions >= 1,
            "discover_packets must have run"
        );
        assert!(report.stats.transitions > 0);
    }

    #[test]
    fn report_display_summarises() {
        let scenario = testutil::hub_ping_scenario(1);
        let report = ModelChecker::new(scenario, CheckerConfig::default()).run();
        let text = report.to_string();
        assert!(text.contains("PASS"));
        assert!(text.contains("transitions"));
    }

    #[test]
    fn panicking_property_propagates_from_parallel_search() {
        /// A user-written property that panics mid-search (users implement
        /// `Property`, so worker threads must survive arbitrary panics by
        /// winding the search down rather than deadlocking their siblings).
        #[derive(Clone)]
        struct PanickingProperty;
        impl crate::properties::Property for PanickingProperty {
            fn name(&self) -> &str {
                "Panicking"
            }
            fn on_event(&mut self, _: &crate::properties::Event, _: &SystemState) {}
            fn check(&self, _: &SystemState) -> Option<String> {
                panic!("property panicked on purpose");
            }
            fn clone_property(&self) -> Box<dyn crate::properties::Property> {
                Box::new(self.clone())
            }
        }

        let scenario = testutil::hub_ping_scenario(1).with_property(Box::new(PanickingProperty));
        let checker = ModelChecker::new(scenario, CheckerConfig::default().with_workers(4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| checker.run()));
        assert!(result.is_err(), "the worker panic must propagate, not hang");
    }

    #[test]
    fn por_prunes_transitions_but_preserves_the_verdict() {
        let scenario = testutil::hub_ping_scenario(2);
        let full = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default().with_stop_at_first(false),
        )
        .run();
        let por = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por),
        )
        .run();
        assert_eq!(full.passed(), por.passed());
        assert!(
            por.stats.transitions < full.stats.transitions,
            "POR must prune something on the hub workload: {} vs {}",
            por.stats.transitions,
            full.stats.transitions
        );
        assert!(por.stats.pruned_by_por > 0);
        assert_eq!(full.stats.pruned_by_por, 0);
        assert_eq!(full.stats.terminal_states, por.stats.terminal_states);
    }

    #[test]
    fn por_finds_the_same_violated_properties() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 2);
        let properties = |report: &CheckReport| {
            let mut names: Vec<String> = report
                .violations
                .iter()
                .map(|v| v.property.clone())
                .collect();
            names.sort();
            names.dedup();
            names
        };
        let shortest = |report: &CheckReport| {
            report
                .violations
                .iter()
                .map(|v| v.trace.len())
                .min()
                .unwrap_or(0)
        };
        let full = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default().with_stop_at_first(false),
        )
        .run();
        let por = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por),
        )
        .run();
        assert!(!full.passed());
        assert!(!por.passed());
        assert_eq!(properties(&full), properties(&por));
        assert_eq!(shortest(&full), shortest(&por));
        assert!(por.stats.transitions <= full.stats.transitions);
    }

    #[test]
    fn por_sleep_sets_survive_checkpoint_replay_reconstruction() {
        let scenario = testutil::hub_ping_scenario(2);
        let reference = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por),
        )
        .run();
        for interval in testutil::CHECKPOINT_INTERVALS {
            let checkpointed = ModelChecker::new(
                scenario.clone(),
                CheckerConfig::default()
                    .with_stop_at_first(false)
                    .with_reduction(crate::scenario::ReductionKind::Por)
                    .with_checkpoint_interval(interval),
            )
            .run();
            assert_eq!(
                reference.stats.transitions, checkpointed.stats.transitions,
                "interval {interval}"
            );
            assert_eq!(
                reference.stats.unique_states, checkpointed.stats.unique_states,
                "interval {interval}"
            );
            assert_eq!(
                reference.stats.pruned_by_por, checkpointed.stats.pruned_by_por,
                "interval {interval}"
            );
        }
    }

    #[test]
    fn por_parallel_agrees_with_sequential_por() {
        let scenario = testutil::hub_ping_scenario(2);
        let sequential = ModelChecker::new(
            scenario.clone(),
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por),
        )
        .run();
        let parallel = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_reduction(crate::scenario::ReductionKind::Por)
                .with_workers(4),
        )
        .run();
        assert_eq!(sequential.passed(), parallel.passed());
        // Workers race on sleep-set narrowing, so transition counts may
        // wobble slightly, but the reduced search must stay well under the
        // unreduced space and find the same terminal coverage.
        let full = ModelChecker::new(
            testutil::hub_ping_scenario(2),
            CheckerConfig::default().with_stop_at_first(false),
        )
        .run();
        assert!(parallel.stats.transitions <= full.stats.transitions);
        assert_eq!(
            sequential.stats.terminal_states,
            parallel.stats.terminal_states
        );
    }

    #[test]
    fn strategy_prune_counter_reports_filtered_transitions() {
        let scenario = testutil::hub_ping_scenario(2);
        let unusual = ModelChecker::new(
            scenario,
            CheckerConfig::default()
                .with_stop_at_first(false)
                .with_strategy(StrategyKind::Unusual),
        )
        .run();
        assert!(
            unusual.stats.pruned_by_strategy > 0,
            "UNUSUAL must filter some process_of deliveries"
        );
    }

    #[test]
    fn report_display_includes_prune_counters() {
        let scenario = testutil::hub_ping_scenario(1);
        let report = ModelChecker::new(
            scenario,
            CheckerConfig::default().with_reduction(crate::scenario::ReductionKind::Por),
        )
        .run();
        let text = report.to_string();
        assert!(text.contains("pruned by POR"));
        assert!(text.contains("pruned by strategy"));
        assert!(text.contains("dedup hits"));
    }
}
