//! The expansion step of the search (Figure 5): one popped frontier
//! [`Node`] in, its unexplored children out.
//!
//! [`Expander::expand`] is the only place a node is turned into children.
//! The sequential and distributed engines call it through
//! [`ShardedSearch`](crate::shard::ShardedSearch), and every parallel worker
//! calls it from its own thread, so their semantics agree by construction.
//! What differs between the engines is confined to two seams:
//!
//! * the [`Sink`] that receives counters, violations and the transition
//!   budget: plain [`CheckReport`] fields for a shard, shared atomics for
//!   parallel workers. `expand` is generic over it, so the sequential loop
//!   pays no atomics;
//! * the shard-ownership filter: a successor whose fingerprint another
//!   shard owns is exported into [`Expander::forwards`] instead of being
//!   visited here. A solo shard, and every parallel worker, owns everything.
//!
//! Children go onto the caller's own stack; the caller decides how to
//! schedule them.

use crate::checker::{CheckReport, ModelChecker, Violation};
use crate::explored::{ExploredStore, Visit};
use crate::properties::{Event, Property};
use crate::session::SessionCtrl;
use crate::shard::{FrontierExport, ShardSpec};
use crate::state::SystemState;
use crate::strategy::{build_reduction, build_strategy, Reduction, SearchStrategy};
use crate::transition::{
    drain_control_plane, enabled_transitions, execute, DiscoveryMemo, Transition,
};
use std::sync::Arc;

/// A snapshot of the system and property state at some depth of a trace.
pub(crate) struct Snapshot {
    pub(crate) state: SystemState,
    pub(crate) properties: Vec<Box<dyn Property>>,
}

impl Snapshot {
    /// The scenario's initial state with fresh property observers, plus its
    /// fingerprint.
    pub(crate) fn initial(checker: &ModelChecker) -> (Arc<Snapshot>, u64) {
        let state = SystemState::initial(checker.scenario());
        let fingerprint = state.fingerprint();
        let snapshot = Snapshot {
            state,
            properties: checker.scenario().properties.clone(),
        };
        (Arc::new(snapshot), fingerprint)
    }
}

/// One frontier entry of the search.
///
/// The node's state is `base` advanced by `trace[base_depth..]`; `trace` is
/// always kept in full because it is also the violation trace. With a
/// checkpoint interval of 1 the base *is* the node's state (empty suffix);
/// with `usize::MAX` it is the initial state; in between it is the nearest
/// ancestor checkpoint, shared via `Arc` with every other descendant of
/// that checkpoint.
///
/// The sleep set travels with the node (not with the snapshot), so it
/// survives checkpoint/replay reconstruction unchanged: replaying the trace
/// suffix rebuilds the state, while the pruning obligations were fixed when
/// the node was generated.
pub(crate) struct Node {
    pub(crate) base: Arc<Snapshot>,
    pub(crate) base_depth: usize,
    pub(crate) trace: Vec<Transition>,
    /// Transitions whose exploration from this node is redundant (already
    /// covered by a commuting sibling branch). Always empty without POR.
    pub(crate) sleep: Vec<Transition>,
    /// True if this node re-expands an already-visited state with a
    /// narrowed sleep set (`Visit::Widen`). Re-expansions exist only to
    /// cover successors the first visit pruned; the state itself was
    /// already accounted for, so terminal counting and end-of-trace
    /// property checks must not run again.
    pub(crate) revisit: bool,
}

impl Node {
    /// A node rebuilt by replaying `trace` from `root`.
    pub(crate) fn from_root(
        root: &Arc<Snapshot>,
        trace: Vec<Transition>,
        sleep: Vec<Transition>,
        revisit: bool,
    ) -> Node {
        Node {
            base: Arc::clone(root),
            base_depth: 0,
            trace,
            sleep,
            revisit,
        }
    }
}

/// A search counter an expansion bumps through its [`Sink`].
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    UniqueStates,
    TerminalStates,
    PrunedByStrategy,
    PrunedByPor,
    DedupHits,
    /// One injected fault, by [`Transition::fault_counter_index`].
    Fault(usize),
}

/// Where an expansion reports: counters, violations, the transition budget
/// and the stop flag of its engine.
pub(crate) trait Sink {
    /// True once another worker raised the engine's stop flag; polled
    /// before every transition.
    fn stop_raised(&self) -> bool;
    /// Claims one transition of the budget (`max == 0`: unlimited). On
    /// exhaustion marks the search truncated and returns false.
    fn take_transition(&mut self, max: u64) -> bool;
    /// Adds `n` to `counter`.
    fn count(&mut self, counter: Counter, n: u64);
    /// Raises the deepest-path high-water mark to `depth`.
    fn reach_depth(&mut self, depth: usize);
    /// Marks the search truncated by the depth bound.
    fn truncate(&mut self);
    /// Transitions executed and unique states seen so far.
    fn totals(&self) -> (u64, u64);
    /// Keeps a found violation.
    fn record(&mut self, violation: Violation);
}

/// A shard's own report is its sink: plain fields, no synchronisation.
impl Sink for CheckReport {
    fn stop_raised(&self) -> bool {
        false
    }

    fn take_transition(&mut self, max: u64) -> bool {
        if max > 0 && self.stats.transitions >= max {
            self.stats.truncated = true;
            return false;
        }
        self.stats.transitions += 1;
        true
    }

    fn count(&mut self, counter: Counter, n: u64) {
        let stats = &mut self.stats;
        match counter {
            Counter::UniqueStates => stats.unique_states += n,
            Counter::TerminalStates => stats.terminal_states += n,
            Counter::PrunedByStrategy => stats.pruned_by_strategy += n,
            Counter::PrunedByPor => stats.pruned_by_por += n,
            Counter::DedupHits => stats.dedup_hits += n,
            Counter::Fault(index) => stats.faults.bump(index),
        }
    }

    fn reach_depth(&mut self, depth: usize) {
        self.stats.max_depth = self.stats.max_depth.max(depth);
    }

    fn truncate(&mut self) {
        self.stats.truncated = true;
    }

    fn totals(&self) -> (u64, u64) {
        (self.stats.transitions, self.stats.unique_states)
    }

    fn record(&mut self, violation: Violation) {
        self.violations.push(violation);
    }
}

/// Deduplicates a successor against the explored set and counts the visit.
/// Returns the sleep set to expand it under, and whether that expansion is
/// a widened revisit, or `None` if the state was already explored.
pub(crate) fn admit<S: Sink>(
    store: &dyn ExploredStore,
    fingerprint: u64,
    sleep: Vec<Transition>,
    sink: &mut S,
) -> Option<(Vec<Transition>, bool)> {
    let mut digests: Vec<u64> = sleep.iter().map(Transition::digest).collect();
    digests.sort_unstable();
    digests.dedup();
    match store.visit(fingerprint, &digests) {
        Visit::New => {
            sink.count(Counter::UniqueStates, 1);
            Some((sleep, false))
        }
        Visit::Known => {
            sink.count(Counter::DedupHits, 1);
            None
        }
        // The state was explored before, but with stronger pruning than
        // this path justifies: re-expand it with the narrowed sleep set so
        // nothing reachable only through the previously pruned transitions
        // is missed.
        Visit::Widen(narrowed) => {
            let sleep = sleep
                .into_iter()
                .filter(|t| narrowed.binary_search(&t.digest()).is_ok())
                .collect();
            Some((sleep, true))
        }
    }
}

/// `trace` followed by `last`: a child's path from the initial state.
fn extended(trace: &[Transition], last: Transition) -> Vec<Transition> {
    let mut child = Vec::with_capacity(trace.len() + 1);
    child.extend_from_slice(trace);
    child.push(last);
    child
}

/// The per-thread state of one search engine: its strategy, reduction and
/// discovery memo, plus the shard it owns.
pub(crate) struct Expander<'a> {
    checker: &'a ModelChecker,
    strategy: Box<dyn SearchStrategy>,
    reduction: Box<dyn Reduction>,
    pub(crate) memo: DiscoveryMemo,
    events: Vec<Event>,
    /// The initial state: the base of replayed and injected nodes.
    pub(crate) root: Arc<Snapshot>,
    pub(crate) shard: ShardSpec,
    /// Successors owned by other shards, exported instead of visited.
    pub(crate) forwards: Vec<FrontierExport>,
}

impl<'a> Expander<'a> {
    pub(crate) fn new(
        checker: &'a ModelChecker,
        root: Arc<Snapshot>,
        shard: ShardSpec,
        memo: DiscoveryMemo,
    ) -> Self {
        Expander {
            checker,
            strategy: build_strategy(checker.config().strategy),
            reduction: build_reduction(checker.config().reduction),
            memo,
            events: Vec::new(),
            root,
            shard,
            forwards: Vec::new(),
        }
    }

    /// Expands one frontier node: materializes its state, applies the
    /// strategy and the reduction, steps every surviving transition, and
    /// pushes the unexplored children onto `stack` (or exports them, if
    /// another shard owns them).
    ///
    /// Returns false if a stop condition fired mid-expansion: the budget ran
    /// out, a first violation under `stop_at_first_violation`, or a sibling
    /// raised the stop flag. The caller then winds its search down.
    pub(crate) fn expand<S: Sink>(
        &mut self,
        node: Node,
        store: &dyn ExploredStore,
        stack: &mut Vec<Node>,
        sink: &mut S,
        ctrl: Option<&SessionCtrl>,
    ) -> bool {
        let checker = self.checker;
        let scenario = checker.scenario();
        let config = checker.config();
        sink.reach_depth(node.trace.len());

        let revisit = node.revisit;
        let parent_base = self.parent_base(&node);
        let (state, properties, trace, sleep) = self.materialize(node);

        let enabled = enabled_transitions(&state, scenario, config);
        let enabled_count = enabled.len();
        let enabled = self.strategy.select(&state, enabled);
        sink.count(
            Counter::PrunedByStrategy,
            (enabled_count - enabled.len()) as u64,
        );

        if enabled.is_empty() {
            // A widened revisit of a terminal state was already counted
            // (and final-checked) on its first visit.
            if !revisit {
                sink.count(Counter::TerminalStates, 1);
                for property in &properties {
                    if let Some(message) = property.check_final(&state) {
                        self.violation(sink, ctrl, &trace, None, property.name(), message);
                        if config.stop_at_first_violation {
                            return false;
                        }
                    }
                }
            }
            return true;
        }

        if trace.len() >= config.max_depth {
            sink.truncate();
            return true;
        }

        let choice = self.reduction.select(&state, scenario, enabled, &sleep);
        sink.count(Counter::PrunedByPor, choice.pruned);
        let mut child_sleeps =
            self.reduction
                .child_sleeps(&state, scenario, &choice.explore, &sleep);

        for (index, transition) in choice.explore.into_iter().enumerate() {
            if sink.stop_raised() || !sink.take_transition(config.max_transitions) {
                return false;
            }
            if let Some(fault) = transition.fault_counter_index() {
                sink.count(Counter::Fault(fault), 1);
            }

            let (next_state, next_properties, violations) =
                self.step_transition(&state, &properties, &transition);
            if let Some(ctrl) = ctrl {
                let (transitions, unique_states) = sink.totals();
                ctrl.maybe_progress(transitions, unique_states, trace.len() + 1, store.bytes());
            }

            let violated = !violations.is_empty();
            for (property, message) in violations {
                self.violation(sink, ctrl, &trace, Some(&transition), &property, message);
            }
            if violated {
                if config.stop_at_first_violation {
                    return false;
                }
                // Do not explore past a violating state: the trace is the
                // shortest continuation through this branch and deeper
                // states would just repeat the same violation.
                continue;
            }

            let child_sleep = std::mem::take(&mut child_sleeps[index]);
            let fingerprint = next_state.fingerprint();
            if !self.shard.owns(fingerprint) {
                // Another shard owns this state: export it instead of
                // exploring (or deduplicating) it here. The owner performs
                // the visit, so the global unique/dedup accounting matches
                // the sequential engine's exactly.
                self.forwards.push(FrontierExport {
                    fingerprint,
                    trace: extended(&trace, transition),
                    sleep: child_sleep,
                });
                continue;
            }
            if let Some((sleep, revisit)) = admit(store, fingerprint, child_sleep, sink) {
                stack.push(self.make_node(
                    &parent_base,
                    extended(&trace, transition),
                    next_state,
                    next_properties,
                    sleep,
                    revisit,
                ));
            }
        }
        true
    }

    /// Builds a violation found at `trace` (plus the violating transition,
    /// if any), streams it to the session and keeps it in `sink`.
    fn violation<S: Sink>(
        &self,
        sink: &mut S,
        ctrl: Option<&SessionCtrl>,
        trace: &[Transition],
        last: Option<&Transition>,
        property: &str,
        message: String,
    ) {
        let (transitions_explored, unique_states) = sink.totals();
        let violation = Violation {
            property: property.to_string(),
            trace: self.checker.make_trace(trace, last, property, &message),
            message,
            transitions_explored,
            unique_states,
        };
        if let Some(ctrl) = ctrl {
            ctrl.notify_violation(&violation);
        }
        sink.record(violation);
    }

    /// The checkpoint interval in force (`0` behaves like `1`).
    fn interval(&self) -> usize {
        self.checker.config().checkpoint_interval.max(1)
    }

    /// Between checkpoints, children inherit the parent's snapshot handle,
    /// so it must outlive the parent node; this captures it before
    /// [`Expander::materialize`] consumes the node. At interval 1 every
    /// child takes its own snapshot, and holding no second handle lets
    /// `materialize` move the parent's state out instead of cloning it.
    fn parent_base(&self, node: &Node) -> Option<(Arc<Snapshot>, usize)> {
        (self.interval() > 1).then(|| (Arc::clone(&node.base), node.base_depth))
    }

    /// Builds the frontier node for a child reached over `trace`: a fresh
    /// snapshot at every checkpoint depth, else the parent's base.
    fn make_node(
        &self,
        parent_base: &Option<(Arc<Snapshot>, usize)>,
        trace: Vec<Transition>,
        state: SystemState,
        properties: Vec<Box<dyn Property>>,
        sleep: Vec<Transition>,
        revisit: bool,
    ) -> Node {
        let (base, base_depth) = match parent_base {
            Some((base, depth)) if !trace.len().is_multiple_of(self.interval()) => {
                (Arc::clone(base), *depth)
            }
            _ => (Arc::new(Snapshot { state, properties }), trace.len()),
        };
        Node {
            base,
            base_depth,
            trace,
            sleep,
            revisit,
        }
    }

    /// Executes one transition from `state`: clones the successor, runs the
    /// transition (plus lock-step drain), feeds the property observers, and
    /// collects any violations as `(property name, message)` pairs.
    #[allow(clippy::type_complexity)]
    fn step_transition(
        &mut self,
        state: &SystemState,
        properties: &[Box<dyn Property>],
        transition: &Transition,
    ) -> (SystemState, Vec<Box<dyn Property>>, Vec<(String, String)>) {
        let mut next_state = if self.checker.config().force_deep_clone {
            state.deep_clone()
        } else {
            state.clone()
        };
        let mut next_properties = properties.to_vec();
        self.apply(&mut next_state, &mut next_properties, transition);
        let violations = next_properties
            .iter()
            .filter_map(|p| p.check(&next_state).map(|m| (p.name().to_string(), m)))
            .collect();
        (next_state, next_properties, violations)
    }

    /// Runs `transition` on `state` (plus the lock-step control-plane drain
    /// the strategy asks for) and feeds the resulting events to the
    /// property observers.
    fn apply(
        &mut self,
        state: &mut SystemState,
        properties: &mut [Box<dyn Property>],
        transition: &Transition,
    ) {
        let (scenario, config) = (self.checker.scenario(), self.checker.config());
        self.events.clear();
        execute(
            state,
            transition,
            scenario,
            config,
            &mut self.memo,
            &mut self.events,
        );
        if self.strategy.lock_step_control_plane() {
            drain_control_plane(state, scenario, config, &mut self.memo, &mut self.events);
        }
        for event in &self.events {
            for property in properties.iter_mut() {
                property.on_event(event, state);
            }
        }
    }

    /// Rebuilds a node's state (and its property state) by replaying the
    /// trace suffix since the node's snapshot — the memory-saving state
    /// restoration of Section 6, bounded by the checkpoint interval.
    ///
    /// Consumes the node: a snapshot nobody else holds (always, at
    /// interval 1) is moved out without any clone at all.
    #[allow(clippy::type_complexity)]
    fn materialize(
        &mut self,
        node: Node,
    ) -> (
        SystemState,
        Vec<Box<dyn Property>>,
        Vec<Transition>,
        Vec<Transition>,
    ) {
        let Node {
            base,
            base_depth,
            trace,
            sleep,
            revisit: _,
        } = node;
        let (mut state, mut properties) = match Arc::try_unwrap(base) {
            Ok(snapshot) => (snapshot.state, snapshot.properties),
            Err(shared) => (shared.state.clone(), shared.properties.clone()),
        };
        for transition in &trace[base_depth..] {
            self.apply(&mut state, &mut properties, transition);
        }
        (state, properties, trace, sleep)
    }
}
