//! The traced replica of the checker's sequential depth-first search.
//!
//! It re-implements the expansion loop of `ShardedSearch` (full state
//! storage, the reference explored-set protocol) from the public layer
//! functions only, and times every call into a layer: state clone and
//! fingerprint, `enabled_transitions`, the strategy and reduction filters,
//! `execute` per transition kind, the NO-DELAY drain, and the property
//! observers. What it does not time — its own explored set, node and child
//! bookkeeping, and drops — is left for [`crate::trace`] to report as the
//! residual of the untraced run.
//!
//! Built twice by the `TRACE` parameter: once timed, once with every timer
//! compiled out, so the overhead of tracing is itself measured.

use crate::oracle::Observed;
use nice_mc::properties::Event;
use nice_mc::strategy::{build_reduction, build_strategy};
use nice_mc::transition::{drain_control_plane, enabled_transitions, execute, DiscoveryMemo};
use nice_mc::{CheckerConfig, Property, Scenario, SystemState, Transition};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Transition kinds timed separately by `execute`. Every fault kind is
/// folded into `fault`; a kind this list does not know lands in `other`.
pub const KINDS: [&str; 13] = [
    "host_send",
    "host_receive",
    "host_move",
    "process_pkt",
    "process_pkt_on",
    "process_of",
    "ctrl_handle",
    "discover_packets",
    "discover_stats",
    "process_stats",
    "expire_rule",
    "fault",
    "other",
];

/// The [`KINDS`] slot of a transition.
pub fn kind_slot(t: &Transition) -> usize {
    let name = if t.fault_counter_index().is_some() {
        "fault"
    } else {
        t.kind()
    };
    KINDS
        .iter()
        .position(|k| *k == name)
        .unwrap_or(KINDS.len() - 1)
}

/// Time (ns) and call counts per layer, summed over a search.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `SystemState::fingerprint`.
    pub fingerprint_ns: u64,
    /// Fingerprint calls.
    pub fingerprint_calls: u64,
    /// `SystemState::clone`.
    pub clone_ns: u64,
    /// State clones.
    pub clone_calls: u64,
    /// `execute`, per [`KINDS`] slot.
    pub execute_ns: [u64; KINDS.len()],
    /// `execute` calls per [`KINDS`] slot.
    pub execute_calls: [u64; KINDS.len()],
    /// `enabled_transitions`.
    pub enabled_ns: u64,
    /// `drain_control_plane` (NO-DELAY only).
    pub drain_ns: u64,
    /// `SearchStrategy::select`.
    pub strategy_select_ns: u64,
    /// Transitions the strategy filtered out.
    pub strategy_pruned: u64,
    /// `Reduction::select`.
    pub reduction_select_ns: u64,
    /// `Reduction::child_sleeps`.
    pub reduction_child_sleeps_ns: u64,
    /// Transitions the reduction pruned.
    pub reduction_pruned: u64,
    /// Cloning the property observers per transition.
    pub properties_clone_ns: u64,
    /// `Property::on_event`.
    pub properties_on_event_ns: u64,
    /// `Property::check`.
    pub properties_check_ns: u64,
    /// `Property::check_final`.
    pub properties_check_final_ns: u64,
    /// Concolic explorations actually run (discovery memo misses).
    pub sym_executions: u64,
}

impl Layers {
    /// Sum of every timed span, in ns.
    pub fn attributed_ns(&self) -> u64 {
        self.fingerprint_ns
            + self.clone_ns
            + self.execute_ns.iter().sum::<u64>()
            + self.enabled_ns
            + self.drain_ns
            + self.strategy_select_ns
            + self.reduction_select_ns
            + self.reduction_child_sleeps_ns
            + self.properties_clone_ns
            + self.properties_on_event_ns
            + self.properties_check_ns
            + self.properties_check_final_ns
    }

    /// Calls into `execute` that ran symbolic discovery.
    pub fn discover_calls(&self) -> u64 {
        ["discover_packets", "discover_stats"]
            .iter()
            .map(|k| self.execute_calls[KINDS.iter().position(|x| x == k).expect("known kind")])
            .sum()
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Layers) {
        self.fingerprint_ns += other.fingerprint_ns;
        self.fingerprint_calls += other.fingerprint_calls;
        self.clone_ns += other.clone_ns;
        self.clone_calls += other.clone_calls;
        for i in 0..KINDS.len() {
            self.execute_ns[i] += other.execute_ns[i];
            self.execute_calls[i] += other.execute_calls[i];
        }
        self.enabled_ns += other.enabled_ns;
        self.drain_ns += other.drain_ns;
        self.strategy_select_ns += other.strategy_select_ns;
        self.strategy_pruned += other.strategy_pruned;
        self.reduction_select_ns += other.reduction_select_ns;
        self.reduction_child_sleeps_ns += other.reduction_child_sleeps_ns;
        self.reduction_pruned += other.reduction_pruned;
        self.properties_clone_ns += other.properties_clone_ns;
        self.properties_on_event_ns += other.properties_on_event_ns;
        self.properties_check_ns += other.properties_check_ns;
        self.properties_check_final_ns += other.properties_check_final_ns;
        self.sym_executions += other.sym_executions;
    }
}

/// What one replica search produced.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The counters and verdict, for comparison with the checker's.
    pub observed: Observed,
    /// Per-layer time and counts (all zero times when untraced).
    pub layers: Layers,
    /// Wall time of the whole search.
    pub wall: Duration,
}

struct Node {
    state: SystemState,
    properties: Vec<Box<dyn Property>>,
    trace: Vec<Transition>,
    sleep: Vec<Transition>,
    revisit: bool,
}

#[inline(always)]
fn timed<const TRACE: bool, R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    if TRACE {
        let start = Instant::now();
        let r = f();
        *acc += start.elapsed().as_nanos() as u64;
        r
    } else {
        f()
    }
}

/// The reference explored-set visit: new, known (stored sleep set is a
/// subset of this one), or widened to the intersection.
fn visit(explored: &mut HashMap<u64, Vec<u64>>, fingerprint: u64, sleep: Vec<u64>) -> Visit {
    match explored.entry(fingerprint) {
        Entry::Vacant(v) => {
            v.insert(sleep);
            Visit::New
        }
        Entry::Occupied(mut o) => {
            let stored = o.get_mut();
            if stored.iter().all(|d| sleep.binary_search(d).is_ok()) {
                Visit::Known
            } else {
                stored.retain(|d| sleep.binary_search(d).is_ok());
                Visit::Widen(stored.clone())
            }
        }
    }
}

enum Visit {
    New,
    Known,
    Widen(Vec<u64>),
}

fn sleep_digests(sleep: &[Transition]) -> Vec<u64> {
    let mut digests: Vec<u64> = sleep.iter().map(Transition::digest).collect();
    digests.sort_unstable();
    digests.dedup();
    digests
}

/// Runs the replica search on `scenario` under `config` (sequential,
/// full state storage). With `TRACE` every layer call is timed.
pub fn run<const TRACE: bool>(scenario: &Scenario, config: &CheckerConfig) -> Replica {
    let start = Instant::now();
    let strategy = build_strategy(config.strategy);
    let reduction = build_reduction(config.reduction);
    let lock_step = strategy.lock_step_control_plane();
    let mut memo = DiscoveryMemo::default();
    let mut explored: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut layers = Layers::default();
    let mut observed = Observed::default();
    let mut events: Vec<Event> = Vec::new();

    let initial = SystemState::initial(scenario);
    let fingerprint = timed::<TRACE, _>(&mut layers.fingerprint_ns, || initial.fingerprint());
    layers.fingerprint_calls += 1;
    visit(&mut explored, fingerprint, Vec::new());
    observed.unique_states = 1;
    let mut stack = vec![Node {
        state: initial,
        properties: scenario.properties.clone(),
        trace: Vec::new(),
        sleep: Vec::new(),
        revisit: false,
    }];

    'search: while let Some(node) = stack.pop() {
        let Node {
            state,
            properties,
            trace,
            sleep,
            revisit,
        } = node;
        let enabled = timed::<TRACE, _>(&mut layers.enabled_ns, || {
            enabled_transitions(&state, scenario, config)
        });
        let enabled_count = enabled.len();
        let enabled = timed::<TRACE, _>(&mut layers.strategy_select_ns, || {
            strategy.select(&state, enabled)
        });
        layers.strategy_pruned += (enabled_count - enabled.len()) as u64;

        if enabled.is_empty() {
            if !revisit {
                observed.terminal_states += 1;
                for property in &properties {
                    let verdict = timed::<TRACE, _>(&mut layers.properties_check_final_ns, || {
                        property.check_final(&state)
                    });
                    if verdict.is_some() {
                        observed.violated.insert(property.name().to_string());
                        if config.stop_at_first_violation {
                            break 'search;
                        }
                    }
                }
            }
            continue;
        }
        if trace.len() >= config.max_depth {
            observed.truncated = true;
            continue;
        }

        let choice = timed::<TRACE, _>(&mut layers.reduction_select_ns, || {
            reduction.select(&state, scenario, enabled, &sleep)
        });
        layers.reduction_pruned += choice.pruned;
        let mut child_sleeps = timed::<TRACE, _>(&mut layers.reduction_child_sleeps_ns, || {
            reduction.child_sleeps(&state, scenario, &choice.explore, &sleep)
        });

        for (index, transition) in choice.explore.into_iter().enumerate() {
            if config.max_transitions > 0 && observed.transitions >= config.max_transitions {
                observed.truncated = true;
                break 'search;
            }
            let mut next = timed::<TRACE, _>(&mut layers.clone_ns, || {
                if config.force_deep_clone {
                    state.deep_clone()
                } else {
                    state.clone()
                }
            });
            layers.clone_calls += 1;
            let mut next_properties =
                timed::<TRACE, _>(&mut layers.properties_clone_ns, || properties.to_vec());
            events.clear();
            let slot = kind_slot(&transition);
            timed::<TRACE, _>(&mut layers.execute_ns[slot], || {
                execute(
                    &mut next,
                    &transition,
                    scenario,
                    config,
                    &mut memo,
                    &mut events,
                )
            });
            layers.execute_calls[slot] += 1;
            if lock_step {
                timed::<TRACE, _>(&mut layers.drain_ns, || {
                    drain_control_plane(&mut next, scenario, config, &mut memo, &mut events)
                });
            }
            timed::<TRACE, _>(&mut layers.properties_on_event_ns, || {
                for event in &events {
                    for property in next_properties.iter_mut() {
                        property.on_event(event, &next);
                    }
                }
            });
            let violated: Vec<String> = timed::<TRACE, _>(&mut layers.properties_check_ns, || {
                next_properties
                    .iter()
                    .filter(|p| p.check(&next).is_some())
                    .map(|p| p.name().to_string())
                    .collect()
            });
            observed.transitions += 1;
            if !violated.is_empty() {
                observed.violated.extend(violated);
                if config.stop_at_first_violation {
                    break 'search;
                }
                continue;
            }

            let child_sleep = std::mem::take(&mut child_sleeps[index]);
            let fingerprint = timed::<TRACE, _>(&mut layers.fingerprint_ns, || next.fingerprint());
            layers.fingerprint_calls += 1;
            let (sleep, revisit) =
                match visit(&mut explored, fingerprint, sleep_digests(&child_sleep)) {
                    Visit::New => {
                        observed.unique_states += 1;
                        (child_sleep, false)
                    }
                    Visit::Known => {
                        observed.dedup_hits += 1;
                        continue;
                    }
                    Visit::Widen(narrowed) => {
                        let kept = child_sleep
                            .into_iter()
                            .filter(|t| narrowed.binary_search(&t.digest()).is_ok())
                            .collect();
                        (kept, true)
                    }
                };
            let mut child_trace = trace.clone();
            child_trace.push(transition);
            stack.push(Node {
                state: next,
                properties: next_properties,
                trace: child_trace,
                sleep,
                revisit,
            });
        }
    }
    layers.sym_executions = memo.symbolic_executions;
    Replica {
        observed,
        layers,
        wall: start.elapsed(),
    }
}
