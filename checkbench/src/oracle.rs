//! The correctness oracle. It checks exactly what the engine guarantees
//! and nothing that varies with the thread or process schedule:
//!
//! * sequential runs are deterministic, so their counters and their set of
//!   violated properties are checked exactly;
//! * a crash-free distributed run sums to the sequential counters exactly;
//! * a parallel run under partial-order reduction reproduces the unique
//!   state count and the verdict, but not the transition count (sleep-set
//!   widening depends on which worker reaches a state first), the depth,
//!   the steal count, the concolic run count or the witness traces.

use crate::jobs::Cell;
use nice_mc::{CheckReport, StrategyKind};
use std::collections::{BTreeMap, BTreeSet};

/// What the oracle reads off a report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observed {
    /// Distinct states explored.
    pub unique_states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// States with no enabled transition.
    pub terminal_states: u64,
    /// Successors that were already explored.
    pub dedup_hits: u64,
    /// Names of the violated properties.
    pub violated: BTreeSet<String>,
    /// True if a budget cut the search short.
    pub truncated: bool,
}

impl Observed {
    /// Reads the checked fields off a report.
    pub fn from_report(report: &CheckReport) -> Observed {
        Observed {
            unique_states: report.stats.unique_states,
            transitions: report.stats.transitions,
            terminal_states: report.stats.terminal_states,
            dedup_hits: report.stats.dedup_hits,
            violated: report
                .violations
                .iter()
                .map(|v| v.property.clone())
                .collect(),
            truncated: report.stats.truncated,
        }
    }

    /// `pass`, or the violated property names joined by `,`.
    pub fn verdict(&self) -> String {
        if self.violated.is_empty() {
            "pass".to_string()
        } else {
            self.violated.iter().cloned().collect::<Vec<_>>().join(",")
        }
    }
}

/// The exact outcome of a deterministic exhaustive check.
#[derive(Debug, Clone, Copy)]
pub struct Exact {
    /// Distinct states.
    pub unique_states: u64,
    /// Transitions.
    pub transitions: u64,
    /// Terminal states.
    pub terminal_states: u64,
    /// Deduplication hits.
    pub dedup_hits: u64,
}

/// `chain:4:3`, sequential, no reduction: passes.
pub const CHAIN_SEQ: Exact = Exact {
    unique_states: 317_739,
    transitions: 688_121,
    terminal_states: 1_708,
    dedup_hits: 370_383,
};

/// `chain:5:2`, sequential or sharded over any number of crash-free
/// workers: passes.
pub const DIST_CHAIN: Exact = Exact {
    unique_states: 6_941,
    transitions: 11_044,
    terminal_states: 185,
    dedup_hits: 4_104,
};

/// `chain:4:3` under partial-order reduction: the unique state count, which
/// every worker count and schedule reproduces. It passes.
pub const CHAIN_POR_UNIQUE: u64 = 218_628;

/// Checks a deterministic exhaustive run: every counter exact, no
/// violation, no truncation.
pub fn check_exact(observed: &Observed, expect: &Exact) -> Result<(), String> {
    let pairs = [
        (
            "unique_states",
            observed.unique_states,
            expect.unique_states,
        ),
        ("transitions", observed.transitions, expect.transitions),
        (
            "terminal_states",
            observed.terminal_states,
            expect.terminal_states,
        ),
        ("dedup_hits", observed.dedup_hits, expect.dedup_hits),
    ];
    for (name, got, want) in pairs {
        if got != want {
            return Err(format!("{name}: got {got}, expected {want}"));
        }
    }
    check_pass(observed)
}

/// Checks a schedule-dependent parallel run: the unique state count and
/// the (passing) verdict only.
pub fn check_unique_and_pass(observed: &Observed, unique_states: u64) -> Result<(), String> {
    if observed.unique_states != unique_states {
        return Err(format!(
            "unique_states: got {}, expected {unique_states}",
            observed.unique_states
        ));
    }
    check_pass(observed)
}

fn check_pass(observed: &Observed) -> Result<(), String> {
    if observed.truncated {
        return Err("search was truncated by a budget".to_string());
    }
    if !observed.violated.is_empty() {
        return Err(format!("unexpected violation: {}", observed.verdict()));
    }
    Ok(())
}

/// The deterministic sequential verdicts of the heuristic (non-PKT-SEQ)
/// Table 2 cells, keyed by [`Cell::key`].
pub fn heuristic_verdicts() -> BTreeMap<String, String> {
    include_str!("../data/table2_verdicts.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, verdict) = l.rsplit_once(' ').expect("line is `key verdict`");
            (key.to_string(), verdict.to_string())
        })
        .collect()
}

/// Checks one Table 2 job. A PKT-SEQ cell must meet its registry
/// expectation (the bug's property is violated, the fix passes). Any other
/// cell must reproduce its recorded sequential verdict: heuristic
/// strategies may legitimately miss a bug, but they do so
/// deterministically.
pub fn check_cell(
    cell: &Cell,
    observed: &Observed,
    verdicts: &BTreeMap<String, String>,
) -> Result<(), String> {
    if observed.truncated {
        return Err(format!("{}: truncated by a budget", cell.key()));
    }
    if cell.strategy == StrategyKind::FullDfs {
        return match cell.entry.expected_violation {
            Some(property) if observed.violated.contains(property) => Ok(()),
            Some(property) => Err(format!(
                "{}: expected {property} violated, got {}",
                cell.key(),
                observed.verdict()
            )),
            None if observed.violated.is_empty() => Ok(()),
            None => Err(format!(
                "{}: expected pass, got {}",
                cell.key(),
                observed.verdict()
            )),
        };
    }
    let key = cell.key();
    let want = verdicts
        .get(&key)
        .ok_or_else(|| format!("{key}: no recorded verdict"))?;
    let got = observed.verdict();
    if &got == want {
        Ok(())
    } else {
        Err(format!("{key}: expected {want}, got {got}"))
    }
}
