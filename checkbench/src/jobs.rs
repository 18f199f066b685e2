//! The fixed inputs of every workload: scenario specs, checker
//! configurations, and the Table 2 bug-hunt job matrix.

use nice_apps::scenarios::{registry, ScenarioEntry};
use nice_mc::{CheckerConfig, ReductionKind, StrategyKind};

/// `chain-seq` and `chain-par-por`: four switches, three pings.
pub const CHAIN_SPEC: &str = "chain:4:3";

/// `dist-chain`: five switches, two pings.
pub const DIST_SPEC: &str = "chain:5:2";

/// Worker threads of `chain-par-por` and worker processes of `dist-chain`.
pub const WORKERS: usize = 2;

/// An exhaustive check (every violation, not just the first).
pub fn exhaustive(reduction: ReductionKind, workers: usize) -> CheckerConfig {
    CheckerConfig::default()
        .with_stop_at_first(false)
        .with_reduction(reduction)
        .with_workers(workers)
}

/// One cell of the Table 2 sweep: a registry scenario under one strategy
/// and one reduction, with fault injection on exactly when the scenario's
/// bug needs it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The registry entry (a bug or its fix).
    pub entry: ScenarioEntry,
    /// The search strategy.
    pub strategy: StrategyKind,
    /// The partial-order reduction.
    pub reduction: ReductionKind,
}

impl Cell {
    /// The sequential, stop-at-first-violation configuration of this cell.
    pub fn config(&self) -> CheckerConfig {
        CheckerConfig::default()
            .with_strategy(self.strategy)
            .with_reduction(self.reduction)
            .with_fault_injection(self.entry.requires_faults)
    }

    /// `scenario strategy reduction`, the key of the verdict table.
    pub fn key(&self) -> String {
        format!(
            "{} {} {}",
            self.entry.name,
            self.strategy.name(),
            self.reduction.name()
        )
    }
}

/// Every registry entry under the full `StrategyKind::ALL ×
/// ReductionKind::ALL` matrix, in registry order.
pub fn table2_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for entry in registry() {
        for strategy in StrategyKind::ALL {
            for reduction in ReductionKind::ALL {
                cells.push(Cell {
                    entry: entry.clone(),
                    strategy,
                    reduction,
                });
            }
        }
    }
    cells
}
