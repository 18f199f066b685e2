//! The measured (untraced) runs of the four workloads. Load is closed
//! loop: one client submits one check at a time and waits for its verdict.

use crate::jobs::{self, table2_cells, Cell, CHAIN_SPEC, DIST_SPEC, WORKERS};
use crate::oracle::{self, Observed};
use crate::report::Metrics;
use crate::rng::pass_order;
use crate::{rss, stats};
use nice_apps::workloads::resolve;
use nice_dist::{Coordinator, JobSpec, WORKER_BIN_ENV};
use nice_mc::{CheckReport, CheckerConfig, ModelChecker, ReductionKind};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A run measures at least this many operations, however long they take.
pub const MIN_OPS: u64 = 3;

/// The tiny check every set-up ends with, run under the workload's engine
/// configuration (on one thread; on `dist-chain`, through the freshly
/// spawned workers): set-up is over once the engine has answered. It also
/// gives a set-up of a few microseconds real search work, whose speed
/// drifts far less from run to run than bare allocation does. It stays on
/// one thread because spawning more per set-up made the peak memory of
/// `chain-par-por` vary from run to run.
pub const SMOKE_SPEC: &str = "chain:2:1";

/// The raw samples of one measured run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (exhaustive checks, or Table 2 jobs).
    pub attempted: u64,
    /// Operations that errored or failed the oracle.
    pub failed: u64,
    /// Time to verdict of every operation, in ms.
    pub op_ms: Vec<f64>,
    /// Unique states per search-wall second, one sample per pass.
    pub states_per_s: Vec<f64>,
    /// Set-up times, in s.
    pub setup_s: Vec<f64>,
    /// Time spent in operations (set-up and oracle checks excluded).
    pub busy: Duration,
    /// Peak resident memory, MiB.
    pub peak_rss_mb: f64,
}

impl Measured {
    fn record(&mut self, op: Duration, verdict: Result<(), String>) {
        self.attempted += 1;
        self.busy += op;
        self.op_ms.push(op.as_secs_f64() * 1e3);
        if let Err(e) = verdict {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED: {e}");
            }
        }
    }

    /// Times one set-up and returns its result, or `None` if it failed. A
    /// run sets up before every pass, so `setup_s`, the median, samples the
    /// whole run rather than its first milliseconds.
    fn set_up<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Option<T> {
        let t = Instant::now();
        match setup() {
            Ok(value) => {
                self.setup_s.push(t.elapsed().as_secs_f64());
                Some(value)
            }
            Err(e) => {
                eprintln!("set-up failed: {e}");
                None
            }
        }
    }

    /// True once the loop has run long enough, or everything is failing.
    fn done(&self, start: Instant, seconds: f64) -> bool {
        let all_failing = self.failed >= MIN_OPS && self.failed == self.attempted;
        all_failing || (self.attempted >= MIN_OPS && start.elapsed().as_secs_f64() >= seconds)
    }

    /// The end-to-end metrics.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push(
            "states_per_s",
            stats::median(&self.states_per_s).unwrap_or(0.0),
            "1/s",
        );
        m.push(
            "job_ms_p50",
            stats::median(&self.op_ms).unwrap_or(0.0),
            "ms",
        );
        m.push(
            "job_ms_p99",
            stats::tail_p99(&self.op_ms).map_or(0.0, |(_, v)| v),
            "ms",
        );
        m.push(
            "jobs_per_s",
            self.attempted as f64 / self.busy.as_secs_f64().max(1e-9),
            "1/s",
        );
        m.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.push("setup_s", stats::median(&self.setup_s).unwrap_or(0.0), "s");
        m
    }
}

/// Checks that a smoke check passed after exploring something.
fn answered(report: &CheckReport) -> Result<(), String> {
    if report.passed() && report.stats.unique_states > 0 {
        Ok(())
    } else {
        Err("smoke check did not pass".to_string())
    }
}

/// Runs the smoke check in process under `config`, on one thread.
fn smoke(config: &CheckerConfig) -> Result<(), String> {
    let scenario = resolve(SMOKE_SPEC).expect("smoke spec resolves");
    answered(&ModelChecker::new(scenario, config.clone().with_workers(1)).run())
}

fn rate(report: &CheckReport) -> f64 {
    report.stats.unique_states as f64 / report.stats.duration.as_secs_f64().max(1e-9)
}

fn own_peak_rss_mb() -> f64 {
    rss::peak_rss_bytes("self").unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// `chain-seq` (`por == false`: one worker, no reduction, every counter
/// exact) or `chain-par-por` (`por == true`: two workers under POR, unique
/// states and verdict exact).
pub fn chain(por: bool, seconds: f64) -> Measured {
    let config = if por {
        jobs::exhaustive(ReductionKind::Por, WORKERS)
    } else {
        jobs::exhaustive(ReductionKind::None, 1)
    };
    let build = || {
        ModelChecker::new(
            resolve(CHAIN_SPEC).expect("chain spec resolves"),
            config.clone(),
        )
    };
    let mut m = Measured::default();
    let start = Instant::now();
    while !m.done(start, seconds) {
        m.set_up(|| {
            let checker = build();
            smoke(&config)?;
            Ok(checker)
        });
        let op = Instant::now();
        let report = build().run();
        let elapsed = op.elapsed();
        let observed = Observed::from_report(&report);
        let verdict = if por {
            oracle::check_unique_and_pass(&observed, oracle::CHAIN_POR_UNIQUE)
        } else {
            oracle::check_exact(&observed, &oracle::CHAIN_SEQ)
        };
        if verdict.is_ok() {
            m.states_per_s.push(rate(&report));
        }
        m.record(elapsed, verdict);
    }
    m.peak_rss_mb = own_peak_rss_mb();
    m
}

/// Builds what a `table2-hunt` run needs before its first job: the cell
/// matrix (every registry scenario built once, so an unresolvable entry
/// fails here) and the recorded heuristic verdicts.
fn table2_setup() -> (Vec<Cell>, std::collections::BTreeMap<String, String>) {
    let cells = table2_cells();
    for entry in nice_apps::scenarios::registry() {
        black_box(entry.build());
    }
    (cells, oracle::heuristic_verdicts())
}

/// `table2-hunt`: passes over the 144-job bug-hunt matrix, each pass in a
/// seeded order, every job a first-violation search checked by the oracle.
pub fn table2(seed: u64, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let mut pass = 0;
    while !m.done(start, seconds) {
        let Some((cells, verdicts)) = m.set_up(|| {
            let setup = table2_setup();
            smoke(&CheckerConfig::default())?;
            Ok(setup)
        }) else {
            m.record(Duration::ZERO, Err("set-up failed".to_string()));
            continue;
        };
        let (mut unique, mut search) = (0u64, 0f64);
        for index in pass_order(cells.len(), seed, pass) {
            let cell = &cells[index];
            let op = Instant::now();
            let report = ModelChecker::new(cell.entry.build(), cell.config()).run();
            let elapsed = op.elapsed();
            unique += report.stats.unique_states;
            search += report.stats.duration.as_secs_f64();
            let verdict = oracle::check_cell(cell, &Observed::from_report(&report), &verdicts);
            m.record(elapsed, verdict);
        }
        m.states_per_s.push(unique as f64 / search.max(1e-9));
        pass += 1;
    }
    m.peak_rss_mb = own_peak_rss_mb();
    m
}

/// The `nice-dist-worker` binary built next to this executable.
pub fn worker_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name(format!("nice-dist-worker{}", std::env::consts::EXE_SUFFIX));
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("worker binary {} not found", bin.display()))
    }
}

/// The exhaustive `dist-chain` job.
pub fn dist_spec() -> JobSpec {
    JobSpec {
        stop_at_first_violation: false,
        ..JobSpec::new(DIST_SPEC)
    }
}

/// Spawns the worker processes and runs the handshake job through them.
pub fn spawn_coordinator() -> Result<Coordinator, String> {
    let bin = worker_bin()?;
    std::env::set_var(WORKER_BIN_ENV, &bin);
    let mut coordinator = Coordinator::new(WORKERS).map_err(|e| format!("spawn: {e}"))?;
    let report = coordinator
        .run_job(&JobSpec::new(SMOKE_SPEC), |_| {}, None)
        .map_err(|e| format!("smoke job: {e}"))?;
    answered(&report)?;
    Ok(coordinator)
}

/// `dist-chain`: the exhaustive `chain:5:2` check through the distributed
/// coordinator and its worker processes, every summed counter exact.
pub fn dist(seconds: f64) -> Measured {
    let mut m = Measured::default();
    let spec = dist_spec();
    let start = Instant::now();
    let mut coordinator = None;
    while !m.done(start, seconds) {
        // One worker pool per job: the previous one shuts down, untimed,
        // before the next is spawned.
        drop(coordinator.take());
        coordinator = m.set_up(spawn_coordinator);
        let op = Instant::now();
        let verdict = match coordinator.as_mut() {
            None => Err("no worker pool: set-up failed".to_string()),
            Some(c) => match c.run_job(&spec, |_| {}, None) {
                Ok(report) => {
                    let verdict =
                        oracle::check_exact(&Observed::from_report(&report), &oracle::DIST_CHAIN);
                    if verdict.is_ok() {
                        m.states_per_s.push(rate(&report));
                    }
                    verdict
                }
                Err(e) => Err(format!("dist job: {e}")),
            },
        };
        m.record(op.elapsed(), verdict);
    }
    m.peak_rss_mb = rss::peak_rss_mb_with_children();
    drop(coordinator);
    m
}
