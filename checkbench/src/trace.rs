//! The traced run: per-layer numbers from the replica search and the dist
//! replica, self-checked against the real engines' exact counts.
//!
//! A traced pass runs the real checker untraced (its wall time is the base
//! of `checker.residual_ns`), the replica timed, and the replica untimed
//! (the base of `trace.overhead_frac`). Passes repeat for the run's
//! seconds; times are reported as per-pass means, counts per pass. A
//! layer that a workload does not exercise reads 0.

use crate::dist_replica::{self, DistLayers};
use crate::jobs::{self, table2_cells, CHAIN_SPEC, DIST_SPEC, WORKERS};
use crate::oracle::Observed;
use crate::replica::{self, Layers, KINDS};
use crate::report::Metrics;
use crate::workloads::{dist_spec, spawn_coordinator, MIN_OPS};
use nice_apps::workloads::resolve;
use nice_mc::{CheckReport, CheckerConfig, ModelChecker, ReductionKind, Scenario};
use std::time::{Duration, Instant};

/// Everything a traced run accumulates.
#[derive(Debug, Default)]
pub struct Traced {
    /// Self-checks made (one per replica search compared).
    pub attempted: u64,
    /// Self-checks that found the replica off the real engine's counts.
    pub failed: u64,
    /// Passes completed.
    pub passes: u64,
    /// Timed replica layers, summed over passes.
    pub layers: Layers,
    /// Search wall of the real (untraced) runs the replica mirrors.
    pub search: Duration,
    /// Wall of the timed replica searches.
    pub traced: Duration,
    /// Wall of the untimed replica searches.
    pub untimed: Duration,
    /// Deduplication hits of the real runs.
    pub dedup_hits: u64,
    /// Transitions of the real runs.
    pub transitions: u64,
    /// Largest explored-set footprint of any real run.
    pub peak_explored_bytes: u64,
    /// Work steals of the two-worker POR runs.
    pub work_steals: u64,
    /// One-worker over two-worker POR search wall, summed over passes.
    pub wall_1w: Duration,
    /// See `wall_1w`.
    pub wall_2w: Duration,
    /// The 2-shard dist replica, summed over passes.
    pub dist: DistLayers,
    /// Wall of the real distributed jobs.
    pub dist_real: Duration,
}

impl Traced {
    fn check(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("SELF-CHECK FAILED ({what}): {e}");
            }
        }
    }

    fn done(&self, start: Instant, seconds: f64) -> bool {
        self.passes >= 1 && start.elapsed().as_secs_f64() >= seconds
    }

    /// Runs the real checker, the timed replica and the untimed replica on
    /// one sequential search, and checks the replicas against the checker.
    fn mirror(&mut self, what: &str, build: impl Fn() -> Scenario, config: &CheckerConfig) {
        let report = ModelChecker::new(build(), config.clone()).run();
        let scenario = build();
        let timed = replica::run::<true>(&scenario, config);
        let untimed = replica::run::<false>(&scenario, config);
        self.check(what, same_counts(&report, &timed.observed, &timed.layers));
        self.check(
            what,
            same_counts(&report, &untimed.observed, &untimed.layers),
        );
        self.layers.add(&timed.layers);
        self.search += report.stats.duration;
        self.traced += timed.wall;
        self.untimed += untimed.wall;
        self.dedup_hits += report.stats.dedup_hits;
        self.transitions += report.stats.transitions;
        self.peak_explored_bytes = self
            .peak_explored_bytes
            .max(report.stats.peak_explored_bytes);
    }

    /// The per-layer metrics, per pass.
    pub fn metrics(&self) -> Metrics {
        let passes = self.passes.max(1) as f64;
        let per = |v: u64| v as f64 / passes;
        let ns = |d: Duration| d.as_nanos() as f64 / passes;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let l = &self.layers;
        let mut m = Metrics::default();
        m.push("state.fingerprint_ns", per(l.fingerprint_ns), "ns");
        m.push("state.fingerprint_calls", per(l.fingerprint_calls), "count");
        m.push("state.clone_ns", per(l.clone_ns), "ns");
        m.push("state.clone_calls", per(l.clone_calls), "count");
        for (i, kind) in KINDS.iter().enumerate() {
            m.push(
                format!("transition.execute_ns.{kind}"),
                per(l.execute_ns[i]),
                "ns",
            );
            m.push(
                format!("transition.execute_calls.{kind}"),
                per(l.execute_calls[i]),
                "count",
            );
        }
        m.push("transition.enabled_ns", per(l.enabled_ns), "ns");
        m.push("transition.drain_ns", per(l.drain_ns), "ns");
        m.push("strategy.select_ns", per(l.strategy_select_ns), "ns");
        m.push("strategy.pruned", per(l.strategy_pruned), "count");
        let discover = l.discover_calls();
        m.push("sym.executions", per(l.sym_executions), "count");
        m.push("sym.discover_calls", per(discover), "count");
        m.push(
            "sym.memo_hit_ratio",
            if discover > 0 {
                1.0 - l.sym_executions as f64 / discover as f64
            } else {
                0.0
            },
            "ratio",
        );
        m.push("reduction.select_ns", per(l.reduction_select_ns), "ns");
        m.push(
            "reduction.child_sleeps_ns",
            per(l.reduction_child_sleeps_ns),
            "ns",
        );
        m.push("reduction.pruned", per(l.reduction_pruned), "count");
        m.push("properties.clone_ns", per(l.properties_clone_ns), "ns");
        m.push(
            "properties.on_event_ns",
            per(l.properties_on_event_ns),
            "ns",
        );
        m.push("properties.check_ns", per(l.properties_check_ns), "ns");
        m.push(
            "properties.check_final_ns",
            per(l.properties_check_final_ns),
            "ns",
        );
        m.push("explored.dedup_hits", per(self.dedup_hits), "count");
        m.push(
            "explored.dedup_ratio",
            ratio(self.dedup_hits as f64, self.transitions as f64),
            "ratio",
        );
        m.push(
            "explored.peak_bytes",
            self.peak_explored_bytes as f64,
            "bytes",
        );
        let search = ns(self.search);
        let attributed = per(l.attributed_ns());
        m.push("checker.search_ns", search, "ns");
        m.push("checker.attributed_ns", attributed, "ns");
        m.push("checker.residual_ns", search - attributed, "ns");
        m.push(
            "checker.unattributed_frac",
            ratio(search - attributed, search),
            "ratio",
        );
        m.push("checker.work_steals", per(self.work_steals), "count");
        m.push(
            "checker.speedup_2w",
            ratio(self.wall_1w.as_secs_f64(), self.wall_2w.as_secs_f64()),
            "ratio",
        );
        let d = &self.dist;
        m.push("dist.frames", per(d.frames), "count");
        m.push("dist.frame_bytes", per(d.frame_bytes), "bytes");
        m.push("dist.forwards", per(d.forwards), "count");
        m.push("dist.encode_ns", per(d.encode_ns), "ns");
        m.push("dist.validate_ns", per(d.validate_ns), "ns");
        m.push("dist.decode_ns", per(d.decode_ns), "ns");
        m.push("dist.step_ns", per(d.step_ns), "ns");
        m.push(
            "dist.inject_new_ratio",
            ratio(d.injected_new as f64, d.forwards as f64),
            "ratio",
        );
        let (replica_wall, job_wall) = (
            d.wall.as_secs_f64() / passes,
            self.dist_real.as_secs_f64() / passes,
        );
        m.push("dist.replica_wall_s", replica_wall, "s");
        m.push("dist.job_wall_s", job_wall, "s");
        m.push("dist.ipc_wait_s", job_wall - replica_wall, "s");
        m.push(
            "trace.overhead_frac",
            ratio(
                self.traced.as_secs_f64() - self.untimed.as_secs_f64(),
                self.untimed.as_secs_f64(),
            ),
            "ratio",
        );
        m
    }
}

/// The replica's counters, verdict and prune counts against the checker's.
fn same_counts(report: &CheckReport, observed: &Observed, layers: &Layers) -> Result<(), String> {
    let real = Observed::from_report(report);
    if &real != observed {
        return Err(format!("replica {observed:?} != checker {real:?}"));
    }
    let pruned = (layers.strategy_pruned, layers.reduction_pruned);
    let real_pruned = (report.stats.pruned_by_strategy, report.stats.pruned_by_por);
    if pruned != real_pruned {
        return Err(format!(
            "replica pruned (strategy, por) {pruned:?} != checker {real_pruned:?}"
        ));
    }
    Ok(())
}

fn chain_scenario() -> Scenario {
    resolve(CHAIN_SPEC).expect("chain spec resolves")
}

/// `chain-seq`: the replica on the sequential exhaustive chain.
pub fn chain_seq(seconds: f64) -> Traced {
    let config = jobs::exhaustive(ReductionKind::None, 1);
    let mut t = Traced::default();
    let start = Instant::now();
    while !t.done(start, seconds) {
        t.mirror("chain-seq", chain_scenario, &config);
        t.passes += 1;
    }
    t
}

/// `chain-par-por`: the replica on the one-worker POR chain, plus the real
/// two-worker run for the steal count and the speed-up.
pub fn chain_par_por(seconds: f64) -> Traced {
    let config = jobs::exhaustive(ReductionKind::Por, 1);
    let parallel = jobs::exhaustive(ReductionKind::Por, WORKERS);
    let mut t = Traced::default();
    let start = Instant::now();
    while !t.done(start, seconds) {
        let search_before = t.search;
        t.mirror("chain-par-por", chain_scenario, &config);
        t.wall_1w += t.search - search_before;
        let report = ModelChecker::new(chain_scenario(), parallel.clone()).run();
        t.check(
            "chain-par-por 2 workers",
            crate::oracle::check_unique_and_pass(
                &Observed::from_report(&report),
                crate::oracle::CHAIN_POR_UNIQUE,
            ),
        );
        t.wall_2w += report.stats.duration;
        t.work_steals += report.stats.work_steals;
        t.passes += 1;
    }
    t
}

/// `table2-hunt`: the replica on every sequential bug-hunt job.
pub fn table2(seconds: f64) -> Traced {
    let cells = table2_cells();
    let mut t = Traced::default();
    let start = Instant::now();
    while !t.done(start, seconds) {
        for cell in &cells {
            t.mirror(&cell.key(), || cell.entry.build(), &cell.config());
        }
        t.passes += 1;
    }
    t
}

/// `dist-chain`: the replica on the sequential chain, the 2-shard dist
/// replica checked against it, and the real distributed job for the
/// inter-process wait.
pub fn dist(seconds: f64) -> Traced {
    let config = dist_spec().config();
    let dist_scenario = || resolve(DIST_SPEC).expect("dist spec resolves");
    let mut t = Traced::default();
    let mut coordinator = match spawn_coordinator() {
        Ok(c) => Some(c),
        Err(e) => {
            t.check("dist-chain set-up", Err(e));
            None
        }
    };
    let start = Instant::now();
    while !t.done(start, seconds) && t.failed < MIN_OPS {
        t.mirror("dist-chain sequential", dist_scenario, &config);
        let checker = ModelChecker::new(dist_scenario(), config.clone());
        let sequential = Observed::from_report(&checker.run());
        let (merged, layers) = dist_replica::run(&checker, WORKERS as u32);
        t.check(
            "dist-chain 2-shard replica",
            if merged == sequential {
                Ok(())
            } else {
                Err(format!("sharded {merged:?} != sequential {sequential:?}"))
            },
        );
        add_dist(&mut t.dist, &layers);
        let real = coordinator
            .as_mut()
            .ok_or_else(|| "no worker pool".to_string())
            .and_then(|c| {
                c.run_job(&dist_spec(), |_| {}, None)
                    .map_err(|e| format!("dist job: {e}"))
            });
        match real {
            Ok(report) => {
                t.dist_real += report.stats.duration;
                t.check(
                    "dist-chain real job",
                    if Observed::from_report(&report) == sequential {
                        Ok(())
                    } else {
                        Err("real dist job differs from sequential".to_string())
                    },
                );
            }
            Err(e) => t.check("dist-chain real job", Err(e)),
        }
        t.passes += 1;
    }
    t
}

fn add_dist(sum: &mut DistLayers, d: &DistLayers) {
    sum.frames += d.frames;
    sum.frame_bytes += d.frame_bytes;
    sum.forwards += d.forwards;
    sum.injected_new += d.injected_new;
    sum.encode_ns += d.encode_ns;
    sum.validate_ns += d.validate_ns;
    sum.decode_ns += d.decode_ns;
    sum.step_ns += d.step_ns;
    sum.wall += d.wall;
}
