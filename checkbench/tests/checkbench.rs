//! The benchmark's own tests: percentile maths, the oracle against
//! doctored reports, metric names, and seeded job orders.

use checkbench::jobs::{table2_cells, Cell};
use checkbench::oracle::{self, Observed};
use checkbench::report::{render, valid_name, Metrics};
use checkbench::rng::pass_order;
use checkbench::stats::{beyond, median, percentile, rank, tail_p99, tail_percentile};
use checkbench::trace::Traced;
use checkbench::workloads::Measured;
use nice_mc::StrategyKind;
use std::collections::BTreeSet;

// --- percentiles and sample counts ---------------------------------------

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn nearest_rank_percentiles() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&samples, 50.0), Some(500.0));
    assert_eq!(percentile(&samples, 99.0), Some(990.0));
    assert_eq!(percentile(&samples, 99.9), Some(999.0));
    assert_eq!(percentile(&samples, 100.0), Some(1000.0));
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(rank(0.0, 10), 1, "rank never drops below the first sample");
}

#[test]
fn samples_beyond_a_percentile() {
    assert_eq!(beyond(99.0, 1000), 10);
    assert_eq!(beyond(99.0, 999), 9);
    assert_eq!(beyond(90.0, 100), 10);
    assert_eq!(beyond(50.0, 20), 10);
    assert_eq!(beyond(50.0, 19), 9);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(9_999), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
}

#[test]
fn p99_metric_never_reports_a_thin_tail() {
    let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
    assert_eq!(tail_p99(&many), Some((99.0, 9_900.0)), "capped at p99");
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_p99(&hundred), Some((90.0, 90.0)));
    let few = [5.0, 1.0, 100.0, 2.0];
    assert_eq!(
        tail_p99(&few),
        Some((50.0, 3.5)),
        "under 20 samples: the median"
    );
    assert_eq!(tail_p99(&[]), None);
}

// --- the oracle ------------------------------------------------------------

fn exact_chain() -> Observed {
    let e = oracle::CHAIN_SEQ;
    Observed {
        unique_states: e.unique_states,
        transitions: e.transitions,
        terminal_states: e.terminal_states,
        dedup_hits: e.dedup_hits,
        ..Observed::default()
    }
}

#[test]
fn exact_check_flags_every_wrong_count() {
    assert_eq!(
        oracle::check_exact(&exact_chain(), &oracle::CHAIN_SEQ),
        Ok(())
    );
    let doctored: [fn(&mut Observed); 5] = [
        |o| o.unique_states -= 1,
        |o| o.transitions += 1,
        |o| o.terminal_states += 1,
        |o| o.dedup_hits -= 1,
        |o| o.truncated = true,
    ];
    for doctor in doctored {
        let mut o = exact_chain();
        doctor(&mut o);
        assert!(
            oracle::check_exact(&o, &oracle::CHAIN_SEQ).is_err(),
            "{o:?}"
        );
    }
}

#[test]
fn exact_check_flags_a_wrong_verdict() {
    let mut o = exact_chain();
    o.violated.insert("NoForgottenPackets".to_string());
    assert!(oracle::check_exact(&o, &oracle::CHAIN_SEQ).is_err());
}

#[test]
fn parallel_check_ignores_schedule_dependent_counts_only() {
    let good = Observed {
        unique_states: oracle::CHAIN_POR_UNIQUE,
        transitions: 294_517,
        dedup_hits: 12,
        ..Observed::default()
    };
    assert_eq!(
        oracle::check_unique_and_pass(&good, oracle::CHAIN_POR_UNIQUE),
        Ok(())
    );
    let mut fewer = good.clone();
    fewer.unique_states -= 1;
    assert!(oracle::check_unique_and_pass(&fewer, oracle::CHAIN_POR_UNIQUE).is_err());
    let mut violated = good;
    violated.violated.insert("NoForwardingLoops".to_string());
    assert!(oracle::check_unique_and_pass(&violated, oracle::CHAIN_POR_UNIQUE).is_err());
}

fn cell(pick: impl Fn(&Cell) -> bool) -> Cell {
    table2_cells()
        .into_iter()
        .find(pick)
        .expect("such a cell exists")
}

fn violating(property: &str) -> Observed {
    Observed {
        violated: BTreeSet::from([property.to_string()]),
        ..Observed::default()
    }
}

#[test]
fn pkt_seq_cells_must_meet_the_registry_expectation() {
    let verdicts = oracle::heuristic_verdicts();
    let bug = cell(|c| c.strategy == StrategyKind::FullDfs && c.entry.expected_violation.is_some());
    let property = bug.entry.expected_violation.unwrap();
    assert_eq!(
        oracle::check_cell(&bug, &violating(property), &verdicts),
        Ok(())
    );
    assert!(
        oracle::check_cell(&bug, &Observed::default(), &verdicts).is_err(),
        "a missing violation is a failure"
    );
    assert!(oracle::check_cell(&bug, &violating("SomethingElse"), &verdicts).is_err());
    let mut cut = violating(property);
    cut.truncated = true;
    assert!(oracle::check_cell(&bug, &cut, &verdicts).is_err());

    let fixed =
        cell(|c| c.strategy == StrategyKind::FullDfs && c.entry.expected_violation.is_none());
    assert_eq!(
        oracle::check_cell(&fixed, &Observed::default(), &verdicts),
        Ok(())
    );
    assert!(oracle::check_cell(&fixed, &violating(fixed.entry.property()), &verdicts).is_err());
}

#[test]
fn heuristic_cells_must_reproduce_their_recorded_verdict() {
    let verdicts = oracle::heuristic_verdicts();
    for cell in table2_cells()
        .into_iter()
        .filter(|c| c.strategy != StrategyKind::FullDfs)
    {
        let recorded = &verdicts[&cell.key()];
        let observed = if recorded == "pass" {
            Observed::default()
        } else {
            violating(recorded)
        };
        assert_eq!(oracle::check_cell(&cell, &observed, &verdicts), Ok(()));
        let flipped = if recorded == "pass" {
            violating(cell.entry.property())
        } else {
            Observed::default()
        };
        assert!(
            oracle::check_cell(&cell, &flipped, &verdicts).is_err(),
            "{}",
            cell.key()
        );
    }
}

#[test]
fn verdict_table_covers_exactly_the_heuristic_cells() {
    let verdicts = oracle::heuristic_verdicts();
    let heuristic: BTreeSet<String> = table2_cells()
        .iter()
        .filter(|c| c.strategy != StrategyKind::FullDfs)
        .map(Cell::key)
        .collect();
    assert_eq!(table2_cells().len(), 144);
    assert_eq!(heuristic.len(), 108);
    assert_eq!(verdicts.keys().cloned().collect::<BTreeSet<_>>(), heuristic);
}

// --- metric names and the result line ---------------------------------------

#[test]
fn metric_name_rule() {
    for good in [
        "states_per_s",
        "transition.execute_ns.ctrl_handle",
        "p99",
        "a-b.c_d",
    ] {
        assert!(valid_name(good), "{good}");
    }
    let too_long = "x".repeat(65);
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/",
        "ünicode",
        too_long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad:?}");
    }
}

fn names(metrics: &Metrics) -> Vec<String> {
    metrics.0.iter().map(|m| m.name.clone()).collect()
}

/// The `name`s listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("list closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn reported_metrics_are_exactly_the_listed_ones_with_legal_names() {
    let end_to_end = names(&Measured::default().metrics());
    let per_layer = names(&Traced::default().metrics());
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(valid_name(name), "{name}");
    }
    assert_eq!(end_to_end, listed("end_to_end"));
    assert_eq!(per_layer, listed("per_layer"));
    let all: BTreeSet<&String> = end_to_end.iter().chain(&per_layer).collect();
    assert_eq!(
        all.len(),
        end_to_end.len() + per_layer.len(),
        "names are unique"
    );
}

#[test]
fn result_line_is_valid_json_with_the_four_keys() {
    let line = render(true, 3, 0, &Traced::default().metrics());
    nice_mc::jsonv::validate_json(&line).expect("valid JSON");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    let mut m = Metrics::default();
    m.push("setup_s", 0.000_002_5, "s");
    assert!(
        render(false, 1, 1, &m).contains("\"setup_s\": {\"value\": 0.0000025, \"unit\": \"s\"}")
    );
}

// --- seeded job orders -------------------------------------------------------

#[test]
fn seed_gives_a_reproducible_permutation_per_pass() {
    let a = pass_order(144, 42, 0);
    assert_eq!(a, pass_order(144, 42, 0), "same seed and pass, same order");
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..144).collect::<Vec<_>>(), "a permutation");
    assert_ne!(a, pass_order(144, 43, 0), "another seed reorders");
    assert_ne!(a, pass_order(144, 42, 1), "another pass reorders");
    assert_ne!(a, (0..144).collect::<Vec<_>>());
}
