//! End-to-end checks of the `nice` binary's scenario resolution: `run`
//! accepts the same parameterised specs as `nice submit` and the dist
//! workers, and `--expect` still needs registry metadata.

use std::process::{Command, Output};

fn nice(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nice"))
        .args(args)
        .output()
        .expect("run the nice binary")
}

#[test]
fn run_accepts_a_parameterised_chain_spec() {
    let out = nice(&["run", "chain:3:1", "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("PASS"));

    let out = nice(&["run", "chain:3:1", "--json", "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    nice_mc::jsonv::validate_json(&json).expect("valid JSON");
    assert!(json.contains("\"schema\": \"nice-cli-run-v5\""), "{json}");
    assert!(json.contains("\"scenario\": \"chain:3:1\""), "{json}");
    assert!(json.contains("\"kind\": null"), "{json}");
    assert!(!json.contains("\"scheduler\""), "{json}");
}

#[test]
fn sweep_accepts_a_parameterised_spec() {
    let out = nice(&["sweep", "ping:1", "--json", "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    nice_mc::jsonv::validate_json(&json).expect("valid JSON");
    assert!(json.contains("\"expectation_met\": null"), "{json}");
}

#[test]
fn expect_on_a_parameterised_spec_is_a_usage_error() {
    let out = nice(&["run", "chain:3:1", "--expect", "--quiet"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--expect needs a registry scenario"));
}

#[test]
fn registry_names_keep_their_expectations() {
    let out = nice(&["run", "bug-ii-fixed", "--expect", "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn unknown_scenarios_and_the_removed_scheduler_flag_are_rejected() {
    assert_eq!(nice(&["run", "chain:1:1"]).status.code(), Some(2));
    assert_eq!(nice(&["run", "no-such-scenario"]).status.code(), Some(2));
    let out = nice(&["run", "chain:3:1", "--scheduler", "donation"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
