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

/// Runs `nice validate-json` with `input` on stdin.
fn validate(input: &str) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_nice"))
        .arg("validate-json")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run the nice binary");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait for nice")
}

#[test]
fn hostile_nesting_is_rejected_not_a_crash() {
    let nested = "[".repeat(200_000) + &"]".repeat(200_000);
    let out = validate(&nested);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let path = std::env::temp_dir().join(format!("nice-cli-nested-{}.json", std::process::id()));
    std::fs::write(&path, &nested).expect("write the trace file");
    let out = nice(&["replay", path.to_str().expect("UTF-8 temp path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn validate_json_routes_by_the_top_level_schema_value() {
    // A trace whose schema key is not first still gets typed validation.
    let out = validate(r#"{"steps":[{"kind":"bogus"}],"schema":"nice-trace-v1"}"#);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // A run report embeds a whole trace but is itself plain JSON.
    let report = nice(&["run", "bug-ii-delayed-direct-path", "--json", "--quiet"]);
    let json = String::from_utf8_lossy(&report.stdout);
    assert!(json.contains("\"schema\":\"nice-trace-v1\""), "{json}");
    let out = validate(&json);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("valid JSON"));
}
