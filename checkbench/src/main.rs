//! `checkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `<s>` seconds and prints, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

use checkbench::report::render;
use checkbench::{trace, workloads};
use std::process::ExitCode;

/// The workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["chain-seq", "chain-par-por", "table2-hunt", "dist-chain"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("checkbench: {e}");
            eprintln!(
                "usage: checkbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, metrics) = if args.trace {
        let t = match args.workload.as_str() {
            "chain-seq" => trace::chain_seq(args.seconds),
            "chain-par-por" => trace::chain_par_por(args.seconds),
            "table2-hunt" => trace::table2(args.seconds),
            _ => trace::dist(args.seconds),
        };
        eprintln!("traced passes: {}", t.passes);
        (t.failed == 0, t.attempted, t.failed, t.metrics())
    } else {
        let m = match args.workload.as_str() {
            "chain-seq" => workloads::chain(false, args.seconds),
            "chain-par-por" => workloads::chain(true, args.seconds),
            "table2-hunt" => workloads::table2(args.seed, args.seconds),
            _ => workloads::dist(args.seconds),
        };
        if let Some((p, _)) = checkbench::stats::tail_p99(&m.op_ms) {
            eprintln!("job_ms_p99 is p{p} of {} samples", m.op_ms.len());
        }
        (m.failed == 0, m.attempted, m.failed, m.metrics())
    };
    println!(
        "{}",
        render(correct && attempted > 0, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
