//! An in-process replica of the distributed service: two `ShardedSearch`
//! shards whose forwarded states travel through the real `nice-dist-v1`
//! codec instead of pipes. Each hop is encoded (`Frame::to_json`),
//! validated (`jsonv::validate_json`) and decoded (`Frame::from_json`) and
//! timed, as the worker (`forward`) and the coordinator (`states`) do
//! it, so the wall time of the real service minus this replica's is the
//! time spent in pipes, process scheduling and waiting.

use crate::oracle::Observed;
use nice_dist::Frame;
use nice_mc::jsonv::validate_json;
use nice_mc::{shard_of, FrontierExport, ModelChecker, ShardSpec, ShardedSearch, StepOutcome};
use std::time::{Duration, Instant};

/// Codec and step costs of one replica run.
#[derive(Debug, Clone, Default)]
pub struct DistLayers {
    /// Frames that crossed a (replicated) process boundary.
    pub frames: u64,
    /// Their total JSON size.
    pub frame_bytes: u64,
    /// States forwarded to the shard that owns them.
    pub forwards: u64,
    /// Forwarded states the owner had not seen (queued for expansion).
    pub injected_new: u64,
    /// `Frame::to_json`.
    pub encode_ns: u64,
    /// `jsonv::validate_json`.
    pub validate_ns: u64,
    /// `Frame::from_json`.
    pub decode_ns: u64,
    /// `ShardedSearch::step`, including the replay of injected states from
    /// the initial state.
    pub step_ns: u64,
    /// Wall time of the whole replica run.
    pub wall: Duration,
}

fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Sends `frame` across one replicated boundary and returns what the
/// receiver decodes.
fn hop(layers: &mut DistLayers, frame: &Frame) -> Vec<FrontierExport> {
    let t = Instant::now();
    let json = frame.to_json();
    layers.encode_ns += nanos(t);
    let t = Instant::now();
    validate_json(&json).expect("a frame the codec emitted validates");
    layers.validate_ns += nanos(t);
    let t = Instant::now();
    let decoded = Frame::from_json(&json).expect("a frame the codec emitted decodes");
    layers.decode_ns += nanos(t);
    layers.frames += 1;
    layers.frame_bytes += json.len() as u64;
    match decoded {
        Frame::Forward { states, .. } | Frame::States { states, .. } => states,
        other => panic!("decoded an unexpected frame: {other:?}"),
    }
}

/// Runs `checker`'s search over `count` in-process shards and returns the
/// merged counters and verdict with the codec costs.
pub fn run(checker: &ModelChecker, count: u32) -> (Observed, DistLayers) {
    let start = Instant::now();
    let mut layers = DistLayers::default();
    let mut shards: Vec<ShardedSearch<'_>> = (0..count)
        .map(|index| ShardedSearch::new(checker, ShardSpec { index, count }))
        .collect();
    let job = 1;
    loop {
        let mut progressed = false;
        for i in 0..shards.len() {
            loop {
                let t = Instant::now();
                let outcome = shards[i].step();
                layers.step_ns += nanos(t);
                let forwards = shards[i].take_forwards();
                if !forwards.is_empty() {
                    let arrived = hop(
                        &mut layers,
                        &Frame::Forward {
                            job,
                            states: forwards,
                        },
                    );
                    let mut by_owner: Vec<Vec<FrontierExport>> = vec![Vec::new(); shards.len()];
                    for export in arrived {
                        by_owner[shard_of(export.fingerprint, count) as usize].push(export);
                    }
                    for (owner, batch) in by_owner.into_iter().enumerate() {
                        if batch.is_empty() {
                            continue;
                        }
                        for export in hop(&mut layers, &Frame::States { job, states: batch }) {
                            layers.forwards += 1;
                            if shards[owner].inject(export) {
                                layers.injected_new += 1;
                            }
                        }
                    }
                }
                if outcome != StepOutcome::Expanded {
                    break;
                }
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    let mut observed = Observed::default();
    for shard in shards {
        let report = shard.finish();
        let part = Observed::from_report(&report);
        observed.unique_states += part.unique_states;
        observed.transitions += part.transitions;
        observed.terminal_states += part.terminal_states;
        observed.dedup_hits += part.dedup_hits;
        observed.truncated |= part.truncated;
        observed.violated.extend(part.violated);
    }
    layers.wall = start.elapsed();
    (observed, layers)
}
