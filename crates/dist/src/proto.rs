//! The `nice-dist-v1` wire protocol.
//!
//! Every frame is one line: `<len> <json>\n`, where `<len>` is the byte
//! length of `<json>` (at most [`MAX_FRAME_BYTES`]) and `<json>` is a
//! single-line JSON object carrying `"schema": "nice-dist-v1"` and a
//! `"frame"` discriminant. Frames are hand-rolled (no serde in this offline
//! build) and **self-validated**: [`write_frame`] runs every outgoing
//! document through the strict [`nice_mc::jsonv`] validator before it
//! touches the pipe, so a malformed emitter fails loudly at the sender,
//! not as a parse error at the receiver.
//!
//! Transition sequences reuse the `nice-trace-v1` step objects
//! ([`nice_mc::trace::steps_to_json`]), so a violation streamed by a
//! worker carries the same replayable steps a trace file does.
//!
//! | frame | direction | meaning |
//! |-------|-----------|---------|
//! | `job` | C → W | start a job on a shard (scenario spec + engine config) |
//! | `states` | C → W | frontier exports routed to this worker's shard |
//! | `cancel` | C → W | stop expanding (the job still completes with `job_done`) |
//! | `finish` | C → W | no more states will arrive; finalize and report |
//! | `shutdown` | C → W | exit the worker process |
//! | `hello` | W → C | worker is up (pid) |
//! | `forward` | W → C | frontier exports owned by other shards |
//! | `progress` | W → C | periodic transition/state counters |
//! | `violation` | W → C | a violation, streamed live with its steps |
//! | `idle` | W → C | local frontier drained; `received` acknowledges injected states |
//! | `job_done` | W → C | final per-shard stats + violations |
//! | `error` | W → C | the job could not run (e.g. unknown scenario spec) |

use nice_mc::json::{self, Json};
use nice_mc::jsonv::{escape_json, validate_json};
use nice_mc::trace::{steps_from_value, steps_to_json, TraceStep};
use nice_mc::{
    ExploredMode, FaultStats, FrontierExport, ReductionKind, SearchStats, ShardSpec, StrategyKind,
    Transition,
};
use std::io::{self, BufRead, Read, Write};
use std::time::Duration;

use crate::coordinator::JobSpec;

/// The schema tag every `nice-dist-v1` frame carries.
pub const DIST_SCHEMA: &str = "nice-dist-v1";

/// One violation on the wire: property, message, and the replayable
/// transition steps from the initial state.
#[derive(Debug, Clone, PartialEq)]
pub struct WireViolation {
    /// The violated property.
    pub property: String,
    /// The violation message.
    pub message: String,
    /// The reproducing transition sequence from the initial state.
    pub steps: Vec<Transition>,
}

/// A `nice-dist-v1` frame. See the [module docs](self) for the table.
#[derive(Debug, Clone)]
pub enum Frame {
    /// C → W: start `job` on `shard` with the given spec.
    Job {
        /// Job id (coordinator-assigned, echoed by every worker frame).
        job: u64,
        /// The fingerprint slice this worker owns.
        shard: ShardSpec,
        /// What to check and how.
        spec: JobSpec,
    },
    /// C → W: frontier exports owned by the receiving worker's shard.
    States {
        /// Job id.
        job: u64,
        /// The exported states to inject.
        states: Vec<FrontierExport>,
    },
    /// C → W: stop expanding; keep consuming frames and report on `finish`.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// C → W: no further `states` frames will arrive — finalize the shard
    /// report and answer with `job_done`.
    Finish {
        /// Job id.
        job: u64,
    },
    /// C → W: exit the worker process.
    Shutdown,
    /// W → C: the worker process is up.
    Hello {
        /// The worker's OS process id.
        pid: u64,
    },
    /// W → C: frontier exports owned by other shards; the coordinator
    /// routes each to its owner.
    Forward {
        /// Job id.
        job: u64,
        /// The exported states.
        states: Vec<FrontierExport>,
    },
    /// W → C: periodic per-shard counters (budget/deadline enforcement and
    /// live progress).
    Progress {
        /// Job id.
        job: u64,
        /// Transitions executed by this shard so far.
        transitions: u64,
        /// Unique states owned by this shard so far.
        unique_states: u64,
        /// Depth of the path that triggered this report.
        depth: u64,
    },
    /// W → C: a violation found by this shard, streamed live.
    Violation {
        /// Job id.
        job: u64,
        /// The violation.
        violation: WireViolation,
    },
    /// W → C: the local frontier is empty. `received` acknowledges every
    /// state record injected so far — the coordinator's termination
    /// detector compares it against what it forwarded.
    Idle {
        /// Job id.
        job: u64,
        /// Total state records received for this job so far.
        received: u64,
    },
    /// W → C: the shard's final report.
    JobDone {
        /// Job id.
        job: u64,
        /// Per-shard search statistics.
        stats: SearchStats,
        /// Every violation this shard found.
        violations: Vec<WireViolation>,
    },
    /// W → C: the job could not run.
    Error {
        /// Job id.
        job: u64,
        /// What went wrong.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn steps_json(transitions: &[Transition]) -> String {
    let steps: Vec<TraceStep> = transitions
        .iter()
        .cloned()
        .map(TraceStep::Transition)
        .collect();
    steps_to_json(&steps)
}

fn exports_json(states: &[FrontierExport]) -> String {
    let rendered: Vec<String> = states
        .iter()
        .map(|s| {
            format!(
                "{{\"fingerprint\":{},\"steps\":{},\"sleep\":{}}}",
                s.fingerprint,
                steps_json(&s.trace),
                steps_json(&s.sleep)
            )
        })
        .collect();
    format!("[{}]", rendered.join(","))
}

fn stats_json(stats: &SearchStats) -> String {
    let faults: Vec<String> = stats
        .faults
        .labeled()
        .iter()
        .map(|(name, count)| format!("\"{name}\":{count}"))
        .collect();
    format!(
        "{{\"transitions\":{},\"unique_states\":{},\"terminal_states\":{},\
         \"symbolic_executions\":{},\"pruned_by_strategy\":{},\"pruned_by_por\":{},\
         \"dedup_hits\":{},\"work_steals\":{},\"peak_explored_bytes\":{},\
         \"spilled_shards\":{},\"filter_hits\":{},\"disk_probes\":{},\
         \"max_depth\":{},\"truncated\":{},\"duration_ms\":{},\
         \"faults\":{{{}}}}}",
        stats.transitions,
        stats.unique_states,
        stats.terminal_states,
        stats.symbolic_executions,
        stats.pruned_by_strategy,
        stats.pruned_by_por,
        stats.dedup_hits,
        stats.work_steals,
        stats.peak_explored_bytes,
        stats.spilled_shards,
        stats.filter_hits,
        stats.disk_probes,
        stats.max_depth,
        stats.truncated,
        stats.duration.as_millis(),
        faults.join(",")
    )
}

fn violation_json(v: &WireViolation) -> String {
    format!(
        "{{\"property\":\"{}\",\"message\":\"{}\",\"steps\":{}}}",
        escape_json(&v.property),
        escape_json(&v.message),
        steps_json(&v.steps)
    )
}

fn spec_json(spec: &JobSpec) -> String {
    format!(
        "{{\"scenario\":\"{}\",\"strategy\":\"{}\",\"reduction\":\"{}\",\"faults\":{},\
         \"stop_at_first\":{},\"max_transitions\":{},\"max_depth\":{},\"time_budget_ms\":{},\
         \"explored\":\"{}\",\"mem_limit\":{}}}",
        escape_json(&spec.scenario),
        spec.strategy.name(),
        spec.reduction.name(),
        spec.inject_faults,
        spec.stop_at_first_violation,
        spec.max_transitions,
        spec.max_depth,
        spec.time_budget_ms,
        spec.explored.name(),
        spec.mem_limit,
    )
}

impl Frame {
    /// Renders the frame as its single-line `nice-dist-v1` JSON document.
    pub fn to_json(&self) -> String {
        let body = match self {
            Frame::Job { job, shard, spec } => format!(
                "\"frame\":\"job\",\"job\":{job},\"shard\":{{\"index\":{},\"count\":{}}},\"spec\":{}",
                shard.index,
                shard.count,
                spec_json(spec)
            ),
            Frame::States { job, states } => format!(
                "\"frame\":\"states\",\"job\":{job},\"states\":{}",
                exports_json(states)
            ),
            Frame::Cancel { job } => format!("\"frame\":\"cancel\",\"job\":{job}"),
            Frame::Finish { job } => format!("\"frame\":\"finish\",\"job\":{job}"),
            Frame::Shutdown => "\"frame\":\"shutdown\"".to_string(),
            Frame::Hello { pid } => format!("\"frame\":\"hello\",\"pid\":{pid}"),
            Frame::Forward { job, states } => format!(
                "\"frame\":\"forward\",\"job\":{job},\"states\":{}",
                exports_json(states)
            ),
            Frame::Progress {
                job,
                transitions,
                unique_states,
                depth,
            } => format!(
                "\"frame\":\"progress\",\"job\":{job},\"transitions\":{transitions},\
                 \"unique_states\":{unique_states},\"depth\":{depth}"
            ),
            Frame::Violation { job, violation } => format!(
                "\"frame\":\"violation\",\"job\":{job},\"violation\":{}",
                violation_json(violation)
            ),
            Frame::Idle { job, received } => {
                format!("\"frame\":\"idle\",\"job\":{job},\"received\":{received}")
            }
            Frame::JobDone {
                job,
                stats,
                violations,
            } => {
                let rendered: Vec<String> = violations.iter().map(violation_json).collect();
                format!(
                    "\"frame\":\"job_done\",\"job\":{job},\"stats\":{},\"violations\":[{}]",
                    stats_json(stats),
                    rendered.join(",")
                )
            }
            Frame::Error { job, message } => format!(
                "\"frame\":\"error\",\"job\":{job},\"message\":\"{}\"",
                escape_json(message)
            ),
        };
        format!("{{\"schema\":\"{DIST_SCHEMA}\",{body}}}")
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn transitions_from(value: &Json) -> Result<Vec<Transition>, String> {
    Ok(steps_from_value(value)?
        .into_iter()
        .map(|step| {
            let TraceStep::Transition(t) = step;
            t
        })
        .collect())
}

fn exports_from(value: &Json) -> Result<Vec<FrontierExport>, String> {
    let arr = value.as_arr().ok_or("'states' must be an array")?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| export_from(v).map_err(|e| format!("state {i}: {e}")))
        .collect()
}

fn export_from(value: &Json) -> Result<FrontierExport, String> {
    let obj = value.as_obj().ok_or("not an object")?;
    Ok(FrontierExport {
        fingerprint: obj.int("fingerprint")?,
        trace: transitions_from(obj.value("steps")?)?,
        sleep: transitions_from(obj.value("sleep")?)?,
    })
}

fn stats_from(value: &Json) -> Result<SearchStats, String> {
    let obj = value.as_obj().ok_or("'stats' must be an object")?;
    let faults_obj = obj
        .value("faults")?
        .as_obj()
        .ok_or("'faults' must be an object")?;
    let mut counts = [0u64; FaultStats::KINDS];
    for (i, (name, _)) in FaultStats::default().labeled().iter().enumerate() {
        counts[i] = faults_obj.int(name)?;
    }
    Ok(SearchStats {
        transitions: obj.int("transitions")?,
        unique_states: obj.int("unique_states")?,
        terminal_states: obj.int("terminal_states")?,
        symbolic_executions: obj.int("symbolic_executions")?,
        pruned_by_strategy: obj.int("pruned_by_strategy")?,
        pruned_by_por: obj.int("pruned_by_por")?,
        dedup_hits: obj.int("dedup_hits")?,
        work_steals: obj.int("work_steals")?,
        peak_explored_bytes: obj.int("peak_explored_bytes")?,
        spilled_shards: obj.int("spilled_shards")?,
        filter_hits: obj.int("filter_hits")?,
        disk_probes: obj.int("disk_probes")?,
        faults: FaultStats::from_counts(counts),
        max_depth: obj.int("max_depth")?,
        truncated: obj.bool("truncated")?,
        duration: Duration::from_millis(obj.int("duration_ms")?),
    })
}

fn violation_from(value: &Json) -> Result<WireViolation, String> {
    let obj = value.as_obj().ok_or("violation must be an object")?;
    Ok(WireViolation {
        property: obj.str("property")?.to_string(),
        message: obj.str("message")?.to_string(),
        steps: transitions_from(obj.value("steps")?)?,
    })
}

fn spec_from(value: &Json) -> Result<JobSpec, String> {
    let obj = value.as_obj().ok_or("'spec' must be an object")?;
    let strategy = obj.str("strategy")?;
    let reduction = obj.str("reduction")?;
    let explored = obj.str("explored")?;
    Ok(JobSpec {
        scenario: obj.str("scenario")?.to_string(),
        strategy: StrategyKind::parse(strategy)
            .ok_or_else(|| format!("unknown strategy '{strategy}'"))?,
        reduction: ReductionKind::parse(reduction)
            .ok_or_else(|| format!("unknown reduction '{reduction}'"))?,
        inject_faults: obj.bool("faults")?,
        stop_at_first_violation: obj.bool("stop_at_first")?,
        max_transitions: obj.int("max_transitions")?,
        max_depth: obj.int("max_depth")?,
        time_budget_ms: obj.int("time_budget_ms")?,
        explored: ExploredMode::parse(explored)
            .ok_or_else(|| format!("unknown explored mode '{explored}'"))?,
        mem_limit: obj.int("mem_limit")?,
    })
}

impl Frame {
    /// Parses a single-line `nice-dist-v1` JSON document.
    pub fn from_json(input: &str) -> Result<Frame, String> {
        let value = json::parse(input)?;
        let obj = value.as_obj().ok_or("frame must be a JSON object")?;
        let schema = obj.str("schema")?;
        if schema != DIST_SCHEMA {
            return Err(format!("unknown schema '{schema}' (want '{DIST_SCHEMA}')"));
        }
        let frame = obj.str("frame")?;
        match frame {
            "job" => {
                let shard_obj = obj
                    .value("shard")?
                    .as_obj()
                    .ok_or("'shard' must be an object")?;
                let count: u32 = shard_obj.int("count")?;
                let index: u32 = shard_obj.int("index")?;
                if count == 0 || index >= count {
                    return Err(format!("invalid shard {index}/{count}"));
                }
                Ok(Frame::Job {
                    job: obj.int("job")?,
                    shard: ShardSpec { index, count },
                    spec: spec_from(obj.value("spec")?)?,
                })
            }
            "states" => Ok(Frame::States {
                job: obj.int("job")?,
                states: exports_from(obj.value("states")?)?,
            }),
            "cancel" => Ok(Frame::Cancel {
                job: obj.int("job")?,
            }),
            "finish" => Ok(Frame::Finish {
                job: obj.int("job")?,
            }),
            "shutdown" => Ok(Frame::Shutdown),
            "hello" => Ok(Frame::Hello {
                pid: obj.int("pid")?,
            }),
            "forward" => Ok(Frame::Forward {
                job: obj.int("job")?,
                states: exports_from(obj.value("states")?)?,
            }),
            "progress" => Ok(Frame::Progress {
                job: obj.int("job")?,
                transitions: obj.int("transitions")?,
                unique_states: obj.int("unique_states")?,
                depth: obj.int("depth")?,
            }),
            "violation" => Ok(Frame::Violation {
                job: obj.int("job")?,
                violation: violation_from(obj.value("violation")?)?,
            }),
            "idle" => Ok(Frame::Idle {
                job: obj.int("job")?,
                received: obj.int("received")?,
            }),
            "job_done" => {
                let violations = obj
                    .value("violations")?
                    .as_arr()
                    .ok_or("'violations' must be an array")?
                    .iter()
                    .map(violation_from)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Frame::JobDone {
                    job: obj.int("job")?,
                    stats: stats_from(obj.value("stats")?)?,
                    violations,
                })
            }
            "error" => Ok(Frame::Error {
                job: obj.int("job")?,
                message: obj.str("message")?.to_string(),
            }),
            other => Err(format!("unknown frame kind '{other}'")),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The largest frame body [`read_frame`] accepts. A length prefix above it
/// is rejected before any of the body is read, so a corrupt or hostile
/// peer cannot make the reader buffer without bound. The largest frames an
/// exhaustive `chain:6:3 --dist 2` check sends are about 14 KB.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Digits a length prefix may have: `u64::MAX` has 20.
const MAX_LEN_DIGITS: usize = 20;

/// Writes one length-prefixed frame (`<len> <json>\n`) and flushes. The
/// JSON is run through the strict [`nice_mc::jsonv`] validator first —
/// the emitters are hand-rolled, so every frame proves its own
/// well-formedness before it crosses the process boundary.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let json = frame.to_json();
    validate_json(&json)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("outgoing frame: {e}")))?;
    w.write_all(format!("{} {json}\n", json.len()).as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed frame: at most 20 decimal digits and a
/// space, then exactly that many body bytes, then `\n`.
/// Returns `Ok(None)` on clean EOF (the peer closed the pipe); a
/// truncated, oversized or corrupt frame is an `InvalidData` error, and no
/// more than [`MAX_FRAME_BYTES`] + 21 bytes are read to find that out.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let mut len: usize = 0;
    let mut digits = 0;
    loop {
        match next_byte(r)? {
            None if digits == 0 => return Ok(None),
            Some(b' ') if digits > 0 => break,
            Some(d @ b'0'..=b'9') if digits < MAX_LEN_DIGITS => {
                len = len.saturating_mul(10).saturating_add(usize::from(d - b'0'));
                digits += 1;
            }
            _ => {
                return Err(bad(format!(
                    "frame must start with a length of 1 to {MAX_LEN_DIGITS} digits and a space"
                )))
            }
        }
    }
    if len > MAX_FRAME_BYTES {
        return Err(bad(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut body = Vec::new();
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len || next_byte(r)? != Some(b'\n') {
        return Err(bad(format!(
            "frame length mismatch: the body is not the {len} bytes plus newline the prefix says"
        )));
    }
    let json = String::from_utf8(body).map_err(|_| bad("frame is not UTF-8".to_string()))?;
    Frame::from_json(&json).map(Some).map_err(bad)
}

/// One byte, or `None` at EOF.
fn next_byte(r: &mut impl Read) -> io::Result<Option<u8>> {
    let mut byte = [0];
    match r.read_exact(&mut byte) {
        Ok(()) => Ok(Some(byte[0])),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_mc::CheckerConfig;

    fn sample_exports() -> Vec<FrontierExport> {
        // Real transitions from a real scenario so the steps on the wire are
        // representative of every transition kind's fields.
        let scenario = nice_apps::workloads::ping_workload(1, true);
        let state = nice_mc::SystemState::initial(&scenario);
        let steps =
            nice_mc::transition::enabled_transitions(&state, &scenario, &CheckerConfig::default());
        vec![FrontierExport {
            fingerprint: state.fingerprint(),
            trace: steps.clone(),
            sleep: steps,
        }]
    }

    fn round_trip(frame: Frame) {
        let json = frame.to_json();
        validate_json(&json).expect("frame validates");
        // Decode → re-encode must be the identity on the wire form (frames
        // hold types without PartialEq, so equality is checked on the JSON).
        assert_eq!(
            Frame::from_json(&json).expect("frame parses").to_json(),
            json
        );
        // And through the length-prefixed pipe framing.
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("write");
        let mut r = io::BufReader::new(buf.as_slice());
        let read = read_frame(&mut r).expect("read").expect("one frame");
        assert_eq!(read.to_json(), json);
        assert!(read_frame(&mut r).expect("eof").is_none());
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let spec = JobSpec {
            scenario: "chain:5:2".to_string(),
            strategy: StrategyKind::NoDelay,
            reduction: ReductionKind::Por,
            inject_faults: true,
            stop_at_first_violation: false,
            max_transitions: 12345,
            max_depth: 400,
            time_budget_ms: 60_000,
            explored: ExploredMode::Tiered,
            mem_limit: 1 << 20,
        };
        let stats = SearchStats {
            transitions: 11,
            unique_states: 7,
            terminal_states: 2,
            symbolic_executions: 1,
            pruned_by_strategy: 3,
            pruned_by_por: 4,
            dedup_hits: 5,
            work_steals: 6,
            peak_explored_bytes: 4096,
            spilled_shards: 2,
            filter_hits: 13,
            disk_probes: 8,
            faults: FaultStats {
                drops: 1,
                crashes: 2,
                ..FaultStats::default()
            },
            max_depth: 9,
            truncated: true,
            duration: Duration::from_millis(250),
        };
        let violation = WireViolation {
            property: "NoBlackHoles".to_string(),
            message: "packet \"lost\"\nat sw1".to_string(),
            steps: sample_exports().remove(0).trace,
        };
        for frame in [
            Frame::Job {
                job: 1,
                shard: ShardSpec { index: 1, count: 4 },
                spec: spec.clone(),
            },
            Frame::States {
                job: 1,
                states: sample_exports(),
            },
            Frame::Cancel { job: 1 },
            Frame::Finish { job: 1 },
            Frame::Shutdown,
            Frame::Hello { pid: 4242 },
            Frame::Forward {
                job: 1,
                states: sample_exports(),
            },
            Frame::Progress {
                job: 1,
                transitions: 100,
                unique_states: 60,
                depth: 12,
            },
            Frame::Violation {
                job: 1,
                violation: violation.clone(),
            },
            Frame::Idle {
                job: 1,
                received: 17,
            },
            Frame::JobDone {
                job: 1,
                stats,
                violations: vec![violation],
            },
            Frame::Error {
                job: 1,
                message: "unknown scenario 'nope'".to_string(),
            },
        ] {
            round_trip(frame);
        }
    }

    #[test]
    fn rejects_foreign_schemas_and_corrupt_framing() {
        assert!(Frame::from_json("{\"schema\":\"nice-trace-v1\",\"frame\":\"job\"}").is_err());
        assert!(Frame::from_json("{\"frame\":\"cancel\",\"job\":1}").is_err());
        let mut r = io::BufReader::new(&b"9 {\"a\":1}\n"[..]);
        assert!(read_frame(&mut r).is_err(), "length mismatch must fail");
        let mut r = io::BufReader::new(&b"nolength\n"[..]);
        assert!(read_frame(&mut r).is_err());
        let mut r = io::BufReader::new(&b"7 {\"a\":1}x"[..]);
        assert!(
            read_frame(&mut r).is_err(),
            "the body must end in a newline"
        );
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let nested = "[".repeat(200_000) + &"]".repeat(200_000);
        assert!(Frame::from_json(&nested).is_err());
        let wire = format!("{} {nested}\n", nested.len());
        let mut r = io::BufReader::new(wire.as_bytes());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn out_of_range_shard_numbers_are_rejected_not_truncated() {
        let job = |count: u64| {
            Frame::Job {
                job: 1,
                shard: ShardSpec { index: 0, count: 1 },
                spec: JobSpec::new("ping:1"),
            }
            .to_json()
            .replace("\"count\":1", &format!("\"count\":{count}"))
        };
        assert!(Frame::from_json(&job(1)).is_ok());
        // 2^32 + 1 used to decode as shard 0/1 through an `as u32` cast.
        let err = Frame::from_json(&job((1 << 32) + 1)).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// An endless byte source that counts what it hands out.
    struct Endless {
        prefix: Vec<u8>,
        fill: u8,
        served: usize,
    }

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            for b in buf.iter_mut() {
                *b = self.prefix.get(self.served).copied().unwrap_or(self.fill);
                self.served += 1;
            }
            Ok(buf.len())
        }
    }

    #[test]
    fn read_frame_bounds_what_it_reads_from_a_peer_that_never_ends_a_frame() {
        let oversized = format!("{} ", MAX_FRAME_BYTES + 1).into_bytes();
        for (prefix, fill) in [(Vec::new(), b'9'), (oversized, b'x')] {
            let mut r = io::BufReader::with_capacity(
                1,
                Endless {
                    prefix,
                    fill,
                    served: 0,
                },
            );
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(r.get_ref().served <= MAX_FRAME_BYTES + 21);
        }
    }

    #[test]
    fn u64_fingerprints_survive_the_wire() {
        let frame = Frame::States {
            job: 1,
            states: vec![FrontierExport {
                fingerprint: u64::MAX,
                trace: Vec::new(),
                sleep: Vec::new(),
            }],
        };
        round_trip(frame);
    }
}
