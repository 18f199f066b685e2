//! Arbitrary input never panics a JSON reader. The parser, the validator,
//! the trace and frame decoders and the frame reader must all return
//! (usually `Err`) on random bytes and on single-byte corruptions of real
//! `Trace::to_json` / `Frame::to_json` output, and the validator must
//! accept exactly what the parser accepts.

use nice_dist::{read_frame, Frame, JobSpec, WireViolation};
use nice_mc::jsonv::validate_json;
use nice_mc::{json, CheckerConfig, FrontierExport, ModelChecker, ShardSpec, Trace};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Bytes that make up JSON documents, so random strings over them reach
/// past the first byte of the grammar.
const JSON_BYTES: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn \\/bu\n\x01\xc3\xa9";

/// Feeds `input` to every reader. Panics propagate; disagreement between
/// the validator and the parser is a failed case.
fn read_everything(input: &str) -> Result<(), String> {
    prop_assert_eq!(
        validate_json(input).is_ok(),
        json::parse(input).is_ok(),
        "validator and parser disagree on {:?}",
        input
    );
    let _ = Trace::from_json(input);
    let _ = Frame::from_json(input);
    let _ = read_frame(&mut input.as_bytes());
    let framed = format!("{} {input}\n", input.len());
    let _ = read_frame(&mut framed.as_bytes());
    Ok(())
}

/// Real documents: a violation trace and the frames that carry its steps.
fn documents() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let scenario = nice_apps::workloads::resolve("bug-ii-delayed-direct-path")
            .expect("a registry scenario");
        let report = ModelChecker::new(scenario, CheckerConfig::default()).run();
        let trace = report
            .first_violation()
            .expect("BUG-II has a witness")
            .trace
            .clone();
        let steps: Vec<_> = trace.transitions().into_iter().cloned().collect();
        let export = FrontierExport {
            fingerprint: u64::MAX,
            trace: steps.clone(),
            sleep: steps[..1].to_vec(),
        };
        let frames = [
            Frame::Job {
                job: 3,
                shard: ShardSpec { index: 1, count: 2 },
                spec: JobSpec::new("chain:5:2"),
            },
            Frame::Forward {
                job: 3,
                states: vec![export],
            },
            Frame::Violation {
                job: 3,
                violation: WireViolation {
                    property: trace.property.clone().unwrap_or_default(),
                    message: "a \"quoted\"\nmessage".to_string(),
                    steps,
                },
            },
        ];
        std::iter::once(trace.to_json())
            .chain(frames.iter().map(Frame::to_json))
            .collect()
    })
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_reader(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        read_everything(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn json_shaped_noise_never_panics_a_reader(
        picks in prop::collection::vec(0..JSON_BYTES.len(), 0..256)
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSON_BYTES[i]).collect();
        read_everything(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn single_byte_mutations_of_real_documents_never_panic_a_reader(seed in any::<u64>()) {
        let mut rng = TestRng::for_case(seed);
        for doc in documents() {
            prop_assert!(json::parse(doc).is_ok(), "unmutated document parses");
            for _ in 0..32 {
                let mut bytes = doc.clone().into_bytes();
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] = if rng.next_u64() & 1 == 0 {
                    JSON_BYTES[rng.below(JSON_BYTES.len() as u64) as usize]
                } else {
                    rng.next_u64() as u8
                };
                read_everything(&String::from_utf8_lossy(&bytes))?;
            }
        }
    }
}
