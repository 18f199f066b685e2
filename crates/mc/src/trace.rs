//! Typed, replayable violation traces and the stable `nice-trace-v1` JSON
//! schema.
//!
//! The paper's value proposition is the *witness*: a concrete transition
//! sequence reproducing a bug. A [`Trace`] carries that sequence as typed
//! [`Transition`]s — not rendered strings — together with the scenario name
//! and the engine configuration that produced it, so a trace saved to disk
//! is self-contained: `ModelChecker::replay` re-executes it step by step,
//! `minimize`/`bisect` shrink and localise it, and `nice timeline` renders
//! it, all without re-running the search that found it.
//!
//! Serialization is the hand-rolled, dependency-free `nice-trace-v1` JSON
//! schema (documented in `bench/README.md`): [`Trace::to_json`] emits one
//! canonical compact line (byte-deterministic for a given trace, so CI can
//! diff archived artifacts), [`Trace::from_json`] parses it back.

use crate::json::{self, Json, ObjRef};
use crate::jsonv::escape_json;
use crate::scenario::{CheckerConfig, ReductionKind, StrategyKind};
use crate::transition::Transition;
use nice_openflow::{
    ChannelFault, EthType, HostId, IpProto, Location, MacAddr, NwAddr, OfMutation, Packet,
    PacketId, PortId, PortStatsEntry, SwitchId, TcpFlags,
};
use std::fmt;

/// The current trace schema identifier.
pub const TRACE_SCHEMA: &str = "nice-trace-v1";

// ---------------------------------------------------------------------------
// Engine metadata
// ---------------------------------------------------------------------------

/// The engine configuration a trace was produced (or should be replayed)
/// under — everything that affects which transitions are enabled and how a
/// step executes, but not search-only knobs like budgets or state storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEngine {
    /// The search strategy (affects lock-step control-plane draining and
    /// which transitions the engine would have offered).
    pub strategy: StrategyKind,
    /// The partial-order reduction the search ran with. Informational:
    /// replay follows the recorded sequence and never prunes.
    pub reduction: ReductionKind,
    /// Worker threads of the producing search. `1` means the trace came
    /// from the fully deterministic sequential engine; larger values mean
    /// the witness choice was scheduling-dependent (replay itself is always
    /// deterministic either way).
    pub workers: usize,
    /// Whether fault transitions were schedulable.
    pub faults: bool,
    /// Whether `process_pkt` serviced all busy ports at once.
    pub coarse_packet_processing: bool,
}

impl TraceEngine {
    /// Captures the trace-relevant slice of a checker configuration.
    pub fn from_config(config: &CheckerConfig) -> Self {
        TraceEngine {
            strategy: config.strategy,
            reduction: config.reduction,
            workers: config.workers.max(1),
            faults: config.inject_faults,
            coarse_packet_processing: config.coarse_packet_processing,
        }
    }

    /// True if the producing engine was the deterministic sequential one.
    pub fn deterministic(&self) -> bool {
        self.workers == 1
    }

    /// A stable label for which engine produced the trace — what
    /// `nice run --json` records as `"engine"`.
    pub fn label(&self) -> &'static str {
        if self.deterministic() {
            "sequential"
        } else {
            "parallel"
        }
    }
}

impl Default for TraceEngine {
    fn default() -> Self {
        TraceEngine::from_config(&CheckerConfig::default())
    }
}

// ---------------------------------------------------------------------------
// Steps
// ---------------------------------------------------------------------------

/// One step of a trace.
///
/// Every step carries a typed, replayable [`Transition`]. The enum shape is
/// kept (rather than a bare newtype) so the `nice-trace-v1` step objects
/// retain their `"kind"` discriminant and future step categories can be
/// added without a schema bump.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceStep {
    /// A typed, replayable system transition.
    Transition(Transition),
}

impl TraceStep {
    /// The typed transition of this step.
    pub fn transition(&self) -> &Transition {
        match self {
            TraceStep::Transition(t) => t,
        }
    }

    /// The human-readable label of the step — exactly the `Display`
    /// rendering of the transition, so migrating to typed traces changed no
    /// printed output.
    pub fn label(&self) -> String {
        self.transition().to_string()
    }
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.transition().fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// An ordered, replayable witness: the transitions from the initial state,
/// plus the metadata needed to re-execute them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Name of the scenario the trace belongs to (what
    /// `nice replay`/`minimize`/`timeline` resolve through the registry).
    pub scenario: String,
    /// The engine configuration that produced the trace.
    pub engine: TraceEngine,
    /// The steps, in execution order.
    pub steps: Vec<TraceStep>,
    /// The property this trace witnesses a violation of, if any.
    pub property: Option<String>,
    /// The violation message, if any.
    pub message: Option<String>,
}

impl Trace {
    /// Creates a trace from typed transitions (the checker's constructor).
    pub fn from_transitions(
        scenario: &str,
        engine: TraceEngine,
        transitions: impl IntoIterator<Item = Transition>,
    ) -> Self {
        Trace {
            scenario: scenario.to_string(),
            engine,
            steps: transitions.into_iter().map(TraceStep::Transition).collect(),
            property: None,
            message: None,
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the trace has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Iterates over the steps.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceStep> {
        self.steps.iter()
    }

    /// The human-readable labels, one per step — exactly what the
    /// stringified trace representation used to carry.
    pub fn labels(&self) -> Vec<String> {
        self.steps.iter().map(TraceStep::label).collect()
    }

    /// The typed transitions, one per step.
    pub fn transitions(&self) -> Vec<&Transition> {
        self.steps.iter().map(TraceStep::transition).collect()
    }

    /// Serializes the trace as one canonical `nice-trace-v1` JSON line.
    /// Byte-deterministic: the same trace always yields the same bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.steps.len() * 64);
        out.push_str("{\"schema\":\"");
        out.push_str(TRACE_SCHEMA);
        out.push_str("\",\"scenario\":\"");
        out.push_str(&escape_json(&self.scenario));
        out.push_str("\",\"property\":");
        push_opt_str(&mut out, self.property.as_deref());
        out.push_str(",\"message\":");
        push_opt_str(&mut out, self.message.as_deref());
        out.push_str(",\"engine\":");
        out.push_str(&engine_to_json(&self.engine));
        out.push_str(",\"steps\":[");
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&step_to_json(step));
        }
        out.push_str("]}");
        out
    }

    /// Parses a `nice-trace-v1` JSON document.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let value = json::parse(input)?;
        let obj = value.as_obj().ok_or("trace document must be an object")?;
        let schema = obj.str("schema")?;
        if schema != TRACE_SCHEMA {
            return Err(format!(
                "unsupported trace schema '{schema}' (expected {TRACE_SCHEMA})"
            ));
        }
        Ok(Trace {
            scenario: obj.str("scenario")?.to_string(),
            engine: engine_from_json(obj.value("engine")?).map_err(|e| format!("engine: {e}"))?,
            steps: steps_from_value(obj.value("steps")?)?,
            property: opt_str(obj.get("property"), "property")?,
            message: opt_str(obj.get("message"), "message")?,
        })
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "    {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn push_opt_str(out: &mut String, value: Option<&str>) {
    match value {
        Some(s) => {
            out.push('"');
            out.push_str(&escape_json(s));
            out.push('"');
        }
        None => out.push_str("null"),
    }
}

fn opt_str(value: Option<&Json>, key: &str) -> Result<Option<String>, String> {
    match value {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.to_string())),
        Some(_) => Err(format!("\"{key}\" must be a string or null")),
    }
}

fn engine_to_json(engine: &TraceEngine) -> String {
    format!(
        "{{\"strategy\":\"{}\",\"reduction\":\"{}\",\"workers\":{},\"faults\":{},\
         \"coarse_packet_processing\":{},\"deterministic\":{}}}",
        engine.strategy.name().to_ascii_lowercase(),
        engine.reduction.name(),
        engine.workers,
        engine.faults,
        engine.coarse_packet_processing,
        engine.deterministic(),
    )
}

fn engine_from_json(value: &Json) -> Result<TraceEngine, String> {
    let obj = value.as_obj().ok_or("must be an object")?;
    let strategy_name = obj.str("strategy")?;
    let reduction_name = obj.str("reduction")?;
    Ok(TraceEngine {
        strategy: StrategyKind::parse(strategy_name)
            .ok_or_else(|| format!("unknown strategy '{strategy_name}'"))?,
        reduction: ReductionKind::parse(reduction_name)
            .ok_or_else(|| format!("unknown reduction '{reduction_name}'"))?,
        workers: obj.int::<usize>("workers")?.max(1),
        faults: obj.bool("faults")?,
        coarse_packet_processing: obj.bool("coarse_packet_processing")?,
    })
}

fn packet_to_json(p: &Packet) -> String {
    format!(
        "{{\"id\":{},\"src_mac\":{},\"dst_mac\":{},\"eth_type\":{},\"src_ip\":{},\
         \"dst_ip\":{},\"nw_proto\":{},\"src_port\":{},\"dst_port\":{},\"tcp_flags\":{},\
         \"arp_op\":{},\"payload\":{}}}",
        p.id.0,
        p.src_mac.0,
        p.dst_mac.0,
        p.eth_type.value(),
        p.src_ip.0,
        p.dst_ip.0,
        p.nw_proto.value(),
        p.src_port,
        p.dst_port,
        p.tcp_flags.0,
        p.arp_op,
        p.payload,
    )
}

fn packet_from_json(value: &Json) -> Result<Packet, String> {
    let obj = value.as_obj().ok_or("must be an object")?;
    Ok(Packet {
        id: PacketId(obj.int("id")?),
        src_mac: MacAddr(obj.int("src_mac")?),
        dst_mac: MacAddr(obj.int("dst_mac")?),
        eth_type: EthType::from_value(obj.int("eth_type")?),
        src_ip: NwAddr(obj.int("src_ip")?),
        dst_ip: NwAddr(obj.int("dst_ip")?),
        nw_proto: IpProto::from_value(obj.int("nw_proto")?),
        src_port: obj.int("src_port")?,
        dst_port: obj.int("dst_port")?,
        tcp_flags: TcpFlags(obj.int("tcp_flags")?),
        arp_op: obj.int("arp_op")?,
        payload: obj.int("payload")?,
    })
}

fn stats_to_json(stats: &[PortStatsEntry]) -> String {
    let entries: Vec<String> = stats
        .iter()
        .map(|e| {
            format!(
                "{{\"port\":{},\"rx_packets\":{},\"tx_packets\":{},\"rx_bytes\":{},\
                 \"tx_bytes\":{}}}",
                e.port.0, e.rx_packets, e.tx_packets, e.rx_bytes, e.tx_bytes
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

fn stats_from_json(value: &Json) -> Result<Vec<PortStatsEntry>, String> {
    let arr = value.as_arr().ok_or("\"stats\" must be an array")?;
    arr.iter()
        .map(|v| {
            let obj = v.as_obj().ok_or("stats entry must be an object")?;
            Ok(PortStatsEntry {
                port: PortId(obj.int("port")?),
                rx_packets: obj.int("rx_packets")?,
                tx_packets: obj.int("tx_packets")?,
                rx_bytes: obj.int("rx_bytes")?,
                tx_bytes: obj.int("tx_bytes")?,
            })
        })
        .collect()
}

fn channel_fault_name(fault: ChannelFault) -> &'static str {
    match fault {
        ChannelFault::DropHead => "drop_head",
        ChannelFault::DuplicateHead => "duplicate_head",
        ChannelFault::ReorderHead => "reorder_head",
        ChannelFault::FailLink => "fail_link",
    }
}

fn channel_fault_parse(name: &str) -> Option<ChannelFault> {
    match name {
        "drop_head" => Some(ChannelFault::DropHead),
        "duplicate_head" => Some(ChannelFault::DuplicateHead),
        "reorder_head" => Some(ChannelFault::ReorderHead),
        "fail_link" => Some(ChannelFault::FailLink),
        _ => None,
    }
}

fn mutation_parse(name: &str) -> Option<OfMutation> {
    match name {
        "drop_actions" => Some(OfMutation::DropActions),
        "zero_priority" => Some(OfMutation::ZeroPriority),
        _ => None,
    }
}

fn step_to_json(step: &TraceStep) -> String {
    let TraceStep::Transition(t) = step;
    let kind = t.kind();
    match t {
        Transition::HostSend { host, packet } => format!(
            "{{\"kind\":\"{kind}\",\"host\":{},\"packet\":{}}}",
            host.0,
            packet_to_json(packet)
        ),
        Transition::HostReceive { host } | Transition::DiscoverPackets { host } => {
            format!("{{\"kind\":\"{kind}\",\"host\":{}}}", host.0)
        }
        Transition::HostMove { host, to } => format!(
            "{{\"kind\":\"{kind}\",\"host\":{},\"switch\":{},\"port\":{}}}",
            host.0, to.switch.0, to.port.0
        ),
        Transition::ProcessPacket { switch }
        | Transition::ProcessOf { switch }
        | Transition::ControllerHandle { switch }
        | Transition::DiscoverStats { switch }
        | Transition::SwitchCrash { switch }
        | Transition::SwitchReconnect { switch } => {
            format!("{{\"kind\":\"{kind}\",\"switch\":{}}}", switch.0)
        }
        Transition::ProcessPacketOn { switch, port } => format!(
            "{{\"kind\":\"{kind}\",\"switch\":{},\"port\":{}}}",
            switch.0, port.0
        ),
        Transition::InjectStats { switch, stats } => format!(
            "{{\"kind\":\"{kind}\",\"switch\":{},\"stats\":{}}}",
            switch.0,
            stats_to_json(stats)
        ),
        Transition::ExpireRule { switch, rule_index } => format!(
            "{{\"kind\":\"{kind}\",\"switch\":{},\"rule_index\":{rule_index}}}",
            switch.0
        ),
        Transition::ChannelFault {
            switch,
            port,
            fault,
        } => format!(
            "{{\"kind\":\"{kind}\",\"switch\":{},\"port\":{},\"fault\":\"{}\"}}",
            switch.0,
            port.0,
            channel_fault_name(*fault)
        ),
        Transition::ControllerFailover => format!("{{\"kind\":\"{kind}\"}}"),
        Transition::MutateOfHead { switch, mutation } => format!(
            "{{\"kind\":\"{kind}\",\"switch\":{},\"mutation\":\"{}\"}}",
            switch.0,
            mutation.name()
        ),
    }
}

fn step_from_json(value: &Json) -> Result<TraceStep, String> {
    let obj = value.as_obj().ok_or("step must be an object")?;
    let kind = obj.str("kind")?;
    transition_from_json(kind, obj)
        .map(TraceStep::Transition)
        .map_err(|e| format!("{kind}: {e}"))
}

fn transition_from_json(kind: &str, obj: ObjRef<'_>) -> Result<Transition, String> {
    let switch = || obj.int("switch").map(SwitchId);
    let host = || obj.int("host").map(HostId);
    let port = || obj.int("port").map(PortId);
    Ok(match kind {
        "host_send" => Transition::HostSend {
            host: host()?,
            packet: packet_from_json(obj.value("packet")?).map_err(|e| format!("packet: {e}"))?,
        },
        "host_receive" => Transition::HostReceive { host: host()? },
        "host_move" => Transition::HostMove {
            host: host()?,
            to: Location {
                switch: switch()?,
                port: port()?,
            },
        },
        "process_pkt" => Transition::ProcessPacket { switch: switch()? },
        "process_pkt_on" => Transition::ProcessPacketOn {
            switch: switch()?,
            port: port()?,
        },
        "process_of" => Transition::ProcessOf { switch: switch()? },
        "ctrl_handle" => Transition::ControllerHandle { switch: switch()? },
        "discover_packets" => Transition::DiscoverPackets { host: host()? },
        "discover_stats" => Transition::DiscoverStats { switch: switch()? },
        "process_stats" => Transition::InjectStats {
            switch: switch()?,
            stats: stats_from_json(obj.value("stats")?)?,
        },
        "expire_rule" => Transition::ExpireRule {
            switch: switch()?,
            rule_index: obj.int("rule_index")?,
        },
        "channel_fault" => {
            let name = obj.str("fault")?;
            Transition::ChannelFault {
                switch: switch()?,
                port: port()?,
                fault: channel_fault_parse(name)
                    .ok_or_else(|| format!("unknown fault '{name}'"))?,
            }
        }
        "switch_crash" => Transition::SwitchCrash { switch: switch()? },
        "switch_reconnect" => Transition::SwitchReconnect { switch: switch()? },
        "ctrl_failover" => Transition::ControllerFailover,
        "mutate_of" => {
            let name = obj.str("mutation")?;
            Transition::MutateOfHead {
                switch: switch()?,
                mutation: mutation_parse(name)
                    .ok_or_else(|| format!("unknown mutation '{name}'"))?,
            }
        }
        _ => return Err("unknown step kind".to_string()),
    })
}

/// Serializes a step sequence as a canonical JSON array of `nice-trace-v1`
/// step objects — the fragment the `nice-dist-v1` wire frames embed when a
/// worker forwards frontier states to the shard owner.
pub fn steps_to_json(steps: &[TraceStep]) -> String {
    let mut out = String::with_capacity(2 + steps.len() * 64);
    out.push('[');
    for (i, step) in steps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&step_to_json(step));
    }
    out.push(']');
    out
}

/// Parses an already-parsed JSON array of `nice-trace-v1` step objects
/// (the inverse of [`steps_to_json`]).
pub fn steps_from_value(value: &Json) -> Result<Vec<TraceStep>, String> {
    let arr = value.as_arr().ok_or("steps must be an array")?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| step_from_json(v).map_err(|e| format!("step {i}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let packet = Packet::l2_ping(7, MacAddr::for_host(1), MacAddr::for_host(2), 3);
        Trace {
            scenario: "hub-ping".to_string(),
            engine: TraceEngine::default(),
            steps: vec![
                TraceStep::Transition(Transition::HostSend {
                    host: HostId(1),
                    packet,
                }),
                TraceStep::Transition(Transition::ProcessPacket {
                    switch: SwitchId(1),
                }),
                TraceStep::Transition(Transition::ChannelFault {
                    switch: SwitchId(1),
                    port: PortId(2),
                    fault: ChannelFault::DropHead,
                }),
                TraceStep::Transition(Transition::ControllerFailover),
                TraceStep::Transition(Transition::MutateOfHead {
                    switch: SwitchId(2),
                    mutation: OfMutation::ZeroPriority,
                }),
                TraceStep::Transition(Transition::InjectStats {
                    switch: SwitchId(1),
                    stats: vec![PortStatsEntry {
                        port: PortId(1),
                        rx_packets: 3,
                        tx_packets: 4,
                        rx_bytes: 1500,
                        tx_bytes: 9000,
                    }],
                }),
            ],
            property: Some("NoAbandonedPackets".to_string()),
            message: Some("packet 7 was \"lost\"".to_string()),
        }
    }

    #[test]
    fn json_round_trip_preserves_every_step() {
        let trace = sample_trace();
        let json = trace.to_json();
        let parsed = Trace::from_json(&json).expect("round trip");
        assert_eq!(trace, parsed);
        // Canonical serialization: re-serializing yields identical bytes.
        assert_eq!(json, parsed.to_json());
    }

    #[test]
    fn every_transition_kind_round_trips() {
        let all = vec![
            Transition::HostSend {
                host: HostId(3),
                packet: Packet::l2_ping(9, MacAddr::for_host(3), MacAddr::for_host(4), 0),
            },
            Transition::HostReceive { host: HostId(2) },
            Transition::HostMove {
                host: HostId(1),
                to: Location {
                    switch: SwitchId(2),
                    port: PortId(3),
                },
            },
            Transition::ProcessPacket {
                switch: SwitchId(1),
            },
            Transition::ProcessPacketOn {
                switch: SwitchId(1),
                port: PortId(2),
            },
            Transition::ProcessOf {
                switch: SwitchId(4),
            },
            Transition::ControllerHandle {
                switch: SwitchId(5),
            },
            Transition::DiscoverPackets { host: HostId(1) },
            Transition::DiscoverStats {
                switch: SwitchId(1),
            },
            Transition::InjectStats {
                switch: SwitchId(1),
                stats: vec![PortStatsEntry::zero(PortId(1))],
            },
            Transition::ExpireRule {
                switch: SwitchId(2),
                rule_index: 5,
            },
            Transition::ChannelFault {
                switch: SwitchId(1),
                port: PortId(1),
                fault: ChannelFault::FailLink,
            },
            Transition::SwitchCrash {
                switch: SwitchId(3),
            },
            Transition::SwitchReconnect {
                switch: SwitchId(3),
            },
            Transition::ControllerFailover,
            Transition::MutateOfHead {
                switch: SwitchId(1),
                mutation: OfMutation::DropActions,
            },
        ];
        let trace = Trace::from_transitions("kinds", TraceEngine::default(), all.clone());
        let parsed = Trace::from_json(&trace.to_json()).expect("round trip");
        let transitions = parsed.transitions();
        assert_eq!(transitions.len(), all.len());
        for (original, parsed) in all.iter().zip(transitions) {
            assert_eq!(original, parsed);
        }
    }

    #[test]
    fn labels_match_transition_display() {
        let trace = sample_trace();
        for (step, label) in trace.iter().zip(trace.labels()) {
            assert_eq!(step.to_string(), label);
        }
    }

    #[test]
    fn opaque_step_kind_is_gone_from_the_schema() {
        // The deprecated label-only steps were removed: a document carrying
        // the old "opaque" kind is rejected like any unknown kind.
        let legacy = "{\"schema\":\"nice-trace-v1\",\"scenario\":\"x\",\"property\":null,\
             \"message\":null,\"engine\":{\"strategy\":\"pkt-seq\",\"reduction\":\"none\",\
             \"workers\":1,\"faults\":false,\"coarse_packet_processing\":true},\
             \"steps\":[{\"kind\":\"opaque\",\"label\":\"step one\"}]}";
        let err = Trace::from_json(legacy).unwrap_err();
        assert!(err.contains("unknown step kind"), "{err}");
    }

    #[test]
    fn step_arrays_round_trip_standalone() {
        let trace = sample_trace();
        let json = steps_to_json(&trace.steps);
        let value = json::parse(&json).expect("parse");
        assert_eq!(steps_from_value(&value).expect("from value"), trace.steps);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(Trace::from_json("").is_err());
        assert!(Trace::from_json("{}").is_err());
        assert!(Trace::from_json("{\"schema\":\"nice-trace-v0\"}").is_err());
        assert!(Trace::from_json("[1,2,3]").is_err());
        let missing_engine = "{\"schema\":\"nice-trace-v1\",\"scenario\":\"x\",\"property\":null,\
             \"message\":null,\"steps\":[]}";
        assert!(Trace::from_json(missing_engine).is_err());
        let bad_step = "{\"schema\":\"nice-trace-v1\",\"scenario\":\"x\",\"property\":null,\
             \"message\":null,\"engine\":{\"strategy\":\"pkt-seq\",\"reduction\":\"none\",\
             \"workers\":1,\"faults\":false,\"coarse_packet_processing\":true},\
             \"steps\":[{\"kind\":\"warp\"}]}";
        let err = Trace::from_json(bad_step).unwrap_err();
        assert!(err.contains("unknown step kind"), "{err}");
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let nested = "[".repeat(200_000) + &"]".repeat(200_000);
        assert!(Trace::from_json(&nested).is_err());
    }

    #[test]
    fn out_of_range_packet_fields_are_rejected_not_truncated() {
        let json = sample_trace().to_json();
        assert!(json.contains("\"src_port\":0,"), "{json}");
        // 70000 used to decode as port 4464 through an `as u16` cast.
        let err =
            Trace::from_json(&json.replace("\"src_port\":0,", "\"src_port\":70000,")).unwrap_err();
        assert!(
            err.contains("src_port") && err.contains("out of range"),
            "{err}"
        );
    }

    #[test]
    fn engine_metadata_round_trips_for_every_strategy_and_reduction() {
        for strategy in StrategyKind::ALL {
            for reduction in ReductionKind::ALL {
                let engine = TraceEngine {
                    strategy,
                    reduction,
                    workers: 4,
                    faults: true,
                    coarse_packet_processing: false,
                };
                let trace = Trace::from_transitions("t", engine, []);
                let parsed = Trace::from_json(&trace.to_json()).expect("round trip");
                assert_eq!(parsed.engine, engine);
                assert_eq!(parsed.engine.label(), "parallel");
            }
        }
    }

    #[test]
    fn string_escapes_survive_the_round_trip() {
        let mut trace = sample_trace();
        trace.message = Some("quote \" backslash \\ newline \n tab \t".to_string());
        let parsed = Trace::from_json(&trace.to_json()).expect("round trip");
        assert_eq!(parsed.message, trace.message);
    }
}
