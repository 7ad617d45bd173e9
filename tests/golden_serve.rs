//! Golden tests for the `adgen-serve` wire protocol.
//!
//! The protocol doc promises canonical encodings: one byte string per
//! distinct request/response value, stable across releases (the
//! on-disk result cache and any deployed client both depend on it).
//! This test renders the encoding of every request and response kind
//! — plus the two handshake messages — as a labelled hex dump and
//! byte-compares it against `tests/golden/serve_wire.txt`. Each entry
//! is also decoded back and re-encoded, so the goldens double as
//! round-trip witnesses.
//!
//! A byte difference here is a wire-format change: if intentional,
//! bump [`PROTOCOL_VERSION`] and regenerate with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_serve
//! ```

mod common;

use common::assert_matches_golden;

use adgen::serve::protocol::{
    encode_request_frame, hello_reply, write_hello, CandidateRow, HANDSHAKE_REJECT_VERSION,
};
use adgen::serve::{
    Generator, MapOutcome, Request, Response, ServeError, StatsSnapshot, SynthReport,
    PROTOCOL_VERSION,
};
use adgen::synth::Encoding;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One fixed value per request tag — every `match` arm of the
/// encoder is covered, and adding a request kind without extending
/// this list fails the exhaustiveness assertions below.
fn request_fixtures() -> Vec<(&'static str, Request)> {
    vec![
        ("req.ping", Request::Ping),
        (
            "req.map_sequence",
            Request::MapSequence {
                sequence: vec![0, 0, 1, 1, 2, 2, 3, 3],
            },
        ),
        (
            "req.synthesize",
            Request::Synthesize {
                sequence: vec![0, 2, 1, 3],
                encoding: Encoding::Gray,
                num_lines: 4,
                effort_steps: 50_000_000,
                generator: Generator::Fsm,
            },
        ),
        (
            "req.synthesize_affine",
            Request::Synthesize {
                sequence: vec![0, 2, 1, 3],
                encoding: Encoding::Binary,
                num_lines: 4,
                effort_steps: 0,
                generator: Generator::Affine,
            },
        ),
        (
            "req.explore",
            Request::Explore {
                sequence: vec![0, 1, 2, 3, 4, 5, 6, 7],
                width: 4,
                height: 2,
                fsm_state_limit: 16,
            },
        ),
        ("req.stats", Request::Stats),
        ("req.shutdown", Request::Shutdown),
    ]
}

/// One fixed value per response tag (and per error variant).
fn response_fixtures() -> Vec<(&'static str, Response)> {
    vec![
        ("resp.pong", Response::Pong),
        (
            "resp.mapped",
            Response::Mapped(MapOutcome::Mapped {
                registers: vec![vec![0, 1], vec![2, 3]],
                div_count: 2,
                pass_count: 2,
                num_lines: 4,
            }),
        ),
        (
            "resp.violation",
            Response::Mapped(MapOutcome::Violation {
                reason: "division counts differ".to_string(),
            }),
        ),
        (
            "resp.synthesized",
            Response::Synthesized(SynthReport {
                area: 42.5,
                delay_ps: 812.25,
                flip_flops: 3,
                truncated: false,
            }),
        ),
        (
            "resp.explored",
            Response::Explored {
                pareto: vec![
                    CandidateRow {
                        architecture: "SRAG".to_string(),
                        delay_ps: 350.0,
                        area: 120.0,
                        flip_flops: 8,
                    },
                    CandidateRow {
                        architecture: "CntAG".to_string(),
                        delay_ps: 640.0,
                        area: 75.5,
                        flip_flops: 3,
                    },
                ],
                rejected: 1,
            },
        ),
        (
            "resp.stats",
            Response::Stats(StatsSnapshot {
                req_map: 1,
                req_synthesize: 2,
                req_explore: 3,
                req_control: 4,
                cache_hit_mem: 5,
                cache_hit_disk: 6,
                cache_miss: 7,
                deadline_expired: 8,
                queue_high_water: 9,
                batches: 10,
                shed: 11,
                coalesce_leaders: 12,
                coalesce_waiters: 13,
                disk_evictions: 14,
                reactor_wakeups: 15,
                cache_corrupt: 16,
                disk_write_errors: 17,
                conn_malformed: 18,
                conn_timed_out: 19,
            }),
        ),
        ("resp.shutting_down", Response::ShuttingDown),
        (
            "resp.err.deadline",
            Response::Error(ServeError::Deadline { waited_ms: 250 }),
        ),
        (
            "resp.err.queue_full",
            Response::Error(ServeError::QueueFull { capacity: 256 }),
        ),
        (
            "resp.err.version_mismatch",
            Response::Error(ServeError::VersionMismatch {
                client: 2,
                server: 1,
            }),
        ),
        (
            "resp.err.protocol",
            Response::Error(ServeError::Protocol("unknown request tag 99".to_string())),
        ),
        (
            "resp.err.bad_request",
            Response::Error(ServeError::BadRequest("sequence is empty".to_string())),
        ),
        (
            "resp.err.internal",
            Response::Error(ServeError::Internal("server is shutting down".to_string())),
        ),
        (
            "resp.err.worker_panicked",
            Response::Error(ServeError::WorkerPanicked("dispatcher".to_string())),
        ),
        (
            "resp.err.malformed_frame",
            Response::Error(ServeError::MalformedFrame(
                "frame length 99999999 exceeds cap 16777216".to_string(),
            )),
        ),
        (
            "resp.err.io_timeout",
            Response::Error(ServeError::IoTimeout { idle_ms: 5000 }),
        ),
    ]
}

/// The labelled hex dump the golden file holds.
fn wire_dump() -> String {
    let mut out = String::new();
    out.push_str(&format!("protocol_version: {PROTOCOL_VERSION}\n"));

    let mut hello = Vec::new();
    write_hello(&mut hello, PROTOCOL_VERSION).expect("vec write");
    out.push_str(&format!("handshake.hello: {}\n", hex(&hello)));
    let reply = hello_reply(HANDSHAKE_REJECT_VERSION, PROTOCOL_VERSION);
    out.push_str(&format!("handshake.reject: {}\n", hex(&reply)));

    for (name, req) in request_fixtures() {
        out.push_str(&format!("{name}: {}\n", hex(&req.encode())));
    }
    // One framed request, deadline in the envelope: proves the
    // envelope sits outside the canonical bytes.
    let framed = encode_request_frame(&Request::Ping, 1500);
    out.push_str(&format!("req.ping.framed_1500ms: {}\n", hex(&framed)));

    for (name, resp) in response_fixtures() {
        out.push_str(&format!("{name}: {}\n", hex(&resp.encode())));
    }
    out
}

#[test]
fn wire_encodings_match_golden() {
    assert_matches_golden("serve_wire.txt", &wire_dump(), "wire encoding (a change breaks deployed clients and the on-disk cache, so also bump PROTOCOL_VERSION)");
}

#[test]
fn every_request_kind_round_trips_through_its_golden_bytes() {
    for (name, req) in request_fixtures() {
        let bytes = req.encode();
        let decoded = Request::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, req, "{name}");
        assert_eq!(decoded.encode(), bytes, "{name}: re-encode is canonical");
    }
}

#[test]
fn every_response_kind_round_trips_through_its_golden_bytes() {
    for (name, resp) in response_fixtures() {
        let bytes = resp.encode();
        let decoded = Response::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, resp, "{name}");
        assert_eq!(decoded.encode(), bytes, "{name}: re-encode is canonical");
    }
}

#[test]
fn fixtures_cover_every_tag() {
    // Guards the golden set against silently falling behind the
    // protocol: first payload byte is the tag, and the fixture lists
    // must cover a contiguous tag range starting at 0.
    let mut req_tags: Vec<u8> = request_fixtures()
        .iter()
        .map(|(_, r)| r.encode()[0])
        .collect();
    req_tags.sort_unstable();
    req_tags.dedup();
    assert_eq!(req_tags, (0..=5).collect::<Vec<u8>>(), "request tags 0..=5");

    let mut resp_tags: Vec<u8> = response_fixtures()
        .iter()
        .map(|(_, r)| r.encode()[0])
        .collect();
    resp_tags.sort_unstable();
    resp_tags.dedup();
    assert_eq!(
        resp_tags,
        (0..=6).collect::<Vec<u8>>(),
        "response tags 0..=6"
    );

    // Error payloads carry a sub-tag in their second byte; the
    // fixture list must cover every variant, contiguously from 0.
    let mut err_tags: Vec<u8> = response_fixtures()
        .iter()
        .filter(|(_, r)| matches!(r, Response::Error(_)))
        .map(|(_, r)| r.encode()[1])
        .collect();
    err_tags.sort_unstable();
    err_tags.dedup();
    assert_eq!(err_tags, (0..=8).collect::<Vec<u8>>(), "error tags 0..=8");
}
