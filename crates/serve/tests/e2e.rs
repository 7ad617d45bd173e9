//! End-to-end tests: a real server on a loopback socket, driven
//! through the public [`Client`] (and, for pipelining, a raw socket).
//!
//! Covers version-mismatch rejection at the handshake, jobs-invariant
//! response payloads, in-order answers to a deep pipeline on one
//! connection (including a hit pipelined behind a miss), cache hits
//! on repeats (including the effort-budget key separation observed
//! over the wire), deadline expiration with the result still cached,
//! single-flight coalescing of concurrent identical misses, a
//! contained panic in a computation, typed shedding under overload,
//! idle-connection reaping by the staleness tick,
//! quarantine-and-recompute on a corrupted disk entry, an observing
//! server's obs counters agreeing with its final statistics, and a
//! clean client-initiated shutdown with accurate final statistics.
//!
//! Tests that need a computation to stay in flight hold it with the
//! fault plan's `stall@serve.compute` directive, so they do not
//! depend on how fast the computation is.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use adgen_serve::protocol::{
    encode_request_frame, read_frame, read_hello_reply, write_frame, write_hello, HANDSHAKE_OK,
    MAX_FRAME_LEN,
};
use adgen_serve::{
    serve, Client, ClientError, FaultPlan, Generator, MapOutcome, Request, Response, ServeConfig,
    ServeError, StatsSnapshot, PROTOCOL_VERSION,
};
use adgen_synth::Encoding;

fn test_config() -> ServeConfig {
    ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    }
}

/// A server config with `jobs` workers and the fault plan `spec`.
fn faulty_config(jobs: usize, spec: &str) -> ServeConfig {
    ServeConfig {
        jobs,
        faults: Some(Arc::new(FaultPlan::parse(spec).expect("valid fault spec"))),
        ..ServeConfig::default()
    }
}

fn start(config: ServeConfig) -> (String, adgen_serve::ServerHandle) {
    let handle = serve(config).expect("server binds an ephemeral loopback port");
    (handle.local_addr().to_string(), handle)
}

fn shut_down(addr: &str, handle: adgen_serve::ServerHandle) -> StatsSnapshot {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    assert_eq!(
        client.call(&Request::Shutdown, 0).expect("shutdown call"),
        Response::ShuttingDown
    );
    drop(client);
    let (stats, rec) = handle.join().expect("no worker panicked");
    assert!(rec.is_none(), "no recording unless observing");
    stats
}

/// Polls the server's statistics until `done` holds for them.
fn wait_for_stats(addr: &str, done: impl Fn(&StatsSnapshot) -> bool) {
    let mut probe = Client::connect(addr).expect("connect probe");
    for _ in 0..10_000 {
        if done(&probe.stats().unwrap()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("the server never reached the awaited statistics");
}

/// A small mixed workload touching every compute kind.
fn mixed_requests() -> Vec<Request> {
    vec![
        Request::MapSequence {
            sequence: vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3],
        },
        // Uneven hold counts: a typed restriction violation.
        Request::MapSequence {
            sequence: vec![0, 1, 2, 2, 0, 1, 2],
        },
        Request::Synthesize {
            sequence: vec![0, 2, 1, 3],
            encoding: Encoding::Gray,
            num_lines: 4,
            effort_steps: 0,
            generator: Generator::Fsm,
        },
        Request::Explore {
            sequence: (0..16).collect(),
            width: 4,
            height: 4,
            fsm_state_limit: 0,
        },
    ]
}

#[test]
fn ping_stats_and_clean_shutdown() {
    let (addr, handle) = start(test_config());
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.call(&Request::Ping, 0).unwrap(), Response::Pong);
    let s = client.stats().unwrap();
    assert_eq!(s.req_map + s.req_synthesize + s.req_explore, 0);
    assert!(s.req_control >= 1, "the ping itself is counted");
    drop(client);
    let stats = shut_down(&addr, handle);
    assert!(stats.req_control >= 3, "ping + stats + shutdown");
}

#[test]
fn handshake_rejects_a_version_mismatch() {
    let (addr, handle) = start(test_config());
    match Client::connect_with_version(&addr, PROTOCOL_VERSION + 1) {
        Err(ClientError::Rejected { server_version }) => {
            assert_eq!(server_version, PROTOCOL_VERSION)
        }
        Err(other) => panic!("expected handshake rejection, got {other:?}"),
        Ok(_) => panic!("expected handshake rejection, got a connection"),
    }
    // Older speakers are rejected too: v2 predates the typed
    // MalformedFrame / IoTimeout errors and the four defense
    // counters, so a v3 server must turn it away rather than
    // answer with frames the peer cannot decode.
    match Client::connect_with_version(&addr, 2) {
        Err(ClientError::Rejected { server_version }) => {
            assert_eq!(server_version, PROTOCOL_VERSION)
        }
        Err(other) => panic!("expected v2 rejection, got {other:?}"),
        Ok(_) => panic!("expected v2 rejection, got a connection"),
    }
    // The mismatch did not wedge the server: a well-versioned
    // client still gets service.
    let mut ok = Client::connect(&addr).expect("correct version connects");
    assert_eq!(ok.call(&Request::Ping, 0).unwrap(), Response::Pong);
    drop(ok);
    shut_down(&addr, handle);
}

#[test]
fn compute_kinds_answer_with_their_typed_responses() {
    let (addr, handle) = start(test_config());
    let mut client = Client::connect(&addr).expect("connect");

    match client.call(&mixed_requests()[0], 0).unwrap() {
        Response::Mapped(MapOutcome::Mapped {
            registers,
            div_count,
            pass_count,
            num_lines,
        }) => {
            assert!(!registers.is_empty());
            assert_eq!((div_count, pass_count, num_lines), (2, 8, 4));
        }
        other => panic!("expected a mapping, got {other:?}"),
    }
    match client.call(&mixed_requests()[1], 0).unwrap() {
        Response::Mapped(MapOutcome::Violation { reason }) => {
            assert!(!reason.is_empty(), "violation carries its reason")
        }
        other => panic!("expected a violation, got {other:?}"),
    }
    match client.call(&mixed_requests()[2], 0).unwrap() {
        Response::Synthesized(r) => {
            assert!(r.area > 0.0 && r.delay_ps > 0.0 && r.flip_flops > 0);
            assert!(!r.truncated, "default budget never truncates here");
        }
        other => panic!("expected a synthesis report, got {other:?}"),
    }
    match client.call(&mixed_requests()[3], 0).unwrap() {
        Response::Explored { pareto, .. } => assert!(!pareto.is_empty()),
        other => panic!("expected exploration results, got {other:?}"),
    }
    // Degenerate input is a typed BadRequest, not a dropped
    // socket.
    match client
        .call(&Request::MapSequence { sequence: vec![] }, 0)
        .unwrap()
    {
        Response::Error(ServeError::BadRequest(_)) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    drop(client);
    shut_down(&addr, handle);
}

#[test]
fn response_payloads_are_invariant_under_worker_count() {
    let requests = mixed_requests();
    let mut runs: Vec<Vec<Vec<u8>>> = Vec::new();
    for jobs in [1usize, 4] {
        let (addr, handle) = start(ServeConfig {
            jobs,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(&addr).expect("connect");
        runs.push(
            requests
                .iter()
                .map(|r| client.call_raw(r, 0).expect("call"))
                .collect(),
        );
        drop(client);
        shut_down(&addr, handle);
    }
    for run in &runs[1..] {
        assert_eq!(
            &runs[0], run,
            "identical requests must produce byte-identical payloads at any --jobs"
        );
    }
}

#[test]
fn a_deep_pipeline_on_one_connection_is_answered_in_order() {
    // More frames than the per-connection slot limit (128), sent in a
    // single write so they all sit in the server's input buffer at
    // once. Regression: frames parked behind a full slot queue were
    // never parsed once the socket was drained, so only the first 128
    // answers ever arrived.
    const N: u32 = 300;
    let requests: Vec<Request> = (0..N)
        .map(|i| Request::MapSequence {
            sequence: vec![i, i, i + 1, i + 1],
        })
        .collect();
    let (addr, handle) = start(test_config());

    let mut sock = TcpStream::connect(&addr).expect("connect raw socket");
    sock.set_read_timeout(Some(Duration::from_secs(3)))
        .expect("read timeout");
    write_hello(&mut sock, PROTOCOL_VERSION).expect("hello");
    assert_eq!(
        read_hello_reply(&mut sock).expect("hello reply").0,
        HANDSHAKE_OK
    );
    let mut burst = Vec::new();
    for req in &requests {
        write_frame(&mut burst, &encode_request_frame(req, 0)).expect("vec write");
    }
    sock.write_all(&burst).expect("pipelined write");
    let answers: Vec<Vec<u8>> = (0..N)
        .map(|i| match read_frame(&mut sock) {
            Ok(Some(payload)) => payload,
            other => panic!("answer {i} of {N} never arrived: {other:?}"),
        })
        .collect();
    drop(sock);

    // Every answer is the exact payload a one-at-a-time client gets
    // for the same request, so order and bytes are both pinned.
    let mut client = Client::connect(&addr).expect("connect");
    for (i, (req, answer)) in requests.iter().zip(&answers).enumerate() {
        assert_eq!(
            &client.call_raw(req, 0).expect("call"),
            answer,
            "pipelined answer {i} is out of order or differs"
        );
    }
    drop(client);
    shut_down(&addr, handle);
}

#[test]
fn a_hit_pipelined_behind_a_miss_is_answered_after_it() {
    // The first computation warms the hit; the second, the pipelined
    // miss, is stalled. The hit is ready at once but must still leave
    // after the miss's answer.
    let hot = Request::MapSequence {
        sequence: vec![0, 0, 1, 1],
    };
    let cold = Request::MapSequence {
        sequence: vec![0, 0, 0, 1, 1, 1],
    };
    let (addr, handle) = start(faulty_config(1, "stall@serve.compute#2"));
    let mut client = Client::connect(&addr).expect("connect");
    let hot_payload = client.call_raw(&hot, 0).expect("warm the hit");

    let mut sock = TcpStream::connect(&addr).expect("connect raw socket");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write_hello(&mut sock, PROTOCOL_VERSION).expect("hello");
    assert_eq!(
        read_hello_reply(&mut sock).expect("hello reply").0,
        HANDSHAKE_OK
    );
    let mut burst = Vec::new();
    for req in [&cold, &hot] {
        write_frame(&mut burst, &encode_request_frame(req, 0)).expect("vec write");
    }
    sock.write_all(&burst).expect("pipelined write");
    let first = read_frame(&mut sock).expect("first answer").expect("frame");
    let second = read_frame(&mut sock)
        .expect("second answer")
        .expect("frame");
    drop(sock);

    assert_eq!(
        first,
        client.call_raw(&cold, 0).expect("cold repeat"),
        "the miss is answered first"
    );
    assert_eq!(second, hot_payload, "the hit is answered second");
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_miss, 2, "warm-up and the pipelined miss");
    assert_eq!(stats.cache_hit_mem, 2, "the pipelined hit and the repeat");
    drop(client);
    shut_down(&addr, handle);
}

#[test]
fn repeats_hit_the_cache_and_effort_budgets_never_alias() {
    let (addr, handle) = start(test_config());
    let mut client = Client::connect(&addr).expect("connect");
    let full = Request::Synthesize {
        sequence: vec![0, 1, 2, 3, 4, 5],
        encoding: Encoding::Binary,
        num_lines: 6,
        effort_steps: 0,
        generator: Generator::Fsm,
    };
    // The same sequence under a starvation budget: must be
    // computed (and cached) separately, never answered from the
    // full-effort entry.
    let truncated = Request::Synthesize {
        sequence: vec![0, 1, 2, 3, 4, 5],
        encoding: Encoding::Binary,
        num_lines: 6,
        effort_steps: 1,
        generator: Generator::Fsm,
    };

    let cold_full = client.call_raw(&full, 0).unwrap();
    let cold_truncated = client.call_raw(&truncated, 0).unwrap();
    assert_ne!(
        cold_full, cold_truncated,
        "a starved espresso run yields a different (truncated) report"
    );
    match Response::decode(&cold_truncated).unwrap() {
        Response::Synthesized(r) => assert!(r.truncated, "starvation budget truncates"),
        other => panic!("expected a synthesis report, got {other:?}"),
    }

    let stats_before = client.stats().unwrap();
    let warm_full = client.call_raw(&full, 0).unwrap();
    let warm_truncated = client.call_raw(&truncated, 0).unwrap();
    let stats_after = client.stats().unwrap();

    assert_eq!(warm_full, cold_full, "warm hit is byte-identical");
    assert_eq!(warm_truncated, cold_truncated);
    assert_eq!(
        stats_after.cache_hit_mem - stats_before.cache_hit_mem,
        2,
        "both repeats were memory hits"
    );
    assert_eq!(stats_after.cache_miss, 2, "only the two cold calls missed");
    drop(client);
    shut_down(&addr, handle);
}

#[test]
fn affine_synthesis_over_the_wire_never_aliases_the_fsm_pipeline() {
    // The v4 generator byte end-to-end: the same sequence synthesized
    // through both pipelines. The reports must
    // differ (the affine AGU carries its programming-register
    // premium), the cache must key them separately (two misses, then
    // two memory hits), and repeat payloads must be byte-identical.
    let make = |generator| Request::Synthesize {
        sequence: (0..16).collect(),
        encoding: Encoding::Binary,
        num_lines: 16,
        effort_steps: 0,
        generator,
    };
    let (addr, handle) = start(test_config());
    let mut client = Client::connect(&addr).expect("connect");

    let cold_fsm = client.call_raw(&make(Generator::Fsm), 0).unwrap();
    let cold_affine = client.call_raw(&make(Generator::Affine), 0).unwrap();
    assert_ne!(
        cold_fsm, cold_affine,
        "the two pipelines report different implementations"
    );
    let affine_report = match Response::decode(&cold_affine).unwrap() {
        Response::Synthesized(r) => r,
        other => panic!("expected an affine synthesis report, got {other:?}"),
    };
    assert!(affine_report.area > 0.0 && affine_report.delay_ps > 0.0);
    let fsm_report = match Response::decode(&cold_fsm).unwrap() {
        Response::Synthesized(r) => r,
        other => panic!("expected an FSM synthesis report, got {other:?}"),
    };
    // A 16-state ramp is cheap as a dedicated FSM; the
    // programmable AGU pays its configuration chain in state.
    assert!(affine_report.flip_flops > fsm_report.flip_flops);

    let before = client.stats().unwrap();
    let warm_fsm = client.call_raw(&make(Generator::Fsm), 0).unwrap();
    let warm_affine = client.call_raw(&make(Generator::Affine), 0).unwrap();
    let after = client.stats().unwrap();
    assert_eq!(warm_fsm, cold_fsm);
    assert_eq!(warm_affine, cold_affine);
    assert_eq!(
        after.cache_hit_mem - before.cache_hit_mem,
        2,
        "both generators cached under their own keys"
    );
    assert_eq!(after.cache_miss, 2, "one miss per generator, never shared");

    drop(client);
    shut_down(&addr, handle);
}

#[test]
fn disk_tier_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("adgen-serve-e2e-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        jobs: 1,
        cache_dir: Some(PathBuf::from(&dir)),
        ..ServeConfig::default()
    };
    let req = Request::MapSequence {
        sequence: vec![0, 0, 1, 1, 2, 2],
    };

    let (addr, handle) = start(config());
    let mut client = Client::connect(&addr).expect("connect");
    let cold = client.call_raw(&req, 0).unwrap();
    drop(client);
    let stats = shut_down(&addr, handle);
    assert_eq!(stats.cache_miss, 1);

    // A fresh server over the same directory answers from disk.
    let (addr, handle) = start(config());
    let mut client = Client::connect(&addr).expect("connect");
    let warm = client.call_raw(&req, 0).unwrap();
    assert_eq!(warm, cold, "disk entry is the exact wire payload");
    drop(client);
    let stats = shut_down(&addr, handle);
    assert_eq!(stats.cache_hit_disk, 1, "answered by the disk tier");
    assert_eq!(stats.cache_miss, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_observing_server_mirrors_every_counter_into_its_recording() {
    let dir = std::env::temp_dir().join(format!("adgen-serve-e2e-mirror-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // An LRU of two entries, so a second round over four requests
    // reaches the disk tier before its repeat hits memory.
    let (addr, handle) = start(ServeConfig {
        jobs: 2,
        cache_entries: 2,
        cache_dir: Some(PathBuf::from(&dir)),
        observe: true,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let requests = mixed_requests();
    for req in &requests {
        client.call_raw(req, 0).unwrap();
    }
    for req in &requests {
        client.call_raw(req, 0).unwrap();
        client.call_raw(req, 0).unwrap();
    }

    // A frame longer than the cap is answered with a typed error and
    // closes its connection.
    let mut raw = TcpStream::connect(&addr).expect("connect raw");
    write_hello(&mut raw, PROTOCOL_VERSION).unwrap();
    assert_eq!(read_hello_reply(&mut raw).unwrap().0, HANDSHAKE_OK);
    raw.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
    let reply = read_frame(&mut raw).unwrap().expect("an error frame");
    assert!(matches!(
        Response::decode(&reply).unwrap(),
        Response::Error(ServeError::MalformedFrame(_))
    ));
    drop(raw);

    assert_eq!(
        client.call(&Request::Shutdown, 0).unwrap(),
        Response::ShuttingDown
    );
    drop(client);
    let (stats, rec) = handle.join().expect("no worker panicked");
    let rec = rec.expect("an observing server returns its recording");
    for (name, ctr, value) in stats.rows() {
        if let Some(ctr) = ctr {
            assert_eq!(rec.counter(ctr), value, "{name}");
        }
    }
    assert!(stats.req_map > 0 && stats.req_synthesize > 0 && stats.req_control > 0);
    assert!(stats.cache_miss > 0 && stats.cache_hit_mem > 0 && stats.cache_hit_disk > 0);
    assert_eq!(stats.conn_malformed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bounded_disk_tier_evicts_and_recomputes_instead_of_erroring() {
    let dir = std::env::temp_dir().join(format!("adgen-serve-e2e-bound-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A disk tier too small for two mapping payloads (34 + 30
    // bytes), and an LRU of one entry so the memory tier cannot
    // mask evictions.
    let config = || ServeConfig {
        jobs: 1,
        cache_entries: 1,
        cache_dir: Some(PathBuf::from(&dir)),
        disk_cap_bytes: 48,
        ..ServeConfig::default()
    };
    let req_a = Request::MapSequence {
        sequence: vec![0, 0, 1, 1, 2, 2],
    };
    let req_b = Request::MapSequence {
        sequence: vec![0, 0, 0, 1, 1, 1],
    };

    let (addr, handle) = start(config());
    let mut client = Client::connect(&addr).expect("connect");
    let cold_a = client.call_raw(&req_a, 0).unwrap();
    let _cold_b = client.call_raw(&req_b, 0).unwrap();
    drop(client);
    let stats = shut_down(&addr, handle);
    assert!(
        stats.disk_evictions >= 1,
        "the second payload pushed the first out of the 64-byte bound"
    );

    // A fresh server over the same directory: the evicted entry
    // recomputes (a miss, not an error) and is byte-identical.
    let (addr, handle) = start(config());
    let mut client = Client::connect(&addr).expect("connect");
    let again_a = client.call_raw(&req_a, 0).unwrap();
    assert_eq!(again_a, cold_a, "recomputed payload is byte-identical");
    match Response::decode(&again_a).unwrap() {
        Response::Mapped(_) => {}
        other => panic!("expected a mapping after eviction, got {other:?}"),
    }
    drop(client);
    let stats = shut_down(&addr, handle);
    assert_eq!(stats.cache_miss, 1, "the evicted entry recomputed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_deadline_is_a_typed_error_and_the_result_is_still_cached() {
    // The stall holds the computation past the 100 ms deadline, so
    // the worker finishes the work, caches it, and answers with the
    // typed expiration.
    let (addr, handle) = start(faulty_config(1, "stall@serve.compute#1"));
    let mut client = Client::connect(&addr).expect("connect");
    let req = Request::Synthesize {
        sequence: (0..24).collect(),
        encoding: Encoding::Binary,
        num_lines: 24,
        effort_steps: 0,
        generator: Generator::Fsm,
    };
    match client.call(&req, 100).unwrap() {
        Response::Error(ServeError::Deadline { waited_ms }) => assert!(waited_ms >= 100),
        other => panic!("expected a deadline expiration, got {other:?}"),
    }
    // The retry is answered from the cache — same request,
    // generous deadline, a real payload this time.
    match client.call(&req, 60_000).unwrap() {
        Response::Synthesized(r) => assert!(r.area > 0.0),
        other => panic!("expected the cached synthesis report, got {other:?}"),
    }
    drop(client);
    let stats = shut_down(&addr, handle);
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.cache_hit_mem, 1, "the retry hit");
}

#[test]
fn concurrent_identical_misses_coalesce_into_one_computation() {
    const K: usize = 4;
    // Two workers, and the leader's computation is stalled: every
    // duplicate reaches the other worker while the key is in flight
    // and waits on the leader instead of computing.
    let (addr, handle) = start(faulty_config(2, "stall@serve.compute#1"));
    let identical = Request::Synthesize {
        sequence: vec![0, 3, 1, 2, 3, 0],
        encoding: Encoding::Gray,
        num_lines: 4,
        effort_steps: 0,
        generator: Generator::Fsm,
    };
    let barrier = Arc::new(Barrier::new(K));
    let workers: Vec<_> = (0..K)
        .map(|_| {
            let mut c = Client::connect(&addr).expect("connect worker");
            let (req, barrier) = (identical.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                c.call_raw(&req, 0).expect("worker call")
            })
        })
        .collect();
    let payloads: Vec<Vec<u8>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for p in &payloads[1..] {
        assert_eq!(
            &payloads[0], p,
            "every client gets the same exact bytes for the same request"
        );
    }
    match Response::decode(&payloads[0]).unwrap() {
        Response::Synthesized(_) => {}
        other => panic!("expected a synthesis report, got {other:?}"),
    }
    let stats = shut_down(&addr, handle);
    assert_eq!(stats.cache_miss, 1, "one computation for the whole group");
    assert_eq!(stats.coalesce_leaders, 1);
    assert_eq!(stats.coalesce_waiters, K as u64 - 1);
}

#[test]
fn a_panicking_computation_is_a_typed_error_and_the_worker_survives() {
    let (addr, handle) = start(faulty_config(1, "panic@serve.compute#1"));
    let mut client = Client::connect(&addr).expect("connect");
    let req = Request::MapSequence {
        sequence: vec![0, 0, 1, 1, 2, 2],
    };
    match client.call(&req, 0).unwrap() {
        Response::Error(ServeError::Internal(_)) => {}
        other => panic!("expected a typed internal error, got {other:?}"),
    }
    // The failure was not cached, and the only worker still runs: the
    // same request computes and succeeds.
    match client.call(&req, 0).unwrap() {
        Response::Mapped(MapOutcome::Mapped { .. }) => {}
        other => panic!("expected a mapping, got {other:?}"),
    }
    drop(client);
    let stats = shut_down(&addr, handle);
    assert_eq!(stats.cache_miss, 2, "the retry recomputed");
    assert_eq!(stats.cache_hit_mem, 0);
}

#[test]
fn an_idle_connection_is_reaped_by_the_staleness_tick() {
    let (addr, handle) = start(ServeConfig {
        jobs: 1,
        conn_idle_ms: 80,
        ..ServeConfig::default()
    });

    // The victim handshakes, then goes silent well past the
    // 80 ms staleness deadline.
    let mut idle = Client::connect(&addr).expect("connect idle victim");
    std::thread::sleep(Duration::from_millis(400));

    // The reap is observable two ways: the victim's socket is
    // gone, and the counter moved. The probe itself is fresh and
    // fast, so it is never at risk.
    let mut probe = Client::connect(&addr).expect("connect probe");
    let stats = probe.stats().unwrap();
    assert!(
        stats.conn_timed_out >= 1,
        "the staleness tick counted the reap"
    );
    idle.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    assert!(
        idle.call(&Request::Ping, 0).is_err(),
        "the reaped connection no longer answers"
    );
    drop(idle);
    drop(probe);
    shut_down(&addr, handle);
}

#[test]
fn a_corrupted_disk_entry_is_quarantined_and_recomputed() {
    let dir = std::env::temp_dir().join(format!("adgen-serve-e2e-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        jobs: 1,
        cache_dir: Some(PathBuf::from(&dir)),
        ..ServeConfig::default()
    };
    let req = Request::MapSequence {
        sequence: vec![0, 0, 1, 1, 2, 2],
    };

    let (addr, handle) = start(config());
    let mut client = Client::connect(&addr).expect("connect");
    let cold = client.call_raw(&req, 0).unwrap();
    drop(client);
    shut_down(&addr, handle);

    // Flip one payload byte of the (only) entry while the server
    // is down — a crash-mid-write or bit-rot stand-in.
    let entry = find_cache_entry(&dir).expect("one disk entry written");
    let mut bytes = std::fs::read(&entry).unwrap();
    assert!(bytes.len() > 32, "framed entry: header + payload");
    bytes[34] ^= 0x40;
    std::fs::write(&entry, &bytes).unwrap();

    // The restarted server must detect the damage, quarantine the
    // entry, and recompute — never serve the corrupted bytes.
    let (addr, handle) = start(config());
    let mut client = Client::connect(&addr).expect("connect");
    let again = client.call_raw(&req, 0).unwrap();
    assert_eq!(again, cold, "recomputed payload is byte-identical");
    drop(client);
    let stats = shut_down(&addr, handle);
    assert!(stats.cache_corrupt >= 1, "the digest mismatch was counted");
    assert_eq!(stats.cache_hit_disk, 0, "corrupt bytes are never a hit");
    assert_eq!(stats.cache_miss, 1, "the entry recomputed");
    let quarantined = std::fs::read_dir(dir.join("quarantine"))
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert!(
        quarantined >= 1,
        "the damaged file moved to quarantine/ for post-mortem"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first regular file under `dir`'s shard directories (skipping
/// `quarantine/` and temp files) — the cache holds exactly one entry
/// in the corruption test.
fn find_cache_entry(dir: &std::path::Path) -> Option<PathBuf> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).ok()?.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "quarantine") {
                    stack.push(path);
                }
            } else if path.extension().is_none_or(|e| e != "tmp") {
                return Some(path);
            }
        }
    }
    None
}

#[test]
fn overload_is_shed_with_typed_rejections_not_hangs() {
    const CONNS: usize = 8;
    // A one-slot admission queue and a busy worker: most of the
    // burst below must be rejected, and every rejection must
    // be the typed QueueFull — never a hang or a reset.
    let (addr, handle) = start(ServeConfig {
        queue_cap: 1,
        ..faulty_config(1, "stall@serve.compute#1")
    });

    // The stalled blocker occupies the only worker; the burst is
    // released once the worker has taken it.
    let mut blocker_client = Client::connect(&addr).expect("connect blocker");
    let blocker = std::thread::spawn(move || {
        let req = Request::MapSequence {
            sequence: vec![0, 0, 1, 1],
        };
        blocker_client.call_raw(&req, 0).expect("blocker call")
    });
    wait_for_stats(&addr, |s| s.batches == 1);

    let barrier = Arc::new(Barrier::new(CONNS));
    let workers: Vec<_> = (0..CONNS)
        .map(|i| {
            let mut c = Client::connect(&addr).expect("connect worker");
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                c.set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("read timeout");
                // Unique per connection, so nothing coalesces or
                // hits cache — every admission takes a queue slot.
                let req = Request::MapSequence {
                    sequence: vec![0, 0, 1, 1, 2, 2, i as u32 + 3, i as u32 + 3],
                };
                barrier.wait();
                c.call(&req, 0).expect("no hang, no reset")
            })
        })
        .collect();

    let mut served = 0u64;
    let mut shed = 0u64;
    for w in workers {
        match w.join().unwrap() {
            Response::Mapped(_) => served += 1,
            Response::Error(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                shed += 1;
            }
            other => panic!("expected a mapping or a typed shed, got {other:?}"),
        }
    }
    blocker.join().unwrap();
    assert_eq!(served + shed, CONNS as u64, "every request was answered");
    assert!(shed >= 1, "a one-slot queue under an 8-way burst sheds");

    let mut probe = Client::connect(&addr).expect("connect probe");
    let stats = probe.stats().unwrap();
    drop(probe);
    assert_eq!(stats.shed, shed, "the shed counter saw every rejection");
    shut_down(&addr, handle);
}
