//! `frame-fuzz`: adversarial wire traffic against a live in-process
//! serving stack: the reactor must answer with a typed error or close
//! cleanly, keep serving well-behaved clients, and never panic.

use adgen_exec::Prng;
use adgen_serve::protocol::{self as wire, Request as ServeRequest, Response as ServeResponse};
use adgen_serve::{serve, Client, ServeConfig, ServeError};

use super::{BreakMode, CheckResult, Context, Family};
use crate::shrink::{drop_each, halves};

/// The attack shapes, by `attack % 7`.
const ATTACKS: [&str; 7] = [
    "truncated-frame",
    "oversized-len",
    "bad-hello-magic",
    "wrong-version",
    "undecodable-payload",
    "slowloris",
    "mid-frame-disconnect",
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Attack shape: 0 = truncated frame then write-side close,
    /// 1 = oversized length prefix, 2 = garbage where the hello
    /// belongs, 3 = unsupported protocol version, 4 = undecodable
    /// request payload, 5 = slowloris (partial frame, then silence),
    /// 6 = mid-frame disconnect.
    pub(crate) attack: u8,
    /// Random bytes woven into the attack (partial bodies, bogus
    /// hello, payload tail).
    pub(crate) garbage: Vec<u8>,
}

/// Timeout on every raw-socket read during a frame-fuzz attack; far
/// above the 80 ms staleness deadline the server runs with, so a hit
/// means the server genuinely failed to answer or close.
const ATTACK_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

impl Family for Case {
    const KIND: &'static str = "frame-fuzz";

    /// A uniformly-drawn attack shape plus a short random byte string
    /// the attack weaves into whatever it sends.
    fn generate(rng: &mut Prng) -> Self {
        let attack = rng.next_range(7) as u8;
        let len = rng.next_in(1, 33) as usize;
        let garbage = (0..len).map(|_| rng.next_range(256) as u8).collect();
        Case { attack, garbage }
    }

    fn describe(&self) -> String {
        let attack = ATTACKS[usize::from(self.attack % 7)];
        format!("{attack}, {} garbage bytes", self.garbage.len())
    }

    /// Boots a real server, fires one adversarial wire exchange at it over
    /// a raw socket, and then proves the server survived: the attack
    /// socket must end in a typed error or a clean close (per attack
    /// shape), a fresh well-behaved client must still get `Pong`, the
    /// `conn_malformed` / `conn_timed_out` defense counters must have
    /// moved where the attack warrants it, and shutdown must join without
    /// a worker panic.
    fn check(&self, _: BreakMode) -> CheckResult {
        let attack = self.attack % 7;
        let garbage = &self.garbage[..];
        let config = ServeConfig {
            jobs: 1,
            conn_idle_ms: 80,
            ..ServeConfig::default()
        };
        let handle = serve(config).ctx("server start")?;
        let addr = handle.local_addr().to_string();

        let attack_result = run_frame_attack(&addr, attack, garbage);

        // Whatever the attack did, a fresh well-behaved client must still
        // be served; its `Shutdown` doubles as the join path.
        let follow_up = (|| -> Result<(), String> {
            let mut client = Client::connect(&addr).ctx("follow-up connect")?;
            client
                .set_read_timeout(Some(ATTACK_TIMEOUT))
                .ctx("follow-up timeout")?;
            match client.call(&ServeRequest::Ping, 0) {
                Ok(ServeResponse::Pong) => {}
                Ok(other) => return Err(format!("follow-up ping answered {other:?}")),
                Err(e) => return Err(format!("follow-up ping failed: {e}")),
            }
            match client.call(&ServeRequest::Shutdown, 0) {
                Ok(ServeResponse::ShuttingDown) => Ok(()),
                Ok(other) => Err(format!("shutdown answered {other:?}")),
                Err(e) => Err(format!("shutdown failed: {e}")),
            }
        })();
        if follow_up.is_err() {
            // Best-effort shutdown so the join below cannot hang behind a
            // failure we are already going to report.
            if let Ok(mut client) = Client::connect(&addr) {
                let _ = client.call(&ServeRequest::Shutdown, 0);
            }
        }
        let (stats, _) = handle.join().ctx("server join after attack")?;
        attack_result?;
        follow_up?;
        match attack {
            1 | 2 | 4 if stats.conn_malformed == 0 => {
                Err("malformed traffic was not counted: conn_malformed stayed 0".into())
            }
            5 if stats.conn_timed_out == 0 => {
                Err("slowloris reap was not counted: conn_timed_out stayed 0".into())
            }
            _ => Ok(()),
        }
    }

    /// The attack shape is semantic — changing it changes which
    /// defense is on trial — so only the garbage bytes shrink: drop
    /// halves, then single bytes.
    fn candidates(&self) -> Vec<Self> {
        let garbage = [halves(&self.garbage), drop_each(&self.garbage, 32)].concat();
        garbage
            .into_iter()
            .map(|garbage| Case {
                attack: self.attack,
                garbage,
            })
            .collect()
    }
}

/// Runs the raw-socket half of one attack shape and checks the
/// server's on-the-wire reaction.
fn run_frame_attack(addr: &str, attack: u8, garbage: &[u8]) -> Result<(), String> {
    use std::io::Write as _;

    let mut sock = std::net::TcpStream::connect(addr).ctx("attack connect")?;
    sock.set_read_timeout(Some(ATTACK_TIMEOUT))
        .ctx("attack timeout")?;
    let g0 = garbage.first().copied().unwrap_or(0);
    match attack {
        // Garbage where the hello belongs: silent close, no reply.
        2 => {
            let mut hello = [0u8; 8];
            for (i, byte) in hello.iter_mut().enumerate() {
                *byte = garbage.get(i).copied().unwrap_or(0x5a);
            }
            if hello[..4] == wire::MAGIC {
                hello[0] ^= 0xff;
            }
            sock.write_all(&hello).ctx("bad hello write")?;
            expect_clean_close(&mut sock, "bad-magic hello")
        }
        // Unsupported version: typed handshake reject, then close.
        3 => {
            let version = wire::PROTOCOL_VERSION
                .wrapping_add(1)
                .wrapping_add(u16::from(g0 % 7));
            wire::write_hello(&mut sock, version).ctx("hello write")?;
            let (status, server_version) =
                wire::read_hello_reply(&mut sock).ctx("reply to bad version")?;
            if status != wire::HANDSHAKE_REJECT_VERSION {
                return Err(format!(
                    "version {version} got status {status} from server v{server_version}, \
                     want reject"
                ));
            }
            expect_clean_close(&mut sock, "rejected handshake")
        }
        // Everything else handshakes honestly first.
        _ => {
            wire::write_hello(&mut sock, wire::PROTOCOL_VERSION).ctx("hello write")?;
            let (status, _) = wire::read_hello_reply(&mut sock).ctx("hello reply")?;
            if status != wire::HANDSHAKE_OK {
                return Err(format!("well-formed handshake rejected: status {status}"));
            }
            match attack {
                // Declared body never fully arrives, then a clean
                // write-side close: the server drops, no reply.
                0 => {
                    write_partial_frame(&mut sock, garbage, 1)?;
                    sock.shutdown(std::net::Shutdown::Write)
                        .ctx("write-side close")?;
                    expect_clean_close(&mut sock, "truncated frame")
                }
                // Length prefix past the frame cap: typed error.
                1 => {
                    let len = wire::MAX_FRAME_LEN + 1 + u32::from(g0);
                    sock.write_all(&len.to_le_bytes()).ctx("length write")?;
                    match read_error_reply(&mut sock, "oversized length")? {
                        ServeError::MalformedFrame(_) => {
                            expect_clean_close(&mut sock, "oversized length")
                        }
                        other => Err(format!("oversized length answered `{other}`")),
                    }
                }
                // Well-framed, undecodable payload: typed error. Tag
                // 0xff after the deadline word is never a request.
                4 => {
                    let mut payload = vec![0, 0, 0, 0, 0xff];
                    payload.extend_from_slice(garbage);
                    wire::write_frame(&mut sock, &payload).ctx("frame write")?;
                    match read_error_reply(&mut sock, "undecodable payload")? {
                        ServeError::MalformedFrame(_) => {
                            expect_clean_close(&mut sock, "undecodable payload")
                        }
                        other => Err(format!("undecodable payload answered `{other}`")),
                    }
                }
                // Partial frame, then silence: the staleness reap
                // must answer with a typed timeout and close.
                5 => {
                    write_partial_frame(&mut sock, garbage, 64)?;
                    match read_error_reply(&mut sock, "slowloris")? {
                        ServeError::IoTimeout { .. } => expect_clean_close(&mut sock, "slowloris"),
                        other => Err(format!("slowloris answered `{other}`")),
                    }
                }
                // Mid-frame disconnect: nothing to observe on this
                // socket; the follow-up client proves survival.
                _ => {
                    write_partial_frame(&mut sock, garbage, 16)?;
                    drop(sock);
                    Ok(())
                }
            }
        }
    }
}

/// Declares a frame `missing` bytes longer than `garbage`, then
/// sends only `garbage`.
fn write_partial_frame(
    sock: &mut std::net::TcpStream,
    garbage: &[u8],
    missing: u32,
) -> Result<(), String> {
    use std::io::Write as _;
    let declared = garbage.len() as u32 + missing;
    sock.write_all(&declared.to_le_bytes())
        .ctx("length write")?;
    sock.write_all(garbage).ctx("body write")
}

/// The server must close the attack socket without sending anything
/// further: a clean EOF, not stray bytes, not a read timeout.
fn expect_clean_close(sock: &mut std::net::TcpStream, what: &str) -> Result<(), String> {
    use std::io::Read as _;
    let mut buf = [0u8; 64];
    match sock.read(&mut buf) {
        Ok(0) => Ok(()),
        Ok(n) => Err(format!("{what}: expected close, got {n} stray byte(s)")),
        Err(e) => Err(format!("{what}: server did not close cleanly: {e}")),
    }
}

/// Reads one reply frame and requires it to be a typed error.
fn read_error_reply(sock: &mut std::net::TcpStream, what: &str) -> Result<ServeError, String> {
    let payload = wire::read_frame(sock)
        .map_err(|e| format!("{what}: reply frame: {e}"))?
        .ok_or_else(|| format!("{what}: closed before any typed reply"))?;
    match ServeResponse::decode(&payload) {
        Ok(ServeResponse::Error(e)) => Ok(e),
        Ok(other) => Err(format!("{what}: expected a typed error, got {other:?}")),
        Err(e) => Err(format!("{what}: undecodable reply: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every attack shape: the wire contract (typed error or clean
    /// close), follow-up liveness and the defense counters must all
    /// hold, deterministically, not just on whatever the seeded
    /// generator happens to draw.
    #[test]
    fn frame_fuzz_survives_every_attack() {
        for attack in 0..7u8 {
            let case = Case {
                attack,
                garbage: vec![0xa5; 9],
            };
            if let Err(e) = case.check(BreakMode::None) {
                panic!("{}: {e}", case.describe());
            }
        }
    }
}
