//! A minimal blocking client for the serve protocol — what the load
//! generator, the CI smoke stage and the end-to-end tests speak.
//!
//! Beyond the raw one-frame-out-one-frame-back calls, [`Client`]
//! offers [`call_raw_retry`](Client::call_raw_retry): bounded
//! exponential-backoff retry with *deterministic* jitter (seeded, so
//! a load-generation run is reproducible) that re-sends on typed
//! [`QueueFull`](crate::ServeError::QueueFull) sheds and reconnects
//! on transport errors. Every serve request is idempotent — results
//! are content-addressed — so retrying is always safe.

use std::net::TcpStream;

use crate::error::ServeError;
use crate::protocol::{
    self, encode_request_frame, read_frame, write_frame, Request, Response, StatsSnapshot,
    WireError, HANDSHAKE_OK, PROTOCOL_VERSION,
};

/// Why a client call failed before a typed server response arrived.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer violated the wire format (or closed mid-frame).
    Wire(WireError),
    /// The server rejected the handshake.
    Rejected {
        /// Version the server speaks.
        server_version: u16,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Rejected { server_version } => {
                write!(
                    f,
                    "handshake rejected: server speaks v{server_version}, client v{PROTOCOL_VERSION}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Bounded exponential-backoff retry policy with deterministic
/// jitter. The delay before attempt `k` (1-based, after the first
/// failure) is `min(base << (k-1), cap)` scaled by a jitter factor in
/// `[0.5, 1.0]` derived from `seed` and `k` — fully reproducible, and
/// two clients with different seeds desynchronize instead of
/// thundering back in lockstep.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: std::time::Duration,
    /// Backoff growth ceiling.
    pub cap_delay: std::time::Duration,
    /// Jitter seed; clients should use distinct seeds.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: std::time::Duration::from_millis(1),
            cap_delay: std::time::Duration::from_millis(250),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (1-based): exponential,
    /// capped, deterministically jittered into `[0.5, 1.0]` of the
    /// uncapped value.
    pub fn delay(&self, attempt: u32) -> std::time::Duration {
        let exp = self
            .base_delay
            .saturating_mul(
                1u32.checked_shl(attempt.saturating_sub(1))
                    .unwrap_or(u32::MAX),
            )
            .min(self.cap_delay);
        // Jitter scales the delay by (half + half * uniform[0,1)),
        // derived from the policy seed and the attempt counter.
        let r = adgen_exec::splitmix64(
            self.seed ^ u64::from(attempt).wrapping_mul(0xa076_1d64_78bd_642f),
        );
        let frac = (r >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + 0.5 * frac)
    }
}

/// One authenticated-by-handshake connection. Requests are
/// synchronous: one frame out, one frame back. The client remembers
/// its address, so [`call_raw_retry`](Client::call_raw_retry) can reconnect
/// after a transport failure.
pub struct Client {
    addr: String,
    version: u16,
    stream: TcpStream,
}

impl Client {
    /// Connects and performs the version handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] on a version mismatch, otherwise
    /// I/O or wire errors.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::connect_with_version(addr, PROTOCOL_VERSION)
    }

    /// [`connect`](Client::connect) offering an explicit version —
    /// exists so tests can exercise the server's mismatch rejection.
    ///
    /// # Errors
    ///
    /// As for [`connect`](Client::connect).
    pub fn connect_with_version(addr: &str, version: u16) -> Result<Client, ClientError> {
        let stream = Client::open_stream(addr, version)?;
        Ok(Client {
            addr: addr.to_string(),
            version,
            stream,
        })
    }

    fn open_stream(addr: &str, version: u16) -> Result<TcpStream, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        protocol::write_hello(&mut stream, version)?;
        let (status, server_version) = protocol::read_hello_reply(&mut stream)?;
        if status != HANDSHAKE_OK {
            return Err(ClientError::Rejected { server_version });
        }
        Ok(stream)
    }

    /// Drops the current connection and performs a fresh handshake to
    /// the same address.
    ///
    /// # Errors
    ///
    /// As for [`connect`](Client::connect).
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = Client::open_stream(&self.addr, self.version)?;
        Ok(())
    }

    /// Bounds how long a [`call`](Client::call) may block waiting for
    /// the response frame (`None` = wait forever). Overload tests use
    /// this to turn a hung server into a visible failure.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_read_timeout(
        &mut self,
        timeout: Option<std::time::Duration>,
    ) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends `request` with a deadline (milliseconds; `0` = server
    /// default) and returns the raw encoded response payload — the
    /// bytes determinism tests compare.
    ///
    /// # Errors
    ///
    /// I/O or wire errors; a typed server-side failure is a normal
    /// payload (decode it to see the [`Response::Error`]).
    pub fn call_raw(
        &mut self,
        request: &Request,
        deadline_ms: u32,
    ) -> Result<Vec<u8>, ClientError> {
        write_frame(
            &mut self.stream,
            &encode_request_frame(request, deadline_ms),
        )?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Wire(WireError("server closed before replying".to_string()))
        })
    }

    /// Sends `request` and decodes the response.
    ///
    /// # Errors
    ///
    /// As for [`call_raw`](Client::call_raw), plus decode failures.
    pub fn call(&mut self, request: &Request, deadline_ms: u32) -> Result<Response, ClientError> {
        let payload = self.call_raw(request, deadline_ms)?;
        Ok(Response::decode(&payload)?)
    }

    /// Asks the server for its statistics.
    ///
    /// # Errors
    ///
    /// As for [`call`](Client::call); any answer but
    /// [`Response::Stats`] is a [`ClientError::Wire`].
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Request::Stats, 0)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Wire(WireError(format!(
                "expected a stats response, got {other:?}"
            )))),
        }
    }

    /// [`call_raw`](Client::call_raw) with resilience: a typed
    /// [`QueueFull`](ServeError::QueueFull) shed is retried after the
    /// policy's backoff, and a transport or wire error triggers a
    /// reconnect before the retry. Any other response — including
    /// other typed errors — returns immediately; they are answers,
    /// not transients. Safe because every serve request is
    /// idempotent (results are content-addressed).
    ///
    /// # Errors
    ///
    /// The *last* attempt's failure once the policy's attempts are
    /// exhausted.
    pub fn call_raw_retry(
        &mut self,
        request: &Request,
        deadline_ms: u32,
        policy: &RetryPolicy,
    ) -> Result<Vec<u8>, ClientError> {
        let attempts = policy.max_attempts.max(1);
        let mut last_err: Option<ClientError> = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                std::thread::sleep(policy.delay(attempt - 1));
            }
            if last_err.is_some() {
                // The previous attempt died on transport: the stream
                // state is unknown, so start a fresh connection.
                if let Err(e) = self.reconnect() {
                    last_err = Some(e);
                    continue;
                }
                last_err = None;
            }
            match self.call_raw(request, deadline_ms) {
                Ok(payload) => {
                    if attempt < attempts {
                        if let Ok(Response::Error(ServeError::QueueFull { .. })) =
                            Response::decode(&payload)
                        {
                            continue; // shed: back off and re-offer
                        }
                    }
                    return Ok(payload);
                }
                Err(ClientError::Rejected { server_version }) => {
                    // A version rejection will never succeed on retry.
                    return Err(ClientError::Rejected { server_version });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            ClientError::Wire(WireError(
                "retries exhausted on queue-full sheds".to_string(),
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: std::time::Duration::from_millis(4),
            cap_delay: std::time::Duration::from_millis(20),
            seed: 42,
        };
        for attempt in 1..=7 {
            let d = p.delay(attempt);
            let uncapped = 4u64 << (attempt - 1);
            let ceiling = uncapped.min(20);
            assert!(
                d.as_secs_f64() * 1000.0 >= 0.5 * ceiling as f64 - 1e-9
                    && d.as_secs_f64() * 1000.0 <= ceiling as f64 + 1e-9,
                "attempt {attempt}: {d:?} outside [{}/2, {}] ms",
                ceiling,
                ceiling
            );
            assert_eq!(d, p.delay(attempt), "deterministic for a fixed seed");
        }
        let other = RetryPolicy { seed: 43, ..p };
        assert_ne!(
            p.delay(3),
            other.delay(3),
            "different seeds desynchronize their jitter"
        );
    }

    #[test]
    fn shl_overflow_saturates_at_the_cap() {
        let p = RetryPolicy {
            max_attempts: 64,
            base_delay: std::time::Duration::from_millis(1),
            cap_delay: std::time::Duration::from_millis(100),
            seed: 0,
        };
        assert!(p.delay(63) <= std::time::Duration::from_millis(100));
        assert!(p.delay(40) >= std::time::Duration::from_millis(50));
    }
}
