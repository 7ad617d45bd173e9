//! The versioned, length-prefixed binary wire protocol.
//!
//! ## Connection life cycle
//!
//! A connection opens with an 8-byte client hello — the magic
//! `b"ADGS"`, the protocol version as a little-endian `u16`, and two
//! reserved zero bytes — answered by an 8-byte server reply: magic,
//! the *server's* version, a status byte ([`HANDSHAKE_OK`] or
//! [`HANDSHAKE_REJECT_VERSION`]) and one reserved zero byte. On a
//! version mismatch the server replies with the reject status (so the
//! client can report both versions) and closes the connection.
//!
//! ## Frames
//!
//! After the handshake both directions speak *frames*: a `u32`
//! little-endian payload length followed by that many payload bytes,
//! capped at [`MAX_FRAME_LEN`]. A request frame's payload is a `u32`
//! deadline in milliseconds (`0` = use the server's default) followed
//! by the canonical [`Request`] encoding; a response frame's payload
//! is a [`Response`] encoding.
//!
//! ## Canonical request bytes
//!
//! [`Request::encode`] is *canonical*: one byte string per distinct
//! request value, independent of who encoded it. The result cache
//! keys on these bytes (plus the effort budget — see
//! [`crate::cache::CacheKey`]), which is why the deadline travels in
//! the frame envelope and **not** in the request encoding: two
//! requests differing only in patience must share a cache entry.
//!
//! All integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern in a `u64`. Every encoder has a decoder that rejects
//! trailing bytes, so round-tripping is exact and golden tests can
//! byte-compare encodings.

use std::io::{Read, Write};

use adgen_synth::Encoding;

use crate::error::ServeError;

/// Connection magic, first bytes of both hellos.
pub const MAGIC: [u8; 4] = *b"ADGS";

/// The protocol version this build speaks. v2 extended the stats
/// snapshot with shedding/coalescing/eviction counters and added the
/// `WorkerPanicked` error kind. v3 added the `MalformedFrame` and
/// `IoTimeout` error kinds and the corruption/write-error/connection-
/// hygiene stats counters. v4 added the trailing [`Generator`] byte
/// to `Synthesize`, selecting the dedicated-FSM pipeline or the
/// programmable affine AGU; the canonical bytes differ between the
/// two, so the same sequence never aliases across generators in the
/// result cache.
pub const PROTOCOL_VERSION: u16 = 4;

/// Upper bound on a frame payload, bytes. Anything larger is a
/// protocol violation (the biggest legitimate payload — an `Explore`
/// response for a 4096-element sequence — is far below this).
pub const MAX_FRAME_LEN: u32 = 1 << 24;

/// Handshake status: accepted, frames may follow.
pub const HANDSHAKE_OK: u8 = 0;

/// Handshake status: version mismatch, server closes after replying.
pub const HANDSHAKE_REJECT_VERSION: u8 = 1;

/// A malformed frame or payload. Wire-format errors are protocol
/// violations, distinct from I/O failures (`std::io::Error`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire data: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn wire_err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

// ---------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------

/// Writes the 8-byte client hello.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_hello(w: &mut impl Write, version: u16) -> std::io::Result<()> {
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..6].copy_from_slice(&version.to_le_bytes());
    w.write_all(&hello)?;
    w.flush()
}

/// Reads the client hello, returning the offered version.
///
/// # Errors
///
/// [`WireError`] on bad magic, `std::io::Error` text on short reads.
pub fn read_hello(r: &mut impl Read) -> Result<u16, WireError> {
    let mut hello = [0u8; 8];
    r.read_exact(&mut hello)
        .map_err(|e| wire_err(format!("hello: {e}")))?;
    if hello[..4] != MAGIC {
        return Err(wire_err("hello: bad magic"));
    }
    Ok(u16::from_le_bytes([hello[4], hello[5]]))
}

/// Writes the 8-byte server hello reply.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_hello_reply(
    w: &mut impl Write,
    status: u8,
    server_version: u16,
) -> std::io::Result<()> {
    let mut reply = [0u8; 8];
    reply[..4].copy_from_slice(&MAGIC);
    reply[4..6].copy_from_slice(&server_version.to_le_bytes());
    reply[6] = status;
    w.write_all(&reply)?;
    w.flush()
}

/// Reads the server hello reply, returning `(status, server_version)`.
///
/// # Errors
///
/// [`WireError`] on bad magic or a short read.
pub fn read_hello_reply(r: &mut impl Read) -> Result<(u8, u16), WireError> {
    let mut reply = [0u8; 8];
    r.read_exact(&mut reply)
        .map_err(|e| wire_err(format!("hello reply: {e}")))?;
    if reply[..4] != MAGIC {
        return Err(wire_err("hello reply: bad magic"));
    }
    Ok((reply[6], u16::from_le_bytes([reply[4], reply[5]])))
}

// ---------------------------------------------------------------
// Frames
// ---------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures; rejects payloads over [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload too large")
        })?;
    // One write, so a TCP_NODELAY socket sends prefix and payload in
    // one segment instead of waking the peer for the prefix alone.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean EOF at a
/// frame boundary (the peer closed between frames).
///
/// # Errors
///
/// [`WireError`] on an oversized length prefix or a mid-frame EOF.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(wire_err("eof inside frame length prefix")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(wire_err(format!("frame length: {e}"))),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(wire_err(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| wire_err(format!("frame body: {e}")))?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------

/// Little-endian byte-string builder for payload encoding.
#[derive(Debug, Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u32`-length-prefixed `u32` slice.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
}

/// Cursor over an encoded payload; every getter advances and checks
/// bounds.
#[derive(Debug)]
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| wire_err("payload truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the payload is exhausted.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the payload is exhausted.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the payload is exhausted.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the payload is exhausted.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the payload is exhausted.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError`] on exhaustion or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| wire_err("string is not utf-8"))
    }

    /// Reads a length-prefixed `u32` vector.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the payload is exhausted.
    pub fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let len = self.u32()? as usize;
        if len > self.bytes.len().saturating_sub(self.pos) / 4 {
            return Err(wire_err("vector length exceeds payload"));
        }
        (0..len).map(|_| self.u32()).collect()
    }

    /// Asserts the payload is fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError`] when trailing bytes remain.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(wire_err(format!(
                "{} trailing byte(s) after payload",
                self.bytes.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------
// Requests
// ---------------------------------------------------------------

/// Which synthesis pipeline a [`Request::Synthesize`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Generator {
    /// The dedicated symbolic-FSM pipeline (espresso + techmap);
    /// the v3 behaviour and the v4 default.
    #[default]
    Fsm,
    /// The runtime-programmable affine AGU: sequence fitted to affine
    /// parameters, any residual synthesized as a side FSM.
    Affine,
}

fn generator_tag(g: Generator) -> u8 {
    match g {
        Generator::Fsm => 0,
        Generator::Affine => 1,
    }
}

fn generator_from_tag(tag: u8) -> Result<Generator, WireError> {
    match tag {
        0 => Ok(Generator::Fsm),
        1 => Ok(Generator::Affine),
        other => Err(wire_err(format!("unknown generator tag {other}"))),
    }
}

fn encoding_tag(e: Encoding) -> u8 {
    match e {
        Encoding::Binary => 0,
        Encoding::Gray => 1,
        Encoding::OneHot => 2,
    }
}

fn encoding_from_tag(tag: u8) -> Result<Encoding, WireError> {
    match tag {
        0 => Ok(Encoding::Binary),
        1 => Ok(Encoding::Gray),
        2 => Ok(Encoding::OneHot),
        other => Err(wire_err(format!("unknown encoding tag {other}"))),
    }
}

/// A client request. The compute kinds (`MapSequence`, `Synthesize`,
/// `Explore`) go through the admission queue and the result cache;
/// the control kinds (`Ping`, `Stats`, `Shutdown`) are answered
/// inline by the connection thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Map a 1-D address sequence onto an SRAG (paper §5), returning
    /// the register grouping `S` and the `dC`/`pC` counts, or the
    /// architectural-restriction violation.
    MapSequence {
        /// The address sequence `I`.
        sequence: Vec<u32>,
    },
    /// Synthesize the cyclic FSM of a sequence through the espresso +
    /// techmap + STA pipeline, returning area/delay numbers.
    Synthesize {
        /// The address sequence to realize (one FSM state per
        /// element).
        sequence: Vec<u32>,
        /// State encoding for the symbolic FSM.
        encoding: Encoding,
        /// Select lines the generator drives (must exceed the largest
        /// address).
        num_lines: u32,
        /// Espresso effort in cube-interaction steps; `0` means the
        /// synthesis default. Part of the cache key: truncated and
        /// full-effort results never alias.
        effort_steps: u64,
        /// Which pipeline realizes the sequence. The affine pipeline
        /// ignores `encoding` (its residual FSM is always binary) but
        /// the field still participates in the canonical bytes.
        generator: Generator,
    },
    /// Evaluate every architecture family on a workload and return
    /// the Pareto-optimal candidates.
    Explore {
        /// The workload's address sequence.
        sequence: Vec<u32>,
        /// Array width (columns).
        width: u32,
        /// Array height (rows).
        height: u32,
        /// Upper bound on sequence length for attempting symbolic-FSM
        /// synthesis (`0` means the explorer default).
        fsm_state_limit: u32,
    },
    /// Server statistics snapshot; answered with [`Response::Stats`].
    Stats,
    /// Graceful shutdown: the server finishes queued work, answers
    /// [`Response::ShuttingDown`] and exits its accept loop.
    Shutdown,
}

impl Request {
    /// The canonical encoding — the cache's content-address input.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Request::Ping => e.u8(0),
            Request::MapSequence { sequence } => {
                e.u8(1);
                e.u32s(sequence);
            }
            Request::Synthesize {
                sequence,
                encoding,
                num_lines,
                effort_steps,
                generator,
            } => {
                e.u8(2);
                e.u32s(sequence);
                e.u8(encoding_tag(*encoding));
                e.u32(*num_lines);
                e.u64(*effort_steps);
                e.u8(generator_tag(*generator));
            }
            Request::Explore {
                sequence,
                width,
                height,
                fsm_state_limit,
            } => {
                e.u8(3);
                e.u32s(sequence);
                e.u32(*width);
                e.u32(*height);
                e.u32(*fsm_state_limit);
            }
            Request::Stats => e.u8(4),
            Request::Shutdown => e.u8(5),
        }
        e.into_bytes()
    }

    /// Decodes a canonical request encoding.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unknown tags, truncation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let mut d = Dec::new(bytes);
        let req = Request::decode_from(&mut d)?;
        d.finish()?;
        Ok(req)
    }

    fn decode_from(d: &mut Dec<'_>) -> Result<Request, WireError> {
        match d.u8()? {
            0 => Ok(Request::Ping),
            1 => Ok(Request::MapSequence {
                sequence: d.u32s()?,
            }),
            2 => Ok(Request::Synthesize {
                sequence: d.u32s()?,
                encoding: encoding_from_tag(d.u8()?)?,
                num_lines: d.u32()?,
                effort_steps: d.u64()?,
                generator: generator_from_tag(d.u8()?)?,
            }),
            3 => Ok(Request::Explore {
                sequence: d.u32s()?,
                width: d.u32()?,
                height: d.u32()?,
                fsm_state_limit: d.u32()?,
            }),
            4 => Ok(Request::Stats),
            5 => Ok(Request::Shutdown),
            other => Err(wire_err(format!("unknown request tag {other}"))),
        }
    }

    /// The espresso effort budget this request pins, for cache
    /// keying. Requests without an effort knob key under `0`.
    pub fn effort_steps(&self) -> u64 {
        match self {
            Request::Synthesize { effort_steps, .. } => *effort_steps,
            _ => 0,
        }
    }

    /// Whether this request goes through the admission queue (and the
    /// result cache) rather than being answered inline.
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            Request::MapSequence { .. } | Request::Synthesize { .. } | Request::Explore { .. }
        )
    }
}

/// Encodes a request frame payload: deadline envelope + canonical
/// request bytes.
pub fn encode_request_frame(req: &Request, deadline_ms: u32) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(deadline_ms);
    let mut bytes = e.into_bytes();
    bytes.extend_from_slice(&req.encode());
    bytes
}

/// Decodes a request frame payload into `(request, deadline_ms)`.
///
/// # Errors
///
/// [`WireError`] as for [`Request::decode`].
pub fn decode_request_frame(payload: &[u8]) -> Result<(Request, u32), WireError> {
    let mut d = Dec::new(payload);
    let deadline_ms = d.u32()?;
    let req = Request::decode_from(&mut d)?;
    d.finish()?;
    Ok((req, deadline_ms))
}

// ---------------------------------------------------------------
// Responses
// ---------------------------------------------------------------

/// The §5 mapping result of a [`Request::MapSequence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapOutcome {
    /// The sequence maps; the SRAG parameters.
    Mapped {
        /// `S`: the select lines grouped onto each shift register, in
        /// token order.
        registers: Vec<Vec<u32>>,
        /// The common division count `dC`.
        div_count: u32,
        /// The common pass count `pC`.
        pass_count: u32,
        /// Select lines the SRAG drives.
        num_lines: u32,
    },
    /// The sequence violates an SRAG architectural restriction.
    Violation {
        /// The typed mapper error, rendered.
        reason: String,
    },
}

/// Area/delay numbers of a [`Request::Synthesize`].
#[derive(Debug, Clone, PartialEq)]
pub struct SynthReport {
    /// Total area, cell units.
    pub area: f64,
    /// Critical-path delay, picoseconds.
    pub delay_ps: f64,
    /// Flip-flop count.
    pub flip_flops: u32,
    /// Whether any espresso run exhausted the request's effort budget
    /// (the netlist is correct but unminimized).
    pub truncated: bool,
}

/// One Pareto-optimal candidate of a [`Request::Explore`].
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateRow {
    /// Architecture family name (display form, e.g. `SRAG`).
    pub architecture: String,
    /// Critical-path delay, picoseconds.
    pub delay_ps: f64,
    /// Total area, cell units.
    pub area: f64,
    /// Flip-flop count.
    pub flip_flops: u32,
}

/// Server-side totals since start, via [`Request::Stats`]. All
/// monotonic; clients diff two snapshots to meter an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `MapSequence` requests admitted.
    pub req_map: u64,
    /// `Synthesize` requests admitted.
    pub req_synthesize: u64,
    /// `Explore` requests admitted.
    pub req_explore: u64,
    /// Control-plane requests (ping/stats/shutdown) handled.
    pub req_control: u64,
    /// Cache lookups answered by the in-memory LRU.
    pub cache_hit_mem: u64,
    /// Cache lookups answered by the on-disk store.
    pub cache_hit_disk: u64,
    /// Cache lookups that fell through to computation.
    pub cache_miss: u64,
    /// Requests answered with a deadline expiration.
    pub deadline_expired: u64,
    /// Admission-queue depth high-water mark.
    pub queue_high_water: u64,
    /// Jobs the workers took from the admission queue.
    pub batches: u64,
    /// Requests rejected at admission because the queue was full.
    pub shed: u64,
    /// Miss groups that coalesced at least one duplicate (the member
    /// whose request was computed).
    pub coalesce_leaders: u64,
    /// Requests answered by another member's computation instead of
    /// their own (single-flight duplicates).
    pub coalesce_waiters: u64,
    /// Disk-tier entries evicted by the size bound.
    pub disk_evictions: u64,
    /// Times the reactor event thread was woken by a completion's
    /// wake datagram.
    pub reactor_wakeups: u64,
    /// Disk-cache entries that failed verification and were
    /// quarantined (corrupt bytes detected, never served).
    pub cache_corrupt: u64,
    /// Disk-cache writes that failed; the entry degraded to
    /// memory-only caching.
    pub disk_write_errors: u64,
    /// Connections closed after sending a malformed frame.
    pub conn_malformed: u64,
    /// Connections reaped by the per-connection I/O deadline.
    pub conn_timed_out: u64,
}

/// A server response, one per request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Mapping result (or restriction violation).
    Mapped(MapOutcome),
    /// Synthesis measurements.
    Synthesized(SynthReport),
    /// Pareto-optimal candidates plus the number of architecture
    /// families that could not implement the workload.
    Explored {
        /// Non-dominated candidates, in the explorer's fixed family
        /// order.
        pareto: Vec<CandidateRow>,
        /// Families rejected (with reasons server-side).
        rejected: u32,
    },
    /// Statistics snapshot.
    Stats(StatsSnapshot),
    /// Shutdown acknowledged; the server drains and exits.
    ShuttingDown,
    /// The request failed with a typed reason.
    Error(ServeError),
}

impl Response {
    /// Encodes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Response::Pong => e.u8(0),
            Response::Mapped(outcome) => {
                e.u8(1);
                match outcome {
                    MapOutcome::Mapped {
                        registers,
                        div_count,
                        pass_count,
                        num_lines,
                    } => {
                        e.u8(0);
                        e.u32(registers.len() as u32);
                        for r in registers {
                            e.u32s(r);
                        }
                        e.u32(*div_count);
                        e.u32(*pass_count);
                        e.u32(*num_lines);
                    }
                    MapOutcome::Violation { reason } => {
                        e.u8(1);
                        e.str(reason);
                    }
                }
            }
            Response::Synthesized(r) => {
                e.u8(2);
                e.f64(r.area);
                e.f64(r.delay_ps);
                e.u32(r.flip_flops);
                e.u8(u8::from(r.truncated));
            }
            Response::Explored { pareto, rejected } => {
                e.u8(3);
                e.u32(pareto.len() as u32);
                for c in pareto {
                    e.str(&c.architecture);
                    e.f64(c.delay_ps);
                    e.f64(c.area);
                    e.u32(c.flip_flops);
                }
                e.u32(*rejected);
            }
            Response::Stats(s) => {
                e.u8(4);
                for v in [
                    s.req_map,
                    s.req_synthesize,
                    s.req_explore,
                    s.req_control,
                    s.cache_hit_mem,
                    s.cache_hit_disk,
                    s.cache_miss,
                    s.deadline_expired,
                    s.queue_high_water,
                    s.batches,
                    s.shed,
                    s.coalesce_leaders,
                    s.coalesce_waiters,
                    s.disk_evictions,
                    s.reactor_wakeups,
                    s.cache_corrupt,
                    s.disk_write_errors,
                    s.conn_malformed,
                    s.conn_timed_out,
                ] {
                    e.u64(v);
                }
            }
            Response::ShuttingDown => e.u8(5),
            Response::Error(err) => {
                e.u8(6);
                match err {
                    ServeError::Deadline { waited_ms } => {
                        e.u8(0);
                        e.u64(*waited_ms);
                    }
                    ServeError::QueueFull { capacity } => {
                        e.u8(1);
                        e.u32(*capacity);
                    }
                    ServeError::VersionMismatch { client, server } => {
                        e.u8(2);
                        e.u16(*client);
                        e.u16(*server);
                    }
                    ServeError::Protocol(msg) => {
                        e.u8(3);
                        e.str(msg);
                    }
                    ServeError::BadRequest(msg) => {
                        e.u8(4);
                        e.str(msg);
                    }
                    ServeError::Internal(msg) => {
                        e.u8(5);
                        e.str(msg);
                    }
                    ServeError::WorkerPanicked(which) => {
                        e.u8(6);
                        e.str(which);
                    }
                    ServeError::MalformedFrame(msg) => {
                        e.u8(7);
                        e.str(msg);
                    }
                    ServeError::IoTimeout { idle_ms } => {
                        e.u8(8);
                        e.u64(*idle_ms);
                    }
                }
            }
        }
        e.into_bytes()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unknown tags, truncation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        let mut d = Dec::new(bytes);
        let resp = match d.u8()? {
            0 => Response::Pong,
            1 => match d.u8()? {
                0 => {
                    let n = d.u32()? as usize;
                    let mut registers = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        registers.push(d.u32s()?);
                    }
                    Response::Mapped(MapOutcome::Mapped {
                        registers,
                        div_count: d.u32()?,
                        pass_count: d.u32()?,
                        num_lines: d.u32()?,
                    })
                }
                1 => Response::Mapped(MapOutcome::Violation { reason: d.str()? }),
                other => return Err(wire_err(format!("unknown map outcome tag {other}"))),
            },
            2 => Response::Synthesized(SynthReport {
                area: d.f64()?,
                delay_ps: d.f64()?,
                flip_flops: d.u32()?,
                truncated: d.u8()? != 0,
            }),
            3 => {
                let n = d.u32()? as usize;
                let mut pareto = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    pareto.push(CandidateRow {
                        architecture: d.str()?,
                        delay_ps: d.f64()?,
                        area: d.f64()?,
                        flip_flops: d.u32()?,
                    });
                }
                Response::Explored {
                    pareto,
                    rejected: d.u32()?,
                }
            }
            4 => Response::Stats(StatsSnapshot {
                req_map: d.u64()?,
                req_synthesize: d.u64()?,
                req_explore: d.u64()?,
                req_control: d.u64()?,
                cache_hit_mem: d.u64()?,
                cache_hit_disk: d.u64()?,
                cache_miss: d.u64()?,
                deadline_expired: d.u64()?,
                queue_high_water: d.u64()?,
                batches: d.u64()?,
                shed: d.u64()?,
                coalesce_leaders: d.u64()?,
                coalesce_waiters: d.u64()?,
                disk_evictions: d.u64()?,
                reactor_wakeups: d.u64()?,
                cache_corrupt: d.u64()?,
                disk_write_errors: d.u64()?,
                conn_malformed: d.u64()?,
                conn_timed_out: d.u64()?,
            }),
            5 => Response::ShuttingDown,
            6 => {
                let err = match d.u8()? {
                    0 => ServeError::Deadline {
                        waited_ms: d.u64()?,
                    },
                    1 => ServeError::QueueFull { capacity: d.u32()? },
                    2 => ServeError::VersionMismatch {
                        client: d.u16()?,
                        server: d.u16()?,
                    },
                    3 => ServeError::Protocol(d.str()?),
                    4 => ServeError::BadRequest(d.str()?),
                    5 => ServeError::Internal(d.str()?),
                    6 => ServeError::WorkerPanicked(d.str()?),
                    7 => ServeError::MalformedFrame(d.str()?),
                    8 => ServeError::IoTimeout { idle_ms: d.u64()? },
                    other => return Err(wire_err(format!("unknown error tag {other}"))),
                };
                Response::Error(err)
            }
            other => return Err(wire_err(format!("unknown response tag {other}"))),
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::MapSequence {
                sequence: vec![0, 0, 1, 1, 2, 2],
            },
            Request::Synthesize {
                sequence: vec![0, 1, 2, 3],
                encoding: Encoding::Gray,
                num_lines: 4,
                effort_steps: 5000,
                generator: Generator::Fsm,
            },
            Request::Synthesize {
                sequence: vec![0, 1, 2, 3],
                encoding: Encoding::Binary,
                num_lines: 4,
                effort_steps: 0,
                generator: Generator::Affine,
            },
            Request::Explore {
                sequence: vec![0, 1, 2, 3],
                width: 2,
                height: 2,
                fsm_state_limit: 16,
            },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Mapped(MapOutcome::Mapped {
                registers: vec![vec![0, 1], vec![2, 3]],
                div_count: 2,
                pass_count: 4,
                num_lines: 4,
            }),
            Response::Mapped(MapOutcome::Violation {
                reason: "division counts differ".to_string(),
            }),
            Response::Synthesized(SynthReport {
                area: 41.5,
                delay_ps: 812.25,
                flip_flops: 3,
                truncated: true,
            }),
            Response::Explored {
                pareto: vec![CandidateRow {
                    architecture: "SRAG".to_string(),
                    delay_ps: 350.0,
                    area: 120.0,
                    flip_flops: 8,
                }],
                rejected: 2,
            },
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
            Response::ShuttingDown,
            Response::Error(ServeError::Deadline { waited_ms: 100 }),
            Response::Error(ServeError::QueueFull { capacity: 64 }),
            Response::Error(ServeError::VersionMismatch {
                client: 2,
                server: 1,
            }),
            Response::Error(ServeError::Protocol("bad tag".to_string())),
            Response::Error(ServeError::BadRequest("empty sequence".to_string())),
            Response::Error(ServeError::Internal("shutting down".to_string())),
            Response::Error(ServeError::WorkerPanicked("dispatcher".to_string())),
            Response::Error(ServeError::MalformedFrame(
                "frame length 99999999 exceeds cap".to_string(),
            )),
            Response::Error(ServeError::IoTimeout { idle_ms: 5000 }),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in all_responses() {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn generators_never_alias_in_the_canonical_bytes() {
        // Cache-key separation: the same sequence synthesized through
        // the FSM and affine pipelines must be distinct requests.
        let make = |generator| Request::Synthesize {
            sequence: vec![0, 1, 2, 3],
            encoding: Encoding::Binary,
            num_lines: 4,
            effort_steps: 0,
            generator,
        };
        assert_ne!(
            make(Generator::Fsm).encode(),
            make(Generator::Affine).encode()
        );
    }

    #[test]
    fn request_frames_carry_the_deadline_outside_the_canonical_bytes() {
        let req = Request::MapSequence {
            sequence: vec![1, 2, 3],
        };
        let a = encode_request_frame(&req, 0);
        let b = encode_request_frame(&req, 250);
        assert_ne!(a, b, "deadline is in the envelope");
        let (ra, da) = decode_request_frame(&a).unwrap();
        let (rb, db) = decode_request_frame(&b).unwrap();
        assert_eq!(ra, rb, "the request itself is identical");
        assert_eq!((da, db), (0, 250));
        // The canonical bytes ignore the envelope entirely.
        assert_eq!(ra.encode(), req.encode());
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let bytes = Request::Synthesize {
            sequence: vec![0, 1],
            encoding: Encoding::Binary,
            num_lines: 2,
            effort_steps: 0,
            generator: Generator::Fsm,
        }
        .encode();
        assert!(Request::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(Request::decode(&padded).is_err());
        assert!(Request::decode(&[99]).is_err(), "unknown tag");
    }

    #[test]
    fn frames_round_trip_and_enforce_the_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean eof");

        let oversize = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut r = std::io::Cursor::new(oversize.to_vec());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn handshake_round_trips() {
        let mut buf = Vec::new();
        write_hello(&mut buf, PROTOCOL_VERSION).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_hello(&mut r).unwrap(), PROTOCOL_VERSION);

        let mut buf = Vec::new();
        write_hello_reply(&mut buf, HANDSHAKE_REJECT_VERSION, 7).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            read_hello_reply(&mut r).unwrap(),
            (HANDSHAKE_REJECT_VERSION, 7)
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut r = std::io::Cursor::new(b"NOPE\x01\x00\x00\x00".to_vec());
        assert!(read_hello(&mut r).is_err());
        let mut r = std::io::Cursor::new(b"NOPE\x01\x00\x00\x00".to_vec());
        assert!(read_hello_reply(&mut r).is_err());
    }
}
