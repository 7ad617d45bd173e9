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
//! ## Payload layouts
//!
//! Each payload type states its layout once, as one row of the
//! `wire!` table at the end of this module's items. A struct row lists
//! its fields in wire order. An enum row lists `tag => Variant { .. }`
//! entries: a variant travels as its `u8` tag, then its fields in the
//! order listed. The table implements the private `Wire` trait, whose
//! `put` encodes and `get` decodes, so the two directions cannot
//! disagree. A new message kind is one entry there, and a new field is
//! one name in its entry, under a [`PROTOCOL_VERSION`] bump.
//!
//! The leaves are primitives. Integers are little-endian, and `f64`
//! travels as its IEEE-754 bit pattern in a `u64`. A `bool` is one
//! byte. A string is a `u32` byte length and UTF-8 bytes, and a vector
//! is a `u32` element count and its elements. Every decoder rejects
//! trailing bytes, so round-tripping is exact and golden tests can
//! byte-compare encodings.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::io::{Read, Write};

use adgen_synth::Encoding;

use crate::error::ServeError;
pub use crate::stats::StatsSnapshot;

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

/// Parses the 8-byte client hello, returning the offered version.
///
/// # Errors
///
/// [`WireError`] on bad magic.
pub fn parse_hello(hello: &[u8; 8]) -> Result<u16, WireError> {
    if hello[..4] != MAGIC {
        return Err(wire_err("hello: bad magic"));
    }
    Ok(u16::from_le_bytes([hello[4], hello[5]]))
}

/// The 8-byte server hello reply.
pub fn hello_reply(status: u8, server_version: u16) -> [u8; 8] {
    let mut reply = [0u8; 8];
    reply[..4].copy_from_slice(&MAGIC);
    reply[4..6].copy_from_slice(&server_version.to_le_bytes());
    reply[6] = status;
    reply
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

/// Decodes a frame's length prefix.
///
/// # Errors
///
/// [`WireError`] when the length exceeds [`MAX_FRAME_LEN`].
pub fn frame_len(prefix: &[u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME_LEN {
        return Err(wire_err(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    Ok(len as usize)
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
    let mut payload = vec![0u8; frame_len(&len_buf)?];
    r.read_exact(&mut payload)
        .map_err(|e| wire_err(format!("frame body: {e}")))?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------

/// A type with a wire layout: `put` appends its encoding, `get` reads
/// it back. Primitives are implemented by hand below; every message
/// type gets its impl from its row in the `wire!` table.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError>;

    /// Reads the `len` elements of a `Vec<Self>`. Composite elements
    /// preallocate at most 4096 slots and fail on the first short one.
    fn get_vec(d: &mut Dec<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(Self::get(d)?);
        }
        Ok(v)
    }
}

/// Cursor over an encoded payload: the bytes not yet read. Every read
/// advances it and checks bounds.
#[derive(Debug)]
struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| wire_err("payload truncated"))?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .0
            .split_first_chunk()
            .ok_or_else(|| wire_err("payload truncated"))?;
        self.0 = rest;
        Ok(*head)
    }

    /// Fails when trailing bytes remain.
    fn finish(self) -> Result<(), WireError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(wire_err(format!("{n} trailing byte(s) after payload"))),
        }
    }
}

/// Little-endian integers. A vector of them is checked against the
/// bytes left before it allocates.
macro_rules! le_ints {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(d.array()?))
            }

            fn get_vec(d: &mut Dec<'_>, len: usize) -> Result<Vec<Self>, WireError> {
                if len > d.0.len() / size_of::<$t>() {
                    return Err(wire_err("vector length exceeds payload"));
                }
                (0..len).map(|_| Self::get(d)).collect()
            }
        }
    )+};
}

le_ints!(u8, u16, u32, u64);

/// The IEEE-754 bit pattern, as a `u64`.
impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        u64::get(d).map(f64::from_bits)
    }
}

/// One byte; any nonzero byte reads as `true`.
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(u8::get(d)? != 0)
    }
}

/// A `u32` byte length, then the UTF-8 bytes.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let len = u32::get(d)? as usize;
        String::from_utf8(d.take(len)?.to_vec()).map_err(|_| wire_err("string is not utf-8"))
    }
}

/// A `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for v in self {
            v.put(out);
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let len = u32::get(d)? as usize;
        T::get_vec(d, len)
    }
}

/// Every counter as a `u64`, in the `counters!` table's row order.
impl Wire for StatsSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        for (_, _, v) in self.rows() {
            v.put(out);
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        StatsSnapshot::read(|| u64::get(d))
    }
}

/// The encoding of `value`.
fn encode(value: &impl Wire) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decodes one `T` that fills `bytes` exactly.
fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Dec(bytes);
    let value = T::get(&mut d)?;
    d.finish()?;
    Ok(value)
}

/// Implements [`Wire`] for each listed type from its layout, given
/// once: a struct's fields in wire order, or an enum's variants as
/// `tag => Variant` rows, each with its fields in wire order. A
/// variant is its `u8` tag followed by its fields; an unknown tag
/// decodes to "unknown {what} tag {tag}". Every field must be named,
/// so a field added to a type without a row fails to compile.
macro_rules! wire {
    () => {};
    (struct $ty:ident { $($field:ident),* } $($rest:tt)*) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($field),* } = self;
                $($field.put(out);)*
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
                $(let $field = Wire::get(d)?;)*
                Ok($ty { $($field),* })
            }
        }
        wire!($($rest)*);
    };
    (enum $ty:ident as $what:literal {
        $($tag:literal => $variant:ident $({ $($field:ident),* })? $(($($pos:ident),*))?,)*
    } $($rest:tt)*) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(($($pos),*))? => {
                        out.push($tag);
                        $($($field.put(out);)*)?
                        $($($pos.put(out);)*)?
                    })*
                }
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
                match u8::get(d)? {
                    $($tag => {
                        $($(let $field = Wire::get(d)?;)*)?
                        $($(let $pos = Wire::get(d)?;)*)?
                        Ok($ty::$variant $({ $($field),* })? $(($($pos),*))?)
                    })*
                    other => Err(wire_err(format!(concat!("unknown ", $what, " tag {}"), other))),
                }
            }
        }
        wire!($($rest)*);
    };
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
        encode(self)
    }

    /// Decodes a canonical request encoding.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unknown tags, truncation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        decode(bytes)
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
    let mut out = encode(&deadline_ms);
    req.put(&mut out);
    out
}

/// Decodes a request frame payload into `(request, deadline_ms)`.
///
/// # Errors
///
/// [`WireError`] as for [`Request::decode`].
pub fn decode_request_frame(payload: &[u8]) -> Result<(Request, u32), WireError> {
    let mut d = Dec(payload);
    let deadline_ms = u32::get(&mut d)?;
    let req = Request::get(&mut d)?;
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
        encode(self)
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unknown tags, truncation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        decode(bytes)
    }
}

// ---------------------------------------------------------------
// Wire layouts
// ---------------------------------------------------------------

wire! {
    enum Generator as "generator" {
        0 => Fsm,
        1 => Affine,
    }
    enum Encoding as "encoding" {
        0 => Binary,
        1 => Gray,
        2 => OneHot,
    }
    enum Request as "request" {
        0 => Ping,
        1 => MapSequence { sequence },
        2 => Synthesize { sequence, encoding, num_lines, effort_steps, generator },
        3 => Explore { sequence, width, height, fsm_state_limit },
        4 => Stats,
        5 => Shutdown,
    }
    enum MapOutcome as "map outcome" {
        0 => Mapped { registers, div_count, pass_count, num_lines },
        1 => Violation { reason },
    }
    struct SynthReport { area, delay_ps, flip_flops, truncated }
    struct CandidateRow { architecture, delay_ps, area, flip_flops }
    enum Response as "response" {
        0 => Pong,
        1 => Mapped(outcome),
        2 => Synthesized(report),
        3 => Explored { pareto, rejected },
        4 => Stats(stats),
        5 => ShuttingDown,
        6 => Error(error),
    }
    enum ServeError as "error" {
        0 => Deadline { waited_ms },
        1 => QueueFull { capacity },
        2 => VersionMismatch { client, server },
        3 => Protocol(msg),
        4 => BadRequest(msg),
        5 => Internal(msg),
        6 => WorkerPanicked(which),
        7 => MalformedFrame(msg),
        8 => IoTimeout { idle_ms },
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
    fn decode_errors_keep_their_exact_text() {
        // Request-side texts reach clients inside `MalformedFrame`, so
        // they are wire bytes too.
        let req = |bytes: &[u8]| Request::decode(bytes).unwrap_err().0;
        let resp = |bytes: &[u8]| Response::decode(bytes).unwrap_err().0;
        // Synthesize [0, 1] with the given encoding and generator tags.
        let synth = |encoding: u8, generator: u8| {
            let mut b = vec![2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, encoding];
            b.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, generator]);
            b
        };
        assert_eq!(synth(0, 0), {
            let ok = Request::Synthesize {
                sequence: vec![0, 1],
                encoding: Encoding::Binary,
                num_lines: 2,
                effort_steps: 0,
                generator: Generator::Fsm,
            };
            ok.encode()
        });
        let cases: [(String, &str); 15] = [
            (req(&[]), "payload truncated"),
            (resp(&[]), "payload truncated"),
            (req(&[99]), "unknown request tag 99"),
            (resp(&[99]), "unknown response tag 99"),
            (resp(&[1, 7]), "unknown map outcome tag 7"),
            (resp(&[6, 9]), "unknown error tag 9"),
            (req(&synth(3, 0)), "unknown encoding tag 3"),
            (req(&synth(0, 2)), "unknown generator tag 2"),
            (
                req(&[1, 2, 0, 0, 0, 7, 0, 0]),
                "vector length exceeds payload",
            ),
            (
                req(&[1, 0xff, 0xff, 0xff, 0xff]),
                "vector length exceeds payload",
            ),
            // Two registers announced, one present.
            (
                resp(&[1, 0, 2, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0]),
                "payload truncated",
            ),
            (resp(&[1, 1, 2, 0, 0, 0, b'o', 0xff]), "string is not utf-8"),
            (req(&[0, 0]), "1 trailing byte(s) after payload"),
            (
                decode_request_frame(&[0, 0, 0]).unwrap_err().0,
                "payload truncated",
            ),
            (
                decode_request_frame(&[0, 0, 0, 0, 4, 4]).unwrap_err().0,
                "1 trailing byte(s) after payload",
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
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
        assert_eq!(
            frame_len(&oversize).unwrap_err().0,
            "frame length 16777217 exceeds cap 16777216"
        );
        assert_eq!(frame_len(&MAX_FRAME_LEN.to_le_bytes()), Ok(1 << 24));
    }

    #[test]
    fn handshake_round_trips() {
        let mut buf = Vec::new();
        write_hello(&mut buf, PROTOCOL_VERSION).unwrap();
        let hello: [u8; 8] = buf.try_into().unwrap();
        assert_eq!(parse_hello(&hello).unwrap(), PROTOCOL_VERSION);

        let reply = hello_reply(HANDSHAKE_REJECT_VERSION, 7);
        let mut r = std::io::Cursor::new(reply.to_vec());
        assert_eq!(
            read_hello_reply(&mut r).unwrap(),
            (HANDSHAKE_REJECT_VERSION, 7)
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(parse_hello(b"NOPE\x01\x00\x00\x00").is_err());
        let mut r = std::io::Cursor::new(b"NOPE\x01\x00\x00\x00".to_vec());
        assert!(read_hello_reply(&mut r).is_err());
    }
}
