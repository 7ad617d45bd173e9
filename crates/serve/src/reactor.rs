//! Readiness-driven connection multiplexing: one epoll event thread
//! in place of a thread per client.
//!
//! ## Why a reactor
//!
//! The first serving layer gave every accepted connection its own
//! blocking thread. That is simple and correct, but a thread costs a
//! stack and a scheduler slot, so "thousands of mostly-idle framed
//! connections" — the shape a compilation cache serves once results
//! are warm — turns into thousands of threads doing nothing. The
//! reactor inverts this: sockets are nonblocking, a readiness source
//! says which of them have work, and one event thread runs a
//! per-connection state machine (`Conn`) over exactly the ready
//! ones.
//!
//! ## One backend
//!
//! The readiness source is `epoll`: a single event thread multiplexes
//! the listener, a UDP wake socket and every connection through a thin
//! raw-FFI shim over `epoll_create1`/`epoll_ctl`/`epoll_wait`
//! (declared directly against the libc symbols the std runtime already
//! links; no external crate). The crate is therefore Linux-only: a
//! portable polling backend measured several times slower on the warm
//! path (EXPERIMENTS.md, "Overload run"), so none is kept.
//!
//! ## Replies without blocking
//!
//! A compute request parsed on the event thread is first looked up in
//! the result cache's memory tier (`Shared::admit`); a hit is
//! answered on the spot, without a queue, a worker or a wake-up. A
//! miss cannot block on a channel waiting for a worker (that would
//! stall every other connection). Instead it takes a *ticket* in the
//! connection's ordered slot queue and carries a `Reply` handle; the
//! worker completes the ticket through the `CompletionQueue`, which
//! wakes the event thread with a UDP datagram. Slots are flushed
//! strictly in order, so a connection that pipelines requests still
//! receives responses in request order: a hit behind a miss is ready
//! at once but leaves only after the miss's answer.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::protocol::{self, Request, Response, HANDSHAKE_OK, HANDSHAKE_REJECT_VERSION};
use crate::server::Shared;

/// Bytes read per `read` call on a ready socket.
const READ_CHUNK: usize = 16 * 1024;

/// Most response slots (answered or in flight) a single connection
/// may hold before the reactor stops reading from it — natural
/// backpressure against a client that pipelines without draining.
const MAX_PIPELINED: usize = 128;

// ---------------------------------------------------------------
// Completions
// ---------------------------------------------------------------

/// One finished compute result on its way back to a connection.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) ticket: u64,
    pub(crate) payload: Vec<u8>,
}

/// The mailbox between the workers and the event thread. Every push
/// sends a 1-byte datagram to the event loop's wake socket.
pub(crate) struct CompletionQueue {
    pending: Mutex<Vec<Completion>>,
    wake_tx: UdpSocket,
}

impl CompletionQueue {
    fn new(wake_tx: UdpSocket) -> CompletionQueue {
        CompletionQueue {
            pending: Mutex::new(Vec::new()),
            wake_tx,
        }
    }

    /// A queue wired to a fresh loopback wake socket, which is returned
    /// alongside so the caller keeps the receiving end alive.
    #[cfg(test)]
    pub(crate) fn loopback() -> (Arc<CompletionQueue>, UdpSocket) {
        let (wake_rx, wake_tx) = wake_pair().expect("loopback wake sockets");
        (Arc::new(CompletionQueue::new(wake_tx)), wake_rx)
    }

    fn push(&self, completion: Completion) {
        self.pending
            .lock()
            .expect("completion lock")
            .push(completion);
        // A failed wake datagram is recovered by the loop's tick
        // timeout; losing it costs latency, never correctness.
        let _ = self.wake_tx.send(&[1]);
    }

    pub(crate) fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.pending.lock().expect("completion lock"))
    }
}

/// A nonblocking receive socket and a send socket connected to it.
fn wake_pair() -> std::io::Result<(UdpSocket, UdpSocket)> {
    let wake_rx = UdpSocket::bind("127.0.0.1:0")?;
    wake_rx.set_nonblocking(true)?;
    let wake_tx = UdpSocket::bind("127.0.0.1:0")?;
    wake_tx.connect(wake_rx.local_addr()?)?;
    Ok((wake_rx, wake_tx))
}

/// A worker's handle for answering one admitted request.
/// Consumed by [`send`](Reply::send); a reply whose connection has
/// since died is silently dropped by the event thread.
pub(crate) struct Reply {
    queue: Arc<CompletionQueue>,
    conn: u64,
    ticket: u64,
}

impl Reply {
    pub(crate) fn new(queue: Arc<CompletionQueue>, conn: u64, ticket: u64) -> Reply {
        Reply {
            queue,
            conn,
            ticket,
        }
    }

    /// Routes `payload` back to the owning event thread.
    pub(crate) fn send(self, payload: Vec<u8>) {
        let completion = Completion {
            conn: self.conn,
            ticket: self.ticket,
            payload,
        };
        self.queue.push(completion);
    }
}

// ---------------------------------------------------------------
// The per-connection state machine
// ---------------------------------------------------------------

/// An ordered response slot: responses leave in request order even
/// when compute results complete out of order.
enum Slot {
    /// Encoded response frame payload, ready to flush.
    Ready(Vec<u8>),
    /// Waiting on a worker to complete this ticket.
    Pending(u64),
}

/// One nonblocking connection: input buffer, handshake/frame parsing,
/// ordered response slots and a partially-flushed output buffer.
struct Conn {
    stream: TcpStream,
    id: u64,
    completions: Arc<CompletionQueue>,
    inbuf: Vec<u8>,
    /// Parse cursor into `inbuf`; consumed bytes are compacted away
    /// once the buffer is fully parsed.
    inpos: usize,
    outbuf: Vec<u8>,
    outpos: usize,
    hello_done: bool,
    /// Flush what is queued, then close (protocol error, handshake
    /// reject, or a `Shutdown` acknowledgement).
    closing: bool,
    dead: bool,
    slots: VecDeque<Slot>,
    next_ticket: u64,
    /// Last time this connection made *protocol* progress: creation,
    /// a completed handshake or frame parse, a completion delivery,
    /// or response bytes accepted by the socket. Raw reads that never
    /// complete a frame deliberately do not count, so a slowloris
    /// trickling one byte per tick still ages toward the reap.
    last_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream, id: u64, completions: Arc<CompletionQueue>) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        // Nagle + delayed ACK would put a ~40 ms floor under small
        // response frames, burying cache-hit latency.
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            id,
            completions,
            inbuf: Vec::new(),
            inpos: 0,
            outbuf: Vec::new(),
            outpos: 0,
            hello_done: false,
            closing: false,
            dead: false,
            slots: VecDeque::new(),
            next_ticket: 0,
            last_progress: Instant::now(),
        })
    }

    fn alive(&self) -> bool {
        !self.dead
    }

    /// Reads everything currently available, parses complete frames,
    /// and flushes whatever became ready. Returns `true` when any
    /// byte moved in either direction.
    fn service(&mut self, shared: &Shared) -> bool {
        let mut progress = false;
        let mut chunk = [0u8; READ_CHUNK];
        while !self.closing && !self.dead && self.slots.len() < MAX_PIPELINED {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed. Anything still in flight can never
                    // be delivered; drop the connection (the blocking
                    // implementation behaved identically).
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.parse_input(shared);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progress |= self.flush_and_parse(shared);
        progress
    }

    /// Flushes ready slots, then keeps parsing frames still buffered
    /// in `inbuf` as slots free up. `parse_input` stops at
    /// [`MAX_PIPELINED`] slots with later frames possibly already
    /// read; once the socket is drained no readiness event will
    /// arrive for them, so whoever frees slots must parse them.
    /// Returns `true` when bytes were written.
    fn flush_and_parse(&mut self, shared: &Shared) -> bool {
        let mut wrote = self.pump_out();
        while !self.dead
            && !self.closing
            && self.slots.len() < MAX_PIPELINED
            && !self.inbuf.is_empty()
        {
            let buffered = self.inbuf.len();
            self.parse_input(shared);
            wrote |= self.pump_out();
            if self.inbuf.len() == buffered {
                break; // only a partial frame (or hello) is left
            }
        }
        wrote
    }

    /// The epoll interest set for this connection's current state.
    /// Read interest is dropped while every slot is taken: the socket
    /// stays readable, and level-triggered epoll would otherwise
    /// return it on every wait while [`service`](Conn::service)
    /// refuses to read. A completion frees a slot and re-arms it.
    fn interest(&self) -> u32 {
        let mut interest = 0;
        if self.slots.len() < MAX_PIPELINED {
            interest |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.outpos < self.outbuf.len() {
            interest |= sys::EPOLLOUT;
        }
        interest
    }

    /// Parses the handshake and every complete frame sitting in
    /// `inbuf`.
    fn parse_input(&mut self, shared: &Shared) {
        if !self.hello_done {
            if self.inbuf.len() - self.inpos < 8 {
                return;
            }
            let hello = &self.inbuf[self.inpos..self.inpos + 8];
            match protocol::read_hello(&mut std::io::Cursor::new(hello)) {
                Ok(version) if version == protocol::PROTOCOL_VERSION => {
                    let mut reply = Vec::with_capacity(8);
                    protocol::write_hello_reply(
                        &mut reply,
                        HANDSHAKE_OK,
                        protocol::PROTOCOL_VERSION,
                    )
                    .expect("vec write");
                    self.outbuf.extend_from_slice(&reply);
                    self.hello_done = true;
                    self.last_progress = Instant::now();
                }
                Ok(_) => {
                    let mut reply = Vec::with_capacity(8);
                    protocol::write_hello_reply(
                        &mut reply,
                        HANDSHAKE_REJECT_VERSION,
                        protocol::PROTOCOL_VERSION,
                    )
                    .expect("vec write");
                    self.outbuf.extend_from_slice(&reply);
                    self.closing = true;
                }
                Err(_) => {
                    // Bad magic: close without a reply, as the
                    // blocking implementation did — but count it, so
                    // garbage aimed at the handshake is observable.
                    shared.stats.conn_malformed.fetch_add(1, Ordering::Relaxed);
                    self.dead = true;
                    return;
                }
            }
            self.inpos += 8;
        }
        while self.hello_done && !self.closing && self.slots.len() < MAX_PIPELINED {
            let avail = self.inbuf.len() - self.inpos;
            if avail < 4 {
                break;
            }
            let len_bytes: [u8; 4] = self.inbuf[self.inpos..self.inpos + 4]
                .try_into()
                .expect("four bytes");
            let len = u32::from_le_bytes(len_bytes);
            if len > protocol::MAX_FRAME_LEN {
                shared.stats.conn_malformed.fetch_add(1, Ordering::Relaxed);
                let err = Response::Error(ServeError::MalformedFrame(format!(
                    "frame length {len} exceeds cap {}",
                    protocol::MAX_FRAME_LEN
                )));
                self.slots.push_back(Slot::Ready(err.encode()));
                self.closing = true;
                break;
            }
            if avail - 4 < len as usize {
                break;
            }
            let start = self.inpos + 4;
            let payload: Vec<u8> = self.inbuf[start..start + len as usize].to_vec();
            self.inpos = start + len as usize;
            self.last_progress = Instant::now();
            self.handle_frame(shared, &payload);
        }
        // Compact once everything parseable is consumed, so the
        // buffer never grows with the connection's lifetime.
        if self.inpos > 0 {
            self.inbuf.drain(..self.inpos);
            self.inpos = 0;
        }
    }

    /// Dispatches one request frame: control kinds and memory-tier
    /// hits answered inline, other compute requests admitted with a
    /// ticket.
    fn handle_frame(&mut self, shared: &Shared, payload: &[u8]) {
        let (request, deadline_ms) = match protocol::decode_request_frame(payload) {
            Ok(x) => x,
            Err(e) => {
                shared.stats.conn_malformed.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error(ServeError::MalformedFrame(e.0));
                self.slots.push_back(Slot::Ready(resp.encode()));
                self.closing = true;
                return;
            }
        };
        if request.is_compute() {
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            let reply = Reply::new(Arc::clone(&self.completions), self.id, ticket);
            match shared.admit(request, deadline_ms, reply) {
                Ok(Some(hit)) => self.slots.push_back(Slot::Ready(hit)),
                Ok(None) => self.slots.push_back(Slot::Pending(ticket)),
                Err(e) => self
                    .slots
                    .push_back(Slot::Ready(Response::Error(e).encode())),
            }
        } else {
            shared.stats.req_control.fetch_add(1, Ordering::Relaxed);
            match request {
                Request::Ping => self.slots.push_back(Slot::Ready(Response::Pong.encode())),
                Request::Stats => self.slots.push_back(Slot::Ready(
                    Response::Stats(shared.stats.snapshot()).encode(),
                )),
                Request::Shutdown => {
                    self.slots
                        .push_back(Slot::Ready(Response::ShuttingDown.encode()));
                    self.closing = true;
                    crate::server::initiate_shutdown(shared);
                }
                _ => unreachable!("compute kinds handled above"),
            }
        }
    }

    /// Marks a pending ticket as answered.
    fn deliver(&mut self, ticket: u64, payload: Vec<u8>) {
        for slot in &mut self.slots {
            if matches!(slot, Slot::Pending(t) if *t == ticket) {
                *slot = Slot::Ready(payload);
                self.last_progress = Instant::now();
                return;
            }
        }
        // A ticket with no slot means the slot queue was already
        // answered-and-dropped (impossible today) — ignore.
    }

    /// Moves ready slots into the output buffer (in order, stopping
    /// at the first still-pending slot) and writes as much as the
    /// socket accepts. Returns `true` when bytes were written.
    fn pump_out(&mut self) -> bool {
        while let Some(Slot::Ready(_)) = self.slots.front() {
            let Some(Slot::Ready(payload)) = self.slots.pop_front() else {
                unreachable!("front checked above");
            };
            self.outbuf
                .extend_from_slice(&(payload.len() as u32).to_le_bytes());
            self.outbuf.extend_from_slice(&payload);
        }
        let mut wrote = false;
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.outpos += n;
                    self.last_progress = Instant::now();
                    wrote = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.outpos == self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
            if self.closing {
                self.dead = true;
            }
        }
        wrote
    }

    /// Applies the per-connection staleness deadline. Returns `true`
    /// when the connection was reaped (it is dead afterwards).
    ///
    /// Connections with a request in flight at a worker are
    /// never reaped — the stall is the server's, not the peer's. A
    /// reaped connection holding half a frame (a slowloris, or a
    /// stalled sender) is told why with a typed
    /// [`ServeError::IoTimeout`] on a best-effort flush; a connection
    /// that is simply idle is closed silently, exactly as a polite
    /// peer would experience an ordinary server-side close.
    fn maybe_reap(&mut self, shared: &Shared, now: Instant, idle: Duration) -> bool {
        if self.dead {
            return false;
        }
        if self.slots.iter().any(|s| matches!(s, Slot::Pending(_))) {
            return false;
        }
        let stale = now.duration_since(self.last_progress);
        if stale < idle {
            return false;
        }
        shared.stats.conn_timed_out.fetch_add(1, Ordering::Relaxed);
        // A typed reply only makes sense after the handshake — a
        // pre-handshake peer is expecting a hello reply, not a frame.
        if self.hello_done && !self.inbuf.is_empty() {
            let err = Response::Error(ServeError::IoTimeout {
                idle_ms: stale.as_millis() as u64,
            });
            self.slots.push_back(Slot::Ready(err.encode()));
            self.closing = true;
            self.pump_out();
        }
        // Dead regardless of whether the reply flushed: a peer that
        // also stopped reading must not pin the connection open.
        self.dead = true;
        true
    }
}

/// Sweeps every connection through [`Conn::maybe_reap`]; no-op when
/// the config disables reaping. Returns the ids that were reaped so
/// the event loop can deregister them.
fn reap_stale(conns: &mut HashMap<u64, Conn>, shared: &Shared) -> Vec<u64> {
    let idle_ms = shared.config.conn_idle_ms;
    if idle_ms == 0 || conns.is_empty() {
        return Vec::new();
    }
    let now = Instant::now();
    let idle = Duration::from_millis(idle_ms);
    let mut reaped = Vec::new();
    for (id, conn) in conns.iter_mut() {
        if conn.maybe_reap(shared, now, idle) {
            reaped.push(*id);
        }
    }
    reaped
}

/// Delivers a drained batch of completions into `conns`, flushes the
/// touched connections and parses any frames they had buffered behind
/// a full slot queue. Completions for connections that died in the
/// meantime are dropped.
fn deliver_completions(
    conns: &mut HashMap<u64, Conn>,
    completions: Vec<Completion>,
    shared: &Shared,
) {
    for completion in completions {
        if let Some(conn) = conns.get_mut(&completion.conn) {
            conn.deliver(completion.ticket, completion.payload);
            conn.flush_and_parse(shared);
        }
    }
}

// ---------------------------------------------------------------
// The epoll event loop
// ---------------------------------------------------------------

mod sys {
    //! A minimal FFI shim over the three epoll syscalls, declared
    //! directly against the libc symbols the std runtime links — no
    //! external crate, no feature gates.

    use std::os::fd::RawFd;

    /// `struct epoll_event`. Packed on x86-64 (as glibc declares it);
    /// naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct Event {
        /// Readiness bit set (`EPOLLIN` | …).
        pub events: u32,
        /// The caller's token, returned verbatim.
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
        fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Readable.
    pub const EPOLLIN: u32 = 0x1;
    /// Writable.
    pub const EPOLLOUT: u32 = 0x4;
    /// Error condition (always reported; no need to register).
    pub const EPOLLERR: u32 = 0x8;
    /// Hangup.
    pub const EPOLLHUP: u32 = 0x10;
    /// Peer shut down its write half.
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    /// An owned epoll instance.
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// Creates the epoll instance (close-on-exec).
        pub fn new() -> std::io::Result<Epoll> {
            // SAFETY: takes only an integer flag and touches no memory.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> std::io::Result<()> {
            let mut event = Event {
                events: interest,
                data: token,
            };
            // SAFETY: `event` is a live, correctly laid out
            // `epoll_event` the kernel only reads during the call.
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` with `interest`, tagging events with
        /// `token`.
        pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        /// Changes the interest set of a registered `fd`.
        pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        /// Deregisters `fd`.
        pub fn del(&self, fd: RawFd) {
            let mut event = Event { events: 0, data: 0 };
            // SAFETY: as in `ctl`; DEL ignores the event contents.
            let _ = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut event) };
        }

        /// Waits up to `timeout_ms` for events, filling `events` and
        /// returning how many arrived. Retries on `EINTR`.
        pub fn wait(&self, events: &mut [Event], timeout_ms: i32) -> std::io::Result<usize> {
            loop {
                // SAFETY: the kernel writes at most `events.len()`
                // entries into the exclusively borrowed slice.
                let n = unsafe {
                    epoll_wait(
                        self.fd,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    return Ok(n as usize);
                }
                let err = std::io::Error::last_os_error();
                if err.kind() != std::io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `fd` is owned by this value and closed once.
            let _ = unsafe { close(self.fd) };
        }
    }
}

/// The single epoll event thread. Constructed in [`crate::serve`] so
/// setup failures surface at bind time, then moved into the io
/// thread.
pub(crate) struct EpollIo {
    ep: sys::Epoll,
    listener: TcpListener,
    wake_rx: UdpSocket,
    completions: Arc<CompletionQueue>,
}

impl EpollIo {
    const TOKEN_LISTENER: u64 = 0;
    const TOKEN_WAKER: u64 = 1;
    const FIRST_CONN: u64 = 2;

    /// Builds the epoll set: listener + wake socket registered, no
    /// connections yet.
    pub(crate) fn new(listener: TcpListener) -> std::io::Result<EpollIo> {
        use std::os::fd::AsRawFd;

        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = wake_pair()?;

        let ep = sys::Epoll::new()?;
        ep.add(listener.as_raw_fd(), sys::EPOLLIN, Self::TOKEN_LISTENER)?;
        ep.add(wake_rx.as_raw_fd(), sys::EPOLLIN, Self::TOKEN_WAKER)?;

        Ok(EpollIo {
            ep,
            listener,
            wake_rx,
            completions: Arc::new(CompletionQueue::new(wake_tx)),
        })
    }

    /// Runs the event loop until shutdown completes (flag set and
    /// every connection drained).
    pub(crate) fn run(self, shared: &Shared) {
        use std::os::fd::AsRawFd;

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id = Self::FIRST_CONN;
        let mut events = vec![sys::Event { events: 0, data: 0 }; 256];
        let mut touched: Vec<u64> = Vec::new();
        let mut listener_registered = true;

        // The 50 ms tick bounds how stale a lost wake datagram or an
        // externally-set shutdown flag can be.
        while let Ok(n) = self.ep.wait(&mut events, 50) {
            touched.clear();
            for event in &events[..n] {
                // Copy out of the (possibly packed) event first.
                let (token, bits) = (event.data, event.events);
                match token {
                    Self::TOKEN_LISTENER => {
                        if shared.is_shutdown() {
                            continue;
                        }
                        loop {
                            match self.listener.accept() {
                                Ok((stream, _)) => {
                                    let id = next_id;
                                    next_id += 1;
                                    let Ok(conn) =
                                        Conn::new(stream, id, Arc::clone(&self.completions))
                                    else {
                                        continue;
                                    };
                                    let fd = conn.stream.as_raw_fd();
                                    if self.ep.add(fd, conn.interest(), id).is_ok() {
                                        conns.insert(id, conn);
                                    }
                                }
                                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                                Err(_) => break,
                            }
                        }
                    }
                    Self::TOKEN_WAKER => {
                        shared.stats.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
                        let mut buf = [0u8; 64];
                        while self.wake_rx.recv(&mut buf).is_ok() {}
                    }
                    id => {
                        if let Some(conn) = conns.get_mut(&id) {
                            if bits
                                & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                                != 0
                            {
                                conn.service(shared);
                            } else {
                                conn.pump_out();
                            }
                            touched.push(id);
                        }
                    }
                }
            }

            // Completions can arrive with any event (or the tick);
            // always drain.
            let completed = self.completions.drain();
            touched.extend(completed.iter().map(|c| c.conn));
            deliver_completions(&mut conns, completed, shared);

            // Reconcile interest and reap the dead, but only for
            // connections something happened to.
            touched.sort_unstable();
            touched.dedup();
            for id in touched.drain(..) {
                let Some(conn) = conns.get_mut(&id) else {
                    continue;
                };
                if !conn.alive() {
                    self.ep.del(conn.stream.as_raw_fd());
                    conns.remove(&id);
                    continue;
                }
                let _ = self.ep.modify(conn.stream.as_raw_fd(), conn.interest(), id);
            }

            // Staleness sweep: the 50 ms tick guarantees this runs
            // even when no fd is ready, so idle peers cannot hide
            // behind a silent epoll set.
            for id in reap_stale(&mut conns, shared) {
                if let Some(conn) = conns.remove(&id) {
                    self.ep.del(conn.stream.as_raw_fd());
                }
            }

            if shared.is_shutdown() {
                if listener_registered {
                    // Stop watching the listener so a backlog of
                    // unaccepted connections cannot spin the loop
                    // while the live ones drain.
                    self.ep.del(self.listener.as_raw_fd());
                    listener_registered = false;
                }
                if conns.is_empty() {
                    break;
                }
            }
        }
    }
}
