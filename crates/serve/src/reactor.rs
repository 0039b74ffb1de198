//! `serve::reactor` — the std-only epoll event loop that serves every
//! connection.
//!
//! One reactor thread owns every socket. `epoll_wait` reports readiness;
//! the loop accepts nonblocking connections, feeds readable sockets
//! through their [`ConnState`] frame machines, and decodes each frame
//! when it becomes its connection's turn. What happens next depends on
//! the request's class ([`Request::runs_inline`]), fixed per endpoint:
//!
//! - **Inline** (ping, health, ready, point/segment/route summaries,
//!   eta — bounded cost, a few µs): the loop itself pins the snapshot,
//!   executes and encodes, inside a `catch_unwind` boundary, and puts
//!   the reply straight into the connection's write buffer. No thread
//!   hand-off, no eventfd round trip.
//! - **Pool** (scans, destination prediction, stats, batches — cost
//!   grows with the data or the request): the decoded request goes to
//!   the bounded worker pool. Workers never touch sockets: they execute
//!   against a per-frame-pinned snapshot, push the encoded response onto
//!   a completion queue and ring an `eventfd`; the loop wakes and moves
//!   the bytes into the write buffer.
//!
//! Either way the loop flushes with `EPOLLOUT` re-arming, so a peer that
//! stops reading slows only itself, and a connection has at most one
//! request executing at a time, so replies leave in request order.
//!
//! Backpressure is load-shedding *at the loop*, for pool-class requests
//! only (inline requests never queue, so they take no slot): before one
//! is enqueued the loop takes an admission slot (`worker_threads +
//! max_pending` of them); when the slots are gone the request is
//! answered with an immediate typed `Busy` frame and never queued.
//! [`AdmitGuard`] releases the slot on drop, so a worker killed
//! mid-request (the `serve.worker.kill` chaos fault) cannot leak one,
//! and the `CompletionGuard` below pushes a close-the-connection
//! completion from its own drop, so a killed request cannot wedge its
//! connection either. The inline path fires the same failpoint under
//! its `catch_unwind` and has the same outcome: that one connection
//! closes without a reply, and the loop keeps serving.
//!
//! A frame that fails to decode is answered on the loop with one typed
//! `Error`, in its place in the connection's order, and the connection
//! closes once it has flushed.
//!
//! Shutdown ordering: `READY` flips (the `Server` marks draining before
//! raising the stop flag), the loop drops the listener, in-flight and
//! already-buffered requests are answered, idle-at-a-frame-boundary
//! connections close, and the drain deadline bounds a peer that streams
//! forever.
//!
//! The epoll/eventfd bindings are declared `extern "C"` in the style of
//! [`crate::mmap`] — std already links libc on every Linux target. The
//! module is Linux-only; [`EventLoop::new`] runs on the caller's thread
//! so set-up failures surface as `Server::start*` errors.

use crate::conn::{ConnState, ReadEvent};
use crate::metrics::ServerMetrics;
use crate::proto::{decode_request, encode_response, Request, Response};
use crate::server::{InventoryService, ServerConfig};
use parking_lot::{Mutex, RwLock};
use pol_engine::ThreadPool;
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Releases one admission slot when dropped. Holding the decrement in a
/// `Drop` guard keeps the admission count honest even when a worker
/// panics — an injected `serve.worker.kill` fault unwinds through the
/// pool's `catch_unwind`, and without the guard every kill would leak a
/// slot until the cap starved the server into shedding everything.
struct AdmitGuard(Arc<AtomicUsize>);

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One finished request, handed from a worker back to the loop.
struct Completion {
    /// Which connection asked.
    token: u64,
    /// Encoded response payload; `None` aborts the connection without a
    /// reply (a killed worker).
    reply: Option<Vec<u8>>,
}

/// State shared between the loop and the pool workers.
struct LoopShared {
    /// Finished requests awaiting the loop. Leaf lock in the declared
    /// `lock_order`: nothing is ever acquired while it is held.
    completions: Mutex<Vec<Completion>>,
    /// Rings the loop's eventfd.
    wake: WakeFd,
}

impl LoopShared {
    /// Queues one completion and wakes the loop.
    fn complete(&self, completion: Completion) {
        self.completions.lock().push(completion);
        self.wake.wake();
    }
}

/// Guarantees the loop hears about every dispatched request exactly
/// once. Constructed at the top of the worker job with an empty reply;
/// on a normal return the job has filled in the outcome, and on a panic
/// (the `serve.worker.kill` chaos fault unwinding through the pool's
/// `catch_unwind`) the drop still runs and the default outcome —
/// no reply, close the connection — reaches the loop, so an in-flight
/// marker can never wedge a connection.
struct CompletionGuard {
    shared: Arc<LoopShared>,
    token: u64,
    reply: Option<Vec<u8>>,
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        self.shared.complete(Completion {
            token: self.token,
            reply: self.reply.take(),
        });
    }
}

/// The worker side of one pool-class request: execute against a pinned
/// snapshot and encode, never touching a socket. The chaos kill point
/// comes first; the snapshot is pinned per frame for hot-reload
/// atomicity.
fn execute_job(
    req: Request,
    token: u64,
    service: &RwLock<Arc<InventoryService>>,
    metrics: &ServerMetrics,
    shared: Arc<LoopShared>,
) {
    let started = Instant::now();
    let mut done = CompletionGuard {
        shared,
        token,
        reply: None,
    };
    if pol_chaos::fire("serve.worker.kill") {
        // Err action: abort this connection without a reply (the Kill
        // action panics inside `fire` and unwinds through the pool's
        // catch_unwind; either way the guard reports the abort).
        return;
    }
    // The snapshot is resolved per frame: a hot reload swaps the Arc
    // between requests, never under one.
    let snapshot = Arc::clone(&service.read());
    done.reply = Some(encode_response(&snapshot.execute(&req)));
    metrics.record(req.endpoint(), started.elapsed());
}

mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub(super) const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;
    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;
    pub(super) const EFD_CLOEXEC: c_int = 0o2000000;
    pub(super) const EFD_NONBLOCK: c_int = 0o4000;

    /// Mirror of the kernel's `struct epoll_event`. x86-64 packs it
    /// (a quirk of the original 32/64-bit ABI compatibility); every
    /// other architecture uses natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        pub(super) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub(super) fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub(super) fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub(super) fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// Loop tokens 0 and 1 are the listener and the wake eventfd;
/// connections count up from [`FIRST_CONN_TOKEN`] and are never
/// reused (a u64 cannot wrap in practice), so a stale event cannot
/// alias a new connection.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Readiness events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 256;

/// An owned `epoll` instance.
struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // The return value is validated before ownership is claimed.
        // SAFETY: epoll_create1 takes no pointers; a non-negative
        // return is a fresh descriptor owned exclusively here;
        // tested by: reactor_core_event_counters_are_live, concurrent_responses_equal_direct_inventory_queries.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: fd is a valid, just-created descriptor no one else
        // owns, which is exactly OwnedFd's contract;
        // tested by: reactor_core_event_counters_are_live.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: self.fd and fd are live descriptors for the whole
        // call; `ev` outlives the call (the kernel copies it before
        // returning, even for DEL where it is ignored);
        // tested by: reactor_core_event_counters_are_live, pipelined_responses_survive_a_lazy_reader.
        let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits for readiness, retrying `EINTR`, returning how many
    /// entries of `events` were filled.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the events pointer/len describe a live mutable
            // slice for the whole call and maxevents never exceeds
            // its capacity, so the kernel writes stay in bounds;
            // tested by: reactor_core_event_counters_are_live, delta_chain_hot_reload_under_load_loses_no_query.
            let n = unsafe {
                sys::epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// A nonblocking `eventfd`: workers `wake()` it from any thread, the
/// loop registers it in epoll and `drain()`s it on readiness.
struct WakeFd {
    fd: OwnedFd,
}

impl WakeFd {
    fn new() -> io::Result<WakeFd> {
        // The return value is validated before ownership is claimed.
        // SAFETY: eventfd takes no pointers; a non-negative return
        // is a fresh descriptor owned exclusively here;
        // tested by: reactor_core_event_counters_are_live.
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: fd is a valid, just-created descriptor no one else
        // owns, which is exactly OwnedFd's contract;
        // tested by: reactor_core_event_counters_are_live.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(WakeFd { fd })
    }

    /// Adds 1 to the eventfd counter, making it epoll-readable. An
    /// `EAGAIN` (counter saturated) is ignored: a wakeup is already
    /// pending, which is all a wake needs to guarantee.
    fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: the buffer is a live 8-byte local for the whole
        // call (eventfd writes must be exactly 8 bytes) and the fd
        // is owned by self;
        // tested by: reactor_core_event_counters_are_live, batched_requests_equal_single_requests.
        let _ = unsafe { sys::write(self.fd.as_raw_fd(), one.as_ptr().cast(), one.len()) };
    }

    /// Clears the counter so the next wake is a fresh edge.
    fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: the buffer is a live 8-byte mutable local for the
        // whole call and the fd is owned by self; EFD_NONBLOCK makes
        // the read return -1/EAGAIN once the counter is empty;
        // tested by: reactor_core_event_counters_are_live.
        let _ = unsafe { sys::read(self.fd.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len()) };
    }
}

/// One registered connection: the socket, its frame machine, and the
/// epoll interest currently armed for it.
struct ConnEntry {
    stream: TcpStream,
    state: ConnState,
    interest: u32,
}

const READ_INTEREST: u32 = sys::EPOLLIN | sys::EPOLLRDHUP;

pub(crate) struct EventLoop {
    epoll: Epoll,
    listener: Option<TcpListener>,
    shared: Arc<LoopShared>,
    conns: HashMap<u64, ConnEntry>,
    next_token: u64,
    pool: ThreadPool,
    admitted: Arc<AtomicUsize>,
    admit_cap: usize,
    service: Arc<RwLock<Arc<InventoryService>>>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    drain_deadline: Option<Instant>,
    last_sweep: Instant,
}

impl EventLoop {
    /// Builds the loop: listener set nonblocking, epoll instance and wake
    /// eventfd created and registered, worker pool started. Any set-up
    /// failure is returned, before a thread is spawned.
    pub(crate) fn new(
        listener: TcpListener,
        service: Arc<RwLock<Arc<InventoryService>>>,
        config: ServerConfig,
        stop: Arc<AtomicBool>,
        metrics: Arc<ServerMetrics>,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let wake = WakeFd::new()?;
        epoll.add(listener.as_raw_fd(), READ_INTEREST, TOKEN_LISTENER)?;
        epoll.add(wake.fd.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)?;
        let workers = config.worker_threads.max(1);
        Ok(EventLoop {
            epoll,
            listener: Some(listener),
            shared: Arc::new(LoopShared {
                completions: Mutex::new(Vec::new()),
                wake,
            }),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            pool: ThreadPool::new(workers),
            admitted: Arc::new(AtomicUsize::new(0)),
            admit_cap: workers + config.max_pending,
            service,
            config,
            stop,
            metrics,
            drain_deadline: None,
            last_sweep: Instant::now(),
        })
    }

    pub(crate) fn run(mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        loop {
            let n = match self.epoll.wait(&mut events, self.tick_ms()) {
                Ok(n) => n,
                Err(_) => break,
            };
            if n > 0 {
                self.metrics.add_ready_events(n as u64);
            }
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) kernel struct
                // before use.
                let token = ev.data;
                let bits = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        self.shared.wake.drain();
                        self.metrics.incr_wakeup();
                    }
                    _ => self.conn_ready(token, bits),
                }
            }
            self.apply_completions();
            if self.stop.load(Ordering::Relaxed) && self.drain_deadline.is_none() {
                self.begin_drain();
            }
            self.sweep();
            if let Some(deadline) = self.drain_deadline {
                if self.conns.is_empty() || Instant::now() >= deadline {
                    break;
                }
            }
        }
        // Teardown: sockets first (peers see EOF), then the pool —
        // dropping it joins the workers after the queue drains; any
        // late completions land in the queue and are simply dropped
        // with it.
        self.conns.drain().for_each(|(_, entry)| {
            self.metrics.conn_closed();
            drop(entry);
        });
        // (pool dropped with self)
    }

    /// epoll timeout for this iteration: the read-timeout tick (the
    /// shutdown/stall poll granularity), tightened while draining so the
    /// exit condition is prompt.
    fn tick_ms(&self) -> i32 {
        let base = self
            .config
            .read_timeout
            .min(Duration::from_millis(100))
            .as_millis()
            .max(1) as i32;
        if self.drain_deadline.is_some() {
            base.min(10)
        } else {
            base
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.stop.load(Ordering::Relaxed) {
                        // Draining: new arrivals are turned away (the
                        // listener is about to close).
                        continue;
                    }
                    self.register_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE and friends: back off until the next tick
                // rather than spinning on a hot error.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if self.conns.len() >= self.config.max_connections {
            // The fd budget is the one resource admission cannot
            // defer: turn the connection away with a typed Busy.
            self.metrics.incr_busy();
            reject_busy_nonblocking(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(stream.as_raw_fd(), READ_INTEREST, token)
            .is_err()
        {
            return;
        }
        self.metrics.incr_connections();
        self.metrics.conn_opened();
        self.conns.insert(
            token,
            ConnEntry {
                stream,
                state: ConnState::new(Instant::now()),
                interest: READ_INTEREST,
            },
        );
    }

    fn conn_ready(&mut self, token: u64, bits: u32) {
        if bits & sys::EPOLLERR != 0 {
            self.close_conn(token);
            return;
        }
        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 {
            if pol_chaos::fire("serve.conn.read_delay") {
                // Err action: the transport dies under the reader.
                self.close_conn(token);
                return;
            }
            let mut frames = Vec::new();
            let event = {
                let Some(entry) = self.conns.get_mut(&token) else {
                    return;
                };
                entry
                    .state
                    .read_ready(&mut entry.stream, self.config.max_frame_bytes, &mut frames)
            };
            for payload in frames {
                self.enqueue_frame(token, payload);
            }
            match event {
                ReadEvent::Open => {}
                ReadEvent::PeerClosed => {
                    if let Some(entry) = self.conns.get_mut(&token) {
                        entry.state.peer_closed = true;
                    }
                }
                ReadEvent::FrameTooLarge(n) => {
                    self.metrics.incr_malformed();
                    if let Some(entry) = self.conns.get_mut(&token) {
                        entry.state.oversized = Some(n);
                    }
                    self.answer_oversized(token);
                }
                ReadEvent::Failed => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.flush_conn(token);
    }

    /// Answers an over-cap frame with its `Error` and condemns the
    /// connection — once every request read before it is answered, the
    /// same turn a malformed frame gets in [`EventLoop::dispatch`]. A
    /// client reading replies in order must never take that `Error`
    /// for the answer to an earlier request.
    fn answer_oversized(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        let state = &mut entry.state;
        if state.in_flight || !state.pending.is_empty() {
            return; // the completion that empties the queue calls again
        }
        let Some(n) = state.oversized.take() else {
            return;
        };
        if !state.close_after_flush {
            let resp = Response::Error(format!("frame of {n} bytes exceeds cap"));
            state.outbox.push_frame(&encode_response(&resp));
            state.close_after_flush = true;
        }
    }

    /// Queues or dispatches one frame. Responses must leave in request
    /// order and the protocol has no request ids, so a connection has
    /// at most one request in the pool at a time; later frames — inline
    /// ones included — wait in its pending queue, still raw, and are
    /// decoded when their turn comes.
    fn enqueue_frame(&mut self, token: u64, payload: Vec<u8>) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        if entry.state.close_after_flush {
            return; // already condemned: don't take new work
        }
        if entry.state.in_flight || !entry.state.pending.is_empty() {
            entry.state.pending.push_back(payload);
        } else {
            self.dispatch(token, payload);
        }
    }

    /// Decodes one frame and answers or hands it off by its class: a
    /// malformed frame gets its typed `Error`, an inline request is
    /// executed here, and a pool-class request passes the admission
    /// check — the loop-level expression of the typed Busy
    /// backpressure — and goes to the pool. Returns whether the request
    /// is now in flight on the pool; `false` means it was answered
    /// (inline, malformed, or shed with Busy) or the connection is
    /// gone, so the caller may feed the next pending frame through
    /// immediately.
    fn dispatch(&mut self, token: u64, payload: Vec<u8>) -> bool {
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                // One typed error, then the socket: resynchronising a
                // corrupt binary stream is not worth the attack surface.
                self.metrics.incr_malformed();
                if let Some(entry) = self.conns.get_mut(&token) {
                    let resp = Response::Error(e.to_string());
                    entry.state.outbox.push_frame(&encode_response(&resp));
                    entry.state.close_after_flush = true;
                    entry.state.pending.clear();
                }
                return false;
            }
        };
        if req.runs_inline() {
            self.execute_inline(token, &req);
            return false;
        }
        if self.admitted.fetch_add(1, Ordering::Relaxed) >= self.admit_cap {
            self.admitted.fetch_sub(1, Ordering::Relaxed);
            self.metrics.incr_busy();
            self.metrics.incr_shed_at_loop();
            if let Some(entry) = self.conns.get_mut(&token) {
                // Shed *this request*, keep the connection: an
                // immediate Busy frame, never a queue slot.
                entry
                    .state
                    .outbox
                    .push_frame(&encode_response(&Response::Busy));
            }
            return false;
        }
        let guard = AdmitGuard(Arc::clone(&self.admitted));
        if let Some(entry) = self.conns.get_mut(&token) {
            entry.state.in_flight = true;
        }
        let service = Arc::clone(&self.service);
        let metrics = Arc::clone(&self.metrics);
        let shared = Arc::clone(&self.shared);
        let submitted = self.pool.execute(move || {
            let _admitted = guard;
            execute_job(req, token, &service, &metrics, shared);
            // Chaos: keep holding the admission slot after the
            // completion has been posted — the window where a
            // pipelined connection's next pending frame meets a full
            // cap at pop time and must be shed, not stranded.
            pol_chaos::fire("serve.worker.slot_hold");
        });
        if submitted.is_err() {
            // Pool shut down underneath us (closure dropped unrun;
            // its AdmitGuard released on the way out). The request
            // can never be answered: close the connection.
            self.close_conn(token);
            return false;
        }
        true
    }

    /// Answers one inline-class request on the loop thread: the same
    /// kill point, per-frame snapshot pin, execute and encode as
    /// [`execute_job`], inside a `catch_unwind` boundary. A `Kill` or
    /// `Err` fault closes only this connection without a reply — the
    /// outcome `CompletionGuard` gives a killed worker — and the loop
    /// carries on serving every other socket.
    fn execute_inline(&mut self, token: u64, req: &Request) {
        let started = Instant::now();
        let service = &self.service;
        let reply = catch_unwind(AssertUnwindSafe(|| {
            if pol_chaos::fire("serve.worker.kill") {
                return None;
            }
            let snapshot = Arc::clone(&service.read());
            Some(encode_response(&snapshot.execute(req)))
        }));
        match reply {
            Ok(Some(bytes)) => {
                self.metrics.record(req.endpoint(), started.elapsed());
                if let Some(entry) = self.conns.get_mut(&token) {
                    entry.state.outbox.push_frame(&bytes);
                }
            }
            Ok(None) | Err(_) => self.close_conn(token),
        }
    }

    /// Moves worker results into their connections' write buffers
    /// and feeds each connection's next pending frames through
    /// [`EventLoop::dispatch`].
    fn apply_completions(&mut self) {
        let done = std::mem::take(&mut *self.shared.completions.lock());
        for completion in done {
            let token = completion.token;
            let Some(entry) = self.conns.get_mut(&token) else {
                continue; // connection died while the request ran
            };
            entry.state.in_flight = false;
            match completion.reply {
                Some(bytes) => {
                    entry.state.outbox.push_frame(&bytes);
                    // Keep the pipeline moving: an inline answer, a
                    // malformed frame's Error and a shed's Busy all
                    // leave in_flight false, so stopping here would
                    // strand the rest of the queue with no completion
                    // to ever pop it. Drain until a dispatch goes to
                    // the pool (its completion resumes) or the queue is
                    // empty — every popped frame gets an answer.
                    while let Some(next) = self
                        .conns
                        .get_mut(&token)
                        .and_then(|entry| entry.state.pending.pop_front())
                    {
                        if self.dispatch(token, next) {
                            break;
                        }
                    }
                    self.answer_oversized(token);
                }
                None => {
                    // Killed worker: abort without a reply.
                    self.close_conn(token);
                    continue;
                }
            }
            self.flush_conn(token);
        }
    }

    /// Flushes a connection's outbox as far as the socket allows and
    /// re-arms epoll interest: `EPOLLOUT` only while bytes are owed.
    fn flush_conn(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        if !entry.state.outbox.is_empty() {
            match entry.state.outbox.flush_to(&mut entry.stream) {
                Ok(n) => {
                    if n > 0 {
                        entry.state.last_write = Instant::now();
                    }
                }
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
            self.metrics
                .observe_write_buffer(entry.state.outbox.high_water() as u64);
        }
        let drained = entry.state.outbox.is_empty();
        let done = drained
            && (entry.state.close_after_flush
                || (entry.state.peer_closed
                    && !entry.state.in_flight
                    && entry.state.pending.is_empty()));
        if done {
            self.close_conn(token);
            return;
        }
        // Interest re-arming: EPOLLOUT only while bytes are owed,
        // and EPOLLIN (with RDHUP — also level-triggered) only while
        // the pending pipeline has room, so a full queue applies
        // kernel-buffer backpressure instead of spinning the loop on
        // a socket we refuse to read. EPOLLERR/EPOLLHUP are always
        // reported regardless of the interest mask.
        let mut want = if drained { 0 } else { sys::EPOLLOUT };
        if !entry.state.read_paused() {
            want |= READ_INTEREST;
        }
        if entry.interest != want {
            let fd = entry.stream.as_raw_fd();
            if self.epoll.modify(fd, want, token).is_ok() {
                if let Some(entry) = self.conns.get_mut(&token) {
                    entry.interest = want;
                }
            }
        }
    }

    /// Periodic pass over all connections: slow-loris frame
    /// deadlines, slow-reader write stalls, and drain-idle closes.
    /// Runs at the read-timeout tick, not per event batch, so a busy
    /// loop does not pay O(connections) per wakeup.
    fn sweep(&mut self) {
        let draining = self.drain_deadline.is_some();
        let tick = self.config.read_timeout.min(Duration::from_millis(100));
        if !draining && self.last_sweep.elapsed() < tick {
            return;
        }
        self.last_sweep = Instant::now();
        let now = self.last_sweep;
        let stall = self.config.stall_timeout;
        let write_stall = self.config.write_timeout;
        let mut doomed: Vec<u64> = Vec::new();
        for (token, entry) in &self.conns {
            let read_stalled = entry.state.frame_stalled(stall, now);
            let write_stalled = !entry.state.outbox.is_empty()
                && now.duration_since(entry.state.last_write) > write_stall;
            let drain_idle = draining && entry.state.idle();
            let peer_done = entry.state.peer_closed
                && !entry.state.in_flight
                && entry.state.pending.is_empty()
                && entry.state.outbox.is_empty();
            if read_stalled || write_stalled || drain_idle || peer_done {
                doomed.push(*token);
            }
        }
        for token in doomed {
            self.close_conn(token);
        }
    }

    /// Stops accepting: drop the listener (new connects get RST),
    /// then let the drain deadline bound the rest. `READY` already
    /// flipped — `Server::shutdown` marks draining before raising
    /// the stop flag, and `READY` is answered from metrics.
    fn begin_drain(&mut self) {
        self.drain_deadline = Some(Instant::now() + self.config.drain_timeout);
        if let Some(listener) = self.listener.take() {
            self.epoll.del(listener.as_raw_fd());
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            self.epoll.del(entry.stream.as_raw_fd());
            self.metrics.conn_closed();
        }
    }
}

/// Best-effort Busy rejection for the reactor thread: one
/// nonblocking write of the framed response, dropped on
/// `WouldBlock`. The frame is a handful of bytes, so it fits a
/// fresh socket's send buffer in practice; when it does not, losing
/// the courtesy frame beats stalling the event loop — a blocking
/// write could wait out a full write timeout and freeze every other
/// connection. The peer still observes the close either way.
fn reject_busy_nonblocking(stream: TcpStream) {
    use std::io::Write;
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let payload = encode_response(&Response::Busy);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let _ = (&stream).write(&frame);
}
