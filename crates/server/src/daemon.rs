//! The daemon: acceptor, connection handlers, worker pool, and the
//! degradation ladder.
//!
//! Life of a request: the acceptor, blocked in `accept()` on a blocking
//! listener, admits a connection the moment it arrives (bounded by
//! [`ServerOptions::max_connections`] — beyond it, a `"busy"` rejection
//! and close); the connection thread reads length-prefixed frames under
//! a read timeout (slow-loris defence), decodes and validates the JSON
//! document, then walks the admission ladder — drain flag, per-client
//! token bucket, bounded ready queue. Each gate that refuses answers
//! with a structured `"rejected"` response carrying a retry hint; the
//! queue gate is the load-shedding point (never unbounded buffering).
//! Admitted work is executed by the worker pool through the shared
//! content-addressed [`RequestCache`], with every failure mode — panics
//! included — flowing back over the wire as a structured error while
//! the daemon keeps serving.
//!
//! The scope of every degradation is one request. The daemon process
//! itself only exits on graceful drain: stop accepting, refuse new
//! admissions, finish everything in flight, flush a final
//! [`ServerMetrics`] snapshot. Drain stops the acceptor by waking it:
//! it opens one loopback connection to the bound port, which the
//! acceptor drops uncounted once it sees the drain flag. Should that
//! connect fail, [`ServerHandle::join`] retries it once and, failing
//! again, leaves the acceptor detached rather than wait on it forever.

use crate::admission::{AdmissionQueue, AdmitError, TokenBuckets};
use crate::proto::{
    self, EvaluateRequest, FrameError, Request, TournamentRequest, DEFAULT_MAX_FRAME,
};
use ipp_core::driver::DriverOptions;
use ipp_core::service::{
    evaluate_request_metered, evaluate_tournament_metered, request_key, RequestCache, ServerMetrics,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound on the drain wake-up connect (loopback; normally immediate).
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Pause before retrying `accept()` after a failure that is not the one
/// pending connection's own (out of descriptors or memory, say): such a
/// failure persists, and retrying at once would only spin.
const EXHAUSTED_BACKOFF: Duration = Duration::from_millis(10);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (`127.0.0.1:0` for an ephemeral test port).
    pub addr: String,
    /// Worker threads executing evaluations.
    pub workers: usize,
    /// Ready-queue capacity — the load-shedding threshold.
    pub queue_capacity: usize,
    /// Concurrent-connection cap.
    pub max_connections: usize,
    /// Frame-size cap in bytes.
    pub max_frame_bytes: usize,
    /// Socket read timeout, milliseconds (slow-loris defence).
    pub read_timeout_ms: u64,
    /// Request-cache capacity (entries; 0 disables).
    pub cache_capacity: usize,
    /// Per-run interpreter op budget (also the token-bucket currency).
    pub verify_max_ops: u64,
    /// Per-request wall-clock deadline, milliseconds (0 = none).
    pub wall_budget_ms: u64,
    /// Token-bucket burst, in requests.
    pub client_burst: u32,
    /// Token-bucket refill, requests per second.
    pub client_refill_per_sec: f64,
    /// Bound on tracked clients.
    pub max_clients: usize,
    /// Interpreter engine for all runs.
    pub engine: fruntime::Engine,
    /// Chaos seam: program names whose evaluation panics deliberately
    /// (exercises the isolation boundary under live traffic).
    pub inject_fault_names: Vec<String>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        let d = DriverOptions::default();
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME,
            read_timeout_ms: 2_000,
            // Room for every cell of a 64-program pool under the
            // seven-arm portfolio (448 entries; the four plain modes
            // share their entries with arms). A cache smaller than its
            // working set thrashes under FIFO eviction: a third of
            // requests re-run the pipeline, and which third depends on
            // how requests interleave, so throughput swings run to run.
            cache_capacity: 1024,
            verify_max_ops: d.verify_max_ops,
            wall_budget_ms: 2_000,
            client_burst: 8,
            client_refill_per_sec: 16.0,
            max_clients: 1024,
            engine: d.engine,
            inject_fault_names: Vec::new(),
        }
    }
}

/// One admitted unit of work. A tournament is a single work item — one
/// admission charge, one queue slot, one worker — even though it
/// evaluates a whole portfolio: its arms share the request cache, one
/// parse, and one baseline run, so its cost is bounded and the ladder's
/// accounting stays per-request.
enum WorkItem {
    Evaluate(EvaluateRequest),
    Tournament(TournamentRequest),
}

impl WorkItem {
    fn id(&self) -> &str {
        match self {
            WorkItem::Evaluate(r) => &r.id,
            WorkItem::Tournament(r) => &r.id,
        }
    }

    fn client(&self) -> &str {
        match self {
            WorkItem::Evaluate(r) => &r.client,
            WorkItem::Tournament(r) => &r.client,
        }
    }
}

struct Job {
    item: WorkItem,
    reply: mpsc::Sender<String>,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    connections_rejected: AtomicU64,
    protocol_errors: AtomicU64,
    requests: AtomicU64,
    tournament_requests: AtomicU64,
    shed: AtomicU64,
    throttled: AtomicU64,
    rejected_draining: AtomicU64,
    completed_ok: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    panicked: AtomicU64,
    in_flight_at_drain: AtomicU64,
}

struct Shared {
    opts: ServerOptions,
    queue: AdmissionQueue<Job>,
    buckets: TokenBuckets,
    cache: RequestCache,
    draining: AtomicBool,
    started: Instant,
    active_conns: AtomicUsize,
    in_flight: AtomicU64,
    counters: Counters,
    failure_codes: Mutex<BTreeMap<String, u64>>,
    /// Aggregate VM counters of verification work actually executed
    /// (cache-served requests contribute zeros — the metered evaluate
    /// entry points only report fresh runs).
    vm: Mutex<fruntime::VmCounters>,
    /// Where drain connects to wake the acceptor out of `accept()`.
    wake_addr: SocketAddr,
}

impl Shared {
    fn driver_options(&self) -> DriverOptions {
        DriverOptions {
            verify_max_ops: self.opts.verify_max_ops,
            wall_budget_ms: self.opts.wall_budget_ms,
            engine: self.opts.engine,
            inject_panic: self.opts.inject_fault_names.clone(),
            ..Default::default()
        }
    }

    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let in_flight = self.in_flight.load(Ordering::SeqCst) + self.queue.len() as u64;
            self.counters
                .in_flight_at_drain
                .store(in_flight, Ordering::SeqCst);
            self.queue.drain();
            self.wake_acceptor();
        }
    }

    /// Return the acceptor, blocked in `accept()`, to its drain check by
    /// connecting to it once. A failed connect is retried by
    /// [`ServerHandle::join`].
    fn wake_acceptor(&self) {
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }

    fn absorb_vm(&self, vm: &fruntime::VmCounters) {
        self.vm
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .absorb(vm);
    }

    fn record_failure_code(&self, code: &str) {
        let mut codes = self
            .failure_codes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *codes.entry(code.to_string()).or_insert(0) += 1;
    }

    fn snapshot(&self) -> ServerMetrics {
        let c = &self.counters;
        let cache = self.cache.stats();
        ServerMetrics {
            wall_nanos: self.started.elapsed().as_nanos() as u64,
            connections: c.connections.load(Ordering::SeqCst),
            connections_rejected: c.connections_rejected.load(Ordering::SeqCst),
            protocol_errors: c.protocol_errors.load(Ordering::SeqCst),
            requests: c.requests.load(Ordering::SeqCst),
            tournament_requests: c.tournament_requests.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            throttled: c.throttled.load(Ordering::SeqCst),
            rejected_draining: c.rejected_draining.load(Ordering::SeqCst),
            completed_ok: c.completed_ok.load(Ordering::SeqCst),
            failed: c.failed.load(Ordering::SeqCst),
            timed_out: c.timed_out.load(Ordering::SeqCst),
            panicked: c.panicked.load(Ordering::SeqCst),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            queue_peak: self.queue.peak() as u64,
            in_flight_at_drain: c.in_flight_at_drain.load(Ordering::SeqCst),
            failure_codes: self
                .failure_codes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            vm: *self.vm.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`] (initiate drain and wait) or
/// [`ServerHandle::join`] (wait for a wire-initiated drain).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current metrics snapshot (also available over the wire).
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.snapshot()
    }

    /// Initiate graceful drain: stop accepting, refuse new admissions,
    /// finish in-flight work, return the final metrics snapshot.
    pub fn shutdown(self) -> ServerMetrics {
        self.shared.begin_drain();
        self.join()
    }

    /// Wait for the daemon to drain (e.g. via a wire `shutdown` op) and
    /// return the final metrics snapshot.
    pub fn join(self) -> ServerMetrics {
        // Workers exit only once drain has begun and the queue is empty.
        for w in self.workers {
            let _ = w.join();
        }
        // Drain's wake-up connection has normally stopped the acceptor
        // by now. If that connect failed, wake it once more; should the
        // acceptor still be blocked, leave it detached rather than hang:
        // it drops whatever connects next, uncounted, and exits.
        if !self.acceptor.is_finished() {
            self.shared.wake_acceptor();
            let deadline = Instant::now() + WAKE_TIMEOUT;
            while !self.acceptor.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        if self.acceptor.is_finished() {
            let _ = self.acceptor.join();
        }
        self.shared.snapshot()
    }
}

/// The daemon entry point: bind, start the worker pool and acceptor,
/// return a handle.
pub fn spawn(opts: ServerOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        queue: AdmissionQueue::new(opts.queue_capacity),
        buckets: TokenBuckets::new(
            opts.verify_max_ops,
            opts.client_burst,
            opts.client_refill_per_sec,
            opts.max_clients,
        ),
        cache: RequestCache::new(opts.cache_capacity),
        draining: AtomicBool::new(false),
        started: Instant::now(),
        active_conns: AtomicUsize::new(0),
        in_flight: AtomicU64::new(0),
        counters: Counters::default(),
        failure_codes: Mutex::new(BTreeMap::new()),
        vm: Mutex::new(fruntime::VmCounters::default()),
        wake_addr: wake_addr(addr),
        opts,
    });

    let workers = (0..shared.opts.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ipp-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ipp-acceptor".into())
            .spawn(move || acceptor_loop(listener, &shared))
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor,
        workers,
    })
}

/// The address drain connects to: the bound address (port, IPv6 scope
/// and flow info kept), with an unspecified IP (`0.0.0.0` / `[::]`)
/// replaced by loopback of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Whether an `accept()` failure belongs to the one pending connection —
/// aborted or reset before it was accepted, or the call interrupted — so
/// the acceptor can take the next at once. Anything else (descriptor or
/// memory exhaustion, an error the listener keeps returning) backs off.
fn per_connection_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
    )
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            // Drain's wake-up call, or a client that raced it: either
            // way not a connection to serve or count.
            Ok(_) if shared.draining.load(Ordering::SeqCst) => return,
            Ok((stream, _)) => {
                if shared.active_conns.load(Ordering::SeqCst) >= shared.opts.max_connections {
                    shared
                        .counters
                        .connections_rejected
                        .fetch_add(1, Ordering::SeqCst);
                    // Best-effort structured refusal; then close.
                    let mut s = stream;
                    let _ = proto::write_frame(
                        &mut s,
                        &proto::reject_response("", "busy", 100, "connection limit reached"),
                    );
                    continue;
                }
                shared.counters.connections.fetch_add(1, Ordering::SeqCst);
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("ipp-conn".into())
                    .spawn(move || {
                        connection_loop(stream, &shared);
                        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                    });
            }
            // Aborted, reset or interrupted: that one connection is
            // gone; accept the next.
            Err(e) if per_connection_error(&e) => {}
            Err(_) => std::thread::sleep(EXHAUSTED_BACKOFF),
        }
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.opts.read_timeout_ms.max(1),
    )));
    let _ = stream.set_nodelay(true);
    loop {
        match proto::read_frame(&mut stream, shared.opts.max_frame_bytes) {
            Err(FrameError::Closed) => return,
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::SeqCst);
                if e.answerable() {
                    let _ = proto::write_frame(
                        &mut stream,
                        &proto::protocol_error_response(&e.to_string()),
                    );
                }
                // The stream is no longer at a trustworthy frame
                // boundary — close it.
                return;
            }
            Ok(payload) => match proto::decode_request(&payload) {
                Err(msg) => {
                    // The *frame* was fine; the document was not. Answer
                    // and keep serving this connection.
                    shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::SeqCst);
                    if proto::write_frame(&mut stream, &proto::protocol_error_response(&msg))
                        .is_err()
                    {
                        return;
                    }
                }
                Ok(Request::Ping) => {
                    if proto::write_frame(&mut stream, &proto::pong_response()).is_err() {
                        return;
                    }
                }
                Ok(Request::Metrics) => {
                    let resp = proto::metrics_response(&shared.snapshot());
                    if proto::write_frame(&mut stream, &resp).is_err() {
                        return;
                    }
                }
                Ok(Request::Shutdown) => {
                    let _ = proto::write_frame(&mut stream, &proto::draining_response());
                    shared.begin_drain();
                    return;
                }
                Ok(Request::Evaluate(req)) => {
                    let resp = admit_and_run(shared, WorkItem::Evaluate(req));
                    if proto::write_frame(&mut stream, &resp).is_err() {
                        return;
                    }
                }
                Ok(Request::Tournament(req)) => {
                    let resp = admit_and_run(shared, WorkItem::Tournament(req));
                    if proto::write_frame(&mut stream, &resp).is_err() {
                        return;
                    }
                }
            },
        }
    }
}

/// Walk the admission ladder for one admitted work item (evaluate or
/// tournament) and produce its response. Every exit is a structured
/// answer, and every item lands in exactly one ledger bucket —
/// `requests == completed_ok + failed + shed + throttled +
/// rejected_draining` holds with tournaments in the mix.
fn admit_and_run(shared: &Arc<Shared>, item: WorkItem) -> String {
    let c = &shared.counters;
    c.requests.fetch_add(1, Ordering::SeqCst);
    if matches!(item, WorkItem::Tournament(_)) {
        c.tournament_requests.fetch_add(1, Ordering::SeqCst);
    }
    if shared.draining.load(Ordering::SeqCst) {
        c.rejected_draining.fetch_add(1, Ordering::SeqCst);
        return proto::reject_response(item.id(), "draining", 0, "daemon is draining");
    }
    if let Err(retry_ms) = shared.buckets.try_admit(item.client()) {
        c.throttled.fetch_add(1, Ordering::SeqCst);
        return proto::reject_response(
            item.id(),
            "budget",
            retry_ms,
            "per-client op budget exhausted",
        );
    }
    let (tx, rx) = mpsc::channel();
    let id = item.id().to_string();
    match shared.queue.try_push(Job { item, reply: tx }) {
        Err(AdmitError::Full(job)) => {
            c.shed.fetch_add(1, Ordering::SeqCst);
            // Hint scales with how deep the backlog is relative to the
            // worker pool — crude, bounded, and honest about overload.
            let hint = 25 * (shared.queue.len() as u64 / shared.opts.workers.max(1) as u64 + 1);
            proto::reject_response(
                job.item.id(),
                "overloaded",
                hint.min(5_000),
                "admission queue full",
            )
        }
        Err(AdmitError::Draining(job)) => {
            c.rejected_draining.fetch_add(1, Ordering::SeqCst);
            proto::reject_response(job.item.id(), "draining", 0, "daemon is draining")
        }
        Ok(()) => {
            // Generous ceiling: the wall budget (if any) plus margin for
            // queueing. A lost reply is an internal fault, answered
            // structurally rather than hanging the connection.
            let ceiling = Duration::from_millis(shared.opts.wall_budget_ms.max(1_000) * 4 + 30_000);
            match rx.recv_timeout(ceiling) {
                Ok(resp) => resp,
                Err(_) => proto::protocol_error_response(&format!(
                    "internal: worker reply lost for request \"{id}\""
                )),
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let resp = match &job.item {
            WorkItem::Evaluate(req) => process(shared, req),
            WorkItem::Tournament(req) => process_tournament(shared, req),
        };
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        // The connection may have given up (timeout, disconnect) — a
        // dead reply channel is its problem, not ours.
        let _ = job.reply.send(resp);
    }
}

/// Execute one admitted request through the shared cache.
fn process(shared: &Arc<Shared>, req: &EvaluateRequest) -> String {
    let key = request_key(
        req.mode,
        &req.source,
        &req.annotations,
        shared.opts.verify_max_ops,
    );
    let outcome = match shared.cache.lookup(key) {
        Some(cached) => cached,
        None => {
            let opts = shared.driver_options();
            let (outcome, vm) =
                evaluate_request_metered(&req.name, &req.source, &req.annotations, req.mode, &opts);
            let outcome = outcome.map(Arc::new);
            shared.absorb_vm(&vm);
            shared.cache.insert(key, outcome.clone());
            outcome
        }
    };
    let c = &shared.counters;
    match outcome {
        Ok(report) => {
            c.completed_ok.fetch_add(1, Ordering::SeqCst);
            proto::ok_response(&req.id, &report)
        }
        Err(mut e) => {
            c.failed.fetch_add(1, Ordering::SeqCst);
            if e.is_timeout() {
                c.timed_out.fetch_add(1, Ordering::SeqCst);
            }
            if e.code() == "panic" {
                c.panicked.fetch_add(1, Ordering::SeqCst);
            }
            shared.record_failure_code(e.code());
            // The cache key is (mode, source, annotations, budget) — a
            // hit may carry the *first* requester's name. Re-attribute so
            // the response stays a pure function of this request.
            e.app = req.name.clone();
            proto::error_response(&req.id, &e)
        }
    }
}

/// Execute one admitted tournament through the shared cache: the arms
/// read and write the same per-arm entries plain evaluate requests use
/// ([`ipp_core::service::arm_key`]).
fn process_tournament(shared: &Arc<Shared>, req: &TournamentRequest) -> String {
    let opts = shared.driver_options();
    let (outcome, vm) = evaluate_tournament_metered(
        &req.name,
        &req.source,
        &req.annotations,
        &opts,
        Some(&shared.cache),
    );
    shared.absorb_vm(&vm);
    let c = &shared.counters;
    match outcome {
        Ok(report) => {
            c.completed_ok.fetch_add(1, Ordering::SeqCst);
            proto::tournament_response(&req.id, &report)
        }
        Err(mut e) => {
            c.failed.fetch_add(1, Ordering::SeqCst);
            if e.is_timeout() {
                c.timed_out.fetch_add(1, Ordering::SeqCst);
            }
            if e.code() == "panic" {
                c.panicked.fetch_add(1, Ordering::SeqCst);
            }
            shared.record_failure_code(e.code());
            e.app = req.name.clone();
            proto::error_response(&req.id, &e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddrV6;

    #[test]
    fn wake_addr_maps_unspecified_binds_to_loopback_of_the_same_family() {
        let at = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(wake_addr(at("0.0.0.0:4100")), at("127.0.0.1:4100"));
        assert_eq!(wake_addr(at("[::]:4100")), at("[::1]:4100"));
        assert_eq!(wake_addr(at("127.0.0.1:4100")), at("127.0.0.1:4100"));
        assert_eq!(wake_addr(at("10.1.2.3:4100")), at("10.1.2.3:4100"));
        assert_eq!(wake_addr(at("[fe80::1]:4100")), at("[fe80::1]:4100"));
        // A link-local bind keeps its scope: without it the connect has
        // no interface to leave by, and drain would never wake.
        let scoped = SocketAddr::V6(SocketAddrV6::new("fe80::1".parse().unwrap(), 4100, 7, 2));
        assert_eq!(wake_addr(scoped), scoped);
        let any_scoped = SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::UNSPECIFIED, 4100, 7, 2));
        assert_eq!(
            wake_addr(any_scoped),
            SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::LOCALHOST, 4100, 7, 2))
        );
    }

    #[test]
    fn join_recovers_from_a_lost_drain_wake() {
        // Begin drain the way `begin_drain` does, minus the wake-up
        // connection: `join` must wake the acceptor itself.
        let handle = spawn(ServerOptions {
            workers: 1,
            ..Default::default()
        })
        .expect("bind the daemon");
        let addr = handle.addr();
        // One exchange proves the acceptor is up; the pause lets it get
        // back into `accept()` before the drain flag is raised.
        let mut client = TcpStream::connect(addr).expect("connect");
        crate::proto::write_frame(&mut client, "{\"op\":\"ping\"}").expect("send");
        crate::proto::read_frame(&mut client, usize::MAX).expect("recv");
        drop(client);
        std::thread::sleep(Duration::from_millis(100));
        handle.shared.draining.store(true, Ordering::SeqCst);
        handle.shared.queue.drain();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(handle.join());
        });
        let m = finished
            .recv_timeout(Duration::from_secs(30))
            .expect("join hung on a lost drain wake");
        assert_eq!(m.connections, 1, "the wake was counted: {m:?}");
        // The acceptor exited, not merely detached: its port is free.
        TcpListener::bind(addr).expect("the acceptor still holds its port");
    }

    #[test]
    fn only_per_connection_accept_errors_are_retried_at_once() {
        for kind in [
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::Interrupted,
        ] {
            assert!(per_connection_error(&kind.into()), "{kind:?}");
        }
        // ENFILE, EMFILE, ENOBUFS, ENOMEM, EBADF, EINVAL: all persist,
        // so the acceptor backs off on each.
        #[cfg(target_os = "linux")]
        for errno in [23, 24, 105, 12, 9, 22] {
            let e = io::Error::from_raw_os_error(errno);
            assert!(!per_connection_error(&e), "{e:?}");
        }
        assert!(!per_connection_error(&io::ErrorKind::OutOfMemory.into()));
    }
}
