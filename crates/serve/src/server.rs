//! The TCP front: acceptor thread + bounded admission queue + fixed
//! worker pool.
//!
//! One acceptor thread owns the listener. Every accepted connection gets
//! `TCP_NODELAY` (responses are single small frames; Nagle would add a
//! full RTT under closed-loop load) and a read timeout (a stalled or
//! half-open client costs a worker at most one timeout, never a wedge),
//! then rides a **capacity-bounded** `sync_channel` to the first free
//! worker. When the queue is full the connection is shed immediately
//! with a typed `overloaded` error carrying `retry_after_ms` — the
//! server says "no" instead of letting latency grow without bound.
//! Workers answer framed requests on the connection until the peer
//! closes, an error or timeout fires, or the server shuts down.
//!
//! Shed taxonomy (each a typed counter):
//!
//! * `serve.shed.queue_full` — the admission queue was full at accept.
//! * `serve.shed.deadline` — the request carried a `deadline_ms` budget
//!   its queue wait alone had already blown; the worker replies
//!   `deadline_exceeded` without running the forward pass.
//! * `serve.shed.breaker` — the service's circuit breaker fast-rejected
//!   (counted in [`crate::service`]).
//!
//! Queue-full and deadline sheds feed the breaker's failure window
//! (`CircuitBreaker::record_shed`), so a sustained shed rate opens the
//! breaker and clients get told to back off before they even enqueue.
//!
//! Shutdown is graceful and idempotent: the stop flag flips, a loopback
//! connect unblocks `accept`, the acceptor exits and drops the channel
//! sender, each worker finishes its current connection, **drains** any
//! connection still queued with a typed `shutting_down` reply (within a
//! bounded drain window) rather than a silent hang-up, sees the channel
//! hang up, and `shutdown` joins them all. Dropping the server shuts it
//! down.
//!
//! Observability: the acceptor stamps each hand-off with its accept
//! time, so the worker attributes `queue_wait` to the connection's
//! first request; `serve.queue_depth` gauges connections *waiting* in
//! the admission queue only, `serve.inflight` gauges requests currently
//! being processed, `serve.connections_active` gauges connections a
//! worker holds, and `serve.worker_busy_micros` accumulates time
//! workers spend on requests. Each request runs under a trace id (the
//! client's, or a freshly minted one), which is echoed back in the
//! response frame's `trace` field and recorded — with the queue-wait /
//! decode / verify / write stage breakdown — in the monitor's sampled
//! trace store.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mandipass_util::json;

use crate::protocol::{self, Request, Response};
use crate::service::{PendingTrace, VerifyService, WireTiming};

/// A connection handed from the acceptor to a worker, stamped with its
/// accept time so the worker can attribute queue wait.
type Handoff = (TcpStream, Instant);

fn duration_nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads (and thus maximum concurrently served
    /// connections).
    pub workers: usize,
    /// Per-read socket timeout; a connection idle longer is dropped.
    pub read_timeout: Duration,
    /// Largest accepted request frame.
    pub max_frame_bytes: usize,
    /// Admission-queue bound: connections waiting for a worker beyond
    /// this are shed with a typed `overloaded` reply instead of queued.
    pub queue_capacity: usize,
    /// The `retry_after_ms` hint attached to queue-full sheds.
    pub retry_after_ms: u64,
    /// At shutdown, how long each worker keeps answering queued
    /// connections with `shutting_down` before dropping the rest.
    pub drain_window: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            read_timeout: Duration::from_secs(2),
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
            queue_capacity: 64,
            retry_after_ms: 100,
            drain_window: Duration::from_millis(500),
        }
    }
}

/// The running verify server. Dropping it shuts it down.
pub struct VerifyServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for VerifyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl VerifyServer {
    /// Binds `addr` (port 0 for ephemeral) and starts the acceptor plus
    /// `config.workers` worker threads over the shared `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures.
    pub fn bind(service: Arc<VerifyService>, addr: &str, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (sender, receiver) = sync_channel::<Handoff>(config.queue_capacity.max(1));
        let receiver = Arc::new(Mutex::new(receiver));

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let service = Arc::clone(&service);
                let receiver = Arc::clone(&receiver);
                let stop = Arc::clone(&stop);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("mandipass-serve-{i}"))
                    .spawn(move || {
                        // Label this worker's profiler subtree so
                        // per-worker call trees merge under distinct
                        // `workerN.…` roots instead of aliasing.
                        mandipass_telemetry::profile::set_thread_root(&format!("worker{i}"));
                        worker_loop(&service, &receiver, &stop, &config)
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;

        let acceptor = {
            let stop = Arc::clone(&stop);
            let config = config.clone();
            let shedders = Arc::new(AtomicUsize::new(0));
            std::thread::Builder::new()
                .name("mandipass-serve-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        // Latency hygiene + wedge protection, applied
                        // before the connection reaches any worker.
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(config.read_timeout));
                        mandipass_telemetry::counter!("serve.connections").inc();
                        match sender.try_send((stream, Instant::now())) {
                            Ok(()) => {
                                mandipass_telemetry::gauge!("serve.queue_depth").add(1.0);
                            }
                            Err(TrySendError::Full((stream, _))) => {
                                mandipass_telemetry::counter!("serve.shed.queue_full").inc();
                                service.breaker().record_shed();
                                shed_overloaded(stream, &config, &shedders);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                    // Dropping `sender` here hangs up the channel and
                    // lets idle workers exit.
                })?
        };

        Ok(VerifyServer {
            addr: local,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, lets each worker finish its
    /// current connection and drain still-queued ones with a typed
    /// `shutting_down` reply, joins every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call; the loop re-checks the flag first.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for VerifyServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Most shed connections still hold an unread request frame; replying
/// and draining it in a short-lived thread keeps the acceptor free and
/// avoids the reset-on-close that would destroy the reply in the
/// peer's receive buffer. Bounded: past this many concurrent shedder
/// threads the connection is dropped unanswered (a connect flood must
/// not trade queue exhaustion for thread exhaustion).
const MAX_SHEDDER_THREADS: usize = 64;

fn shed_overloaded(stream: TcpStream, config: &ServeConfig, shedders: &Arc<AtomicUsize>) {
    if shedders.fetch_add(1, Ordering::SeqCst) >= MAX_SHEDDER_THREADS {
        shedders.fetch_sub(1, Ordering::SeqCst);
        return; // drop: the flood gets a close, not a thread
    }
    let in_thread = Arc::clone(shedders);
    let max_frame_bytes = config.max_frame_bytes;
    let retry_after_ms = config.retry_after_ms;
    let spawned = std::thread::Builder::new()
        .name("mandipass-serve-shed".to_string())
        .spawn(move || {
            let mut stream = stream;
            reply_and_drain(
                &mut stream,
                max_frame_bytes,
                &Response::overloaded("admission queue full", retry_after_ms),
            );
            in_thread.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        shedders.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Reads the pending request frame (so the close is clean and the trace
/// id can be echoed), writes the typed reply, lets the stream drop.
fn reply_and_drain(stream: &mut TcpStream, max_frame_bytes: usize, response: &Response) {
    let trace_id = match protocol::read_frame(stream, max_frame_bytes) {
        Ok(Some(payload)) => std::str::from_utf8(&payload)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .and_then(|doc| protocol::trace_id_of(&doc)),
        _ => None,
    };
    let doc = match trace_id {
        Some(id) => protocol::with_trace_id(response.to_json(), id),
        None => response.to_json(),
    };
    let _ = protocol::write_frame(stream, doc.to_json().as_bytes());
}

fn worker_loop(
    service: &VerifyService,
    receiver: &Mutex<Receiver<Handoff>>,
    stop: &AtomicBool,
    config: &ServeConfig,
) {
    // Set when this worker first sees a queued connection after the
    // stop flag flipped; bounds how long draining may take.
    let mut drain_deadline: Option<Instant> = None;
    loop {
        // Hold the lock only for the hand-off, not while serving.
        let handoff = receiver
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        match handoff {
            Ok((mut stream, accepted_at)) => {
                mandipass_telemetry::gauge!("serve.queue_depth").add(-1.0);
                if stop.load(Ordering::SeqCst) {
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + config.drain_window);
                    drain_connection(&mut stream, config, deadline);
                    continue;
                }
                let active = mandipass_telemetry::gauge!("serve.connections_active");
                active.add(1.0);
                serve_connection(service, &mut stream, stop, config, accepted_at.elapsed());
                active.add(-1.0);
            }
            Err(_) => break, // acceptor hung up: shutdown
        }
    }
}

/// Answers one queued connection's pending request with a typed
/// `shutting_down` error instead of a silent hang-up, unless the drain
/// window is already spent.
fn drain_connection(stream: &mut TcpStream, config: &ServeConfig, deadline: Instant) {
    mandipass_telemetry::counter!("serve.drained").inc();
    let now = Instant::now();
    if now >= deadline {
        return; // window spent: the close itself is the answer
    }
    let budget = (deadline - now).min(config.read_timeout);
    let _ = stream.set_read_timeout(Some(budget));
    reply_and_drain(
        stream,
        config.max_frame_bytes,
        &Response::error(
            protocol::KIND_SHUTTING_DOWN,
            "server is shutting down; retry against another instance",
        ),
    );
}

/// Answers framed requests on one connection until the peer closes, an
/// I/O error or read timeout fires, or shutdown is requested.
///
/// `queue_wait` (accept → worker pick-up) is attributed to the first
/// request only; later requests on the same connection waited in the
/// kernel socket buffer, not our queue. A request whose `deadline_ms`
/// budget is smaller than that queue wait is shed without running the
/// forward pass.
fn serve_connection(
    service: &VerifyService,
    stream: &mut TcpStream,
    stop: &AtomicBool,
    config: &ServeConfig,
    queue_wait: Duration,
) {
    let mut queue_wait_nanos = duration_nanos(queue_wait);
    while !stop.load(Ordering::SeqCst) {
        match protocol::read_frame(stream, config.max_frame_bytes) {
            Ok(Some(payload)) => {
                let arrived = Instant::now();
                let inflight = mandipass_telemetry::gauge!("serve.inflight");
                inflight.add(1.0);
                let timing_queue = std::mem::take(&mut queue_wait_nanos);
                let parsed = Request::from_frame_meta(&payload);
                let timing = WireTiming {
                    queue_wait_nanos: timing_queue,
                    decode_nanos: duration_nanos(arrived.elapsed()),
                };
                let (response, pending) = match parsed {
                    Ok((request, meta)) => {
                        let trace_id = meta.trace_id.unwrap_or_else(mandipass_telemetry::mint_id);
                        let blown = meta
                            .deadline_ms
                            .is_some_and(|ms| timing_queue > ms.saturating_mul(1_000_000));
                        if blown {
                            mandipass_telemetry::counter!("serve.shed.deadline").inc();
                            service.breaker().record_shed();
                            let response = Response::error(
                                protocol::KIND_DEADLINE,
                                format!(
                                    "queue wait {} ms blew the {} ms deadline",
                                    timing_queue / 1_000_000,
                                    meta.deadline_ms.unwrap_or(0),
                                ),
                            );
                            let pending = PendingTrace::undispatched(
                                trace_id,
                                "shed",
                                protocol::KIND_DEADLINE,
                                timing,
                            );
                            (response, pending)
                        } else {
                            service.handle_traced(&request, trace_id, timing)
                        }
                    }
                    Err(message) => {
                        mandipass_telemetry::counter!("serve.bad_requests").inc();
                        let response = Response::error("bad_request", message);
                        let pending = PendingTrace::undispatched(
                            mandipass_telemetry::mint_id(),
                            "bad_request",
                            "bad_request",
                            timing,
                        );
                        (response, pending)
                    }
                };
                let payload =
                    protocol::with_trace_id(response.to_json(), pending.trace_id()).to_json();
                let write_start = Instant::now();
                let write_ok = protocol::write_frame(stream, payload.as_bytes()).is_ok();
                let write_nanos = duration_nanos(write_start.elapsed());
                let total_nanos = timing_queue.saturating_add(duration_nanos(arrived.elapsed()));
                pending.commit(service.system().monitor(), write_nanos, total_nanos);
                mandipass_telemetry::counter!("serve.worker_busy_micros")
                    .add(total_nanos.saturating_sub(timing_queue) / 1_000);
                inflight.add(-1.0);
                if !write_ok {
                    break;
                }
            }
            // Clean close, garbage, timeout, or disconnect: in every
            // case the worker moves on to the next connection.
            Ok(None) | Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::VerifyClient;
    use crate::protocol::with_deadline_ms;
    use crate::test_support::{genuine_probe, genuine_probes, shared_arc};
    use std::io::Write as _;
    use std::time::Instant;

    #[test]
    fn serves_verify_and_health_over_tcp() {
        let server = VerifyServer::bind(shared_arc(), "127.0.0.1:0", ServeConfig::default())
            .unwrap_or_else(|e| panic!("bind: {e}"));
        let mut client = VerifyClient::connect(server.local_addr()).unwrap();
        match client.call(&Request::Health).unwrap() {
            Response::Health { enrolled, health } => {
                assert!(enrolled >= 1);
                // The health document now carries the breaker state.
                assert_eq!(
                    health
                        .get("breaker")
                        .and_then(|b| b.get("state"))
                        .and_then(mandipass_util::json::Value::as_str),
                    Some("closed")
                );
            }
            other => panic!("expected health, got {other:?}"),
        }
        let (user, probes) = genuine_probes(51_000, 3);
        match client
            .call(&Request::VerifyWithPolicy {
                user_id: user,
                probes,
            })
            .unwrap()
        {
            Response::Decision { accepted, .. } => assert!(accepted),
            other => panic!("expected decision, got {other:?}"),
        }
        // Unknown user → typed error, connection stays usable.
        let (_, probe) = genuine_probe(51_100);
        match client
            .call(&Request::Verify {
                user_id: 4242,
                probe,
            })
            .unwrap()
        {
            Response::Error { kind, .. } => assert_eq!(kind, "not_enrolled"),
            other => panic!("expected error, got {other:?}"),
        }
    }

    /// The worker commits the trace after writing the response (the
    /// `write` stage must be measured first), so a client that has the
    /// answer may be a few microseconds ahead of the store.
    fn wait_for_trace(
        monitor: &mandipass_telemetry::Monitor,
        trace_id: u64,
    ) -> Option<mandipass_telemetry::RequestTrace> {
        for _ in 0..200 {
            if let Some(trace) = monitor.find_trace(trace_id) {
                return Some(trace);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        None
    }

    #[test]
    fn trace_ids_echo_over_tcp_and_land_in_the_store() {
        let server = VerifyServer::bind(shared_arc(), "127.0.0.1:0", ServeConfig::default())
            .unwrap_or_else(|e| panic!("bind: {e}"));
        let mut client = VerifyClient::connect(server.local_addr()).unwrap();
        let service = shared_arc();
        let monitor = service.system().monitor();

        // Client-supplied id: echoed verbatim and findable in the store.
        let (user, probe) = genuine_probe(53_000);
        let chosen = 0x00c0_ffee_0000_0001_u64;
        let (response, echoed) = client
            .call_traced(
                &Request::Verify {
                    user_id: user,
                    probe,
                },
                Some(chosen),
            )
            .unwrap();
        assert!(matches!(response, Response::Decision { .. }));
        assert_eq!(echoed, Some(chosen));
        let trace = wait_for_trace(monitor, chosen)
            .unwrap_or_else(|| panic!("trace {chosen:x} not recorded"));
        assert_eq!(trace.endpoint, "verify");
        assert!(trace.stage_nanos() <= trace.total_nanos);
        let names: Vec<&str> = trace.stages.iter().map(|s| s.name).collect();
        assert!(
            names.contains(&"verify") && names.contains(&"write"),
            "wire stages missing: {names:?}"
        );

        // No explicit id: the client mints one and the server echoes it.
        let (_, echoed) = client.call_traced(&Request::Health, None).unwrap();
        let minted = echoed.unwrap_or_else(|| panic!("server did not echo a minted id"));
        assert!(wait_for_trace(monitor, minted).is_some());
    }

    #[test]
    fn garbage_frame_gets_a_bad_request_response() {
        let server = VerifyServer::bind(shared_arc(), "127.0.0.1:0", ServeConfig::default())
            .unwrap_or_else(|e| panic!("bind: {e}"));
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        protocol::write_frame(&mut stream, b"this is not json").unwrap();
        let payload = protocol::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        match Response::from_frame(&payload).unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, "bad_request"),
            other => panic!("expected bad_request, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_clients_all_get_answers() {
        let server = VerifyServer::bind(
            shared_arc(),
            "127.0.0.1:0",
            ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    let mut client = VerifyClient::connect(addr).unwrap();
                    for r in 0..3u64 {
                        let (user, probe) = genuine_probe(52_000 + t * 100 + r);
                        let response = client
                            .call(&Request::Verify {
                                user_id: user,
                                probe,
                            })
                            .unwrap();
                        assert!(
                            matches!(response, Response::Decision { .. }),
                            "worker thread dropped a request: {response:?}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn half_open_client_cannot_wedge_the_single_worker() {
        let server = VerifyServer::bind(
            shared_arc(),
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                read_timeout: Duration::from_millis(100),
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = server.local_addr();
        // A client that connects and then stalls — it even trickles a
        // partial frame header so the server is mid-read when it stops.
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(&[0u8, 0]).unwrap();
        // The single worker must shed the stalled connection at the read
        // timeout and answer the next client promptly.
        let start = Instant::now();
        let mut client = VerifyClient::connect(addr).unwrap();
        let response = client.call(&Request::Health).unwrap();
        assert!(matches!(response, Response::Health { .. }));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stalled client wedged the worker for {:?}",
            start.elapsed()
        );
        drop(stalled);
    }

    /// Occupies the single worker: a connection that sent a policy
    /// request whose faulted probes cost real pipeline time.
    fn plug_worker(addr: SocketAddr) -> TcpStream {
        let (user, probes) = genuine_probes(55_000, 3);
        let request = Request::VerifyWithPolicy {
            user_id: user,
            probes,
        };
        let mut plug = TcpStream::connect(addr).unwrap();
        protocol::write_frame(&mut plug, request.to_json().to_json().as_bytes()).unwrap();
        plug
    }

    /// Polls until the single worker actually holds a connection, so a
    /// subsequent flood deterministically contends for the queue.
    fn wait_for_active(before: f64) {
        let active = mandipass_telemetry::metrics().gauge("serve.connections_active");
        for _ in 0..500 {
            if active.get() > before {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("worker never picked the plug connection up");
    }

    #[test]
    fn queue_full_sheds_typed_overloaded_with_retry_hint() {
        let shed = mandipass_telemetry::metrics().counter("serve.shed.queue_full");
        let before_shed = shed.get();
        let active_before = mandipass_telemetry::metrics()
            .gauge("serve.connections_active")
            .get();
        let server = VerifyServer::bind(
            shared_arc(),
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                retry_after_ms: 77,
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = server.local_addr();
        let _plug = plug_worker(addr);
        wait_for_active(active_before);
        // Fill the queue's single slot, then flood: every extra
        // connection must get a typed overloaded reply, not a hang-up.
        let mut filler = TcpStream::connect(addr).unwrap();
        protocol::write_frame(&mut filler, b"{\"v\":1,\"op\":\"health\"}").unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let it enqueue
        let mut overloaded = 0usize;
        for _ in 0..4 {
            let mut extra = TcpStream::connect(addr).unwrap();
            extra
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            protocol::write_frame(
                &mut extra,
                b"{\"v\":1,\"op\":\"health\",\"trace\":\"00000000000000aa\"}",
            )
            .unwrap();
            let payload = protocol::read_frame(&mut extra, 1 << 20)
                .unwrap_or_else(|e| panic!("shed reply must arrive, got {e}"))
                .unwrap_or_else(|| panic!("shed reply must be a frame, not a close"));
            match Response::from_frame(&payload).unwrap() {
                Response::Error {
                    kind,
                    retry_after_ms,
                    ..
                } if kind == protocol::KIND_OVERLOADED => {
                    assert_eq!(retry_after_ms, Some(77));
                    overloaded += 1;
                }
                // The worker may have freed up mid-flood; decisions and
                // health replies are fine — hang-ups are not.
                _ => {}
            }
        }
        assert!(overloaded >= 1, "flood never hit the queue bound");
        assert!(shed.get() >= before_shed + overloaded as u64);
        // The shed reply echoes the client's trace id when one was sent.
    }

    #[test]
    fn blown_deadline_is_shed_before_the_forward_pass() {
        let shed = mandipass_telemetry::metrics().counter("serve.shed.deadline");
        let before = shed.get();
        let active_before = mandipass_telemetry::metrics()
            .gauge("serve.connections_active")
            .get();
        let server = VerifyServer::bind(
            shared_arc(),
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                queue_capacity: 4,
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = server.local_addr();
        let _plug = plug_worker(addr);
        wait_for_active(active_before);
        // A zero budget cannot survive any queue wait; the worker must
        // shed it when it finally picks the connection up.
        let (user, probe) = genuine_probe(55_100);
        let request = Request::Verify {
            user_id: user,
            probe,
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        protocol::write_frame(
            &mut stream,
            with_deadline_ms(request.to_json(), 0).to_json().as_bytes(),
        )
        .unwrap();
        let payload = protocol::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        match Response::from_frame(&payload).unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, protocol::KIND_DEADLINE),
            other => panic!("expected deadline shed, got {other:?}"),
        }
        assert!(shed.get() > before);
        // A generous budget on the same (now idle) server is served.
        let mut client = VerifyClient::connect(addr).unwrap();
        let (user, probe) = genuine_probe(55_200);
        assert!(matches!(
            client
                .call(&Request::Verify {
                    user_id: user,
                    probe
                })
                .unwrap(),
            Response::Decision { .. }
        ));
    }

    #[test]
    fn shutdown_drains_queued_connections_with_typed_reply() {
        let active_before = mandipass_telemetry::metrics()
            .gauge("serve.connections_active")
            .get();
        let mut server = VerifyServer::bind(
            shared_arc(),
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                queue_capacity: 4,
                drain_window: Duration::from_secs(2),
                ..ServeConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = server.local_addr();
        let _plug = plug_worker(addr);
        wait_for_active(active_before);
        // Two connections sitting in the queue when shutdown starts.
        let mut queued: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                protocol::write_frame(&mut s, b"{\"v\":1,\"op\":\"health\"}").unwrap();
                s
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50)); // let them enqueue
        let done = std::thread::spawn(move || {
            server.shutdown();
            server
        });
        for stream in &mut queued {
            let payload = protocol::read_frame(stream, 1 << 20)
                .unwrap_or_else(|e| panic!("drained connection must get a reply, got {e}"))
                .unwrap_or_else(|| panic!("drained connection must get a frame, not a close"));
            match Response::from_frame(&payload).unwrap() {
                Response::Error { kind, .. } => {
                    assert_eq!(kind, protocol::KIND_SHUTTING_DOWN)
                }
                other => panic!("expected shutting_down, got {other:?}"),
            }
        }
        let _server = done.join().unwrap();
    }

    #[test]
    fn shutdown_joins_all_threads_and_is_idempotent() {
        let mut server = VerifyServer::bind(shared_arc(), "127.0.0.1:0", ServeConfig::default())
            .unwrap_or_else(|e| panic!("bind: {e}"));
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        // Accepting is over: a fresh connection gets no service (either
        // refused outright or closed without an answer).
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = protocol::write_frame(&mut stream, b"{\"v\":1,\"op\":\"health\"}");
            let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            assert!(
                !matches!(protocol::read_frame(&mut stream, 1 << 20), Ok(Some(_))),
                "server answered after shutdown"
            );
        }
    }
}
