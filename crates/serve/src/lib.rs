//! `mandipass-serve` — a std-only request/response verify server.
//!
//! The serving layer turns one enrolled [`mandipass::prelude::MandiPass`]
//! deployment into a network service without leaving the workspace's
//! hermetic build policy: no async runtime, no registry dependencies,
//! just `std::net::TcpListener` plus a fixed-size worker thread pool —
//! the same pattern the telemetry crate's exposition server proved out.
//!
//! Three moving parts:
//!
//! * [`protocol`] — the wire format: 4-byte big-endian length prefix +
//!   one compact JSON document per frame, both directions. Requests are
//!   `health`, `verify` (one probe), and `verify_policy` (a probe
//!   sequence judged under the deployment's [`VerifyPolicy`]).
//! * [`service`] — [`VerifyService`]: the transport-free request
//!   handler. It owns the enrolled deployment plus each user's Gaussian
//!   matrix and answers [`protocol::Request`] values directly, so an
//!   in-process caller (the bench load generator's fastest target) and
//!   the TCP workers share one code path, one telemetry surface
//!   (`serve.*` counters + the `serve.request_seconds` histogram), and
//!   one drift-monitor feed.
//! * [`server`] — [`VerifyServer`]: the TCP front. An acceptor thread
//!   hands connections (with `TCP_NODELAY` and a read timeout applied)
//!   to N worker threads over a **capacity-bounded** channel; workers
//!   answer framed requests until the peer closes, the read timeout
//!   fires, or the server shuts down. When the admission queue is full
//!   the connection is shed with a typed `overloaded` error carrying a
//!   `retry_after_ms` hint; requests whose optional `deadline_ms`
//!   budget was blown by queue wait alone are shed without a forward
//!   pass. [`VerifyServer::shutdown`] is graceful: stop flag, acceptor
//!   wake-up, a bounded drain that answers still-queued connections
//!   with a typed `shutting_down` error, join.
//!
//! Overload hardening wraps those parts:
//!
//! * [`breaker`] — [`CircuitBreaker`]: a deterministic, count-based
//!   Closed → Degraded → Open → HalfOpen circuit breaker coupled to the
//!   drift monitor's health verdict (a drift Alarm overlays Degraded:
//!   only the accel-only `verify_policy` fallback path is served) and
//!   to the shed rate (sustained sheds open it; cooldown admits
//!   deterministic half-open probes). Its state rides every `health`
//!   response and the monitor's `GET /health` document, and every
//!   transition lands in the monitor's record ring as a flight.
//! * [`chaos`] — [`ChaosProxy`]: a seed-deterministic in-process TCP
//!   fault proxy (frames split at arbitrary byte boundaries, byte
//!   trickle, abrupt mid-frame closes, stalled reads, connect floods)
//!   the tests and the overload bench drive the server through.
//!
//! [`client::VerifyClient`] is the matching blocking client, used by the
//! load generator and the tests. Beyond one-shot calls it offers
//! [`client::VerifyClient::call_resilient`]: bounded connects,
//! reconnection on broken connections, and capped exponential backoff
//! with deterministic jitter that honours the server's
//! `retry_after_ms` hints, retrying under one trace id.
//!
//! Every request is traced end to end: frames may carry an optional
//! `trace` field (a 16-hex-digit id, minted server-side when absent —
//! the protocol version stays 1 because both parsers ignore unknown
//! fields), responses echo it back, and each handled request records a
//! [`mandipass_telemetry::RequestTrace`] with a queue-wait / decode /
//! verify / write stage breakdown into the monitor's sampled trace
//! store, inspectable over `GET /traces` on the monitor HTTP listener.
//!
//! [`VerifyPolicy`]: mandipass::prelude::VerifyPolicy

pub mod breaker;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

#[cfg(test)]
pub(crate) mod test_support;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker, RequestClass};
pub use chaos::{ChaosProxy, ConnPlan, Fault};
pub use client::{ResilientOutcome, RetryConfig, VerifyClient};
pub use protocol::{
    deadline_ms_of, trace_id_of, with_deadline_ms, with_trace_id, Request, Response,
    DEADLINE_FIELD, PROTOCOL_VERSION, TRACE_FIELD,
};
pub use server::{ServeConfig, VerifyServer};
pub use service::{PendingTrace, VerifyService, WireTiming};

#[cfg(test)]
mod sync_audit {
    /// The whole serving story rests on sharing one enrolled deployment
    /// across worker threads by `&self`; assert the auto-traits here so
    /// a future interior-mutability change fails loudly at compile time.
    #[test]
    fn shared_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<mandipass::prelude::MandiPass>();
        assert_send_sync::<crate::VerifyService>();
        assert_send_sync::<crate::VerifyServer>();
    }
}
