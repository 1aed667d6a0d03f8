//! Hermetic observability substrate for the MandiPass workspace.
//!
//! The paper's headline usability claims are latency numbers (§VII
//! "response time ≤ 1 s", Table I RTC), so the reproduction needs a
//! first-class way to see where time and decisions go. This crate
//! provides that without any external dependency, mirroring the
//! workspace's hermetic-build policy (DESIGN.md §6):
//!
//! * [`span()`] / [`SpanGuard`] — structured spans with nested scopes and
//!   monotonic timing. Opening a span pushes onto a thread-local stack;
//!   the RAII guard closes it on drop (including during unwinding), so
//!   instrumented code never leaks scope state. Spans have two
//!   consumers, [`capture`] and the CPU profiler ([`profile`]); with
//!   neither active, span creation early-outs on two relaxed atomic
//!   loads, so instrumentation costs ~nothing. There is no per-span
//!   stream: read spans per frame at `/profile/cpu`, per request at
//!   `/traces`, and per closure through [`capture`].
//! * [`metrics`](mod@metrics) — a global registry of atomic counters, gauges, and
//!   log-linear [`Histogram`]s, the one quantile type the registry,
//!   trace attribution, stage reports and profiler share. The [`counter!`],
//!   [`gauge!`] and [`histogram!`] macros cache their handle in a
//!   call-site `static`, so a hot-path increment is one atomic add.
//! * [`event`] — one-line `[telemetry]` narration on stderr while
//!   `MANDIPASS_TELEMETRY=1` (or [`set_mode`]) has it on.
//! * **One switch rule** — `MANDIPASS_TELEMETRY`, `MANDIPASS_PROFILE`,
//!   `MANDIPASS_PROFILE_ALLOC` and `MANDIPASS_TELEMETRY_DETERMINISTIC`
//!   all read on for the trimmed, case-insensitive values `1`, `on`,
//!   `true` and `yes`, and off for anything else.
//! * **Deterministic mode** — with [`set_deterministic`] (or
//!   `MANDIPASS_TELEMETRY_DETERMINISTIC=1`) timestamps come from a
//!   per-thread logical clock instead of the wall clock, so the span
//!   tree recorded by [`capture`] is bit-stable across same-seed runs
//!   (the property `tests/determinism.rs` asserts).
//! * [`capture`] — records the span tree produced by a closure on the
//!   current thread and returns it as a [`span::SpanTree`], the input to
//!   [`report::latency_report`], which renders the per-stage latency
//!   breakdown behind the §VII.E overhead table.
//! * [`trace`] — end-to-end request tracing for the serve layer: wire
//!   trace ids (hex over JSON), per-request stage timings with the
//!   captured pipeline span tree, and a bounded [`TraceStore`] whose
//!   sampler keeps every error/degraded/slow request and a
//!   deterministic, order-independent fraction of the rest. The same
//!   ring holds the [`flight`] records of failed verifications.
//! * [`profile`] + [`alloc`] — continuous profiling: every span close
//!   feeds a deterministic process-wide call tree (self/total time,
//!   counts, [`Histogram`] p50/p99 per frame) behind `MANDIPASS_PROFILE`,
//!   and an opt-in counting global allocator attributes heap traffic
//!   to the innermost span path behind `MANDIPASS_PROFILE_ALLOC`.
//!   Folded-stack and JSON exports serve at `/profile/cpu` and
//!   `/profile/alloc` on the monitor server.
//! * [`monitor`](mod@monitor) + [`window`] / [`drift`] / [`flight`] / [`expose`] —
//!   the live-monitoring layer: sliding-window counters and histograms,
//!   score-drift detection (PSI/KS against a frozen enrolment-time
//!   baseline) folded into a typed [`HealthStatus`], flight records of
//!   failed verifications (kept in the trace ring), and Prometheus-text/JSON
//!   exposition — offline via [`Monitor::snapshot`] or over an optional
//!   `MANDIPASS_MONITOR_ADDR` HTTP listener.
//!
//! # Example
//!
//! ```
//! use mandipass_telemetry as telemetry;
//!
//! telemetry::set_deterministic(true);
//! let ((), tree) = telemetry::capture(|| {
//!     let _outer = telemetry::span("verify");
//!     let _inner = telemetry::span("preprocess");
//! });
//! assert_eq!(tree.spans().len(), 2);
//! assert_eq!(tree.spans()[0].path, "verify");
//! assert_eq!(tree.spans()[1].path, "verify.preprocess");
//! telemetry::counter!("verify.total").inc();
//! ```

pub mod alloc;
pub mod clock;
pub mod drift;
pub mod expose;
pub mod flight;
pub mod metrics;
pub mod mode;
pub mod monitor;
pub mod profile;
pub mod report;
pub mod span;
mod switch;
pub mod trace;
pub mod window;

pub use alloc::{AllocProfile, AllocStats, ProfilingAlloc, PROFILE_ALLOC_ENV};
pub use clock::set_deterministic;
pub use drift::{DriftDetector, HealthReport, HealthSignal, HealthStatus};
pub use expose::{render_prometheus, serve_from_env, MonitorServer, MONITOR_ADDR_ENV};
pub use flight::{FlightOutcome, VerifyFlight};
pub use metrics::{global as metrics, Counter, Gauge, Histogram, Registry};
pub use mode::{enabled, mode, set_default_mode, set_mode, Mode};
pub use monitor::{global as monitor, Monitor, MonitorConfig};
pub use profile::{CpuProfile, FrameStats, PROFILE_ENV};
pub use span::{capture, span, try_capture, SpanGuard, SpanRecord, SpanTree};
pub use trace::{
    attribution_report, format_trace_id, mint_id, parse_trace_id, FlightRecord, RequestTrace,
    SampleReason, StageTiming, TraceConfig, TraceStore, TRACE_SAMPLE_ENV,
};
pub use window::{WindowedCounter, WindowedHistogram};

/// Writes `[telemetry] <message>` to stderr while narration is on
/// (see [`Mode`]); silent otherwise. Replaces ad-hoc `eprintln!`
/// progress lines so all operator output flows through one code path.
pub fn event(message: &str) {
    if enabled() {
        eprintln!("[telemetry] {message}");
    }
}

/// Caches a [`Counter`] handle in a call-site `static`: after the first
/// call the increment is a single atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics().counter($name))
    }};
}

/// Caches a [`Gauge`] handle in a call-site `static`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics().gauge($name))
    }};
}

/// Caches a [`Histogram`] handle in a call-site `static`. Every
/// histogram has the same log-linear buckets over `[2^-32, 2^40)`
/// (seconds and nanoseconds alike), and quantiles read at most 2^-4
/// below the exact nearest-rank value; see [`Histogram`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics().histogram($name))
    }};
}

/// Serialises unit tests that mutate the global mode or clock state, so
/// the parallel test harness cannot interleave them.
#[cfg(test)]
pub(crate) mod test_sync {
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn global_state_lock() -> MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_cache_one_handle_per_site() {
        for _ in 0..3 {
            counter!("lib.macro_counter").inc();
        }
        assert_eq!(metrics().counter("lib.macro_counter").get(), 3);
        gauge!("lib.macro_gauge").set(2.5);
        assert_eq!(metrics().gauge("lib.macro_gauge").get(), 2.5);
        histogram!("lib.macro_hist").observe(1.0);
        assert_eq!(metrics().histogram("lib.macro_hist").count(), 1);
    }

    #[test]
    fn event_is_silent_by_default() {
        // Must not panic while narration is off.
        event("narration off");
    }
}
