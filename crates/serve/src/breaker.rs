//! A health-coupled circuit breaker for the serving layer.
//!
//! The breaker is the serve stack's *admission policy* once overload or
//! drift is already happening: bounded admission (the server's queue)
//! sheds individual requests, while the breaker decides whether the
//! service should be accepting verify traffic at all.
//!
//! States:
//!
//! * **Closed** — normal operation, every request admitted.
//! * **Degraded** — not a stored state but an overlay: the machine is
//!   Closed while the drift [`Monitor`] reports `Alarm`. Only the
//!   policy path (with its accel-only fallback, the biometric layer's
//!   own degraded mode) and `health` are served; plain `verify` is
//!   fast-rejected with a typed `degraded_only` error.
//! * **Open** — the windowed failure rate (sheds + internal faults over
//!   the last [`BreakerConfig::window`] observed outcomes) crossed
//!   [`BreakerConfig::open_threshold`]. Verify traffic is fast-rejected
//!   with `overloaded` + `retry_after_ms`; after
//!   [`BreakerConfig::cooldown_rejects`] rejections the machine moves
//!   to HalfOpen.
//! * **HalfOpen** — deterministic probe admission: every
//!   [`BreakerConfig::probe_interval`]-th verify request is admitted as
//!   a probe, the rest are fast-rejected. The breaker closes after
//!   [`BreakerConfig::close_after`] admitted probes: a served probe is
//!   a success whatever its biometric outcome.
//!
//! Everything is **count-based**, never wall-clock-based: the window is
//! a ring of the last N outcomes, cooldown counts rejections, and probe
//! admission counts requests. Two runs that observe the same outcome
//! sequence therefore produce bit-identical transition sequences — the
//! property `exp_overload`'s determinism assertion rests on.
//!
//! The breaker itself is transport-free; [`crate::service`] consults it
//! per request and flushes transition events to the drift monitor's
//! record ring (as flights), the `serve.breaker.state` gauge, and the
//! `serve.breaker.transitions` counter. The server's shed paths (queue
//! full, blown deadline) feed it failures via
//! [`CircuitBreaker::record_shed`] — deliberately *not* an
//! acceptor-side fast path, because cooldown and probe admission are
//! counted inside [`CircuitBreaker::admit`]: requests must keep
//! reaching the service for the breaker to ever recover.
//!
//! [`Monitor`]: mandipass_telemetry::Monitor

use std::sync::{Mutex, PoisonError};

use mandipass_telemetry::HealthStatus;
use mandipass_util::json::Value;

/// The externally visible breaker state (Degraded is the Closed machine
/// under a drift alarm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation.
    Closed,
    /// Drift alarm: only the policy path (accel-only fallback) and
    /// health are served.
    Degraded,
    /// Fast-rejecting all verify traffic.
    Open,
    /// Admitting deterministic probes to test recovery.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case label for logs, flights, and `/health`.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Degraded => "degraded",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Numeric encoding for the `serve.breaker.state` gauge
    /// (0 closed, 1 degraded, 2 open, 3 half-open).
    pub fn gauge_value(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Degraded => 1.0,
            BreakerState::Open => 2.0,
            BreakerState::HalfOpen => 3.0,
        }
    }
}

/// Breaker tuning knobs. Counts, not durations — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Master switch; a disabled breaker admits everything and records
    /// nothing (used by bench phases that measure raw shedding).
    pub enabled: bool,
    /// Ring of the last N observed outcomes the failure rate is judged
    /// over.
    pub window: usize,
    /// Minimum failures in the window before the rate is judged at all
    /// (a single early failure must not open a cold breaker).
    pub min_failures: usize,
    /// Failure fraction of the window that opens the breaker.
    pub open_threshold: f64,
    /// Fast-rejections counted in Open before moving to HalfOpen.
    pub cooldown_rejects: u64,
    /// In HalfOpen, admit every Nth verify request as a probe.
    pub probe_interval: u64,
    /// Admitted HalfOpen probes that close the breaker.
    pub close_after: u64,
    /// The `retry_after_ms` hint attached to breaker fast-rejects.
    pub retry_after_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            enabled: true,
            window: 64,
            min_failures: 16,
            open_threshold: 0.5,
            cooldown_rejects: 16,
            probe_interval: 4,
            close_after: 3,
            retry_after_ms: 100,
        }
    }
}

impl BreakerConfig {
    /// A breaker that never trips (admits everything, observes nothing).
    pub fn disabled() -> Self {
        BreakerConfig {
            enabled: false,
            ..BreakerConfig::default()
        }
    }
}

/// What kind of request is asking for admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// `health` — always admitted (operators must see a sick server).
    Health,
    /// Single-probe `verify` — gated in Degraded.
    Verify,
    /// `verify_policy` — has the accel-only fallback, served in
    /// Degraded.
    VerifyPolicy,
}

/// The breaker's verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve it; report it via [`CircuitBreaker::record_success`] with
    /// `probe = false`.
    Admit,
    /// Serve it as a HalfOpen probe; report with `probe = true`.
    Probe,
    /// Fast-reject: breaker Open (or HalfOpen off-probe). Reply
    /// `overloaded` with this retry hint.
    RejectOpen {
        /// Back-off hint for the client.
        retry_after_ms: u64,
    },
    /// Fast-reject: Degraded and the endpoint has no degraded mode.
    /// Reply `degraded_only`.
    RejectDegraded,
}

/// One logged state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Stable reason label (`error_rate`, `machine`,
    /// `probes_recovered`, `drift_alarm`, `drift_recovered`).
    pub reason: &'static str,
}

impl Transition {
    /// `closed->open:error_rate`-style label for logs and reports.
    pub fn label(&self) -> String {
        format!("{}->{}:{}", self.from.label(), self.to.label(), self.reason)
    }
}

#[derive(Debug)]
enum Machine {
    Closed,
    Open { rejected: u64 },
    HalfOpen { asked: u64, successes: u64 },
}

#[derive(Debug)]
struct Inner {
    machine: Machine,
    /// Ring of the last `window` outcomes; `true` = failure.
    outcomes: std::collections::VecDeque<bool>,
    failures: usize,
    /// Last reported effective state, for overlay-change detection.
    reported: BreakerState,
    /// Transitions not yet drained by the service.
    pending: Vec<Transition>,
    /// Full transition history labels (bounded), for tests and benches.
    history: Vec<String>,
    total_transitions: u64,
}

const HISTORY_CAP: usize = 256;

/// The thread-safe breaker. All methods take `&self`; one short mutex
/// guards the counters.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given configuration.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(Inner {
                machine: Machine::Closed,
                outcomes: std::collections::VecDeque::new(),
                failures: 0,
                reported: BreakerState::Closed,
                pending: Vec::new(),
                history: Vec::new(),
                total_transitions: 0,
            }),
        }
    }

    /// The configuration the breaker was built with.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Asks for admission of one request, folding in the monitor's
    /// current health verdict (Alarm ⇒ Degraded overlay on a Closed
    /// machine).
    pub fn admit(&self, health: HealthStatus, class: RequestClass) -> Admission {
        if !self.config.enabled {
            return Admission::Admit;
        }
        let mut inner = self.lock();
        let verdict = match inner.machine {
            Machine::Closed => {
                if health == HealthStatus::Alarm && class == RequestClass::Verify {
                    Admission::RejectDegraded
                } else {
                    Admission::Admit
                }
            }
            Machine::Open { ref mut rejected } => {
                if class == RequestClass::Health {
                    Admission::Admit
                } else {
                    *rejected += 1;
                    if *rejected >= self.config.cooldown_rejects {
                        inner.machine = Machine::HalfOpen {
                            asked: 1,
                            successes: 0,
                        };
                        // The request that completed the cooldown is the
                        // first probe.
                        Admission::Probe
                    } else {
                        Admission::RejectOpen {
                            retry_after_ms: self.config.retry_after_ms,
                        }
                    }
                }
            }
            Machine::HalfOpen { ref mut asked, .. } => {
                if class == RequestClass::Health {
                    Admission::Admit
                } else {
                    let probe = *asked % self.config.probe_interval.max(1) == 0;
                    *asked += 1;
                    if probe {
                        Admission::Probe
                    } else {
                        Admission::RejectOpen {
                            retry_after_ms: self.config.retry_after_ms,
                        }
                    }
                }
            }
        };
        Self::reconcile(&mut inner, health);
        verdict
    }

    /// Reports an admitted request that was served. Served requests
    /// are successes: biometric rejections and client mistakes are
    /// successful service, and system faults reach the breaker through
    /// [`CircuitBreaker::record_shed`]. `probe` echoes whether
    /// [`CircuitBreaker::admit`] returned [`Admission::Probe`].
    pub fn record_success(&self, probe: bool) {
        if !self.config.enabled {
            return;
        }
        let mut inner = self.lock();
        match inner.machine {
            Machine::HalfOpen {
                ref mut successes, ..
            } if probe => {
                *successes += 1;
                if *successes >= self.config.close_after {
                    inner.machine = Machine::Closed;
                    inner.outcomes.clear();
                    inner.failures = 0;
                    Self::record_transition(&mut inner, BreakerState::Closed, "probes_recovered");
                }
            }
            // A probe outcome racing a transition is folded into the
            // ordinary window instead of being lost.
            _ => Self::push_outcome(&mut inner, &self.config, false),
        }
    }

    /// Reports a shed the server performed on the breaker's behalf-less
    /// paths (admission queue full, deadline blown). Sheds are failure
    /// observations: a sustained shed rate is exactly the overload the
    /// breaker exists to answer.
    pub fn record_shed(&self) {
        if self.config.enabled {
            Self::push_outcome(&mut self.lock(), &self.config, true);
        }
    }

    fn push_outcome(inner: &mut Inner, config: &BreakerConfig, failure: bool) {
        if inner.outcomes.len() == config.window.max(1) {
            if let Some(true) = inner.outcomes.pop_front() {
                inner.failures -= 1;
            }
        }
        inner.outcomes.push_back(failure);
        if failure {
            inner.failures += 1;
        }
        if matches!(inner.machine, Machine::Closed)
            && inner.failures >= config.min_failures.max(1)
            && (inner.failures as f64) >= config.open_threshold * inner.outcomes.len() as f64
        {
            inner.machine = Machine::Open { rejected: 0 };
            inner.outcomes.clear();
            inner.failures = 0;
            Self::record_transition(inner, BreakerState::Open, "error_rate");
        }
    }

    fn effective(machine: &Machine, health: HealthStatus) -> BreakerState {
        match machine {
            Machine::Closed if health == HealthStatus::Alarm => BreakerState::Degraded,
            Machine::Closed => BreakerState::Closed,
            Machine::Open { .. } => BreakerState::Open,
            Machine::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Detects overlay-driven transitions (Closed↔Degraded) that no
    /// machine change produced.
    fn reconcile(inner: &mut Inner, health: HealthStatus) {
        let effective = Self::effective(&inner.machine, health);
        if effective != inner.reported {
            let reason = match effective {
                BreakerState::Degraded => "drift_alarm",
                BreakerState::Closed if inner.reported == BreakerState::Degraded => {
                    "drift_recovered"
                }
                _ => "machine",
            };
            Self::record_transition(inner, effective, reason);
        }
    }

    fn record_transition(inner: &mut Inner, to: BreakerState, reason: &'static str) {
        let transition = Transition {
            from: inner.reported,
            to,
            reason,
        };
        inner.reported = to;
        inner.total_transitions += 1;
        if inner.history.len() < HISTORY_CAP {
            inner.history.push(transition.label());
        }
        inner.pending.push(transition);
    }

    /// The last reported state.
    pub fn state(&self) -> BreakerState {
        self.lock().reported
    }

    /// Drains transitions recorded since the last drain — the service
    /// flushes these to the monitor's flights, gauge, and counter.
    pub fn take_transitions(&self) -> Vec<Transition> {
        std::mem::take(&mut self.lock().pending)
    }

    /// The full transition history labels, oldest first (bounded at
    /// 256; `total_transitions` keeps counting past the cap).
    pub fn history(&self) -> Vec<String> {
        self.lock().history.clone()
    }

    /// Total transitions ever recorded.
    pub fn total_transitions(&self) -> u64 {
        self.lock().total_transitions
    }

    /// The `/health`-exposed state document.
    pub fn state_json(&self) -> Value {
        let inner = self.lock();
        Value::Object(vec![
            (
                "state".to_string(),
                Value::String(inner.reported.label().to_string()),
            ),
            (
                "window_failures".to_string(),
                Value::Number(inner.failures as f64),
            ),
            (
                "window_len".to_string(),
                Value::Number(inner.outcomes.len() as f64),
            ),
            (
                "transitions".to_string(),
                Value::Number(inner.total_transitions as f64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_open(breaker: &CircuitBreaker) {
        // Enough failures to cross min_failures at a 100% failure rate.
        for _ in 0..breaker.config().min_failures {
            breaker.record_shed();
        }
    }

    fn tight() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_failures: 4,
            open_threshold: 0.5,
            cooldown_rejects: 3,
            probe_interval: 2,
            close_after: 2,
            ..BreakerConfig::default()
        }
    }

    #[test]
    fn closed_to_open_to_half_open_to_closed() {
        let breaker = CircuitBreaker::new(tight());
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(
            breaker.admit(HealthStatus::Healthy, RequestClass::Verify),
            Admission::Admit
        );
        drive_open(&breaker);
        assert_eq!(breaker.state(), BreakerState::Open);
        // Cooldown: the first two rejections stay Open, the third
        // becomes the first HalfOpen probe.
        for _ in 0..2 {
            assert!(matches!(
                breaker.admit(HealthStatus::Healthy, RequestClass::Verify),
                Admission::RejectOpen { retry_after_ms } if retry_after_ms > 0
            ));
        }
        assert_eq!(
            breaker.admit(HealthStatus::Healthy, RequestClass::Verify),
            Admission::Probe
        );
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record_success(true);
        // Off-probe requests are still rejected between probes.
        assert!(matches!(
            breaker.admit(HealthStatus::Healthy, RequestClass::Verify),
            Admission::RejectOpen { .. }
        ));
        assert_eq!(
            breaker.admit(HealthStatus::Healthy, RequestClass::Verify),
            Admission::Probe
        );
        breaker.record_success(true);
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(
            breaker.history(),
            vec![
                "closed->open:error_rate",
                "open->half_open:machine",
                "half_open->closed:probes_recovered",
            ]
        );
    }

    #[test]
    fn health_endpoint_is_always_admitted() {
        let breaker = CircuitBreaker::new(tight());
        drive_open(&breaker);
        assert_eq!(
            breaker.admit(HealthStatus::Healthy, RequestClass::Health),
            Admission::Admit
        );
    }

    #[test]
    fn alarm_overlays_degraded_and_gates_plain_verify_only() {
        let breaker = CircuitBreaker::new(tight());
        assert_eq!(
            breaker.admit(HealthStatus::Alarm, RequestClass::Verify),
            Admission::RejectDegraded
        );
        assert_eq!(breaker.state(), BreakerState::Degraded);
        assert_eq!(
            breaker.admit(HealthStatus::Alarm, RequestClass::VerifyPolicy),
            Admission::Admit
        );
        assert_eq!(
            breaker.admit(HealthStatus::Alarm, RequestClass::Health),
            Admission::Admit
        );
        assert_eq!(
            breaker.admit(HealthStatus::Healthy, RequestClass::Verify),
            Admission::Admit
        );
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(
            breaker.history(),
            vec![
                "closed->degraded:drift_alarm",
                "degraded->closed:drift_recovered"
            ]
        );
    }

    #[test]
    fn successes_heal_the_window() {
        let config = tight();
        let breaker = CircuitBreaker::new(config.clone());
        // Three failures (below min_failures), then a run of successes:
        // the ring evicts the failures and the breaker stays Closed.
        for _ in 0..3 {
            breaker.record_shed();
        }
        for _ in 0..config.window {
            breaker.record_success(false);
        }
        for _ in 0..3 {
            breaker.record_shed();
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn same_outcome_sequence_produces_identical_transitions() {
        let run = || {
            let breaker = CircuitBreaker::new(tight());
            for i in 0..64u64 {
                let class = if i % 3 == 0 {
                    RequestClass::VerifyPolicy
                } else {
                    RequestClass::Verify
                };
                match breaker.admit(HealthStatus::Healthy, class) {
                    Admission::Admit if i % 2 == 0 => breaker.record_shed(),
                    Admission::Admit => breaker.record_success(false),
                    Admission::Probe => breaker.record_success(true),
                    _ => {}
                }
            }
            breaker.history()
        };
        let first = run();
        assert_eq!(first, run(), "transition sequence must be deterministic");
        assert!(!first.is_empty());
    }

    #[test]
    fn disabled_breaker_admits_everything_and_stays_closed() {
        let breaker = CircuitBreaker::new(BreakerConfig::disabled());
        for _ in 0..100 {
            breaker.record_shed();
        }
        assert_eq!(
            breaker.admit(HealthStatus::Alarm, RequestClass::Verify),
            Admission::Admit
        );
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.history().is_empty());
    }

    #[test]
    fn state_json_has_the_exposed_fields() {
        let breaker = CircuitBreaker::new(tight());
        breaker.record_shed();
        let doc = breaker.state_json();
        assert_eq!(doc.get("state").and_then(Value::as_str), Some("closed"));
        assert_eq!(
            doc.get("window_failures").and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(doc.get("window_len").and_then(Value::as_f64), Some(1.0));
        assert_eq!(doc.get("transitions").and_then(Value::as_f64), Some(0.0));
    }
}
