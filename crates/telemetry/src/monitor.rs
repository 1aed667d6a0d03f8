//! The live-monitoring façade: one thread-safe object the pipeline
//! feeds and the exposition layer reads.
//!
//! [`Monitor`] owns a [`DriftDetector`] (windowed distance distribution
//! vs the frozen enrolment baseline), per-label windowed counters for
//! quality rejections and enclave audit activity, and the one
//! [`TraceStore`] ring of request traces and failed-verification
//! flights. Producers (core's authenticator and enclave) call the
//! `observe_*` and `record_*` methods;
//! consumers read [`Monitor::health`] and [`Monitor::snapshot`] — the
//! latter is the offline equivalent of the HTTP endpoints in
//! [`crate::expose`], so tests and CI never need a socket.
//!
//! Most deployments use the process-wide [`global`] monitor; tests build
//! private instances.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use mandipass_util::json::Value;

use crate::clock;
use crate::drift::{self, DriftDetector, HealthReport};
use crate::flight::{FlightOutcome, VerifyFlight};
use crate::span::SpanTree;
use crate::trace::{FlightRecord, RequestTrace, TraceConfig, TraceStore};
use crate::window::WindowedCounter;

/// Monitor-wide configuration: the record ring. The drift detector's
/// thresholds and window geometry are constants (see [`crate::drift`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MonitorConfig {
    /// Record-ring geometry (shared by traces and flights) and the
    /// request-trace sampling rules.
    pub trace: TraceConfig,
}

#[derive(Debug)]
struct MonitorInner {
    detector: DriftDetector,
    /// Windowed quality-reject counts keyed by reason label.
    quality_rejects: BTreeMap<String, WindowedCounter>,
    /// Windowed enclave audit activity keyed by [`AuditKind`] label.
    audit: BTreeMap<String, WindowedCounter>,
    /// Request traces and flights, in one ring.
    records: TraceStore,
    /// The serving layer's circuit-breaker state document, when a
    /// breaker reports here (`Value::Null` otherwise). Injected into the
    /// health object so `GET /health` shows it.
    breaker: Value,
}

/// The live health monitor. All methods take `&self`; one mutex guards
/// the windows (observation paths are set-up-free and short).
#[derive(Debug)]
pub struct Monitor {
    inner: Mutex<MonitorInner>,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new(MonitorConfig::default())
    }
}

impl Monitor {
    /// A monitor with the given configuration.
    pub fn new(config: MonitorConfig) -> Self {
        Monitor {
            inner: Mutex::new(MonitorInner {
                detector: DriftDetector::new(),
                quality_rejects: BTreeMap::new(),
                audit: BTreeMap::new(),
                records: TraceStore::new(config.trace),
                breaker: Value::Null,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MonitorInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Accumulates enrolment-time genuine distances for the drift
    /// baseline.
    pub fn extend_baseline(&self, distances: &[f64]) {
        self.lock().detector.extend_baseline(distances);
    }

    /// Freezes the drift baseline from the accumulated distances.
    pub fn freeze_baseline(&self) {
        self.lock().detector.freeze_baseline();
    }

    /// Records one verify decision (distance comparison happened).
    pub fn observe_decision(&self, distance: f64, accepted: bool, degraded: bool) {
        let now = clock::now();
        self.lock()
            .detector
            .observe_decision_at(now, distance, accepted, degraded);
    }

    /// Records one quality-gate or pipeline rejection under `label`.
    pub fn observe_reject(&self, label: &str) {
        let now = clock::now();
        let mut inner = self.lock();
        inner.detector.observe_quality_reject_at(now);
        count_label(&mut inner.quality_rejects, label, now);
    }

    /// Records one enclave audit event under its kind label.
    pub fn observe_audit(&self, kind_label: &str) {
        let now = clock::now();
        count_label(&mut self.lock().audit, kind_label, now);
    }

    /// Records one failed/degraded verification flight, with the
    /// failed attempt's span tree when one was captured. The flight
    /// takes the thread's active trace id (see [`crate::trace::scope`]),
    /// tying server-side failure detail to the id the client saw.
    pub fn record_flight(&self, flight: VerifyFlight, spans: Option<SpanTree>) {
        let now = clock::now();
        let record = FlightRecord {
            seq: 0,
            timestamp: 0,
            trace_id: crate::trace::current(),
            flight,
            spans,
        };
        self.lock().records.record_flight_at(now, record);
    }

    /// Publishes the serving layer's circuit-breaker state document so
    /// `GET /health` and [`Monitor::snapshot`] expose it next to the
    /// drift verdict.
    pub fn set_breaker_state(&self, state: Value) {
        self.lock().breaker = state;
    }

    /// Records one circuit-breaker transition: a [`FlightOutcome::Breaker`]
    /// flight (detail carries `from`/`to`/`reason`) plus the published
    /// state document. Transitions survive in the record ring like any
    /// other incident-relevant event.
    pub fn observe_breaker_transition(&self, from: &str, to: &str, reason: &str, state: Value) {
        let mut flight = VerifyFlight::new(0, FlightOutcome::Breaker);
        flight.detail = Value::Object(vec![
            ("from".to_string(), Value::String(from.to_string())),
            ("to".to_string(), Value::String(to.to_string())),
            ("reason".to_string(), Value::String(reason.to_string())),
        ]);
        self.record_flight(flight, None);
        self.set_breaker_state(state);
    }

    /// Offers one request trace to the sampled store; returns whether
    /// it was retained.
    pub fn record_trace(&self, trace: RequestTrace) -> bool {
        let now = clock::now();
        self.lock().records.offer_at(now, trace)
    }

    /// The retained sampled request traces, oldest first.
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.lock().records.traces().cloned().collect()
    }

    /// The most recent retained request trace with this id.
    pub fn find_trace(&self, trace_id: u64) -> Option<RequestTrace> {
        self.lock().records.find(trace_id)
    }

    /// The detector's verdict for the window ending now.
    pub fn health(&self) -> HealthReport {
        let now = clock::now();
        self.lock().detector.health_at(now)
    }

    /// The retained flight records, oldest first.
    pub fn flights(&self) -> Vec<FlightRecord> {
        self.lock().records.flights().cloned().collect()
    }

    /// PSI between the frozen baseline and the live windowed distances.
    pub fn psi(&self) -> f64 {
        let now = clock::now();
        self.lock().detector.psi_at(now)
    }

    /// KS statistic between the frozen baseline and the live windowed
    /// distances.
    pub fn ks(&self) -> f64 {
        let now = clock::now();
        self.lock().detector.ks_at(now)
    }

    /// The offline exposition document — one schema shared by tests,
    /// the bench bins, and the `/health`, `/flight` and `/traces`
    /// endpoints (`flights` and `traces` filter the one record ring):
    ///
    /// ```json
    /// {"health": {...}, "window": {"distance": {...},
    ///  "quality_rejects": {...}, "audit": {...}}, "flights": [...],
    ///  "traces": {"total_offered": ..., "traces": [...], ...}, "metrics": {...}}
    /// ```
    pub fn snapshot(&self) -> Value {
        let now = clock::now();
        let inner = self.lock();
        let mut health = inner.detector.health_at(now).to_json();
        if let (Value::Object(members), breaker) = (&mut health, &inner.breaker) {
            if *breaker != Value::Null {
                members.push(("breaker".to_string(), breaker.clone()));
            }
        }
        let distances = inner.detector.distances();
        let num = |v: f64| {
            if v.is_finite() {
                Value::Number(v)
            } else {
                Value::Null
            }
        };
        let distance = Value::Object(vec![
            (
                "count".to_string(),
                Value::Number(distances.count_at(now) as f64),
            ),
            ("mean".to_string(), num(distances.mean_at(now))),
            ("p50".to_string(), num(distances.quantile_at(now, 0.5))),
            ("p90".to_string(), num(distances.quantile_at(now, 0.9))),
            ("psi".to_string(), num(inner.detector.psi_at(now))),
            ("ks".to_string(), num(inner.detector.ks_at(now))),
        ]);
        let counters = |map: &BTreeMap<String, WindowedCounter>| {
            Value::Object(
                map.iter()
                    .map(|(k, c)| (k.clone(), Value::Number(c.total_at(now) as f64)))
                    .collect(),
            )
        };
        Value::Object(vec![
            ("health".to_string(), health),
            (
                "window".to_string(),
                Value::Object(vec![
                    ("distance".to_string(), distance),
                    (
                        "quality_rejects".to_string(),
                        counters(&inner.quality_rejects),
                    ),
                    ("audit".to_string(), counters(&inner.audit)),
                ]),
            ),
            (
                "flights".to_string(),
                Value::Array(inner.records.flights().map(FlightRecord::to_json).collect()),
            ),
            ("traces".to_string(), inner.records.to_json()),
            (
                "metrics".to_string(),
                crate::metrics::global().snapshot_json(),
            ),
        ])
    }

    /// Clears every sliding window and the record ring; the frozen drift
    /// baseline and the ring's configuration survive. Lets one process run
    /// separate monitored phases (and keeps the integration tests
    /// independent under the never-expiring logical clock).
    pub fn reset_windows(&self) {
        let mut inner = self.lock();
        inner.detector.clear_windows();
        inner.quality_rejects.clear();
        inner.audit.clear();
        inner.records.clear();
    }
}

/// Counts one event under `label`, allocating the key only the first
/// time the label is seen: this runs under the monitor lock on every
/// served verify.
fn count_label(counters: &mut BTreeMap<String, WindowedCounter>, label: &str, now: u64) {
    match counters.get_mut(label) {
        Some(counter) => counter.inc_at(now),
        None => {
            let mut counter = drift::windowed_counter();
            counter.inc_at(now);
            counters.insert(label.to_string(), counter);
        }
    }
}

/// The process-wide monitor, fed by default-constructed deployments.
pub fn global() -> &'static Monitor {
    static GLOBAL: OnceLock<Monitor> = OnceLock::new();
    GLOBAL.get_or_init(Monitor::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::HealthStatus;
    use crate::test_sync::global_state_lock;

    #[test]
    fn monitor_routes_observations_to_health() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let m = Monitor::default();
        let calibration = [0.45, 0.47, 0.49, 0.51];
        m.extend_baseline(&calibration);
        m.freeze_baseline();
        // Match the baseline's distribution so only the volume changes.
        for i in 0..12 {
            m.observe_decision(calibration[i % calibration.len()], true, false);
        }
        let report = m.health();
        crate::set_deterministic(false);
        assert_eq!(report.status, HealthStatus::Healthy);
        assert_eq!(report.decisions, 12);
    }

    #[test]
    fn monitor_snapshot_has_the_shared_schema() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let m = Monitor::default();
        m.observe_decision(1.3, false, false);
        m.observe_reject("dead_axis");
        m.observe_audit("load");
        let mut flight = VerifyFlight::new(3, FlightOutcome::Rejected);
        flight.distance = Some(1.3);
        m.record_flight(flight, None);
        let snap = m.snapshot();
        crate::set_deterministic(false);
        for key in ["health", "window", "flights", "traces", "metrics"] {
            assert!(snap.get(key).is_some(), "snapshot misses {key}");
        }
        let window = snap.get("window").unwrap();
        assert_eq!(
            window
                .get("quality_rejects")
                .and_then(|q| q.get("dead_axis"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            window
                .get("audit")
                .and_then(|a| a.get("load"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        let flights = snap.get("flights").and_then(Value::as_array).unwrap();
        assert_eq!(flights.len(), 1);
        assert_eq!(
            flights[0].get("outcome").and_then(Value::as_str),
            Some("rejected")
        );
    }

    #[test]
    fn reset_windows_keeps_baseline_and_config() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let m = Monitor::default();
        m.extend_baseline(&[0.3; 8]);
        m.freeze_baseline();
        for _ in 0..20 {
            m.observe_decision(1.4, false, false);
            m.observe_reject("saturated");
        }
        assert_ne!(m.health().status, HealthStatus::Healthy);
        m.reset_windows();
        let report = m.health();
        assert_eq!(report.status, HealthStatus::Healthy);
        assert_eq!(report.decisions, 0);
        assert!(m.flights().is_empty());
        // Baseline survived: matching traffic stays healthy.
        for _ in 0..10 {
            m.observe_decision(0.3, true, false);
        }
        let after = m.health();
        crate::set_deterministic(false);
        assert_eq!(after.status, HealthStatus::Healthy);
    }

    #[test]
    fn traces_flow_through_the_monitor_and_tag_flights() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let m = Monitor::default();
        let mut trace = RequestTrace::new(0xbeef, "verify", "accepted");
        trace.total_nanos = 10;
        assert!(m.record_trace(trace));
        assert_eq!(m.traces().len(), 1);
        let found = m.find_trace(0xbeef).unwrap_or_else(|| panic!("trace lost"));
        assert_eq!(found.endpoint, "verify");
        // A flight recorded inside an open trace scope inherits the id.
        {
            let _scope = crate::trace::scope(0xbeef);
            m.record_flight(VerifyFlight::new(1, FlightOutcome::Rejected), None);
        }
        assert_eq!(m.flights()[0].trace_id, Some(0xbeef));
        // The flight shares the request's ring but not its views.
        assert_eq!(m.traces().len(), 1);
        assert_eq!(m.find_trace(0xbeef).map(|t| t.seq), Some(found.seq));
        let snap = m.snapshot();
        crate::set_deterministic(false);
        let retained = snap
            .get("traces")
            .and_then(|t| t.get("traces"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(retained.len(), 1);
        m.reset_windows();
        assert!(m.traces().is_empty());
        assert!(m.flights().is_empty());
    }

    #[test]
    fn breaker_transitions_surface_in_health_and_flights() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let m = Monitor::default();
        // Before any breaker reports, the health object stays untouched.
        assert!(m.snapshot().get("health").unwrap().get("breaker").is_none());
        m.observe_breaker_transition(
            "closed",
            "open",
            "error_rate",
            Value::Object(vec![(
                "state".to_string(),
                Value::String("open".to_string()),
            )]),
        );
        let snap = m.snapshot();
        crate::set_deterministic(false);
        let breaker = snap
            .get("health")
            .and_then(|h| h.get("breaker"))
            .unwrap_or_else(|| panic!("health misses the breaker document"));
        assert_eq!(breaker.get("state").and_then(Value::as_str), Some("open"));
        let flights = m.flights();
        assert_eq!(flights.len(), 1);
        assert_eq!(flights[0].flight.outcome, FlightOutcome::Breaker);
        assert_eq!(
            flights[0].flight.detail.get("to").and_then(Value::as_str),
            Some("open")
        );
    }

    /// The health document for one fixed sequence of observations,
    /// pinned byte for byte: the drift thresholds and window geometry
    /// are constants, and this golden string holds them to their values.
    #[test]
    fn health_document_is_pinned() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let m = Monitor::default();
        m.extend_baseline(&[0.42, 0.45, 0.47, 0.49, 0.50, 0.52, 0.55]);
        m.freeze_baseline();
        for i in 0..10 {
            m.observe_decision(0.44 + 0.01 * f64::from(i), true, false);
        }
        for i in 0..4 {
            m.observe_decision(0.95 + 0.05 * f64::from(i), false, false);
        }
        for _ in 0..3 {
            m.observe_reject("quality:dead_axis");
        }
        for i in 0..5 {
            m.observe_decision(0.50 + 0.04 * f64::from(i), i % 2 == 0, true);
        }
        let snapshot = m.snapshot();
        let health = snapshot.get("health").map(Value::to_json);
        crate::set_deterministic(false);
        const GOLDEN: &str = concat!(
            r#"{"status":"degrading","decisions":19,"sufficient":true,"signals":["#,
            r#"{"signal":"distance_drift","value":0.7914136687362943,"warn":0.5,"alarm":2,"status":"degrading"},"#,
            r#"{"signal":"reject_rate_spike","value":0.4090909090909091,"warn":0.25,"alarm":0.6,"status":"degrading"},"#,
            r#"{"signal":"degraded_ratio","value":0.2631578947368421,"warn":0.25,"alarm":0.6,"status":"degrading"}]}"#,
        );
        assert_eq!(health.as_deref(), Some(GOLDEN));
    }

    #[test]
    fn global_monitor_is_one_instance() {
        let a = global() as *const Monitor;
        let b = global() as *const Monitor;
        assert_eq!(a, b);
    }
}
