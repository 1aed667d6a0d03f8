//! A bounded ring of structured records for failed verifications.
//!
//! Aggregate counters say *how many* verifications failed; a production
//! incident needs to know *what happened* in the last few. The flight
//! recorder keeps one [`VerifyFlight`] per rejected, degraded, or
//! retries-exhausted verification — distance, policy decisions, reject
//! labels, and an open-ended JSON `detail` payload (quality report, span
//! tree) that the telemetry crate never has to interpret, so the core
//! crate can attach its own types without a dependency cycle.

use std::collections::VecDeque;

use mandipass_util::json::Value;

/// Why a verification earned a flight record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// A probe was rejected (verify miss, quality gate, or pipeline
    /// failure).
    Rejected,
    /// The decision was made in degraded accelerometer-only mode.
    Degraded,
    /// Every probe a policy considered was rejected.
    Exhausted,
    /// The serving layer's circuit breaker changed state (the `detail`
    /// payload carries the `from`/`to` states and the reason).
    Breaker,
}

impl FlightOutcome {
    /// Stable lower-case label for reports and exposition.
    pub fn label(self) -> &'static str {
        match self {
            FlightOutcome::Rejected => "rejected",
            FlightOutcome::Degraded => "degraded",
            FlightOutcome::Exhausted => "exhausted",
            FlightOutcome::Breaker => "breaker",
        }
    }
}

/// One recorded failed/degraded verification.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyFlight {
    /// Monotonic per-recorder sequence number (assigned on record, never
    /// reused after eviction).
    pub seq: u64,
    /// Timestamp of the record ([`crate::clock::now`] units).
    pub timestamp: u64,
    /// The user the verification targeted.
    pub user_id: u32,
    /// Why this flight was recorded.
    pub outcome: FlightOutcome,
    /// Cosine distance of the decision, when a comparison happened.
    pub distance: Option<f64>,
    /// The threshold the decision was made against, when one applied.
    pub threshold: Option<f64>,
    /// Probes consumed by the policy (1 for single-probe verifies).
    pub attempts: usize,
    /// Reject labels accumulated before the decision
    /// (`quality:dead_axis`, `pipeline:dsp`, …).
    pub rejects: Vec<String>,
    /// Structured payload the producer attached (quality report, span
    /// tree); [`Value::Null`] when none.
    pub detail: Value,
    /// The request trace this flight belongs to, when the verification
    /// ran inside a traced serve request (see [`crate::trace`]).
    pub trace_id: Option<u64>,
}

impl VerifyFlight {
    /// A record with everything but the identity fields defaulted;
    /// producers fill what they know, [`FlightRecorder::record_at`] assigns
    /// `seq` and `timestamp`.
    pub fn new(user_id: u32, outcome: FlightOutcome) -> Self {
        VerifyFlight {
            seq: 0,
            timestamp: 0,
            user_id,
            outcome,
            distance: None,
            threshold: None,
            attempts: 1,
            rejects: Vec::new(),
            detail: Value::Null,
            trace_id: None,
        }
    }

    /// Serialises the record.
    pub fn to_json(&self) -> Value {
        let opt = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => Value::Number(x),
            _ => Value::Null,
        };
        Value::Object(vec![
            ("seq".to_string(), Value::Number(self.seq as f64)),
            (
                "timestamp".to_string(),
                Value::Number(self.timestamp as f64),
            ),
            (
                "user_id".to_string(),
                Value::Number(f64::from(self.user_id)),
            ),
            (
                "outcome".to_string(),
                Value::String(self.outcome.label().to_string()),
            ),
            ("distance".to_string(), opt(self.distance)),
            ("threshold".to_string(), opt(self.threshold)),
            ("attempts".to_string(), Value::Number(self.attempts as f64)),
            (
                "rejects".to_string(),
                Value::Array(
                    self.rejects
                        .iter()
                        .map(|r| Value::String(r.clone()))
                        .collect(),
                ),
            ),
            ("detail".to_string(), self.detail.clone()),
            (
                "trace_id".to_string(),
                self.trace_id.map_or(Value::Null, |id| {
                    Value::String(crate::trace::format_trace_id(id))
                }),
            ),
        ])
    }
}

/// The bounded ring of [`VerifyFlight`] records, oldest evicted first.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<VerifyFlight>,
    capacity: usize,
    next_seq: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
        }
    }

    /// Records one flight at time `now`, assigning its sequence number.
    pub fn record_at(&mut self, now: u64, mut flight: VerifyFlight) {
        flight.seq = self.next_seq;
        flight.timestamp = now;
        self.next_seq += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(flight);
    }

    /// The retained records, oldest first.
    pub fn flights(&self) -> Vec<VerifyFlight> {
        self.ring.iter().cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total flights ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Serialises the retained records, oldest first.
    pub fn to_json(&self) -> Value {
        Value::Array(self.ring.iter().map(VerifyFlight::to_json).collect())
    }

    /// Forgets the retained records (the sequence counter survives, like
    /// the enclave audit ring's).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_assigns_seq_and_timestamp() {
        let mut r = FlightRecorder::new(8);
        r.record_at(5, VerifyFlight::new(7, FlightOutcome::Rejected));
        r.record_at(6, VerifyFlight::new(7, FlightOutcome::Exhausted));
        let flights = r.flights();
        assert_eq!(flights.len(), 2);
        assert_eq!(flights[0].seq, 0);
        assert_eq!(flights[0].timestamp, 5);
        assert_eq!(flights[1].seq, 1);
        assert_eq!(r.total_recorded(), 2);
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_seq() {
        let mut r = FlightRecorder::new(2);
        for i in 0..5u64 {
            r.record_at(i, VerifyFlight::new(1, FlightOutcome::Rejected));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.capacity(), 2);
        let seqs: Vec<u64> = r.flights().iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = FlightRecorder::new(0);
        r.record_at(1, VerifyFlight::new(1, FlightOutcome::Degraded));
        r.record_at(2, VerifyFlight::new(2, FlightOutcome::Degraded));
        assert_eq!(r.len(), 1);
        assert_eq!(r.flights()[0].user_id, 2);
    }

    #[test]
    fn flight_serialises_all_fields() {
        let mut flight = VerifyFlight::new(3, FlightOutcome::Exhausted);
        flight.distance = Some(0.71);
        flight.threshold = Some(0.5485);
        flight.attempts = 3;
        flight.rejects = vec!["quality:dead_axis".to_string()];
        flight.detail = Value::Object(vec![("energy_std".to_string(), Value::Number(12.0))]);
        flight.trace_id = Some(0xfeed);
        let mut r = FlightRecorder::new(4);
        r.record_at(9, flight);
        let json = r.to_json().to_json();
        assert!(json.contains("\"outcome\":\"exhausted\""));
        assert!(json.contains("\"trace_id\":\"000000000000feed\""));
        assert!(json.contains("\"distance\":0.71"));
        assert!(json.contains("\"rejects\":[\"quality:dead_axis\"]"));
        assert!(json.contains("\"energy_std\":12"));
        assert!(json.contains("\"timestamp\":9"));
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(FlightOutcome::Rejected.label(), "rejected");
        assert_eq!(FlightOutcome::Degraded.label(), "degraded");
        assert_eq!(FlightOutcome::Exhausted.label(), "exhausted");
        assert_eq!(FlightOutcome::Breaker.label(), "breaker");
    }

    #[test]
    fn clear_keeps_total() {
        let mut r = FlightRecorder::new(4);
        r.record_at(1, VerifyFlight::new(1, FlightOutcome::Rejected));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 1);
        r.record_at(2, VerifyFlight::new(1, FlightOutcome::Rejected));
        assert_eq!(r.flights()[0].seq, 1);
    }
}
