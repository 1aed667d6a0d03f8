//! Flights: the structured facts of one failed verification.
//!
//! Aggregate counters say *how many* verifications failed; an incident
//! needs *what happened* in the last few. A [`VerifyFlight`] holds what
//! a request trace lacks about one rejected, degraded, or
//! retries-exhausted verification (or breaker transition), including an
//! open-ended JSON `detail` (the quality report) the telemetry crate
//! never interprets, so core can attach its own types without a
//! dependency cycle. [`crate::Monitor::record_flight`] stores it as a
//! [`crate::trace::FlightRecord`] in the one request-trace ring.

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

/// The facts of one failed/degraded verification that its store record
/// does not already carry.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyFlight {
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
    /// Structured payload the producer attached (quality report, breaker
    /// transition); [`Value::Null`] when none.
    pub detail: Value,
}

impl VerifyFlight {
    /// A flight with everything but the user and outcome defaulted;
    /// producers fill what they know.
    pub fn new(user_id: u32, outcome: FlightOutcome) -> Self {
        VerifyFlight {
            user_id,
            outcome,
            distance: None,
            threshold: None,
            attempts: 1,
            rejects: Vec::new(),
            detail: Value::Null,
        }
    }

    /// The flight's JSON members, in the order `/flight` lists them.
    pub(crate) fn members(&self) -> Vec<(String, Value)> {
        let num = |v: Option<f64>| {
            v.filter(|x| x.is_finite())
                .map_or(Value::Null, Value::Number)
        };
        let text = |s: &str| Value::String(s.to_string());
        let rejects = self.rejects.iter().map(|r| text(r)).collect();
        vec![
            (
                "user_id".to_string(),
                Value::Number(f64::from(self.user_id)),
            ),
            ("outcome".to_string(), text(self.outcome.label())),
            ("distance".to_string(), num(self.distance)),
            ("threshold".to_string(), num(self.threshold)),
            ("attempts".to_string(), Value::Number(self.attempts as f64)),
            ("rejects".to_string(), Value::Array(rejects)),
            ("detail".to_string(), self.detail.clone()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(FlightOutcome::Rejected.label(), "rejected");
        assert_eq!(FlightOutcome::Degraded.label(), "degraded");
        assert_eq!(FlightOutcome::Exhausted.label(), "exhausted");
        assert_eq!(FlightOutcome::Breaker.label(), "breaker");
    }
}
