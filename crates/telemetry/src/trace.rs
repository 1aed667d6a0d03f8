//! End-to-end request tracing: per-request stage timings tied together
//! by a wire-visible trace id, in the one store of per-request records.
//!
//! The serve layer mints (or accepts) a `u64` trace id per request,
//! wraps the handling in a span capture, and offers the resulting
//! [`RequestTrace`] — endpoint, decision, stage breakdown, optional
//! pipeline [`SpanTree`] — to a bounded [`TraceStore`]. The store is
//! *sampled*: error, degraded, and slow requests are always retained;
//! the rest pass a probabilistic filter that hashes the trace id against
//! a fixed seed, so the sampled *set* is a pure function of the ids —
//! bit-identical across runs regardless of worker scheduling, which is
//! what the two-run determinism test in `exp_trace` asserts.
//!
//! The same ring holds [`FlightRecord`]s, stamped from the one sequence
//! counter and clock. A flight skips the sampler and the offered/sampled
//! totals (reason [`SampleReason::Flight`]) but is evicted oldest-first
//! like any trace; [`TraceStore::traces`] and [`TraceStore::flights`]
//! filter the ring.
//!
//! On the wire a trace id travels as a fixed-width lower-case hex
//! string ([`format_trace_id`]); JSON numbers are f64 and would corrupt
//! ids above 2^53. [`scope`] parks the active id in a thread-local so
//! deep layers (flight recording in the core policy path) can tag
//! their records without threading the id through every signature.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use mandipass_util::json::Value;
use mandipass_util::rand::rngs::StdRng;
use mandipass_util::rand::{Rng, SeedableRng};

use crate::flight::VerifyFlight;
use crate::metrics::Histogram;
use crate::span::SpanTree;

/// Environment variable overriding the probabilistic sample rate
/// (`0.0` ≤ rate ≤ `1.0`; error/degraded/slow traces are kept anyway).
pub const TRACE_SAMPLE_ENV: &str = "MANDIPASS_TRACE_SAMPLE";

/// Renders a trace id as the wire format: 16 lower-case hex digits.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a wire trace id: 1–16 hex digits (case-insensitive).
pub fn parse_trace_id(text: &str) -> Result<u64, String> {
    if text.is_empty() || text.len() > 16 {
        return Err(format!("trace id must be 1-16 hex digits, got {text:?}"));
    }
    u64::from_str_radix(text, 16).map_err(|_| format!("trace id is not hex: {text:?}"))
}

/// One timed stage of a request's lifecycle, in nanoseconds (or logical
/// ticks in deterministic mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage label from the fixed taxonomy: `queue_wait`, `decode`,
    /// `verify`, `write`.
    pub name: &'static str,
    /// Time spent in the stage.
    pub nanos: u64,
}

/// Why a trace was retained by the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleReason {
    /// The request failed (parse error, not-enrolled, pipeline error,
    /// retries exhausted) — always sampled.
    Error,
    /// The decision was made in degraded mode — always sampled.
    Degraded,
    /// Total latency crossed the slow threshold — always sampled.
    Slow,
    /// Survived the probabilistic filter.
    Probabilistic,
    /// A flight record: never offered to the sampler.
    Flight,
}

impl SampleReason {
    /// Stable lower-case label for reports and exposition.
    pub fn label(self) -> &'static str {
        match self {
            SampleReason::Error => "error",
            SampleReason::Degraded => "degraded",
            SampleReason::Slow => "slow",
            SampleReason::Probabilistic => "probabilistic",
            SampleReason::Flight => "flight",
        }
    }
}

/// One traced request: identity, outcome, and where its time went.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Monotonic per-store sequence number (assigned on offer, never
    /// reused after eviction).
    pub seq: u64,
    /// Timestamp of the record ([`crate::clock::now`] units).
    pub timestamp: u64,
    /// The id echoed to the client.
    pub trace_id: u64,
    /// Request endpoint: `health`, `verify`, `verify_policy`, or
    /// `bad_request` for frames that never parsed.
    pub endpoint: String,
    /// Outcome label: `ok`, `accepted`, `rejected`, `degraded`, or
    /// `error:<kind>`.
    pub decision: String,
    /// End-to-end time from frame arrival (plus any queue wait) to the
    /// response write completing.
    pub total_nanos: u64,
    /// Per-stage breakdown; stage sums never exceed `total_nanos`.
    pub stages: Vec<StageTiming>,
    /// The pipeline span tree captured inside the `verify` stage, when
    /// the worker thread was free to capture.
    pub spans: Option<SpanTree>,
    /// Why the sampler kept this trace (assigned on offer).
    pub reason: Option<SampleReason>,
}

impl RequestTrace {
    /// A trace with identity fields set and everything else empty;
    /// [`TraceStore::offer_at`] assigns `seq`, `timestamp`, `reason`.
    pub fn new(trace_id: u64, endpoint: &str, decision: &str) -> Self {
        RequestTrace {
            seq: 0,
            timestamp: 0,
            trace_id,
            endpoint: endpoint.to_string(),
            decision: decision.to_string(),
            total_nanos: 0,
            stages: Vec::new(),
            spans: None,
            reason: None,
        }
    }

    /// Appends one stage timing.
    pub fn stage(&mut self, name: &'static str, nanos: u64) {
        self.stages.push(StageTiming { name, nanos });
    }

    /// Sum of the recorded stage durations.
    pub fn stage_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// Whether the decision is an error (`error:<kind>`).
    pub fn is_error(&self) -> bool {
        self.decision.starts_with("error")
    }

    /// Whether the decision was made in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.decision == "degraded"
    }

    /// Serialises the trace; the id renders in wire hex form.
    pub fn to_json(&self) -> Value {
        let members = vec![
            ("endpoint".to_string(), Value::String(self.endpoint.clone())),
            ("decision".to_string(), Value::String(self.decision.clone())),
            ("total_nanos".to_string(), number(self.total_nanos)),
            (
                "stages".to_string(),
                Value::Object(
                    self.stages
                        .iter()
                        .map(|s| (s.name.to_string(), number(s.nanos)))
                        .collect(),
                ),
            ),
        ];
        let stamps = (self.seq, self.timestamp, Some(self.trace_id));
        record_json(stamps, members, &self.spans, self.reason)
    }
}

fn number(n: u64) -> Value {
    Value::Number(n as f64)
}

/// The one JSON layout of a ring record: the store's stamps (`seq`,
/// `timestamp`, `trace_id`), the record's own `members`, then its span
/// tree and retention reason.
fn record_json(
    (seq, timestamp, trace_id): (u64, u64, Option<u64>),
    members: Vec<(String, Value)>,
    spans: &Option<SpanTree>,
    reason: Option<SampleReason>,
) -> Value {
    let trace_id = trace_id.map_or(Value::Null, |id| Value::String(format_trace_id(id)));
    let mut record = vec![
        ("seq".to_string(), number(seq)),
        ("timestamp".to_string(), number(timestamp)),
        ("trace_id".to_string(), trace_id),
    ];
    record.extend(members);
    let spans = spans.as_ref().map_or(Value::Null, SpanTree::to_json);
    let reason = reason.map_or(Value::Null, |r| Value::String(r.label().to_string()));
    record.extend([("spans".to_string(), spans), ("reason".to_string(), reason)]);
    Value::Object(record)
}

/// One retained flight: a [`VerifyFlight`] stamped by the store.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Store sequence number, shared with request traces.
    pub seq: u64,
    /// Timestamp of the record ([`crate::clock::now`] units).
    pub timestamp: u64,
    /// The request trace the flight ran under; `None` outside any
    /// [`scope`].
    pub trace_id: Option<u64>,
    /// The facts the producer recorded.
    pub flight: VerifyFlight,
    /// The span tree of the failed attempt, when one was captured.
    pub spans: Option<SpanTree>,
}

impl FlightRecord {
    /// Serialises the record in the request-trace layout, with the
    /// flight's facts as its members and `"reason": "flight"`.
    pub fn to_json(&self) -> Value {
        let stamps = (self.seq, self.timestamp, self.trace_id);
        let reason = Some(SampleReason::Flight);
        record_json(stamps, self.flight.members(), &self.spans, reason)
    }
}

/// One slot of the store's ring.
#[derive(Debug)]
enum Record {
    Request(RequestTrace),
    Flight(FlightRecord),
}

/// Sampler and ring geometry for a [`TraceStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Ring capacity (minimum 1).
    pub capacity: usize,
    /// Probability of retaining a non-error, non-degraded, non-slow
    /// trace; clamped to [0, 1].
    pub sample_rate: f64,
    /// Total latency at or above which a trace is always retained.
    pub slow_threshold_nanos: u64,
    /// Seed the probabilistic filter hashes trace ids against.
    pub seed: u64,
}

impl Default for TraceConfig {
    /// Capacity 256, sample everything (override with
    /// `MANDIPASS_TRACE_SAMPLE`), 250 ms slow threshold.
    fn default() -> Self {
        TraceConfig {
            capacity: 256,
            sample_rate: std::env::var(TRACE_SAMPLE_ENV)
                .ok()
                .and_then(|text| parse_sample_rate(&text))
                .unwrap_or(1.0),
            slow_threshold_nanos: 250_000_000,
            seed: 0x6d61_6e64_6970_6173, // "mandipas"
        }
    }
}

/// Parses a sample-rate string: a float clamped to [0, 1].
pub fn parse_sample_rate(text: &str) -> Option<f64> {
    text.trim().parse::<f64>().ok().map(clamp_rate)
}

/// Clamps a sample rate to [0, 1]; a non-finite rate samples everything.
fn clamp_rate(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// Mints a fresh trace id: a process-wide counter fed through the util
/// PRNG, so ids are unique in practice and well-spread over the u64
/// space (sequential ids would correlate with the sampler's hash
/// input) while the sequence itself stays run-to-run deterministic.
pub fn mint_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    StdRng::seed_from_u64(0x6d70_5f74_7261_6365 ^ n).next_u64()
}

/// The probabilistic filter: a pure function of `(seed, trace_id)`, so
/// the decision for an id never depends on which worker saw it first or
/// how many traces came before — the property behind run-to-run
/// bit-identical sampling.
fn keeps(seed: u64, trace_id: u64, sample_rate: f64) -> bool {
    StdRng::seed_from_u64(seed ^ trace_id).next_f64() < sample_rate
}

/// The bounded ring of per-request records — sampled
/// [`RequestTrace`]s and [`FlightRecord`]s — oldest evicted first.
#[derive(Debug)]
pub struct TraceStore {
    ring: VecDeque<Record>,
    config: TraceConfig,
    next_seq: u64,
    total_offered: u64,
    total_sampled: u64,
}

impl TraceStore {
    /// A store with the given sampler configuration.
    pub fn new(mut config: TraceConfig) -> Self {
        config.capacity = config.capacity.max(1);
        config.sample_rate = clamp_rate(config.sample_rate);
        TraceStore {
            ring: VecDeque::new(),
            config,
            next_seq: 0,
            total_offered: 0,
            total_sampled: 0,
        }
    }

    /// The next sequence number, shared by traces and flights.
    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Appends `record`, evicting the oldest record of either kind when
    /// the ring is full.
    fn push(&mut self, record: Record) {
        if self.ring.len() == self.config.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(record);
    }

    /// Offers one trace at time `now`; returns whether the sampler kept
    /// it (assigning `seq`, `timestamp`, and `reason` when it did).
    pub fn offer_at(&mut self, now: u64, mut trace: RequestTrace) -> bool {
        self.total_offered += 1;
        let reason = if trace.is_error() {
            SampleReason::Error
        } else if trace.is_degraded() {
            SampleReason::Degraded
        } else if trace.total_nanos >= self.config.slow_threshold_nanos {
            SampleReason::Slow
        } else if keeps(self.config.seed, trace.trace_id, self.config.sample_rate) {
            SampleReason::Probabilistic
        } else {
            return false;
        };
        trace.reason = Some(reason);
        trace.seq = self.next_seq();
        trace.timestamp = now;
        self.push(Record::Request(trace));
        self.total_sampled += 1;
        true
    }

    /// Records one flight at time `now`, assigning `seq` and
    /// `timestamp`. Flights skip the sampler and its totals.
    pub fn record_flight_at(&mut self, now: u64, mut flight: FlightRecord) {
        flight.seq = self.next_seq();
        flight.timestamp = now;
        self.push(Record::Flight(flight));
    }

    /// The retained request traces, oldest first.
    pub fn traces(&self) -> impl DoubleEndedIterator<Item = &RequestTrace> {
        self.ring.iter().filter_map(|record| match record {
            Record::Request(trace) => Some(trace),
            Record::Flight(_) => None,
        })
    }

    /// The retained flights, oldest first.
    pub fn flights(&self) -> impl Iterator<Item = &FlightRecord> {
        self.ring.iter().filter_map(|record| match record {
            Record::Flight(flight) => Some(flight),
            Record::Request(_) => None,
        })
    }

    /// The most recent retained request trace with this id.
    pub fn find(&self, trace_id: u64) -> Option<RequestTrace> {
        self.traces()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Traces ever offered, sampled or not.
    pub fn total_offered(&self) -> u64 {
        self.total_offered
    }

    /// Traces ever sampled, including evicted ones.
    pub fn total_sampled(&self) -> u64 {
        self.total_sampled
    }

    /// Serialises the request traces: offered/sampled totals plus the
    /// retained traces, oldest first — the `GET /traces` document.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "total_offered".to_string(),
                Value::Number(self.total_offered as f64),
            ),
            (
                "total_sampled".to_string(),
                Value::Number(self.total_sampled as f64),
            ),
            (
                "sample_rate".to_string(),
                Value::Number(self.config.sample_rate),
            ),
            (
                "traces".to_string(),
                Value::Array(self.traces().map(RequestTrace::to_json).collect()),
            ),
        ])
    }

    /// Forgets every retained record; sequence and totals survive.
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// RAII guard parking a trace id as the thread's active one; dropping
/// restores the previous id (scopes nest).
#[derive(Debug)]
#[must_use = "the trace scope ends when its guard drops"]
pub struct TraceScope {
    previous: Option<u64>,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Makes `trace_id` the thread's active trace id for the guard's
/// lifetime, so deep layers (flight recording in the policy path) can
/// tag their records via [`current`].
pub fn scope(trace_id: u64) -> TraceScope {
    let previous = CURRENT.with(|cell| cell.replace(Some(trace_id)));
    TraceScope {
        previous,
        _not_send: std::marker::PhantomData,
    }
}

/// The thread's active trace id, if a [`scope`] is open.
pub fn current() -> Option<u64> {
    CURRENT.with(Cell::get)
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let previous = self.previous;
        let _ = CURRENT.try_with(|cell| cell.set(previous));
    }
}

/// The latency-attribution report over a set of traces: per-stage
/// p50/p99/mean/max (plus the `total` pseudo-stage) from one
/// [`Histogram`] per stage, and the `top_k` slowest traces in full.
pub fn attribution_report(traces: &[RequestTrace], top_k: usize) -> Value {
    let mut stages = vec![("total", Histogram::default())];
    for trace in traces {
        stages[0].1.observe(trace.total_nanos as f64);
        for timing in &trace.stages {
            crate::report::stage_histogram(&mut stages, timing.name).observe(timing.nanos as f64);
        }
    }
    // An empty stage reads 0 rather than NaN, keeping the JSON numeric.
    let nanos = |v: f64| Value::Number(if v.is_finite() { v } else { 0.0 });
    let stages = stages
        .into_iter()
        .map(|(name, h)| {
            let summary = vec![
                ("count".to_string(), Value::Number(h.count() as f64)),
                ("p50_nanos".to_string(), nanos(h.quantile(0.5))),
                ("p99_nanos".to_string(), nanos(h.quantile(0.99))),
                ("mean_nanos".to_string(), nanos(h.mean())),
                ("max_nanos".to_string(), nanos(h.max())),
            ];
            (name.to_string(), Value::Object(summary))
        })
        .collect();
    let mut slowest: Vec<&RequestTrace> = traces.iter().collect();
    slowest.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.seq.cmp(&b.seq)));
    slowest.truncate(top_k);
    Value::Object(vec![
        (
            "trace_count".to_string(),
            Value::Number(traces.len() as f64),
        ),
        ("stages".to_string(), Value::Object(stages)),
        (
            "slowest".to_string(),
            Value::Array(slowest.iter().map(|t| t.to_json()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightOutcome;

    fn ok_trace(id: u64, total: u64) -> RequestTrace {
        let mut t = RequestTrace::new(id, "verify", "accepted");
        t.total_nanos = total;
        t.stage("decode", total / 4);
        t.stage("verify", total / 2);
        t
    }

    fn flight(
        trace_id: Option<u64>,
        flight: VerifyFlight,
        spans: Option<SpanTree>,
    ) -> FlightRecord {
        FlightRecord {
            seq: 0,
            timestamp: 0,
            trace_id,
            flight,
            spans,
        }
    }

    fn config(rate: f64) -> TraceConfig {
        TraceConfig {
            capacity: 64,
            sample_rate: rate,
            slow_threshold_nanos: 1_000_000,
            seed: 42,
        }
    }

    #[test]
    fn trace_id_hex_round_trips() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX, 1 << 63] {
            let text = format_trace_id(id);
            assert_eq!(text.len(), 16);
            assert_eq!(parse_trace_id(&text), Ok(id));
        }
        assert_eq!(parse_trace_id("ABC"), Ok(0xabc));
        assert!(parse_trace_id("").is_err());
        assert!(parse_trace_id("12345678901234567").is_err());
        assert!(parse_trace_id("xyz").is_err());
    }

    #[test]
    fn errors_degraded_and_slow_are_always_sampled() {
        let mut store = TraceStore::new(config(0.0));
        assert!(store.offer_at(1, RequestTrace::new(1, "verify", "error:bad_request")));
        assert!(store.offer_at(2, RequestTrace::new(2, "verify_policy", "degraded")));
        let mut slow = ok_trace(3, 5_000_000);
        slow.total_nanos = 5_000_000;
        assert!(store.offer_at(3, slow));
        // A fast, successful trace is dropped at rate 0.
        assert!(!store.offer_at(4, ok_trace(4, 10)));
        let reasons: Vec<&str> = store.traces().map(|t| t.reason.unwrap().label()).collect();
        assert_eq!(reasons, ["error", "degraded", "slow"]);
        assert_eq!(store.total_offered(), 4);
        assert_eq!(store.total_sampled(), 3);
    }

    #[test]
    fn rate_one_keeps_everything_rate_zero_nothing() {
        let mut keep_all = TraceStore::new(config(1.0));
        let mut keep_none = TraceStore::new(config(0.0));
        for id in 0..50u64 {
            keep_all.offer_at(id, ok_trace(id, 100));
            keep_none.offer_at(id, ok_trace(id, 100));
        }
        assert_eq!(keep_all.traces().count(), 50);
        assert_eq!(keep_none.traces().count(), 0);
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_id() {
        // Two stores, same config, ids offered in opposite orders: the
        // sampled id *set* must be identical (order independence), and
        // a mid-rate must actually split the population.
        let ids: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        // Capacity above the population so ring eviction (which *is*
        // order-dependent) cannot mask the sampler's order independence.
        let geometry = TraceConfig {
            capacity: 512,
            ..config(0.4)
        };
        let mut forward = TraceStore::new(geometry.clone());
        let mut backward = TraceStore::new(geometry);
        for &id in &ids {
            forward.offer_at(0, ok_trace(id, 100));
        }
        for &id in ids.iter().rev() {
            backward.offer_at(0, ok_trace(id, 100));
        }
        let mut fwd: Vec<u64> = forward.traces().map(|t| t.trace_id).collect();
        let mut bwd: Vec<u64> = backward.traces().map(|t| t.trace_id).collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        assert_eq!(fwd, bwd);
        assert!(
            !fwd.is_empty() && fwd.len() < ids.len(),
            "{} of {}",
            fwd.len(),
            ids.len()
        );
    }

    #[test]
    fn two_identical_runs_serialise_bit_identically() {
        let run = || {
            let mut store = TraceStore::new(config(0.3));
            for id in 0..100u64 {
                store.offer_at(id, ok_trace(id.wrapping_mul(0x2545_f491), 100 + id));
            }
            store.to_json().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ring_evicts_oldest_and_find_returns_latest() {
        let mut store = TraceStore::new(TraceConfig {
            capacity: 2,
            ..config(1.0)
        });
        for id in [7u64, 8, 9, 8] {
            let mut t = ok_trace(id, 100);
            t.decision = format!("gen{}", store.total_offered());
            store.offer_at(id, t);
        }
        assert_eq!(store.traces().count(), 2);
        assert!(store.find(7).is_none(), "oldest must be evicted");
        let found = store.find(8).unwrap();
        assert_eq!(found.seq, 3, "find must return the latest offer");
        assert_eq!(store.total_sampled(), 4);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut store = TraceStore::new(TraceConfig {
            capacity: 0,
            ..config(1.0)
        });
        store.offer_at(1, ok_trace(1, 10));
        store.offer_at(2, ok_trace(2, 10));
        assert_eq!(store.traces().count(), 1);
        assert_eq!(store.traces().next().unwrap().trace_id, 2);
    }

    #[test]
    fn a_flight_skips_the_sampler_and_its_totals() {
        let mut store = TraceStore::new(config(0.0));
        let rejected = VerifyFlight::new(7, FlightOutcome::Rejected);
        store.record_flight_at(5, flight(None, rejected, None));
        assert!(!store.offer_at(6, ok_trace(1, 10)));
        let flights: Vec<&FlightRecord> = store.flights().collect();
        assert_eq!(flights.len(), 1);
        assert_eq!((flights[0].seq, flights[0].timestamp), (0, 5));
        assert_eq!(store.traces().count(), 0);
        assert_eq!(store.total_offered(), 1, "only the request was offered");
        assert_eq!(store.total_sampled(), 0);
        assert!(store.find(0).is_none(), "find sees request traces only");
    }

    #[test]
    fn flights_and_traces_share_one_ring_and_one_sequence() {
        let mut store = TraceStore::new(TraceConfig {
            capacity: 2,
            ..config(1.0)
        });
        let degraded = VerifyFlight::new(1, FlightOutcome::Degraded);
        store.record_flight_at(1, flight(Some(9), degraded, None));
        store.offer_at(2, ok_trace(9, 10));
        assert_eq!(store.flights().count(), 1);
        store.offer_at(3, ok_trace(10, 10));
        assert_eq!(
            store.flights().count(),
            0,
            "the oldest record, a flight, is evicted"
        );
        let seqs: Vec<u64> = store.traces().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        store.clear();
        assert_eq!(store.traces().count() + store.flights().count(), 0);
        let rejected = VerifyFlight::new(1, FlightOutcome::Rejected);
        store.record_flight_at(4, flight(None, rejected, None));
        assert_eq!(
            store.flights().next().unwrap().seq,
            3,
            "clear keeps the sequence"
        );
    }

    #[test]
    fn flight_serialises_all_fields() {
        let mut exhausted = VerifyFlight::new(3, FlightOutcome::Exhausted);
        exhausted.distance = Some(0.71);
        exhausted.threshold = Some(0.5485);
        exhausted.attempts = 3;
        exhausted.rejects = vec!["quality:dead_axis".to_string()];
        exhausted.detail = Value::Object(vec![("energy_std".to_string(), Value::Number(12.0))]);
        let spans = crate::span::try_capture(|| {
            let _s = crate::span::span("verify");
        })
        .1;
        let mut store = TraceStore::new(config(1.0));
        store.record_flight_at(9, flight(Some(0xfeed), exhausted, spans));
        let breaker = VerifyFlight::new(1, FlightOutcome::Breaker);
        store.record_flight_at(10, flight(None, breaker, None));
        let json: Vec<String> = store.flights().map(|f| f.to_json().to_json()).collect();
        for key in [
            "\"seq\":0",
            "\"timestamp\":9",
            "\"trace_id\":\"000000000000feed\"",
            "\"user_id\":3",
            "\"outcome\":\"exhausted\"",
            "\"distance\":0.71",
            "\"threshold\":0.5485",
            "\"attempts\":3",
            "\"rejects\":[\"quality:dead_axis\"]",
            "\"energy_std\":12",
            "\"name\":\"verify\"",
            "\"reason\":\"flight\"",
        ] {
            assert!(json[0].contains(key), "{key} missing from {}", json[0]);
        }
        assert!(json[1].contains("\"trace_id\":null"), "{}", json[1]);
        assert!(json[1].contains("\"spans\":null"), "{}", json[1]);
        assert!(
            !store.to_json().to_json().contains("exhausted"),
            "the /traces document lists request traces only"
        );
    }

    #[test]
    fn trace_serialises_stages_spans_and_hex_id() {
        let mut trace = ok_trace(0xabcdef, 400);
        trace.spans = Some(
            crate::span::try_capture(|| {
                let _s = crate::span::span("verify");
            })
            .1
            .unwrap(),
        );
        let mut store = TraceStore::new(config(1.0));
        store.offer_at(9, trace);
        let json = store.to_json().to_json();
        assert!(json.contains("\"trace_id\":\"0000000000abcdef\""));
        assert!(json.contains("\"decode\":100"));
        assert!(json.contains("\"verify\":200"));
        assert!(json.contains("\"name\":\"verify\""));
        assert!(json.contains("\"reason\":\"probabilistic\""));
        assert!(json.contains("\"total_offered\":1"));
    }

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current(), None);
        {
            let _outer = scope(11);
            assert_eq!(current(), Some(11));
            {
                let _inner = scope(22);
                assert_eq!(current(), Some(22));
            }
            assert_eq!(current(), Some(11));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn minted_ids_are_distinct_across_threads() {
        let mut all: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..500).map(|_| mint_id()).collect::<Vec<u64>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let minted = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), minted, "minted ids must not collide");
    }

    #[test]
    fn sample_rate_parsing_clamps() {
        assert_eq!(parse_sample_rate("0.25"), Some(0.25));
        assert_eq!(parse_sample_rate(" 1 "), Some(1.0));
        assert_eq!(parse_sample_rate("7.5"), Some(1.0));
        assert_eq!(parse_sample_rate("-3"), Some(0.0));
        assert_eq!(parse_sample_rate("NaN"), Some(1.0));
        assert_eq!(parse_sample_rate("verbose"), None);
    }

    #[test]
    fn attribution_reports_per_stage_quantiles_and_slowest() {
        let traces: Vec<RequestTrace> = (1..=100u64).map(|i| ok_trace(i, i * 10)).collect();
        let report = attribution_report(&traces, 3);
        assert_eq!(
            report.get("trace_count").and_then(Value::as_f64),
            Some(100.0)
        );
        let stages = report.get("stages").unwrap();
        let total_p50 = stages
            .get("total")
            .and_then(|s| s.get("p50_nanos"))
            .and_then(Value::as_f64)
            .unwrap();
        assert!((490.0..=510.0).contains(&total_p50), "p50 {total_p50}");
        let verify_p99 = stages
            .get("verify")
            .and_then(|s| s.get("p99_nanos"))
            .and_then(Value::as_f64)
            .unwrap();
        // Rank ceil(0.99 * 100) = 99 is verify = 495, read at its
        // bucket's lower bound (within 2^-4 below).
        assert!((464.0..=495.0).contains(&verify_p99), "p99 {verify_p99}");
        let slowest = report.get("slowest").and_then(Value::as_array).unwrap();
        assert_eq!(slowest.len(), 3);
        let tops: Vec<f64> = slowest
            .iter()
            .map(|t| t.get("total_nanos").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(tops, vec![1000.0, 990.0, 980.0]);
    }

    #[test]
    fn attribution_of_nothing_is_well_formed() {
        let report = attribution_report(&[], 5);
        assert_eq!(report.get("trace_count").and_then(Value::as_f64), Some(0.0));
        assert!(report
            .get("slowest")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
    }
}
