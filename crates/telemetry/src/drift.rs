//! Score-drift detection against a frozen enrolment-time baseline.
//!
//! The paper's operating point (genuine cosine distance ≈ 0.4884,
//! impostor ≈ 0.7032, threshold 0.5485) is fixed at enrolment time, but
//! the earable literature documents biometric drift across re-wearing
//! sessions and days. [`DriftDetector`] keeps a sliding-window histogram
//! of observed verification distances plus windowed decision counters,
//! compares the live distance distribution against a frozen baseline via
//! the population stability index ([`psi`]) and the Kolmogorov–Smirnov
//! statistic ([`ks_statistic`]), and folds three signals — distance
//! drift, reject-rate spike and degraded-mode ratio — into one typed
//! [`HealthStatus`].

use mandipass_util::json::Value;

use crate::window::{WindowedCounter, WindowedHistogram};

/// Population stability index between two probability mass functions of
/// equal length: `Σ (q − p) · ln(q / p)` with add-α smoothing, so empty
/// buckets never yield infinities and finite-sample windows are not
/// punished for a single stray bucket. Matching distributions score
/// ≈ 0; a fully displaced distribution scores well above 2.
pub fn psi(expected: &[f64], observed: &[f64]) -> f64 {
    const ALPHA: f64 = 0.01;
    assert_eq!(
        expected.len(),
        observed.len(),
        "psi needs equal-length pmfs"
    );
    let norm = 1.0 + ALPHA * expected.len() as f64;
    expected
        .iter()
        .zip(observed)
        .map(|(&p, &q)| {
            let p = (p + ALPHA) / norm;
            let q = (q + ALPHA) / norm;
            (q - p) * (q / p).ln()
        })
        .sum()
}

/// Kolmogorov–Smirnov statistic between two probability mass functions
/// of equal length: the maximum absolute difference of their CDFs, in
/// `0.0..=1.0`.
pub fn ks_statistic(expected: &[f64], observed: &[f64]) -> f64 {
    assert_eq!(expected.len(), observed.len(), "ks needs equal-length pmfs");
    let mut cdf_p = 0.0;
    let mut cdf_q = 0.0;
    let mut worst = 0.0f64;
    for (&p, &q) in expected.iter().zip(observed) {
        cdf_p += p;
        cdf_q += q;
        worst = worst.max((cdf_p - cdf_q).abs());
    }
    worst
}

/// Overall system health, worst signal wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Every signal within its normal band.
    Healthy,
    /// At least one signal past its warning threshold.
    Degrading,
    /// At least one signal past its alarm threshold.
    Alarm,
}

impl HealthStatus {
    /// Stable lower-case label for reports and exposition.
    pub fn label(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degrading => "degrading",
            HealthStatus::Alarm => "alarm",
        }
    }
}

/// The monitored signal behind one [`SignalReading`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthSignal {
    /// PSI between the frozen baseline distance pmf and the windowed
    /// observed distance pmf.
    DistanceDrift,
    /// Fraction of windowed attempts rejected (verify misses plus
    /// quality-gate rejections). With `r` verify rejects among `d`
    /// decisions and `q` quality rejects it reads `(r+q)/(d+q)`, never
    /// below the decision-only reject share `r/d`.
    RejectRateSpike,
    /// Fraction of windowed decisions made in degraded accel-only mode.
    DegradedRatio,
}

impl HealthSignal {
    /// Stable snake-case label for reports and exposition.
    pub fn label(self) -> &'static str {
        match self {
            HealthSignal::DistanceDrift => "distance_drift",
            HealthSignal::RejectRateSpike => "reject_rate_spike",
            HealthSignal::DegradedRatio => "degraded_ratio",
        }
    }
}

/// One signal's current value against its thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalReading {
    /// Which signal this is.
    pub signal: HealthSignal,
    /// Current value (PSI for drift, a ratio for the others).
    pub value: f64,
    /// Warning threshold ([`HealthStatus::Degrading`] at or above).
    pub warn: f64,
    /// Alarm threshold ([`HealthStatus::Alarm`] at or above).
    pub alarm: f64,
    /// This signal's own status.
    pub status: HealthStatus,
}

impl SignalReading {
    fn judge(signal: HealthSignal, value: f64, warn: f64, alarm: f64) -> Self {
        let status = if value >= alarm {
            HealthStatus::Alarm
        } else if value >= warn {
            HealthStatus::Degrading
        } else {
            HealthStatus::Healthy
        };
        SignalReading {
            signal,
            value,
            warn,
            alarm,
            status,
        }
    }

    /// Serialises the reading.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "signal".to_string(),
                Value::String(self.signal.label().to_string()),
            ),
            (
                "value".to_string(),
                if self.value.is_finite() {
                    Value::Number(self.value)
                } else {
                    Value::Null
                },
            ),
            ("warn".to_string(), Value::Number(self.warn)),
            ("alarm".to_string(), Value::Number(self.alarm)),
            (
                "status".to_string(),
                Value::String(self.status.label().to_string()),
            ),
        ])
    }
}

/// The detector's folded verdict plus its per-signal evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Worst signal status (Healthy when below [`MIN_DECISIONS`]).
    pub status: HealthStatus,
    /// One reading per monitored signal.
    pub signals: Vec<SignalReading>,
    /// Windowed decision count the verdict is based on.
    pub decisions: u64,
    /// Whether enough windowed traffic existed to judge at all.
    pub sufficient: bool,
}

impl HealthReport {
    /// The signals at or past their warning threshold, worst first.
    pub fn reasons(&self) -> Vec<&SignalReading> {
        let mut flagged: Vec<&SignalReading> = self
            .signals
            .iter()
            .filter(|s| s.status != HealthStatus::Healthy)
            .collect();
        flagged.sort_by_key(|s| std::cmp::Reverse(s.status));
        flagged
    }

    /// Serialises the report.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "status".to_string(),
                Value::String(self.status.label().to_string()),
            ),
            (
                "decisions".to_string(),
                Value::Number(self.decisions as f64),
            ),
            ("sufficient".to_string(), Value::Bool(self.sufficient)),
            (
                "signals".to_string(),
                Value::Array(self.signals.iter().map(SignalReading::to_json).collect()),
            ),
        ])
    }
}

/// Window length in seconds.
const WINDOW_SECS: u64 = 60;
/// Number of ring slots in each window.
const SLOTS: usize = 12;
/// Minimum windowed attempts before any signal may leave `Healthy`.
pub const MIN_DECISIONS: u64 = 8;
/// PSI warning threshold (moderate distribution shift).
const PSI_WARN: f64 = 0.5;
/// PSI alarm threshold (major distribution shift).
const PSI_ALARM: f64 = 2.0;
/// Reject-rate warning threshold.
const REJECT_WARN: f64 = 0.25;
/// Reject-rate alarm threshold.
const REJECT_ALARM: f64 = 0.6;
/// Degraded-mode ratio warning threshold.
const DEGRADED_WARN: f64 = 0.25;
/// Degraded-mode ratio alarm threshold.
const DEGRADED_ALARM: f64 = 0.6;

/// A counter over the detector's window geometry; the monitor keys its
/// per-label counters on the same window.
pub(crate) fn windowed_counter() -> WindowedCounter {
    WindowedCounter::new(WINDOW_SECS, SLOTS)
}

/// Bucket upper bounds shared by the baseline and the live distance
/// histogram: cosine distance lives in `[0, 2]`; 16 bins of width 0.1
/// cover `[0, 1.6)` with the overflow bucket taking the tail.
pub fn distance_bounds() -> Vec<f64> {
    (1..=16).map(|i| f64::from(i) * 0.1).collect()
}

/// Synthesises a baseline pmf from a Gaussian `(mean, std)` over the
/// [`distance_bounds`] grid — used for the paper-operating-point default
/// baseline when no enrolment-time distances are available.
fn gaussian_pmf(mean: f64, std: f64, bounds: &[f64]) -> Vec<f64> {
    // Φ via erf-free logistic approximation is overkill here: integrate
    // the density numerically per bucket (the grid is coarse).
    let density = |x: f64| {
        let z = (x - mean) / std;
        (-0.5 * z * z).exp()
    };
    let mut pmf = Vec::with_capacity(bounds.len() + 1);
    let mut lower = 0.0;
    for &upper in bounds {
        let steps = 16;
        let h = (upper - lower) / steps as f64;
        let mass: f64 = (0..steps)
            .map(|i| density(lower + (i as f64 + 0.5) * h) * h)
            .sum();
        pmf.push(mass);
        lower = upper;
    }
    pmf.push(0.0); // overflow tail, negligible for in-range baselines
    let total: f64 = pmf.iter().sum();
    if total > 0.0 {
        for p in &mut pmf {
            *p /= total;
        }
    }
    pmf
}

/// Windowed score-drift detector. All timestamps are explicit; the
/// [`crate::monitor::Monitor`] wrapper supplies [`crate::clock::now`].
#[derive(Debug, Clone)]
pub struct DriftDetector {
    /// Frozen baseline pmf over [`distance_bounds`].
    baseline: Vec<f64>,
    /// Enrolment-time distances accumulated before [`Self::freeze_baseline`].
    pending_baseline: Vec<f64>,
    /// Windowed distances of every verify decision (accepted or not).
    distances: WindowedHistogram,
    accepts: WindowedCounter,
    rejects: WindowedCounter,
    quality_rejects: WindowedCounter,
    degraded: WindowedCounter,
}

impl Default for DriftDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl DriftDetector {
    /// A detector with the paper-operating-point baseline (genuine
    /// distances ≈ N(0.4884, 0.09²)).
    pub fn new() -> Self {
        let bounds = distance_bounds();
        let baseline = gaussian_pmf(0.4884, 0.09, &bounds);
        DriftDetector {
            baseline,
            pending_baseline: Vec::new(),
            distances: WindowedHistogram::new(WINDOW_SECS, SLOTS, bounds),
            accepts: windowed_counter(),
            rejects: windowed_counter(),
            quality_rejects: windowed_counter(),
            degraded: windowed_counter(),
        }
    }

    /// The frozen baseline pmf over [`distance_bounds`] (overflow last).
    pub fn baseline(&self) -> &[f64] {
        &self.baseline
    }

    /// Accumulates enrolment-time genuine distances for the baseline.
    pub fn extend_baseline(&mut self, distances: &[f64]) {
        self.pending_baseline
            .extend(distances.iter().copied().filter(|d| d.is_finite()));
    }

    /// Freezes the baseline from the accumulated enrolment distances.
    /// With no accumulated samples the paper-derived default stays.
    pub fn freeze_baseline(&mut self) {
        if self.pending_baseline.is_empty() {
            return;
        }
        let bounds = distance_bounds();
        let mut counts = vec![0u64; bounds.len() + 1];
        for &d in &self.pending_baseline {
            let i = bounds.partition_point(|&b| b < d).min(bounds.len());
            counts[i] += 1;
        }
        let total = self.pending_baseline.len() as f64;
        self.baseline = counts.iter().map(|&c| c as f64 / total).collect();
        self.pending_baseline.clear();
    }

    /// Records one verify decision at `now_ns`.
    pub fn observe_decision_at(
        &mut self,
        now_ns: u64,
        distance: f64,
        accepted: bool,
        degraded: bool,
    ) {
        self.distances.observe_at(now_ns, distance);
        if accepted {
            self.accepts.inc_at(now_ns);
        } else {
            self.rejects.inc_at(now_ns);
        }
        if degraded {
            self.degraded.inc_at(now_ns);
        }
    }

    /// Records one quality-gate rejection at `now_ns` (no distance: the
    /// probe never reached the pipeline).
    pub fn observe_quality_reject_at(&mut self, now_ns: u64) {
        self.quality_rejects.inc_at(now_ns);
    }

    /// PSI between the frozen baseline and the windowed distance pmf.
    pub fn psi_at(&self, now_ns: u64) -> f64 {
        psi(&self.baseline, &self.distances.pmf_at(now_ns))
    }

    /// KS statistic between the frozen baseline and the windowed
    /// distance pmf.
    pub fn ks_at(&self, now_ns: u64) -> f64 {
        ks_statistic(&self.baseline, &self.distances.pmf_at(now_ns))
    }

    /// The live windowed distance histogram.
    pub fn distances(&self) -> &WindowedHistogram {
        &self.distances
    }

    /// Folds the three signals into one [`HealthReport`] at `now_ns`.
    pub fn health_at(&self, now_ns: u64) -> HealthReport {
        let decisions = self.accepts.total_at(now_ns) + self.rejects.total_at(now_ns);
        let quality = self.quality_rejects.total_at(now_ns);
        let attempts = decisions + quality;
        let sufficient = attempts >= MIN_DECISIONS;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mut signals = vec![
            SignalReading::judge(
                HealthSignal::DistanceDrift,
                if self.distances.count_at(now_ns) == 0 {
                    0.0
                } else {
                    self.psi_at(now_ns)
                },
                PSI_WARN,
                PSI_ALARM,
            ),
            SignalReading::judge(
                HealthSignal::RejectRateSpike,
                ratio(self.rejects.total_at(now_ns) + quality, attempts),
                REJECT_WARN,
                REJECT_ALARM,
            ),
            SignalReading::judge(
                HealthSignal::DegradedRatio,
                ratio(self.degraded.total_at(now_ns), decisions),
                DEGRADED_WARN,
                DEGRADED_ALARM,
            ),
        ];
        if !sufficient {
            // Too little traffic to judge: report the raw values but do
            // not page anyone over two probes.
            for s in &mut signals {
                s.status = HealthStatus::Healthy;
            }
        }
        let status = signals
            .iter()
            .map(|s| s.status)
            .max()
            .unwrap_or(HealthStatus::Healthy);
        HealthReport {
            status,
            signals,
            decisions,
            sufficient,
        }
    }

    /// Clears the sliding windows (the frozen baseline survives).
    pub fn clear_windows(&mut self) {
        self.distances.clear();
        self.accepts.clear();
        self.rejects.clear();
        self.quality_rejects.clear();
        self.degraded.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_is_zero_for_identical_pmfs() {
        let p = vec![0.2, 0.3, 0.5];
        assert!(psi(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn psi_grows_with_shift() {
        let p = vec![0.8, 0.15, 0.05];
        let mild = vec![0.7, 0.2, 0.1];
        let wild = vec![0.05, 0.15, 0.8];
        assert!(psi(&p, &mild) < psi(&p, &wild));
        assert!(psi(&p, &wild) > 1.0);
        // Symmetric enough to be a distance-like score: both directions
        // are positive.
        assert!(psi(&wild, &p) > 0.0);
    }

    #[test]
    fn psi_survives_empty_buckets() {
        let p = vec![1.0, 0.0];
        let q = vec![0.0, 1.0];
        assert!(psi(&p, &q).is_finite());
    }

    #[test]
    fn ks_bounds_and_ordering() {
        let p = vec![1.0, 0.0, 0.0];
        let q = vec![0.0, 0.0, 1.0];
        assert!((ks_statistic(&p, &q) - 1.0).abs() < 1e-12);
        assert_eq!(ks_statistic(&p, &p), 0.0);
        let mild = vec![0.8, 0.2, 0.0];
        assert!(ks_statistic(&p, &mild) < ks_statistic(&p, &q));
    }

    #[test]
    fn status_labels_and_ordering() {
        assert_eq!(HealthStatus::Healthy.label(), "healthy");
        assert_eq!(HealthStatus::Degrading.label(), "degrading");
        assert_eq!(HealthStatus::Alarm.label(), "alarm");
        assert!(HealthStatus::Alarm > HealthStatus::Degrading);
        assert!(HealthStatus::Degrading > HealthStatus::Healthy);
        assert_eq!(HealthSignal::DistanceDrift.label(), "distance_drift");
        assert_eq!(HealthSignal::RejectRateSpike.label(), "reject_rate_spike");
    }

    #[test]
    fn detector_is_healthy_on_baseline_like_traffic() {
        let mut d = DriftDetector::new();
        // Baseline frozen from enrolment-time distances; live traffic
        // follows the same distribution, all accepted.
        let calib: Vec<f64> = (0..24).map(|i| 0.40 + 0.01 * (i % 10) as f64).collect();
        d.extend_baseline(&calib);
        d.freeze_baseline();
        for i in 0..40u64 {
            let dist = 0.40 + 0.01 * (i % 10) as f64;
            d.observe_decision_at(i + 1, dist, true, false);
        }
        let report = d.health_at(41);
        assert_eq!(report.status, HealthStatus::Healthy);
        assert!(report.sufficient);
        assert!(report.reasons().is_empty());
        assert!(d.psi_at(41) < PSI_WARN, "psi {}", d.psi_at(41));
    }

    #[test]
    fn detector_flags_distance_drift() {
        let mut d = DriftDetector::new();
        // The whole distribution walks up to the impostor mean: a drift
        // the threshold-side counters alone would miss until FRR spikes.
        for i in 0..40u64 {
            d.observe_decision_at(i + 1, 0.70 + 0.002 * (i % 10) as f64, true, false);
        }
        let report = d.health_at(41);
        assert!(report.status >= HealthStatus::Degrading);
        assert!(report
            .reasons()
            .iter()
            .any(|s| s.signal == HealthSignal::DistanceDrift));
        assert!(d.ks_at(41) > 0.5);
    }

    #[test]
    fn detector_flags_reject_spike() {
        let mut d = DriftDetector::new();
        for i in 0..20u64 {
            d.observe_decision_at(i + 1, 0.49, i % 4 == 0, false);
            d.observe_quality_reject_at(i + 1);
        }
        let report = d.health_at(21);
        assert_eq!(report.status, HealthStatus::Alarm);
        let reasons: Vec<_> = report.reasons().iter().map(|s| s.signal).collect();
        assert!(reasons.contains(&HealthSignal::RejectRateSpike));
    }

    #[test]
    fn detector_flags_degraded_ratio() {
        let mut d = DriftDetector::new();
        for i in 0..16u64 {
            d.observe_decision_at(i + 1, 0.48, true, i % 2 == 0);
        }
        let report = d.health_at(17);
        assert!(report
            .reasons()
            .iter()
            .any(|s| s.signal == HealthSignal::DegradedRatio));
    }

    #[test]
    fn thin_traffic_never_alarms() {
        let mut d = DriftDetector::new();
        d.observe_decision_at(1, 1.5, false, true);
        d.observe_quality_reject_at(2);
        let report = d.health_at(3);
        assert_eq!(report.status, HealthStatus::Healthy);
        assert!(!report.sufficient);
    }

    #[test]
    fn frozen_baseline_replaces_paper_default() {
        let mut d = DriftDetector::new();
        let default_baseline = d.baseline().to_vec();
        d.extend_baseline(&[0.2, 0.21, 0.22, 0.19, f64::NAN]);
        d.freeze_baseline();
        assert_ne!(d.baseline(), default_baseline.as_slice());
        assert!((d.baseline().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Traffic matching the new baseline is healthy…
        let like_baseline = [0.19, 0.2, 0.21, 0.22];
        for i in 0..20u64 {
            d.observe_decision_at(i + 1, like_baseline[(i % 4) as usize], true, false);
        }
        assert_eq!(d.health_at(21).status, HealthStatus::Healthy);
        // …and freezing with nothing pending is a no-op.
        let frozen = d.baseline().to_vec();
        d.freeze_baseline();
        assert_eq!(d.baseline(), frozen.as_slice());
    }

    #[test]
    fn clear_windows_keeps_baseline() {
        let mut d = DriftDetector::new();
        d.extend_baseline(&[0.3; 10]);
        d.freeze_baseline();
        let baseline = d.baseline().to_vec();
        for i in 0..20u64 {
            d.observe_decision_at(i + 1, 1.4, false, false);
        }
        d.clear_windows();
        assert_eq!(d.baseline(), baseline.as_slice());
        assert_eq!(d.health_at(21).decisions, 0);
        assert_eq!(d.health_at(21).status, HealthStatus::Healthy);
    }

    #[test]
    fn report_serialises_with_signal_labels() {
        let d = DriftDetector::new();
        let json = d.health_at(1).to_json().to_json();
        assert!(json.contains("\"status\":\"healthy\""));
        for label in ["distance_drift", "reject_rate_spike", "degraded_ratio"] {
            assert!(json.contains(label), "missing {label}");
        }
    }

    #[test]
    fn distance_bounds_cover_cosine_range() {
        let bounds = distance_bounds();
        assert_eq!(bounds.len(), 16);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!((bounds[15] - 1.6).abs() < 1e-12);
    }
}
