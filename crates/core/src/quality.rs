//! Pre-preprocessing signal-quality gate.
//!
//! Real earphone captures fail in ways the §IV pipeline was never meant
//! to absorb: non-finite samples off a flaky bus, ADC saturation,
//! dead/stuck axes, truncated captures, and probes with no vibration
//! energy at all. Scoring a [`Recording`] *before* preprocessing gives
//! every rejection a machine-readable reason (for telemetry and the
//! enclave audit trail) and lets the verification policy decide between
//! retrying, degrading to an accelerometer-only template, or giving up.
//!
//! All statistics run on the **raw** recording: the zero-phase high-pass
//! in preprocessing smears edge transients into constant tracks, so a
//! stuck axis is only reliably visible before filtering.

use mandipass_imu_sim::Recording;

/// Thresholds for the quality gate.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityConfig {
    /// Minimum samples per axis. The detector needs its windows plus the
    /// paper's `n = 60` segment after the vibration start.
    pub min_samples: usize,
    /// Maximum tolerated non-finite samples across all axes.
    pub max_nonfinite: usize,
    /// Maximum fraction of an axis's samples sitting exactly on its
    /// extreme values (rail-sitting — the signature of clipping).
    pub max_saturation_ratio: f64,
    /// Minimum standard deviation (raw LSB) for an axis to count as
    /// alive; a stuck register is exactly constant.
    pub dead_axis_min_std: f64,
    /// Minimum windowed standard deviation on `az` for the probe to
    /// plausibly contain a vibration burst (the paper's start rule uses
    /// σ > 250 over 10-sample windows).
    pub min_energy_std: f64,
    /// Window length, in samples, for the energy proxy.
    pub energy_window: usize,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            min_samples: 80,
            max_nonfinite: 0,
            max_saturation_ratio: 0.05,
            dead_axis_min_std: 1.0,
            min_energy_std: 250.0,
            energy_window: 10,
        }
    }
}

/// A set of axes in paper order (`0..6`), as a bit mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AxisSet(u8);

impl AxisSet {
    /// The set holding exactly `axes`.
    ///
    /// # Panics
    ///
    /// On an axis index of 8 or more.
    pub fn of(axes: impl IntoIterator<Item = usize>) -> Self {
        AxisSet(axes.into_iter().fold(0, |mask, axis| {
            assert!(axis < 8, "axis {axis} out of range");
            mask | 1 << axis
        }))
    }

    /// Whether no axis is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The axes in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..8).filter(move |axis| self.0 & 1 << axis != 0)
    }
}

/// A machine-readable reason a probe failed the quality gate. A report
/// holds at most one reason of each kind, so the labels a rejection
/// produces stay a bounded set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// Non-finite samples (NaN/±inf) beyond the tolerated count.
    NonFinite,
    /// Fewer samples than the pipeline needs.
    TooShort,
    /// Axes that show no variation — dead or stuck.
    DeadAxis {
        /// The offending axes.
        axes: AxisSet,
    },
    /// Axes that spend too much time pinned at their extremes
    /// (clipping).
    Saturated {
        /// The offending axes.
        axes: AxisSet,
    },
    /// No window of `az` reaches vibration energy — nothing to detect.
    LowEnergy,
}

impl RejectReason {
    /// A short stable label for telemetry counters and audit events.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::NonFinite => "non_finite",
            RejectReason::TooShort => "too_short",
            RejectReason::DeadAxis { .. } => "dead_axis",
            RejectReason::Saturated { .. } => "saturated",
            RejectReason::LowEnergy => "low_energy",
        }
    }

    /// The axes a dead or saturated reason names; empty for the others.
    pub fn axes(&self) -> AxisSet {
        match self {
            RejectReason::DeadAxis { axes } | RejectReason::Saturated { axes } => *axes,
            _ => AxisSet::default(),
        }
    }
}

/// The outcome of scoring one recording.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Samples per axis.
    pub samples: usize,
    /// Total non-finite samples across all axes.
    pub nonfinite: usize,
    /// Per-axis standard deviation over finite samples (0.0 when an
    /// axis holds no finite samples).
    pub axis_std: Vec<f64>,
    /// Per-axis fraction of samples at the axis extremes.
    pub rail_ratio: Vec<f64>,
    /// Best windowed standard deviation observed on `az`.
    pub energy_std: f64,
    /// Why the probe is rejected; empty means it passed.
    pub reasons: Vec<RejectReason>,
}

impl QualityReport {
    /// Whether the probe passed every check.
    pub fn ok(&self) -> bool {
        self.reasons.is_empty()
    }

    /// Whether the probe failed *only* through gyroscope-axis faults
    /// (dead or saturated axes in `3..6`), leaving the accelerometer
    /// fit for a degraded accel-only verification.
    pub fn degraded_viable(&self) -> bool {
        !self.reasons.is_empty()
            && self.reasons.iter().all(|r| {
                let axes = r.axes();
                !axes.is_empty() && axes.iter().all(|axis| axis >= 3)
            })
    }

    /// The axes flagged dead or saturated, dead ones first.
    pub fn faulty_axes(&self) -> Vec<usize> {
        self.reasons.iter().flat_map(|r| r.axes().iter()).collect()
    }

    /// Serialises the report — the `detail` payload of a rejected
    /// verification's flight record.
    pub fn to_json(&self) -> mandipass_util::json::Value {
        use mandipass_util::json::Value;
        let num = |v: f64| {
            if v.is_finite() {
                Value::Number(v)
            } else {
                Value::Null
            }
        };
        let nums = |xs: &[f64]| Value::Array(xs.iter().map(|&v| num(v)).collect());
        let axes_of = |kind: &str| {
            let axes = self.reasons.iter().find(|r| r.label() == kind);
            Value::Array(
                axes.map_or(AxisSet::default(), RejectReason::axes)
                    .iter()
                    .map(|a| Value::Number(a as f64))
                    .collect(),
            )
        };
        Value::Object(vec![
            ("ok".to_string(), Value::Bool(self.ok())),
            ("samples".to_string(), Value::Number(self.samples as f64)),
            (
                "nonfinite".to_string(),
                Value::Number(self.nonfinite as f64),
            ),
            ("axis_std".to_string(), nums(&self.axis_std)),
            ("rail_ratio".to_string(), nums(&self.rail_ratio)),
            ("energy_std".to_string(), num(self.energy_std)),
            (
                "reasons".to_string(),
                Value::Array(
                    self.reasons
                        .iter()
                        .map(|r| Value::String(r.label().to_string()))
                        .collect(),
                ),
            ),
            ("dead_axes".to_string(), axes_of("dead_axis")),
            ("saturated_axes".to_string(), axes_of("saturated")),
        ])
    }
}

fn finite_std(xs: &[f64]) -> f64 {
    let finite: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.len() < 2 {
        return 0.0;
    }
    let mean = finite.iter().sum::<f64>() / finite.len() as f64;
    (finite.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / finite.len() as f64).sqrt()
}

fn rail_ratio(xs: &[f64]) -> f64 {
    let finite: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return 0.0;
    }
    let max = finite.iter().cloned().fold(f64::MIN, f64::max);
    let min = finite.iter().cloned().fold(f64::MAX, f64::min);
    if max == min {
        // Constant axis: rail-sitting is meaningless; the dead-axis
        // check owns this case.
        return 0.0;
    }
    let at_rail = finite.iter().filter(|&&v| v == max || v == min).count();
    at_rail as f64 / finite.len() as f64
}

/// Scores `recording` against `config`, producing a [`QualityReport`]
/// whose `reasons` list is empty exactly when the probe is usable.
///
/// Never panics, whatever the recording contains.
pub fn assess(recording: &Recording, config: &QualityConfig) -> QualityReport {
    let _span = mandipass_telemetry::span("quality_assess");
    let axes = recording.axes();
    let samples = axes.first().map_or(0, Vec::len);
    let nonfinite = axes
        .iter()
        .flat_map(|a| a.iter())
        .filter(|v| !v.is_finite())
        .count();
    let axis_std: Vec<f64> = axes.iter().map(|a| finite_std(a)).collect();
    let rails: Vec<f64> = axes.iter().map(|a| rail_ratio(a)).collect();
    let energy_std = axes.get(2).map_or(0.0, |az| {
        az.chunks(config.energy_window.max(1))
            .filter(|c| c.len() == config.energy_window.max(1))
            .map(finite_std)
            .fold(0.0f64, f64::max)
    });

    let mut reasons = Vec::new();
    if nonfinite > config.max_nonfinite {
        reasons.push(RejectReason::NonFinite);
    }
    if samples < config.min_samples || axes.len() != 6 {
        reasons.push(RejectReason::TooShort);
    }
    let dead = AxisSet::of((0..axis_std.len()).filter(|&a| axis_std[a] < config.dead_axis_min_std));
    if !dead.is_empty() {
        reasons.push(RejectReason::DeadAxis { axes: dead });
    }
    let saturated =
        AxisSet::of((0..rails.len()).filter(|&a| rails[a] > config.max_saturation_ratio));
    if !saturated.is_empty() {
        reasons.push(RejectReason::Saturated { axes: saturated });
    }
    // Only meaningful when az itself is alive and finite; otherwise the
    // reasons above already explain the failure.
    if reasons.is_empty() && energy_std < config.min_energy_std {
        reasons.push(RejectReason::LowEnergy);
    }

    QualityReport {
        samples,
        nonfinite,
        axis_std,
        rail_ratio: rails,
        energy_std,
        reasons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mandipass_imu_sim::faults::FaultProfile;
    use mandipass_imu_sim::{Condition, Population, Recorder};

    fn clean_recording() -> Recording {
        let pop = Population::generate(2, 5);
        Recorder::default().record(&pop.users()[0], Condition::Normal, 17)
    }

    #[test]
    fn clean_recording_passes() {
        let report = assess(&clean_recording(), &QualityConfig::default());
        assert!(report.ok(), "reject reasons: {:?}", report.reasons);
        assert_eq!(report.nonfinite, 0);
        assert!(report.energy_std > 250.0);
    }

    #[test]
    fn nan_burst_is_rejected_as_non_finite() {
        let rec = FaultProfile::non_finite(0.1).apply(&clean_recording(), 3);
        let report = assess(&rec, &QualityConfig::default());
        assert!(!report.ok());
        assert!(report.reasons.contains(&RejectReason::NonFinite));
        assert!(report.nonfinite > 0);
    }

    #[test]
    fn stuck_gyro_is_rejected_as_dead_axis_and_degraded_viable() {
        let rec = FaultProfile::stuck_gyro(0.0).apply(&clean_recording(), 3);
        let report = assess(&rec, &QualityConfig::default());
        assert!(!report.ok());
        assert_eq!(
            report.reasons,
            vec![RejectReason::DeadAxis {
                axes: AxisSet::of([3])
            }]
        );
        assert!(report.degraded_viable());
        assert_eq!(report.faulty_axes(), vec![3]);
    }

    #[test]
    fn stuck_accel_is_not_degraded_viable() {
        let rec = FaultProfile::new(
            "stuck_ax",
            vec![mandipass_imu_sim::Fault::StuckAxis {
                axis: 0,
                value: Some(0.0),
            }],
        )
        .apply(&clean_recording(), 3);
        let report = assess(&rec, &QualityConfig::default());
        assert!(report.reasons.contains(&RejectReason::DeadAxis {
            axes: AxisSet::of([0])
        }));
        assert!(!report.degraded_viable());
    }

    #[test]
    fn heavy_clipping_is_rejected_as_saturated() {
        let rec = FaultProfile::clipping(1.0).apply(&clean_recording(), 3);
        let report = assess(&rec, &QualityConfig::default());
        assert!(!report.ok());
        assert!(report
            .reasons
            .iter()
            .any(|r| matches!(r, RejectReason::Saturated { .. })));
    }

    #[test]
    fn one_reason_per_kind_names_every_faulty_axis() {
        let mut axes = clean_recording().axes().to_vec();
        for track in &mut axes {
            // Pin a third of every track to its extremes.
            let (lo, hi) = track
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            for (i, v) in track.iter_mut().enumerate() {
                match i % 6 {
                    0 => *v = lo,
                    1 => *v = hi,
                    _ => {}
                }
            }
        }
        axes[4] = vec![axes[4][0]; axes[4].len()];
        let rec = Recording::from_parts(350.0, axes, Condition::Normal, 0).unwrap();
        let report = assess(&rec, &QualityConfig::default());
        assert_eq!(
            report.reasons,
            vec![
                RejectReason::DeadAxis {
                    axes: AxisSet::of([4])
                },
                RejectReason::Saturated {
                    axes: AxisSet::of([0, 1, 2, 3, 5])
                },
            ]
        );
        assert_eq!(report.faulty_axes(), vec![4, 0, 1, 2, 3, 5]);
        assert!(!report.degraded_viable());
        let doc = report.to_json().to_json();
        assert!(
            doc.contains("\"reasons\":[\"dead_axis\",\"saturated\"]"),
            "{doc}"
        );
        assert!(doc.contains("\"saturated_axes\":[0,1,2,3,5]"), "{doc}");
    }

    #[test]
    fn truncated_capture_is_rejected_as_too_short() {
        let rec = FaultProfile::truncate(0.9).apply(&clean_recording(), 3);
        let report = assess(&rec, &QualityConfig::default());
        assert!(report.reasons.contains(&RejectReason::TooShort));
    }

    #[test]
    fn silence_is_rejected_as_low_energy() {
        // A recording whose az never reaches vibration energy: use a huge
        // energy threshold so even the real burst is "too quiet".
        let config = QualityConfig {
            min_energy_std: 1e12,
            ..Default::default()
        };
        let report = assess(&clean_recording(), &config);
        assert_eq!(report.reasons, vec![RejectReason::LowEnergy]);
        assert!(!report.degraded_viable());
    }

    #[test]
    fn assessment_never_panics_on_garbage() {
        let rec = Recording::from_parts(350.0, vec![vec![f64::NAN; 100]; 6], Condition::Normal, 0)
            .unwrap();
        let report = assess(&rec, &QualityConfig::default());
        assert!(!report.ok());
        assert_eq!(report.nonfinite, 600);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RejectReason::NonFinite.label(), "non_finite");
        assert_eq!(RejectReason::TooShort.label(), "too_short");
        let axes = AxisSet::of([1, 4]);
        assert_eq!(RejectReason::DeadAxis { axes }.label(), "dead_axis");
        assert_eq!(RejectReason::Saturated { axes }.label(), "saturated");
        assert_eq!(axes.iter().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(RejectReason::LowEnergy.label(), "low_energy");
    }
}
