//! The registration/verification API (§III system overview).
//!
//! Registration: the user hums "EMM", the probe runs through
//! preprocessing and the extractor, the MandiblePrint is transformed by
//! the user's Gaussian matrix, and the cancelable template is stored in
//! the secure enclave. Verification repeats the pipeline on a fresh probe
//! and accepts when the cosine distance to the stored template falls
//! below the operating threshold.

use mandipass_imu_sim::Recording;
use mandipass_telemetry::flight::{FlightOutcome, VerifyFlight};
use mandipass_telemetry::monitor::Monitor;
use mandipass_telemetry::span::SpanTree;
use mandipass_util::json::Value;

use crate::config::PipelineConfig;
use crate::enclave::SecureEnclave;
use crate::error::MandiPassError;
use crate::extractor::BiometricExtractor;
use crate::gradient_array::GradientArray;
use crate::preprocess::preprocess;
use crate::quality::{self, QualityConfig};
use crate::similarity::{accepts, cosine_distance};
use crate::template::{CancelableTemplate, GaussianMatrix, MandiblePrint, MatrixMemo};

/// Result of one verification request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyOutcome {
    /// Whether the request was accepted as the genuine user.
    pub accepted: bool,
    /// Cosine distance between the probe's cancelable print and the
    /// stored template (lower = more similar).
    pub distance: f64,
    /// The threshold the decision was made against.
    pub threshold: f64,
}

/// Retry/degradation policy for multi-probe verification.
///
/// Each candidate probe is scored by the quality gate first; a clean
/// probe verifies normally, a probe whose only faults are gyro-axis
/// failures may verify in *degraded* accelerometer-only mode under a
/// tightened threshold, and anything else consumes an attempt. The
/// policy is exhausted when `max_attempts` probes have been rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyPolicy {
    /// Maximum number of probes considered (further probes are ignored).
    pub max_attempts: usize,
    /// Quality-gate thresholds applied to every probe.
    pub quality: QualityConfig,
    /// Whether gyro-fault probes may verify accelerometer-only.
    pub allow_degraded: bool,
    /// Multiplier on the accept threshold in degraded mode. Below 1.0
    /// tightens the decision to compensate for the lost gyro evidence.
    pub degraded_threshold_scale: f64,
}

impl Default for VerifyPolicy {
    fn default() -> Self {
        VerifyPolicy {
            max_attempts: 3,
            quality: QualityConfig::default(),
            allow_degraded: true,
            degraded_threshold_scale: 0.8,
        }
    }
}

/// The outcome of a policy-driven verification.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecision {
    /// The accept/reject decision of the probe that finally verified.
    pub outcome: VerifyOutcome,
    /// Probes consumed, including the one that verified.
    pub attempts: usize,
    /// Whether the decision was made in degraded accel-only mode.
    pub degraded: bool,
    /// Reject labels of the probes consumed before the decision.
    pub rejects: Vec<String>,
}

/// What one enrolment seals: the primary template, the drift-baseline
/// distances of the enrolment probes, and the optional degraded
/// (accelerometer-only) template.
#[derive(Debug)]
struct Enrolment {
    template: CancelableTemplate,
    baseline: Vec<f64>,
    degraded: Option<CancelableTemplate>,
}

/// A complete MandiPass deployment: trained extractor + pipeline
/// configuration + secure enclave.
#[derive(Debug)]
pub struct MandiPass {
    extractor: BiometricExtractor,
    config: PipelineConfig,
    enclave: SecureEnclave,
    /// Live health monitor fed by every verify decision, quality
    /// rejection, and enclave access (the global monitor unless rebound
    /// via [`MandiPass::set_monitor`]).
    monitor: &'static Monitor,
    /// The users' drawn matrices, so a repeat verify at `dim ≤ 128`
    /// skips the `dim²` draws; larger matrices stream as before.
    memo: MatrixMemo,
}

impl MandiPass {
    /// Assembles a deployment around a (typically VSP-trained) extractor.
    /// Pre-packs the extractor's weights for the inference fast path
    /// (bit-exact; no behaviour change).
    pub fn new(mut extractor: BiometricExtractor, config: PipelineConfig) -> Self {
        extractor.prepare_inference();
        MandiPass {
            extractor,
            config,
            enclave: SecureEnclave::new(),
            monitor: mandipass_telemetry::monitor::global(),
            memo: MatrixMemo::new(),
        }
    }

    /// Deployment-time optimisation: fuses each batch norm's running
    /// statistics into the preceding convolution (fewer layers per
    /// forward). Embeddings then match the unfused network to ≈1e-6
    /// rather than bit for bit — see
    /// [`BiometricExtractor::fuse`]. Returns the folded-layer count.
    ///
    /// # Errors
    ///
    /// Propagates a pending-training-cache refusal from the extractor.
    pub fn fuse(&mut self) -> Result<usize, MandiPassError> {
        self.extractor.fuse()
    }

    /// Redirects this deployment's live-monitoring feed (decisions,
    /// rejects, flights, enclave audit) to `monitor`. The default is the
    /// process-wide global monitor.
    pub fn set_monitor(&mut self, monitor: &'static Monitor) {
        self.monitor = monitor;
        self.enclave.set_monitor(monitor);
    }

    /// The monitor this deployment feeds.
    pub fn monitor(&self) -> &'static Monitor {
        self.monitor
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Mutable pipeline configuration (e.g. to recalibrate the threshold).
    pub fn config_mut(&mut self) -> &mut PipelineConfig {
        &mut self.config
    }

    /// The MandiblePrint dimensionality of the deployed extractor.
    pub fn embedding_dim(&self) -> usize {
        self.extractor.embedding_dim()
    }

    /// The template store.
    pub fn enclave(&self) -> &SecureEnclave {
        &self.enclave
    }

    /// Extracts the (pre-transform) MandiblePrint of one raw recording.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and extraction failures.
    pub fn extract_print(&self, recording: &Recording) -> Result<MandiblePrint, MandiPassError> {
        self.extract_print_with_config(recording, &self.config)
    }

    fn extract_print_with_config(
        &self,
        recording: &Recording,
        config: &PipelineConfig,
    ) -> Result<MandiblePrint, MandiPassError> {
        let _span = mandipass_telemetry::span("extract_print");
        let array = preprocess(recording, config)?;
        let grad = GradientArray::from_signal_array(&array, config.half_n())?;
        let prints = self.extractor.extract(&[&grad])?;
        // The extractor contract is one print per input; an empty batch
        // result is a model-shape failure, not a panic-worthy state.
        prints
            .into_iter()
            .next()
            .ok_or(MandiPassError::DimensionMismatch {
                expected: 1,
                got: 0,
            })
    }

    /// Registers `user_id` from one or more enrolment recordings under
    /// the user's Gaussian matrix. The MandiblePrints are averaged, then
    /// transformed, then sealed in the enclave.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::NoEnrolmentData`] when every recording
    /// fails preprocessing, and propagates transform dimension errors.
    pub fn enroll(
        &mut self,
        user_id: u32,
        recordings: &[Recording],
        matrix: &GaussianMatrix,
    ) -> Result<(), MandiPassError> {
        let _span = mandipass_telemetry::span("enroll");
        let enrolment = self.enrolment(recordings, matrix)?;
        self.enclave.store(user_id, enrolment.template);
        // Feed the drift detector its enrolment-time baseline. Freezing
        // replaces the paper's default operating-point prior with
        // measured calibration.
        self.monitor.extend_baseline(&enrolment.baseline);
        self.monitor.freeze_baseline();
        if let Some(degraded) = enrolment.degraded {
            self.enclave.store_degraded(user_id, degraded);
        }
        Ok(())
    }

    /// Computes everything [`Self::enroll`] seals, without storing it.
    /// Every print the enrolment transforms goes through one
    /// [`MatrixMemo::transform_all`] call, so the matrix is drawn at
    /// most once per enrolment (and not at all when the memo holds it).
    fn enrolment(
        &self,
        recordings: &[Recording],
        matrix: &GaussianMatrix,
    ) -> Result<Enrolment, MandiPassError> {
        let mut prints = Vec::with_capacity(recordings.len());
        for rec in recordings {
            match self.extract_print(rec) {
                Ok(p) => prints.push(p),
                // Unusable probes are skipped; enrolment only fails when
                // nothing survives (NoEnrolmentData below).
                Err(
                    MandiPassError::Dsp(_)
                    | MandiPassError::EmptyRecording
                    | MandiPassError::AllOutlierSegment { .. }
                    | MandiPassError::ZeroVariance { .. },
                ) => continue,
                Err(e) => return Err(e),
            }
        }
        let mean = MandiblePrint::mean(&prints)?;
        // The accelerometer-only fallback template lets a later gyro
        // failure verify like-for-like in degraded mode. Best-effort:
        // enrolment succeeds without one (degraded verification then
        // falls back to the primary template).
        let degraded_cfg = self.degraded_config(1.0);
        let degraded_prints: Vec<MandiblePrint> = recordings
            .iter()
            .filter_map(|rec| self.extract_print_with_config(rec, &degraded_cfg).ok())
            .collect();
        let degraded_mean = MandiblePrint::mean(&degraded_prints).ok();

        let mut batch = Vec::with_capacity(prints.len() + 2);
        batch.push(&mean);
        batch.extend(&prints);
        batch.extend(degraded_mean.as_ref());
        let mut templates = self.memo.transform_all(matrix, &batch)?;
        let degraded = if degraded_mean.is_some() {
            templates.pop()
        } else {
            None
        };
        // The drift baseline: the genuine distances of this user's own
        // enrolment probes against the template about to be sealed.
        let mut templates = templates.into_iter();
        let template = templates.next().ok_or(MandiPassError::NoEnrolmentData)?;
        let baseline = templates
            .map(|c| cosine_distance(template.as_slice(), c.as_slice()))
            .collect();
        Ok(Enrolment {
            template,
            baseline,
            degraded,
        })
    }

    /// Verifies a probe recording against `user_id`'s stored template,
    /// transforming the probe under the matrix that template was sealed
    /// with.
    ///
    /// # Errors
    ///
    /// * [`MandiPassError::NotEnrolled`] when no template exists.
    /// * [`MandiPassError::Dsp`] when the probe contains no detectable
    ///   vibration (e.g. a zero-effort attacker who does not hum).
    pub fn verify(&self, user_id: u32, probe: &Recording) -> Result<VerifyOutcome, MandiPassError> {
        let _span = mandipass_telemetry::span("verify");
        let template = {
            let _span = mandipass_telemetry::span("enclave_load");
            self.enclave.load(user_id)?
        };
        let print = self.extract_print(probe)?;
        let cancelable = self.memo.transform(&sealed_matrix(&template), &print)?;
        let outcome = decide(&template, &cancelable, self.config.threshold);
        self.finish_verify(user_id, outcome);
        Ok(outcome)
    }

    /// Compares a raw cancelable vector against the stored template —
    /// the code path a replay attacker exercises by exhibiting a stolen
    /// template directly.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::NotEnrolled`] when no template exists.
    pub fn verify_cancelable(
        &self,
        user_id: u32,
        presented: &CancelableTemplate,
    ) -> Result<VerifyOutcome, MandiPassError> {
        let _span = mandipass_telemetry::span("verify");
        let template = {
            let _span = mandipass_telemetry::span("enclave_load");
            self.enclave.load(user_id)?
        };
        let outcome = decide(&template, presented, self.config.threshold);
        self.finish_verify(user_id, outcome);
        Ok(outcome)
    }

    /// Verifies under a [`VerifyPolicy`]: each probe in `probes` (up to
    /// `policy.max_attempts`) passes the quality gate before the
    /// pipeline runs. Gyro-only faults may fall back to degraded
    /// accelerometer-only verification with a tightened threshold.
    ///
    /// The walk takes the probes in order and assesses each once. A
    /// quality-ok probe runs the full [`MandiPass::verify`] pipeline only
    /// when the walk reaches it, so a request that decides on its first
    /// probe never preprocesses or extracts the retries behind it.
    ///
    /// Every rejected probe is recorded in the enclave audit trail and
    /// in per-reason telemetry counters (`quality.reject.<label>`); the
    /// retry depth lands in the `verify.retry_depth` histogram. Flight
    /// records emitted along the way inherit the thread's active
    /// request trace id ([`mandipass_telemetry::trace::current`]), so a
    /// serve-layer trace and the flights it produced cross-reference.
    ///
    /// # Errors
    ///
    /// * [`MandiPassError::NotEnrolled`] when no template exists.
    /// * [`MandiPassError::RetriesExhausted`] when every considered
    ///   probe was rejected, carrying one label per attempt.
    pub fn verify_with_policy(
        &self,
        user_id: u32,
        probes: &[Recording],
        policy: &VerifyPolicy,
    ) -> Result<PolicyDecision, MandiPassError> {
        let _span = mandipass_telemetry::span("verify_with_policy");
        // Fail fast on a missing template: no number of probes fixes it.
        {
            let _span = mandipass_telemetry::span("enclave_load");
            self.enclave.load(user_id)?;
        }
        let considered = &probes[..probes.len().min(policy.max_attempts.max(1))];
        let mut rejects: Vec<String> = Vec::new();
        let mut attempts = 0usize;
        for probe in considered {
            attempts += 1;
            let report = quality::assess(probe, &policy.quality);
            let degraded = !report.ok();
            // Capture the attempt's span tree for its flight record;
            // inside an outer capture (benchmarks, the determinism suite)
            // this yields and records nothing.
            let (result, spans) = if report.ok() {
                mandipass_telemetry::try_capture(|| self.verify(user_id, probe))
            } else if policy.allow_degraded && report.degraded_viable() {
                mandipass_telemetry::try_capture(|| self.verify_degraded(user_id, probe, policy))
            } else {
                let reasons: Vec<&'static str> = report.reasons.iter().map(|r| r.label()).collect();
                self.reject(user_id, "quality", &reasons, &report, None, &mut rejects);
                continue;
            };
            match result {
                Ok(outcome) => {
                    self.finish_policy(attempts, degraded);
                    return Ok(PolicyDecision {
                        outcome,
                        attempts,
                        degraded,
                        rejects,
                    });
                }
                Err(e) => self.reject(
                    user_id,
                    "pipeline",
                    &[e.label()],
                    &report,
                    spans,
                    &mut rejects,
                ),
            }
        }
        self.finish_policy(attempts, false);
        let mut flight = VerifyFlight::new(user_id, FlightOutcome::Exhausted);
        flight.attempts = attempts;
        flight.rejects = rejects.clone();
        self.monitor.record_flight(flight, None);
        Err(MandiPassError::RetriesExhausted {
            attempts,
            reasons: rejects,
        })
    }

    /// Records one rejected policy attempt: a `<family>.reject.<reason>`
    /// counter and an enclave audit event per reason, then the
    /// `<family>:<reasons>` label in the monitor, a flight record (with
    /// the quality report as detail and, when one was captured, the
    /// attempt's span tree) and the decision's reject list.
    fn reject(
        &self,
        user_id: u32,
        family: &str,
        reasons: &[&'static str],
        report: &quality::QualityReport,
        spans: Option<SpanTree>,
        rejects: &mut Vec<String>,
    ) {
        for reason in reasons {
            // Dynamically named metrics: the `counter!` macro caches one
            // handle per call site, which cannot key on the reason.
            mandipass_telemetry::metrics()
                .counter(&format!("{family}.reject.{reason}"))
                .inc();
            self.enclave.record_quality_reject(user_id, reason);
        }
        let label = format!("{family}:{}", reasons.join("+"));
        self.monitor.observe_reject(&label);
        let mut flight = VerifyFlight::new(user_id, FlightOutcome::Rejected);
        flight.rejects.push(label.clone());
        flight.detail = Value::Object(vec![("quality".to_string(), report.to_json())]);
        self.monitor.record_flight(flight, spans);
        rejects.push(label);
    }

    /// Accelerometer-only verification under a tightened threshold: the
    /// gyro axes are masked out of the pipeline and the accept threshold
    /// is scaled by `policy.degraded_threshold_scale`.
    fn verify_degraded(
        &self,
        user_id: u32,
        probe: &Recording,
        policy: &VerifyPolicy,
    ) -> Result<VerifyOutcome, MandiPassError> {
        let _span = mandipass_telemetry::span("verify_degraded");
        // Prefer the accelerometer-only template sealed at enrolment —
        // the like-for-like comparison — and only fall back to the
        // primary (six-axis) template for enrolments that predate it.
        let template = {
            let _span = mandipass_telemetry::span("enclave_load");
            match self.enclave.load_degraded(user_id) {
                Some(t) => t,
                None => self.enclave.load(user_id)?,
            }
        };
        let config = self.degraded_config(policy.degraded_threshold_scale);
        let print = self.extract_print_with_config(probe, &config)?;
        let cancelable = self.memo.transform(&sealed_matrix(&template), &print)?;
        let outcome = decide(&template, &cancelable, config.threshold);
        self.enclave
            .record_degraded_verify(user_id, outcome.accepted, outcome.distance);
        self.monitor
            .observe_decision(outcome.distance, outcome.accepted, true);
        let mut flight = VerifyFlight::new(user_id, FlightOutcome::Degraded);
        flight.distance = Some(outcome.distance);
        flight.threshold = Some(outcome.threshold);
        self.monitor.record_flight(flight, None);
        if outcome.accepted {
            mandipass_telemetry::counter!("verify.accept").inc();
        } else {
            mandipass_telemetry::counter!("verify.reject").inc();
        }
        Ok(outcome)
    }

    /// The accelerometer-only pipeline configuration used for both the
    /// degraded enrolment template and degraded verification; the accept
    /// threshold is scaled by `threshold_scale`.
    fn degraded_config(&self, threshold_scale: f64) -> PipelineConfig {
        PipelineConfig {
            axis_mask: [true, true, true, false, false, false],
            threshold: self.config.threshold * threshold_scale,
            ..self.config.clone()
        }
    }

    fn finish_policy(&self, attempts: usize, degraded: bool) {
        mandipass_telemetry::histogram!("verify.retry_depth").observe(attempts as f64);
        if degraded {
            mandipass_telemetry::counter!("verify.degraded").inc();
            mandipass_telemetry::counter!("verify.degraded_decisions").inc();
        }
    }

    /// Revokes `user_id`'s template, returning the old template (the
    /// artefact a replay attacker may have stolen before revocation).
    /// The matrix memo drops the revoked template's matrix with it.
    pub fn revoke(&mut self, user_id: u32) -> Option<CancelableTemplate> {
        let old = self.enclave.revoke(user_id);
        if let Some(template) = &old {
            self.memo.evict_seed(template.matrix_seed());
        }
        old
    }

    /// Common verify epilogue: audit-trail entry + accept/reject
    /// counters + monitor decision window (and a flight record when the
    /// probe was rejected).
    fn finish_verify(&self, user_id: u32, outcome: VerifyOutcome) {
        self.enclave
            .record_verify(user_id, outcome.accepted, outcome.distance);
        self.monitor
            .observe_decision(outcome.distance, outcome.accepted, false);
        if outcome.accepted {
            mandipass_telemetry::counter!("verify.accept").inc();
        } else {
            mandipass_telemetry::counter!("verify.reject").inc();
            let mut flight = VerifyFlight::new(user_id, FlightOutcome::Rejected);
            flight.distance = Some(outcome.distance);
            flight.threshold = Some(outcome.threshold);
            self.monitor.record_flight(flight, None);
        }
    }
}

/// The matrix `template` was sealed under, rebuilt from the seed and
/// dimension the template carries.
fn sealed_matrix(template: &CancelableTemplate) -> GaussianMatrix {
    GaussianMatrix::generate(template.matrix_seed(), template.dim())
}

/// The one accept/reject rule, timed as the `similarity` stage: the
/// cosine distance between `template` and `probe` against `threshold`.
fn decide(
    template: &CancelableTemplate,
    probe: &CancelableTemplate,
    threshold: f64,
) -> VerifyOutcome {
    let _span = mandipass_telemetry::span("similarity");
    let distance = cosine_distance(template.as_slice(), probe.as_slice());
    VerifyOutcome {
        accepted: accepts(distance, threshold),
        distance,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainingConfig, VspTrainer};
    use mandipass_imu_sim::{Condition, Population, Recorder};

    /// The serving layer shares one enrolled `MandiPass` read-only
    /// across worker threads, so the deployed type must stay `Send +
    /// Sync` — this compile-time audit pins it (the `nn::Layer` trait
    /// carries the bounds the boxed extractor layers need).
    #[test]
    fn deployment_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MandiPass>();
        assert_send_sync::<SecureEnclave>();
        assert_send_sync::<VerifyPolicy>();
    }

    /// A small trained deployment shared by the tests in this module.
    fn trained_system() -> (MandiPass, Population, Recorder) {
        let pop = Population::generate(6, 77);
        let recorder = Recorder::default();
        let trainer = VspTrainer::new(TrainingConfig {
            seconds_per_person: 4.0,
            epochs: 6,
            ..TrainingConfig::fast_demo()
        });
        // Users 2.. are "hired people"; users 0 and 1 stay unseen.
        let extractor = trainer.train(&pop.users()[2..], &recorder).unwrap();
        (
            MandiPass::new(extractor, PipelineConfig::default()),
            pop,
            recorder,
        )
    }

    #[test]
    fn enroll_verify_accepts_genuine_user() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(1, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 1000 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();
        assert!(system.enclave().contains(user.id));

        let mut accepted = 0;
        for s in 0..10 {
            let probe = recorder.record(user, Condition::Normal, 2000 + s);
            let outcome = system.verify(user.id, &probe).unwrap();
            if outcome.accepted {
                accepted += 1;
            }
        }
        assert!(accepted >= 8, "only {accepted}/10 genuine probes accepted");
    }

    #[test]
    fn impostor_distance_exceeds_genuine_distance() {
        let (mut system, pop, recorder) = trained_system();
        let victim = &pop.users()[0];
        let attacker = &pop.users()[1];
        let matrix = GaussianMatrix::generate(2, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(victim, Condition::Normal, 3000 + s))
            .collect();
        system.enroll(victim.id, &enrolment, &matrix).unwrap();

        let genuine: f64 = (0..5)
            .map(|s| {
                let probe = recorder.record(victim, Condition::Normal, 4000 + s);
                system.verify(victim.id, &probe).unwrap().distance
            })
            .sum::<f64>()
            / 5.0;
        let impostor: f64 = (0..5)
            .map(|s| {
                let probe = recorder.record(attacker, Condition::Normal, 5000 + s);
                system.verify(victim.id, &probe).unwrap().distance
            })
            .sum::<f64>()
            / 5.0;
        assert!(
            genuine < impostor,
            "genuine mean {genuine:.3} not below impostor mean {impostor:.3}"
        );
    }

    #[test]
    fn unenrolled_user_is_rejected_with_error() {
        let (system, pop, recorder) = trained_system();
        let probe = recorder.record(&pop.users()[0], Condition::Normal, 1);
        assert!(matches!(
            system.verify(9, &probe),
            Err(MandiPassError::NotEnrolled { user_id: 9 })
        ));
    }

    #[test]
    fn enrolment_with_no_usable_recordings_fails() {
        let (mut system, pop, recorder) = trained_system();
        let matrix = GaussianMatrix::generate(4, system.embedding_dim());
        // Make detection impossible, so every probe is unusable.
        system.config_mut().detector_start_threshold = 1e12;
        let recs = vec![recorder.record(&pop.users()[0], Condition::Normal, 1)];
        assert!(matches!(
            system.enroll(0, &recs, &matrix),
            Err(MandiPassError::NoEnrolmentData)
        ));
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Enrolment draws the matrix once for all its prints; what it seals
    /// must still equal one `transform` per print, bit for bit.
    #[test]
    fn batched_enrolment_matches_per_print_transforms() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(12, system.embedding_dim());
        let recs: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 9000 + s))
            .collect();

        let prints: Vec<_> = recs
            .iter()
            .map(|r| system.extract_print(r).unwrap())
            .collect();
        let template = matrix
            .transform(&MandiblePrint::mean(&prints).unwrap())
            .unwrap();
        let baseline: Vec<u64> = prints
            .iter()
            .map(|p| {
                let c = matrix.transform(p).unwrap();
                cosine_distance(template.as_slice(), c.as_slice()).to_bits()
            })
            .collect();
        let degraded_cfg = system.degraded_config(1.0);
        let degraded_prints: Vec<_> = recs
            .iter()
            .map(|r| system.extract_print_with_config(r, &degraded_cfg).unwrap())
            .collect();
        let degraded = matrix
            .transform(&MandiblePrint::mean(&degraded_prints).unwrap())
            .unwrap();

        let enrolment = system.enrolment(&recs, &matrix).unwrap();
        assert_eq!(
            bits(enrolment.template.as_slice()),
            bits(template.as_slice())
        );
        let got: Vec<u64> = enrolment.baseline.iter().map(|d| d.to_bits()).collect();
        assert_eq!(got, baseline);
        let sealed_degraded = enrolment.degraded.expect("degraded template");
        assert_eq!(bits(sealed_degraded.as_slice()), bits(degraded.as_slice()));

        system.enroll(user.id, &recs, &matrix).unwrap();
        let stored = system.enclave().load(user.id).unwrap();
        assert_eq!(bits(stored.as_slice()), bits(template.as_slice()));
        let stored_degraded = system.enclave().load_degraded(user.id).unwrap();
        assert_eq!(bits(stored_degraded.as_slice()), bits(degraded.as_slice()));
    }

    #[test]
    fn enrolment_under_a_wrong_dimension_matrix_stores_nothing() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let dim = system.embedding_dim();
        let matrix = GaussianMatrix::generate(13, dim + 1);
        let recs: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 9100 + s))
            .collect();
        assert!(matches!(
            system.enroll(user.id, &recs, &matrix),
            Err(MandiPassError::DimensionMismatch { expected, got })
                if expected == dim + 1 && got == dim
        ));
        assert!(!system.enclave().contains(user.id));
        assert!(system
            .enclave()
            .audit_events_for(user.id)
            .iter()
            .all(|e| e.kind != crate::enclave::AuditKind::Store));
        assert!(system.enclave().load_degraded(user.id).is_none());
    }

    #[test]
    fn revocation_removes_template() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(5, system.embedding_dim());
        let recs: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 6000 + s))
            .collect();
        system.enroll(user.id, &recs, &matrix).unwrap();
        let stolen = system.revoke(user.id);
        assert!(stolen.is_some());
        let probe = recorder.record(user, Condition::Normal, 6100);
        assert!(matches!(
            system.verify(user.id, &probe),
            Err(MandiPassError::NotEnrolled { .. })
        ));
    }

    #[test]
    fn verify_reuses_the_enrolment_draw_until_revocation_evicts_it() {
        let (mut system, pop, recorder) = trained_system();
        let (a, b) = (&pop.users()[0], &pop.users()[1]);
        // Two users under one seed, so a verify under the revoked
        // user's matrix is still possible after the revocation.
        let matrix = GaussianMatrix::generate(21, system.embedding_dim());
        for (user, base) in [(a, 9300), (b, 9400)] {
            let recs: Vec<_> = (0..3)
                .map(|s| recorder.record(user, Condition::Normal, base + s))
                .collect();
            system.enroll(user.id, &recs, &matrix).unwrap();
        }
        // The first enrolment drew the matrix; the second reused it.
        let stats = system.memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        let probe = recorder.record(b, Condition::Normal, 9500);
        let before = system.verify(b.id, &probe).unwrap();
        assert_eq!(system.memo.stats().hits, 2);
        system.revoke(a.id).unwrap();
        assert_eq!(system.memo.stats().entries, 0);
        let after = system.verify(b.id, &probe).unwrap();
        let stats = system.memo.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (2, 2),
            "the evicted matrix is drawn again"
        );
        assert_eq!(before.distance.to_bits(), after.distance.to_bits());
        assert_eq!(before.accepted, after.accepted);
    }

    /// Verify transforms the probe under the matrix named by the sealed
    /// template: its distance equals a direct transform under
    /// `(seed, dim)` followed by the cosine distance, bit for bit.
    #[test]
    fn verify_distance_matches_the_sealed_matrix_oracle() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let dim = system.embedding_dim();
        let recs: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 9600 + s))
            .collect();
        system
            .enroll(user.id, &recs, &GaussianMatrix::generate(23, dim))
            .unwrap();
        let probe = recorder.record(user, Condition::Normal, 9700);
        let outcome = system.verify(user.id, &probe).unwrap();

        let template = system.enclave().load(user.id).unwrap();
        let print = system.extract_print(&probe).unwrap();
        let oracle = GaussianMatrix::generate(23, dim).transform(&print).unwrap();
        let distance = cosine_distance(template.as_slice(), oracle.as_slice());
        assert_eq!(outcome.distance.to_bits(), distance.to_bits());
    }

    /// After a revocation and a re-enrolment under a new seed, verify
    /// transforms under the new matrix, not the revoked one.
    #[test]
    fn verify_after_reenrolment_uses_the_new_matrix() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let dim = system.embedding_dim();
        let recs: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 9800 + s))
            .collect();
        let probe = recorder.record(user, Condition::Normal, 9900);
        system
            .enroll(user.id, &recs, &GaussianMatrix::generate(24, dim))
            .unwrap();
        system.verify(user.id, &probe).unwrap();
        system.revoke(user.id).unwrap();
        system
            .enroll(user.id, &recs, &GaussianMatrix::generate(25, dim))
            .unwrap();
        let outcome = system.verify(user.id, &probe).unwrap();

        let print = system.extract_print(&probe).unwrap();
        let template = system.enclave().load(user.id).unwrap();
        assert_eq!(template.matrix_seed(), 25);
        let oracle = GaussianMatrix::generate(25, dim).transform(&print).unwrap();
        let distance = cosine_distance(template.as_slice(), oracle.as_slice());
        assert_eq!(outcome.distance.to_bits(), distance.to_bits());
    }

    #[test]
    fn policy_accepts_genuine_user_on_first_clean_probe() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(11, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8000 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();
        let probes: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 8100 + s))
            .collect();
        let decision = system
            .verify_with_policy(user.id, &probes, &VerifyPolicy::default())
            .unwrap();
        assert_eq!(decision.attempts, 1);
        assert!(!decision.degraded);
        assert!(decision.rejects.is_empty());
    }

    #[test]
    fn policy_retries_past_bad_probe_and_audits_reason() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(12, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8200 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let good = recorder.record(user, Condition::Normal, 8300);
        let bad = {
            let axes = vec![vec![f64::NAN; good.len()]; 6];
            Recording::from_parts(
                good.sample_rate_hz(),
                axes,
                good.condition(),
                good.user_id(),
            )
            .unwrap()
        };
        let decision = system
            .verify_with_policy(user.id, &[bad, good], &VerifyPolicy::default())
            .unwrap();
        assert_eq!(decision.attempts, 2);
        assert_eq!(decision.rejects.len(), 1);
        assert!(decision.rejects[0].starts_with("quality:"));
        // The rejection is visible in the audit trail with its reason.
        let rejections: Vec<_> = system
            .enclave()
            .audit_events_for(user.id)
            .into_iter()
            .filter(|e| e.kind == crate::enclave::AuditKind::QualityReject)
            .collect();
        assert!(!rejections.is_empty());
        assert!(rejections.iter().any(|e| e.reason == Some("non_finite")));
    }

    #[test]
    fn policy_reports_a_six_axis_saturation_once() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(15, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8220 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let good = recorder.record(user, Condition::Normal, 8320);
        let mut axes = good.axes().to_vec();
        for track in &mut axes {
            // Pin a third of every track to its rails.
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
        let clipped =
            Recording::from_parts(good.sample_rate_hz(), axes, good.condition(), 0).unwrap();
        let saturated = mandipass_telemetry::metrics().counter("quality.reject.saturated");
        let before = saturated.get();
        let decision = system
            .verify_with_policy(user.id, &[clipped, good], &VerifyPolicy::default())
            .unwrap();
        assert_eq!(decision.rejects, vec!["quality:saturated".to_string()]);
        assert_eq!(saturated.get() - before, 1);
        let audits: Vec<_> = system
            .enclave()
            .audit_events_for(user.id)
            .into_iter()
            .filter(|e| e.kind == crate::enclave::AuditKind::QualityReject)
            .collect();
        assert_eq!(audits.len(), 1);
        assert_eq!(audits[0].reason, Some("saturated"));
    }

    #[test]
    fn policy_assesses_each_probe_once() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(17, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8250 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let good = recorder.record(user, Condition::Normal, 8350);
        let axes = vec![vec![f64::NAN; good.len()]; 6];
        let bad = Recording::from_parts(good.sample_rate_hz(), axes, good.condition(), 0).unwrap();
        let (decision, tree) = mandipass_telemetry::capture(|| {
            system.verify_with_policy(user.id, &[bad, good], &VerifyPolicy::default())
        });
        assert_eq!(decision.unwrap().attempts, 2);
        assert_eq!(
            tree.count("quality_assess"),
            2,
            "a probe was assessed twice"
        );
        // Only the clean probe reaches the pipeline: one preprocess, one
        // forward, one decision.
        assert_eq!(tree.count("extract_print"), 1);
        assert_eq!(tree.count("cnn_forward"), 1);
        assert_eq!(tree.count("verify"), 1);
    }

    #[test]
    fn policy_leaves_retries_behind_a_deciding_probe_untouched() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(19, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8450 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let probes: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 8550 + s))
            .collect();
        let (decision, tree) = mandipass_telemetry::capture(|| {
            system.verify_with_policy(user.id, &probes, &VerifyPolicy::default())
        });
        assert_eq!(decision.unwrap().attempts, 1);
        // The first clean probe decides, so the two retries are neither
        // assessed, preprocessed nor pushed through the CNN.
        assert_eq!(tree.count("quality_assess"), 1);
        assert_eq!(tree.count("preprocess"), 1);
        assert_eq!(tree.count("cnn_forward"), 1);
    }

    #[test]
    fn policy_degrades_to_accel_only_for_stuck_gyro() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(13, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8400 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let clean = recorder.record(user, Condition::Normal, 8500);
        let mut axes = clean.axes().to_vec();
        let frozen = axes[3][0];
        for v in axes[3].iter_mut() {
            *v = frozen;
        }
        let gyro_fault = Recording::from_parts(
            clean.sample_rate_hz(),
            axes,
            clean.condition(),
            clean.user_id(),
        )
        .unwrap();
        let decision = system
            .verify_with_policy(user.id, &[gyro_fault], &VerifyPolicy::default())
            .unwrap();
        assert!(decision.degraded);
        // Degraded mode tightens the threshold.
        assert!(decision.outcome.threshold < system.config().threshold);
        let trail = system.enclave().audit_events_for(user.id);
        assert!(trail
            .iter()
            .any(|e| e.kind == crate::enclave::AuditKind::DegradedVerify));
    }

    #[test]
    fn policy_exhausts_retries_with_typed_reasons() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(14, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8600 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let template = recorder.record(user, Condition::Normal, 8700);
        let garbage: Vec<Recording> = (0..4)
            .map(|_| {
                let axes = vec![vec![f64::INFINITY; template.len()]; 6];
                Recording::from_parts(template.sample_rate_hz(), axes, template.condition(), 0)
                    .unwrap()
            })
            .collect();
        let err = system
            .verify_with_policy(user.id, &garbage, &VerifyPolicy::default())
            .unwrap_err();
        match err {
            MandiPassError::RetriesExhausted { attempts, reasons } => {
                assert_eq!(attempts, 3); // default max_attempts caps at 3
                assert_eq!(reasons.len(), 3);
                assert!(reasons.iter().all(|r| r.contains("non_finite")));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn policy_flights_inherit_the_active_trace_id() {
        let (mut system, pop, recorder) = trained_system();
        let monitor: &'static mandipass_telemetry::Monitor =
            Box::leak(Box::new(mandipass_telemetry::Monitor::default()));
        system.set_monitor(monitor);
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(16, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8900 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let template = recorder.record(user, Condition::Normal, 8950);
        let axes = vec![vec![f64::INFINITY; template.len()]; 6];
        let garbage =
            Recording::from_parts(template.sample_rate_hz(), axes, template.condition(), 0)
                .unwrap();
        let trace_id = 0xfeed_0000_0000_0042_u64;
        {
            let _scope = mandipass_telemetry::trace::scope(trace_id);
            let _ = system.verify_with_policy(user.id, &[garbage], &VerifyPolicy::default());
        }
        let flights = monitor.flights();
        assert!(!flights.is_empty(), "exhausted policy run records flights");
        assert!(
            flights.iter().all(|f| f.trace_id == Some(trace_id)),
            "policy-path flights must carry the active trace id"
        );
        // Outside any scope, fresh flights stay untagged.
        assert!(mandipass_telemetry::trace::current().is_none());
    }

    #[test]
    fn policy_requires_enrolment_before_consuming_probes() {
        let (system, pop, recorder) = trained_system();
        let probe = recorder.record(&pop.users()[0], Condition::Normal, 8800);
        assert!(matches!(
            system.verify_with_policy(42, &[probe], &VerifyPolicy::default()),
            Err(MandiPassError::NotEnrolled { user_id: 42 })
        ));
    }

    #[test]
    fn verify_cancelable_accepts_matching_template() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(6, system.embedding_dim());
        let recs: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 7000 + s))
            .collect();
        system.enroll(user.id, &recs, &matrix).unwrap();
        // Presenting the enclave's own template verbatim: a replay before
        // revocation, which trivially matches (distance 0).
        let template = system.enclave().load(user.id).unwrap();
        let outcome = system.verify_cancelable(user.id, &template).unwrap();
        assert!(outcome.accepted);
        assert!(outcome.distance < 1e-9);
    }
}
