//! Cross-crate robustness and failure-injection tests: the pipeline under
//! every condition generator, degenerate sensors, and hostile inputs.

use mandipass::gradient_array::GradientArray;
use mandipass::prelude::PipelineConfig;
use mandipass::preprocess::preprocess;
use mandipass::MandiPassError;
use mandipass_imu_sim::recorder::SessionJitter;
use mandipass_imu_sim::{Condition, ImuModel, Population, Recorder};

fn cohort() -> (Population, Recorder) {
    (Population::generate(4, 31337), Recorder::default())
}

#[test]
fn every_condition_preprocesses() {
    let (pop, recorder) = cohort();
    let config = PipelineConfig::default();
    let conditions = [
        Condition::Normal,
        Condition::Lollipop,
        Condition::Water,
        Condition::Walk,
        Condition::Run,
        Condition::ToneHigh,
        Condition::ToneLow,
        Condition::Orientation(90),
        Condition::Orientation(180),
        Condition::Orientation(270),
        Condition::LeftEar,
    ];
    for condition in conditions {
        let mut ok = 0;
        for seed in 0..5 {
            let rec = recorder.record(&pop.users()[0], condition, seed);
            if preprocess(&rec, &config).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 4, "{condition}: only {ok}/5 probes preprocessed");
    }
}

#[test]
fn both_imu_parts_work_end_to_end() {
    let (pop, _) = cohort();
    let config = PipelineConfig::default();
    for imu in [ImuModel::mpu9250(), ImuModel::mpu6050()] {
        let recorder = Recorder {
            imu,
            ..Recorder::default()
        };
        let rec = recorder.record(&pop.users()[1], Condition::Normal, 7);
        let arr = preprocess(&rec, &config).expect("preprocesses");
        let grad = GradientArray::from_signal_array(&arr, config.half_n()).expect("gradients");
        assert_eq!(grad.axes(), 6);
        assert_eq!(grad.half_n(), 30);
        assert!(grad.to_f32().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn spiky_sensor_is_cleaned_by_mad_stage() {
    let (pop, recorder) = cohort();
    let config = PipelineConfig::default();
    let mut imu = recorder.imu.clone();
    imu.outlier_probability = 0.08; // pathological part
    let spiky = Recorder { imu, ..recorder };
    let mut ok = 0;
    for seed in 0..10 {
        let rec = spiky.record(&pop.users()[0], Condition::Normal, seed);
        if let Ok(arr) = preprocess(&rec, &config) {
            ok += 1;
            // After MAD repair, filtering and normalisation, values are
            // bounded by construction.
            for axis in arr.iter() {
                assert!(axis.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }
    assert!(
        ok >= 7,
        "only {ok}/10 spiky recordings survived preprocessing"
    );
}

#[test]
fn silent_recording_yields_typed_detection_error() {
    let (pop, recorder) = cohort();
    let mut user = pop.users()[0].clone();
    user.vocal.force_positive = 1e-9;
    user.vocal.force_negative = 1e-9;
    user.vocal.harmonics = vec![0.0; 6];
    let rec = recorder.record(&user, Condition::Normal, 1);
    let err = preprocess(&rec, &PipelineConfig::default()).unwrap_err();
    assert!(matches!(
        err,
        MandiPassError::Dsp(mandipass_dsp::DspError::VibrationNotFound)
    ));
}

#[test]
fn noise_free_recordings_of_one_user_are_nearly_identical() {
    let (pop, _) = cohort();
    let recorder = Recorder {
        jitter: SessionJitter::none(),
        ..Recorder::default()
    };
    let config = PipelineConfig::default();
    let a = preprocess(
        &recorder.record(&pop.users()[2], Condition::Normal, 1),
        &config,
    )
    .expect("preprocesses");
    let b = preprocess(
        &recorder.record(&pop.users()[2], Condition::Normal, 2),
        &config,
    )
    .expect("preprocesses");
    for (ra, rb) in a.iter().zip(b.iter()) {
        for (x, y) in ra.iter().zip(rb) {
            assert!((x - y).abs() < 1e-9, "noise-free probes differ: {x} vs {y}");
        }
    }
}

#[test]
fn conditioned_arrays_stay_closer_to_own_user_than_to_others() {
    // The raw-feature version of the Figs. 12-14 claims: for each
    // condition, a user's conditioned array is closer (on average) to
    // their own normal arrays than another user's normal arrays are.
    use mandipass::similarity::cosine_distance;
    let (pop, recorder) = cohort();
    let config = PipelineConfig::default();
    let flat = |rec: &mandipass_imu_sim::Recording| -> Option<Vec<f32>> {
        let arr = preprocess(rec, &config).ok()?;
        Some(GradientArray::from_signal_array(&arr, 30).ok()?.to_f32())
    };
    let user = &pop.users()[0];
    let other = &pop.users()[1];
    let normal: Vec<Vec<f32>> = (0..6)
        .filter_map(|s| flat(&recorder.record(user, Condition::Normal, 100 + s)))
        .collect();
    for condition in [
        Condition::Lollipop,
        Condition::Water,
        Condition::Walk,
        Condition::Run,
    ] {
        let conditioned: Vec<Vec<f32>> = (0..6)
            .filter_map(|s| flat(&recorder.record(user, condition, 200 + s)))
            .collect();
        let foreign: Vec<Vec<f32>> = (0..6)
            .filter_map(|s| flat(&recorder.record(other, Condition::Normal, 300 + s)))
            .collect();
        let mean_to = |set: &[Vec<f32>]| -> f64 {
            let mut total = 0.0;
            let mut n = 0;
            for a in &normal {
                for b in set {
                    total += cosine_distance(a, b);
                    n += 1;
                }
            }
            total / f64::from(n as u32)
        };
        let own = mean_to(&conditioned);
        let imp = mean_to(&foreign);
        assert!(
            own < imp,
            "{condition}: conditioned own {own:.3} !< impostor {imp:.3}"
        );
    }
}

#[test]
fn axis_masked_pipeline_keeps_shape() {
    let (pop, recorder) = cohort();
    for count in 1..=6 {
        let config = PipelineConfig {
            axis_mask: PipelineConfig::axis_mask_first(count),
            ..Default::default()
        };
        let rec = recorder.record(&pop.users()[3], Condition::Normal, 5);
        let arr = preprocess(&rec, &config).expect("preprocesses");
        assert_eq!(
            arr.axis_count(),
            6,
            "masking must not change the array shape"
        );
        let zeroed = (count..6).all(|j| arr.axis(j).iter().all(|&v| v == 0.0));
        assert!(zeroed, "axes beyond {count} must be zeroed");
    }
}

/// Shared setup for the fault-injection tests: a fast-demo extractor
/// trained on three users, with the fourth enrolled as the deployed
/// user.
fn enrolled_authenticator() -> (
    mandipass::prelude::MandiPass,
    mandipass_imu_sim::UserProfile,
    Recorder,
) {
    use mandipass::prelude::*;
    use mandipass::train::{TrainingConfig, VspTrainer};

    let (pop, recorder) = cohort();
    let trainer = VspTrainer::new(TrainingConfig::fast_demo());
    let extractor = trainer
        .train(&pop.users()[..3], &recorder)
        .expect("fast-demo training succeeds");
    let mut auth = MandiPass::new(extractor, PipelineConfig::default());
    let user = pop.users()[3].clone();
    let matrix = GaussianMatrix::generate(0x0e17, auth.embedding_dim());
    let enrol: Vec<_> = (0..4u64)
        .map(|s| recorder.record(&user, Condition::Normal, 0xe0 ^ s))
        .collect();
    auth.enroll(user.id, &enrol, &matrix).expect("enrolment");
    (auth, user, recorder)
}

#[test]
fn every_injector_ends_in_decision_or_typed_reject() {
    use mandipass::prelude::*;
    use mandipass_imu_sim::{FaultProfile, FaultyRecorder};

    let (auth, user, recorder) = enrolled_authenticator();
    let policy = VerifyPolicy::default();
    let profiles = [
        FaultProfile::clean(),
        FaultProfile::dropout(0.9),
        FaultProfile::stuck_gyro(1.0),
        FaultProfile::clipping(1.0),
        FaultProfile::non_finite(0.5),
        FaultProfile::truncate(0.95),
        FaultProfile::gain_drift(2.0),
    ];
    for profile in profiles {
        let name = profile.name.clone();
        let faulty = FaultyRecorder::new(recorder.clone(), profile);
        let probes: Vec<_> = (0..policy.max_attempts as u64)
            .map(|a| faulty.record(&user, Condition::Normal, 0xfa17 ^ (a << 8)))
            .collect();
        // Every injector must end in a decision or a typed rejection —
        // never a panic, never a reasonless error.
        match auth.verify_with_policy(user.id, &probes, &policy) {
            Ok(decision) => {
                assert!(
                    (1..=policy.max_attempts).contains(&decision.attempts),
                    "{name}: attempts {} out of range",
                    decision.attempts
                );
            }
            Err(MandiPassError::RetriesExhausted { attempts, reasons }) => {
                assert_eq!(
                    attempts,
                    reasons.len(),
                    "{name}: one reason per attempt, got {reasons:?}"
                );
                assert!(
                    reasons
                        .iter()
                        .all(|r| matches!(r.split_once(':'), Some((_, l)) if !l.is_empty())),
                    "{name}: untyped reject in {reasons:?}"
                );
            }
            Err(e) => panic!("{name}: unexpected error {e}"),
        }
    }
}

#[test]
fn clean_probe_verifies_on_first_attempt() {
    use mandipass::prelude::*;

    let (auth, user, recorder) = enrolled_authenticator();
    let probe = recorder.record(&user, Condition::Normal, 0xc1ea);
    let decision = auth
        .verify_with_policy(user.id, &[probe], &VerifyPolicy::default())
        .expect("clean probe reaches a decision");
    assert_eq!(decision.attempts, 1);
    assert!(!decision.degraded);
    assert!(decision.rejects.is_empty());
    assert!(decision.outcome.accepted, "genuine clean probe rejected");
}

#[test]
fn non_finite_probes_never_silently_accept() {
    use mandipass::prelude::*;
    use mandipass_imu_sim::{FaultProfile, FaultyRecorder};

    let (auth, user, recorder) = enrolled_authenticator();
    let before = mandipass_telemetry::metrics()
        .counter("quality.reject.non_finite")
        .get();
    let faulty = FaultyRecorder::new(recorder, FaultProfile::non_finite(0.5));
    let probes: Vec<_> = (0..3u64)
        .map(|a| faulty.record(&user, Condition::Normal, 0x4a4 ^ (a << 8)))
        .collect();
    let err = auth
        .verify_with_policy(user.id, &probes, &VerifyPolicy::default())
        .expect_err("NaN-laced probes must not verify");
    let MandiPassError::RetriesExhausted { attempts, reasons } = err else {
        panic!("expected RetriesExhausted, got {err}");
    };
    assert_eq!(attempts, 3);
    assert!(
        reasons.iter().all(|r| r.contains("non_finite")),
        "reasons must carry the non_finite label: {reasons:?}"
    );
    // The rejections are visible in the per-reason telemetry counter…
    let after = mandipass_telemetry::metrics()
        .counter("quality.reject.non_finite")
        .get();
    assert!(after >= before + 3, "counter {before} -> {after}");
    // …and in the enclave audit trail, with the same typed reason.
    let audited = auth
        .enclave()
        .audit_events_for(user.id)
        .iter()
        .filter(|e| e.reason == Some("non_finite"))
        .count();
    assert!(audited >= 3, "only {audited} typed audit events");
}

#[test]
fn dead_gyro_falls_back_to_degraded_verification() {
    use mandipass::prelude::*;
    use mandipass_imu_sim::{FaultProfile, FaultyRecorder};

    let (auth, user, recorder) = enrolled_authenticator();
    let faulty = FaultyRecorder::new(recorder, FaultProfile::stuck_gyro(1.0));
    let probes: Vec<_> = (0..3u64)
        .map(|a| faulty.record(&user, Condition::Normal, 0xde6 ^ (a << 8)))
        .collect();
    let decision = auth
        .verify_with_policy(user.id, &probes, &VerifyPolicy::default())
        .expect("gyro-dead probes still reach a decision");
    assert!(decision.degraded, "dead gyro must take the degraded path");
    assert!(
        decision.outcome.accepted,
        "genuine user rejected in degraded mode (distance {:.3} vs {:.3})",
        decision.outcome.distance, decision.outcome.threshold
    );
    // The tightened threshold and the audit record are observable.
    let audit = auth.enclave().audit_events_for(user.id);
    assert!(
        audit
            .iter()
            .any(|e| e.kind == mandipass::prelude::AuditKind::DegradedVerify),
        "no degraded_verify audit event"
    );
}

#[test]
fn truncated_capture_is_rejected_as_too_short() {
    use mandipass::prelude::*;
    use mandipass_imu_sim::{FaultProfile, FaultyRecorder};

    let (auth, user, recorder) = enrolled_authenticator();
    let faulty = FaultyRecorder::new(recorder, FaultProfile::truncate(0.95));
    let probe = faulty.record(&user, Condition::Normal, 0x7c8);
    let err = auth
        .verify_with_policy(user.id, &[probe], &VerifyPolicy::default())
        .expect_err("a 95%-truncated capture must not verify");
    let MandiPassError::RetriesExhausted { reasons, .. } = err else {
        panic!("expected RetriesExhausted, got {err}");
    };
    assert!(
        reasons.iter().any(|r| r.contains("too_short")),
        "expected too_short in {reasons:?}"
    );
}
