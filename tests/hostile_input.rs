//! Property tests over hostile sensor input: NaN/Inf bursts, huge
//! magnitudes and arbitrary lengths must produce typed errors or clean
//! rejections — never a panic — anywhere in the pipeline.

use mandipass::prelude::*;
use mandipass::preprocess::preprocess;
use mandipass::quality;
use mandipass_imu_sim::recorder::Recording;
use mandipass_imu_sim::Condition;
use mandipass_util::proptest::prelude::*;

/// Deterministically laces a finite sample stream with NaN, ±Inf and
/// ±huge values, keyed off each value's own bit pattern and a per-axis
/// salt so every axis gets a different corruption pattern.
fn hostile(values: &[f64], salt: u64) -> Vec<f64> {
    values
        .iter()
        .map(|&x| match (x.to_bits() ^ salt) % 11 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => x * 1e300,
            4 => -x * 1e300,
            5 => f64::MIN_POSITIVE * x.signum(),
            _ => x,
        })
        .collect()
}

/// Builds a six-axis recording from one generated track, corrupting each
/// axis with a different salt. Shape is always valid (six equal-length
/// non-empty tracks); the *values* are arbitrary garbage.
fn hostile_recording(values: &[f64]) -> Recording {
    let axes: Vec<Vec<f64>> = (0..6).map(|a| hostile(values, a * 0x9e37)).collect();
    Recording::from_parts(350.0, axes, Condition::Normal, 0).expect("shape is valid")
}

fn untrained_authenticator() -> MandiPass {
    let extractor = BiometricExtractor::new(ExtractorConfig::tiny(2)).expect("tiny config");
    MandiPass::new(extractor, PipelineConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn preprocess_never_panics_on_hostile_input(
        values in proptest::collection::vec(-1e6f64..1e6, 1..400),
    ) {
        let rec = hostile_recording(&values);
        // Ok or a typed error — the property is the absence of a panic.
        if let Ok(array) = preprocess(&rec, &PipelineConfig::default()) {
            for axis in array.iter() {
                prop_assert!(
                    axis.iter().all(|v| v.is_finite()),
                    "preprocess let a non-finite value through"
                );
            }
        }
    }

    #[test]
    fn extract_print_never_panics_on_hostile_input(
        values in proptest::collection::vec(-1e6f64..1e6, 1..400),
    ) {
        let auth = untrained_authenticator();
        let rec = hostile_recording(&values);
        if let Ok(print) = auth.extract_print(&rec) {
            prop_assert_eq!(print.dim(), 32);
            prop_assert!(print.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn quality_gate_flags_every_nonfinite_recording(
        values in proptest::collection::vec(-1e6f64..1e6, 1..400),
    ) {
        let rec = hostile_recording(&values);
        let has_nonfinite = rec
            .axes()
            .iter()
            .any(|axis| axis.iter().any(|v| !v.is_finite()));
        let report = quality::assess(&rec, &QualityConfig::default());
        if has_nonfinite {
            prop_assert!(
                report.reasons.iter().any(|r| matches!(r, RejectReason::NonFinite)),
                "non-finite samples must be flagged: {:?}",
                report.reasons
            );
            prop_assert!(!report.ok());
        }
    }

    #[test]
    fn verify_with_policy_never_panics_on_hostile_probes(
        values in proptest::collection::vec(-1e6f64..1e6, 1..400),
    ) {
        let auth = untrained_authenticator();
        let rec = hostile_recording(&values);
        // Nobody is enrolled: the policy must fail fast with NotEnrolled
        // regardless of how hostile the probe is.
        let err = auth
            .verify_with_policy(9, &[rec], &VerifyPolicy::default())
            .expect_err("no template stored");
        prop_assert!(matches!(err, MandiPassError::NotEnrolled { user_id: 9 }));
    }
}

#[test]
fn malformed_shapes_are_typed_errors() {
    // Ragged, empty and wrong-arity axis sets are rejected at
    // construction with a typed reason — the pipeline never sees them.
    let ragged = vec![
        vec![0.0; 10],
        vec![0.0; 9],
        vec![0.0; 10],
        vec![0.0; 10],
        vec![0.0; 10],
        vec![0.0; 10],
    ];
    assert!(Recording::from_parts(350.0, ragged, Condition::Normal, 0).is_err());
    let five = vec![vec![0.0; 10]; 5];
    assert!(Recording::from_parts(350.0, five, Condition::Normal, 0).is_err());
    let empty = vec![Vec::new(); 6];
    assert!(Recording::from_parts(350.0, empty, Condition::Normal, 0).is_err());
    let bad_rate = vec![vec![0.0; 10]; 6];
    assert!(Recording::from_parts(f64::NAN, bad_rate, Condition::Normal, 0).is_err());
}
