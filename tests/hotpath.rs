//! Cross-crate integration tests for the zero-alloc inference fast
//! path: parity between the deployed im2col+GEMM path and the naive
//! tensor-per-layer oracle on a *trained* extractor, batch invariance,
//! conv+BN fusion tolerance, scratch-arena steady state, and
//! equivalence of the policy walk, at every probe count, with direct
//! single-probe verification.

use mandipass::extractor::{arena_stats, reset_arena_growth};
use mandipass::gradient_array::GradientArray;
use mandipass::prelude::*;
use mandipass::preprocess::preprocess;
use mandipass_bench::{EvalScale, TrainedStack};
use mandipass_imu_sim::{Condition, Recording, UserProfile};

fn assert_bitwise(a: &MandiblePrint, b: &MandiblePrint, what: &str) {
    assert_eq!(a.dim(), b.dim(), "{what}: dimensions diverged");
    for (i, (va, vb)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: element {i} diverged");
    }
}

fn grads_for(stack: &TrainedStack, user: &UserProfile, n: u64) -> Vec<GradientArray> {
    let config = PipelineConfig::default();
    (0..n)
        .map(|s| {
            let rec = stack.recorder.record(user, Condition::Normal, 0xf00d ^ s);
            let arr = preprocess(&rec, &config).expect("probe preprocesses");
            GradientArray::from_signal_array(&arr, config.half_n()).expect("probe gradients")
        })
        .collect()
}

#[test]
fn trained_fast_path_matches_naive_oracle_bit_for_bit() {
    let mut stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.held_out_users()[0].clone();
    let grads = grads_for(&stack, &user, 3);
    let refs: Vec<&GradientArray> = grads.iter().collect();
    let naive = stack
        .extractor
        .extract_naive(&refs)
        .expect("naive extracts");
    let fast = stack.extractor.extract(&refs).expect("fast extracts");
    assert_eq!(naive.len(), fast.len());
    for (i, (n, f)) in naive.iter().zip(&fast).enumerate() {
        assert_bitwise(n, f, &format!("probe {i} fast vs naive"));
    }
}

#[test]
fn batched_extraction_is_invariant_to_batch_size() {
    let stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.held_out_users()[0].clone();
    let grads = grads_for(&stack, &user, 3);
    let refs: Vec<&GradientArray> = grads.iter().collect();
    let batched = stack.extractor.extract(&refs).expect("batch extracts");
    for (i, grad) in grads.iter().enumerate() {
        let single = stack.extractor.extract(&[grad]).expect("single extracts");
        assert_bitwise(
            &batched[i],
            &single[0],
            &format!("probe {i} batched vs single"),
        );
    }
}

#[test]
fn fused_deployment_stays_within_tolerance() {
    let mut stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.held_out_users()[0].clone();
    let grads = grads_for(&stack, &user, 2);
    let refs: Vec<&GradientArray> = grads.iter().collect();
    let naive = stack
        .extractor
        .extract_naive(&refs)
        .expect("naive extracts");

    let mut fused = stack.extractor.clone();
    let folded = fused.fuse().expect("fuses");
    assert!(folded > 0, "a trained paper-config network has BN to fold");
    let prints = fused.extract(&refs).expect("fused extracts");
    for (n, f) in naive.iter().zip(&prints) {
        for (va, vb) in n.as_slice().iter().zip(f.as_slice()) {
            assert!(
                (va - vb).abs() <= 1e-6,
                "fused embedding drifted: {va} vs {vb}"
            );
        }
    }
    // Idempotent: a second fuse finds nothing left to fold.
    assert_eq!(fused.fuse().expect("re-fuses"), 0);
}

#[test]
fn arena_reaches_steady_state_across_extractions() {
    let stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.held_out_users()[0].clone();
    let grads = grads_for(&stack, &user, 2);
    let refs: Vec<&GradientArray> = grads.iter().collect();
    // Two warm-up passes size the pool; after that the arena must stop
    // growing — that is the zero-alloc claim at integration level.
    for _ in 0..2 {
        let _ = stack.extractor.extract(&refs).expect("warms");
    }
    reset_arena_growth();
    for _ in 0..4 {
        let _ = stack.extractor.extract(&refs).expect("extracts");
    }
    let stats = arena_stats();
    assert_eq!(
        stats.growth_events, 0,
        "arena grew after warm-up: {stats:?}"
    );
    assert!(stats.high_water_bytes > 0);
}

/// The policy walk must reach the exact decision direct single-probe
/// verification reaches, whatever the probe count: same accept bit, bit-identical
/// distance, and an attempt count that skips only gated probes.
#[test]
fn multi_probe_policy_walk_matches_direct_verification() {
    let stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.population.users()[0].clone();
    let recorder = stack.recorder.clone();
    for threshold in [1.5, 1e-9] {
        // 1.5 accepts any probe (cosine distance < 2), 1e-9 rejects any;
        // both decide on p1, so the two paths must agree bit for bit
        // whichever way the decision goes.
        let config = PipelineConfig {
            threshold,
            ..PipelineConfig::default()
        };
        let mut sys = MandiPass::new(stack.extractor.clone(), config);
        let matrix = GaussianMatrix::generate(7, sys.embedding_dim());
        let enrolment: Vec<Recording> = (0..3u64)
            .map(|s| recorder.record(&user, Condition::Normal, 600 + s))
            .collect();
        sys.enroll(user.id, &enrolment, &matrix).expect("enrols");

        let p1 = recorder.record(&user, Condition::Normal, 901);
        let p2 = recorder.record(&user, Condition::Normal, 902);
        let direct = sys.verify(user.id, &p1).expect("verifies");

        // A non-finite probe fails the quality gate and has no degraded
        // fallback, so it consumes one attempt before p1 decides.
        let gated = Recording::from_parts(
            p1.sample_rate_hz(),
            vec![vec![f64::NAN; p1.len()]; 6],
            p1.condition(),
            p1.user_id(),
        )
        .expect("well-shaped probe");

        let policy = VerifyPolicy::default();
        for (probes, attempts) in [
            (vec![p1.clone(), p2], 1),
            (vec![p1.clone()], 1),
            (vec![gated, p1.clone()], 2),
        ] {
            let multi = sys
                .verify_with_policy(user.id, &probes, &policy)
                .expect("decides");
            assert_eq!(multi.attempts, attempts, "first quality-ok probe decides");
            assert_eq!(multi.outcome.accepted, direct.accepted);
            assert_eq!(
                multi.outcome.distance.to_bits(),
                direct.distance.to_bits(),
                "policy walk over {} probes diverged from direct verification",
                probes.len()
            );
            assert_eq!(multi.rejects.len(), attempts - 1);
            assert!(!multi.degraded);
            assert_eq!(multi.outcome.accepted, threshold > 1.0);
        }
    }
}
