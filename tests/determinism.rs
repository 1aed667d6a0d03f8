//! Cross-run determinism: the hermetic build ships its own PRNG, so two
//! fresh processes (here: two fresh same-seed constructions) must agree
//! bit for bit. This is what makes the offline CI gate meaningful — a
//! metric regression is a code change, never run-to-run noise.

use mandipass::prelude::*;
use mandipass_bench::{EvalScale, TrainedStack};
use mandipass_imu_sim::{Condition, Population, Recorder};

/// Builds a complete trained system from nothing but seeds, exactly the
/// way a fresh process would.
fn fresh_system() -> (Population, Recorder, MandiPass) {
    let population = Population::generate(8, 4242);
    let recorder = Recorder::default();
    let trainer = VspTrainer::new(TrainingConfig {
        seconds_per_person: 4.0,
        epochs: 6,
        ..TrainingConfig::fast_demo()
    });
    let extractor = trainer
        .train(&population.users()[2..], &recorder)
        .expect("training succeeds");
    let system = MandiPass::new(extractor, PipelineConfig::default());
    (population, recorder, system)
}

#[test]
fn same_seed_recordings_are_bit_identical_across_runs() {
    let pop_a = Population::generate(8, 4242);
    let pop_b = Population::generate(8, 4242);
    let rec_a = Recorder::default();
    let rec_b = Recorder::default();
    for (ua, ub) in pop_a.users().iter().zip(pop_b.users()) {
        let a = rec_a.record(ua, Condition::Normal, 77);
        let b = rec_b.record(ub, Condition::Normal, 77);
        assert_eq!(a.len(), b.len());
        for (axis_a, axis_b) in a.axes().iter().zip(b.axes()) {
            for (va, vb) in axis_a.iter().zip(axis_b) {
                assert_eq!(va.to_bits(), vb.to_bits(), "raw IMU streams diverged");
            }
        }
    }
}

#[test]
fn same_seed_runs_produce_bit_identical_mandibleprints() {
    let (pop_a, rec_a, sys_a) = fresh_system();
    let (pop_b, rec_b, sys_b) = fresh_system();
    for (ua, ub) in pop_a.users().iter().take(3).zip(pop_b.users()) {
        for seed in [11u64, 12, 13] {
            let print_a = sys_a
                .extract_print(&rec_a.record(ua, Condition::Normal, seed))
                .expect("extracts");
            let print_b = sys_b
                .extract_print(&rec_b.record(ub, Condition::Normal, seed))
                .expect("extracts");
            assert_eq!(print_a.dim(), print_b.dim());
            for (va, vb) in print_a.as_slice().iter().zip(print_b.as_slice()) {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "MandiblePrints diverged for user {} seed {seed}",
                    ua.id
                );
            }
        }
    }
}

/// The telemetry integration half of the determinism story: with the
/// logical clock active, two fresh same-seed systems must emit
/// bit-identical verify and single-probe policy span trees *and*
/// identical enclave audit trails.
#[test]
fn same_seed_verify_emits_bit_identical_span_tree_and_audit_trail() {
    mandipass_telemetry::set_deterministic(true);
    let run = || {
        let (pop, rec, mut sys) = fresh_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(9, sys.embedding_dim());
        let enrolment: Vec<_> = (0..3)
            .map(|s| rec.record(user, Condition::Normal, 8000 + s))
            .collect();
        sys.enroll(user.id, &enrolment, &matrix).expect("enrols");
        let probe = rec.record(user, Condition::Normal, 8100);
        let (outcome, tree) = mandipass_telemetry::capture(|| sys.verify(user.id, &probe));
        outcome.expect("verifies");
        // The tree must cover the whole §III pipeline.
        for stage in [
            "verify",
            "enclave_load",
            "extract_print",
            "preprocess",
            "gradient_array",
            "cnn_forward",
            "template_transform",
            "similarity",
        ] {
            assert!(tree.count(stage) > 0, "span tree misses stage {stage}");
        }
        // A single-probe policy request takes the same walk as a
        // multi-probe one: assess the probe, then run the whole `verify`
        // pipeline under the walk. Its shape is pinned here.
        let retry = rec.record(user, Condition::Normal, 8101);
        let (decision, policy_tree) = mandipass_telemetry::capture(|| {
            sys.verify_with_policy(user.id, &[retry], &VerifyPolicy::default())
        });
        decision.expect("decides");
        for stage in [
            "verify_with_policy",
            "quality_assess",
            "extract_print",
            "preprocess",
            "gradient_array",
            "cnn_forward",
            "verify",
            "enclave_load",
            "template_transform",
            "similarity",
        ] {
            assert!(
                policy_tree.count(stage) > 0,
                "policy span tree misses stage {stage}"
            );
        }
        let walk: Vec<&str> = policy_tree
            .spans()
            .iter()
            .filter(|s| s.depth == 2)
            .map(|s| s.name)
            .collect();
        assert_eq!(
            walk,
            ["enclave_load", "quality_assess", "verify"],
            "policy walk stages moved"
        );
        (
            tree.to_json().to_json(),
            policy_tree.to_json().to_json(),
            sys.enclave().audit_trail(),
        )
    };
    let (tree_a, policy_a, trail_a) = run();
    let (tree_b, policy_b, trail_b) = run();
    mandipass_telemetry::set_deterministic(false);

    assert_eq!(tree_a, tree_b, "span trees diverged across same-seed runs");
    assert_eq!(
        policy_a, policy_b,
        "policy span trees diverged across same-seed runs"
    );
    assert!(!trail_a.is_empty());
    assert_eq!(trail_a.len(), trail_b.len(), "audit trail lengths diverged");
    for (a, b) in trail_a.iter().zip(&trail_b) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.user_id, b.user_id);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.distance.map(f64::to_bits),
            b.distance.map(f64::to_bits),
            "audit distances diverged"
        );
    }
}

/// A gyro-faulted policy verify decides in degraded accelerometer-only
/// mode, and that decision is made inside one `similarity` span under
/// `verify_degraded`, like every other decision. The distance and the
/// decision are pinned bit for bit.
#[test]
fn degraded_policy_verify_decides_inside_one_similarity_span() {
    use mandipass_imu_sim::{FaultProfile, FaultyRecorder};

    mandipass_telemetry::set_deterministic(true);
    let (pop, rec, mut sys) = fresh_system();
    let user = &pop.users()[0];
    let matrix = GaussianMatrix::generate(9, sys.embedding_dim());
    let enrolment: Vec<_> = (0..3)
        .map(|s| rec.record(user, Condition::Normal, 8000 + s))
        .collect();
    sys.enroll(user.id, &enrolment, &matrix).expect("enrols");
    let faulty = FaultyRecorder::new(rec, FaultProfile::stuck_gyro(1.0));
    let probe = faulty.record(user, Condition::Normal, 8200);
    let (decision, tree) = mandipass_telemetry::capture(|| {
        sys.verify_with_policy(user.id, &[probe], &VerifyPolicy::default())
    });
    mandipass_telemetry::set_deterministic(false);
    let decision = decision.expect("decides");
    assert!(decision.degraded, "a dead gyro must take the degraded path");
    assert_eq!(decision.outcome.distance.to_bits(), 0x3fa1_f5ab_7b37_c950);
    assert!(decision.outcome.accepted);
    let spans = tree.spans();
    let similarity: Vec<_> = spans.iter().filter(|s| s.name == "similarity").collect();
    assert_eq!(similarity.len(), 1, "one decision, one similarity span");
    let parent = similarity[0].parent.map(|p| spans[p].name);
    assert_eq!(parent, Some("verify_degraded"));
}

#[test]
fn same_seed_evaluations_land_on_the_same_eer_point() {
    let mut stack_a = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let mut stack_b = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let eval_a = stack_a.main_evaluation();
    let eval_b = stack_b.main_evaluation();

    assert_eq!(eval_a.scores.genuine.len(), eval_b.scores.genuine.len());
    assert_eq!(eval_a.scores.impostor.len(), eval_b.scores.impostor.len());
    for (a, b) in eval_a.scores.genuine.iter().zip(&eval_b.scores.genuine) {
        assert_eq!(a.to_bits(), b.to_bits(), "genuine score streams diverged");
    }
    for (a, b) in eval_a.scores.impostor.iter().zip(&eval_b.scores.impostor) {
        assert_eq!(a.to_bits(), b.to_bits(), "impostor score streams diverged");
    }
    assert_eq!(
        eval_a.eer_point.eer.to_bits(),
        eval_b.eer_point.eer.to_bits()
    );
    assert_eq!(
        eval_a.eer_point.threshold.to_bits(),
        eval_b.eer_point.threshold.to_bits()
    );
}
