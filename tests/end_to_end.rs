//! Cross-crate integration: the full registration/verification lifecycle
//! built from the simulator, DSP, CNN, template, and enclave layers.

use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, Population, Recorder};
use std::sync::OnceLock;

struct Fixture {
    population: Population,
    recorder: Recorder,
}

/// Trains once per test binary; tests clone the extractor weights by
/// retraining deterministically (cheap at this scale).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture {
        population: Population::generate(8, 4242),
        recorder: Recorder::default(),
    })
}

fn trained_system() -> MandiPass {
    let f = fixture();
    let trainer = VspTrainer::new(TrainingConfig {
        seconds_per_person: 4.0,
        epochs: 6,
        ..TrainingConfig::fast_demo()
    });
    let extractor = trainer
        .train(&f.population.users()[2..], &f.recorder)
        .expect("training succeeds");
    MandiPass::new(extractor, PipelineConfig::default())
}

#[test]
fn lifecycle_enrol_verify_revoke() {
    let f = fixture();
    let mut system = trained_system();
    let user = &f.population.users()[0];
    let matrix = GaussianMatrix::generate(1, system.embedding_dim());

    // Enrol.
    let enrolment: Vec<_> = (0..4)
        .map(|s| f.recorder.record(user, Condition::Normal, 9000 + s))
        .collect();
    system
        .enroll(user.id, &enrolment, &matrix)
        .expect("enrolment succeeds");
    assert!(system.enclave().contains(user.id));

    // Verify: genuine distances must sit below impostor distances.
    let genuine: Vec<f64> = (0..6)
        .map(|s| {
            let probe = f.recorder.record(user, Condition::Normal, 9100 + s);
            system.verify(user.id, &probe).expect("verifies").distance
        })
        .collect();
    let impostor: Vec<f64> = (0..6)
        .map(|s| {
            let probe = f
                .recorder
                .record(&f.population.users()[1], Condition::Normal, 9200 + s);
            system.verify(user.id, &probe).expect("verifies").distance
        })
        .collect();
    let g_mean = genuine.iter().sum::<f64>() / genuine.len() as f64;
    let i_mean = impostor.iter().sum::<f64>() / impostor.len() as f64;
    assert!(
        g_mean < i_mean,
        "genuine {g_mean:.3} !< impostor {i_mean:.3}"
    );

    // Revoke: the template disappears and verification errors.
    let stolen = system.revoke(user.id).expect("template existed");
    assert!(stolen.storage_bytes() > 0);
    let probe = f.recorder.record(user, Condition::Normal, 9300);
    assert!(matches!(
        system.verify(user.id, &probe),
        Err(MandiPassError::NotEnrolled { .. })
    ));
}

#[test]
fn cancelable_templates_break_across_matrices() {
    let f = fixture();
    let mut system = trained_system();
    let user = &f.population.users()[0];
    let old_matrix = GaussianMatrix::generate(10, system.embedding_dim());
    let enrolment: Vec<_> = (0..4)
        .map(|s| f.recorder.record(user, Condition::Normal, 9400 + s))
        .collect();
    system
        .enroll(user.id, &enrolment, &old_matrix)
        .expect("enrolment succeeds");

    // Steal, revoke, re-enrol under a new matrix.
    let stolen = system.enclave().load(user.id).expect("template exists");
    system.revoke(user.id);
    let new_matrix = GaussianMatrix::generate(11, system.embedding_dim());
    system
        .enroll(user.id, &enrolment, &new_matrix)
        .expect("re-enrolment succeeds");

    let replay = system
        .verify_cancelable(user.id, &stolen)
        .expect("comparison runs");
    assert!(
        !replay.accepted,
        "stolen template still verified after revocation (distance {})",
        replay.distance
    );

    // The genuine user remains verifiable under the new matrix.
    let probe = f.recorder.record(user, Condition::Normal, 9500);
    let genuine = system.verify(user.id, &probe).expect("verifies");
    assert!(genuine.distance < replay.distance);
}

#[test]
fn deterministic_pipeline_same_seed_same_outcome() {
    let f = fixture();
    let mut a = trained_system();
    let mut b = trained_system();
    let user = &f.population.users()[0];
    let matrix = GaussianMatrix::generate(3, a.embedding_dim());
    let enrolment: Vec<_> = (0..3)
        .map(|s| f.recorder.record(user, Condition::Normal, 9600 + s))
        .collect();
    a.enroll(user.id, &enrolment, &matrix).expect("enrol a");
    b.enroll(user.id, &enrolment, &matrix).expect("enrol b");
    let probe = f.recorder.record(user, Condition::Normal, 9700);
    let oa = a.verify(user.id, &probe).expect("verify a");
    let ob = b.verify(user.id, &probe).expect("verify b");
    assert_eq!(oa, ob);
}

#[test]
fn model_serialisation_survives_deployment() {
    use mandipass_nn::serialize::{load_params, save_params};

    let f = fixture();
    let trainer = VspTrainer::new(TrainingConfig {
        seconds_per_person: 3.0,
        epochs: 3,
        ..TrainingConfig::fast_demo()
    });
    let mut trained = trainer
        .train(&f.population.users()[2..], &f.recorder)
        .expect("training succeeds");
    let blob = save_params(&mut trained);

    // A factory-fresh earphone loads the shipped weights.
    let mut shipped = BiometricExtractor::new(ExtractorConfig {
        axes: 6,
        half_n: 30,
        channels: [4, 8, 8],
        embedding_dim: 64,
        classes: 6,
        seed: 999, // different init — must be fully overwritten
        two_branch: true,
    })
    .expect("valid architecture");
    load_params(&mut shipped, &blob).expect("weights load");

    let probe = f
        .recorder
        .record(&f.population.users()[0], Condition::Normal, 9800);
    let sys_a = MandiPass::new(trained, PipelineConfig::default());
    let sys_b = MandiPass::new(shipped, PipelineConfig::default());
    let pa = sys_a.extract_print(&probe).expect("extracts");
    let pb = sys_b.extract_print(&probe).expect("extracts");
    assert_eq!(pa.as_slice(), pb.as_slice());
}
