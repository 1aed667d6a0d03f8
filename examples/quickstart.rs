//! Quickstart: train the extractor, enrol a user, verify a probe.
//!
//! ```text
//! cargo run --release --example quickstart
//! MANDIPASS_TELEMETRY=1 cargo run --release --example quickstart   # + span tree & latency JSON
//! ```
//!
//! Mirrors the paper's deployment story: the verification service
//! provider (VSP) trains the biometric extractor on *hired people*; the
//! deployed user never contributes training data — they simply hum "EMM"
//! to enrol and to verify.

use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, Population, Recorder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic cohort: user 0 plays the deployed user; users 1.. are
    // the VSP's hired people.
    let population = Population::generate(24, 42);
    let recorder = Recorder::default();

    println!("== VSP training (offline, once per product) ==");
    let trainer = VspTrainer::new(TrainingConfig::example_demo());
    let extractor = trainer.train(&population.users()[1..], &recorder)?;
    println!("extractor trained on {} hired people", population.len() - 1);

    // Deployment: assemble the system, enrol user 0 with a fresh
    // revocable Gaussian matrix.
    let mut mandipass = MandiPass::new(extractor, PipelineConfig::default());
    let user = &population.users()[0];
    let matrix = GaussianMatrix::generate(7, mandipass.embedding_dim());

    println!("\n== Registration (the user hums 'EMM' a few times) ==");
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(user, Condition::Normal, 100 + s))
        .collect();
    mandipass.enroll(user.id, &enrolment, &matrix)?;
    println!(
        "cancelable template sealed in the enclave ({} bytes)",
        mandipass.enclave().storage_bytes()
    );

    println!("\n== Verification ==");
    // Each verify transforms the probe under the matrix the sealed
    // template names; the caller passes only the user and the probe.
    // Calibrate a working threshold for this tiny demo from a few scores.
    let mut genuine = Vec::new();
    let mut impostor = Vec::new();
    for s in 0..6 {
        let probe = recorder.record(user, Condition::Normal, 200 + s);
        genuine.push(mandipass.verify(user.id, &probe)?.distance);
        let other = &population.users()[1];
        let probe = recorder.record(other, Condition::Normal, 300 + s);
        impostor.push(mandipass.verify(user.id, &probe)?.distance);
    }
    let g_max = genuine.iter().cloned().fold(f64::MIN, f64::max);
    let i_min = impostor.iter().cloned().fold(f64::MAX, f64::min);
    mandipass.config_mut().threshold = (g_max + i_min) / 2.0;
    println!("genuine distances:  {genuine:.3?}");
    println!("impostor distances: {impostor:.3?}");
    println!("calibrated threshold: {:.3}", mandipass.config().threshold);

    let probe = recorder.record(user, Condition::Normal, 999);
    let outcome = mandipass.verify(user.id, &probe)?;
    println!(
        "\nfresh genuine probe: distance {:.3} → {}",
        outcome.distance,
        if outcome.accepted {
            "ACCEPTED"
        } else {
            "rejected"
        }
    );

    let attacker = &population.users()[2];
    let probe = recorder.record(attacker, Condition::Normal, 998);
    let outcome = mandipass.verify(user.id, &probe)?;
    println!(
        "attacker probe:      distance {:.3} → {}",
        outcome.distance,
        if outcome.accepted {
            "ACCEPTED (!)"
        } else {
            "rejected"
        }
    );

    // With MANDIPASS_TELEMETRY=1, capture one more verify and print its
    // span tree + per-stage latency breakdown.
    if mandipass_telemetry::enabled() {
        let probe = recorder.record(user, Condition::Normal, 997);
        let (outcome, tree) = mandipass_telemetry::capture(|| mandipass.verify(user.id, &probe));
        outcome?;
        println!("\n== Telemetry: one verify, per-stage latency ==");
        println!(
            "{}",
            mandipass_telemetry::report::latency_report(&tree).to_json()
        );
        let counts = mandipass.enclave().access_counts();
        println!(
            "enclave audit: {} events retained ({} stores, {} loads)",
            mandipass.enclave().audit_len(),
            counts.stores,
            counts.loads
        );
    }
    Ok(())
}
