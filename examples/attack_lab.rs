//! Attack laboratory: the four §VI attack models against one deployment.
//!
//! ```text
//! cargo run --release --example attack_lab
//! ```
//!
//! * zero-effort — the thief does not know a hum is required,
//! * vibration-aware — the thief hums with their own mandible,
//! * impersonation — the thief mimics the victim's voicing manner,
//! * replay — the thief exhibits a stolen cancelable template.

use mandipass::attack::{impersonation_probe, vibration_aware_probe, zero_effort_probe};
use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, Population, Recorder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population = Population::generate(24, 77);
    let recorder = Recorder::default();
    let trainer = VspTrainer::new(TrainingConfig::example_demo());
    let extractor = trainer.train(&population.users()[2..], &recorder)?;
    let mut mandipass = MandiPass::new(extractor, PipelineConfig::default());

    let victim = &population.users()[0];
    let attacker = &population.users()[1];
    let matrix = GaussianMatrix::generate(5, mandipass.embedding_dim());
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(victim, Condition::Normal, 700 + s))
        .collect();
    mandipass.enroll(victim.id, &enrolment, &matrix)?;

    // Calibrate a demo threshold.
    let mut genuine = Vec::new();
    for s in 0..6 {
        let probe = recorder.record(victim, Condition::Normal, 800 + s);
        genuine.push(mandipass.verify(victim.id, &probe)?.distance);
    }
    let g_max = genuine.iter().cloned().fold(f64::MIN, f64::max);
    mandipass.config_mut().threshold = g_max * 1.3;
    println!(
        "threshold {:.3} (worst genuine distance {g_max:.3})\n",
        mandipass.config().threshold
    );

    println!("== zero-effort attack ==");
    let mut detected = 0;
    for s in 0..10 {
        let probe = zero_effort_probe(attacker, &recorder, s);
        if mandipass.verify(victim.id, &probe).is_ok() {
            detected += 1;
        }
    }
    println!("{detected}/10 silent probes even produced a detectable vibration (expect 0)\n");

    println!("== vibration-aware attack ==");
    let mut accepted = 0;
    for s in 0..10 {
        let probe = vibration_aware_probe(attacker, &recorder, 900 + s);
        if mandipass.verify(victim.id, &probe)?.accepted {
            accepted += 1;
        }
    }
    println!("{accepted}/10 own-hum probes accepted (expect ~0)\n");

    println!("== impersonation attack ==");
    let mut accepted = 0;
    let mut best = f64::MAX;
    for s in 0..10 {
        let probe = impersonation_probe(attacker, victim, &recorder, 1000 + s);
        let outcome = mandipass.verify(victim.id, &probe)?;
        best = best.min(outcome.distance);
        if outcome.accepted {
            accepted += 1;
        }
    }
    println!("{accepted}/10 mimicry probes accepted; best distance {best:.3} (mimicking the voice does not mimic the mandible)\n");

    println!("== replay attack ==");
    let stolen = mandipass.enclave().load(victim.id)?;
    mandipass.revoke(victim.id);
    let fresh = GaussianMatrix::generate(6, mandipass.embedding_dim());
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(victim, Condition::Normal, 1100 + s))
        .collect();
    mandipass.enroll(victim.id, &enrolment, &fresh)?;
    let outcome = mandipass.verify_cancelable(victim.id, &stolen)?;
    println!(
        "stolen template after revocation: distance {:.3} → {}",
        outcome.distance,
        if outcome.accepted {
            "ACCEPTED (!)"
        } else {
            "rejected"
        }
    );
    Ok(())
}
