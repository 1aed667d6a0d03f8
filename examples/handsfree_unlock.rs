//! Hands-free unlocking scenario from the paper's introduction: the
//! earphone serves as a trusted wearable that authenticates its wearer to
//! a paired device while the user is busy — driving, walking, running,
//! eating — without touching anything.
//!
//! ```text
//! cargo run --release --example handsfree_unlock
//! ```
//!
//! A single enrolment is verified under every daily-life condition the
//! paper evaluates (Figs. 12–14): lollipop, water, walking, running,
//! rotated earphone, high/low tone, and the left ear.

use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, Population, Recorder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population = Population::generate(24, 7);
    let recorder = Recorder::default();

    let trainer = VspTrainer::new(TrainingConfig::example_demo());
    let extractor = trainer.train(&population.users()[1..], &recorder)?;
    let mut mandipass = MandiPass::new(extractor, PipelineConfig::default());

    let driver = &population.users()[0];
    let matrix = GaussianMatrix::generate(99, mandipass.embedding_dim());
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(driver, Condition::Normal, 10 + s))
        .collect();
    mandipass.enroll(driver.id, &enrolment, &matrix)?;

    // Calibrate a demo threshold from a handful of genuine/impostor probes.
    let mut genuine = Vec::new();
    let mut impostor = Vec::new();
    for s in 0..6 {
        let probe = recorder.record(driver, Condition::Normal, 50 + s);
        genuine.push(mandipass.verify(driver.id, &probe)?.distance);
        let probe = recorder.record(&population.users()[1], Condition::Normal, 70 + s);
        impostor.push(mandipass.verify(driver.id, &probe)?.distance);
    }
    let g_max = genuine.iter().cloned().fold(f64::MIN, f64::max);
    let i_min = impostor.iter().cloned().fold(f64::MAX, f64::min);
    mandipass.config_mut().threshold = (g_max + i_min) / 2.0;
    println!(
        "calibrated threshold {:.3} (genuine ≤ {g_max:.3}, impostor ≥ {i_min:.3})\n",
        mandipass.config().threshold
    );

    let scenarios: [(&str, Condition); 9] = [
        ("at a red light (static)", Condition::Normal),
        ("lollipop in mouth", Condition::Lollipop),
        ("sip of water", Condition::Water),
        ("walking to the car", Condition::Walk),
        ("morning run", Condition::Run),
        ("earphone rotated 90°", Condition::Orientation(90)),
        ("tired, low hum", Condition::ToneLow),
        ("excited, high hum", Condition::ToneHigh),
        ("earphone in the left ear", Condition::LeftEar),
    ];

    println!("== hands-free verification across daily life ==");
    for (label, condition) in scenarios {
        let mut accepted = 0;
        let attempts = 5;
        let mut mean = 0.0;
        for s in 0..attempts {
            let probe = recorder.record(driver, condition, 1000 + s);
            let outcome = mandipass.verify(driver.id, &probe)?;
            mean += outcome.distance / f64::from(attempts as u32);
            if outcome.accepted {
                accepted += 1;
            }
        }
        println!("{label:<28} {accepted}/{attempts} unlocked (mean distance {mean:.3})");
    }
    Ok(())
}
