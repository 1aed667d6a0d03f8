//! Live monitoring: watch a deployed MandiPass authenticator drift from
//! Healthy to Alarm as its earphone hardware degrades.
//!
//! ```text
//! cargo run --release --example monitor
//! MANDIPASS_TELEMETRY_DETERMINISTIC=1 cargo run --release --example monitor   # bit-stable output
//! MANDIPASS_MONITOR_ADDR=127.0.0.1:9646 cargo run --release --example monitor # + live endpoints
//! ```
//!
//! The demo enrols a small cohort, calibrates the score-drift baseline
//! on clean genuine traffic, then streams increasingly faulty probes
//! (gain drift + sample dropout, an ageing flaky earphone) through the
//! verification policy while printing the evolving health verdict.
//! With `MANDIPASS_MONITOR_ADDR` set, the same state is live on
//! `GET /metrics` (Prometheus text), `/health` and `/flight` (JSON)
//! for the duration of the run.

use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, FaultProfile, FaultyRecorder, Population, Recorder};
use mandipass_telemetry::{monitor, render_prometheus};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // User 0 plays the deployed user; users 1.. are the VSP's hired
    // training cohort (they never meet the deployed device).
    let population = Population::generate(24, 42);
    let recorder = Recorder::default();

    println!("== VSP training (offline, once per product) ==");
    let trainer = VspTrainer::new(TrainingConfig::example_demo());
    let extractor = trainer.train(&population.users()[1..], &recorder)?;

    // This example observes the process-wide monitor — the same one the
    // default MandiPass construction feeds and serve_from_env exposes.
    let monitor = monitor();
    let _server = mandipass_telemetry::serve_from_env();
    if let Ok(addr) = std::env::var(mandipass_telemetry::MONITOR_ADDR_ENV) {
        println!("monitor endpoints live on http://{addr}/metrics /health /flight");
    }

    let mut mandipass = MandiPass::new(extractor, PipelineConfig::default());
    let user = &population.users()[0];
    let matrix = GaussianMatrix::generate(7, mandipass.embedding_dim());

    println!("\n== Registration ==");
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(user, Condition::Normal, 100 + s))
        .collect();
    mandipass.enroll(user.id, &enrolment, &matrix)?;

    // Calibration: a working threshold for the tiny demo, and a frozen
    // drift baseline taken from live genuine probe distances (enrolment
    // froze the prints-vs-template distribution, which sits tighter to
    // the template than any fresh probe — re-freezing on real traffic
    // is the operational post-enrolment step).
    let mut genuine = Vec::new();
    let mut impostor = Vec::new();
    for s in 0..20 {
        let probe = recorder.record(user, Condition::Normal, 200 + s);
        genuine.push(mandipass.verify(user.id, &probe)?.distance);
        let other = &population.users()[1];
        let probe = recorder.record(other, Condition::Normal, 300 + s);
        impostor.push(mandipass.verify(user.id, &probe)?.distance);
    }
    let g_max = genuine.iter().cloned().fold(f64::MIN, f64::max);
    let i_min = impostor.iter().cloned().fold(f64::MAX, f64::min);
    mandipass.config_mut().threshold = (g_max + i_min) / 2.0;
    monitor.extend_baseline(&genuine);
    monitor.freeze_baseline();
    monitor.reset_windows();
    println!(
        "calibrated threshold {:.3}; drift baseline frozen on {} genuine distances",
        mandipass.config().threshold,
        genuine.len()
    );

    // Phase 1 — a healthy device: clean genuine traffic.
    println!("\n== Phase 1: clean traffic ==");
    let policy = VerifyPolicy::default();
    for s in 0..12 {
        let probe = recorder.record(user, Condition::Normal, 400 + s);
        let _ = mandipass.verify_with_policy(user.id, &[probe], &policy);
    }
    let health = monitor.health();
    println!(
        "health: {} ({} decisions, PSI {:.3})",
        health.status.label(),
        health.decisions,
        monitor.psi()
    );

    // Phase 2 — the earphone ages: gain drift and sample dropout grow
    // together; watch the verdict flip as the ramp steepens.
    println!("\n== Phase 2: hardware degradation ramp ==");
    for &intensity in &[0.25, 0.5, 0.75, 1.0] {
        let faulty =
            FaultyRecorder::new(recorder.clone(), FaultProfile::degradation_ramp(intensity));
        for t in 0..4u64 {
            let probes: Vec<_> = (0..policy.max_attempts as u64)
                .map(|a| {
                    faulty.record(
                        user,
                        Condition::Normal,
                        (500 + ((intensity * 100.0) as u64) + (t << 8)) ^ (a << 48),
                    )
                })
                .collect();
            let _ = mandipass.verify_with_policy(user.id, &probes, &policy);
        }
        let health = monitor.health();
        let reasons: Vec<&str> = health.reasons().iter().map(|r| r.signal.label()).collect();
        println!(
            "intensity {intensity:.2}: health {} (PSI {:.3}{}{})",
            health.status.label(),
            monitor.psi(),
            if reasons.is_empty() { "" } else { "; " },
            reasons.join(", ")
        );
    }

    // The flight recorder kept the failed verifications for post-mortem
    // (the /flight endpoint serves the same ring).
    let flights = monitor.flights();
    println!("\n== Flight recorder ==");
    println!("{} flights retained; most recent:", flights.len());
    if let Some(last) = flights.last() {
        println!("{}", last.to_json().to_json());
    }

    println!("\n== Prometheus exposition (/metrics) ==");
    print!("{}", render_prometheus(&monitor.snapshot()));
    Ok(())
}
