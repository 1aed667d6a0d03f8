//! Integration: the live-monitoring subsystem end to end, offline and
//! deterministic (ISSUE 5 acceptance).
//!
//! One trained deployment bound to a private [`Monitor`]: clean genuine
//! traffic must read `Healthy`; a gain-drift + dropout fault ramp from
//! `imu-sim` must flip the detector to `Degrading`/`Alarm`; the flight
//! recorder (the `/flight` endpoint's backing store) must retain the
//! rejected probes' structured records; and the Prometheus rendition of
//! the same snapshot must pass the exposition lint — all without a
//! socket, through `Monitor::snapshot`.

use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, FaultProfile, FaultyRecorder, Population, Recorder};
use mandipass_telemetry::{render_prometheus, HealthStatus, Monitor};
use mandipass_util::json::Value;

/// A small trained deployment bound to a fresh private monitor.
fn monitored_system() -> (MandiPass, &'static Monitor, Population, Recorder) {
    let pop = Population::generate(6, 77);
    let recorder = Recorder::default();
    let trainer = VspTrainer::new(TrainingConfig {
        seconds_per_person: 4.0,
        epochs: 6,
        ..TrainingConfig::fast_demo()
    });
    let extractor = trainer.train(&pop.users()[2..], &recorder).expect("train");
    let mut system = MandiPass::new(extractor, PipelineConfig::default());
    let monitor: &'static Monitor = Box::leak(Box::new(Monitor::default()));
    system.set_monitor(monitor);
    (system, monitor, pop, recorder)
}

#[test]
fn monitor_flags_fault_ramp_but_stays_healthy_on_clean_traffic() {
    // The acceptance criterion runs the demo under
    // MANDIPASS_TELEMETRY_DETERMINISTIC=1; the API equivalent:
    mandipass_telemetry::set_deterministic(true);
    let (mut system, monitor, pop, recorder) = monitored_system();
    let user = &pop.users()[0];
    let matrix = GaussianMatrix::generate(31, system.embedding_dim());
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(user, Condition::Normal, 9000 + s))
        .collect();
    system.enroll(user.id, &enrolment, &matrix).expect("enroll");

    // Calibrate the drift baseline on fresh genuine traffic (enrolment
    // already froze a print-vs-template baseline; re-freezing replaces
    // it with the live-probe distribution, the operational practice).
    let calibration: Vec<f64> = (0..8)
        .map(|s| {
            let probe = recorder.record(user, Condition::Normal, 9100 + s);
            system
                .verify(user.id, &probe)
                .expect("calibration verify")
                .distance
        })
        .collect();
    monitor.extend_baseline(&calibration);
    monitor.freeze_baseline();
    monitor.reset_windows();

    // Phase 1 — clean genuine traffic reads Healthy.
    let policy = VerifyPolicy::default();
    for s in 0..12 {
        let probe = recorder.record(user, Condition::Normal, 9200 + s);
        let _ = system.verify_with_policy(user.id, &[probe], &policy);
    }
    let clean = monitor.health();
    assert_eq!(
        clean.status,
        HealthStatus::Healthy,
        "clean traffic must be Healthy; signals: {}",
        clean.to_json().to_json()
    );
    assert!(clean.sufficient, "12 decisions exceed min_decisions");

    // Phase 2 — a fresh window under the gain-drift + dropout ramp.
    monitor.reset_windows();
    for (i, &intensity) in [0.5, 0.75, 1.0].iter().enumerate() {
        let faulty =
            FaultyRecorder::new(recorder.clone(), FaultProfile::degradation_ramp(intensity));
        for t in 0..4u64 {
            let seed = 9300 + (i as u64) * 100 + t;
            let probes: Vec<_> = (0..3u64)
                .map(|a| faulty.record(user, Condition::Normal, seed ^ (a << 48)))
                .collect();
            let _ = system.verify_with_policy(user.id, &probes, &policy);
        }
    }
    let ramp = monitor.health();
    assert_ne!(
        ramp.status,
        HealthStatus::Healthy,
        "fault ramp must flag Degrading/Alarm; signals: {}",
        ramp.to_json().to_json()
    );
    assert!(
        !ramp.reasons().is_empty(),
        "a non-Healthy verdict names its signals"
    );

    // The flight recorder retained the rejected probes' records.
    let flights = monitor.flights();
    assert!(!flights.is_empty(), "fault ramp must record flights");
    let snapshot = monitor.snapshot();
    let flight_json = snapshot
        .get("flights")
        .and_then(Value::as_array)
        .expect("snapshot.flights");
    assert_eq!(flight_json.len(), flights.len());
    let has_reject = flight_json.iter().any(|f| {
        matches!(
            f.get("outcome").and_then(Value::as_str),
            Some("rejected") | Some("exhausted") | Some("degraded")
        )
    });
    assert!(has_reject, "flight records carry reject outcomes");
    // Rejected policy attempts attach their quality report as detail.
    let has_quality_detail = flight_json
        .iter()
        .any(|f| f.get("detail").and_then(|d| d.get("quality")).is_some());
    assert!(
        has_quality_detail,
        "at least one flight carries a quality report: {}",
        snapshot.to_json()
    );

    // /health's snapshot equivalent matches the typed report.
    assert_eq!(
        snapshot
            .get("health")
            .and_then(|h| h.get("status"))
            .and_then(Value::as_str),
        Some(ramp.status.label())
    );
    mandipass_telemetry::set_deterministic(false);
}

#[test]
fn prometheus_exposition_of_a_live_system_passes_lint() {
    mandipass_telemetry::set_deterministic(true);
    let (mut system, monitor, pop, recorder) = monitored_system();
    let user = &pop.users()[0];
    let matrix = GaussianMatrix::generate(32, system.embedding_dim());
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(user, Condition::Normal, 9500 + s))
        .collect();
    system.enroll(user.id, &enrolment, &matrix).expect("enroll");
    for s in 0..4 {
        let probe = recorder.record(user, Condition::Normal, 9600 + s);
        let _ = system.verify(user.id, &probe);
    }
    let text = render_prometheus(&monitor.snapshot());
    mandipass_telemetry::set_deterministic(false);

    // The CI lint, in-process: every `# TYPE` family is unique and
    // preceded by a non-empty `# HELP` line, and every sample line's
    // family was typed before it.
    let mut helped = std::collections::BTreeSet::new();
    let mut typed = std::collections::BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut words = rest.split_whitespace();
            let name = words.next().unwrap_or("");
            assert!(words.next().is_some(), "empty HELP text for {name}");
            helped.insert(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            assert!(helped.contains(name), "family {name} without # HELP text");
            assert!(
                typed.insert(name.to_string()),
                "duplicate metric family {name}"
            );
        } else if !line.is_empty() {
            let sample = line.split(['{', ' ']).next().unwrap_or("");
            let known = typed.contains(sample)
                || typed.contains(sample.trim_end_matches("_sum"))
                || typed.contains(sample.trim_end_matches("_count"));
            assert!(known, "sample {sample} before its # TYPE line");
        }
    }
    assert!(text.contains("# TYPE mandipass_health_status gauge"));
    assert!(text.contains("mandipass_window_decisions 4"));
    // The enclave audit feed reached the windowed counters.
    assert!(text.contains("mandipass_window_audit_events{kind=\"load\"}"));
    // The matrix memo shows whether a transform drew or reused.
    for family in [
        "mandipass_template_memo_hits_total counter",
        "mandipass_template_memo_misses_total counter",
        "mandipass_template_memo_bytes gauge",
    ] {
        assert!(text.contains(&format!("# TYPE {family}")), "{family}");
    }
}
