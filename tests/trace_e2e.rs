//! Integration: end-to-end request tracing under concurrency (ISSUE 7).
//!
//! Four client threads drive a four-worker [`VerifyServer`] through
//! [`VerifyClient::call_traced`] — half the requests with caller-chosen
//! trace ids, half letting the client mint one. Every response must echo
//! a trace id, every echoed id must be globally unique, each
//! caller-chosen id must come back verbatim, and each echoed id must
//! locate a committed [`RequestTrace`] in the deployment's monitor whose
//! stage durations sum to within its recorded total. Real sockets, real
//! worker pool — no mocks.

use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, Population, Recorder, Recording};
use mandipass_serve::{Request, Response, ServeConfig, VerifyClient, VerifyServer, VerifyService};
use mandipass_telemetry::{Monitor, MonitorConfig, TraceConfig};

const THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 6;

/// A small trained deployment behind a TCP server: one enrolled user, a
/// private always-sample monitor (the test asserts on *every* id, so the
/// probabilistic filter must not thin the store regardless of the
/// ambient `MANDIPASS_TRACE_SAMPLE`).
fn serve_fixture() -> (
    VerifyServer,
    &'static Monitor,
    u32,
    Recorder,
    mandipass_imu_sim::UserProfile,
) {
    let pop = Population::generate(6, 77);
    let recorder = Recorder::default();
    let trainer = VspTrainer::new(TrainingConfig {
        seconds_per_person: 4.0,
        epochs: 6,
        ..TrainingConfig::fast_demo()
    });
    let extractor = trainer.train(&pop.users()[2..], &recorder).expect("train");
    let mut system = MandiPass::new(extractor, PipelineConfig::default());
    let monitor: &'static Monitor = Box::leak(Box::new(Monitor::new(MonitorConfig {
        trace: TraceConfig {
            capacity: THREADS * REQUESTS_PER_THREAD * 2,
            sample_rate: 1.0,
            ..TraceConfig::default()
        },
    })));
    system.set_monitor(monitor);
    let user = pop.users()[0].clone();
    let matrix = GaussianMatrix::generate(31, system.embedding_dim());
    let mut service = VerifyService::new(system, VerifyPolicy::default());
    let enrolment: Vec<Recording> = (0..4)
        .map(|s| recorder.record(&user, Condition::Normal, 61_900 + s))
        .collect();
    service
        .enroll(user.id, &enrolment, matrix)
        .expect("enroll fixture user");
    let server = VerifyServer::bind(
        std::sync::Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: THREADS,
            ..ServeConfig::default()
        },
    )
    .expect("bind verify server on loopback");
    (server, monitor, user.id, recorder, user)
}

#[test]
fn concurrent_trace_ids_are_unique_echoed_and_recorded() {
    let (mut server, monitor, user_id, recorder, user) = serve_fixture();
    let addr = server.local_addr();

    // Each thread alternates caller-chosen ids with client-minted ones
    // and reports (chosen, echoed) per request.
    let mut per_thread: Vec<Vec<(Option<u64>, Option<u64>)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let recorder = &recorder;
                let user = &user;
                scope.spawn(move || {
                    let mut client = VerifyClient::connect(addr).expect("connect client");
                    (0..REQUESTS_PER_THREAD)
                        .map(|i| {
                            let probe = recorder.record(
                                user,
                                Condition::Normal,
                                62_000 + (t as u64) * 100 + i as u64,
                            );
                            let request = Request::Verify { user_id, probe };
                            let chosen = (i % 2 == 0)
                                .then_some(0xe2e0_0000_0000_0000 | ((t as u64) << 16) | i as u64);
                            let (response, echoed) = client
                                .call_traced(&request, chosen)
                                .unwrap_or_else(|e| panic!("thread {t} request {i}: {e}"));
                            assert!(
                                matches!(response, Response::Decision { .. }),
                                "thread {t} request {i}: expected a decision"
                            );
                            (chosen, echoed)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            per_thread.push(handle.join().expect("client thread panicked"));
        }
    });

    // Every response echoed an id; caller-chosen ids came back verbatim.
    let mut echoed_ids = Vec::new();
    for (t, results) in per_thread.iter().enumerate() {
        for (i, (chosen, echoed)) in results.iter().enumerate() {
            let echoed = echoed
                .unwrap_or_else(|| panic!("thread {t} request {i}: response carried no trace id"));
            if let Some(chosen) = chosen {
                assert_eq!(
                    echoed, *chosen,
                    "thread {t} request {i}: caller-chosen id not echoed verbatim"
                );
            }
            echoed_ids.push(echoed);
        }
    }
    let mut unique = echoed_ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        echoed_ids.len(),
        "trace ids collided across {} concurrent requests",
        echoed_ids.len()
    );

    // Traces commit just after the response write: wait for the last
    // ones, then hold every echoed id to its recorded trace.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while monitor.traces().len() < echoed_ids.len() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    for &id in &echoed_ids {
        let trace = monitor.find_trace(id).unwrap_or_else(|| {
            panic!(
                "echoed id {} has no recorded trace",
                mandipass_telemetry::format_trace_id(id)
            )
        });
        assert_eq!(trace.trace_id, id);
        assert_eq!(trace.endpoint, "verify");
        assert!(
            trace.stage_nanos() <= trace.total_nanos,
            "trace {}: stages sum past the total",
            mandipass_telemetry::format_trace_id(id)
        );
        assert!(
            !trace.stages.is_empty(),
            "trace committed without a stage breakdown"
        );
    }

    server.shutdown();
}
