//! Integration: one enrolled [`MandiPass`] shared read-only across
//! verify threads (the serving layer's deployment model, ISSUE 6).
//!
//! N threads × M verifies against the same instance must produce
//! decisions bit-identical to a serial pass over the same probes, lose
//! nothing from the enclave audit trail (the monotone `audit_seq`
//! advances by exactly the serial pass's per-verify rate), and land
//! every decision in the bound drift monitor. No loom, no mocks — real
//! `std::thread::scope` contention on the real pipeline.

use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, Population, Recorder, Recording};
use mandipass_telemetry::Monitor;

const THREADS: usize = 4;
const VERIFIES: usize = 8;

/// A small trained extractor; users 0 and 1 stay unseen.
fn trained() -> (BiometricExtractor, Population, Recorder) {
    let pop = Population::generate(6, 77);
    let recorder = Recorder::default();
    let trainer = VspTrainer::new(TrainingConfig {
        seconds_per_person: 4.0,
        epochs: 6,
        ..TrainingConfig::fast_demo()
    });
    let extractor = trainer.train(&pop.users()[2..], &recorder).expect("train");
    (extractor, pop, recorder)
}

/// A small trained deployment, one enrolled user, a private monitor.
fn deployment() -> (MandiPass, &'static Monitor, u32, Vec<Recording>) {
    let (extractor, pop, recorder) = trained();
    let mut system = MandiPass::new(extractor, PipelineConfig::default());
    let monitor: &'static Monitor = Box::leak(Box::new(Monitor::default()));
    system.set_monitor(monitor);
    let user = &pop.users()[0];
    let matrix = GaussianMatrix::generate(31, system.embedding_dim());
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(user, Condition::Normal, 41_900 + s))
        .collect();
    system.enroll(user.id, &enrolment, &matrix).expect("enroll");
    // One distinct probe per (thread, iteration) slot, fixed seeds, so
    // the serial and concurrent passes see the very same inputs.
    let probes: Vec<Recording> = (0..THREADS * VERIFIES)
        .map(|i| recorder.record(user, Condition::Normal, 42_000 + i as u64))
        .collect();
    (system, monitor, user.id, probes)
}

#[test]
fn concurrent_verifies_match_serial_bit_for_bit() {
    let (system, monitor, user_id, probes) = deployment();

    // Serial reference pass: the ground-truth decisions and the audit
    // events one verify costs (load + verdict — measured, not assumed).
    let seq_start = system.enclave().audit_seq();
    let serial: Vec<(bool, f64)> = probes
        .iter()
        .map(|p| {
            let outcome = system.verify(user_id, p).expect("serial verify");
            (outcome.accepted, outcome.distance)
        })
        .collect();
    let serial_events = system.enclave().audit_seq() - seq_start;
    assert!(serial_events > 0, "verifies must leave an audit trail");
    assert_eq!(
        serial_events % (probes.len() as u64),
        0,
        "audit cost per verify should be uniform on clean probes"
    );
    assert!(
        serial.iter().any(|(accepted, _)| *accepted),
        "genuine probes should mostly verify; none did"
    );

    // Concurrent pass: THREADS workers share `&system`, each re-runs
    // its own slice of the same probes.
    monitor.reset_windows();
    let seq_concurrent_start = system.enclave().audit_seq();
    let mut concurrent: Vec<(bool, f64)> = vec![(false, 0.0); probes.len()];
    std::thread::scope(|scope| {
        for (t, (chunk_probes, chunk_out)) in probes
            .chunks(VERIFIES)
            .zip(concurrent.chunks_mut(VERIFIES))
            .enumerate()
        {
            let system = &system;
            scope.spawn(move || {
                for (probe, out) in chunk_probes.iter().zip(chunk_out) {
                    let outcome = system
                        .verify(user_id, probe)
                        .unwrap_or_else(|e| panic!("thread {t} verify: {e}"));
                    *out = (outcome.accepted, outcome.distance);
                }
            });
        }
    });

    // Bit-identical decisions: same accept flags AND the exact same
    // distances — concurrency must not perturb the numeric path.
    for (i, (s, c)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(s.0, c.0, "probe {i}: accept flag diverged under threads");
        assert_eq!(
            s.1.to_bits(),
            c.1.to_bits(),
            "probe {i}: distance diverged under threads ({} vs {})",
            s.1,
            c.1
        );
    }

    // No audit loss: the Mutex-serialised trail advanced by exactly the
    // serial pass's rate. The ring may evict old events; `audit_seq` is
    // monotone and counts every one ever admitted.
    let concurrent_events = system.enclave().audit_seq() - seq_concurrent_start;
    assert_eq!(
        concurrent_events, serial_events,
        "concurrent pass lost or duplicated audit events"
    );

    // Every concurrent decision reached the monitor.
    let health = monitor.health();
    assert_eq!(
        health.decisions,
        (THREADS * VERIFIES) as u64,
        "drift monitor missed decisions from concurrent verifies"
    );
}

/// The matrix memo under contention: THREADS workers verify shared
/// users. Half the slots claim a user whose enrolment drew its matrix
/// (a memo hit). The other half claim one of a few users whose matrix
/// the memo dropped when a twin enrolled under the same seed was revoked
/// (a miss for whichever thread meets it first, and possibly for two at
/// once). Every decision must equal a serial pass on an identical
/// deployment.
#[test]
fn concurrent_memo_hits_and_misses_match_serial_bit_for_bit() {
    const USERS: usize = 2;
    const FRESH: u32 = 3;
    const FRESH_ID: u32 = 100;
    const TWIN_ID: u32 = 200;
    let (extractor, pop, recorder) = trained();
    let users = &pop.users()[..USERS];
    let dim = extractor.embedding_dim();
    let enrolment = |u: usize| -> Vec<Recording> {
        (0..3)
            .map(|s| recorder.record(&users[u], Condition::Normal, 43_000 + 10 * u as u64 + s))
            .collect()
    };
    let deploy = || {
        let mut system = MandiPass::new(extractor.clone(), PipelineConfig::default());
        system.set_monitor(Box::leak(Box::new(Monitor::default())));
        for (u, user) in users.iter().enumerate() {
            let matrix = GaussianMatrix::generate(700 + u as u64, dim);
            system
                .enroll(user.id, &enrolment(u), &matrix)
                .expect("enroll");
        }
        for k in 0..FRESH {
            let matrix = GaussianMatrix::generate(900 + u64::from(k), dim);
            let recs = enrolment(k as usize % USERS);
            for id in [FRESH_ID + k, TWIN_ID + k] {
                system.enroll(id, &recs, &matrix).expect("enroll");
            }
            system.revoke(TWIN_ID + k).expect("twin enrolled");
        }
        system
    };
    // Slot `i` probes user `i % USERS`; every other round of slots
    // claims a user whose matrix is no longer memoized.
    let slots: Vec<(u32, Recording)> = (0..THREADS * VERIFIES)
        .map(|i| {
            let user = &users[i % USERS];
            let probe = recorder.record(user, Condition::Normal, 44_000 + i as u64);
            let claimed = match (i / USERS) % 2 {
                0 => user.id,
                _ => FRESH_ID + (i / USERS / 2) as u32 % FRESH,
            };
            (claimed, probe)
        })
        .collect();
    let decide = |system: &MandiPass, (user_id, probe): &(u32, Recording)| {
        let outcome = system.verify(*user_id, probe).expect("verify");
        (outcome.accepted, outcome.distance.to_bits())
    };

    let serial_system = deploy();
    let serial: Vec<(bool, u64)> = slots.iter().map(|s| decide(&serial_system, s)).collect();
    assert!(serial.iter().any(|d| d.0), "no genuine probe verified");

    let shared = deploy();
    let hits = mandipass_telemetry::metrics().counter("template.memo.hits");
    let misses = mandipass_telemetry::metrics().counter("template.memo.misses");
    let (hits_before, misses_before) = (hits.get(), misses.get());
    let mut concurrent = vec![(false, 0u64); slots.len()];
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (shared, slots, decide, start) = (&shared, &slots, &decide, &start);
                scope.spawn(move || {
                    // All threads start together, so the first slots,
                    // two of which share an evicted matrix, race for the
                    // memo.
                    start.wait();
                    // Interleave the slots across threads so every thread
                    // meets every user and every evicted matrix.
                    (t..slots.len())
                        .step_by(THREADS)
                        .map(|i| (i, decide(shared, &slots[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, decision) in worker.join().expect("verify thread") {
                concurrent[i] = decision;
            }
        }
    });
    assert_eq!(concurrent, serial, "a memo hit or miss moved a decision");
    // Other tests in this binary only add to the global counters.
    assert!(
        misses.get() - misses_before >= u64::from(FRESH),
        "evicted matrices were not drawn again"
    );
    assert!(
        hits.get() - hits_before >= (slots.len() / 2) as u64,
        "memoized matrices missed"
    );
}

/// Streamed draws past the memo's size run on the caller's thread.
/// THREADS barrier-started workers transform under matrices they share
/// and matrices of their own, in batches and one print at a time. Every
/// template must equal a serial pass bit for bit.
#[test]
fn concurrent_streamed_transforms_match_serial_bit_for_bit() {
    const DIM: usize = 257;
    const ROUNDS: usize = 3;
    let print = |seed: usize| {
        MandiblePrint::new(
            (0..DIM)
                .map(|i| ((i * 7919 + seed * 104_729) % 1000) as f32 / 1000.0)
                .collect(),
        )
    };
    let prints: Vec<MandiblePrint> = (0..4).map(print).collect();
    let refs: Vec<&MandiblePrint> = prints.iter().collect();
    // Worker `t`, round `r`: a matrix every worker shares, then one of
    // its own.
    let jobs = |t: usize| {
        (0..ROUNDS).flat_map(move |r| {
            [
                GaussianMatrix::generate(500 + r as u64, DIM),
                GaussianMatrix::generate(600 + (t * ROUNDS + r) as u64, DIM),
            ]
        })
    };
    let run = |t: usize| -> Vec<Vec<u32>> {
        jobs(t)
            .flat_map(|matrix| {
                let batch = matrix.transform_all(&refs).expect("batch transform");
                let single = matrix
                    .transform(&prints[t % prints.len()])
                    .expect("transform");
                batch.into_iter().chain([single])
            })
            .map(|template| template.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    };

    let serial: Vec<Vec<Vec<u32>>> = (0..THREADS).map(run).collect();
    let start = std::sync::Barrier::new(THREADS);
    let concurrent: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (run, start) = (&run, &start);
                scope.spawn(move || {
                    start.wait();
                    run(t)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("transform thread"))
            .collect()
    });
    assert_eq!(concurrent, serial, "a concurrent draw moved a template bit");
}
