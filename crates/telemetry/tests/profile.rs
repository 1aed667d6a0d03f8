//! Profiler correctness: deterministic bit-identical call trees and
//! lossless concurrent-worker merging.
//!
//! These are the observability analogues of the pipeline's determinism
//! tests: under the logical clock, profiling the same workload twice
//! must produce *byte-identical* folded output, and merging N worker
//! threads must lose no frame (counts sum exactly).

use std::sync::{Mutex, MutexGuard};

use mandipass_telemetry as telemetry;
use mandipass_telemetry::{alloc, profile};

/// Serialises tests that mutate the process-global profiler/clock.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fixed span workload: `calls` iterations of a three-deep pipeline
/// shape with two siblings.
fn fixed_workload(calls: usize) {
    for _ in 0..calls {
        let _root = telemetry::span("verify");
        {
            let _stage = telemetry::span("preprocess");
            let _leaf = telemetry::span("detect");
        }
        let _tail = telemetry::span("similarity");
    }
}

/// One profiled run: `workers` labelled threads each execute the fixed
/// workload; returns the folded snapshot.
fn profiled_run(workers: usize, calls: usize) -> String {
    profile::reset();
    profile::set_enabled(true);
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            std::thread::spawn(move || {
                profile::set_thread_root(&format!("worker{i}"));
                fixed_workload(calls);
                profile::clear_thread_root();
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap_or_else(|_| panic!("worker panicked"));
    }
    profile::set_enabled(false);
    let folded = profile::snapshot().folded();
    profile::reset();
    folded
}

#[test]
fn two_identical_seed_runs_produce_bit_identical_call_trees() {
    let _lock = lock();
    telemetry::set_deterministic(true);
    let first = profiled_run(2, 5);
    let second = profiled_run(2, 5);
    telemetry::set_deterministic(false);
    assert!(!first.is_empty());
    assert_eq!(first, second, "folded profiles diverged across runs");
    // Worker subtrees are present and byte-for-byte identical in both.
    for worker in ["worker0", "worker1"] {
        assert!(
            first.contains(&format!("{worker};verify;preprocess;detect ")),
            "missing {worker} subtree in:\n{first}"
        );
    }
}

#[test]
fn json_call_tree_is_bit_identical_too() {
    let _lock = lock();
    telemetry::set_deterministic(true);
    let run = || {
        profile::reset();
        profile::set_enabled(true);
        fixed_workload(3);
        profile::set_enabled(false);
        let json = profile::snapshot().to_json().to_json();
        profile::reset();
        json
    };
    let (first, second) = (run(), run());
    telemetry::set_deterministic(false);
    assert_eq!(first, second);
    assert!(first.contains("\"name\":\"verify\""), "{first}");
    assert!(first.contains("\"p50_nanos\""), "{first}");
}

#[test]
fn concurrent_worker_merge_is_lossless() {
    let _lock = lock();
    const WORKERS: usize = 8;
    const CALLS: usize = 50;
    profile::reset();
    profile::set_enabled(true);
    let handles: Vec<_> = (0..WORKERS)
        .map(|i| {
            std::thread::spawn(move || {
                profile::set_thread_root(&format!("worker{i}"));
                fixed_workload(CALLS);
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap_or_else(|_| panic!("worker panicked"));
    }
    profile::set_enabled(false);
    let snapshot = profile::snapshot();
    profile::reset();
    // Every frame of every worker survived the merge: counts sum
    // exactly, nothing aliased, nothing dropped.
    for name in ["verify", "verify.preprocess", "verify.preprocess.detect"] {
        let total: u64 = (0..WORKERS)
            .map(|i| {
                snapshot
                    .frames()
                    .get(&format!("worker{i}.{name}"))
                    .map(|s| s.count())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            total,
            (WORKERS * CALLS) as u64,
            "lost closes for frame {name}"
        );
    }
    // Self + descendants' self reconstructs the root's total time
    // exactly (self-time accounting is conservative-free).
    for i in 0..WORKERS {
        let frames = snapshot.frames();
        let root = &frames[&format!("worker{i}.verify")];
        let reconstructed: u64 = frames
            .iter()
            .filter(|(p, _)| p.starts_with(&format!("worker{i}.verify")))
            .map(|(_, s)| s.self_nanos())
            .sum();
        assert_eq!(
            reconstructed,
            root.total_nanos(),
            "worker{i} subtree self times do not sum to the root total"
        );
    }
}

#[test]
fn top_self_ranking_matches_folded_values() {
    let _lock = lock();
    telemetry::set_deterministic(true);
    profile::reset();
    profile::set_enabled(true);
    fixed_workload(4);
    profile::set_enabled(false);
    let snapshot = profile::snapshot();
    profile::reset();
    telemetry::set_deterministic(false);
    let top = snapshot.top_self(3);
    assert!(!top.is_empty());
    // Descending by self time.
    for pair in top.windows(2) {
        assert!(pair[0].1.self_nanos() >= pair[1].1.self_nanos());
    }
    // Every folded line's value is that frame's self time.
    for line in snapshot.folded().lines() {
        let (stack, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed folded line {line}"));
        let path = stack.replace(';', ".");
        let expect = snapshot.frames()[&path].self_nanos();
        assert_eq!(
            value,
            expect.to_string(),
            "folded value mismatch for {path}"
        );
    }
}

#[test]
fn alloc_attribution_keys_match_cpu_profile_keys() {
    let _lock = lock();
    // Even without the profiling allocator installed, the attribution
    // path (exercised here via a span + the public snapshot API) must
    // compose keys exactly like the CPU profiler, root label included.
    profile::reset();
    alloc::reset();
    profile::set_enabled(true);
    profile::set_thread_root("workerX");
    {
        let _span = telemetry::span("verify");
    }
    profile::clear_thread_root();
    profile::set_enabled(false);
    let cpu = profile::snapshot();
    profile::reset();
    assert!(cpu.frames().contains_key("workerX.verify"));
}
