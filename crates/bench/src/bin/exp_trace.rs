//! End-to-end request-tracing benchmark: trains a deployment, enrols a
//! cohort, drives traced TCP traffic through the verify server, and
//! writes `BENCH_trace.json`: the per-stage latency-attribution summary
//! (p50/p99/mean/max per stage) and the acceptance checks — stage sums within totals, error/degraded
//! traces always span-bearing, echoed ids resolvable over `GET /traces`,
//! and bit-identical deterministic sampling.
//!
//! Knobs: `MANDIPASS_BENCH_SCALE=smoke` pins the deterministic CI scale;
//! `MANDIPASS_TRACE_SAMPLE` sets the store's probabilistic rate;
//! `MANDIPASS_TRACE_HTTP_ADDR` binds the monitor HTTP listener;
//! `MANDIPASS_TRACE_HOLD_SECS` keeps it up after the run so an external
//! probe can curl `/metrics` and `/traces`. The load is fixed: 4
//! clients x 16 requests against 4 server workers.

use mandipass_bench::{experiments, gate, EvalScale, TrainedStack};

// Counting allocator so `MANDIPASS_PROFILE_ALLOC=1` runs of this binary
// serve real data on `/profile/alloc` during the hold phase. Attribution
// is off (raw counting only) unless the env knob asks for it.
#[global_allocator]
static ALLOC: mandipass_telemetry::alloc::ProfilingAlloc =
    mandipass_telemetry::alloc::ProfilingAlloc;

fn main() {
    let scale = EvalScale::from_env();
    println!("{}", scale.describe());
    let mut stack = TrainedStack::build(scale).expect("VSP training failed");
    let (_, threshold) = experiments::fig10b_eer(&mut stack);
    let (table, json) =
        experiments::exp_trace(&mut stack, threshold).expect("trace experiment failed");
    println!("{}", table.to_console());
    assert!(
        table.all_shapes_hold(),
        "trace acceptance checks failed — see table above"
    );

    println!(
        "BENCH: {}",
        gate::write(&json).expect("write bench document")
    );
}
