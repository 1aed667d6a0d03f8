//! Hot-path benchmark: trains an extractor, then measures the per-verify
//! forward latency of the naive tensor-per-layer oracle against the
//! zero-alloc im2col+GEMM fast path (plus the fused conv+BN variant and
//! the batched `[N,C,H,W]` forward), all in one binary in one run, and
//! writes `BENCH_hotpath.json`, whose gates include the speedup floor.
//!
//! Knobs: `MANDIPASS_BENCH_SCALE=smoke` pins the deterministic CI scale
//! (otherwise the usual `MANDIPASS_*` scale variables apply). The
//! timing loops are fixed: 150 iterations, batches of 4 probes.

use mandipass_bench::{experiments, gate, EvalScale, TrainedStack};

fn main() {
    let scale = EvalScale::from_env();
    println!("{}", scale.describe());
    let mut stack = TrainedStack::build(scale).expect("VSP training failed");
    let (table, json) = experiments::exp_hotpath(&mut stack).expect("hot-path experiment failed");
    println!("{}", table.to_console());
    println!(
        "BENCH: {}",
        gate::write(&json).expect("write bench document")
    );
}
