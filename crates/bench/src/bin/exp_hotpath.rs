//! Hot-path benchmark: trains an extractor, then measures the per-verify
//! forward latency of the naive tensor-per-layer oracle against the
//! zero-alloc im2col+GEMM fast path (plus the fused conv+BN variant and
//! the batched `[N,C,H,W]` forward), all in one binary in one run, and
//! writes the schema-versioned `BENCH_hotpath.json` the CI perf gate
//! checks against its speedup floor.
//!
//! Knobs: `MANDIPASS_HOTPATH_SCALE=smoke` pins the deterministic CI
//! scale (otherwise the usual `MANDIPASS_*` scale variables apply);
//! `MANDIPASS_HOTPATH_ITERS` / `MANDIPASS_HOTPATH_BATCH` size the
//! timing loops; `MANDIPASS_HOTPATH_OUT` overrides the output path.

use mandipass_bench::{experiments, EvalScale, TrainedStack};

fn main() {
    let scale = match std::env::var("MANDIPASS_HOTPATH_SCALE").as_deref() {
        Ok("smoke") => EvalScale::smoke_test(),
        _ => EvalScale::from_env(),
    };
    println!("{}", scale.describe());
    let mut stack = TrainedStack::build(scale).expect("VSP training failed");
    let (table, json) = experiments::exp_hotpath(&mut stack).expect("hot-path experiment failed");
    println!("{}", table.to_console());

    let out =
        std::env::var("MANDIPASS_HOTPATH_OUT").unwrap_or_else(|_| "BENCH_hotpath.json".into());
    std::fs::write(&out, json.to_json() + "\n").expect("write BENCH_hotpath.json");
    println!("BENCH: {out}");
}
