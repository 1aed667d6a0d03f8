//! Overload robustness benchmark: trains a deployment, measures its
//! closed-loop capacity, then drives open-loop offered load past 2x
//! capacity against the bounded-admission server and runs the
//! deterministic circuit-breaker drill twice, writing
//! `BENCH_overload.json`, which `check_bench compare` gates against the
//! committed baseline.
//!
//! Knobs: `MANDIPASS_BENCH_SCALE=smoke` pins the deterministic CI scale
//! (otherwise the usual `MANDIPASS_*` scale variables apply). The sweep
//! is fixed: 120 open-loop requests per point (three times that at the
//! overload point) against 2 server workers.

use mandipass_bench::{experiments, gate, EvalScale, TrainedStack};

fn main() {
    let scale = EvalScale::from_env();
    println!("{}", scale.describe());
    let mut stack = TrainedStack::build(scale).expect("VSP training failed");
    let (_, threshold) = experiments::fig10b_eer(&mut stack);
    let (table, json) =
        experiments::exp_overload(&mut stack, threshold).expect("overload experiment failed");
    println!("{}", table.to_console());
    println!(
        "BENCH: {}",
        gate::write(&json).expect("write bench document")
    );
}
