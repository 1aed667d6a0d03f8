//! Serving-layer benchmark: trains a deployment, enrols a cohort, then
//! drives closed-loop mixed traffic (genuine / impostor / fault-injected)
//! against it twice — in-process and through the TCP verify server — and
//! writes `BENCH_serve.json`, which `check_bench compare` gates against
//! the committed baseline.
//!
//! Knobs: `MANDIPASS_BENCH_SCALE=smoke` pins the deterministic CI scale
//! (otherwise the usual `MANDIPASS_*` scale variables apply). The load
//! is fixed: 4 clients x 24 requests against 4 server workers.

use mandipass_bench::{experiments, gate, EvalScale, TrainedStack};

fn main() {
    let scale = EvalScale::from_env();
    println!("{}", scale.describe());
    let mut stack = TrainedStack::build(scale).expect("VSP training failed");
    let (_, threshold) = experiments::fig10b_eer(&mut stack);
    let (table, json) =
        experiments::exp_serve(&mut stack, threshold).expect("serve experiment failed");
    println!("{}", table.to_console());
    println!(
        "BENCH: {}",
        gate::write(&json).expect("write bench document")
    );
}
