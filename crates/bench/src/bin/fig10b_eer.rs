//! Fig. 10(b): the FAR/FRR sweep and the EER, plus `BENCH_accuracy.json`,
//! the same figures measured through enrol/verify and gated against the
//! committed baseline. `MANDIPASS_BENCH_SCALE=smoke` pins the scale the
//! baseline is measured at.

use mandipass_bench::{experiments, gate, EvalScale, TrainedStack};

fn main() {
    let scale = EvalScale::from_env();
    println!("{}", scale.describe());
    let mut stack = TrainedStack::build(scale).expect("VSP training failed");
    let (table, threshold) = experiments::fig10b_eer(&mut stack);
    println!("{}", table.to_console());
    println!("operating threshold: {threshold:.4}");
    println!("JSON: {}", table.to_json());
    let accuracy = experiments::exp_accuracy(&stack, threshold).expect("accuracy gate failed");
    println!(
        "BENCH: {}",
        gate::write(&accuracy).expect("write bench document")
    );
}
