//! Live-monitoring drift detection: the detector must stay Healthy on
//! clean genuine traffic and flag Degrading/Alarm under a combined
//! gain-drift + dropout fault ramp, retaining the failed verifications
//! as flights in the monitor's record ring.
//!
//! Prints the paper-vs-measured table and one JSON document carrying
//! both phases' health reports plus the final monitor snapshot (the
//! same schema the `/health` + `/metrics` endpoints expose).

use mandipass_bench::{experiments, EvalScale, TrainedStack};

fn main() {
    let scale = EvalScale::from_env();
    println!("{}", scale.describe());
    let mut stack = TrainedStack::build(scale).expect("VSP training failed");
    let (_, threshold) = experiments::fig10b_eer(&mut stack);
    let (table, json) =
        experiments::exp_monitor(&mut stack, threshold).expect("monitor experiment failed");
    println!("{}", table.to_console());
    println!("JSON: {}", json.to_json());
}
