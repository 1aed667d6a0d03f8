//! Regenerates every figure and table in one process, sharing a single
//! trained stack where the experiment design allows it, and renders the
//! combined paper-vs-measured report (the source of `EXPERIMENTS.md`).
//!
//! Pass `--markdown` to print GitHub-flavoured markdown instead of the
//! console rendering, or `--telemetry-report` to train the stack and
//! dump the per-stage latency breakdown JSON instead of the tables.
//!
//! Progress narration goes through `telemetry::event` (on by default
//! here; `MANDIPASS_TELEMETRY=off` silences it).

use mandipass_bench::{experiments, gate, EvalScale, TrainedStack};
use mandipass_eval::ReportTable;
use mandipass_telemetry as telemetry;

fn main() {
    let markdown = std::env::args().any(|a| a == "--markdown");
    let report_only = std::env::args().any(|a| a == "--telemetry-report");
    telemetry::set_default_mode(telemetry::Mode::Text);
    // Profile the whole run unless the environment chose explicitly —
    // the closing PROFILE SUMMARY block reads the resulting frame table.
    if std::env::var(telemetry::PROFILE_ENV).is_err() {
        telemetry::profile::set_enabled(true);
    }
    let scale = EvalScale::from_env();
    telemetry::event(&scale.describe());

    if report_only {
        telemetry::event("training the telemetry-report stack…");
        let mut stack = TrainedStack::build(scale).expect("VSP training failed");
        println!("{}", experiments::telemetry_report(&mut stack));
        return;
    }

    // Stackless preprocessing/feasibility artifacts.
    let mut tables: Vec<ReportTable> = vec![
        experiments::fig01_propagation(&scale),
        experiments::fig05_detection(&scale),
        experiments::fig06_outliers(&scale),
        experiments::fig07_sfs(&scale),
    ];

    // One shared trained stack for the single-training artifacts. The
    // close of the `train_stack` span reports how long training took.
    telemetry::event("training the shared extractor stack…");
    let mut stack = {
        let _span = telemetry::span("train_stack");
        TrainedStack::build(scale.clone()).expect("VSP training failed")
    };

    let (fig10b, threshold) = experiments::fig10b_eer(&mut stack);
    let accuracy = experiments::exp_accuracy(&stack, threshold).expect("accuracy gate failed");
    let mut bench_paths = vec![gate::write(&accuracy).expect("write bench document")];
    tables.push(experiments::fig10a_classifiers(&mut stack));
    tables.push(fig10b);
    tables.push(experiments::fig10c_gender(&mut stack, threshold));
    tables.push(experiments::fig11a_axes(&mut stack));
    tables.push(experiments::fig12_food_activity(&mut stack, threshold));
    tables.push(experiments::fig13_orientation(&mut stack, threshold));
    tables.push(experiments::fig14_tone(&mut stack, threshold));
    tables.push(experiments::exp_imu_models(&mut stack));
    tables.push(experiments::exp_ear_side(&mut stack, threshold));
    tables.push(experiments::exp_longterm(&mut stack, threshold));
    tables.push(experiments::exp_security(&mut stack, threshold));
    tables.push(experiments::exp_overhead(&mut stack));
    // Hot path: naive oracle vs the zero-alloc im2col+GEMM path, plus
    // the hot-path perf artifact the CI hotpath-smoke job gates on.
    telemetry::event("running the hot-path inference experiment…");
    let (hotpath_table, hotpath_json) =
        as_standalone(|| experiments::exp_hotpath(&mut stack)).expect("hot-path experiment failed");
    tables.push(hotpath_table);
    bench_paths.push(gate::write(&hotpath_json).expect("write bench document"));
    tables.push(experiments::table1_comparison(&mut stack, threshold));
    telemetry::event("running the fault-injection robustness sweep…");
    let (robustness, _json) =
        experiments::exp_robustness(&mut stack, threshold, &[0.0, 0.25, 0.5, 0.75, 1.0])
            .expect("robustness sweep failed");
    tables.push(robustness);

    // Serving layer: closed-loop load through the verify server, plus
    // the perf-baseline artifact the CI smoke job gates on.
    telemetry::event("running the serving-layer load experiment…");
    let (serve_table, serve_json) =
        experiments::exp_serve(&mut stack, threshold).expect("serve experiment failed");
    tables.push(serve_table);
    bench_paths.push(gate::write(&serve_json).expect("write bench document"));

    // Overload robustness: open-loop saturation against the bounded
    // admission queue plus the deterministic breaker drill, written as
    // the overload perf artifact the CI overload-smoke job gates on.
    telemetry::event("running the overload robustness experiment…");
    let (overload_table, overload_json) =
        experiments::exp_overload(&mut stack, threshold).expect("overload experiment failed");
    tables.push(overload_table);
    bench_paths.push(gate::write(&overload_json).expect("write bench document"));

    // Request tracing: traced TCP load with per-stage latency
    // attribution, written next to the serve perf artifact.
    telemetry::event("running the request-tracing experiment…");
    let (trace_table, trace_json) = as_standalone(|| experiments::exp_trace(&mut stack, threshold))
        .expect("trace experiment failed");
    tables.push(trace_table);
    bench_paths.push(gate::write(&trace_json).expect("write bench document"));

    // Multi-training sweeps last (each trains its own extractors); run
    // them at a cheaper sub-scale — only the trend is asserted.
    telemetry::event("running the training-sweep artifacts (multiple trainings)…");
    let sweep = EvalScale {
        users: scale.users.min(40),
        held_out: scale.held_out.min(6),
        probes_per_user: scale.probes_per_user.min(20),
        epochs: scale.epochs.min(10),
        embedding_dim: 256,
        ..scale.clone()
    };
    tables.push(experiments::fig11b_trainlen(&sweep, &[3.0, 6.0, 12.0]));
    tables.push(experiments::fig11c_dim(&sweep, &[32, 128, 512]));

    let mut all_hold = true;
    for table in &tables {
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{}", table.to_console());
        }
        all_hold &= table.all_shapes_hold();
    }
    println!(
        "overall: {}",
        if all_hold {
            "every artifact's shape holds"
        } else {
            "SHAPE MISMATCHES PRESENT"
        }
    );
    for path in &bench_paths {
        println!("BENCH: {path}");
    }
    // The live-exposition view of the whole run: bench output and the
    // /metrics endpoints share one schema via Monitor::snapshot.
    println!(
        "MONITOR SNAPSHOT: {}",
        telemetry::monitor().snapshot().to_json()
    );
    // Where the run spent its time, from the span-tree profiler. The
    // serve/hotpath experiments reset the frame table around their own
    // embedded profile sections, so this covers the tail of the run
    // (serve burst onward) — enough to name the hot frames.
    let profile = telemetry::profile::snapshot();
    if profile.is_empty() {
        println!("PROFILE SUMMARY: empty (set MANDIPASS_PROFILE=1 to enable the span profiler)");
    } else {
        let unit = if telemetry::clock::is_deterministic() {
            "logical ticks"
        } else {
            "ns"
        };
        println!("PROFILE SUMMARY: top frames by self time ({unit})");
        for (rank, (path, stats)) in profile.top_self(10).iter().enumerate() {
            println!(
                "  {:>2}. {path}  self {} total {} calls {} p99 {}",
                rank + 1,
                stats.self_nanos(),
                stats.total_nanos(),
                stats.count(),
                stats.histogram().quantile(0.99),
            );
        }
    }
}

/// Runs `bench` as its own binary runs it by default: span profiler
/// off, so the BENCH document it writes can be compared with the
/// committed baseline (the profiler's frame table otherwise slows the
/// timed paths). The profiler setting is restored afterwards.
fn as_standalone<T>(bench: impl FnOnce() -> T) -> T {
    let was_profiling = telemetry::profile::enabled();
    telemetry::profile::set_enabled(false);
    let out = bench();
    telemetry::profile::set_enabled(was_profiling);
    out
}
