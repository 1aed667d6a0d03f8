//! Exit codes of the `check_bench` binary: 2 for a usage error, 0 for a
//! passing gate, 1 for a failing one. CI scripts branch on these, so
//! they are tested on the real executable.

use std::path::PathBuf;
use std::process::Command;

use mandipass_util::json::{parse, Value};

fn check_bench(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_check_bench"))
        .args(args)
        .output()
        .expect("run check_bench")
        .status
        .code()
        .expect("check_bench exited by signal")
}

fn baseline(kind: &str) -> String {
    format!(
        "{}/../../BENCH_{kind}.baseline.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn usage_errors_exit_two() {
    let serve = baseline("serve");
    for args in [
        &[][..],
        &["frobnicate"],
        &["schema"],
        &["compare", serve.as_str()],
        &["compare", serve.as_str(), serve.as_str(), "2.0", "0.5"],
        &["attribute", serve.as_str()],
        &["attribute", serve.as_str(), serve.as_str(), "0"],
    ] {
        assert_eq!(check_bench(args), 2, "{args:?}");
    }
}

#[test]
fn every_committed_baseline_passes_against_itself() {
    for kind in ["serve", "hotpath", "overload", "trace", "accuracy"] {
        let path = baseline(kind);
        assert_eq!(check_bench(&["schema", &path]), 0, "{kind}");
        assert_eq!(check_bench(&["compare", &path, &path]), 0, "{kind}");
    }
}

#[test]
fn a_document_past_a_gate_exits_one() {
    let text = std::fs::read_to_string(baseline("serve")).expect("read serve baseline");
    let Ok(Value::Object(mut doc)) = parse(&text) else {
        panic!("serve baseline is not an object");
    };
    for (key, value) in &mut doc {
        if let (true, Value::Object(metrics)) = (key == "metrics", value) {
            for (name, metric) in metrics.iter_mut() {
                if name == "tcp.qps" {
                    *metric = Value::Number(1.0);
                }
            }
        }
    }
    let fresh: PathBuf =
        std::env::temp_dir().join(format!("check_bench_cli_{}.json", std::process::id()));
    std::fs::write(&fresh, Value::Object(doc).to_json()).expect("write fresh document");
    let fresh_path = fresh.to_str().expect("utf-8 temp path");
    let code = check_bench(&["compare", fresh_path, &baseline("serve")]);
    let missing = check_bench(&["schema", "/nonexistent/BENCH_serve.json"]);
    std::fs::remove_file(&fresh).expect("remove fresh document");
    assert_eq!(code, 1, "qps at 1 req/s is past the 0.5x baseline gate");
    assert_eq!(missing, 1, "an unreadable document is a failed check");
}
