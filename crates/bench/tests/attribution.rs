//! The committed attribution fixtures are the contract for the CI
//! `profile-smoke` job: it runs `check_bench attribute` over the same
//! files and greps the report for the injected hot frame, and for a
//! clean verdict on the worker-relabelled copy. These
//! tests keep the fixtures and the attribution engine honest against
//! each other, so the CI grep can never pass vacuously.

use mandipass_bench::profile::{attribute_profiles, render_attribution};
use mandipass_util::json::{parse, Value};

fn fixture(name: &str) -> Value {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn fixture_attribution_names_the_injected_im2col_frame_first() {
    let current = fixture("profile_current.json");
    let baseline = fixture("profile_baseline.json");
    let top = attribute_profiles(&current, &baseline, 5).unwrap_or_else(|e| panic!("{e}"));
    assert!(!top.is_empty(), "fixtures must disagree somewhere");
    assert_eq!(
        top[0].path, "verify.extract.im2col",
        "the injected hot frame must rank first, got {top:?}"
    );
    assert!(
        (top[0].ratio - 6.0).abs() < 1e-9,
        "im2col per-call self time is inflated exactly 6x in the fixture, got {}",
        top[0].ratio
    );
    let report = render_attribution(&top);
    assert!(
        report.contains("1. verify.extract.im2col"),
        "report must name the frame: {report}"
    );
    assert!(report.contains("6.00x"), "{report}");
}

#[test]
fn fixture_attribution_is_clean_when_diffed_against_itself() {
    let baseline = fixture("profile_baseline.json");
    let top = attribute_profiles(&baseline, &baseline, 5).unwrap_or_else(|e| panic!("{e}"));
    assert!(top.is_empty(), "self-diff regressed: {top:?}");
    assert!(render_attribution(&top).contains("no frame regressed"));
}

#[test]
fn fixture_attribution_is_clean_when_only_worker_labels_differ() {
    let relabelled = fixture("profile_relabelled.json");
    let baseline = fixture("profile_baseline.json");
    let top = attribute_profiles(&relabelled, &baseline, 5).unwrap_or_else(|e| panic!("{e}"));
    assert!(top.is_empty(), "worker relabelling regressed: {top:?}");
    assert!(render_attribution(&top).contains("no frame regressed"));
}

#[test]
fn fixture_frame_tables_are_internally_consistent() {
    // Σ(self over the subtree) == root total, same identity the live
    // profiler maintains — keeps hand-edited fixtures from drifting
    // into shapes the profiler could never emit.
    for name in ["profile_baseline.json", "profile_current.json"] {
        let doc = fixture(name);
        let frames = match doc.get("profile").and_then(|p| p.get("frames")) {
            Some(Value::Object(frames)) => frames,
            _ => panic!("{name}: missing profile.frames"),
        };
        let stat = |path: &str, key: &str| -> f64 {
            frames
                .iter()
                .find(|(p, _)| p == path)
                .and_then(|(_, f)| f.get(key))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{name}: {path}.{key} missing"))
        };
        let self_sum: f64 = frames
            .iter()
            .map(|(path, _)| stat(path, "self_nanos"))
            .sum();
        let root_total = stat("verify", "total_nanos");
        assert!(
            (self_sum - root_total).abs() < 0.5,
            "{name}: Σself {self_sum} != root total {root_total}"
        );
    }
}
