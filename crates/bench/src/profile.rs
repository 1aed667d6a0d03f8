//! Bench-artifact profile sections and regression attribution.
//!
//! `exp_hotpath` and `exp_serve` embed a compact CPU-profile summary
//! (the [`mandipass_telemetry::profile::CpuProfile::summary_json`]
//! shape: `{"unit", "frames": {path: {count, total_nanos, self_nanos,
//! p50_nanos, p99_nanos}}}`) under a top-level `"profile"` key in their
//! BENCH documents. [`attribute_profiles`] diffs two such summaries and
//! ranks frames by the self time their per-call growth added, so when
//! `check_bench compare` fails the report names *which frame* regressed
//! instead of just that p99 moved.

use std::collections::BTreeMap;

use mandipass_util::json::Value;

/// One frame's regression verdict from [`attribute_profiles`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRegression {
    /// Dot-joined frame path, without any `workerN.` root.
    pub path: String,
    /// Fresh self nanoseconds per call.
    pub fresh_self_per_call: f64,
    /// Baseline self nanoseconds per call (`None` for a frame the
    /// baseline never saw).
    pub base_self_per_call: Option<f64>,
    /// `fresh / baseline` per-call self time (`f64::INFINITY` for new
    /// frames).
    pub ratio: f64,
    /// Fresh call count, for weighting the report.
    pub fresh_calls: f64,
}

impl FrameRegression {
    /// Self nanoseconds the growth added over the fresh calls:
    /// `fresh_calls × (fresh − baseline)` per call, or all of a new
    /// frame's self time.
    fn excess_nanos(&self) -> f64 {
        self.fresh_calls * (self.fresh_self_per_call - self.base_self_per_call.unwrap_or(0.0))
    }
}

/// Reads the `"profile"."frames"` object out of a bench document.
fn frames_of<'a>(doc: &'a Value, label: &str) -> Result<&'a [(String, Value)], String> {
    match doc.get("profile").and_then(|p| p.get("frames")) {
        Some(Value::Object(frames)) => Ok(frames),
        _ => Err(format!(
            "{label}: no embedded \"profile\".\"frames\" section"
        )),
    }
}

fn frame_stat(frame: &Value, key: &str) -> f64 {
    frame.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The path with a leading `workerN.` root removed: serve workers label
/// their subtrees, and which worker served a request is not a property
/// of the code being attributed.
fn without_worker_root(path: &str) -> &str {
    match path.split_once('.') {
        Some((root, rest))
            if root
                .strip_prefix("worker")
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())) =>
        {
            rest
        }
        _ => path,
    }
}

/// `(count, self_nanos)` per frame, summed over frames that differ
/// only by their worker root.
fn fold_workers(frames: &[(String, Value)]) -> BTreeMap<&str, (f64, f64)> {
    let mut folded = BTreeMap::new();
    for (path, frame) in frames {
        let entry = folded
            .entry(without_worker_root(path))
            .or_insert((0.0, 0.0));
        entry.0 += frame_stat(frame, "count");
        entry.1 += frame_stat(frame, "self_nanos");
    }
    folded
}

/// Diffs the embedded profile summaries of two bench documents and
/// returns the top `k` frames whose per-call self time grew, worst
/// first. Frames rank by excess self time, `fresh_calls × (fresh −
/// baseline)` per call, with a frame absent from the baseline counting
/// all of its self time (its ratio reads infinite), so a busy frame's
/// small per-call growth outranks a rare frame's noisy spike. Frames
/// that differ only by a `workerN.` root are summed first, so a frame
/// served by another worker is not a new one. Frames that got *faster*
/// are excluded. Ties break by path, so the ranking is deterministic.
///
/// # Errors
///
/// Errors when either document lacks a `"profile"` section.
pub fn attribute_profiles(
    fresh: &Value,
    baseline: &Value,
    k: usize,
) -> Result<Vec<FrameRegression>, String> {
    let fresh_frames = fold_workers(frames_of(fresh, "fresh")?);
    let base_frames = fold_workers(frames_of(baseline, "baseline")?);
    let mut regressions: Vec<FrameRegression> = fresh_frames
        .iter()
        .filter_map(|(&path, &(calls, self_nanos))| {
            if calls <= 0.0 {
                return None;
            }
            let fresh_per_call = self_nanos / calls;
            let base = base_frames.get(path).and_then(|&(base_calls, base_self)| {
                (base_calls > 0.0).then(|| base_self / base_calls)
            });
            let ratio = match base {
                // A brand-new frame with no self time is noise, not a
                // regression; a new frame *with* self time is the worst
                // kind of regression (nothing to compare against).
                None if fresh_per_call <= 0.0 => return None,
                None => f64::INFINITY,
                Some(b) if b <= 0.0 => f64::INFINITY,
                Some(b) => fresh_per_call / b,
            };
            if ratio <= 1.0 {
                return None;
            }
            Some(FrameRegression {
                path: path.to_string(),
                fresh_self_per_call: fresh_per_call,
                base_self_per_call: base,
                ratio,
                fresh_calls: calls,
            })
        })
        .collect();
    regressions.sort_by(|a, b| {
        b.excess_nanos()
            .partial_cmp(&a.excess_nanos())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    regressions.truncate(k);
    Ok(regressions)
}

/// Renders [`attribute_profiles`] output as the report block
/// `check_bench attribute` prints (and `compare` appends on failure).
pub fn render_attribution(regressions: &[FrameRegression]) -> String {
    if regressions.is_empty() {
        return "attribution: no frame regressed (per-call self time)".to_string();
    }
    let mut out = String::from(
        "attribution: top regressed frames by excess self time (self ns/call, fresh vs baseline)\n",
    );
    for (rank, r) in regressions.iter().enumerate() {
        let base = r
            .base_self_per_call
            .map(|b| format!("{b:.0}"))
            .unwrap_or_else(|| "absent".to_string());
        let ratio = if r.ratio.is_finite() {
            format!("{:.2}x", r.ratio)
        } else {
            "new".to_string()
        };
        out.push_str(&format!(
            "  {}. {}  {} -> {:.0} ns/call ({ratio}, {} calls)\n",
            rank + 1,
            r.path,
            base,
            r.fresh_self_per_call,
            r.fresh_calls
        ));
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mandipass_util::json::parse;

    fn doc(frames: &[(&str, f64, f64)]) -> Value {
        let body = frames
            .iter()
            .map(|(path, count, self_nanos)| {
                format!(
                    "\"{path}\":{{\"count\":{count},\"total_nanos\":{t},\"self_nanos\":{self_nanos},\"p50_nanos\":1,\"p99_nanos\":2}}",
                    t = self_nanos * 2.0
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        parse(&format!(
            "{{\"schema\":\"mandipass.bench/v2\",\"profile\":{{\"unit\":\"nanos\",\"frames\":{{{body}}}}}}}"
        ))
        .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn names_the_injected_hot_frame_first() {
        let baseline = doc(&[
            ("verify.extract.gemm", 100.0, 100_000.0),
            ("verify.extract.im2col", 100.0, 50_000.0),
            ("verify.similarity", 100.0, 10_000.0),
        ]);
        let fresh = doc(&[
            ("verify.extract.gemm", 100.0, 110_000.0),
            ("verify.extract.im2col", 100.0, 400_000.0),
            ("verify.similarity", 100.0, 9_000.0),
        ]);
        let top = attribute_profiles(&fresh, &baseline, 3).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(top[0].path, "verify.extract.im2col");
        assert!((top[0].ratio - 8.0).abs() < 1e-9);
        // gemm grew 1.1x, similarity shrank: only two regressions.
        assert_eq!(top.len(), 2);
        let report = render_attribution(&top);
        assert!(report.contains("1. verify.extract.im2col"), "{report}");
        assert!(report.contains("8.00x"), "{report}");
    }

    #[test]
    fn a_busy_frame_outranks_a_rare_spike() {
        // A 10-call frame at 15x adds 288 us; a 10k-call frame at 1.3x
        // adds 3 ms.
        let baseline = doc(&[
            ("verify.extract.cnn_forward", 10.0, 20_000.0),
            ("verify.preprocess", 10_000.0, 10_000_000.0),
        ]);
        let fresh = doc(&[
            ("verify.extract.cnn_forward", 10.0, 308_000.0),
            ("verify.preprocess", 10_000.0, 13_000_000.0),
        ]);
        let top = attribute_profiles(&fresh, &baseline, 5).unwrap_or_else(|e| panic!("{e}"));
        let paths: Vec<&str> = top.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["verify.preprocess", "verify.extract.cnn_forward"]);
        let report = render_attribution(&top);
        assert!(report.contains("1. verify.preprocess"), "{report}");
        assert!(report.contains("(15.40x, 10 calls)"), "{report}");
    }

    #[test]
    fn new_frames_rank_as_infinite_regressions() {
        let baseline = doc(&[("verify", 10.0, 1_000.0)]);
        let fresh = doc(&[
            ("verify", 10.0, 1_500.0),
            ("verify.surprise", 10.0, 2_000.0),
        ]);
        let top = attribute_profiles(&fresh, &baseline, 5).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(top[0].path, "verify.surprise");
        assert!(top[0].ratio.is_infinite());
        assert!(render_attribution(&top).contains("(new,"));
    }

    #[test]
    fn worker_roots_fold_before_ranking() {
        let baseline = doc(&[
            ("worker0.serve.verify", 30.0, 3_000.0),
            ("worker1.serve.verify", 10.0, 1_000.0),
            ("worker1.serve.decode", 40.0, 400.0),
            ("serve.health", 5.0, 50.0),
        ]);
        // The same work served by other workers.
        let relabelled = doc(&[
            ("worker2.serve.verify", 25.0, 2_500.0),
            ("worker3.serve.verify", 15.0, 1_500.0),
            ("worker0.serve.decode", 40.0, 400.0),
            ("serve.health", 5.0, 50.0),
        ]);
        let top = attribute_profiles(&relabelled, &baseline, 5).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            render_attribution(&top).contains("no frame regressed"),
            "{top:?}"
        );
        // A real 2x self-time growth on one worker still ranks first.
        let regressed = doc(&[
            ("worker2.serve.verify", 25.0, 2_500.0),
            ("worker3.serve.verify", 15.0, 1_500.0),
            ("worker0.serve.decode", 20.0, 400.0),
            ("worker1.serve.decode", 20.0, 400.0),
            ("serve.health", 5.0, 50.0),
        ]);
        let top = attribute_profiles(&regressed, &baseline, 5).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(top.len(), 1, "{top:?}");
        assert_eq!(top[0].path, "serve.decode");
        assert!((top[0].ratio - 2.0).abs() < 1e-9);
        assert_eq!(without_worker_root("workers.x"), "workers.x");
        assert_eq!(without_worker_root("worker.x"), "worker.x");
        assert_eq!(without_worker_root("worker12.x.y"), "x.y");
    }

    #[test]
    fn missing_profile_sections_error_with_the_side_named() {
        let with = doc(&[("a", 1.0, 1.0)]);
        let without = parse("{\"schema\":\"x\"}").unwrap_or_else(|e| panic!("{e}"));
        assert!(attribute_profiles(&without, &with, 3)
            .unwrap_err()
            .contains("fresh"));
        assert!(attribute_profiles(&with, &without, 3)
            .unwrap_err()
            .contains("baseline"));
    }

    #[test]
    fn empty_attribution_renders_a_clean_no_regression_line() {
        let base = doc(&[("a", 10.0, 100.0)]);
        let top = attribute_profiles(&base, &base, 3).unwrap_or_else(|e| panic!("{e}"));
        assert!(top.is_empty());
        assert!(render_attribution(&top).contains("no frame regressed"));
    }
}
