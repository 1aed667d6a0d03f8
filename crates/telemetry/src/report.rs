//! Turns a captured [`SpanTree`] into a per-stage latency breakdown —
//! the telemetry-backed replacement for the hand-rolled timers behind
//! the paper's §VII.E overhead table.

use mandipass_util::json::Value;

use crate::clock;
use crate::metrics::Histogram;
use crate::span::SpanTree;

/// One [`Histogram`] of durations per span name, ordered by first
/// appearance in the tree.
pub fn stage_stats(tree: &SpanTree) -> Vec<(&'static str, Histogram)> {
    let mut stats = Vec::new();
    for span in tree.spans() {
        stage_histogram(&mut stats, span.name).observe(span.duration as f64);
    }
    stats
}

/// The histogram of stage `name` in `stages`, appended on first use.
pub(crate) fn stage_histogram<'a>(
    stages: &'a mut Vec<(&'static str, Histogram)>,
    name: &'static str,
) -> &'a Histogram {
    let index = match stages.iter().position(|(stage, _)| *stage == name) {
        Some(index) => index,
        None => {
            stages.push((name, Histogram::default()));
            stages.len() - 1
        }
    };
    &stages[index].1
}

/// Renders the span tree plus its per-stage statistics as one JSON
/// document:
///
/// ```json
/// {"unit": "ns", "deterministic": false,
///  "spans": [{"name": "verify", "start": 0, "dur": 1, "children": [...]}],
///  "stages": [{"name": "verify", "count": 1, "total_ns": 1, ...}]}
/// ```
///
/// In deterministic mode durations are logical ticks, not nanoseconds;
/// the `unit` field says which.
pub fn latency_report(tree: &SpanTree) -> Value {
    let deterministic = clock::is_deterministic();
    let stages = stage_stats(tree)
        .into_iter()
        .map(|(name, h)| {
            Value::Object(vec![
                ("name".to_string(), Value::String(name.to_string())),
                ("count".to_string(), Value::Number(h.count() as f64)),
                ("total_ns".to_string(), Value::Number(h.sum())),
                ("mean_ns".to_string(), Value::Number(h.mean())),
                ("min_ns".to_string(), Value::Number(h.min())),
                ("max_ns".to_string(), Value::Number(h.max())),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "unit".to_string(),
            Value::String(if deterministic { "ticks" } else { "ns" }.to_string()),
        ),
        ("deterministic".to_string(), Value::Bool(deterministic)),
        ("spans".to_string(), tree.to_json()),
        ("stages".to_string(), Value::Array(stages)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_sync::global_state_lock;
    use crate::{capture, span};

    #[test]
    fn stage_stats_aggregate_repeated_names() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let ((), tree) = capture(|| {
            for _ in 0..4 {
                let _root = span("verify");
                let _leaf = span("preprocess");
            }
        });
        crate::set_deterministic(false);
        let stats = stage_stats(&tree);
        assert_eq!(stats.len(), 2);
        let (verify, preprocess) = (&stats[0], &stats[1]);
        assert_eq!((verify.0, verify.1.count()), ("verify", 4));
        assert_eq!((preprocess.0, preprocess.1.count()), ("preprocess", 4));
        assert!(
            verify.1.mean() > preprocess.1.mean(),
            "parents outlast children"
        );
        assert!(verify.1.min() <= verify.1.max());
        assert_eq!(verify.1.sum(), 4.0 * verify.1.min());
    }

    #[test]
    fn latency_report_lists_every_stage() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let ((), tree) = capture(|| {
            let _a = span("preprocess");
        });
        let report = latency_report(&tree);
        crate::set_deterministic(false);
        assert_eq!(report.get("unit").and_then(Value::as_str), Some("ticks"));
        assert_eq!(
            report.get("deterministic").and_then(Value::as_bool),
            Some(true)
        );
        let stages = report.get("stages").and_then(Value::as_array).unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(
            stages[0].get("name").and_then(Value::as_str),
            Some("preprocess")
        );
    }
}
