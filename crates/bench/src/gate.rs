//! The one BENCH document shape, its checker and its comparator.
//!
//! Every bench artifact is `BENCH_<kind>.json`:
//!
//! ```text
//! {"schema": "mandipass.bench/v2", "kind", "scale",
//!  "metrics": {dotted.name: number | bool | string},
//!  "gates": [{"metric", "kind", "over"?, "min"?, "max"?, "above"?, "below"?}],
//!  "profile"?, "detail"?}
//! ```
//!
//! A gate's `kind` is one of
//!
//! * `absolute`: the metric lies within the bounds;
//! * `same_run_ratio`: the metric against `bound ×` the metric named by
//!   `over`, from the same run, so the gate holds on any machine;
//! * `ratio_vs_baseline`: the fresh metric against `bound ×` the
//!   committed baseline's;
//! * `bool`: the metric is `true`;
//! * `digest`: the metric, a string, equals the baseline's.
//!
//! `min`/`max` are inclusive bounds and `above`/`below` exclusive ones.
//! [`check`] enforces what a document can judge alone: every gated
//! metric is present with the right type, and its absolute, same-run
//! and bool gates hold. [`compare`] adds the baseline gates and reads
//! their bounds from the committed baseline, which must declare exactly
//! the fresh document's gate list, so a producer cannot drop a gate
//! without the baseline changing with it.

use mandipass_util::json::Value;

/// Schema tag of every bench document.
pub const SCHEMA: &str = "mandipass.bench/v2";

/// Whether a value meets a bound's limit.
type Holds = fn(f64, f64) -> bool;

/// Each bound key and what it demands of a value against its limit;
/// NaN meets none of them.
const BOUNDS: [(&str, Holds); 4] = [
    ("min", |value, limit| value >= limit),
    ("max", |value, limit| value <= limit),
    ("above", |value, limit| value > limit),
    ("below", |value, limit| value < limit),
];

/// The gate kinds that take bounds.
const NUMERIC: [&str; 3] = ["absolute", "same_run_ratio", "ratio_vs_baseline"];

/// One declared gate, as it appears in a document: a kind constructor,
/// then its bounds.
#[derive(Debug)]
pub struct Gate(Vec<(String, Value)>);

impl Gate {
    fn new(metric: impl Into<String>, kind: &str) -> Self {
        Gate(vec![
            ("metric".to_string(), Value::String(metric.into())),
            ("kind".to_string(), Value::String(kind.to_string())),
        ])
    }

    fn with(mut self, key: &str, value: Value) -> Self {
        self.0.push((key.to_string(), value));
        self
    }

    /// The metric within the bounds.
    pub fn absolute(metric: impl Into<String>) -> Self {
        Self::new(metric, "absolute")
    }

    /// The metric within the bounds times `over` from the same run.
    pub fn same_run(metric: impl Into<String>, over: impl Into<String>) -> Self {
        Self::new(metric, "same_run_ratio").with("over", Value::String(over.into()))
    }

    /// The metric within the bounds times the baseline's value.
    pub fn vs_baseline(metric: impl Into<String>) -> Self {
        Self::new(metric, "ratio_vs_baseline")
    }

    /// The metric is `true`.
    pub fn bool(metric: impl Into<String>) -> Self {
        Self::new(metric, "bool")
    }

    /// The metric equals the baseline's.
    pub fn digest(metric: impl Into<String>) -> Self {
        Self::new(metric, "digest")
    }

    /// Inclusive lower bound.
    pub fn min(self, limit: f64) -> Self {
        self.with("min", Value::Number(limit))
    }

    /// Inclusive upper bound.
    pub fn max(self, limit: f64) -> Self {
        self.with("max", Value::Number(limit))
    }

    /// Exclusive lower bound.
    pub fn above(self, limit: f64) -> Self {
        self.with("above", Value::Number(limit))
    }

    /// Exclusive upper bound.
    pub fn below(self, limit: f64) -> Self {
        self.with("below", Value::Number(limit))
    }
}

/// Assembles a bench document. `metrics` is a tree of objects whose
/// numeric, bool and string leaves become metrics under their dotted
/// paths; nulls, non-finite numbers and arrays are left out.
pub fn document(
    kind: &str,
    scale: &str,
    metrics: &Value,
    gates: &[Gate],
    profile: Option<Value>,
    detail: Option<Value>,
) -> Value {
    let mut flat = Vec::new();
    flatten("", metrics, &mut flat);
    let gates = gates.iter().map(|g| Value::Object(g.0.clone())).collect();
    let mut doc = vec![
        ("schema".to_string(), Value::String(SCHEMA.to_string())),
        ("kind".to_string(), Value::String(kind.to_string())),
        ("scale".to_string(), Value::String(scale.to_string())),
        ("metrics".to_string(), Value::Object(flat)),
        ("gates".to_string(), Value::Array(gates)),
    ];
    doc.extend(profile.map(|p| ("profile".to_string(), p)));
    doc.extend(detail.map(|d| ("detail".to_string(), d)));
    Value::Object(doc)
}

/// Numeric metrics as `(name, value)` members of a metrics object.
pub fn numbers(fields: &[(&str, f64)]) -> Vec<(String, Value)> {
    fields
        .iter()
        .map(|&(name, value)| (name.to_string(), Value::Number(value)))
        .collect()
}

fn flatten(prefix: &str, node: &Value, out: &mut Vec<(String, Value)>) {
    match node {
        Value::Object(members) => {
            for (key, value) in members {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten(&path, value, out);
            }
        }
        Value::Number(n) if !n.is_finite() => {}
        Value::Number(_) | Value::Bool(_) | Value::String(_) => {
            out.push((prefix.to_string(), node.clone()));
        }
        Value::Null | Value::Array(_) => {}
    }
}

/// A document that passed the shape check.
struct Doc<'a> {
    kind: &'a str,
    metrics: &'a [(String, Value)],
    gates: &'a [Value],
}

impl<'a> Doc<'a> {
    fn parse(doc: &'a Value) -> Result<Self, String> {
        let text = |key: &str| {
            doc.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("missing \"{key}\""))
        };
        let schema = text("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema \"{schema}\" is not \"{SCHEMA}\""));
        }
        text("scale")?;
        match (doc.get("metrics"), doc.get("gates")) {
            (Some(Value::Object(metrics)), Some(Value::Array(gates))) if !gates.is_empty() => {
                Ok(Doc {
                    kind: text("kind")?,
                    metrics,
                    gates,
                })
            }
            _ => Err("needs a \"metrics\" object and a non-empty \"gates\" array".to_string()),
        }
    }

    fn metric(&self, name: &str) -> Result<&'a Value, String> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("metric {name} is missing"))
    }

    fn number(&self, name: &str) -> Result<f64, String> {
        self.metric(name)?
            .as_f64()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} is not a finite number"))
    }

    /// Every violated gate. Without a baseline, `ratio_vs_baseline` and
    /// `digest` gates only require their metric.
    fn violations(&self, baseline: Option<&Doc>) -> Vec<String> {
        let mut out = Vec::new();
        for gate in self.gates {
            if let Err(e) = self.judge(gate, baseline, &mut out) {
                out.push(e);
            }
        }
        out
    }

    fn judge(&self, gate: &Value, base: Option<&Doc>, out: &mut Vec<String>) -> Result<(), String> {
        let field = |key: &str| gate.get(key).and_then(Value::as_str);
        let name = field("metric").ok_or("gate without a \"metric\"")?;
        let kind = field("kind").unwrap_or("");
        let mut bounds = Vec::new();
        for (key, holds) in BOUNDS {
            if let Some(limit) = gate.get(key) {
                let limit = limit
                    .as_f64()
                    .ok_or_else(|| format!("gate on {name}: {key} is not a number"))?;
                bounds.push((key, holds, limit));
            }
        }
        if bounds.is_empty() == NUMERIC.contains(&kind) {
            return Err(format!("gate on {name}: wrong bounds for kind {kind:?}"));
        }
        let (value, reference, what) = match kind {
            "absolute" => (self.number(name)?, 1.0, String::new()),
            "same_run_ratio" => {
                let over = field("over").ok_or_else(|| format!("gate on {name}: no \"over\""))?;
                let reference = self.number(over)?;
                (
                    self.number(name)?,
                    reference,
                    format!(" x {over} ({reference})"),
                )
            }
            "ratio_vs_baseline" => {
                let value = self.number(name)?;
                let Some(base) = base else { return Ok(()) };
                let reference = base.number(name)?;
                (value, reference, format!(" x baseline ({reference})"))
            }
            "bool" => {
                return match self.metric(name)? {
                    Value::Bool(true) => Ok(()),
                    other => Err(format!("{name} is {}, expected true", other.to_json())),
                }
            }
            "digest" => {
                let digest = self.metric(name)?;
                if digest.as_str().is_none() {
                    return Err(format!("metric {name} is not a digest string"));
                }
                return match base.map(|b| b.metric(name)).transpose()? {
                    Some(expected) if expected != digest => Err(format!(
                        "{name} = {} differs from baseline {}",
                        digest.to_json(),
                        expected.to_json()
                    )),
                    _ => Ok(()),
                };
            }
            other => return Err(format!("gate on {name}: unknown kind {other:?}")),
        };
        for (key, holds, limit) in bounds {
            if !holds(value, limit * reference) {
                out.push(format!("{name} = {value} fails {key} {limit}{what}"));
            }
        }
        Ok(())
    }
}

fn verdict(violations: Vec<String>) -> Result<(), String> {
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

/// Checks a document's shape and every gate it can judge alone.
///
/// # Errors
///
/// Returns every violation, one per line.
pub fn check(doc: &Value) -> Result<(), String> {
    verdict(Doc::parse(doc)?.violations(None))
}

/// Checks the baseline alone and the fresh document against it. The
/// two must be of one kind and declare the same gate list, so every
/// bound is the committed baseline's.
///
/// # Errors
///
/// Returns every violation, one per line.
pub fn compare(fresh: &Value, baseline: &Value) -> Result<(), String> {
    let new = Doc::parse(fresh).map_err(|e| format!("fresh: {e}"))?;
    let base = Doc::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    if new.kind != base.kind {
        return Err(format!(
            "kind mismatch: fresh {}, baseline {}",
            new.kind, base.kind
        ));
    }
    if new.gates != base.gates {
        let first = new.gates.iter().zip(base.gates).find(|(a, b)| a != b);
        return Err(match first {
            Some((a, b)) => format!(
                "gate lists differ: fresh {} vs {}",
                a.to_json(),
                b.to_json()
            ),
            None => format!(
                "gate lists differ: fresh {} vs {}",
                new.gates.len(),
                base.gates.len()
            ),
        });
    }
    let mut out: Vec<String> = base
        .violations(None)
        .into_iter()
        .map(|v| format!("baseline: {v}"))
        .collect();
    out.extend(new.violations(Some(&base)));
    verdict(out)
}

/// Writes `doc` to `BENCH_<kind>.json` in the working directory and
/// returns that path.
///
/// # Errors
///
/// Fails when the document has no kind or the write fails.
pub fn write(doc: &Value) -> std::io::Result<String> {
    let kind = doc.get("kind").and_then(Value::as_str).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "bench document has no kind",
        )
    })?;
    let path = format!("BENCH_{kind}.json");
    std::fs::write(&path, doc.to_json() + "\n")?;
    Ok(path)
}

/// 64-bit FNV-1a of `bytes` as 16 hex digits: the accuracy document's
/// decision digest.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(metrics: Vec<(&str, Value)>, gates: &[Gate]) -> Value {
        let metrics = Value::Object(
            metrics
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        document("test", "unit", &metrics, gates, None, None)
    }

    #[test]
    fn every_gate_kind_survives_a_json_round_trip() {
        let gates = [
            Gate::absolute("a").min(0.0).max(1.0),
            Gate::same_run("a", "b").below(1.0),
            Gate::vs_baseline("b").above(0.5),
            Gate::bool("c"),
            Gate::digest("d"),
        ];
        let d = doc(
            vec![
                ("a", Value::Number(0.5)),
                ("b", Value::Number(2.0)),
                ("c", Value::Bool(true)),
                ("d", Value::String("00".to_string())),
            ],
            &gates,
        );
        let parsed = mandipass_util::json::parse(&d.to_json()).unwrap();
        check(&parsed).unwrap();
        compare(&parsed, &d).unwrap();
    }

    #[test]
    fn malformed_gates_are_rejected() {
        let metrics = || vec![("x", Value::Number(1.0))];
        for gate in [
            Gate::absolute("x"),
            Gate::bool("x").min(0.0),
            Gate::new("x", "ratio").min(0.0),
            Gate::absolute("x").with("min", Value::String("0".to_string())),
            Gate::same_run("x", "nowhere").min(0.0),
        ] {
            assert!(
                check(&doc(metrics(), std::slice::from_ref(&gate))).is_err(),
                "{gate:?}"
            );
        }
    }

    #[test]
    fn exclusive_and_inclusive_bounds_differ_at_the_limit() {
        let at_zero = |gate: Gate| check(&doc(vec![("x", Value::Number(0.0))], &[gate]));
        assert!(at_zero(Gate::absolute("x").min(0.0)).is_ok());
        assert!(at_zero(Gate::absolute("x").above(0.0)).is_err());
        assert!(at_zero(Gate::absolute("x").max(0.0)).is_ok());
        assert!(at_zero(Gate::absolute("x").below(0.0)).is_err());
    }

    #[test]
    fn a_fresh_document_cannot_drop_a_gate() {
        let metrics = vec![("x", Value::Number(1.0)), ("y", Value::Number(1.0))];
        let baseline = doc(
            metrics.clone(),
            &[
                Gate::absolute("x").min(0.0),
                Gate::vs_baseline("y").min(0.5),
            ],
        );
        let fresh = doc(metrics, &[Gate::absolute("x").min(0.0)]);
        let err = compare(&fresh, &baseline).unwrap_err();
        assert!(err.contains("gate lists differ"), "{err}");
    }

    #[test]
    fn one_flipped_decision_trips_the_digest_gate() {
        // The accuracy document's trail: one decision byte plus the
        // distance bits per verify.
        let trail = |decisions: &[bool]| -> Vec<u8> {
            decisions
                .iter()
                .flat_map(|&accepted| {
                    std::iter::once(u8::from(accepted)).chain(0.25_f64.to_bits().to_le_bytes())
                })
                .collect()
        };
        let accuracy = |decisions: &[bool]| {
            doc(
                vec![("digest", Value::String(fnv1a_hex(&trail(decisions))))],
                &[Gate::digest("digest")],
            )
        };
        let baseline = accuracy(&[true, false, true, true]);
        compare(&accuracy(&[true, false, true, true]), &baseline).unwrap();
        let err = compare(&accuracy(&[true, true, true, true]), &baseline).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
