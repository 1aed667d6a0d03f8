//! Continuous CPU profiling: a call-tree profiler fed by the span
//! layer.
//!
//! Every span close (when profiling is on) records its dot-joined path,
//! total duration, and *self* duration (total minus the time spent in
//! child spans) into a process-wide frame table. The table is a
//! `BTreeMap` keyed by path, so iteration — and therefore every export
//! — is deterministic regardless of which worker thread merged first.
//! Per-frame durations are additionally bucketed into a power-of-two
//! log histogram, which makes the p50/p99 readouts a pure function of
//! the recorded multiset: under the deterministic logical clock two
//! identical-seed runs produce bit-identical profiles, the same
//! property the trace sampler guarantees.
//!
//! There are no signals, no syscalls, and no timers here: the profiler
//! is exact (every span close is counted, nothing is sampled) and the
//! only cost when disabled is the relaxed atomic load folded into
//! [`crate::span()`]'s existing early-out.
//!
//! Worker threads label their subtree with [`set_thread_root`]; the
//! serve worker pool uses this so per-worker profiles merge under
//! `worker0.…`, `worker1.…` roots instead of colliding.
//!
//! Export formats:
//! * [`CpuProfile::folded`] — Brendan-Gregg folded-stack lines
//!   (`frame;frame;frame <self_nanos>`), one line per frame, ready for
//!   `flamegraph.pl` or speedscope.
//! * [`CpuProfile::to_json`] — a nested call tree with per-frame
//!   `count` / `total` / `self` / `p50` / `p99`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use mandipass_util::json::Value;

/// Environment variable that switches the CPU profiler on
/// (`1`/`on`/`true`; anything else stays off, so a typo can never
/// enable profiling in production).
pub const PROFILE_ENV: &str = "MANDIPASS_PROFILE";

/// 0 = uninitialised (read the environment on first touch),
/// 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

fn init_from_env() -> u8 {
    let on = std::env::var(PROFILE_ENV)
        .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "on" | "true"))
        .unwrap_or(false);
    let byte = if on { 2 } else { 1 };
    // First initialiser wins; racing threads parsed the same value.
    let _ = ENABLED.compare_exchange(0, byte, Ordering::Relaxed, Ordering::Relaxed);
    ENABLED.load(Ordering::Relaxed)
}

/// Whether the CPU profiler is recording. One relaxed atomic load once
/// initialised — this sits on the span fast path.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_from_env() == 2,
        b => b == 2,
    }
}

/// Switches the profiler on or off programmatically, overriding the
/// environment.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

thread_local! {
    /// Optional per-thread root frame prepended to every recorded path.
    static ROOT_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Labels every frame recorded by the current thread with `label` as a
/// synthetic root (`label.path`). Worker pools call this once at thread
/// start so concurrent per-worker profiles merge losslessly instead of
/// aliasing.
pub fn set_thread_root(label: &str) {
    ROOT_LABEL.with(|slot| *slot.borrow_mut() = Some(label.to_string()));
}

/// Removes the current thread's root label.
pub fn clear_thread_root() {
    ROOT_LABEL.with(|slot| *slot.borrow_mut() = None);
}

/// Aggregated statistics for one frame (one unique span path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStats {
    /// Number of span closes recorded at this path.
    pub count: u64,
    /// Sum of span durations (wall nanoseconds, or logical ticks in
    /// deterministic mode).
    pub total_nanos: u64,
    /// Sum of self durations (total minus time inside child spans).
    pub self_nanos: u64,
    /// Log2 histogram of per-call total duration: bucket `i` counts
    /// calls with duration in `[2^(i-1), 2^i)` (bucket 0 = zero).
    buckets: [u64; 64],
}

impl Default for FrameStats {
    fn default() -> Self {
        FrameStats {
            count: 0,
            total_nanos: 0,
            self_nanos: 0,
            buckets: [0; 64],
        }
    }
}

fn bucket_index(duration: u64) -> usize {
    if duration == 0 {
        0
    } else {
        (64 - duration.leading_zeros() as usize).min(63)
    }
}

/// Lower bound of a bucket, the value quantile readouts report.
fn bucket_floor(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

impl FrameStats {
    fn observe(&mut self, total: u64, self_nanos: u64) {
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(total);
        self.self_nanos = self.self_nanos.saturating_add(self_nanos);
        self.buckets[bucket_index(total)] += 1;
    }

    /// Adds `other`'s samples into `self` (losslessly: counts, sums,
    /// and histogram buckets all add).
    pub fn merge(&mut self, other: &FrameStats) {
        self.count += other.count;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.self_nanos = self.self_nanos.saturating_add(other.self_nanos);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// The `q`-quantile (0 < q <= 1) of per-call total duration,
    /// resolved to its bucket's lower bound — a deterministic function
    /// of the recorded multiset.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(63)
    }
}

/// Process-wide frame table. A `BTreeMap` so every iteration order —
/// folded output, JSON, top-k — is deterministic.
static FRAMES: Mutex<BTreeMap<String, FrameStats>> = Mutex::new(BTreeMap::new());

fn frames_lock() -> std::sync::MutexGuard<'static, BTreeMap<String, FrameStats>> {
    FRAMES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// Scratch buffer for composing `root.path` keys without a fresh
    /// allocation per span close (capacity is retained).
    static KEY_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Runs `f` with the current thread's composed frame key for `path`
/// (root label applied). Shared with the allocation profiler so both
/// profiles attribute to identical keys.
///
/// Reentrancy: the only allocations under the `KEY_BUF` borrow happen
/// inside `f`, and both callers (`record` below and the allocation
/// hook) are shielded from re-entering — `record` runs inside the span
/// drop's `STATE` borrow, which makes the allocation hook's span-path
/// lookup bail out, and the hook itself holds its `IN_HOOK` guard.
pub(crate) fn with_composed_key<R>(path: &str, f: impl FnOnce(&str) -> R) -> R {
    ROOT_LABEL.with(|slot| match slot.borrow().as_deref() {
        Some(root) => KEY_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            buf.push_str(root);
            buf.push('.');
            buf.push_str(path);
            f(&buf)
        }),
        None => f(path),
    })
}

/// Records one span close. Called from [`crate::span`]'s drop path only
/// when [`enabled`]; `path` is the thread's dot-joined span path. In
/// the steady state (frame already known, key buffer warm) this is one
/// mutex lock and a map update — no allocation.
pub(crate) fn record(path: &str, total: u64, self_nanos: u64) {
    with_composed_key(path, |key| {
        let mut frames = frames_lock();
        if let Some(stats) = frames.get_mut(key) {
            stats.observe(total, self_nanos);
        } else {
            let mut stats = FrameStats::default();
            stats.observe(total, self_nanos);
            frames.insert(key.to_string(), stats);
        }
    });
}

/// Clears every recorded frame (the enabled flag is untouched).
pub fn reset() {
    frames_lock().clear();
}

/// An immutable snapshot of the frame table.
#[derive(Debug, Clone, Default)]
pub struct CpuProfile {
    frames: BTreeMap<String, FrameStats>,
}

/// Snapshots the current frame table without clearing it.
pub fn snapshot() -> CpuProfile {
    CpuProfile {
        frames: frames_lock().clone(),
    }
}

impl CpuProfile {
    /// The frames, keyed by dot-joined path, in lexicographic order.
    pub fn frames(&self) -> &BTreeMap<String, FrameStats> {
        &self.frames
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Brendan-Gregg folded-stack lines: one `a;b;c <self_nanos>` line
    /// per frame. Self (exclusive) time is the conventional folded
    /// value — summing a subtree reconstructs inclusive time.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, stats) in &self.frames {
            out.push_str(&path.replace('.', ";"));
            out.push(' ');
            out.push_str(&stats.self_nanos.to_string());
            out.push('\n');
        }
        out
    }

    /// The top `k` frames by self time, descending (ties broken by
    /// path, so the ranking is deterministic).
    pub fn top_self(&self, k: usize) -> Vec<(&str, &FrameStats)> {
        let mut ranked: Vec<(&str, &FrameStats)> =
            self.frames.iter().map(|(p, s)| (p.as_str(), s)).collect();
        ranked.sort_by(|a, b| b.1.self_nanos.cmp(&a.1.self_nanos).then(a.0.cmp(b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Serialises the profile as a nested call tree:
    /// `{"frames": [{"name", "count", "total", "self", "p50", "p99",
    /// "children": [...]}, ...]}`. Paths whose parents were never
    /// recorded (for example a worker root label) get implicit
    /// zero-stat nodes.
    pub fn to_json(&self) -> Value {
        #[derive(Default)]
        struct Node {
            stats: Option<FrameStats>,
            children: BTreeMap<String, Node>,
        }
        let mut root = Node::default();
        for (path, stats) in &self.frames {
            let mut node = &mut root;
            for part in path.split('.') {
                node = node.children.entry(part.to_string()).or_default();
            }
            node.stats = Some(stats.clone());
        }
        fn render(name: &str, node: &Node) -> Value {
            let stats = node.stats.clone().unwrap_or_default();
            let mut members = vec![
                ("name".to_string(), Value::String(name.to_string())),
                ("count".to_string(), Value::Number(stats.count as f64)),
                (
                    "total_nanos".to_string(),
                    Value::Number(stats.total_nanos as f64),
                ),
                (
                    "self_nanos".to_string(),
                    Value::Number(stats.self_nanos as f64),
                ),
                (
                    "p50_nanos".to_string(),
                    Value::Number(stats.quantile(0.50) as f64),
                ),
                (
                    "p99_nanos".to_string(),
                    Value::Number(stats.quantile(0.99) as f64),
                ),
            ];
            if !node.children.is_empty() {
                members.push((
                    "children".to_string(),
                    Value::Array(node.children.iter().map(|(n, c)| render(n, c)).collect()),
                ));
            }
            Value::Object(members)
        }
        Value::Object(vec![(
            "frames".to_string(),
            Value::Array(root.children.iter().map(|(n, c)| render(n, c)).collect()),
        )])
    }

    /// A flat, compact summary for embedding in BENCH artifacts:
    /// `{"unit": "...", "frames": {path: {count, total_nanos,
    /// self_nanos, p50_nanos, p99_nanos}}}`.
    pub fn summary_json(&self) -> Value {
        let unit = if crate::clock::is_deterministic() {
            "logical_ticks"
        } else {
            "nanos"
        };
        let frames = self
            .frames
            .iter()
            .map(|(path, stats)| {
                (
                    path.clone(),
                    Value::Object(vec![
                        ("count".to_string(), Value::Number(stats.count as f64)),
                        (
                            "total_nanos".to_string(),
                            Value::Number(stats.total_nanos as f64),
                        ),
                        (
                            "self_nanos".to_string(),
                            Value::Number(stats.self_nanos as f64),
                        ),
                        (
                            "p50_nanos".to_string(),
                            Value::Number(stats.quantile(0.50) as f64),
                        ),
                        (
                            "p99_nanos".to_string(),
                            Value::Number(stats.quantile(0.99) as f64),
                        ),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("unit".to_string(), Value::String(unit.to_string())),
            ("frames".to_string(), Value::Object(frames)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_sync::global_state_lock;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(2), 2);
        assert_eq!(bucket_floor(3), 4);
    }

    #[test]
    fn quantiles_resolve_to_bucket_floors() {
        let mut stats = FrameStats::default();
        for d in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            stats.observe(d, d);
        }
        assert_eq!(stats.count, 10);
        assert_eq!(stats.quantile(0.5), 1);
        // The 99th percentile rank (ceil(9.9) = 10) lands in the
        // 1000-duration bucket, whose floor is 512.
        assert_eq!(stats.quantile(0.99), 512);
        assert_eq!(FrameStats::default().quantile(0.5), 0);
    }

    #[test]
    fn record_respects_thread_root_labels() {
        let _lock = global_state_lock();
        reset();
        record("verify.extract", 10, 4);
        set_thread_root("worker7");
        record("verify.extract", 20, 6);
        clear_thread_root();
        let snap = snapshot();
        assert_eq!(snap.frames()["verify.extract"].count, 1);
        assert_eq!(snap.frames()["worker7.verify.extract"].count, 1);
        assert_eq!(snap.frames()["worker7.verify.extract"].total_nanos, 20);
        reset();
    }

    #[test]
    fn folded_output_joins_with_semicolons() {
        let _lock = global_state_lock();
        reset();
        record("a.b", 5, 3);
        record("a", 9, 4);
        let folded = snapshot().folded();
        assert_eq!(folded, "a 4\na;b 3\n");
        reset();
    }

    #[test]
    fn json_tree_inserts_implicit_parents() {
        let _lock = global_state_lock();
        reset();
        set_thread_root("w0");
        record("serve.verify", 8, 8);
        clear_thread_root();
        let json = snapshot().to_json().to_json();
        // The w0 and serve frames were never recorded directly but
        // still appear as zero-stat structural nodes.
        assert!(json.contains("\"name\":\"w0\""), "{json}");
        assert!(json.contains("\"name\":\"serve\""), "{json}");
        assert!(json.contains("\"name\":\"verify\""), "{json}");
        reset();
    }

    #[test]
    fn top_self_ranks_descending_with_deterministic_ties() {
        let _lock = global_state_lock();
        reset();
        record("beta", 5, 5);
        record("alpha", 5, 5);
        record("gamma", 50, 50);
        let snap = snapshot();
        let top: Vec<&str> = snap.top_self(3).into_iter().map(|(p, _)| p).collect();
        assert_eq!(top, ["gamma", "alpha", "beta"]);
        reset();
    }

    #[test]
    fn merge_is_lossless() {
        let mut a = FrameStats::default();
        let mut b = FrameStats::default();
        a.observe(3, 1);
        b.observe(300, 100);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 2);
        assert_eq!(merged.total_nanos, 303);
        assert_eq!(merged.self_nanos, 101);
        assert_eq!(merged.buckets.iter().sum::<u64>(), 2);
    }
}
