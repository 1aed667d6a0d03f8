//! Continuous CPU profiling: a call-tree profiler fed by the span
//! layer.
//!
//! Every span close (when profiling is on) records its dot-joined path,
//! total duration, and *self* duration (total minus the time spent in
//! child spans) into a process-wide frame table. Each frame is a
//! [`Histogram`] of per-call total duration plus a self-time sum, so its
//! p50/p99 follow the workspace's one rank rule and error bound (see
//! [`Histogram`]). Each thread caches its frames' handles by key, so a
//! warm span close is a thread-local map lookup and relaxed atomic
//! adds; the table's mutex is taken only on a frame's first close on a
//! thread. [`reset`] zeroes the frames in place, keeping those handles
//! valid.
//!
//! Snapshots copy the table into a `BTreeMap` keyed by path, skipping
//! frames with no calls, so iteration — and therefore every export — is
//! deterministic regardless of which worker thread recorded first, and
//! every readout is a pure function of the recorded multiset: under the
//! deterministic logical clock two identical-seed in-process runs
//! produce bit-identical profiles, the same property the trace sampler
//! guarantees. A served profile is not: which worker runs which request,
//! and which ticks other code on that thread reads, vary with timing.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mandipass_util::json::Value;

use crate::metrics::Histogram;
use crate::switch::Switch;

/// Environment variable that switches the CPU profiler on (`1`, `on`,
/// `true` or `yes`, trimmed and in any case; anything else is off).
pub const PROFILE_ENV: &str = "MANDIPASS_PROFILE";

pub(crate) static ENABLED: Switch = Switch::new(PROFILE_ENV);

/// Whether the CPU profiler is recording. One relaxed atomic load once
/// initialised — this sits on the span fast path.
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Switches the profiler on or off programmatically, overriding the
/// environment.
pub fn set_enabled(on: bool) {
    ENABLED.set(on);
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

/// Statistics for one frame (one unique span path): a histogram of
/// per-call total duration (wall nanoseconds, or logical ticks in
/// deterministic mode) and the sum of self durations.
#[derive(Debug, Clone, Default)]
pub struct FrameStats {
    total: Histogram,
    self_nanos: Arc<AtomicU64>,
}

impl FrameStats {
    fn observe(&self, total: u64, self_nanos: u64) {
        self.total.observe(total as f64);
        self.self_nanos.fetch_add(self_nanos, Ordering::Relaxed);
    }

    /// An independent copy of the current counts.
    fn copy(&self) -> FrameStats {
        let copy = FrameStats::default();
        copy.total.merge(&self.total);
        copy.self_nanos.store(self.self_nanos(), Ordering::Relaxed);
        copy
    }

    /// Number of span closes recorded at this path.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// Sum of span durations.
    pub fn total_nanos(&self) -> u64 {
        self.total.sum() as u64
    }

    /// Sum of self durations (total minus time inside child spans).
    pub fn self_nanos(&self) -> u64 {
        self.self_nanos.load(Ordering::Relaxed)
    }

    /// The histogram of per-call total duration.
    pub fn histogram(&self) -> &Histogram {
        &self.total
    }

    /// The `count`, `total_nanos`, `self_nanos`, `p50_nanos` and
    /// `p99_nanos` members every export carries (quantiles read 0 for
    /// a frame with no calls).
    fn json_members(&self) -> Vec<(String, Value)> {
        let quantile = |q: f64| Value::Number(self.total.quantile(q).max(0.0));
        vec![
            ("count".to_string(), Value::Number(self.count() as f64)),
            (
                "total_nanos".to_string(),
                Value::Number(self.total_nanos() as f64),
            ),
            (
                "self_nanos".to_string(),
                Value::Number(self.self_nanos() as f64),
            ),
            ("p50_nanos".to_string(), quantile(0.50)),
            ("p99_nanos".to_string(), quantile(0.99)),
        ]
    }
}

/// Process-wide frame table, keyed by composed path. Entries are never
/// removed, so the handles threads cache stay live.
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

    /// This thread's handles into [`FRAMES`], by composed key.
    static FRAME_CACHE: RefCell<BTreeMap<String, FrameStats>> =
        const { RefCell::new(BTreeMap::new()) };
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
/// when [`enabled`]; `path` is the thread's dot-joined span path. Once
/// this thread has closed the frame before (and the key buffer is
/// warm), this is a thread-local lookup and atomic adds: no lock, no
/// allocation.
pub(crate) fn record(path: &str, total: u64, self_nanos: u64) {
    with_composed_key(path, |key| {
        FRAME_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(stats) = cache.get(key) {
                stats.observe(total, self_nanos);
                return;
            }
            let stats = frames_lock().entry(key.to_string()).or_default().clone();
            stats.observe(total, self_nanos);
            cache.insert(key.to_string(), stats);
        });
    });
}

/// Zeroes every recorded frame in place (the enabled flag is
/// untouched); frames with no calls drop out of snapshots.
pub fn reset() {
    for stats in frames_lock().values() {
        stats.total.clear();
        stats.self_nanos.store(0, Ordering::Relaxed);
    }
}

/// An immutable snapshot of the frame table.
#[derive(Debug, Clone, Default)]
pub struct CpuProfile {
    frames: BTreeMap<String, FrameStats>,
}

/// Snapshots the current frame table without clearing it.
pub fn snapshot() -> CpuProfile {
    let frames = frames_lock()
        .iter()
        .filter(|(_, stats)| stats.count() > 0)
        .map(|(path, stats)| (path.clone(), stats.copy()))
        .collect();
    CpuProfile { frames }
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
            out.push_str(&stats.self_nanos().to_string());
            out.push('\n');
        }
        out
    }

    /// The top `k` frames by self time, descending (ties broken by
    /// path, so the ranking is deterministic).
    pub fn top_self(&self, k: usize) -> Vec<(&str, &FrameStats)> {
        let mut ranked: Vec<(&str, &FrameStats)> =
            self.frames.iter().map(|(p, s)| (p.as_str(), s)).collect();
        ranked.sort_by(|a, b| b.1.self_nanos().cmp(&a.1.self_nanos()).then(a.0.cmp(b.0)));
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
        struct Node<'a> {
            stats: Option<&'a FrameStats>,
            children: BTreeMap<&'a str, Node<'a>>,
        }
        let mut root = Node::default();
        for (path, stats) in &self.frames {
            let mut node = &mut root;
            for part in path.split('.') {
                node = node.children.entry(part).or_default();
            }
            node.stats = Some(stats);
        }
        fn render(name: &str, node: &Node, empty: &FrameStats) -> Value {
            let mut members = vec![("name".to_string(), Value::String(name.to_string()))];
            members.extend(node.stats.unwrap_or(empty).json_members());
            if !node.children.is_empty() {
                let children = node.children.iter().map(|(n, c)| render(n, c, empty));
                members.push(("children".to_string(), Value::Array(children.collect())));
            }
            Value::Object(members)
        }
        let empty = FrameStats::default();
        let frames = root.children.iter().map(|(n, c)| render(n, c, &empty));
        Value::Object(vec![("frames".to_string(), Value::Array(frames.collect()))])
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
            .map(|(path, stats)| (path.clone(), Value::Object(stats.json_members())))
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
    fn frame_quantiles_read_the_histogram() {
        let stats = FrameStats::default();
        for d in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            stats.observe(d, d);
        }
        assert_eq!(
            (stats.count(), stats.total_nanos(), stats.self_nanos()),
            (10, 1009, 1009)
        );
        assert_eq!(stats.histogram().quantile(0.5), 1.0);
        // The 99th percentile rank (ceil(9.9) = 10) is the exact max.
        assert_eq!(stats.histogram().quantile(0.99), 1000.0);
        let json = Value::Object(FrameStats::default().json_members()).to_json();
        assert!(json.contains("\"p50_nanos\":0"), "{json}");
    }

    #[test]
    fn a_handle_cached_before_reset_records_into_the_next_snapshot() {
        let _lock = global_state_lock();
        reset();
        record("cached.frame", 7, 7);
        reset();
        assert!(!snapshot().frames().contains_key("cached.frame"));
        record("cached.frame", 9, 4);
        let snap = snapshot();
        let stats = &snap.frames()["cached.frame"];
        assert_eq!(
            (stats.count(), stats.total_nanos(), stats.self_nanos()),
            (1, 9, 4)
        );
        reset();
    }

    #[test]
    fn a_warm_close_takes_no_lock() {
        let _lock = global_state_lock();
        reset();
        let (to_worker, from_main) = std::sync::mpsc::channel::<()>();
        let (to_main, from_worker) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            record("warm.frame", 1, 1);
            to_main.send(()).unwrap();
            from_main.recv().unwrap();
            for _ in 0..100 {
                record("warm.frame", 1, 1);
            }
            to_main.send(()).unwrap();
        });
        from_worker.recv().unwrap();
        // With the table locked here, the worker's warm closes must
        // still complete.
        let table = frames_lock();
        to_worker.send(()).unwrap();
        let done = from_worker.recv_timeout(std::time::Duration::from_secs(10));
        drop(table);
        worker.join().unwrap();
        assert!(done.is_ok(), "a warm close waited on the frame table");
        assert_eq!(snapshot().frames()["warm.frame"].count(), 101);
        reset();
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
        assert_eq!(snap.frames()["verify.extract"].count(), 1);
        assert_eq!(snap.frames()["worker7.verify.extract"].count(), 1);
        assert_eq!(snap.frames()["worker7.verify.extract"].total_nanos(), 20);
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
}
