//! Structured spans: nested scopes with monotonic timing.
//!
//! [`span`] opens a scope on a thread-local stack and returns a
//! [`SpanGuard`]; dropping the guard (normally or during unwinding)
//! closes the scope and computes the duration. A span has two
//! consumers: [`capture`], which retains every span closed on the
//! current thread and returns them as a [`SpanTree`] — the structure
//! behind the per-stage latency reports and the bit-stable determinism
//! assertions — and the CPU profiler ([`crate::profile`]) while it
//! records. With neither active a span is inert.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use mandipass_util::json::Value;

use crate::clock;

/// One closed (or still-open, duration 0) span inside a [`SpanTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's own name.
    pub name: &'static str,
    /// Dot-joined path from the outermost open span.
    pub path: String,
    /// Nesting depth (1 = root).
    pub depth: usize,
    /// Start timestamp (wall nanoseconds, or logical ticks in
    /// deterministic mode).
    pub start: u64,
    /// `end - start`, same unit as `start`.
    pub duration: u64,
    /// Index of the enclosing captured span, if any.
    pub parent: Option<usize>,
}

/// The spans recorded by one [`capture`], in open order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanTree {
    spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// All recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Sum of durations of spans named `name`.
    pub fn total_duration(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration)
            .sum()
    }

    /// Serialises the tree as nested JSON:
    /// `[{"name", "start", "dur", "children": [...]}, ...]`.
    pub fn to_json(&self) -> Value {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            match span.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        fn node(tree: &SpanTree, children: &[Vec<usize>], i: usize) -> Value {
            let span = &tree.spans[i];
            let mut members = vec![
                ("name".to_string(), Value::String(span.name.to_string())),
                ("start".to_string(), Value::Number(span.start as f64)),
                ("dur".to_string(), Value::Number(span.duration as f64)),
            ];
            if !children[i].is_empty() {
                members.push((
                    "children".to_string(),
                    Value::Array(
                        children[i]
                            .iter()
                            .map(|&c| node(tree, children, c))
                            .collect(),
                    ),
                ));
            }
            Value::Object(members)
        }
        Value::Array(roots.iter().map(|&r| node(self, &children, r)).collect())
    }
}

/// One open span on the thread's stack.
struct OpenSpan {
    start: u64,
    /// Index into the capture buffer, when capturing.
    record: Option<usize>,
    /// Length of the thread path *before* this span was appended.
    path_len: usize,
    /// Sum of durations of directly nested spans that already closed;
    /// `duration - child_nanos` is this span's *self* time, the value
    /// the CPU profiler attributes to the frame itself.
    child_nanos: u64,
}

#[derive(Default)]
struct ThreadState {
    stack: Vec<OpenSpan>,
    path: String,
    records: Vec<SpanRecord>,
    capturing: bool,
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

/// Number of threads currently inside [`capture`]; lets [`span`] skip
/// the thread-local entirely when the profiler is off and nothing
/// captures.
static CAPTURING_THREADS: AtomicUsize = AtomicUsize::new(0);

/// RAII guard returned by [`span`]; closes the scope on drop.
///
/// Not `Send`: the guard must drop on the thread that opened the span.
#[derive(Debug)]
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    active: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    const INERT: SpanGuard = SpanGuard {
        active: false,
        _not_send: std::marker::PhantomData,
    };
}

/// Opens a span named `name`. When the profiler is off and nothing is
/// capturing, this is two relaxed atomic loads and returns an inert
/// guard.
pub fn span(name: &'static str) -> SpanGuard {
    let profiling = crate::profile::enabled();
    if !profiling && CAPTURING_THREADS.load(Ordering::Relaxed) == 0 {
        return SpanGuard::INERT;
    }
    STATE.with(|cell| {
        let mut state = cell.borrow_mut();
        if !profiling && !state.capturing {
            // Some *other* thread is capturing; this one stays inert.
            return SpanGuard::INERT;
        }
        let path_len = state.path.len();
        if !state.path.is_empty() {
            state.path.push('.');
        }
        state.path.push_str(name);
        let start = clock::now();
        let record = if state.capturing {
            let parent = state.stack.iter().rev().find_map(|open| open.record);
            let depth = state.stack.len() + 1;
            let path = state.path.clone();
            state.records.push(SpanRecord {
                name,
                path,
                depth,
                start,
                duration: 0,
                parent,
            });
            Some(state.records.len() - 1)
        } else {
            None
        };
        state.stack.push(OpenSpan {
            start,
            record,
            path_len,
            child_nanos: 0,
        });
        SpanGuard {
            active: true,
            _not_send: std::marker::PhantomData,
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        // try_with: never panic out of a destructor during thread
        // teardown (the TLS value may already be gone).
        let _ = STATE.try_with(|cell| {
            let mut state = cell.borrow_mut();
            let Some(open) = state.stack.pop() else {
                return;
            };
            let duration = clock::now().saturating_sub(open.start);
            // Feed the enclosing span's self-time accounting, and the
            // CPU profiler while it is recording. `state.path` still
            // holds this span's full path (truncated below).
            if let Some(parent) = state.stack.last_mut() {
                parent.child_nanos = parent.child_nanos.saturating_add(duration);
            }
            if crate::profile::enabled() {
                let self_nanos = duration.saturating_sub(open.child_nanos);
                crate::profile::record(&state.path, duration, self_nanos);
            }
            if let Some(idx) = open.record {
                state.records[idx].duration = duration;
            }
            state.path.truncate(open.path_len);
        });
    }
}

/// Runs `f` with the current thread's dot-joined span path when at
/// least one span is open; returns `false` without calling `f`
/// otherwise. Uses `try_with`/`try_borrow` throughout because the
/// caller may be the allocation hook, which can fire while `STATE` is
/// already mutably borrowed (an allocation inside `span` itself) or
/// during thread teardown.
pub(crate) fn with_current_path(f: impl FnOnce(&str)) -> bool {
    STATE
        .try_with(|cell| match cell.try_borrow() {
            Ok(state) if !state.path.is_empty() => {
                f(&state.path);
                true
            }
            _ => false,
        })
        .unwrap_or(false)
}

/// Ends the capture session on drop, surviving unwinding.
struct CaptureEndGuard;

impl Drop for CaptureEndGuard {
    fn drop(&mut self) {
        let _ = STATE.try_with(|cell| {
            cell.borrow_mut().capturing = false;
        });
        CAPTURING_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs `f` recording every span closed on the current thread, and
/// returns its result together with the recorded [`SpanTree`].
///
/// In deterministic mode the thread's logical clock is reset first, so
/// identical code paths yield bit-identical trees.
///
/// # Panics
///
/// Panics on nested `capture` calls on one thread.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, SpanTree) {
    STATE.with(|cell| {
        let mut state = cell.borrow_mut();
        assert!(
            !state.capturing,
            "nested telemetry::capture on one thread is not supported"
        );
        state.capturing = true;
        state.records.clear();
    });
    CAPTURING_THREADS.fetch_add(1, Ordering::Relaxed);
    clock::reset_logical();
    let _end = CaptureEndGuard;
    let result = f();
    let spans = STATE.with(|cell| std::mem::take(&mut cell.borrow_mut().records));
    (result, SpanTree { spans })
}

/// Like [`capture`], but composable: when the thread is already inside a
/// `capture` (an outer benchmark or test owns the records), `f` simply
/// runs and the tree is `None` — the outer session keeps every span.
/// Unlike [`capture`] this never resets the logical clock, so wrapping
/// pipeline stages in `try_capture` cannot perturb an enclosing
/// deterministic trace.
pub fn try_capture<R>(f: impl FnOnce() -> R) -> (R, Option<SpanTree>) {
    let nested = STATE.with(|cell| cell.borrow().capturing);
    if nested {
        return (f(), None);
    }
    STATE.with(|cell| {
        let mut state = cell.borrow_mut();
        state.capturing = true;
        state.records.clear();
    });
    CAPTURING_THREADS.fetch_add(1, Ordering::Relaxed);
    let _end = CaptureEndGuard;
    let result = f();
    let spans = STATE.with(|cell| std::mem::take(&mut cell.borrow_mut().records));
    (result, Some(SpanTree { spans }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_sync::global_state_lock;

    #[test]
    fn nested_spans_record_paths_depths_and_parents() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let ((), tree) = capture(|| {
            let _a = span("verify");
            {
                let _b = span("preprocess");
                let _c = span("detect");
            }
            let _d = span("similarity");
        });
        crate::set_deterministic(false);
        let names: Vec<&str> = tree.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["verify", "preprocess", "detect", "similarity"]);
        assert_eq!(tree.spans()[0].parent, None);
        assert_eq!(tree.spans()[1].parent, Some(0));
        assert_eq!(tree.spans()[2].parent, Some(1));
        assert_eq!(tree.spans()[3].parent, Some(0));
        assert_eq!(tree.spans()[2].path, "verify.preprocess.detect");
        assert_eq!(tree.spans()[2].depth, 3);
        // Deterministic ticks: every span has a non-zero duration and
        // children close before parents.
        assert!(tree.spans().iter().all(|s| s.duration > 0));
        assert!(tree.spans()[1].duration > tree.spans()[2].duration);
    }

    #[test]
    fn capture_is_bit_stable_in_deterministic_mode() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let run = || {
            capture(|| {
                let _a = span("a");
                let _b = span("b");
            })
            .1
        };
        let (first, second) = (run(), run());
        crate::set_deterministic(false);
        assert_eq!(first, second);
        assert_eq!(first.to_json().to_json(), second.to_json().to_json());
    }

    #[test]
    fn guard_unwind_pops_the_stack() {
        let _lock = global_state_lock();
        let caught = std::panic::catch_unwind(|| {
            let (_, _tree) = capture(|| {
                let _a = span("outer");
                let _b = span("inner");
                panic!("boom");
            });
        });
        assert!(caught.is_err());
        // The capture session ended and the stack unwound: a fresh
        // capture starts clean, with root depth 1 and an empty prefix.
        let ((), tree) = capture(|| {
            let _a = span("fresh");
        });
        assert_eq!(tree.spans().len(), 1);
        assert_eq!(tree.spans()[0].path, "fresh");
        assert_eq!(tree.spans()[0].depth, 1);
        assert_eq!(tree.spans()[0].parent, None);
    }

    #[test]
    fn unprofiled_uncaptured_spans_are_inert() {
        let _lock = global_state_lock();
        crate::profile::set_enabled(false);
        let guard = span("invisible");
        assert!(!guard.active);
    }

    #[test]
    fn tree_json_nests_children() {
        let _lock = global_state_lock();
        let ((), tree) = capture(|| {
            let _a = span("root");
            let _b = span("child");
        });
        let json = tree.to_json().to_json();
        assert!(json.contains("\"name\":\"root\""));
        assert!(json.contains("\"children\":[{\"name\":\"child\""));
    }

    #[test]
    fn totals_aggregate_by_name() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let ((), tree) = capture(|| {
            for _ in 0..3 {
                let _s = span("stage");
            }
        });
        crate::set_deterministic(false);
        assert_eq!(tree.count("stage"), 3);
        assert_eq!(tree.total_duration("stage"), 3);
        assert_eq!(tree.count("absent"), 0);
    }

    #[test]
    fn try_capture_records_when_idle() {
        let _lock = global_state_lock();
        let (value, tree) = try_capture(|| {
            let _s = span("solo");
            17
        });
        assert_eq!(value, 17);
        let tree = tree.unwrap_or_else(|| panic!("idle try_capture must record"));
        assert_eq!(tree.count("solo"), 1);
    }

    #[test]
    fn try_capture_defers_to_an_outer_capture() {
        let _lock = global_state_lock();
        let ((), outer) = capture(|| {
            let _a = span("outer");
            let (inner_value, inner_tree) = try_capture(|| {
                let _b = span("inner");
                5
            });
            assert_eq!(inner_value, 5);
            assert!(inner_tree.is_none(), "nested try_capture must yield");
        });
        // The outer session kept both spans.
        assert_eq!(outer.count("outer"), 1);
        assert_eq!(outer.count("inner"), 1);
    }

    #[test]
    fn try_capture_does_not_reset_the_logical_clock() {
        let _lock = global_state_lock();
        crate::set_deterministic(true);
        let before = crate::clock::now();
        let ((), _tree) = try_capture(|| {
            let _s = span("tick");
        });
        let after = crate::clock::now();
        crate::set_deterministic(false);
        assert!(after > before, "logical clock must keep advancing");
    }
}
