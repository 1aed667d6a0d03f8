//! Allocation profiling: a counting global allocator that attributes
//! heap traffic to the innermost active span path.
//!
//! This promotes the counting-allocator idiom from the zero-alloc
//! hot-path tests (DESIGN §15) into a reusable layer: a binary opts in
//! with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mandipass_telemetry::alloc::ProfilingAlloc =
//!     mandipass_telemetry::alloc::ProfilingAlloc;
//! ```
//!
//! With only the allocator installed, [`ProfilingAlloc`] counts raw
//! totals (one relaxed atomic add per alloc/free — the
//! [`totals`]/`zero_alloc`-style assertions build on this). Attribution
//! is a second, opt-in layer behind `MANDIPASS_PROFILE_ALLOC` (or
//! [`set_enabled`]): each allocation and free is then charged to the
//! current thread's dot-joined span path (with the
//! [`crate::profile::set_thread_root`] label applied, so both profiles
//! share keys), and allocations outside any span land under
//! `(no-span)`. The result pinpoints *which stage* escapes the arenas,
//! not just that something allocated.
//!
//! Reentrancy: attributing an allocation itself allocates (the key
//! string, the map node). A thread-local `IN_HOOK` flag makes those
//! inner allocations count only toward the raw totals, never recurse
//! into attribution, and never retake the site-table lock — so the
//! hook cannot deadlock or loop, and attributed counts stay a faithful
//! census of the *instrumented* program's behaviour.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mandipass_util::json::Value;

use crate::switch::Switch;

/// Environment variable that switches span-path attribution on (`1`,
/// `on`, `true` or `yes`, trimmed and in any case; anything else is off).
pub const PROFILE_ALLOC_ENV: &str = "MANDIPASS_PROFILE_ALLOC";

pub(crate) static ENABLED: Switch = Switch::new(PROFILE_ALLOC_ENV);

/// Raw allocator totals, counted whenever [`ProfilingAlloc`] is
/// installed (attribution on or off).
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREES: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// True while this thread is inside the attribution hook.
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

/// Whether span-path attribution is recording.
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Switches attribution on or off programmatically, overriding the
/// environment.
pub fn set_enabled(on: bool) {
    ENABLED.set(on);
}

/// Per-site (per span path) allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations attributed to this site.
    pub allocs: u64,
    /// Frees attributed to this site (the layout was freed while this
    /// site was innermost; cross-site frees are normal).
    pub frees: u64,
    /// Bytes allocated.
    pub bytes_allocated: u64,
    /// Bytes freed.
    pub bytes_freed: u64,
}

/// Site table: span path -> stats. `BTreeMap` for deterministic export
/// order, same as the CPU profiler.
static SITES: Mutex<BTreeMap<String, AllocStats>> = Mutex::new(BTreeMap::new());

fn sites_lock() -> std::sync::MutexGuard<'static, BTreeMap<String, AllocStats>> {
    SITES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The site label charged when no span is open on the thread.
pub const NO_SPAN: &str = "(no-span)";

/// Runs `f` with this thread's attribution hook masked. Any non-hook
/// code that locks [`SITES`] and then allocates or frees (cloning the
/// table, dropping its nodes) must run under this mask: otherwise the
/// hook fires mid-operation, retakes the already-held table lock, and
/// the thread self-deadlocks — which, because every allocating thread
/// then queues behind that lock, freezes the whole process.
fn with_hook_masked<T>(f: impl FnOnce() -> T) -> T {
    let prev = IN_HOOK.with(|flag| flag.replace(true));
    let out = f();
    IN_HOOK.with(|flag| flag.set(prev));
    out
}

fn attribute(bytes: usize, is_alloc: bool) {
    // The reentrancy guard must be taken before *anything* that can
    // allocate — including the lazy env read in `enabled()`.
    let entered = IN_HOOK.with(|flag| {
        if flag.get() {
            false
        } else {
            flag.set(true);
            true
        }
    });
    if !entered {
        return;
    }
    if enabled() {
        let update = |stats: &mut AllocStats| {
            if is_alloc {
                stats.allocs += 1;
                stats.bytes_allocated = stats.bytes_allocated.saturating_add(bytes as u64);
            } else {
                stats.frees += 1;
                stats.bytes_freed = stats.bytes_freed.saturating_add(bytes as u64);
            }
        };
        let attributed = crate::span::with_current_path(|path| {
            crate::profile::with_composed_key(path, |key| {
                update(sites_lock().entry(key.to_string()).or_default());
            });
        });
        if !attributed {
            update(sites_lock().entry(NO_SPAN.to_string()).or_default());
        }
    }
    IN_HOOK.with(|flag| flag.set(false));
}

/// Raw totals since process start (or the last [`reset_totals`]):
/// `(allocs, frees, bytes_allocated)`. Counted whenever the allocator
/// is installed, independent of attribution — the basis for
/// zero-steady-state-allocation assertions.
pub fn totals() -> (u64, u64, u64) {
    (
        TOTAL_ALLOCS.load(Ordering::Relaxed),
        TOTAL_FREES.load(Ordering::Relaxed),
        TOTAL_BYTES.load(Ordering::Relaxed),
    )
}

/// Zeroes the raw totals.
pub fn reset_totals() {
    TOTAL_ALLOCS.store(0, Ordering::Relaxed);
    TOTAL_FREES.store(0, Ordering::Relaxed);
    TOTAL_BYTES.store(0, Ordering::Relaxed);
}

/// Clears the attributed site table (raw totals are untouched).
pub fn reset() {
    with_hook_masked(|| sites_lock().clear());
}

/// An immutable snapshot of the attributed site table.
#[derive(Debug, Clone, Default)]
pub struct AllocProfile {
    sites: BTreeMap<String, AllocStats>,
}

/// Snapshots the site table without clearing it.
pub fn snapshot() -> AllocProfile {
    with_hook_masked(|| AllocProfile {
        sites: sites_lock().clone(),
    })
}

impl AllocProfile {
    /// The sites, keyed by span path, in lexicographic order.
    pub fn sites(&self) -> &BTreeMap<String, AllocStats> {
        &self.sites
    }

    /// True when nothing has been attributed.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Folded-stack lines valued in bytes allocated, for byte-weighted
    /// flamegraphs (`a;b;c <bytes_allocated>`).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, stats) in &self.sites {
            out.push_str(&path.replace('.', ";"));
            out.push(' ');
            out.push_str(&stats.bytes_allocated.to_string());
            out.push('\n');
        }
        out
    }

    /// Serialises the site table as JSON:
    /// `{"sites": {path: {allocs, frees, bytes_allocated,
    /// bytes_freed}}}`.
    pub fn to_json(&self) -> Value {
        let sites = self
            .sites
            .iter()
            .map(|(path, s)| {
                (
                    path.clone(),
                    Value::Object(vec![
                        ("allocs".to_string(), Value::Number(s.allocs as f64)),
                        ("frees".to_string(), Value::Number(s.frees as f64)),
                        (
                            "bytes_allocated".to_string(),
                            Value::Number(s.bytes_allocated as f64),
                        ),
                        (
                            "bytes_freed".to_string(),
                            Value::Number(s.bytes_freed as f64),
                        ),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![("sites".to_string(), Value::Object(sites))])
    }
}

/// The counting, attributing global allocator. Install with
/// `#[global_allocator]` in binaries that want `/profile/alloc` data or
/// counting-allocator assertions; everything else keeps [`System`].
pub struct ProfilingAlloc;

// SAFETY: delegates every allocation verbatim to `System`; the
// bookkeeping never touches the returned memory and the reentrancy
// guard keeps the hook's own allocations out of the attribution path.
unsafe impl GlobalAlloc for ProfilingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
            TOTAL_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            attribute(layout.size(), true);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        TOTAL_FREES.fetch_add(1, Ordering::Relaxed);
        attribute(layout.size(), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_sync::global_state_lock;

    // The test binary does not install `ProfilingAlloc`, so these tests
    // drive `attribute` directly; end-to-end coverage (with the
    // allocator installed) lives in `tests/profile_overhead.rs`.

    #[test]
    fn attribution_is_off_by_default_and_guarded() {
        let _lock = global_state_lock();
        set_enabled(false);
        reset();
        attribute(64, true);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn attribute_charges_no_span_outside_spans() {
        let _lock = global_state_lock();
        set_enabled(true);
        reset();
        attribute(128, true);
        attribute(128, false);
        let snap = snapshot();
        set_enabled(false);
        let stats = snap.sites()[NO_SPAN];
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.bytes_allocated, 128);
        assert_eq!(stats.bytes_freed, 128);
        reset();
    }

    #[test]
    fn folded_and_json_render_sites() {
        let _lock = global_state_lock();
        set_enabled(true);
        reset();
        attribute(32, true);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.folded(), "(no-span) 32\n");
        let json = snap.to_json().to_json();
        assert!(json.contains("\"bytes_allocated\":32"), "{json}");
        reset();
    }
}
