//! Allocation-profiler end-to-end coverage and the disabled-profiler
//! zero-overhead guard.
//!
//! This binary installs [`telemetry::alloc::ProfilingAlloc`] as its
//! global allocator — the promoted counting-allocator idiom from the
//! zero-alloc hot-path tests — so it can prove, rather than assert,
//! that a disabled profiler adds zero steady-state allocations to the
//! span fast path, and that attribution charges heap traffic to the
//! innermost span path.
//!
//! The zero-allocation proofs count only the measuring thread: the
//! process-wide totals also see libtest's own threads, which allocate
//! whenever they like.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

use mandipass_telemetry as telemetry;
use mandipass_telemetry::{alloc, profile};

/// `ProfilingAlloc` plus a per-thread count of allocations and bytes.
struct ThreadCounting(alloc::ProfilingAlloc);

thread_local! {
    static THREAD_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: forwards every call verbatim to `ProfilingAlloc`; the count
// lives in a const-initialised thread-local `Cell`, which neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| {
            let (allocs, bytes) = c.get();
            c.set((allocs + 1, bytes + layout.size() as u64));
        });
        // SAFETY: the caller's `alloc` contract holds for the inner call.
        unsafe { self.0.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `self.0.alloc` with this `layout`.
        unsafe { self.0.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting(alloc::ProfilingAlloc);

/// Allocations and bytes this thread has requested so far.
fn thread_allocs() -> (u64, u64) {
    THREAD_ALLOCS.with(Cell::get)
}

/// Serialises tests that mutate the process-global profiler state.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn disabled_profiler_adds_zero_steady_state_allocations() {
    let _lock = lock();
    profile::set_enabled(false);
    alloc::set_enabled(false);
    telemetry::set_mode(telemetry::Mode::Silent);
    // Warm-up: initialise the lazy mode/profiler flags and any
    // thread-local state outside the measured window.
    for _ in 0..8 {
        let _span = telemetry::span("steady_state_probe");
    }
    let (allocs_before, bytes_before) = thread_allocs();
    for _ in 0..10_000 {
        let _span = telemetry::span("steady_state_probe");
    }
    let (allocs_after, bytes_after) = thread_allocs();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "disabled profiler allocated on the span fast path"
    );
    assert_eq!(bytes_after - bytes_before, 0);
}

#[test]
fn enabled_profiler_reaches_steady_state_without_allocating() {
    let _lock = lock();
    telemetry::set_deterministic(true);
    profile::reset();
    profile::set_enabled(true);
    profile::set_thread_root("overhead_worker");
    // Warm-up: populate the frame table and grow the path/key scratch
    // buffers to their steady-state capacity.
    for _ in 0..16 {
        let _outer = telemetry::span("warm_outer");
        let _inner = telemetry::span("warm_inner");
    }
    let (allocs_before, _) = thread_allocs();
    for _ in 0..1_000 {
        let _outer = telemetry::span("warm_outer");
        let _inner = telemetry::span("warm_inner");
    }
    let (allocs_after, _) = thread_allocs();
    profile::clear_thread_root();
    profile::set_enabled(false);
    let snapshot = profile::snapshot();
    profile::reset();
    telemetry::set_deterministic(false);
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "profiling a known frame set allocated in the steady state"
    );
    assert_eq!(
        snapshot.frames()["overhead_worker.warm_outer"].count(),
        1_016
    );
    assert_eq!(
        snapshot.frames()["overhead_worker.warm_outer.warm_inner"].count(),
        1_016
    );
}

#[test]
fn allocations_attribute_to_the_innermost_span_path() {
    let _lock = lock();
    profile::set_enabled(true);
    alloc::reset();
    alloc::set_enabled(true);
    {
        let _outer = telemetry::span("attr_verify");
        let _inner = telemetry::span("attr_extract");
        // A deliberate heap escape inside the innermost span.
        let escape: Vec<u8> = Vec::with_capacity(4096);
        drop(escape);
    }
    alloc::set_enabled(false);
    profile::set_enabled(false);
    let snapshot = alloc::snapshot();
    alloc::reset();
    let stats = snapshot
        .sites()
        .get("attr_verify.attr_extract")
        .copied()
        .unwrap_or_else(|| panic!("no attribution for the inner span: {:?}", snapshot.sites()));
    assert!(stats.allocs >= 1, "missing the Vec allocation");
    assert!(stats.bytes_allocated >= 4096);
    assert!(stats.frees >= 1, "missing the Vec free");
    // The folded export is byte-weighted and uses semicolon stacks.
    let folded = snapshot.folded();
    assert!(folded.contains("attr_verify;attr_extract "), "{folded}");
}

#[test]
fn attribution_disabled_skips_the_site_table() {
    let _lock = lock();
    alloc::set_enabled(false);
    alloc::reset();
    let v: Vec<u8> = Vec::with_capacity(1024);
    drop(v);
    assert!(
        alloc::snapshot().is_empty(),
        "sites recorded while attribution was off"
    );
}

#[test]
fn monitor_labels_allocate_only_when_first_seen() {
    let _lock = lock();
    let monitor = telemetry::Monitor::default();
    // Warm-up: one call per label allocates its key and counter.
    monitor.observe_reject("quality:dead_axis");
    monitor.observe_audit("verify_hit");
    let (allocs_before, bytes_before) = thread_allocs();
    for _ in 0..1_000 {
        monitor.observe_reject("quality:dead_axis");
        monitor.observe_audit("verify_hit");
    }
    let (allocs_after, bytes_after) = thread_allocs();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "a known label allocated under the monitor lock"
    );
    assert_eq!(bytes_after - bytes_before, 0);
    let window = monitor.snapshot();
    let count = |kind: &str, label: &str| {
        window
            .get("window")
            .and_then(|w| w.get(kind))
            .and_then(|c| c.get(label))
            .and_then(mandipass_util::json::Value::as_f64)
    };
    assert_eq!(count("quality_rejects", "quality:dead_axis"), Some(1_001.0));
    assert_eq!(count("audit", "verify_hit"), Some(1_001.0));
}
