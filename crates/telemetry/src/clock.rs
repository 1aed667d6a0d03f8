//! The telemetry time source: wall clock or deterministic logical clock.
//!
//! In wall mode timestamps are monotonic nanoseconds since the first
//! telemetry observation of the process. In deterministic mode each
//! timestamp read advances a **per-thread logical counter** instead, so
//! a span tree depends only on the instrumented code path — two
//! same-seed runs produce bit-identical trees, which is what lets
//! `tests/determinism.rs` assert on telemetry output.

use std::sync::OnceLock;
use std::time::Instant;

use crate::switch::Switch;

pub(crate) static DETERMINISTIC: Switch = Switch::new("MANDIPASS_TELEMETRY_DETERMINISTIC");

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

thread_local! {
    static LOGICAL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Selects the time source: `true` for the logical clock, `false` for
/// the wall clock. Overrides `MANDIPASS_TELEMETRY_DETERMINISTIC`.
pub fn set_deterministic(deterministic: bool) {
    DETERMINISTIC.set(deterministic);
}

/// Whether timestamps come from the logical clock.
pub fn is_deterministic() -> bool {
    DETERMINISTIC.get()
}

/// Reads the current timestamp: wall nanoseconds, or the next logical
/// tick in deterministic mode.
pub fn now() -> u64 {
    if is_deterministic() {
        LOGICAL.with(|c| {
            let t = c.get() + 1;
            c.set(t);
            t
        })
    } else {
        anchor().elapsed().as_nanos() as u64
    }
}

/// Resets this thread's logical clock to zero. [`crate::capture`] calls
/// this at capture start so captured trees always tick from 1.
pub fn reset_logical() {
    LOGICAL.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_sync::global_state_lock;

    #[test]
    fn logical_clock_ticks_and_resets() {
        let _lock = global_state_lock();
        set_deterministic(true);
        reset_logical();
        assert_eq!(now(), 1);
        assert_eq!(now(), 2);
        reset_logical();
        assert_eq!(now(), 1);
        set_deterministic(false);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let _lock = global_state_lock();
        set_deterministic(false);
        let a = now();
        let b = now();
        assert!(b >= a);
    }
}
