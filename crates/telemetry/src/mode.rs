//! Narration: `[telemetry]` progress lines on stderr, off by default.
//!
//! `MANDIPASS_TELEMETRY` is read lazily under the crate's one switch
//! rule (`1`, `on`, `true` or `yes` is on); [`set_mode`] overrides it and
//! [`set_default_mode`] applies only while it is unset. Spans do not
//! depend on the mode: they feed [`crate::capture`] and the CPU
//! profiler only.

use crate::switch::Switch;

/// Whether [`crate::event`] narrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No narration (the default).
    Silent,
    /// `[telemetry] <message>` lines on stderr.
    Text,
}

pub(crate) static NARRATION: Switch = Switch::new("MANDIPASS_TELEMETRY");

/// The active mode.
pub fn mode() -> Mode {
    if enabled() {
        Mode::Text
    } else {
        Mode::Silent
    }
}

/// Whether narration is on. One relaxed atomic load once initialised.
pub fn enabled() -> bool {
    NARRATION.get()
}

/// Selects narration or silence, overriding the environment.
pub fn set_mode(mode: Mode) {
    NARRATION.set(mode == Mode::Text);
}

/// Applies the mode only when `MANDIPASS_TELEMETRY` is unset — lets
/// binaries default to narrated output while still honouring an
/// explicit `MANDIPASS_TELEMETRY=off`.
pub fn set_default_mode(mode: Mode) {
    NARRATION.set_default(mode == Mode::Text);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_sync::global_state_lock;

    #[test]
    fn set_mode_switches_narration() {
        let _lock = global_state_lock();
        set_mode(Mode::Text);
        assert!(enabled());
        assert_eq!(mode(), Mode::Text);
        set_mode(Mode::Silent);
        assert!(!enabled());
        assert_eq!(mode(), Mode::Silent);
    }
}
