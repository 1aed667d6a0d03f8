//! The one on/off switch behind every telemetry flag: narration, the
//! CPU profiler, allocation attribution and the deterministic clock.
//!
//! A [`Switch`] reads its environment variable lazily, on the first
//! [`Switch::get`]. One rule holds for every variable: the trimmed
//! value `1`, `on`, `true` or `yes` (any ASCII case) is on, and
//! anything else, unset included, is off, so a typo can never switch
//! anything on in production. [`Switch::set`] overrides the
//! environment; [`Switch::set_default`] applies only while the variable
//! is unset. Once initialised, `get` is one relaxed atomic load — it
//! sits on every span open and close.

use std::sync::atomic::{AtomicU8, Ordering};

const UNSET: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// A process-wide flag initialised from one environment variable.
#[derive(Debug)]
pub(crate) struct Switch {
    var: &'static str,
    state: AtomicU8,
}

impl Switch {
    /// A switch that reads `var` on its first [`Switch::get`].
    pub(crate) const fn new(var: &'static str) -> Self {
        Switch {
            var,
            state: AtomicU8::new(UNSET),
        }
    }

    /// Whether the switch is on.
    pub(crate) fn get(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            UNSET => self.init_from_env(),
            state => state == ON,
        }
    }

    /// Turns the switch on or off, overriding the environment.
    pub(crate) fn set(&self, on: bool) {
        self.state
            .store(if on { ON } else { OFF }, Ordering::Relaxed);
    }

    /// Turns the switch on or off unless the environment variable is
    /// set, so binaries can pick a default an operator still overrides.
    pub(crate) fn set_default(&self, on: bool) {
        if std::env::var_os(self.var).is_none() {
            self.set(on);
        }
    }

    #[cold]
    fn init_from_env(&self) -> bool {
        let on = std::env::var(self.var).is_ok_and(|value| reads_on(&value));
        // First initialiser wins; racing threads read the same value.
        let _ = self.state.compare_exchange(
            UNSET,
            if on { ON } else { OFF },
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.state.load(Ordering::Relaxed) == ON
    }
}

/// The switch rule: trimmed, ASCII case-insensitive `1|on|true|yes`.
fn reads_on(value: &str) -> bool {
    let value = value.trim();
    ["1", "on", "true", "yes"]
        .iter()
        .any(|word| value.eq_ignore_ascii_case(word))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_sync::global_state_lock;

    /// Every telemetry variable follows the one rule, `set` beats the
    /// environment, and `set_default` yields to a set variable. Fresh
    /// switches named after the real ones read the environment; the
    /// real switches are initialised first so the writes below cannot
    /// reach them.
    #[test]
    fn switch_rule_holds_for_every_variable() {
        let _lock = global_state_lock();
        let real = [
            &crate::mode::NARRATION,
            &crate::profile::ENABLED,
            &crate::alloc::ENABLED,
            &crate::clock::DETERMINISTIC,
        ];
        let saved: Vec<_> = real
            .iter()
            .map(|switch| {
                switch.get();
                (switch.var, std::env::var_os(switch.var))
            })
            .collect();
        let table = [
            ("1", true),
            ("ON", true),
            (" true ", true),
            ("Yes", true),
            ("0", false),
            ("off", false),
            ("no", false),
            ("text", false),
            ("", false),
            ("banana", false),
        ];
        for &(var, _) in &saved {
            for (value, on) in table {
                std::env::set_var(var, value);
                assert_eq!(Switch::new(var).get(), on, "{var}={value:?}");
                let overridden = Switch::new(var);
                overridden.set(!on);
                assert_eq!(overridden.get(), !on, "set must beat {var}={value:?}");
                let defaulted = Switch::new(var);
                defaulted.set_default(!on);
                assert_eq!(defaulted.get(), on, "set_default must yield to {var}");
            }
            std::env::remove_var(var);
            assert!(!Switch::new(var).get(), "unset {var} must read off");
            let defaulted = Switch::new(var);
            defaulted.set_default(true);
            assert!(defaulted.get(), "set_default applies while {var} is unset");
        }
        for (var, value) in saved {
            if let Some(value) = value {
                std::env::set_var(var, value);
            }
        }
    }
}
