//! Experiment scales with environment overrides.
//!
//! Paper-scale runs (34 users × ≥ 500 arrays × 10 repeats, 60 s of
//! training audio per hired person) are CPU-hours on a laptop-class
//! machine; the defaults here are reduced but shape-preserving. Override
//! with:
//!
//! * `MANDIPASS_USERS` — cohort size (default 74: 64 hired + 10 held out),
//! * `MANDIPASS_HELD_OUT` — users reserved for scoring (default 10),
//! * `MANDIPASS_PROBES` — probes per held-out user (default 30),
//! * `MANDIPASS_SECONDS` — training seconds per hired person (default 12),
//! * `MANDIPASS_EPOCHS` — training epochs (default 14),
//! * `MANDIPASS_SEED` — master seed (default 2021, the paper's year),
//! * `MANDIPASS_BENCH_SCALE=smoke` — the fixed [`EvalScale::smoke_test`]
//!   scale every committed `BENCH_*.baseline.json` is measured at; it
//!   overrides the variables above.
//!
//! A variable that is set but does not parse is an error naming it,
//! never a silent fall-back to the default.

use std::str::FromStr;

use mandipass::prelude::PipelineConfig;
use mandipass::train::TrainingConfig;
use mandipass::MandiPassError;

/// Reads `name` through `lookup` as a `T`, or `default` when unset.
///
/// # Errors
///
/// [`MandiPassError::InvalidConfig`] naming the variable when it is set
/// but does not parse as `T`.
pub fn var_or<T: FromStr>(
    lookup: &dyn Fn(&str) -> Option<String>,
    name: &str,
    default: T,
) -> Result<T, MandiPassError> {
    match lookup(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| MandiPassError::InvalidConfig {
            reason: format!(
                "{name}={raw:?} is not a valid {}",
                std::any::type_name::<T>()
            ),
        }),
    }
}

fn process_env(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// Reads the environment variable `name`, or `default` when unset.
///
/// # Errors
///
/// As [`var_or`].
pub fn env_or<T: FromStr>(name: &str, default: T) -> Result<T, MandiPassError> {
    var_or(&process_env, name, default)
}

/// The scale of one evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalScale {
    /// Total cohort size: hired (training) identities plus held-out
    /// evaluation volunteers (the paper's cohort is 34 volunteers in a
    /// leave-one-out rotation).
    pub users: usize,
    /// How many users are held out of training and used for scoring.
    pub held_out: usize,
    /// Probes recorded per held-out user for scoring.
    pub probes_per_user: usize,
    /// Seconds of training signal per hired person (Fig. 11(b) sweeps
    /// 10–60; the paper lands at 60).
    pub seconds_per_person: f64,
    /// Training epochs.
    pub epochs: usize,
    /// MandiblePrint dimensionality.
    pub embedding_dim: usize,
    /// Convolution channel plan.
    pub channels: [usize; 3],
    /// Master seed.
    pub seed: u64,
}

impl Default for EvalScale {
    fn default() -> Self {
        EvalScale {
            // 64 hired synthetic people (the VSP "can hire a large number
            // of people", §V.C) + 10 evaluation volunteers who never
            // appear in training. The paper instead rotates leave-one-out
            // over its 34 volunteers; a disjoint hired cohort preserves
            // the "extractor never saw the deployed user" property at a
            // fraction of the training cost.
            users: 74,
            held_out: 10,
            probes_per_user: 30,
            seconds_per_person: 12.0,
            epochs: 14,
            embedding_dim: 512,
            channels: [8, 16, 32],
            seed: 2021,
        }
    }
}

impl EvalScale {
    /// The default scale with environment overrides applied.
    ///
    /// # Panics
    ///
    /// When a variable is set but malformed, naming it.
    pub fn from_env() -> Self {
        Self::from_lookup(&process_env).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The default scale with the overrides `lookup` returns.
    ///
    /// # Errors
    ///
    /// [`MandiPassError::InvalidConfig`] naming the first malformed
    /// variable.
    pub fn from_lookup(lookup: &dyn Fn(&str) -> Option<String>) -> Result<Self, MandiPassError> {
        match var_or(lookup, "MANDIPASS_BENCH_SCALE", String::new())?.as_str() {
            "" => {}
            "smoke" => return Ok(EvalScale::smoke_test()),
            other => {
                return Err(MandiPassError::InvalidConfig {
                    reason: format!(
                        "MANDIPASS_BENCH_SCALE={other:?}: the only named scale is \"smoke\""
                    ),
                })
            }
        }
        let d = EvalScale::default();
        let mut scale = EvalScale {
            users: var_or(lookup, "MANDIPASS_USERS", d.users)?,
            held_out: var_or(lookup, "MANDIPASS_HELD_OUT", d.held_out)?,
            probes_per_user: var_or(lookup, "MANDIPASS_PROBES", d.probes_per_user)?,
            seconds_per_person: var_or(lookup, "MANDIPASS_SECONDS", d.seconds_per_person)?,
            epochs: var_or(lookup, "MANDIPASS_EPOCHS", d.epochs)?,
            seed: var_or(lookup, "MANDIPASS_SEED", d.seed)?,
            ..d
        };
        scale.clamp();
        Ok(scale)
    }

    /// A very small scale for integration tests.
    pub fn smoke_test() -> Self {
        EvalScale {
            users: 6,
            held_out: 2,
            probes_per_user: 8,
            seconds_per_person: 3.0,
            epochs: 4,
            embedding_dim: 64,
            channels: [4, 8, 8],
            seed: 2021,
        }
    }

    fn clamp(&mut self) {
        self.users = self.users.max(3);
        self.held_out = self.held_out.clamp(1, self.users - 2);
        self.probes_per_user = self.probes_per_user.max(2);
        self.epochs = self.epochs.max(1);
    }

    /// Number of training ("hired") users.
    pub fn hired(&self) -> usize {
        self.users - self.held_out
    }

    /// The training configuration this scale implies.
    pub fn training_config(&self) -> TrainingConfig {
        TrainingConfig {
            seconds_per_person: self.seconds_per_person,
            epochs: self.epochs,
            batch_size: 32,
            learning_rate: 1e-3,
            embedding_dim: self.embedding_dim,
            channels: self.channels,
            pipeline: PipelineConfig::default(),
            seed: self.seed,
            two_branch: true,
        }
    }

    /// One-line description printed by every experiment binary.
    pub fn describe(&self) -> String {
        format!(
            "scale: {} users ({} hired / {} held out), {} probes/user, {:.0} s training audio/person, {} epochs, {}-d print, seed {}",
            self.users,
            self.hired(),
            self.held_out,
            self.probes_per_user,
            self.seconds_per_person,
            self.epochs,
            self.embedding_dim,
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_architecture() {
        let s = EvalScale::default();
        assert_eq!(s.embedding_dim, 512);
        assert_eq!(s.channels, [8, 16, 32]);
        assert_eq!(s.held_out, 10);
        assert!(
            s.hired() >= 33,
            "at least the paper's 33 training identities"
        );
    }

    #[test]
    fn clamp_keeps_scale_sane() {
        let mut s = EvalScale {
            users: 2,
            held_out: 5,
            probes_per_user: 0,
            epochs: 0,
            ..EvalScale::default()
        };
        s.clamp();
        assert!(s.users >= 3);
        assert!(s.held_out <= s.users - 2);
        assert!(s.probes_per_user >= 2);
        assert!(s.epochs >= 1);
    }

    #[test]
    fn training_config_mirrors_scale() {
        let s = EvalScale::smoke_test();
        let c = s.training_config();
        assert_eq!(c.epochs, 4);
        assert_eq!(c.embedding_dim, 64);
    }

    #[test]
    fn malformed_variables_fail_with_their_name() {
        let env = |pairs: &'static [(&'static str, &'static str)]| {
            move |name: &str| {
                pairs
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| v.to_string())
            }
        };
        let err = EvalScale::from_lookup(&env(&[("MANDIPASS_USERS", "1O")])).unwrap_err();
        assert!(err.to_string().contains("MANDIPASS_USERS"), "{err}");
        let err = EvalScale::from_lookup(&env(&[("MANDIPASS_BENCH_SCALE", "smol")])).unwrap_err();
        assert!(err.to_string().contains("MANDIPASS_BENCH_SCALE"), "{err}");
        let err = var_or(
            &env(&[("MANDIPASS_TRACE_HOLD_SECS", "-4")]),
            "MANDIPASS_TRACE_HOLD_SECS",
            0u64,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("MANDIPASS_TRACE_HOLD_SECS"),
            "{err}"
        );

        let smoke = EvalScale::from_lookup(&env(&[
            ("MANDIPASS_BENCH_SCALE", "smoke"),
            ("MANDIPASS_USERS", "40"),
        ]))
        .unwrap();
        assert_eq!(smoke, EvalScale::smoke_test());
        let custom =
            EvalScale::from_lookup(&env(&[("MANDIPASS_USERS", "20"), ("MANDIPASS_SEED", "7")]))
                .unwrap();
        assert_eq!((custom.users, custom.seed), (20, 7));
        assert_eq!(
            EvalScale::from_lookup(&env(&[])).unwrap(),
            EvalScale::default()
        );
    }

    #[test]
    fn describe_mentions_key_numbers() {
        let text = EvalScale::default().describe();
        assert!(text.contains("74 users"));
        assert!(text.contains("512-d"));
    }
}
