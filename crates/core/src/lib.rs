//! **MandiPass**: secure and usable user authentication via earphone IMU —
//! a full reproduction of the ICDCS 2021 paper.
//!
//! MandiPass authenticates a user from the vibration of their mandible
//! (jaw bone), captured by the IMU inside an earphone while the user hums
//! a short "EMM". This crate implements the complete pipeline:
//!
//! 1. **Signal preprocessing** ([`preprocess`], paper §IV): vibration-start
//!    detection, MAD outlier repair, 20 Hz Butterworth high-pass,
//!    min-max normalisation, multi-axis concatenation into a `(6, n)`
//!    signal array.
//! 2. **MandiblePrint generation** ([`gradient_array`], [`extractor`],
//!    §V): per-axis gradients sign-split into positive/negative direction
//!    planes, then a two-branch CNN (3 × [Conv 3×3 stride 1×2 → BatchNorm
//!    → ReLU] per branch → flatten → concat → FC → Sigmoid) producing a
//!    512-dimensional biometric vector.
//! 3. **Security enhancement** ([`template`], §VI): multiplication by a
//!    user-revocable Gaussian matrix yields a *cancelable* template,
//!    stored in a simulated secure enclave ([`enclave`]).
//! 4. **Similarity calculation** ([`similarity`], §III): cosine distance;
//!    a probe is accepted when its distance to the stored template falls
//!    below the operating threshold.
//!
//! [`authenticator`] ties the phases into the registration/verification
//! API, [`train`] implements the verification-service-provider training
//! procedure (§V.C), [`features`] the statistical-feature baseline the
//! paper rejects (§V.A), and [`attack`] the four §VI attack models.
//!
//! # Example
//!
//! ```no_run
//! use mandipass::prelude::*;
//! use mandipass_imu_sim::{Condition, Population, Recorder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let population = Population::generate(8, 1);
//! let recorder = Recorder::default();
//!
//! // The verification service provider trains the extractor on hired
//! // people (here: users 1..8); user 0 never appears in training.
//! let trainer = VspTrainer::new(TrainingConfig::fast_demo());
//! let extractor = trainer.train(&population.users()[1..], &recorder)?;
//!
//! // Registration: user 0 enrols with a few probes and a fresh matrix.
//! let mut mandipass = MandiPass::new(extractor, PipelineConfig::default());
//! let matrix = GaussianMatrix::generate(7, mandipass.embedding_dim());
//! let enrolment: Vec<_> =
//!     (0..4).map(|s| recorder.record(&population.users()[0], Condition::Normal, s)).collect();
//! mandipass.enroll(0, &enrolment, &matrix)?;
//!
//! // Verification: a fresh probe from the genuine user, transformed
//! // under the matrix the sealed template names.
//! let probe = recorder.record(&population.users()[0], Condition::Normal, 99);
//! let outcome = mandipass.verify(0, &probe)?;
//! println!("accepted: {} (distance {:.3})", outcome.accepted, outcome.distance);
//! # Ok(())
//! # }
//! ```

pub mod attack;
pub mod authenticator;
pub mod config;
pub mod enclave;
pub mod error;
pub mod extractor;
pub mod features;
pub mod gradient_array;
pub mod preprocess;
pub mod quality;
pub mod similarity;
pub mod template;
pub mod train;

pub use error::MandiPassError;

/// Convenient glob import of the main API types.
pub mod prelude {
    pub use crate::authenticator::{MandiPass, PolicyDecision, VerifyOutcome, VerifyPolicy};
    pub use crate::config::PipelineConfig;
    pub use crate::enclave::{AccessCounts, AuditEvent, AuditKind, SecureEnclave};
    pub use crate::extractor::{BiometricExtractor, ExtractorConfig};
    pub use crate::gradient_array::GradientArray;
    pub use crate::quality::{AxisSet, QualityConfig, QualityReport, RejectReason};
    pub use crate::template::{CancelableTemplate, GaussianMatrix, MandiblePrint};
    pub use crate::train::{TrainingConfig, VspTrainer};
    pub use crate::MandiPassError;
}
