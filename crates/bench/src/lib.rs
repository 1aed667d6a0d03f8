//! Shared harness for the per-figure/table experiment binaries and the
//! criterion benches.
//!
//! Every experiment binary builds (or reuses) a [`TrainedStack`] — a
//! VSP-trained extractor plus the synthetic cohort — and calls the
//! corresponding function in [`experiments`]. `run_all` builds the stack
//! once and regenerates every artifact in one process.
//!
//! Scales default to reduced-but-shape-preserving sizes and can be raised
//! to paper scale through environment variables (see [`scale`]). Bench
//! artifacts share one gated document shape (see [`gate`]).

pub mod experiments;
pub mod gate;
pub mod harness;
pub mod load;
pub mod profile;
pub mod scale;

pub use harness::{MainEvaluation, TrainedStack};
pub use scale::EvalScale;
