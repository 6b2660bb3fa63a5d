//! # profilers — baseline tool models for the Table 2 comparison
//!
//! Honest models of the two tools the paper compares Diogenes against:
//!
//! * [`nvprof`] — a CUPTI-callback profiler: per-API-call wall time from
//!   vendor activity records, bounded buffers (crashes on cuIBM-scale
//!   call volume), blind to everything CUPTI omits.
//! * [`hpctoolkit`] — a sampling profiler: periodic attribution against
//!   API frames, unwind failures inside vendor libraries, no crash on
//!   call volume, systematically deflated percentages.
//!
//! Both report *resource consumption at points in the program*; neither
//! can say what fixing a point would be worth — that contrast with the
//! feed-forward model's expected benefit is the heart of Table 2.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod hpctoolkit;
pub mod nvprof;
pub mod profile;

pub use hpctoolkit::{run_hpctoolkit, HpctoolkitConfig};
pub use nvprof::{run_nvprof, NvprofConfig};
pub use profile::{Profile, ProfileEntry, ProfileOutcome};
