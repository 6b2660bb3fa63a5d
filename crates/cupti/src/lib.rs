//! # cupti-sim — the vendor's collection framework, gaps included
//!
//! A model of the closed-source CUPTI performance data collection
//! framework, reproducing the documented behaviours the paper depends on:
//! synchronization activity records exist only for *explicit*
//! synchronization APIs; private-API operations are invisible; public-API
//! calls from vendor libraries may be omitted; and buffers are bounded, so
//! call-heavy applications can overflow them (the modeled cause of
//! NVProf's crash on cuIBM).
//!
//! The baseline profiler models in the `profilers` crate are built on this
//! crate, so the measurement gap is structural: they *cannot* see what
//! CUPTI does not report, exactly like their real counterparts.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod activity;
pub mod subscriber;

pub use activity::{ActivityBuffer, ActivityKind, ActivityRecord};
pub use subscriber::{Cupti, CuptiConfig};
