//! # diogenes-repro — umbrella crate
//!
//! Re-exports the whole reproduction of *"Diogenes: Looking For An Honest
//! CPU/GPU Performance Measurement Tool"* (Welton & Miller, SC '19) so
//! downstream users can depend on a single crate. See the individual
//! crates for the full documentation:
//!
//! * [`gpu_sim`] — the discrete-event CPU/GPU simulator substrate.
//! * [`cuda_driver`] — the simulated CUDA driver with the paper's hidden
//!   synchronization semantics.
//! * [`cupti_sim`] — the vendor collection framework, gaps included.
//! * [`instrument`] — binary-instrumentation primitives (the Dyninst role).
//! * [`ffm_core`] — the feed-forward measurement model (the contribution).
//! * [`diogenes_apps`] — the four evaluation applications + fixed builds.
//! * [`profilers`] — NVProf / HPCToolkit baseline models.
//! * [`diogenes`] — the tool: pipeline orchestration, CLI views, export.

#![forbid(unsafe_code)]

pub use cuda_driver;
pub use cupti_sim;
pub use diogenes;
pub use diogenes_apps;
pub use ffm_core;
pub use gpu_sim;
pub use instrument;
pub use profilers;
