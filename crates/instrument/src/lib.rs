//! # instrument — binary-instrumentation primitives (the Dyninst role)
//!
//! Diogenes leans on Dyninst for three capabilities, all reproduced here
//! against the simulated driver:
//!
//! 1. **Function wrapping** — [`probe::FunctionProbe`] wraps any subset of
//!    driver API entry points and internal driver functions, charging the
//!    modeled trampoline cost per hit and optionally walking the shadow
//!    stack.
//! 2. **Load/store instrumentation** — [`loadstore::LoadStoreWatcher`]
//!    reports application accesses to watched host-memory ranges (and can
//!    narrow to specific instruction sites, the stage 4 configuration).
//! 3. **Sync-function discovery** — [`discovery::identify_sync_function`]
//!    finds the driver's internal synchronization funnel with the
//!    never-completing-kernel experiment from §3.1 of the paper.
//!
//! Payload digests for transfer deduplication live in [`hash`].

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod discovery;
pub mod hash;
pub mod loadstore;
pub mod probe;

pub use discovery::{identify_sync_function, Discovery};
pub use hash::Digest;
pub use loadstore::{AccessCallback, LoadStoreWatcher};
pub use probe::{FunctionProbe, ProbeCallback, ProbeHit, ProbeSpec};
