//! # cuda-driver — a simulated CUDA driver with honest dishonesty
//!
//! This crate models the user-space GPU driver (`libcuda.so`) that the
//! Diogenes paper instruments, including the behaviours the vendor never
//! documents:
//!
//! * implicit synchronization in `cudaFree` and synchronous `cudaMemcpy`;
//! * conditional synchronization in `cudaMemcpyAsync` (device-to-host into
//!   pageable memory) and `cudaMemset` (unified-memory targets);
//! * a private, non-public API used by the bundled vendor math library
//!   ([`cublas::CublasLite`]) whose operations the vendor collection
//!   framework cannot see;
//! * the single internal synchronization function (paper Fig. 3) that all
//!   of the above funnel through — the key instrumentation target.
//!
//! Measurement layers attach through [`hooks::HookRegistry`]; they never
//! see the simulator's ground truth.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod app;
pub mod config;
pub mod cublas;
pub mod cuda;
pub mod error;
pub mod fixpolicy;
pub mod hooks;
pub mod kernels;

pub use api::{ApiFn, InternalFn};
pub use app::{digest_config, uninstrumented_exec_time, GpuApp};
pub use config::DriverConfig;
pub use cublas::CublasLite;
pub use cuda::{Cuda, EventId};
pub use error::{CudaError, CudaResult};
pub use fixpolicy::{FixPolicy, FixStats};
pub use hooks::{CallInfo, DriverHook, HookEvent, HookRegistry};
pub use kernels::{KernelBuffer, KernelDesc};
