//! # gpu-sim — a discrete-event CPU/GPU execution simulator
//!
//! This crate is the hardware substrate for the Diogenes / feed-forward
//! measurement (FFM) reproduction. It models, in virtual nanoseconds:
//!
//! * a host CPU thread whose every action is recorded on a ground-truth
//!   [`timeline::Timeline`];
//! * a GPU [`device::Device`] with in-order streams and serial compute /
//!   copy engines, enough to reproduce the CPU-wait / GPU-idle structure
//!   that the paper's expected-benefit analysis reasons about;
//! * byte-accurate host and device [`memory::AddressSpace`]s (transfer
//!   payloads carry real data so content-based deduplication is genuine);
//! * a shadow call [`stack`] standing in for Dyninst stackwalking, and
//!   synthetic instruction addresses for call-site matching;
//! * a single [`cost::CostModel`] from which every virtual-time cost
//!   (driver calls, transfers, probes, hashing) derives.
//!
//! The simulated CUDA driver lives in the `cuda-driver` crate; measurement
//! infrastructure observes the machine only through the driver's hook
//! points, never through the ground-truth timeline.
//!
//! ```
//! use gpu_sim::{CostModel, Device, GpuOpKind, Machine, Span, StreamId};
//!
//! let mut m = Machine::new(CostModel::pascal_like());
//! m.cpu_work(5_000, "setup");
//! let now = m.now();
//! let op = m.device.enqueue(now, StreamId::DEFAULT, GpuOpKind::Kernel { name: "k" }, 20_000);
//! // The kernel runs while the host keeps working...
//! m.cpu_work(8_000, "overlapped");
//! assert_eq!(m.device.op(op).span(), Span::new(5_000, 25_000));
//! // ...and the device is idle before and after it.
//! assert_eq!(m.device.idle_in(Span::new(0, 25_000)), 5_000);
//! ```

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod cost;
pub mod device;
pub mod digest;
pub mod machine;
pub mod memory;
pub mod rng;
pub mod stack;
pub mod timeline;

pub use clock::{Ns, Span, VirtualClock, NEVER};
pub use cost::{CostModel, Direction};
pub use device::{Device, EngineClass, GpuOp, GpuOpKind, OpId, StreamId};
pub use digest::Digest;
pub use machine::{AccessSink, Machine, SharedAccessSink};
pub use memory::{
    Access, AccessKind, AddressSpace, DevPtr, HostAllocKind, HostPtr, MemError, Range,
};
pub use rng::SplitMix64;
pub use stack::{fnv1a_64, fold_template_name, Frame, SourceLoc, StackTrace};
pub use timeline::{CpuEvent, CpuEventKind, Timeline, WaitReason};
