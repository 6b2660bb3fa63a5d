//! Property-based tests of driver/machine invariants under random
//! operation sequences.

use cuda_driver::{Cuda, KernelDesc};
use gpu_sim::{CostModel, SourceLoc, StreamId};
use proptest::prelude::*;

/// One random application action.
#[derive(Debug, Clone)]
enum Action {
    Work(u64),
    Malloc(u64),
    FreeLast,
    Launch { dur: u64, stream: u8 },
    MemcpyH2D { bytes: u64 },
    MemcpyD2HAsync { bytes: u64, pinned: bool },
    DeviceSync,
    StreamSync(u8),
    Memset { bytes: u64 },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..50_000).prop_map(Action::Work),
        (1u64..64_000).prop_map(Action::Malloc),
        Just(Action::FreeLast),
        ((1u64..200_000), 0u8..3).prop_map(|(dur, stream)| Action::Launch { dur, stream }),
        (1u64..32_000).prop_map(|bytes| Action::MemcpyH2D { bytes }),
        ((1u64..32_000), any::<bool>())
            .prop_map(|(bytes, pinned)| Action::MemcpyD2HAsync { bytes, pinned }),
        Just(Action::DeviceSync),
        (0u8..3).prop_map(Action::StreamSync),
        (1u64..16_000).prop_map(|bytes| Action::Memset { bytes }),
    ]
}

fn run_actions(actions: &[Action]) -> Cuda {
    let mut cuda = Cuda::new(CostModel::pascal_like());
    let site = SourceLoc::new("prop.cu", 1);
    let mut streams = vec![StreamId::DEFAULT];
    for _ in 0..2 {
        streams.push(cuda.stream_create(site).unwrap());
    }
    let h = cuda.host_malloc(64_000);
    let hp = cuda.malloc_host(64_000, site).unwrap();
    let base = cuda.malloc(64_000, site).unwrap();
    let mut allocs: Vec<gpu_sim::DevPtr> = Vec::new();
    for a in actions {
        match a {
            Action::Work(ns) => cuda.machine.cpu_work(*ns, "w"),
            Action::Malloc(b) => {
                if let Ok(p) = cuda.malloc(*b, site) {
                    allocs.push(p);
                }
            }
            Action::FreeLast => {
                if let Some(p) = allocs.pop() {
                    cuda.free(p, site).unwrap();
                }
            }
            Action::Launch { dur, stream } => {
                let k = KernelDesc::compute("pk", *dur);
                cuda.launch_kernel(&k, streams[(*stream as usize) % streams.len()], site).unwrap();
            }
            Action::MemcpyH2D { bytes } => {
                cuda.memcpy_htod(base, h, *bytes, site).unwrap();
            }
            Action::MemcpyD2HAsync { bytes, pinned } => {
                let dst = if *pinned { hp } else { h };
                cuda.memcpy_dtoh_async(dst, base, *bytes, streams[1], site).unwrap();
            }
            Action::DeviceSync => cuda.device_synchronize(site).unwrap(),
            Action::StreamSync(s) => {
                let st = streams[(*s as usize) % streams.len()];
                cuda.stream_synchronize(st, site).unwrap();
            }
            Action::Memset { bytes } => {
                cuda.memset(base.0, 1, *bytes, site).unwrap();
            }
        }
    }
    cuda
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The timeline exactly tiles execution time: every nanosecond of the
    /// run is attributed to exactly one event, events never overlap and
    /// never run backwards.
    #[test]
    fn timeline_tiles_execution(actions in proptest::collection::vec(action_strategy(), 1..40)) {
        let cuda = run_actions(&actions);
        let t = &cuda.machine.timeline;
        let covered: u64 = t.events().iter().map(|e| e.span.duration()).sum();
        prop_assert_eq!(covered, cuda.exec_time_ns());
        for w in t.events().windows(2) {
            prop_assert!(w[1].span.start >= w[0].span.end, "overlap {w:?}");
        }
    }

    /// After `cudaDeviceSynchronize`, the device has no pending work: the
    /// device completion time never exceeds the current CPU time.
    #[test]
    fn device_sync_establishes_quiescence(actions in proptest::collection::vec(action_strategy(), 1..40)) {
        let mut cuda = run_actions(&actions);
        cuda.device_synchronize(SourceLoc::new("prop.cu", 99)).unwrap();
        prop_assert!(cuda.machine.device.device_completion() <= cuda.machine.now());
    }

    /// CPU wait time never exceeds total GPU busy time plus per-op
    /// bookkeeping: you cannot wait longer than the device works
    /// (each wait ends at some op's completion; waits never overlap).
    #[test]
    fn waits_are_bounded_by_device_makespan(actions in proptest::collection::vec(action_strategy(), 1..40)) {
        let cuda = run_actions(&actions);
        let wait: u64 = cuda.machine.timeline.total_wait_ns();
        let makespan = cuda.machine.device.device_completion();
        prop_assert!(wait <= makespan, "wait {wait} makespan {makespan}");
    }

    /// Run-to-run determinism holds for arbitrary action sequences.
    #[test]
    fn arbitrary_programs_are_deterministic(actions in proptest::collection::vec(action_strategy(), 1..30)) {
        let a = run_actions(&actions);
        let b = run_actions(&actions);
        prop_assert_eq!(a.exec_time_ns(), b.exec_time_ns());
        prop_assert_eq!(a.machine.device.op_count(), b.machine.device.op_count());
        prop_assert_eq!(a.machine.timeline.events().len(), b.machine.timeline.events().len());
    }

    /// Pinned async D2H copies never secretly synchronize; pageable ones
    /// always do (under the default driver config).
    #[test]
    fn conditional_sync_matches_pinnedness(bytes in 1u64..32_000, pinned in any::<bool>()) {
        let mut cuda = Cuda::new(CostModel::pascal_like());
        let site = SourceLoc::new("prop.cu", 7);
        let s = cuda.stream_create(site).unwrap();
        let d = cuda.malloc(bytes, site).unwrap();
        let h = if pinned {
            cuda.malloc_host(bytes, site).unwrap()
        } else {
            cuda.host_malloc(bytes)
        };
        cuda.memcpy_dtoh_async(h, d, bytes, s, site).unwrap();
        let hidden = cuda
            .machine
            .timeline
            .waits()
            .any(|w| w.1 == gpu_sim::WaitReason::Conditional);
        prop_assert_eq!(hidden, !pinned);
    }
}
