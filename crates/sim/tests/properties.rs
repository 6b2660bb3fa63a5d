//! Property-based tests for the simulator's core invariants.

use gpu_sim::clock::{merged_duration, Span};
use gpu_sim::{AddressSpace, Device, Direction, GpuOpKind, HostAllocKind, StreamId};
use proptest::prelude::*;

/// An arbitrary op request: (delay before enqueue, stream, is_copy, duration).
fn op_strategy() -> impl Strategy<Value = (u64, u32, bool, u64)> {
    (0u64..1_000, 0u32..4, any::<bool>(), 1u64..500)
}

proptest! {
    /// Ops on the same engine never overlap, and ops on the same stream
    /// start only after their predecessor ends.
    #[test]
    fn device_scheduling_invariants(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut d = Device::new();
        let mut now = 0u64;
        for (delay, stream, is_copy, dur) in ops {
            now += delay;
            let kind = if is_copy {
                GpuOpKind::Transfer { dir: Direction::HtoD, bytes: dur }
            } else {
                GpuOpKind::Kernel { name: "k" }
            };
            d.enqueue(now, StreamId(stream), kind, dur);
        }
        let all = d.ops();
        for (i, a) in all.iter().enumerate() {
            // starts never precede enqueue
            prop_assert!(a.start_ns >= a.enqueue_ns);
            for b in &all[i + 1..] {
                if a.kind.engine() == b.kind.engine() {
                    // serial engines: no overlap
                    prop_assert!(b.start_ns >= a.end_ns || a.start_ns >= b.end_ns,
                        "engine overlap: {a:?} vs {b:?}");
                }
                if a.stream == b.stream {
                    // in-order streams: later enqueue finishes later
                    prop_assert!(b.start_ns >= a.end_ns,
                        "stream order violated: {a:?} vs {b:?}");
                }
            }
        }
        // busy time can never exceed makespan
        let makespan = d.device_completion();
        prop_assert!(d.busy_ns() <= makespan);
    }

    /// merged_duration is bounded by the sum of durations and by the hull.
    #[test]
    fn merged_duration_bounds(spans in proptest::collection::vec((0u64..10_000, 1u64..500), 0..40)) {
        let spans: Vec<Span> = spans.into_iter().map(|(s, d)| Span::new(s, s + d)).collect();
        let sum: u64 = spans.iter().map(|s| s.duration()).sum();
        let hull = spans.iter().map(|s| s.end).max().unwrap_or(0)
            .saturating_sub(spans.iter().map(|s| s.start).min().unwrap_or(0));
        let merged = merged_duration(spans.clone());
        prop_assert!(merged <= sum);
        prop_assert!(merged <= hull);
        if let Some(m) = spans.iter().map(|s| s.duration()).max() {
            prop_assert!(merged >= m);
        }
    }

    /// Address-space writes read back exactly, and distinct allocations
    /// never alias.
    #[test]
    fn address_space_roundtrip(
        sizes in proptest::collection::vec(1u64..2_048, 1..12),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut m = AddressSpace::new(0x1000);
        let ptrs: Vec<u64> = sizes.iter().map(|&s| m.alloc(s, HostAllocKind::Pageable)).collect();
        for (&p, &s) in ptrs.iter().zip(&sizes) {
            let n = payload.len().min(s as usize);
            m.write(p, &payload[..n]).unwrap();
        }
        for (&p, &s) in ptrs.iter().zip(&sizes) {
            let n = payload.len().min(s as usize);
            prop_assert_eq!(m.read(p, n as u64).unwrap(), payload[..n].to_vec());
        }
        // free everything; space must be empty
        for &p in &ptrs {
            m.free(p).unwrap();
        }
        prop_assert_eq!(m.live_bytes(), 0);
        prop_assert_eq!(m.live_allocs(), 0);
    }

    /// Transfer cost is monotone in size for every direction/pinnedness.
    #[test]
    fn transfer_cost_monotone(a in 0u64..1_000_000, b in 0u64..1_000_000, pinned in any::<bool>()) {
        let c = gpu_sim::CostModel::pascal_like();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for dir in [Direction::HtoD, Direction::DtoH, Direction::DtoD] {
            prop_assert!(c.transfer_ns(lo, dir, pinned) <= c.transfer_ns(hi, dir, pinned));
        }
    }
}
