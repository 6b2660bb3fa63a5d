//! Zero-allocation contracts of the hot loops, checked under a counting
//! global allocator:
//!
//! - steady-state [`Stage2Cols`] reads allocate nothing once a first
//!   read has sized their columns;
//! - reused [`GroupScratch`] grouping passes allocate nothing once
//!   sized;
//! - flight recording on a wrapped ring allocates nothing and stays
//!   within its byte budget;
//! - the store's FFB decode (`decode_artifact`) beats parsing the same
//!   content as JSON.
//!
//! The allocator counts per thread, through a `const`-initialized
//! thread-local (which itself never allocates): the test harness runs
//! these tests on parallel threads, and each contract is about the
//! calling thread's own work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use cuda_driver::ApiFn;
use ffm_core::{
    decode_artifact, encode_artifact, expected_benefit, telemetry, Artifact, ArtifactKind,
    BenefitOptions, ExecGraph, GroupScratch, Json, NType, Node, OpInstance, Problem, SpanEvent,
    Stage2Cols, Stage2Result, Stage4Result, TracedCall, TransferRec,
};
use gpu_sim::{Direction, Frame, SourceLoc, StackTrace, WaitReason};

// ---------------------------------------------------------------------------
// Per-thread counting allocator
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only extra work is bumping a thread-local counter,
// which neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// xorshift64 stream for the synthetic inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// Codec readers
// ---------------------------------------------------------------------------

/// A Stage 2 trace with a realistic shape: ~200 call sites, 2–4 frame
/// stacks over a small function vocabulary, a transfer on about a third
/// of the calls.
fn synthetic_stage2(n: usize) -> Stage2Result {
    let mut rng = Rng(0xd10_9e2e5);
    let apis =
        [ApiFn::CudaFree, ApiFn::CudaMemcpy, ApiFn::CudaMalloc, ApiFn::CudaDeviceSynchronize];
    let funcs = ["solve_iter", "update_theta<float>", "transfer_block", "checkpoint", "main"];
    let files = ["als.cu", "solver.cpp", "driver.cpp"];
    let calls = (0..n)
        .map(|i| {
            let site = SourceLoc::new(files[rng.below(3) as usize], rng.below(200) as u32 + 1);
            let frames = (0..2 + rng.below(3))
                .map(|d| {
                    let loc = SourceLoc::new(files[rng.below(3) as usize], (d as u32 + 1) * 10);
                    Frame::new(funcs[rng.below(5) as usize], loc)
                })
                .collect();
            let stack = StackTrace { frames };
            let enter = i as u64 * 1_000;
            TracedCall {
                seq: i,
                api: apis[rng.below(4) as usize],
                site,
                sig: stack.address_signature(),
                folded_sig: stack.folded_signature(),
                stack,
                occ: rng.below(64),
                enter_ns: enter,
                exit_ns: enter + 200 + rng.below(5_000),
                wait_ns: rng.below(2_000),
                wait_reason: [Some(WaitReason::Explicit), Some(WaitReason::Implicit), None]
                    [rng.below(3) as usize],
                transfer: (rng.below(3) == 0).then(|| TransferRec {
                    dir: if rng.below(2) == 0 { Direction::HtoD } else { Direction::DtoH },
                    bytes: 4096 + rng.below(1_000_000),
                    host: rng.next(),
                    dev: rng.next(),
                    pinned: rng.below(2) == 0,
                    is_async: rng.below(4) == 0,
                }),
                is_launch: rng.below(5) == 0,
            }
        })
        .collect();
    Stage2Result { exec_time_ns: n as u64 * 6_000, calls }
}

/// After one warmup read sizes the scratch (and interns the strings),
/// repeat reads must not touch the heap.
fn assert_steady_state_read(name: &str, file: &[u8], mut read: impl FnMut(&[u8])) {
    read(file);
    let allocs = allocs_in(|| read(std::hint::black_box(file)));
    assert_eq!(allocs, 0, "steady-state {name} read must not allocate");
}

#[test]
fn steady_state_column_reads_allocate_nothing() {
    let stage2 = encode_artifact(&Artifact::Stage2(Arc::new(synthetic_stage2(8_000))))
        .expect("stage 2 encodes");
    let mut cols = Stage2Cols::new();
    assert_steady_state_read("Stage2Cols", &stage2, |b| cols.read(b).expect("stage 2 reads"));
    assert_eq!(cols.len(), 8_000);
}

fn stage4_to_json(s: &Stage4Result) -> Json {
    let mut gaps: Vec<(&OpInstance, &u64)> = s.first_use_ns.iter().collect();
    gaps.sort();
    let gaps = gaps
        .iter()
        .map(|(op, ns)| {
            Json::obj([
                ("sig", Json::Int(op.sig as i128)),
                ("occ", Json::Int(op.occ as i128)),
                ("first_use_ns", Json::Int(**ns as i128)),
            ])
        })
        .collect();
    Json::obj([("gaps", Json::Arr(gaps)), ("exec_time_ns", Json::Int(s.exec_time_ns as i128))])
}

/// Median seconds of five timed runs of `f`, after one warmup run.
fn median_secs(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

#[test]
fn ffb_stage4_decode_beats_json_parse() {
    let mut rng = Rng(0xc0dec);
    let n = 20_000u64;
    let first_use_ns: HashMap<OpInstance, u64> = (0..n)
        .map(|occ| (OpInstance { sig: rng.below(50_000), occ }, rng.below(1_000_000)))
        .collect();
    let stage4 = Stage4Result { first_use_ns, exec_time_ns: n * 1_000 };
    let json = stage4_to_json(&stage4).to_string_pretty();
    let ffb = encode_artifact(&Artifact::Stage4(Arc::new(stage4))).expect("stage 4 encodes");

    let ffb_s = median_secs(|| {
        std::hint::black_box(decode_artifact(std::hint::black_box(&ffb), ArtifactKind::Stage4))
            .expect("stage 4 decodes");
    });
    let json_s = median_secs(|| {
        std::hint::black_box(Json::parse(std::hint::black_box(&json))).expect("JSON parses");
    });
    assert!(ffb_s < json_s, "FFB stage 4 decode ({ffb_s:.6}s) must beat JSON parse ({json_s:.6}s)");
}

// ---------------------------------------------------------------------------
// Grouping scratch
// ---------------------------------------------------------------------------

/// A large classified graph: problematic syncs and transfers mixed with
/// plain work over ~1000 call sites.
fn synthetic_graph(len: usize) -> ExecGraph {
    let mut rng = Rng(0xd10_9e2e5);
    let apis =
        [ApiFn::CudaFree, ApiFn::CudaMemcpy, ApiFn::CudaMalloc, ApiFn::CudaDeviceSynchronize];
    let nodes: Vec<Node> = (0..len)
        .map(|i| {
            let (ntype, problem) = match rng.below(6) {
                0 => (NType::CWait, Problem::UnnecessarySync),
                1 => (NType::CWait, Problem::None),
                2 => (NType::CWait, Problem::MisplacedSync),
                3 => (NType::CLaunch, Problem::UnnecessaryTransfer),
                4 => (NType::CWork, Problem::None),
                _ => (NType::CWork, Problem::MisplacedSync),
            };
            let sig = rng.below(1_000);
            Node {
                ntype,
                stime: 0,
                duration: 5 + rng.below(50),
                problem,
                first_use_ns: Some(rng.below(40)),
                call_seq: None,
                instance: Some(OpInstance { sig, occ: i as u64 }),
                folded_sig: Some(sig % 100),
                api: Some(apis[rng.below(4) as usize]),
                site: Some(SourceLoc::new("synthetic.cpp", (sig % 900) as u32 + 1)),
                is_transfer: problem == Problem::UnnecessaryTransfer,
            }
        })
        .collect();
    let exec = nodes.iter().map(|n| n.duration).sum();
    ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
}

/// Reused grouping scratch allocates nothing once a first pass has sized
/// it.
#[test]
fn windowed_fold_and_grouping_allocate_nothing_in_steady_state() {
    let full = synthetic_graph(20_000);
    let benefit = expected_benefit(&full, &BenefitOptions::default());
    // Single point, folded function, per-API.
    let mut scratch = GroupScratch::new();
    let mut passes = || {
        scratch.compute_single_point(&full, &benefit);
        scratch.compute_folded_function(&full, &benefit);
        scratch.compute_api_fold(&full, &benefit);
        std::hint::black_box(scratch.len());
    };
    passes();
    assert_eq!(allocs_in(passes), 0, "steady-state grouping passes must not allocate");
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// `n` outer spans with one inner span each, no detail labels — the
/// daemon's typical shape.
fn record_spans(n: usize) {
    for _ in 0..n {
        let _outer = telemetry::span("alloc.outer");
        let _inner = telemetry::span("alloc.inner");
    }
}

#[test]
fn wrapped_flight_ring_records_without_allocating_and_stays_in_budget() {
    const BUDGET: usize = 64 * 1024;
    telemetry::flight_clear();
    telemetry::flight_configure(BUDGET);
    // Warm up past wraparound: 20k events overflow a 64 KiB ring.
    record_spans(10_000);
    let warm = telemetry::flight_stats();
    assert!(warm.overwritten > 0, "ring never wrapped during warmup: {warm:?}");
    assert!(warm.bytes <= warm.budget_bytes, "ring over budget: {warm:?}");

    let allocs = allocs_in(|| record_spans(1_000));
    assert_eq!(allocs, 0, "steady-state flight recording must not touch the heap");
    let after = telemetry::flight_stats();
    assert!(after.bytes <= after.budget_bytes, "ring over budget: {after:?}");
    assert!(after.overwritten > warm.overwritten, "steady state kept overwriting the oldest");

    // What survived is a well-formed suffix on every track.
    let mut by_track: BTreeMap<u32, Vec<SpanEvent>> = BTreeMap::new();
    for (track, e) in telemetry::flight_events() {
        by_track.entry(track).or_default().push(e);
    }
    assert!(!by_track.is_empty(), "ring is empty after recording");
    for (track, spans) in &by_track {
        telemetry::spans_well_formed(spans)
            .unwrap_or_else(|e| panic!("flight track {track} malformed: {e}"));
    }
    telemetry::flight_configure(0);
    telemetry::flight_clear();
}
