//! Timing and allocation harness for the streaming incremental
//! analysis ([`ffm_core::IncrementalAnalysis`]).
//!
//! The claim under test: folding a window of newly appended nodes costs
//! time proportional to the *window*, not to everything folded before
//! it — the property that makes per-epoch snapshots affordable while a
//! job runs. The harness folds a large pre-classified synthetic graph
//! window by window and compares against the naive alternative (re-run
//! the whole expected-benefit pass over the full prefix at every
//! epoch), at several window sizes and two graph sizes. Writes
//! `results/BENCH_stream.json`.
//!
//! `--smoke` runs a reduced graph and asserts the contracts instead of
//! timing: the incremental analysis finished after any windowing agrees
//! with the whole-graph entry points, a reset-and-refold pass over
//! pre-sized state performs zero heap allocations in the fold loop, and
//! so do reused `GroupScratch` grouping passes. CI runs this mode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cuda_driver::ApiFn;
use ffm_core::{
    expected_benefit, find_sequences, fold_on_api, single_point_groups, AnalysisConfig, ExecGraph,
    GroupScratch, IncrementalAnalysis, Json, NType, Node, Problem,
};
use gpu_sim::SourceLoc;

// ---------------------------------------------------------------------------
// Counting allocator (this binary only)
// ---------------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations (calls, bytes) performed by `f`.
fn count_allocs(mut f: impl FnMut()) -> (u64, u64) {
    let calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
    f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - calls, ALLOC_BYTES.load(Ordering::Relaxed) - bytes)
}

// ---------------------------------------------------------------------------
// Synthetic workload
// ---------------------------------------------------------------------------

/// A large pre-classified graph (the state the streaming driver hands
/// the fold after `classify_range`): problematic syncs and transfers
/// mixed with plain work, ~1000 distinct call sites.
fn synthetic_graph(len: usize, seed: u64) -> ExecGraph {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let apis =
        [ApiFn::CudaFree, ApiFn::CudaMemcpy, ApiFn::CudaMalloc, ApiFn::CudaDeviceSynchronize];
    let nodes: Vec<Node> = (0..len)
        .map(|i| {
            let (ntype, problem) = match next() % 6 {
                0 => (NType::CWait, Problem::UnnecessarySync),
                1 => (NType::CWait, Problem::None),
                2 => (NType::CWait, Problem::MisplacedSync),
                3 => (NType::CLaunch, Problem::UnnecessaryTransfer),
                4 => (NType::CWork, Problem::None),
                _ => (NType::CWork, Problem::MisplacedSync),
            };
            let sig = next() % 1_000;
            Node {
                ntype,
                stime: 0,
                duration: 5 + next() % 50,
                problem,
                first_use_ns: Some(next() % 40),
                call_seq: None,
                instance: Some(ffm_core::OpInstance { sig, occ: i as u64 }),
                folded_sig: Some(sig % 100),
                api: Some(apis[(next() % apis.len() as u64) as usize]),
                site: Some(SourceLoc::new("synthetic.cpp", (sig % 900) as u32 + 1)),
                is_transfer: problem == Problem::UnnecessaryTransfer,
            }
        })
        .collect();
    let exec = nodes.iter().map(|n| n.duration).sum();
    ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
}

/// Fold `full` into `inc` window by window through a reusable growing
/// prefix graph. Only the `fold` calls are the measured subject; the
/// prefix extension is the append the streaming driver does outside the
/// fold. Returns total heap allocations performed *inside* the fold
/// calls.
fn fold_in_windows(
    inc: &mut IncrementalAnalysis,
    growing: &mut ExecGraph,
    full: &ExecGraph,
    window: usize,
) -> (u64, u64) {
    let mut allocs = (0u64, 0u64);
    let mut consumed = 0;
    while consumed < full.nodes.len() {
        let hi = (consumed + window).min(full.nodes.len());
        growing.nodes.extend_from_slice(&full.nodes[consumed..hi]);
        let (c, b) = count_allocs(|| {
            inc.fold(growing);
        });
        allocs.0 += c;
        allocs.1 += b;
        consumed = hi;
    }
    allocs
}

fn fresh_prefix(full: &ExecGraph) -> ExecGraph {
    ExecGraph {
        nodes: Vec::with_capacity(full.nodes.len()),
        exec_time_ns: full.exec_time_ns,
        baseline_exec_ns: full.baseline_exec_ns,
    }
}

// ---------------------------------------------------------------------------
// Contracts (--smoke and pre-timing sanity)
// ---------------------------------------------------------------------------

/// The incremental fold, finished after folding `full` in windows, must
/// agree with the whole-graph entry points — same benefit, same groups,
/// same sequences.
fn assert_matches_batch(full: &ExecGraph, window: usize) {
    let cfg = AnalysisConfig::default();
    let mut inc = IncrementalAnalysis::new(&cfg);
    let mut growing = fresh_prefix(full);
    fold_in_windows(&mut inc, &mut growing, full, window);
    let analysis = inc.finish(growing, full.baseline_exec_ns);

    let benefit = expected_benefit(full, &cfg.benefit);
    assert_eq!(analysis.benefit.total_ns, benefit.total_ns, "total benefit diverges");
    assert_eq!(analysis.benefit.per_node, benefit.per_node, "per-node benefit diverges");
    let sp = single_point_groups(full, &benefit);
    assert_eq!(analysis.single_point.len(), sp.len(), "single-point group count diverges");
    let sp_sum: u64 = sp.iter().map(|g| g.benefit_ns).sum();
    let inc_sp_sum: u64 = analysis.single_point.iter().map(|g| g.benefit_ns).sum();
    assert_eq!(inc_sp_sum, sp_sum, "single-point benefit diverges");
    let af = fold_on_api(full, &benefit);
    assert_eq!(analysis.api_folds.len(), af.len(), "api-fold group count diverges");
    let seqs = find_sequences(full, 1);
    assert_eq!(analysis.sequences.len(), seqs.len(), "sequence count diverges");
    let seq_sum: u64 = seqs.iter().map(|s| s.benefit_ns).sum();
    let inc_seq_sum: u64 = analysis.sequences.iter().map(|s| s.benefit_ns).sum();
    assert_eq!(inc_seq_sum, seq_sum, "sequence benefit diverges");
}

/// The steady-state allocation contract `--smoke` (and CI) asserts:
/// once the incremental state has been sized by a full pass, a
/// reset-and-refold of the same workload must not touch the heap from
/// inside the fold loop.
fn assert_zero_steady_state(full: &ExecGraph, window: usize) {
    let cfg = AnalysisConfig::default();
    let mut inc = IncrementalAnalysis::new(&cfg);
    let mut growing = fresh_prefix(full);
    fold_in_windows(&mut inc, &mut growing, full, window); // warmup sizes the state
    inc.reset();
    growing.nodes.clear();
    let (allocs, bytes) = fold_in_windows(&mut inc, &mut growing, full, window);
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "steady-state incremental fold must not allocate (window {window})"
    );
}

/// Reused [`GroupScratch`] grouping passes — single point, folded
/// function and per-API fold — must not touch the heap once a first pass
/// has sized the scratch.
fn assert_zero_steady_state_grouping(full: &ExecGraph) {
    let benefit = expected_benefit(full, &AnalysisConfig::default().benefit);
    let mut scratch = GroupScratch::new();
    let mut passes = || {
        scratch.compute_single_point(full, &benefit);
        scratch.compute_folded_function(full, &benefit);
        scratch.compute_api_fold(full, &benefit);
        std::hint::black_box(scratch.len());
    };
    passes(); // warmup sizes the scratch
    let (allocs, bytes) = count_allocs(passes);
    assert_eq!((allocs, bytes), (0, 0), "steady-state grouping passes must not allocate");
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

const ITERS: usize = 5;

/// Run `f` once to warm up, then `ITERS` timed iterations; seconds, median.
fn time_median(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median seconds for one full incremental pass (all windows) over `full`.
fn time_incremental(full: &ExecGraph, window: usize) -> f64 {
    let cfg = AnalysisConfig::default();
    let mut inc = IncrementalAnalysis::new(&cfg);
    let mut growing = fresh_prefix(full);
    time_median(|| {
        inc.reset();
        growing.nodes.clear();
        let mut consumed = 0;
        while consumed < full.nodes.len() {
            let hi = (consumed + window).min(full.nodes.len());
            growing.nodes.extend_from_slice(&full.nodes[consumed..hi]);
            inc.fold(&growing);
            consumed = hi;
        }
    })
}

/// Median seconds for the naive alternative: a full expected-benefit
/// re-analysis of the whole prefix at every epoch boundary.
fn time_full_reanalysis(full: &ExecGraph, window: usize) -> f64 {
    let cfg = AnalysisConfig::default();
    let mut growing = fresh_prefix(full);
    time_median(|| {
        growing.nodes.clear();
        let mut consumed = 0;
        while consumed < full.nodes.len() {
            let hi = (consumed + window).min(full.nodes.len());
            growing.nodes.extend_from_slice(&full.nodes[consumed..hi]);
            std::hint::black_box(expected_benefit(&growing, &cfg.benefit));
            consumed = hi;
        }
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    if smoke {
        let full = synthetic_graph(20_000, 0xd10_9e2e5);
        for window in [64, 997] {
            assert_matches_batch(&full, window);
            assert_zero_steady_state(&full, window);
        }
        assert_zero_steady_state_grouping(&full);
        eprintln!(
            "bench_stream --smoke: ok (20000 nodes, batch identity, zero fold and grouping \
             allocations)"
        );
        return;
    }

    let n = 100_000;
    let full = synthetic_graph(n, 0xd10_9e2e5);
    let half = synthetic_graph(n / 2, 0xd10_9e2e5);
    eprintln!("bench_stream: {n}-node synthetic graph, {ITERS} iterations per scenario");
    assert_matches_batch(&full, 997);
    assert_zero_steady_state(&full, 997);

    let mut scenarios = Vec::new();
    for window in [64usize, 256, 1024] {
        let windows = n.div_ceil(window);
        let inc_s = time_incremental(&full, window);
        let naive_s = time_full_reanalysis(&full, window);
        // Same window over half the graph: per-window cost should track
        // the window, not the total size (the streaming claim).
        let half_s = time_incremental(&half, window);
        let half_windows = (n / 2).div_ceil(window);
        let per_window_ns = inc_s * 1e9 / windows as f64;
        let half_per_window_ns = half_s * 1e9 / half_windows as f64;
        eprintln!(
            "  window {window:>5}: incremental {:>9.1} ns/window (half-graph {:>9.1}), \
             full re-analysis {:>11.1} ns/window, speedup {:.1}x",
            per_window_ns,
            half_per_window_ns,
            naive_s * 1e9 / windows as f64,
            naive_s / inc_s
        );
        scenarios.push(Json::obj([
            ("window", Json::Int(window as i128)),
            ("windows", Json::Int(windows as i128)),
            ("incremental_s", Json::Float(inc_s)),
            ("incremental_ns_per_window", Json::Float(per_window_ns)),
            ("half_graph_ns_per_window", Json::Float(half_per_window_ns)),
            ("full_reanalysis_s", Json::Float(naive_s)),
            ("full_reanalysis_ns_per_window", Json::Float(naive_s * 1e9 / windows as f64)),
            ("speedup", Json::Float(naive_s / inc_s)),
        ]));
    }

    let doc = Json::obj([
        ("bench", Json::Str("streaming-incremental-analysis".to_string())),
        ("meta", diogenes_bench::bench_meta(1, "synthetic")),
        ("nodes", Json::Int(n as i128)),
        ("iterations", Json::Int(ITERS as i128)),
        ("scenarios", Json::Arr(scenarios)),
    ]);
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_stream.json";
    std::fs::write(path, doc.to_string_pretty()).expect("write results");
    eprintln!("bench_stream: wrote {path}");
}
