//! The execution graph the analysis stage reasons over (paper §3.5).
//!
//! Application execution is modeled as a chain of CPU nodes — `CWork`
//! (computation), `CLaunch` (enqueuing asynchronous device work) and
//! `CWait` (blocking on the device) — whose out-edge labels are real-time
//! durations. The expected-benefit algorithm needs *only* the CPU chain:
//! the paper's key observation is that the upper bound on reclaimable GPU
//! idle time between two synchronizations is the CPU time spent between
//! them, so no GPU-side graph is required for the estimate.

use cuda_driver::ApiFn;
use gpu_sim::{Ns, SourceLoc};

use crate::problem::Problem;
use crate::records::{OpInstance, Stage2Result, TracedCall};

/// CPU node types (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NType {
    /// Application computation between driver calls.
    CWork,
    /// CPU-side cost of enqueueing asynchronous device work.
    CLaunch,
    /// CPU blocked waiting on device progress.
    CWait,
}

/// One node of the CPU execution graph.
#[derive(Debug, Clone)]
pub struct Node {
    pub ntype: NType,
    /// Event start time.
    pub stime: Ns,
    /// Out-edge label: the real-time duration of the event.
    pub duration: Ns,
    /// Problem classification (filled by [`crate::problem::classify`]).
    pub problem: Problem,
    /// Sync-to-first-use gap (stage 4), for misplaced synchronizations.
    pub first_use_ns: Option<Ns>,
    /// Index of the originating traced call in the stage 2 trace.
    pub call_seq: Option<usize>,
    /// Operation identity for cross-run matching.
    pub instance: Option<OpInstance>,
    /// Folded-function signature of the originating call.
    pub folded_sig: Option<u64>,
    pub api: Option<ApiFn>,
    pub site: Option<SourceLoc>,
    /// True for the launch part of a memory transfer (the node
    /// `RemoveMemoryTransfer` zeroes).
    pub is_transfer: bool,
}

impl Node {
    fn work(stime: Ns, duration: Ns) -> Node {
        Node {
            ntype: NType::CWork,
            stime,
            duration,
            problem: Problem::None,
            first_use_ns: None,
            call_seq: None,
            instance: None,
            folded_sig: None,
            api: None,
            site: None,
            is_transfer: false,
        }
    }
}

/// The CPU execution graph of one traced run.
#[derive(Debug, Clone)]
pub struct ExecGraph {
    pub nodes: Vec<Node>,
    /// Execution time of the traced run the graph came from.
    pub exec_time_ns: Ns,
    /// Baseline (stage 1) execution time, used for % -of-execution
    /// figures so that probe overhead in the traced run does not inflate
    /// percentages.
    pub baseline_exec_ns: Ns,
}

impl ExecGraph {
    /// Build the CPU graph from a stage 2 trace.
    ///
    /// Each traced call contributes up to two nodes: a non-waiting part
    /// (`CLaunch` for launches/transfers, `CWork` for other driver time)
    /// followed by a `CWait` for any time in the sync funnel. Gaps
    /// between calls become `CWork` nodes. Synchronizing calls that
    /// happened not to block still contribute a zero-duration `CWait` so
    /// classification and grouping see every instance.
    pub fn from_trace(trace: &Stage2Result, baseline_exec_ns: Ns) -> ExecGraph {
        let mut b = GraphBuilder::with_capacity(baseline_exec_ns, trace.calls.len());
        b.append_calls(&trace.calls);
        b.seal(trace.exec_time_ns);
        b.into_graph()
    }

    /// Indices of nodes with a problem classification.
    pub fn problematic(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.problematic_into(&mut out);
        out
    }

    /// Scratch-reusing variant of [`ExecGraph::problematic`]: clears
    /// `out` and fills it with the problematic node indices, allocating
    /// only when `out`'s capacity is exceeded.
    pub fn problematic_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.problem != Problem::None)
                .map(|(i, _)| i),
        );
    }

    /// Index of the next synchronization node strictly after `idx`.
    pub fn next_sync_after(&self, idx: usize) -> Option<usize> {
        self.nodes[idx + 1..].iter().position(|n| n.ntype == NType::CWait).map(|p| idx + 1 + p)
    }

    /// Sum of durations of `CWork`/`CLaunch` nodes strictly between two
    /// node indices (the paper's `SumDuration(CPUNodesBetween(...))`).
    pub fn cpu_time_between(&self, start: usize, end: usize) -> Ns {
        self.nodes[start + 1..end]
            .iter()
            .filter(|n| matches!(n.ntype, NType::CWork | NType::CLaunch))
            .map(|n| n.duration)
            .sum()
    }

    /// Total CPU wait time in the graph.
    pub fn total_wait_ns(&self) -> Ns {
        self.nodes.iter().filter(|n| n.ntype == NType::CWait).map(|n| n.duration).sum()
    }

    /// Build the O(1)-query index for this graph. Valid only while the
    /// graph's node types and durations stay unchanged.
    pub fn index(&self) -> GraphIndex {
        let mut ix = GraphIndex::new();
        ix.extend(self);
        ix
    }
}

/// Append-only construction of an [`ExecGraph`] from incremental
/// stage-2 call batches.
///
/// [`ExecGraph::from_trace`] is implemented on top of this builder, so
/// feeding the same calls in any batching produces a graph
/// node-for-node identical to the batch path — the property the
/// streaming pipeline's byte-identity guarantee rests on.
///
/// While the trace is still open, `graph().exec_time_ns` tracks the
/// exit time of the last appended call; [`GraphBuilder::seal`] replaces
/// it with the trace's measured execution time and appends the trailing
/// `CWork` node covering any un-traced tail.
#[derive(Debug)]
pub struct GraphBuilder {
    graph: ExecGraph,
    cursor: Ns,
    sealed: bool,
}

impl GraphBuilder {
    pub fn new(baseline_exec_ns: Ns) -> GraphBuilder {
        GraphBuilder::with_capacity(baseline_exec_ns, 0)
    }

    /// Builder with node storage pre-sized for `calls_hint` traced calls.
    pub fn with_capacity(baseline_exec_ns: Ns, calls_hint: usize) -> GraphBuilder {
        GraphBuilder {
            graph: ExecGraph {
                nodes: Vec::with_capacity(calls_hint * 2 + 1),
                exec_time_ns: 0,
                baseline_exec_ns,
            },
            cursor: 0,
            sealed: false,
        }
    }

    /// Append the next batch of traced calls. Calls must arrive in trace
    /// order across batches. Returns the index range of nodes added.
    pub fn append_calls(&mut self, calls: &[TracedCall]) -> std::ops::Range<usize> {
        assert!(!self.sealed, "append_calls after seal");
        let first = self.graph.nodes.len();
        for call in calls {
            if call.enter_ns > self.cursor {
                self.graph.nodes.push(Node::work(self.cursor, call.enter_ns - self.cursor));
            }
            let total = call.total_ns();
            let wait = call.wait_ns.min(total);
            let body = total - wait;
            let meta = |ntype, stime, duration, is_transfer| Node {
                ntype,
                stime,
                duration,
                problem: Problem::None,
                first_use_ns: None,
                call_seq: Some(call.seq),
                instance: Some(call.instance()),
                folded_sig: Some(call.folded_sig),
                api: Some(call.api),
                site: Some(call.site),
                is_transfer,
            };
            let is_transfer = call.transfer.is_some();
            if body > 0 || !call.performed_sync() {
                let ntype =
                    if call.is_launch || is_transfer { NType::CLaunch } else { NType::CWork };
                self.graph.nodes.push(meta(ntype, call.enter_ns, body, is_transfer));
            }
            if call.performed_sync() {
                self.graph.nodes.push(meta(NType::CWait, call.enter_ns + body, wait, false));
            }
            self.cursor = call.exit_ns;
        }
        self.graph.exec_time_ns = self.cursor;
        first..self.graph.nodes.len()
    }

    /// Close the trace: record its measured execution time and append
    /// the trailing `CWork` node if the trace extends past the last
    /// call. Returns the index range of nodes added (empty or one).
    pub fn seal(&mut self, exec_time_ns: Ns) -> std::ops::Range<usize> {
        assert!(!self.sealed, "seal called twice");
        self.sealed = true;
        let first = self.graph.nodes.len();
        if exec_time_ns > self.cursor {
            self.graph.nodes.push(Node::work(self.cursor, exec_time_ns - self.cursor));
        }
        self.graph.exec_time_ns = exec_time_ns;
        first..self.graph.nodes.len()
    }

    /// The graph built so far.
    pub fn graph(&self) -> &ExecGraph {
        &self.graph
    }

    /// Mutable access, for classification of freshly appended nodes.
    pub fn graph_mut(&mut self) -> &mut ExecGraph {
        &mut self.graph
    }

    pub fn into_graph(self) -> ExecGraph {
        self.graph
    }
}

/// Prefix sums of CPU (`CWork`/`CLaunch`) durations over an append-only
/// [`ExecGraph`]. Turns the linear scan of [`ExecGraph::cpu_time_between`]
/// into an O(1) query, which is what makes evaluating thousands of
/// candidate sequence windows cheap. [`ExecGraph::index`] covers a whole
/// graph; the streaming analysis extends one index window by window.
/// Valid only while the covered nodes' types and durations stay
/// unchanged.
#[derive(Debug, Clone)]
pub struct GraphIndex {
    /// `cpu_prefix[i]` = CPU time in nodes `[0, i)`; length `n + 1`.
    cpu_prefix: Vec<Ns>,
}

impl Default for GraphIndex {
    fn default() -> Self {
        GraphIndex { cpu_prefix: vec![0] }
    }
}

impl GraphIndex {
    pub fn new() -> GraphIndex {
        GraphIndex::default()
    }

    /// Cover the nodes appended to `graph` since the last call.
    pub fn extend(&mut self, graph: &ExecGraph) {
        let mut acc = self.cpu_prefix[self.len()];
        let fresh = &graph.nodes[self.len()..];
        self.cpu_prefix.reserve(fresh.len());
        for node in fresh {
            if matches!(node.ntype, NType::CWork | NType::CLaunch) {
                acc += node.duration;
            }
            self.cpu_prefix.push(acc);
        }
    }

    /// Forget every covered node, keeping capacity.
    pub fn clear(&mut self) {
        self.cpu_prefix.truncate(1);
    }

    /// O(1) equivalent of [`ExecGraph::cpu_time_between`].
    pub fn cpu_time_between(&self, start: usize, end: usize) -> Ns {
        if start + 1 >= end {
            return 0;
        }
        self.cpu_prefix[end] - self.cpu_prefix[start + 1]
    }

    /// Number of nodes the index covers.
    pub fn len(&self) -> usize {
        self.cpu_prefix.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The first `CWait` strictly after `idx` and before `end`, or `end` when
/// there is none. `frontier` carries the scan between calls for
/// ascending `idx`: nodes below it are known not to hold that `CWait`, so
/// a forward walk scans each node once, and a walk that found nothing
/// resumes where it stopped once more nodes are appended.
pub(crate) fn next_wait(graph: &ExecGraph, frontier: &mut usize, idx: usize, end: usize) -> usize {
    if *frontier <= idx {
        *frontier = idx + 1;
    }
    while *frontier < end && graph.nodes[*frontier].ntype != NType::CWait {
        *frontier += 1;
    }
    *frontier
}

/// Compressed-sparse-row adjacency: a `row → members` mapping flattened
/// into two plain vectors (`offsets`, one slot per row plus a sentinel,
/// and the concatenated `items`). The grouping passes use it for their
/// group → member-node tables; `rebuild_from_pairs` is a scratch-buffer
/// API — repeated rebuilds on same-shaped inputs reuse the backing
/// storage and allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    pub fn new() -> Csr {
        Csr::default()
    }

    /// Rebuild from `(row, item)` pairs via a counting sort. Stable: items
    /// of one row keep their order in `pairs`, so group member lists stay
    /// byte-identical to the old insertion-order map-based grouping.
    pub fn rebuild_from_pairs(&mut self, rows: usize, pairs: &[(u32, usize)]) {
        self.offsets.clear();
        self.offsets.resize(rows + 1, 0);
        for &(row, _) in pairs {
            self.offsets[row as usize + 1] += 1;
        }
        for r in 0..rows {
            self.offsets[r + 1] += self.offsets[r];
        }
        self.items.clear();
        self.items.resize(pairs.len(), 0);
        // Scatter using a per-row cursor that starts at the row offset;
        // restore the offsets afterwards by shifting back one slot.
        let mut cursor = std::mem::take(&mut self.offsets);
        for &(row, item) in pairs {
            self.items[cursor[row as usize]] = item;
            cursor[row as usize] += 1;
        }
        // cursor[r] now equals the *end* of row r, i.e. offsets[r + 1];
        // rebuild offsets by prepending 0 and dropping the sentinel shift.
        for r in (1..=rows).rev() {
            cursor[r] = cursor[r - 1];
        }
        if rows > 0 {
            cursor[0] = 0;
        }
        self.offsets = cursor;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Members of row `r`, in insertion order.
    pub fn row(&self, r: usize) -> &[usize] {
        &self.items[self.offsets[r]..self.offsets[r + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::TracedCall;
    use gpu_sim::{StackTrace, WaitReason};

    fn call(seq: usize, api: ApiFn, enter: Ns, exit: Ns, wait: Ns, launch: bool) -> TracedCall {
        TracedCall {
            seq,
            api,
            site: SourceLoc::new("app.cpp", 10 + seq as u32),
            stack: StackTrace::default(),
            sig: seq as u64 * 100,
            folded_sig: seq as u64 * 100,
            occ: 0,
            enter_ns: enter,
            exit_ns: exit,
            wait_ns: wait,
            wait_reason: (wait > 0 || api.documented_sync()).then_some(WaitReason::Explicit),
            transfer: None,
            is_launch: launch,
        }
    }

    #[test]
    fn gaps_become_cwork_nodes() {
        let trace = Stage2Result {
            exec_time_ns: 100,
            calls: vec![call(0, ApiFn::CudaLaunchKernel, 20, 30, 0, true)],
        };
        let g = ExecGraph::from_trace(&trace, 100);
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.nodes[0].ntype, NType::CWork);
        assert_eq!(g.nodes[0].duration, 20);
        assert_eq!(g.nodes[1].ntype, NType::CLaunch);
        assert_eq!(g.nodes[1].duration, 10);
        assert_eq!(g.nodes[2].ntype, NType::CWork);
        assert_eq!(g.nodes[2].duration, 70);
    }

    #[test]
    fn waiting_call_splits_into_body_and_wait() {
        let trace = Stage2Result {
            exec_time_ns: 50,
            calls: vec![call(0, ApiFn::CudaFree, 0, 50, 40, false)],
        };
        let g = ExecGraph::from_trace(&trace, 50);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.nodes[0].ntype, NType::CWork); // driver body
        assert_eq!(g.nodes[0].duration, 10);
        assert_eq!(g.nodes[1].ntype, NType::CWait);
        assert_eq!(g.nodes[1].duration, 40);
        assert_eq!(g.total_wait_ns(), 40);
    }

    #[test]
    fn zero_wait_sync_still_yields_cwait() {
        let trace = Stage2Result {
            exec_time_ns: 10,
            calls: vec![call(0, ApiFn::CudaDeviceSynchronize, 0, 5, 0, false)],
        };
        let g = ExecGraph::from_trace(&trace, 10);
        assert!(g.nodes.iter().any(|n| n.ntype == NType::CWait && n.duration == 0));
    }

    #[test]
    fn next_sync_and_between_sum() {
        let trace = Stage2Result {
            exec_time_ns: 100,
            calls: vec![
                call(0, ApiFn::CudaFree, 0, 20, 15, false),
                call(1, ApiFn::CudaLaunchKernel, 30, 40, 0, true),
                call(2, ApiFn::CudaDeviceSynchronize, 40, 70, 30, false),
            ],
        };
        let g = ExecGraph::from_trace(&trace, 100);
        // nodes: [free body][free WAIT][gap][launch][sync body(0? no — 0 body skipped? body=0 and performed_sync → only CWait)]...
        let first_wait = g.nodes.iter().position(|n| n.ntype == NType::CWait).unwrap();
        let next = g.next_sync_after(first_wait).unwrap();
        assert!(g.nodes[next].ntype == NType::CWait);
        // CPU time between the two syncs: gap(10) + launch(10) + sync body(0).
        let between = g.cpu_time_between(first_wait, next);
        assert_eq!(between, 20);
    }

    #[test]
    fn exec_tail_is_covered() {
        let trace = Stage2Result { exec_time_ns: 500, calls: vec![] };
        let g = ExecGraph::from_trace(&trace, 500);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].duration, 500);
        let total: Ns = g.nodes.iter().map(|n| n.duration).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn index_agrees_with_scanning_accessors() {
        let trace = Stage2Result {
            exec_time_ns: 200,
            calls: vec![
                call(0, ApiFn::CudaFree, 0, 20, 15, false),
                call(1, ApiFn::CudaLaunchKernel, 30, 40, 0, true),
                call(2, ApiFn::CudaMemcpy, 40, 70, 10, false),
                call(3, ApiFn::CudaDeviceSynchronize, 90, 120, 30, false),
            ],
        };
        let g = ExecGraph::from_trace(&trace, 200);
        let n = g.nodes.len();
        // An index extended one node at a time equals the one-shot build.
        let mut ix = GraphIndex::new();
        let mut partial = ExecGraph { nodes: Vec::new(), exec_time_ns: 200, baseline_exec_ns: 200 };
        for node in &g.nodes {
            partial.nodes.push(node.clone());
            ix.extend(&partial);
        }
        assert_eq!(ix.cpu_prefix, g.index().cpu_prefix);
        let mut frontier = 0;
        for i in 0..n {
            let next = next_wait(&g, &mut frontier, i, n);
            assert_eq!((next < n).then_some(next), g.next_sync_after(i), "next_wait @{i}");
            for j in i + 1..=n {
                assert_eq!(
                    ix.cpu_time_between(i, j),
                    g.cpu_time_between(i, j),
                    "cpu_time_between({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn csr_rebuild_is_stable_and_reusable() {
        let mut csr = Csr::new();
        // Rows out of order, duplicates, an empty row in the middle.
        let pairs = [(2u32, 10), (0, 11), (2, 12), (0, 13), (3, 14)];
        csr.rebuild_from_pairs(4, &pairs);
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.row(0), &[11, 13]);
        assert_eq!(csr.row(1), &[] as &[usize]);
        assert_eq!(csr.row(2), &[10, 12]);
        assert_eq!(csr.row(3), &[14]);
        // Rebuild with different shape reuses the struct.
        csr.rebuild_from_pairs(1, &[(0, 9)]);
        assert_eq!(csr.rows(), 1);
        assert_eq!(csr.row(0), &[9]);
        // Degenerate: no rows at all.
        csr.rebuild_from_pairs(0, &[]);
        assert_eq!(csr.rows(), 0);
    }

    #[test]
    fn builder_batches_match_from_trace_for_any_chunking() {
        let calls = vec![
            call(0, ApiFn::CudaMemcpy, 10, 35, 20, false),
            call(1, ApiFn::CudaLaunchKernel, 35, 45, 0, true),
            call(2, ApiFn::CudaDeviceSynchronize, 60, 80, 18, false),
            call(3, ApiFn::CudaFree, 80, 95, 5, false),
            call(4, ApiFn::CudaLaunchKernel, 100, 110, 0, true),
        ];
        let trace = Stage2Result { exec_time_ns: 150, calls };
        let batch = ExecGraph::from_trace(&trace, 140);
        for chunk in [1, 2, 3, 7] {
            let mut b = GraphBuilder::new(140);
            for w in trace.calls.chunks(chunk) {
                let range = b.append_calls(w);
                assert_eq!(range.end, b.graph().nodes.len());
            }
            b.seal(trace.exec_time_ns);
            let g = b.into_graph();
            assert_eq!(g.nodes.len(), batch.nodes.len(), "chunk={chunk}");
            for (a, e) in g.nodes.iter().zip(&batch.nodes) {
                assert_eq!(a.ntype, e.ntype);
                assert_eq!(a.stime, e.stime);
                assert_eq!(a.duration, e.duration);
                assert_eq!(a.call_seq, e.call_seq);
                assert_eq!(a.instance, e.instance);
                assert_eq!(a.is_transfer, e.is_transfer);
            }
            assert_eq!(g.exec_time_ns, batch.exec_time_ns);
            assert_eq!(g.baseline_exec_ns, batch.baseline_exec_ns);
        }
    }

    #[test]
    fn builder_empty_trace_still_seals_tail() {
        let mut b = GraphBuilder::new(500);
        let range = b.seal(500);
        assert_eq!(range, 0..1);
        let g = b.into_graph();
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].duration, 500);
    }

    #[test]
    fn problematic_into_reuses_scratch() {
        let trace = Stage2Result {
            exec_time_ns: 100,
            calls: vec![
                call(0, ApiFn::CudaFree, 0, 20, 15, false),
                call(1, ApiFn::CudaDeviceSynchronize, 40, 70, 30, false),
            ],
        };
        let mut g = ExecGraph::from_trace(&trace, 100);
        let wait = g.nodes.iter().position(|n| n.ntype == NType::CWait).unwrap();
        g.nodes[wait].problem = Problem::UnnecessarySync;
        let mut scratch = vec![99usize; 8];
        g.problematic_into(&mut scratch);
        assert_eq!(scratch, g.problematic());
        assert_eq!(scratch, vec![wait]);
    }

    #[test]
    fn node_durations_tile_exec_time() {
        let trace = Stage2Result {
            exec_time_ns: 90,
            calls: vec![
                call(0, ApiFn::CudaMemcpy, 10, 35, 20, false),
                call(1, ApiFn::CudaLaunchKernel, 35, 45, 0, true),
                call(2, ApiFn::CudaDeviceSynchronize, 60, 80, 18, false),
            ],
        };
        let g = ExecGraph::from_trace(&trace, 90);
        let total: Ns = g.nodes.iter().map(|n| n.duration).sum();
        assert_eq!(total, 90);
    }
}
