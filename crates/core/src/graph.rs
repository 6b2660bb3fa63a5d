//! The execution graph the analysis stage reasons over (paper §3.5).
//!
//! Application execution is modeled as a chain of CPU nodes — `CWork`
//! (computation), `CLaunch` (enqueuing asynchronous device work) and
//! `CWait` (blocking on the device) — whose out-edge labels are real-time
//! durations. The expected-benefit algorithm needs *only* the CPU chain:
//! the paper's key observation is that the upper bound on reclaimable GPU
//! idle time between two synchronizations is the CPU time spent between
//! them, so no GPU-side graph is required for the estimate.
//!
//! [`ExecGraph::from_trace`] builds the chain in one pass over the stage 2
//! trace. Every traced call yields at least one node carrying its
//! `call_seq`, in trace order, so the nodes up to a call's last one are
//! the graph of the trace cut after that call, less the un-traced tail.
//! The streaming driver's epochs ([`crate::pipeline`]) are such prefixes.

use cuda_driver::ApiFn;
use gpu_sim::{Ns, SourceLoc};

use crate::problem::Problem;
use crate::records::{OpInstance, Stage2Result};

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
        let mut nodes = Vec::with_capacity(trace.calls.len() * 2 + 1);
        // End of the last call seen: where the next gap node starts.
        let mut cursor: Ns = 0;
        for call in &trace.calls {
            if call.enter_ns > cursor {
                nodes.push(Node::work(cursor, call.enter_ns - cursor));
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
                nodes.push(meta(ntype, call.enter_ns, body, is_transfer));
            }
            if call.performed_sync() {
                nodes.push(meta(NType::CWait, call.enter_ns + body, wait, false));
            }
            cursor = call.exit_ns;
        }
        // The un-traced tail after the last call.
        if trace.exec_time_ns > cursor {
            nodes.push(Node::work(cursor, trace.exec_time_ns - cursor));
        }
        ExecGraph { nodes, exec_time_ns: trace.exec_time_ns, baseline_exec_ns }
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
        let mut cpu_prefix = Vec::with_capacity(self.nodes.len() + 1);
        let mut acc: Ns = 0;
        cpu_prefix.push(acc);
        for node in &self.nodes {
            if matches!(node.ntype, NType::CWork | NType::CLaunch) {
                acc += node.duration;
            }
            cpu_prefix.push(acc);
        }
        GraphIndex { cpu_prefix }
    }
}

/// Prefix sums of CPU (`CWork`/`CLaunch`) durations over an
/// [`ExecGraph`], built by [`ExecGraph::index`]. Turns the linear scan of
/// [`ExecGraph::cpu_time_between`] into an O(1) query, which is what
/// makes evaluating thousands of candidate sequence windows cheap.
#[derive(Debug, Clone)]
pub struct GraphIndex {
    /// `cpu_prefix[i]` = CPU time in nodes `[0, i)`; length `n + 1`.
    cpu_prefix: Vec<Ns>,
}

impl GraphIndex {
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
/// a forward walk scans each node once.
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
        let ix = g.index();
        assert_eq!(ix.len(), n);
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
