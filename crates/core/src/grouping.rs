//! Node groupings (paper §3.5.2).
//!
//! Multiple problematic operations usually share one underlying cause, so
//! Diogenes groups them where a single fix would apply: at one call site
//! (**single point**), in one function with template instances folded
//! together (**folded function**), or across a contiguous run of
//! problematic operations (**sequence**, with carry-forward of savings
//! that one window's GPU idle time could not absorb). Sequences support
//! user-refined **subsequences** (paper Fig. 8).
//!
//! `analyze_graph` is stage 5's one pass over a classified graph: the
//! Fig. 5 benefit walk, the two group passes and the sequence runs, each
//! one forward scan.

use std::collections::HashMap;
use std::fmt::Write as _;

use cuda_driver::ApiFn;
use gpu_sim::{Ns, SourceLoc};

use crate::analysis::{Analysis, AnalysisConfig, ProblemOp};
use crate::benefit::{benefit_walk, BenefitReport};
use crate::graph::{next_wait, Csr, ExecGraph, GraphIndex, NType};
use crate::intern::{intern, intern_static, Sym};
use crate::problem::Problem;

/// How a group was formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupKind {
    SinglePoint,
    FoldedFunction,
    Sequence,
}

/// A group of problematic operations sharing a fix point.
#[derive(Debug, Clone)]
pub struct ProblemGroup {
    pub kind: GroupKind,
    /// Human-readable identity ("cudaFree in als.cpp at line 856",
    /// "Fold on cudaFree", ...), interned — resolve with
    /// [`Sym::resolve`]; exporters write it via [`crate::Json::Sym`].
    pub label: Sym,
    pub benefit_ns: Ns,
    /// Graph node indices of the members.
    pub nodes: Vec<usize>,
    pub sync_issues: usize,
    pub transfer_issues: usize,
}

/// Intern the composed site label for a node ("cudaFree in als.cpp at
/// line 856"). `buf` is a reusable compose buffer: once it has grown to
/// the longest label and every distinct label is in the intern table,
/// calls allocate nothing.
fn site_label_sym(graph: &ExecGraph, node: usize, buf: &mut String) -> Sym {
    let n = &graph.nodes[node];
    match (n.api, n.site) {
        (Some(api), Some(site)) => {
            buf.clear();
            let _ = write!(buf, "{} in {} at line {}", api.name(), site.file, site.line);
            intern(buf)
        }
        (Some(api), None) => intern_static(api.name()),
        _ => intern_static("<unknown>"),
    }
}

/// Single-point grouping key: the stack signature of the node's call.
fn site_key(graph: &ExecGraph, node: usize) -> Option<u64> {
    graph.nodes[node].instance.map(|i| i.sig)
}

/// Per-API fold key.
fn api_key(graph: &ExecGraph, node: usize) -> Option<u64> {
    graph.nodes[node].api.map(|a| a.index() as u64)
}

/// Intern the per-API fold label ("Fold on cudaFree").
fn fold_label_sym(graph: &ExecGraph, node: usize, buf: &mut String) -> Sym {
    buf.clear();
    let _ =
        write!(buf, "Fold on {}", graph.nodes[node].api.map(|a| a.name()).unwrap_or("<unknown>"));
    intern(buf)
}

/// Reusable working state for the dense grouping passes.
///
/// The old implementation keyed a `HashMap<String, (Vec<usize>, Ns)>`
/// per call and cloned keys into an order list; this struct replaces it
/// with dense `Vec`-indexed tables keyed by a small group id (`gid`,
/// assigned in first-appearance order) and a [`Csr`] member index built
/// by counting sort. All buffers are retained between calls, so
/// steady-state grouping — repeat passes over same-shaped graphs —
/// allocates nothing (`crates/core/tests/alloc_contracts.rs` asserts this).
#[derive(Debug, Default, Clone)]
pub struct GroupScratch {
    /// Grouping key (sig / folded sig / API index) → gid.
    gid_of_key: HashMap<u64, u32>,
    /// gid → representative node (first member in benefit order).
    rep_node: Vec<usize>,
    /// gid → summed benefit.
    benefit: Vec<Ns>,
    /// gid → member problem tallies.
    sync_issues: Vec<usize>,
    transfer_issues: Vec<usize>,
    /// (gid, node) per benefit entry, in benefit order.
    pairs: Vec<(u32, usize)>,
    /// gid → member nodes, CSR layout.
    members: Csr,
    /// gids sorted for presentation (descending benefit, ties in
    /// first-appearance order).
    sorted: Vec<u32>,
    /// Compose buffer for label interning.
    label_buf: String,
}

/// Read-only view of one group inside a [`GroupScratch`].
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    pub benefit_ns: Ns,
    /// Member nodes, in benefit (graph) order.
    pub nodes: &'a [usize],
    /// Representative (first) member node, for labeling.
    pub rep_node: usize,
    pub sync_issues: usize,
    pub transfer_issues: usize,
}

impl GroupScratch {
    pub fn new() -> GroupScratch {
        GroupScratch::default()
    }

    /// Run one grouping pass: bucket every benefit entry by `key`,
    /// accumulate per-group totals and issue tallies into the dense
    /// tables, build the CSR member index, and sort group ids by
    /// descending benefit (ties keep first-appearance order, matching
    /// the retired stable map-based sort). Steady state this allocates
    /// nothing: the tables grow only while new keys keep appearing.
    pub fn compute(&mut self, benefit: &BenefitReport, mut key: impl FnMut(usize) -> Option<u64>) {
        self.gid_of_key.clear();
        self.rep_node.clear();
        self.benefit.clear();
        self.sync_issues.clear();
        self.transfer_issues.clear();
        self.pairs.clear();
        for nb in &benefit.per_node {
            let Some(k) = key(nb.node) else { continue };
            let next = self.rep_node.len() as u32;
            let gid = *self.gid_of_key.entry(k).or_insert(next);
            if gid == next {
                self.rep_node.push(nb.node);
                self.benefit.push(0);
                self.sync_issues.push(0);
                self.transfer_issues.push(0);
            }
            let g = gid as usize;
            self.benefit[g] += nb.benefit_ns;
            if nb.problem.is_sync() {
                self.sync_issues[g] += 1;
            } else if nb.problem == Problem::UnnecessaryTransfer {
                self.transfer_issues[g] += 1;
            }
            self.pairs.push((gid, nb.node));
        }
        self.members.rebuild_from_pairs(self.rep_node.len(), &self.pairs);
        self.sorted.clear();
        self.sorted.extend(0..self.rep_node.len() as u32);
        // Unstable sort with the gid tiebreak ≡ stable sort by benefit:
        // gids are assigned in first-appearance order. In-place, so no
        // merge buffer allocation.
        let benefit = &self.benefit;
        self.sorted.sort_unstable_by_key(|&g| (std::cmp::Reverse(benefit[g as usize]), g));
    }

    /// Number of groups found by the last [`GroupScratch::compute`].
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Group `i` in presentation (descending-benefit) order.
    pub fn group(&self, i: usize) -> GroupView<'_> {
        let gid = self.sorted[i] as usize;
        GroupView {
            benefit_ns: self.benefit[gid],
            nodes: self.members.row(gid),
            rep_node: self.rep_node[gid],
            sync_issues: self.sync_issues[gid],
            transfer_issues: self.transfer_issues[gid],
        }
    }

    /// Materialize owned [`ProblemGroup`]s from the scratch tables.
    fn materialize(
        &mut self,
        graph: &ExecGraph,
        kind: GroupKind,
        label: impl Fn(&ExecGraph, usize, &mut String) -> Sym,
    ) -> Vec<ProblemGroup> {
        let mut buf = std::mem::take(&mut self.label_buf);
        let groups = (0..self.len())
            .map(|i| {
                let v = self.group(i);
                ProblemGroup {
                    kind,
                    label: label(graph, v.rep_node, &mut buf),
                    benefit_ns: v.benefit_ns,
                    nodes: v.nodes.to_vec(),
                    sync_issues: v.sync_issues,
                    transfer_issues: v.transfer_issues,
                }
            })
            .collect();
        self.label_buf = buf;
        groups
    }

    /// Single-point pass ([`single_point_groups`] on reusable scratch).
    pub fn compute_single_point(&mut self, graph: &ExecGraph, benefit: &BenefitReport) {
        self.compute(benefit, |n| site_key(graph, n));
    }

    /// Folded-function pass ([`folded_function_groups`] on reusable
    /// scratch).
    pub fn compute_folded_function(&mut self, graph: &ExecGraph, benefit: &BenefitReport) {
        self.compute(benefit, |n| graph.nodes[n].folded_sig);
    }

    /// Per-API fold pass ([`fold_on_api`] on reusable scratch).
    pub fn compute_api_fold(&mut self, graph: &ExecGraph, benefit: &BenefitReport) {
        self.compute(benefit, |n| api_key(graph, n));
    }

    /// Materialize computed single-point groups with site labels.
    pub fn materialize_single_point(&mut self, graph: &ExecGraph) -> Vec<ProblemGroup> {
        self.materialize(graph, GroupKind::SinglePoint, site_label_sym)
    }

    /// Materialize computed per-API folds with "Fold on ..." labels.
    pub fn materialize_api_fold(&mut self, graph: &ExecGraph) -> Vec<ProblemGroup> {
        self.materialize(graph, GroupKind::FoldedFunction, fold_label_sym)
    }

    /// Materialize computed folded-function groups with site labels.
    pub fn materialize_folded_function(&mut self, graph: &ExecGraph) -> Vec<ProblemGroup> {
        self.materialize(graph, GroupKind::FoldedFunction, site_label_sym)
    }
}

/// Single-point grouping: identical stack traces matched by address.
pub fn single_point_groups(graph: &ExecGraph, benefit: &BenefitReport) -> Vec<ProblemGroup> {
    let mut scratch = GroupScratch::new();
    scratch.compute_single_point(graph, benefit);
    scratch.materialize_single_point(graph)
}

/// Folded-function grouping: identical stack traces matched by
/// template-stripped function names.
pub fn folded_function_groups(graph: &ExecGraph, benefit: &BenefitReport) -> Vec<ProblemGroup> {
    let mut scratch = GroupScratch::new();
    scratch.compute_folded_function(graph, benefit);
    scratch.materialize_folded_function(graph)
}

/// Fold on the API function itself (the Fig. 7 overview rows:
/// "Fold on cudaFree").
pub fn fold_on_api(graph: &ExecGraph, benefit: &BenefitReport) -> Vec<ProblemGroup> {
    let mut scratch = GroupScratch::new();
    scratch.compute_api_fold(graph, benefit);
    scratch.materialize_api_fold(graph)
}

/// One entry of a sequence listing (paper Fig. 6).
#[derive(Debug, Clone)]
pub struct SeqEntry {
    /// 1-based position in the sequence display.
    pub index: usize,
    /// Graph node index.
    pub node: usize,
    pub api: Option<ApiFn>,
    pub site: Option<SourceLoc>,
    pub problem: Problem,
}

/// A contiguous run of problematic operations.
#[derive(Debug, Clone)]
pub struct Sequence {
    /// First graph node of the run (a problematic node).
    pub start: usize,
    /// Exclusive end: index of the terminating necessary synchronization
    /// (or `nodes.len()` when the run reaches the end of the program).
    pub end: usize,
    /// The problematic operations, in order.
    pub entries: Vec<SeqEntry>,
    /// Carry-forward benefit estimate for fixing the whole run.
    pub benefit_ns: Ns,
}

impl Sequence {
    pub fn sync_issues(&self) -> usize {
        self.entries.iter().filter(|e| e.problem.is_sync()).count()
    }

    pub fn transfer_issues(&self) -> usize {
        self.entries.iter().filter(|e| e.problem == Problem::UnnecessaryTransfer).count()
    }
}

/// Evaluate the carry-forward estimator over nodes `[start, end)`.
///
/// Each removed synchronization's duration first tries to be absorbed by
/// the CPU work between it and the next synchronization; what cannot be
/// absorbed is *carried forward* to later windows instead of being dumped
/// into the next synchronization (the small modification to
/// `RemoveSyncronization` described in §3.5.2). Transfers contribute
/// their full CPU cost. Returns the total estimate.
pub fn carry_forward_benefit(graph: &ExecGraph, start: usize, end: usize) -> Ns {
    carry_forward_masked(graph, &graph.index(), start, end, |_| true)
}

/// [`carry_forward_benefit`] against a prebuilt [`GraphIndex`], with a
/// node-mask predicate: nodes for which `mask` returns `false` are
/// treated as unproblematic (`Problem::None`) without mutating or
/// cloning the graph. This is the one carry-forward walk: sequence
/// scoring, subsequence refinement and sequence families all call it.
///
/// Many windows of one graph share one O(n) index build. The estimator
/// only *reads* durations — unlike the Fig. 5 growth model — which is
/// what makes the cached index sound here, and masking equals clearing
/// the masked nodes' classifications on a clone, because the window
/// structure depends only on node types and durations. Window ends are
/// found among the nodes `ix` covers.
pub fn carry_forward_masked(
    graph: &ExecGraph,
    ix: &GraphIndex,
    start: usize,
    end: usize,
    mask: impl Fn(usize) -> bool,
) -> Ns {
    let n = ix.len();
    let mut total: Ns = 0;
    let mut carry: Ns = 0;
    let mut scan = start;
    for idx in start..end.min(n) {
        let node = &graph.nodes[idx];
        let problem = if mask(idx) { node.problem } else { Problem::None };
        match problem {
            Problem::UnnecessarySync => {
                let window_end = next_wait(graph, &mut scan, idx, n);
                let avail = ix.cpu_time_between(idx, window_end);
                let demand = node.duration + carry;
                let est = avail.min(demand);
                total += est;
                carry = demand - est;
            }
            Problem::MisplacedSync => {
                let est = node.first_use_ns.unwrap_or(0).min(node.duration + carry);
                total += est;
                carry = (node.duration + carry).saturating_sub(est);
            }
            Problem::UnnecessaryTransfer => {
                total += node.duration;
            }
            Problem::None => {}
        }
    }
    total
}

/// Is this node a *necessary* synchronization that terminates a run?
/// (A `CWait` with no problem, or a misplaced one — it must still
/// happen.)
fn is_terminator(n: &crate::graph::Node) -> bool {
    n.ntype == NType::CWait && matches!(n.problem, Problem::None | Problem::MisplacedSync)
}

/// Does this node start a run? Every problem except `MisplacedSync`
/// qualifies (a misplaced sync is still necessary, so it cannot open a
/// removable run — it can only appear inside one).
fn is_starter(n: &crate::graph::Node) -> bool {
    !matches!(n.problem, Problem::None | Problem::MisplacedSync)
}

/// One candidate run found by [`find_runs`].
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    /// Exclusive end, set when the run closes: the terminator index, or
    /// the end of the graph.
    end: usize,
    /// Problem entries in `[start, end)`.
    entries: usize,
    /// Carry-forward estimate; computed only when `entries > 1` (runs
    /// below the display threshold keep 0).
    benefit_ns: Ns,
}

impl Run {
    /// End the run at `end` and score it.
    fn close(mut self, graph: &ExecGraph, index: &GraphIndex, end: usize) -> Run {
        self.end = end;
        if self.entries > 1 {
            self.benefit_ns = carry_forward_masked(graph, index, self.start, end, |_| true);
        }
        self
    }
}

/// The candidate runs of `graph`, in graph order. Terminators split the
/// nodes into segments, and each segment holding a starter yields one
/// maximal run: from its first starter to the terminator (exclusive) or
/// the end of the graph.
fn find_runs(graph: &ExecGraph, index: &GraphIndex) -> Vec<Run> {
    let mut runs = Vec::new();
    // The run still waiting for its terminator.
    let mut open: Option<Run> = None;
    for (idx, node) in graph.nodes.iter().enumerate() {
        if is_terminator(node) {
            if let Some(run) = open.take() {
                runs.push(run.close(graph, index, idx));
            }
        } else if node.problem != Problem::None {
            if open.is_none() && is_starter(node) {
                open = Some(Run { start: idx, end: idx, entries: 0, benefit_ns: 0 });
            }
            if let Some(run) = &mut open {
                run.entries += 1;
            }
        }
    }
    runs.extend(open.map(|run| run.close(graph, index, graph.nodes.len())));
    runs
}

/// The sequences among `runs` — runs of more than one problem — sorted
/// by descending benefit (stable: ties keep graph order).
fn sequences_of(graph: &ExecGraph, runs: &[Run]) -> Vec<Sequence> {
    let mut sequences: Vec<Sequence> = runs
        .iter()
        .filter(|run| run.entries > 1)
        .map(|run| Sequence {
            start: run.start,
            end: run.end,
            entries: (run.start..run.end)
                .filter(|&i| graph.nodes[i].problem != Problem::None)
                .enumerate()
                .map(|(k, i)| SeqEntry {
                    index: k + 1,
                    node: i,
                    api: graph.nodes[i].api,
                    site: graph.nodes[i].site,
                    problem: graph.nodes[i].problem,
                })
                .collect(),
            benefit_ns: run.benefit_ns,
        })
        .collect();
    sequences.sort_by_key(|s| std::cmp::Reverse(s.benefit_ns));
    sequences
}

/// Find maximal sequences: runs beginning at a problematic node and
/// ending at the first *necessary* synchronization (a `CWait` with no
/// problem, or a misplaced one — it must still happen).
///
/// `jobs` is unused: discovery and scoring are one forward pass. The
/// parameter stays so existing callers keep compiling.
pub fn find_sequences(graph: &ExecGraph, _jobs: usize) -> Vec<Sequence> {
    sequences_of(graph, &find_runs(graph, &graph.index()))
}

/// Refined estimate for a user-selected subsequence (paper Fig. 8):
/// evaluate the carry-forward estimator over only entries
/// `[from_entry, to_entry]` (1-based, inclusive) of `seq`.
///
/// No additional data collection is needed — exactly as in the paper,
/// this re-evaluates the already-built graph.
pub fn subsequence_benefit(
    graph: &ExecGraph,
    seq: &Sequence,
    from_entry: usize,
    to_entry: usize,
) -> Option<Ns> {
    subsequence_benefit_indexed(graph, &graph.index(), seq, from_entry, to_entry)
}

/// [`subsequence_benefit`] against a prebuilt [`GraphIndex`], so a
/// refinement sweep over many candidate ranges (the automated
/// subsequence search) pays the index build once and never clones the
/// graph: problems outside the chosen entries are suppressed with a
/// node-mask predicate in [`carry_forward_masked`] instead.
///
/// Allocation-free: entry nodes are strictly increasing (sequences are
/// built by a forward scan), so chosen-set membership is a binary search
/// over the entry list rather than a per-call hash set.
pub fn subsequence_benefit_indexed(
    graph: &ExecGraph,
    ix: &GraphIndex,
    seq: &Sequence,
    from_entry: usize,
    to_entry: usize,
) -> Option<Ns> {
    let first = seq.entries.iter().find(|e| e.index == from_entry)?;
    let last = seq.entries.iter().find(|e| e.index == to_entry)?;
    if last.node < first.node {
        return None;
    }
    // Only the chosen entries count; every other problem in the window is
    // masked out. The evaluation window extends to the sequence's
    // terminating sync so the final entry's removal can still be absorbed
    // by trailing work.
    let chosen = |node: usize| {
        seq.entries
            .binary_search_by_key(&node, |e| e.node)
            .map(|p| {
                let e = &seq.entries[p];
                e.index >= from_entry && e.index <= to_entry
            })
            .unwrap_or(false)
    };
    Some(carry_forward_masked(graph, ix, first.node, seq.end, chosen))
}

/// Estimated savings per API function (used for the Table 2 comparison),
/// accumulated in a flat `ApiFn::COUNT`-sized table instead of a hash
/// map. Returns the APIs that had at least one problematic instance, in
/// dense API-index order (callers wanting benefit order sort the small
/// result themselves, as [`crate::analyze`] does).
pub fn savings_by_api(graph: &ExecGraph, benefit: &BenefitReport) -> Vec<(ApiFn, Ns)> {
    let mut table: [(Option<ApiFn>, Ns); ApiFn::COUNT] = [(None, 0); ApiFn::COUNT];
    for nb in &benefit.per_node {
        if let Some(api) = graph.nodes[nb.node].api {
            let slot = &mut table[api.index()];
            slot.0 = Some(api);
            slot.1 += nb.benefit_ns;
        }
    }
    table.into_iter().filter_map(|(api, ns)| api.map(|a| (a, ns))).collect()
}

/// Stage 5 over a classified graph: the Fig. 5 benefit walk, the
/// single-point and per-API group passes, the candidate runs scored as
/// sequences, and the report's presentation sorts. [`crate::analyze`]
/// runs it on the whole trace's graph, and the streaming driver on every
/// epoch's prefix of that graph.
pub(crate) fn analyze_graph(
    graph: ExecGraph,
    baseline_exec_ns: Ns,
    cfg: &AnalysisConfig,
) -> Analysis {
    // One CPU prefix column serves the benefit walk and run scoring.
    let index = graph.index();
    let benefit = benefit_walk(&graph, &index, &cfg.benefit);
    let runs = find_runs(&graph, &index);
    crate::telemetry::counter_add("grouping.candidate_runs", runs.len() as u64);
    // Problems, sorted by descending benefit (stable: ties keep graph
    // order).
    let mut problems: Vec<ProblemOp> = benefit
        .per_node
        .iter()
        .map(|nb| {
            let node = &graph.nodes[nb.node];
            ProblemOp {
                node: nb.node,
                api: node.api,
                site: node.site,
                problem: nb.problem,
                benefit_ns: nb.benefit_ns,
            }
        })
        .collect();
    problems.sort_by_key(|p| std::cmp::Reverse(p.benefit_ns));
    let single_point = single_point_groups(&graph, &benefit);
    let api_folds = fold_on_api(&graph, &benefit);
    let sequences = sequences_of(&graph, &runs);
    let mut by_api = savings_by_api(&graph, &benefit);
    by_api.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Analysis {
        graph,
        benefit,
        problems,
        single_point,
        api_folds,
        sequences,
        by_api,
        baseline_exec_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benefit::{expected_benefit, expected_benefit_reference, BenefitOptions};
    use crate::graph::Node;
    use crate::records::OpInstance;

    fn node(
        ntype: NType,
        duration: Ns,
        problem: Problem,
        sig: u64,
        occ: u64,
        api: ApiFn,
        line: u32,
    ) -> Node {
        Node {
            ntype,
            stime: 0,
            duration,
            problem,
            first_use_ns: None,
            call_seq: None,
            instance: Some(OpInstance { sig, occ }),
            folded_sig: Some(sig % 10), // fold pairs of sigs together
            api: Some(api),
            site: Some(SourceLoc::new("als.cpp", line)),
            is_transfer: problem == Problem::UnnecessaryTransfer,
        }
    }

    fn sample_graph() -> ExecGraph {
        use NType::*;
        use Problem::*;
        // loop iteration pattern: [free WAIT][work][free WAIT][work][necessary sync]
        let nodes = vec![
            node(CWait, 10, UnnecessarySync, 11, 0, ApiFn::CudaFree, 856),
            node(CWork, 4, None, 0, 0, ApiFn::CudaMalloc, 1),
            node(CWait, 10, UnnecessarySync, 11, 1, ApiFn::CudaFree, 856),
            node(CWork, 4, None, 0, 1, ApiFn::CudaMalloc, 1),
            node(CLaunch, 6, UnnecessaryTransfer, 21, 0, ApiFn::CudaMemcpy, 738),
            node(CWait, 8, None, 31, 0, ApiFn::CudaDeviceSynchronize, 900),
            node(CWork, 50, None, 0, 2, ApiFn::CudaMalloc, 1),
        ];
        let exec = nodes.iter().map(|n| n.duration).sum();
        ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
    }

    #[test]
    fn single_point_groups_merge_same_site() {
        let g = sample_graph();
        let b = expected_benefit(&g, &BenefitOptions::default());
        let groups = single_point_groups(&g, &b);
        let free = groups.iter().find(|gr| gr.label.resolve().contains("cudaFree")).unwrap();
        assert_eq!(free.nodes.len(), 2, "both cudaFree instances in one group");
        assert_eq!(free.sync_issues, 2);
        assert!(free.label.resolve().contains("als.cpp at line 856"));
    }

    #[test]
    fn groups_are_sorted_by_benefit() {
        let g = sample_graph();
        let b = expected_benefit(&g, &BenefitOptions::default());
        let groups = single_point_groups(&g, &b);
        for w in groups.windows(2) {
            assert!(w[0].benefit_ns >= w[1].benefit_ns);
        }
    }

    #[test]
    fn fold_on_api_merges_across_sites() {
        let g = sample_graph();
        let b = expected_benefit(&g, &BenefitOptions::default());
        let folds = fold_on_api(&g, &b);
        let free = folds.iter().find(|f| f.label.resolve() == "Fold on cudaFree").unwrap();
        assert_eq!(free.nodes.len(), 2);
        let memcpy = folds.iter().find(|f| f.label.resolve() == "Fold on cudaMemcpy").unwrap();
        assert_eq!(memcpy.transfer_issues, 1);
    }

    #[test]
    fn sequence_spans_until_necessary_sync() {
        let g = sample_graph();
        let seqs = find_sequences(&g, 1);
        assert_eq!(seqs.len(), 1);
        let s = &seqs[0];
        assert_eq!(s.entries.len(), 3, "2 syncs + 1 transfer");
        assert_eq!(s.sync_issues(), 2);
        assert_eq!(s.transfer_issues(), 1);
        // Ends at the necessary cudaDeviceSynchronize (node 5).
        assert_eq!(s.end, 5);
        assert_eq!(s.entries[0].index, 1);
    }

    #[test]
    fn carry_forward_beats_pairwise_pessimism() {
        use NType::*;
        use Problem::*;
        // One big unnecessary sync whose window is small, followed by a
        // second window with lots of CPU work: carry-forward recovers in
        // the later window what the first could not absorb.
        let nodes = vec![
            node(CWait, 20, UnnecessarySync, 1, 0, ApiFn::CudaFree, 1),
            node(CWork, 2, None, 0, 0, ApiFn::CudaMalloc, 2),
            node(CWait, 1, UnnecessarySync, 2, 0, ApiFn::CudaFree, 3),
            node(CWork, 30, None, 0, 1, ApiFn::CudaMalloc, 4),
            node(CWait, 5, None, 3, 0, ApiFn::CudaDeviceSynchronize, 5),
        ];
        let exec = nodes.iter().map(|n| n.duration).sum();
        let g = ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec };
        // Plain Fig.5: first sync recovers only 2 (window), second 1+... the
        // growth model dumps 18 into the second sync, then window 30
        // absorbs min(30, 1+18)=19. Pairwise total = 2+19=21.
        let plain = expected_benefit(&g, &BenefitOptions::default());
        // Carry-forward: window1 absorbs 2, carry 18; window2 absorbs
        // min(30, 1+18)=19 ⇒ total 21. Equivalent here...
        let seq = carry_forward_benefit(&g, 0, 4);
        assert_eq!(seq, 21);
        assert_eq!(plain.total_ns, 21);
    }

    #[test]
    fn carry_forward_does_not_exceed_total_waits_plus_transfers() {
        let g = sample_graph();
        let seqs = find_sequences(&g, 1);
        let s = &seqs[0];
        let max: Ns = s.entries.iter().map(|e| g.nodes[e.node].duration).sum();
        assert!(s.benefit_ns <= max);
        assert!(s.benefit_ns > 0);
    }

    #[test]
    fn subsequence_estimates_subset() {
        let g = sample_graph();
        let seqs = find_sequences(&g, 1);
        let s = &seqs[0];
        let full = s.benefit_ns;
        let sub = subsequence_benefit(&g, s, 2, 3).unwrap();
        assert!(sub <= full);
        assert!(sub > 0);
        // Degenerate request
        assert!(subsequence_benefit(&g, s, 9, 10).is_none());
    }

    /// Regression pin for the mask-predicate refinement path. The exact
    /// values were originally cross-checked against the retired
    /// clone-the-graph-and-clear-problems reference implementation; they
    /// are pinned here so the binary-search membership logic cannot
    /// drift.
    #[test]
    fn masked_subsequence_matches_pinned_reference_values() {
        let g = sample_graph();
        let seqs = find_sequences(&g, 1);
        let s = &seqs[0];
        let expect = [
            ((1, 1), 4),  // first sync alone: window absorbs only 4
            ((1, 2), 14), // carry from sync 1 absorbed in sync 2's window
            ((1, 3), 20), // full sequence (equals s.benefit_ns)
            ((2, 2), 10),
            ((2, 3), 16),
            ((3, 3), 6), // the transfer alone
        ];
        for ((from, to), want) in expect {
            assert_eq!(subsequence_benefit(&g, s, from, to), Some(want), "range {from}..={to}");
        }
        assert_eq!(s.benefit_ns, 20);
    }

    /// Differential check of the binary-search membership and the
    /// index-backed walk against an explicit boolean mask on the scanning
    /// reference, over scrambled graphs and every range.
    #[test]
    fn masked_subsequence_equals_boolean_mask_reference() {
        let g = scrambled_graph(300, 11);
        let ix = g.index();
        for s in find_sequences(&g, 1).iter().take(8) {
            let n = s.entries.len();
            for from in 1..=n {
                for to in from..=n {
                    let masked = subsequence_benefit_indexed(&g, &ix, s, from, to);
                    let mut keep = vec![false; g.nodes.len()];
                    for e in &s.entries {
                        if e.index >= from && e.index <= to {
                            keep[e.node] = true;
                        }
                    }
                    let first = s.entries.iter().find(|e| e.index == from).unwrap();
                    let want = Some(carry_forward_reference(&g, first.node, s.end, |i| keep[i]));
                    assert_eq!(masked, want, "range {from}..={to}");
                }
            }
        }
    }

    /// The carry-forward estimator transcribed over the scanning graph
    /// accessors, the oracle for [`carry_forward_masked`].
    fn carry_forward_reference(
        graph: &ExecGraph,
        start: usize,
        end: usize,
        mask: impl Fn(usize) -> bool,
    ) -> Ns {
        let mut total: Ns = 0;
        let mut carry: Ns = 0;
        for idx in start..end.min(graph.nodes.len()) {
            let node = &graph.nodes[idx];
            let demand = node.duration + carry;
            let est = match if mask(idx) { node.problem } else { Problem::None } {
                Problem::UnnecessarySync => {
                    let window_end = graph.next_sync_after(idx).unwrap_or(graph.nodes.len());
                    graph.cpu_time_between(idx, window_end).min(demand)
                }
                Problem::MisplacedSync => node.first_use_ns.unwrap_or(0).min(demand),
                Problem::UnnecessaryTransfer => {
                    total += node.duration;
                    continue;
                }
                Problem::None => continue,
            };
            total += est;
            carry = demand - est;
        }
        total
    }

    /// The single-pass run scan, the reference for the run tracker.
    fn reference_runs(graph: &ExecGraph) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut idx = 0;
        let n = graph.nodes.len();
        while idx < n {
            if graph.nodes[idx].problem == Problem::None
                || graph.nodes[idx].problem == Problem::MisplacedSync
            {
                idx += 1;
                continue;
            }
            let start = idx;
            let mut end = idx;
            while end < n {
                let node = &graph.nodes[end];
                let terminates = node.ntype == NType::CWait
                    && matches!(node.problem, Problem::None | Problem::MisplacedSync);
                if terminates {
                    break;
                }
                end += 1;
            }
            runs.push((start, end));
            idx = end.max(idx + 1);
        }
        runs
    }

    /// Deterministic pseudo-random graph: a mix of starters, terminators,
    /// misplaced syncs and plain work in every adjacency pattern.
    fn scrambled_graph(len: usize, seed: u64) -> ExecGraph {
        use NType::*;
        let mut state = seed | 1;
        let mut next = || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nodes: Vec<Node> = (0..len)
            .map(|i| {
                let (ntype, problem) = match next() % 6 {
                    0 => (CWait, Problem::UnnecessarySync),
                    1 => (CWait, Problem::None),          // terminator
                    2 => (CWait, Problem::MisplacedSync), // terminator
                    3 => (CLaunch, Problem::UnnecessaryTransfer),
                    4 => (CWork, Problem::None),
                    _ => (CWork, Problem::MisplacedSync), // skip, not a terminator
                };
                node(ntype, 5 + (next() % 20), problem, i as u64, 0, ApiFn::CudaFree, 1)
            })
            .collect();
        let exec = nodes.iter().map(|n| n.duration).sum();
        ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
    }

    /// The run scan must find exactly the reference scan's runs, on
    /// graphs with and without an open run at the end.
    #[test]
    fn run_tracker_matches_reference_scan() {
        for (len, seed) in [(0, 1), (1, 2), (97, 3), (500, 4), (16_513, 5)] {
            let g = scrambled_graph(len, seed);
            let found: Vec<(usize, usize)> =
                find_runs(&g, &g.index()).iter().map(|r| (r.start, r.end)).collect();
            assert_eq!(found, reference_runs(&g), "len={len} seed={seed}");
        }
    }

    #[test]
    fn savings_by_api_sums_member_benefits() {
        let g = sample_graph();
        let b = expected_benefit(&g, &BenefitOptions::default());
        let by_api = savings_by_api(&g, &b);
        let of = |api: ApiFn| by_api.iter().find(|(a, _)| *a == api).map(|(_, ns)| *ns);
        assert!(of(ApiFn::CudaFree).unwrap() > 0);
        assert_eq!(of(ApiFn::CudaMemcpy), Some(6));
        assert_eq!(of(ApiFn::CudaDeviceSynchronize), None);
        // Dense accumulation returns API-index order.
        for w in by_api.windows(2) {
            assert!(w[0].0.index() < w[1].0.index());
        }
    }

    /// The scratch-based grouping views must agree with the materialized
    /// groups (same order, totals, members) and survive reuse across
    /// different grouping passes.
    #[test]
    fn scratch_views_match_materialized_groups() {
        let g = scrambled_graph(500, 21);
        let b = expected_benefit(&g, &BenefitOptions::default());
        let mut scratch = GroupScratch::new();
        for _ in 0..2 {
            // Reuse the same scratch across passes and repetitions.
            scratch.compute_single_point(&g, &b);
            let owned = single_point_groups(&g, &b);
            assert_eq!(scratch.len(), owned.len());
            for (i, grp) in owned.iter().enumerate() {
                let v = scratch.group(i);
                assert_eq!(v.benefit_ns, grp.benefit_ns);
                assert_eq!(v.nodes, &grp.nodes[..]);
                assert_eq!(v.rep_node, grp.nodes[0]);
                assert_eq!(v.sync_issues, grp.sync_issues);
                assert_eq!(v.transfer_issues, grp.transfer_issues);
            }
            scratch.compute_api_fold(&g, &b);
            let folds = fold_on_api(&g, &b);
            assert_eq!(scratch.len(), folds.len());
            for (i, grp) in folds.iter().enumerate() {
                assert_eq!(scratch.group(i).benefit_ns, grp.benefit_ns);
            }
        }
    }

    /// An independent stage-5 assembly over an already-classified graph,
    /// the oracle for [`analyze_graph`]: benefit from the mutating Fig. 5
    /// reference, groups from one-shot `GroupScratch` passes, and
    /// sequences from the reference run scan scored by the reference
    /// carry-forward walk.
    fn batch_analysis(graph: &ExecGraph) -> Analysis {
        let benefit = expected_benefit_reference(graph, &BenefitOptions::default());
        let mut problems: Vec<ProblemOp> = benefit
            .per_node
            .iter()
            .map(|nb| {
                let n = &graph.nodes[nb.node];
                ProblemOp {
                    node: nb.node,
                    api: n.api,
                    site: n.site,
                    problem: nb.problem,
                    benefit_ns: nb.benefit_ns,
                }
            })
            .collect();
        problems.sort_by_key(|p| std::cmp::Reverse(p.benefit_ns));
        let single_point = single_point_groups(graph, &benefit);
        let api_folds = fold_on_api(graph, &benefit);
        let mut sequences: Vec<Sequence> = reference_runs(graph)
            .into_iter()
            .filter_map(|(start, end)| {
                let entries: Vec<SeqEntry> = (start..end)
                    .filter(|&i| graph.nodes[i].problem != Problem::None)
                    .enumerate()
                    .map(|(k, i)| SeqEntry {
                        index: k + 1,
                        node: i,
                        api: graph.nodes[i].api,
                        site: graph.nodes[i].site,
                        problem: graph.nodes[i].problem,
                    })
                    .collect();
                let benefit_ns = carry_forward_reference(graph, start, end, |_| true);
                (entries.len() > 1).then_some(Sequence { start, end, entries, benefit_ns })
            })
            .collect();
        sequences.sort_by_key(|s| std::cmp::Reverse(s.benefit_ns));
        let mut by_api = savings_by_api(graph, &benefit);
        by_api.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Analysis {
            graph: graph.clone(),
            benefit,
            problems,
            single_point,
            api_folds,
            sequences,
            by_api,
            baseline_exec_ns: graph.baseline_exec_ns,
        }
    }

    fn assert_same_analysis(got: &Analysis, want: &Analysis, ctx: &str) {
        assert_eq!(got.benefit.per_node, want.benefit.per_node, "{ctx}: per_node");
        assert_eq!(got.benefit.total_ns, want.benefit.total_ns, "{ctx}: total");
        assert_eq!(
            got.benefit.predicted_exec_ns, want.benefit.predicted_exec_ns,
            "{ctx}: predicted"
        );
        let op = |p: &ProblemOp| (p.node, p.api, p.problem, p.benefit_ns);
        assert_eq!(
            got.problems.iter().map(op).collect::<Vec<_>>(),
            want.problems.iter().map(op).collect::<Vec<_>>(),
            "{ctx}: problems"
        );
        for (which, a, b) in [
            ("single_point", &got.single_point, &want.single_point),
            ("api_folds", &got.api_folds, &want.api_folds),
        ] {
            assert_eq!(a.len(), b.len(), "{ctx}: {which} count");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.kind, y.kind, "{ctx}: {which} kind");
                assert_eq!(x.label.resolve(), y.label.resolve(), "{ctx}: {which} label");
                assert_eq!(x.benefit_ns, y.benefit_ns, "{ctx}: {which} benefit");
                assert_eq!(x.nodes, y.nodes, "{ctx}: {which} members");
                assert_eq!(x.sync_issues, y.sync_issues, "{ctx}: {which} syncs");
                assert_eq!(x.transfer_issues, y.transfer_issues, "{ctx}: {which} transfers");
            }
        }
        assert_eq!(got.sequences.len(), want.sequences.len(), "{ctx}: sequence count");
        for (x, y) in got.sequences.iter().zip(&want.sequences) {
            assert_eq!(
                (x.start, x.end, x.benefit_ns),
                (y.start, y.end, y.benefit_ns),
                "{ctx}: sequence span"
            );
            let entry = |e: &SeqEntry| (e.index, e.node, e.api, e.problem);
            assert_eq!(
                x.entries.iter().map(entry).collect::<Vec<_>>(),
                y.entries.iter().map(entry).collect::<Vec<_>>(),
                "{ctx}: sequence entries"
            );
        }
        assert_eq!(got.by_api, want.by_api, "{ctx}: by_api");
        assert_eq!(got.baseline_exec_ns, want.baseline_exec_ns, "{ctx}: baseline");
    }

    /// The stage 5 pass must equal the independent assembly exactly —
    /// every field, every order — over whole graphs and every 7th prefix
    /// of them (the shape of a streamed epoch).
    #[test]
    fn analyze_graph_matches_independent_assembly() {
        let cfg = AnalysisConfig::default();
        for (len, seed) in [(0usize, 1u64), (1, 2), (97, 3), (500, 7), (603, 11)] {
            let full = scrambled_graph(len, seed);
            for end in (0..len).step_by(7).chain([len]) {
                let prefix = ExecGraph {
                    nodes: full.nodes[..end].to_vec(),
                    exec_time_ns: full.nodes[..end].iter().map(|n| n.duration).sum(),
                    baseline_exec_ns: full.baseline_exec_ns,
                };
                let want = batch_analysis(&prefix);
                let got = analyze_graph(prefix, full.baseline_exec_ns, &cfg);
                assert_same_analysis(&got, &want, &format!("len={len} seed={seed} prefix={end}"));
            }
        }
    }
}
