//! The expected-benefit algorithm (paper Fig. 5).
//!
//! Fixing a problematic operation rarely recovers its full duration: as
//! critical-path work showed, the *remaining* operations change behaviour
//! when one is removed. The paper's estimator models this on the CPU
//! graph alone. Removing a synchronization lets every launch between it
//! and the next synchronization start earlier, shrinking GPU idle time —
//! but the next synchronization then absorbs whatever the idle time could
//! not, capping the benefit:
//!
//! ```text
//! EstMaxGPUIdle = Σ duration(CWork/CLaunch nodes between Node and NextSync)
//! EstBenefit    = min(EstMaxGPUIdle, duration(Node))
//! duration(NextSync) += duration(Node) − EstBenefit
//! duration(Node)      = 0
//! ```
//!
//! Misplaced synchronizations recover up to their sync-to-first-use gap;
//! unnecessary transfers recover their CPU launch cost.

//! ### Implementation note: one forward walk
//!
//! Fig. 5 is phrased as graph surgery — zero this duration, grow that
//! one — evaluated front to back. [`expected_benefit`] computes the
//! identical result in one forward walk over the unmodified graph because
//! every mutation the algorithm performs is invisible to the quantities
//! later steps read:
//!
//! - `EstMaxGPUIdle` windows look strictly *forward* of the node under
//!   evaluation, and the only `CWork`/`CLaunch` durations the algorithm
//!   ever changes (zeroed transfers) lie at already-visited indices — so
//!   the original CPU prefix sums ([`GraphIndex`]) stay exact for every
//!   window.
//! - Synchronization *growth* only ever lands on `CWait` nodes, which
//!   `EstMaxGPUIdle` never counts; the walk tracks accumulated growth in
//!   a column (`extra`) consulted when that sync is itself evaluated.

use gpu_sim::Ns;

use crate::graph::{next_wait, ExecGraph, GraphIndex};
use crate::problem::Problem;

/// Estimator options.
#[derive(Debug, Clone)]
pub struct BenefitOptions {
    /// Clamp a misplaced synchronization's estimate to the wait it can
    /// actually shorten (`min(FirstUseTime, duration)`). The paper's
    /// Fig. 5 returns `FirstUseTime` unclamped while zeroing at most
    /// `duration` from the edge; the clamp keeps reported totals sound.
    /// Disable for the paper-exact ablation.
    pub clamp_misplaced: bool,
}

impl Default for BenefitOptions {
    fn default() -> Self {
        Self { clamp_misplaced: true }
    }
}

/// Expected benefit of one problematic node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBenefit {
    /// Node index in the analyzed graph.
    pub node: usize,
    pub problem: Problem,
    pub benefit_ns: Ns,
}

/// Result of running the estimator over a graph.
#[derive(Debug, Clone)]
pub struct BenefitReport {
    /// Per-node estimates, in graph order.
    pub per_node: Vec<NodeBenefit>,
    /// Sum of all estimates.
    pub total_ns: Ns,
    /// Predicted execution time after all problems are fixed (the sum of
    /// remaining node durations in the mutated graph).
    pub predicted_exec_ns: Ns,
}

/// `RemoveSyncronization` from Fig. 5 (spelling faithfully theirs).
///
/// Mutates the working graph and returns the estimated benefit.
#[cfg(test)]
fn remove_synchronization(g: &mut ExecGraph, node: usize) -> Ns {
    let dur = g.nodes[node].duration;
    let est = match g.next_sync_after(node) {
        Some(next_sync) => {
            let est_max_gpu_idle = g.cpu_time_between(node, next_sync);
            let est = est_max_gpu_idle.min(dur);
            // The next synchronization grows by whatever the idle time
            // between the two could not absorb.
            g.nodes[next_sync].duration += dur - est;
            est
        }
        None => {
            // No later synchronization: the wait is the program's final
            // rendezvous with the device. Removing it is bounded by the
            // CPU time that remains to overlap.
            let tail = g.cpu_time_between(node, g.nodes.len());
            tail.min(dur)
        }
    };
    g.nodes[node].duration = 0;
    est
}

/// `MisplacedSynchronization` from Fig. 5: moving the sync later by the
/// first-use gap converts up to that much wait into overlap.
#[cfg(test)]
fn move_synchronization(g: &mut ExecGraph, node: usize, opts: &BenefitOptions) -> Ns {
    let dur = g.nodes[node].duration;
    let first_use = g.nodes[node].first_use_ns.unwrap_or(0);
    g.nodes[node].duration = dur.saturating_sub(first_use);
    if opts.clamp_misplaced {
        first_use.min(dur)
    } else {
        first_use
    }
}

/// `RemoveMemoryTransfer` from Fig. 5: the CPU launch cost disappears.
#[cfg(test)]
fn remove_memory_transfer(g: &mut ExecGraph, node: usize) -> Ns {
    let est = g.nodes[node].duration;
    g.nodes[node].duration = 0;
    est
}

/// `ExpectedBenefit` from Fig. 5: evaluate every problematic node, in
/// program order, against the progressively mutated graph — one forward
/// walk over the whole graph.
pub fn expected_benefit(graph: &ExecGraph, opts: &BenefitOptions) -> BenefitReport {
    benefit_walk(graph, &graph.index(), opts)
}

/// The clone-and-mutate transcription of Fig. 5, kept as the
/// independent oracle the tests hold [`expected_benefit`] to.
#[cfg(test)]
pub fn expected_benefit_reference(graph: &ExecGraph, opts: &BenefitOptions) -> BenefitReport {
    let mut g = graph.clone();
    let mut per_node = Vec::new();
    for idx in 0..g.nodes.len() {
        let problem = g.nodes[idx].problem;
        let benefit_ns = match problem {
            Problem::None => continue,
            Problem::UnnecessarySync => remove_synchronization(&mut g, idx),
            Problem::MisplacedSync => move_synchronization(&mut g, idx, opts),
            Problem::UnnecessaryTransfer => remove_memory_transfer(&mut g, idx),
        };
        per_node.push(NodeBenefit { node: idx, problem, benefit_ns });
    }
    let total_ns = per_node.iter().map(|b| b.benefit_ns).sum();
    let predicted_exec_ns = g.nodes.iter().map(|n| n.duration).sum();
    BenefitReport { per_node, total_ns, predicted_exec_ns }
}

/// The Fig. 5 walk behind [`expected_benefit`], reading CPU windows from
/// `index`, which must cover `graph` (the analysis shares one index with
/// sequence scoring).
pub(crate) fn benefit_walk(
    graph: &ExecGraph,
    index: &GraphIndex,
    opts: &BenefitOptions,
) -> BenefitReport {
    let n = graph.nodes.len();
    debug_assert_eq!(index.len(), n, "index must cover the graph");
    // Accumulated synchronization growth per node (the `duration +=`
    // edits of Fig. 5, tracked out-of-band).
    let mut extra: Vec<Ns> = vec![0; n];
    // Frontier of the next-`CWait` scan; never rescans.
    let mut scan = 0;
    let mut per_node = Vec::new();
    let mut total_ns: Ns = 0;
    // Durations of the nodes walked so far, plus the growth pushed onto
    // later waits, less what fixing the walked problems reclaims: at the
    // end, the predicted execution time.
    let mut predicted_ns: Ns = 0;
    for (idx, node) in graph.nodes.iter().enumerate() {
        // Effective duration = original + growth received from earlier
        // removals (Fig. 5's mutated duration).
        let dur = node.duration + extra[idx];
        // (estimate, duration that fixing the node reclaims)
        let (est, reclaim) = match node.problem {
            Problem::None => (0, 0),
            // `RemoveSyncronization`: the CPU time up to the next
            // synchronization bounds the idle time removal can fill; with
            // none left, the wait is the program's final rendezvous with
            // the device and the CPU tail bounds it.
            Problem::UnnecessarySync => {
                let next = next_wait(graph, &mut scan, idx, n);
                let est = index.cpu_time_between(idx, next).min(dur);
                if next < n {
                    // The next synchronization grows by whatever the idle
                    // time between the two could not absorb.
                    extra[next] += dur - est;
                    predicted_ns += dur - est;
                }
                (est, dur)
            }
            // `MisplacedSynchronization`: moving the sync later by the
            // first-use gap converts up to that much wait into overlap;
            // the sync keeps `dur - min(first_use, dur)`.
            Problem::MisplacedSync => {
                let first_use = node.first_use_ns.unwrap_or(0);
                let est = if opts.clamp_misplaced { first_use.min(dur) } else { first_use };
                (est, first_use.min(dur))
            }
            // `RemoveMemoryTransfer`: the CPU launch cost disappears.
            Problem::UnnecessaryTransfer => (dur, dur),
        };
        predicted_ns += node.duration;
        predicted_ns -= reclaim;
        if node.problem != Problem::None {
            total_ns += est;
            per_node.push(NodeBenefit { node: idx, problem: node.problem, benefit_ns: est });
        }
    }
    BenefitReport { per_node, total_ns, predicted_exec_ns: predicted_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NType, Node};
    use crate::records::OpInstance;
    use gpu_sim::SourceLoc;

    /// Build a graph from (ntype, duration, problem) triples.
    fn graph(spec: &[(NType, Ns, Problem)]) -> ExecGraph {
        let mut t = 0;
        let nodes = spec
            .iter()
            .enumerate()
            .map(|(i, &(ntype, duration, problem))| {
                let n = Node {
                    ntype,
                    stime: t,
                    duration,
                    problem,
                    first_use_ns: Option::None,
                    call_seq: Some(i),
                    instance: Some(OpInstance { sig: i as u64, occ: 0 }),
                    folded_sig: Some(i as u64),
                    api: Option::None,
                    site: Some(SourceLoc::new("t.cpp", i as u32 + 1)),
                    is_transfer: problem == Problem::UnnecessaryTransfer,
                };
                t += duration;
                n
            })
            .collect();
        let exec: Ns = spec.iter().map(|s| s.1).sum();
        ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
    }

    use NType::*;
    use Problem::*;

    #[test]
    fn large_benefit_when_cpu_work_fills_the_gap() {
        // Paper Fig. 4, "large benefit" shape: plenty of CPU work between
        // the removed wait and the next one, so the GPU keeps busy and
        // the next wait does not grow.
        let g = graph(&[
            (CWork, 8, None),
            (CLaunch, 2, None),
            (CWait, 10, UnnecessarySync), // remove me
            (CWork, 10, None),            // enough work to absorb
            (CLaunch, 2, None),
            (CWait, 4, None),
        ]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 10, "full wait recovered");
        assert_eq!(r.predicted_exec_ns, g.exec_time_ns - 10);
    }

    #[test]
    fn small_benefit_when_next_wait_absorbs_the_savings() {
        // Fig. 4 "small benefit" shape: little CPU work between waits, so
        // the second wait grows to fill most of what was removed.
        let g = graph(&[
            (CWork, 8, None),
            (CLaunch, 2, None),
            (CWait, 10, UnnecessarySync), // remove me
            (CWork, 3, None),             // only 3ns of absorbable idle
            (CWait, 4, None),
        ]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 3, "benefit limited to CPU time between syncs");
        // The second wait grew by the unabsorbed 7ns.
        // predicted = exec - removed(10) + growth(7) = exec - 3.
        assert_eq!(r.predicted_exec_ns, g.exec_time_ns - 3);
    }

    #[test]
    fn removing_final_sync_is_bounded_by_tail_work() {
        let g = graph(&[
            (CWork, 5, None),
            (CWait, 10, UnnecessarySync),
            (CWork, 4, None), // program tail
        ]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 4);
    }

    #[test]
    fn misplaced_sync_recovers_first_use_gap() {
        let mut g = graph(&[(CWork, 5, None), (CWait, 20, MisplacedSync), (CWork, 50, None)]);
        g.nodes[1].first_use_ns = Some(8);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 8);
        assert_eq!(r.predicted_exec_ns, g.exec_time_ns - 8);
    }

    #[test]
    fn misplaced_clamp_limits_to_wait_duration() {
        let mut g = graph(&[(CWork, 5, None), (CWait, 10, MisplacedSync), (CWork, 50, None)]);
        g.nodes[1].first_use_ns = Some(40); // gap longer than the wait
        let clamped = expected_benefit(&g, &BenefitOptions { clamp_misplaced: true });
        assert_eq!(clamped.total_ns, 10);
        let paper = expected_benefit(&g, &BenefitOptions { clamp_misplaced: false });
        assert_eq!(paper.total_ns, 40, "paper-exact returns FirstUseTime");
        // Both leave the same mutated graph (duration floor at 0).
        assert_eq!(clamped.predicted_exec_ns, paper.predicted_exec_ns);
    }

    #[test]
    fn transfer_removal_recovers_launch_cost() {
        let g = graph(&[(CWork, 5, None), (CLaunch, 12, UnnecessaryTransfer), (CWait, 3, None)]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 12);
    }

    #[test]
    fn consecutive_removals_interact_through_next_sync_growth() {
        // Two unnecessary syncs in a row with little CPU work between:
        // the second one's duration grows before it is evaluated, but
        // removal of the second is then bounded by the work after it.
        let g = graph(&[
            (CWait, 10, UnnecessarySync),
            (CWork, 2, None),
            (CWait, 5, UnnecessarySync),
            (CWork, 4, None),
            (CWait, 1, None),
        ]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        // First removal: idle=2 ⇒ est 2; second sync grows to 5+8=13.
        // Second removal: idle=4 ⇒ est 4; final sync grows by 9.
        assert_eq!(r.per_node[0].benefit_ns, 2);
        assert_eq!(r.per_node[1].benefit_ns, 4);
        assert_eq!(r.total_ns, 6);
    }

    #[test]
    fn clean_graph_reports_nothing() {
        let g = graph(&[(CWork, 10, None), (CWait, 5, None)]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert!(r.per_node.is_empty());
        assert_eq!(r.total_ns, 0);
        assert_eq!(r.predicted_exec_ns, g.exec_time_ns);
    }

    /// Deterministic pseudo-random graphs covering every problem kind in
    /// every adjacency pattern, for differential testing of the walk
    /// against the mutating reference.
    fn scrambled(len: usize, seed: u64) -> ExecGraph {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = 0;
        let nodes: Vec<Node> = (0..len)
            .map(|i| {
                let (ntype, problem) = match next() % 8 {
                    0 | 1 => (CWait, UnnecessarySync),
                    2 => (CWait, None),
                    3 => (CWait, MisplacedSync),
                    4 => (CLaunch, UnnecessaryTransfer),
                    5 => (CLaunch, Problem::None),
                    _ => (CWork, Problem::None),
                };
                let duration = next() % 50;
                let n = Node {
                    ntype,
                    stime: t,
                    duration,
                    problem,
                    first_use_ns: (problem == MisplacedSync).then(|| next() % 60),
                    call_seq: Some(i),
                    instance: Some(OpInstance { sig: i as u64, occ: 0 }),
                    folded_sig: Some(i as u64),
                    api: Option::None,
                    site: Some(SourceLoc::new("t.cpp", i as u32 + 1)),
                    is_transfer: problem == UnnecessaryTransfer,
                };
                t += duration;
                n
            })
            .collect();
        let exec: Ns = nodes.iter().map(|n| n.duration).sum();
        ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
    }

    fn assert_same_report(got: &BenefitReport, want: &BenefitReport, ctx: &str) {
        assert_eq!(got.per_node, want.per_node, "{ctx}: per_node");
        assert_eq!(got.total_ns, want.total_ns, "{ctx}: total");
        assert_eq!(got.predicted_exec_ns, want.predicted_exec_ns, "{ctx}: predicted");
    }

    /// The walk must reproduce the mutating reference exactly — per
    /// node, totals, and predicted time — for both clamp modes.
    #[test]
    fn fold_matches_mutating_reference() {
        for (len, seed) in [(0, 1), (1, 2), (7, 3), (93, 4), (512, 5), (513, 6), (64, 7)] {
            let g = scrambled(len, seed);
            for clamp in [true, false] {
                let opts = BenefitOptions { clamp_misplaced: clamp };
                let reference = expected_benefit_reference(&g, &opts);
                let got = expected_benefit(&g, &opts);
                assert_same_report(&got, &reference, &format!("len={len} clamp={clamp}"));
            }
        }
    }

    /// The same identity at a size where every adjacency pattern occurs
    /// many times over.
    #[test]
    fn fold_matches_mutating_reference_on_a_20k_node_graph() {
        let g = scrambled(20_000, 0xd10_9e2e5);
        let opts = BenefitOptions::default();
        assert_same_report(
            &expected_benefit(&g, &opts),
            &expected_benefit_reference(&g, &opts),
            "20k nodes",
        );
    }
}
