//! Problem classification (paper §3.3–§3.4).
//!
//! A synchronization instance is **unnecessary** when no instruction
//! accessed the data it protects before the next synchronization;
//! **misplaced** when the data *is* accessed but only after a long gap
//! (the sync could move later, restoring CPU/GPU overlap). A transfer is
//! **unnecessary** when its payload digest matches data already moved to
//! the same destination.

use gpu_sim::Ns;

use crate::graph::{ExecGraph, NType};
use crate::records::{Stage3Result, Stage4Result};

/// The problem types the model detects (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Problem {
    /// Not problematic.
    #[default]
    None,
    /// Synchronization whose removal cannot affect correctness.
    UnnecessarySync,
    /// Synchronization needed for correctness but performed too early.
    MisplacedSync,
    /// Transfer of data already resident at the destination.
    UnnecessaryTransfer,
}

impl Problem {
    pub fn label(&self) -> &'static str {
        match self {
            Problem::None => "none",
            Problem::UnnecessarySync => "unnecessary synchronization",
            Problem::MisplacedSync => "misplaced synchronization",
            Problem::UnnecessaryTransfer => "unnecessary transfer",
        }
    }

    pub fn is_sync(&self) -> bool {
        matches!(self, Problem::UnnecessarySync | Problem::MisplacedSync)
    }
}

/// Classification thresholds.
#[derive(Debug, Clone)]
pub struct ClassifyConfig {
    /// Minimum sync-to-first-use gap for a required synchronization to be
    /// flagged as misplaced. Gaps at or below this are treated as
    /// well-placed (the CPU used the data essentially immediately).
    pub misplaced_threshold_ns: Ns,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        Self { misplaced_threshold_ns: 2_000 }
    }
}

/// Annotate graph nodes with problem classifications using stage 3/4
/// evidence. Classification is strictly per node. Returns the number of
/// problematic nodes.
pub fn classify(
    graph: &mut ExecGraph,
    s3: &Stage3Result,
    s4: &Stage4Result,
    cfg: &ClassifyConfig,
) -> usize {
    let dups = s3.duplicate_set();
    let mut count = 0;
    for node in &mut graph.nodes {
        let Some(inst) = node.instance else { continue };
        match node.ntype {
            NType::CWait => {
                // Only instances stage 3 actually observed can be judged;
                // unobserved ones (first-run divergence) stay unclassified.
                if !s3.observed_syncs.contains(&inst) {
                    continue;
                }
                if !s3.required_syncs.contains(&inst) {
                    node.problem = Problem::UnnecessarySync;
                    count += 1;
                } else {
                    let gap = s4.first_use_ns.get(&inst).copied();
                    if let Some(gap) = gap {
                        if gap > cfg.misplaced_threshold_ns {
                            node.problem = Problem::MisplacedSync;
                            node.first_use_ns = Some(gap);
                            count += 1;
                        }
                    }
                }
            }
            NType::CLaunch if node.is_transfer && dups.contains(&inst) => {
                node.problem = Problem::UnnecessaryTransfer;
                count += 1;
            }
            _ => {}
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Node;
    use crate::records::OpInstance;
    use cuda_driver::ApiFn;
    use gpu_sim::SourceLoc;

    fn node(ntype: NType, sig: u64, occ: u64, is_transfer: bool) -> Node {
        Node {
            ntype,
            stime: 0,
            duration: 100,
            problem: Problem::None,
            first_use_ns: None,
            call_seq: Some(0),
            instance: Some(OpInstance { sig, occ }),
            folded_sig: Some(sig),
            api: Some(ApiFn::CudaFree),
            site: Some(SourceLoc::new("a.cpp", 1)),
            is_transfer,
        }
    }

    fn graph(nodes: Vec<Node>) -> ExecGraph {
        ExecGraph { nodes, exec_time_ns: 1000, baseline_exec_ns: 1000 }
    }

    #[test]
    fn unobserved_syncs_stay_unclassified() {
        let mut g = graph(vec![node(NType::CWait, 1, 0, false)]);
        let s3 = Stage3Result::default(); // nothing observed
        let n = classify(&mut g, &s3, &Stage4Result::default(), &ClassifyConfig::default());
        assert_eq!(n, 0);
        assert_eq!(g.nodes[0].problem, Problem::None);
    }

    #[test]
    fn sync_without_protected_access_is_unnecessary() {
        let mut g = graph(vec![node(NType::CWait, 1, 0, false)]);
        let mut s3 = Stage3Result::default();
        s3.observed_syncs.insert(OpInstance { sig: 1, occ: 0 });
        let n = classify(&mut g, &s3, &Stage4Result::default(), &ClassifyConfig::default());
        assert_eq!(n, 1);
        assert_eq!(g.nodes[0].problem, Problem::UnnecessarySync);
    }

    #[test]
    fn required_sync_with_large_gap_is_misplaced() {
        let inst = OpInstance { sig: 1, occ: 0 };
        let mut g = graph(vec![node(NType::CWait, 1, 0, false)]);
        let mut s3 = Stage3Result::default();
        s3.observed_syncs.insert(inst);
        s3.required_syncs.insert(inst);
        let mut s4 = Stage4Result::default();
        s4.first_use_ns.insert(inst, 50_000);
        classify(&mut g, &s3, &s4, &ClassifyConfig::default());
        assert_eq!(g.nodes[0].problem, Problem::MisplacedSync);
        assert_eq!(g.nodes[0].first_use_ns, Some(50_000));
    }

    #[test]
    fn required_sync_with_small_gap_is_fine() {
        let inst = OpInstance { sig: 1, occ: 0 };
        let mut g = graph(vec![node(NType::CWait, 1, 0, false)]);
        let mut s3 = Stage3Result::default();
        s3.observed_syncs.insert(inst);
        s3.required_syncs.insert(inst);
        let mut s4 = Stage4Result::default();
        s4.first_use_ns.insert(inst, 100);
        classify(&mut g, &s3, &s4, &ClassifyConfig::default());
        assert_eq!(g.nodes[0].problem, Problem::None);
    }

    #[test]
    fn duplicate_transfers_flagged_per_instance() {
        let mut g = graph(vec![node(NType::CLaunch, 9, 0, true), node(NType::CLaunch, 9, 1, true)]);
        let mut s3 = Stage3Result::default();
        s3.duplicates.push(crate::records::DuplicateTransfer {
            op: OpInstance { sig: 9, occ: 1 },
            site: SourceLoc::new("a.cpp", 1),
            first_site: SourceLoc::new("a.cpp", 1),
            bytes: 10,
            digest: instrument::Digest(1),
        });
        classify(&mut g, &s3, &Stage4Result::default(), &ClassifyConfig::default());
        assert_eq!(g.nodes[0].problem, Problem::None, "first transfer is necessary");
        assert_eq!(g.nodes[1].problem, Problem::UnnecessaryTransfer);
    }

    #[test]
    fn problem_labels() {
        assert_eq!(Problem::UnnecessarySync.label(), "unnecessary synchronization");
        assert!(Problem::MisplacedSync.is_sync());
        assert!(!Problem::UnnecessaryTransfer.is_sync());
    }
}
