//! Stage 5 — the analysis that turns collected data into actionable
//! feedback: classified problems, expected benefit, groupings.

use cuda_driver::ApiFn;
use gpu_sim::Ns;

use crate::benefit::{BenefitOptions, BenefitReport};
use crate::graph::ExecGraph;
use crate::grouping::{analyze_graph, ProblemGroup, Sequence};
use crate::problem::{classify, ClassifyConfig, Problem};
use crate::records::{Stage1Result, Stage2Result, Stage3Result, Stage4Result};

/// Analysis configuration.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    pub classify: ClassifyConfig,
    pub benefit: BenefitOptions,
}

/// One problematic operation in the final report.
#[derive(Debug, Clone)]
pub struct ProblemOp {
    /// Graph node index.
    pub node: usize,
    pub api: Option<ApiFn>,
    pub site: Option<gpu_sim::SourceLoc>,
    pub problem: Problem,
    pub benefit_ns: Ns,
}

/// The complete stage 5 output.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The classified execution graph.
    pub graph: ExecGraph,
    /// Per-node expected benefit (Fig. 5).
    pub benefit: BenefitReport,
    /// Problematic operations, sorted by descending benefit.
    pub problems: Vec<ProblemOp>,
    /// Single-point groups (identical stacks by address).
    pub single_point: Vec<ProblemGroup>,
    /// Per-API folds (the Fig. 7 overview rows).
    pub api_folds: Vec<ProblemGroup>,
    /// Contiguous problem sequences with carry-forward estimates.
    pub sequences: Vec<Sequence>,
    /// Expected savings per API function, sorted descending (Table 2).
    pub by_api: Vec<(ApiFn, Ns)>,
    /// Baseline execution time from stage 1 (the denominator for
    /// % -of-execution figures).
    pub baseline_exec_ns: Ns,
}

impl Analysis {
    /// Express a duration as percent of baseline execution time.
    pub fn percent(&self, ns: Ns) -> f64 {
        if self.baseline_exec_ns == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / self.baseline_exec_ns as f64
        }
    }

    /// Total expected benefit across all problems.
    pub fn total_benefit_ns(&self) -> Ns {
        self.benefit.total_ns
    }

    /// Count of problematic synchronization operations.
    pub fn sync_issue_count(&self) -> usize {
        self.problems.iter().filter(|p| p.problem.is_sync()).count()
    }

    /// Count of problematic transfer operations.
    pub fn transfer_issue_count(&self) -> usize {
        self.problems.iter().filter(|p| p.problem == Problem::UnnecessaryTransfer).count()
    }

    /// Rank (1-based) of an API in the savings ordering, for the
    /// "position in profile" columns of Table 2.
    pub fn api_rank(&self, api: ApiFn) -> Option<usize> {
        self.by_api.iter().position(|(a, _)| *a == api).map(|p| p + 1)
    }
}

/// Run stage 5 over the collected stage results: build the graph,
/// classify it, and analyze it in one pass.
///
/// `jobs` is unused: the analysis is one sequential pass. The parameter
/// stays so existing callers keep compiling.
pub fn analyze(
    s1: &Stage1Result,
    s2: &Stage2Result,
    s3: &Stage3Result,
    s4: &Stage4Result,
    cfg: &AnalysisConfig,
    _jobs: usize,
) -> Analysis {
    let mut graph = ExecGraph::from_trace(s2, s1.exec_time_ns);
    classify(&mut graph, s3, s4, &cfg.classify);
    analyze_graph(graph, s1.exec_time_ns, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::OpInstance;
    use gpu_sim::{SourceLoc, StackTrace, WaitReason};

    fn mk_call(
        seq: usize,
        api: ApiFn,
        line: u32,
        enter: Ns,
        exit: Ns,
        wait: Ns,
    ) -> crate::records::TracedCall {
        let stack = StackTrace {
            frames: vec![gpu_sim::Frame::new(api.name(), SourceLoc::new("app.cpp", line))],
        };
        let sig = stack.address_signature();
        crate::records::TracedCall {
            seq,
            api,
            site: SourceLoc::new("app.cpp", line),
            sig,
            folded_sig: stack.folded_signature(),
            stack,
            occ: 0,
            enter_ns: enter,
            exit_ns: exit,
            wait_ns: wait,
            wait_reason: Some(WaitReason::Implicit),
            transfer: None,
            is_launch: false,
        }
    }

    #[test]
    fn end_to_end_analysis_flags_unrequired_sync() {
        let s1 = Stage1Result {
            exec_time_ns: 1_000,
            sync_apis: [(ApiFn::CudaFree, 1)].into_iter().collect(),
            total_wait_ns: 400,
            sync_hits: 1,
        };
        let call = mk_call(0, ApiFn::CudaFree, 856, 100, 600, 400);
        let inst = OpInstance { sig: call.sig, occ: 0 };
        let s2 = Stage2Result { exec_time_ns: 1_000, calls: vec![call] };
        let mut s3 = Stage3Result::default();
        s3.observed_syncs.insert(inst);
        // not required -> unnecessary
        let s4 = Stage4Result::default();
        let a = analyze(&s1, &s2, &s3, &s4, &AnalysisConfig::default(), 1);
        assert_eq!(a.problems.len(), 1);
        assert_eq!(a.problems[0].problem, Problem::UnnecessarySync);
        assert!(a.total_benefit_ns() > 0);
        assert_eq!(a.sync_issue_count(), 1);
        assert_eq!(a.transfer_issue_count(), 0);
        assert_eq!(a.api_rank(ApiFn::CudaFree), Some(1));
        // ~40% of exec is the wait; benefit is capped by surrounding work.
        assert!(a.percent(a.total_benefit_ns()) <= 100.0);
    }

    #[test]
    fn percent_handles_zero_baseline() {
        let a = analyze(
            &Stage1Result {
                exec_time_ns: 0,
                sync_apis: Default::default(),
                total_wait_ns: 0,
                sync_hits: 0,
            },
            &Stage2Result { exec_time_ns: 0, calls: vec![] },
            &Stage3Result::default(),
            &Stage4Result::default(),
            &AnalysisConfig::default(),
            1,
        );
        assert_eq!(a.percent(100), 0.0);
        assert!(a.problems.is_empty());
    }
}
