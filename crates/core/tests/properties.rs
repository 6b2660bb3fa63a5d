//! Property-based tests for the analysis algorithms' invariants.

use ffm_core::{
    carry_forward_benefit, expected_benefit, BenefitOptions, ExecGraph, Json, NType, Node,
    OpInstance, Problem,
};
use gpu_sim::SourceLoc;
use proptest::prelude::*;

/// Strategy: a random CPU graph of (node kind, duration, problem) where
/// problems are only assigned to legal node kinds.
fn graph_strategy() -> impl Strategy<Value = ExecGraph> {
    let node = (0u8..3, 0u64..1_000, 0u8..4).prop_map(|(kind, dur, prob)| {
        let ntype = match kind {
            0 => NType::CWork,
            1 => NType::CLaunch,
            _ => NType::CWait,
        };
        let problem = match (ntype, prob) {
            (NType::CWait, 1) => Problem::UnnecessarySync,
            (NType::CWait, 2) => Problem::MisplacedSync,
            (NType::CLaunch, 3) => Problem::UnnecessaryTransfer,
            _ => Problem::None,
        };
        (ntype, dur, problem)
    });
    proptest::collection::vec(node, 1..60).prop_map(|spec| {
        let mut t = 0;
        let nodes: Vec<Node> = spec
            .into_iter()
            .enumerate()
            .map(|(i, (ntype, duration, problem))| {
                let n = Node {
                    ntype,
                    stime: t,
                    duration,
                    problem,
                    first_use_ns: if problem == Problem::MisplacedSync {
                        Some(duration / 2)
                    } else {
                        Option::None
                    },
                    call_seq: Some(i),
                    instance: Some(OpInstance { sig: (i % 7) as u64, occ: (i / 7) as u64 }),
                    folded_sig: Some((i % 3) as u64),
                    api: Option::None,
                    site: Some(SourceLoc::new("prop.cu", (i % 11) as u32)),
                    is_transfer: problem == Problem::UnnecessaryTransfer,
                };
                t += duration;
                n
            })
            .collect();
        ExecGraph { nodes, exec_time_ns: t, baseline_exec_ns: t }
    })
}

proptest! {
    /// The estimate never exceeds the total duration of the problematic
    /// nodes themselves (you cannot recover more than you remove), and
    /// never goes negative; the predicted execution time is consistent.
    #[test]
    fn benefit_is_bounded_and_consistent(g in graph_strategy()) {
        let r = expected_benefit(&g, &BenefitOptions::default());
        let removable: u64 = g
            .nodes
            .iter()
            .filter(|n| n.problem != Problem::None)
            .map(|n| n.duration)
            .sum();
        prop_assert!(r.total_ns <= removable, "total {} removable {removable}", r.total_ns);
        // Predicted exec can exceed the original only through next-sync
        // growth, which is itself bounded by removed durations.
        prop_assert!(r.predicted_exec_ns <= g.exec_time_ns + removable);
        // Every per-node benefit is attributed to a problematic node.
        for nb in &r.per_node {
            prop_assert!(g.nodes[nb.node].problem != Problem::None);
        }
        // As many benefit entries as problematic nodes.
        let problematic = g.nodes.iter().filter(|n| n.problem != Problem::None).count();
        prop_assert_eq!(r.per_node.len(), problematic);
    }

    /// Clamped misplaced estimates never exceed paper-exact ones.
    #[test]
    fn clamping_only_reduces_estimates(g in graph_strategy()) {
        let clamped = expected_benefit(&g, &BenefitOptions { clamp_misplaced: true });
        let exact = expected_benefit(&g, &BenefitOptions { clamp_misplaced: false });
        prop_assert!(clamped.total_ns <= exact.total_ns);
    }

    /// The carry-forward evaluator is also bounded by removable time and
    /// by the plain estimator's theoretical max (waits + transfers).
    #[test]
    fn carry_forward_is_bounded(g in graph_strategy()) {
        let total = carry_forward_benefit(&g, 0, g.nodes.len());
        let removable: u64 = g
            .nodes
            .iter()
            .filter(|n| n.problem != Problem::None)
            .map(|n| n.duration)
            .sum();
        prop_assert!(total <= removable, "carry {total} removable {removable}");
    }

    /// Evaluating a sub-range never yields more than the full range.
    #[test]
    fn carry_forward_subranges_are_monotone(
        g in graph_strategy(),
        cut in 0usize..60,
    ) {
        let n = g.nodes.len();
        let cut = cut.min(n);
        let full = carry_forward_benefit(&g, 0, n);
        let head = carry_forward_benefit(&g, 0, cut);
        // head covers a subset of problems: cannot beat the full range
        // by more than what the tail's extra windows could absorb — in
        // fact head's problems are a subset, so head <= full + 0 would be
        // wrong in general (the tail can *absorb* head's carries). The
        // robust invariant: head <= removable(0..cut).
        let removable: u64 = g.nodes[..cut]
            .iter()
            .filter(|x| x.problem != Problem::None)
            .map(|x| x.duration)
            .sum();
        prop_assert!(head <= removable);
        prop_assert!(full <= g.exec_time_ns.max(1) + removable);
    }

    /// JSON serialization of arbitrary strings never produces raw control
    /// characters or unescaped quotes inside the literal.
    #[test]
    fn json_string_escaping_is_safe(s in ".*") {
        let out = Json::Str(s.clone()).to_string_compact();
        prop_assert!(out.starts_with('"') && out.ends_with('"'));
        let inner = &out[1..out.len() - 1];
        // No raw control characters survive.
        prop_assert!(!inner.chars().any(|c| (c as u32) < 0x20));
        // Quotes only appear escaped.
        let mut prev_backslashes = 0usize;
        for c in inner.chars() {
            if c == '"' {
                prop_assert!(prev_backslashes % 2 == 1, "unescaped quote in {out}");
            }
            if c == '\\' {
                prev_backslashes += 1;
            } else {
                prev_backslashes = 0;
            }
        }
    }

    /// Integers round-trip exactly through the emitter.
    #[test]
    fn json_integers_are_exact(v in any::<i64>()) {
        let out = Json::Int(v as i128).to_string_compact();
        prop_assert_eq!(out.parse::<i64>().unwrap(), v);
    }
}
