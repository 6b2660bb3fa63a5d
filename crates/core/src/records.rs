//! Data carried between the stages of the feed-forward model.
//!
//! Each stage runs the application in a fresh context with its own
//! instrumentation and produces one of these result records; the next
//! stage's instrumentation decisions are functions of them (that is the
//! "feed forward"). Correlation across runs uses stack-trace signatures
//! plus per-signature occurrence indices, which is sound for applications
//! whose call pattern is stable across runs — the same assumption the
//! paper states in §5.3.

use std::collections::{HashMap, HashSet};

use cuda_driver::ApiFn;
use gpu_sim::{Direction, Ns, SourceLoc, StackTrace, WaitReason};
use instrument::Digest;

/// Identity of one *dynamic* operation: the stack-trace address signature
/// of its call site plus how many times that signature had occurred
/// before (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpInstance {
    pub sig: u64,
    pub occ: u64,
}

/// Stage 1 output: the baseline measurement.
#[derive(Debug, Clone)]
pub struct Stage1Result {
    /// Application execution time under baseline (sync-funnel-only)
    /// instrumentation.
    pub exec_time_ns: Ns,
    /// Driver API functions observed performing a synchronization, with
    /// hit counts. These are the functions stage 2 traces.
    pub sync_apis: HashMap<ApiFn, u64>,
    /// Total time observed inside the sync funnel.
    pub total_wait_ns: Ns,
    /// Number of sync-funnel hits.
    pub sync_hits: u64,
}

impl Stage1Result {
    /// The set of APIs stage 2 must trace: everything seen synchronizing
    /// plus the documented transfer functions.
    pub fn trace_set(&self) -> HashSet<ApiFn> {
        let mut s: HashSet<ApiFn> = self.sync_apis.keys().copied().collect();
        s.insert(ApiFn::CudaMemcpy);
        s.insert(ApiFn::CudaMemcpyAsync);
        s.insert(ApiFn::PrivateMemcpy);
        // Kernel launches are traced so the CPU graph has CLaunch nodes.
        s.insert(ApiFn::CudaLaunchKernel);
        s.insert(ApiFn::PrivateLaunch);
        s
    }
}

/// Transfer parameters recorded on a traced call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRec {
    pub dir: Direction,
    pub bytes: u64,
    /// Host-side address (destination for D2H, source for H2D).
    pub host: u64,
    /// Device-side address.
    pub dev: u64,
    pub pinned: bool,
    pub is_async: bool,
}

/// One traced driver call from stage 2.
#[derive(Debug, Clone)]
pub struct TracedCall {
    /// Position in the trace (call order).
    pub seq: usize,
    pub api: ApiFn,
    /// Application source location of the call (leaf frame's call site).
    pub site: SourceLoc,
    pub stack: StackTrace,
    /// Stack address signature (single-point identity).
    pub sig: u64,
    /// Folded-name signature (folded-function identity).
    pub folded_sig: u64,
    /// Occurrence index of `sig` (0-based).
    pub occ: u64,
    pub enter_ns: Ns,
    pub exit_ns: Ns,
    /// Time blocked in the sync funnel during this call.
    pub wait_ns: Ns,
    pub wait_reason: Option<WaitReason>,
    pub transfer: Option<TransferRec>,
    /// True when the call enqueues device work (kernel launch, memset,
    /// async transfer).
    pub is_launch: bool,
}

impl TracedCall {
    pub fn total_ns(&self) -> Ns {
        self.exit_ns - self.enter_ns
    }

    pub fn instance(&self) -> OpInstance {
        OpInstance { sig: self.sig, occ: self.occ }
    }

    /// Whether the call performed any synchronization (even a zero-length
    /// one: entering the funnel marks the call as a synchronizer).
    pub fn performed_sync(&self) -> bool {
        self.wait_reason.is_some()
    }
}

/// Stage 2 output: the detailed trace.
#[derive(Debug, Clone)]
pub struct Stage2Result {
    pub exec_time_ns: Ns,
    pub calls: Vec<TracedCall>,
}

/// A protected-data access observed in stage 3.
#[derive(Debug, Clone)]
pub struct ProtectedAccess {
    /// The synchronization instance the access was protected by.
    pub sync: OpInstance,
    /// The "instruction" (source site) that performed the access.
    pub access_site: SourceLoc,
    /// Virtual time between sync completion and the access, as observed
    /// in the (heavily instrumented) stage 3 run. Stage 4 re-measures
    /// this with minimal instrumentation.
    pub rough_gap_ns: Ns,
}

/// A duplicate transfer detected by content hashing in stage 3.
#[derive(Debug, Clone)]
pub struct DuplicateTransfer {
    /// The transfer instance that retransmitted known data.
    pub op: OpInstance,
    pub site: SourceLoc,
    /// Where the data was first transferred.
    pub first_site: SourceLoc,
    pub bytes: u64,
    pub digest: Digest,
}

/// Stage 3 output: problem evidence.
#[derive(Debug, Clone, Default)]
pub struct Stage3Result {
    /// Sync instances that protect data the CPU actually accessed before
    /// the next synchronization (removal would be unsafe).
    pub required_syncs: HashSet<OpInstance>,
    /// Every sync instance observed (required or not).
    pub observed_syncs: HashSet<OpInstance>,
    /// First accesses to protected data, per sync instance.
    pub accesses: Vec<ProtectedAccess>,
    /// Duplicate transfers.
    pub duplicates: Vec<DuplicateTransfer>,
    /// Instruction sites that performed first accesses — the load/store
    /// instrumentation set for stage 4.
    pub first_use_sites: HashSet<SourceLoc>,
    /// Total payload bytes hashed (overhead accounting).
    pub hashed_bytes: u64,
    /// Execution time of the memory-tracing run.
    pub exec_time_sync_ns: Ns,
    /// Execution time of the data-hashing run.
    pub exec_time_hash_ns: Ns,
    /// Total stage 3 collection time (Diogenes runs the sync and the
    /// transfer collection as separate runs — paper §4).
    pub exec_time_ns: Ns,
}

impl Stage3Result {
    /// Duplicate instances as a set for classification.
    pub fn duplicate_set(&self) -> HashSet<OpInstance> {
        self.duplicates.iter().map(|d| d.op).collect()
    }
}

/// Stage 4 output: sync-to-first-use timing.
#[derive(Debug, Clone, Default)]
pub struct Stage4Result {
    /// Measured gap between sync completion and the first use of
    /// protected data, per sync instance.
    pub first_use_ns: HashMap<OpInstance, Ns>,
    pub exec_time_ns: Ns,
}

impl Stage4Result {
    /// Mean first-use gap for a sync *site* (all occurrences).
    pub fn site_mean_gap(&self, sig: u64) -> Option<Ns> {
        let gaps: Vec<Ns> =
            self.first_use_ns.iter().filter(|(k, _)| k.sig == sig).map(|(_, &v)| v).collect();
        if gaps.is_empty() {
            None
        } else {
            Some(gaps.iter().sum::<Ns>() / gaps.len() as Ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_set_always_includes_documented_transfers() {
        let s1 = Stage1Result {
            exec_time_ns: 0,
            sync_apis: [(ApiFn::CudaFree, 3)].into_iter().collect(),
            total_wait_ns: 0,
            sync_hits: 3,
        };
        let t = s1.trace_set();
        assert!(t.contains(&ApiFn::CudaFree));
        assert!(t.contains(&ApiFn::CudaMemcpy));
        assert!(t.contains(&ApiFn::CudaMemcpyAsync));
        assert!(t.contains(&ApiFn::CudaLaunchKernel));
        assert!(!t.contains(&ApiFn::CudaMalloc), "non-sync non-transfer untraced");
    }

    #[test]
    fn site_mean_gap_averages_occurrences() {
        let mut s4 = Stage4Result::default();
        s4.first_use_ns.insert(OpInstance { sig: 1, occ: 0 }, 100);
        s4.first_use_ns.insert(OpInstance { sig: 1, occ: 1 }, 300);
        s4.first_use_ns.insert(OpInstance { sig: 2, occ: 0 }, 999);
        assert_eq!(s4.site_mean_gap(1), Some(200));
        assert_eq!(s4.site_mean_gap(3), None);
    }
}
