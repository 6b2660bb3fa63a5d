//! Property-based tests for the FFB artifact codec: round-trip identity
//! for every serializable [`Artifact`] kind, arbitrary documents and
//! sweep matrices, and decode robustness —
//! truncated, corrupted, or misaligned containers must return `Err` (or
//! the original content), never panic, never read out of bounds.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use cuda_driver::{ApiFn, InternalFn};
use ffm_core::{
    decode_artifact, decode_doc, decode_sweep, encode_artifact, encode_doc, encode_sweep, Artifact,
    ArtifactKind, Axis, AxisLayout, DuplicateTransfer, Ffb, Json, OpInstance, ProtectedAccess,
    Shard, Stage1Result, Stage2Cols, Stage2Result, Stage3Result, Stage4Result, SweepCell,
    SweepMatrix, TracedCall, TransferRec,
};
use gpu_sim::{Digest, Direction, Frame, SourceLoc, StackTrace, WaitReason};
use instrument::Discovery;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Seeded generators (strategies produce a seed + size; the builders
// below expand them into structured artifacts)
// ---------------------------------------------------------------------------

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // xorshift64
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn loc(&mut self) -> SourceLoc {
        let files = ["a.cu", "b.cpp", "λ/ü.rs"];
        SourceLoc::new(files[self.below(3) as usize], self.below(5_000) as u32)
    }

    fn api(&mut self) -> ApiFn {
        let apis = [
            ApiFn::CudaMalloc,
            ApiFn::CudaFree,
            ApiFn::CudaMemcpy,
            ApiFn::CudaMemcpyAsync,
            ApiFn::CudaDeviceSynchronize,
            ApiFn::CudaLaunchKernel,
        ];
        apis[self.below(apis.len() as u64) as usize]
    }

    fn op(&mut self) -> OpInstance {
        OpInstance { sig: self.next(), occ: self.below(1_000) }
    }

    fn stack(&mut self) -> StackTrace {
        let names = ["main", "solve<float>", "漢字::fn", "x\"y\\z"];
        let frames = (0..self.below(4))
            .map(|_| {
                let loc = self.loc();
                Frame::new(names[self.below(4) as usize], loc)
            })
            .collect();
        StackTrace { frames }
    }

    fn transfer(&mut self) -> Option<TransferRec> {
        (self.below(2) == 0).then(|| TransferRec {
            dir: [Direction::HtoD, Direction::DtoH, Direction::DtoD][self.below(3) as usize],
            bytes: self.next(),
            host: self.next(),
            dev: self.next(),
            pinned: self.below(2) == 0,
            is_async: self.below(2) == 0,
        })
    }
}

fn build_artifact(kind_pick: u8, seed: u64, n: usize) -> Artifact {
    let mut g = Gen(seed | 1);
    match kind_pick % 5 {
        0 => {
            let sync_fn = InternalFn::all()[g.below(InternalFn::all().len() as u64) as usize];
            let waits = (0..n)
                .map(|_| (InternalFn::all()[g.below(6) as usize], g.next()))
                .collect::<HashMap<_, _>>();
            Artifact::Discovery(Arc::new(Discovery { sync_fn, waits }))
        }
        1 => Artifact::Stage1(Arc::new(Stage1Result {
            exec_time_ns: g.next(),
            sync_apis: (0..n).map(|_| (g.api(), g.next())).collect(),
            total_wait_ns: g.next(),
            sync_hits: g.next(),
        })),
        2 => {
            let calls = (0..n)
                .map(|i| {
                    let stack = g.stack();
                    TracedCall {
                        seq: i,
                        api: g.api(),
                        site: g.loc(),
                        sig: stack.address_signature(),
                        folded_sig: stack.folded_signature(),
                        stack,
                        occ: g.below(64),
                        enter_ns: g.next(),
                        exit_ns: g.next(),
                        wait_ns: g.next(),
                        wait_reason: match g.below(4) {
                            0 => Some(WaitReason::Explicit),
                            1 => Some(WaitReason::Implicit),
                            2 => Some(WaitReason::Conditional),
                            _ => None,
                        },
                        transfer: g.transfer(),
                        is_launch: g.below(2) == 0,
                    }
                })
                .collect();
            Artifact::Stage2(Arc::new(Stage2Result { exec_time_ns: g.next(), calls }))
        }
        3 => Artifact::Stage3(Arc::new(Stage3Result {
            required_syncs: (0..n).map(|_| g.op()).collect::<HashSet<_>>(),
            observed_syncs: (0..n).map(|_| g.op()).collect::<HashSet<_>>(),
            accesses: (0..n)
                .map(|_| ProtectedAccess {
                    sync: g.op(),
                    access_site: g.loc(),
                    rough_gap_ns: g.next(),
                })
                .collect(),
            duplicates: (0..n)
                .map(|_| DuplicateTransfer {
                    op: g.op(),
                    site: g.loc(),
                    first_site: g.loc(),
                    bytes: g.next(),
                    digest: Digest((g.next() as u128) << 64 | g.next() as u128),
                })
                .collect(),
            first_use_sites: (0..n).map(|_| g.loc()).collect::<HashSet<_>>(),
            hashed_bytes: g.next(),
            exec_time_sync_ns: g.next(),
            exec_time_hash_ns: g.next(),
            exec_time_ns: g.next(),
        })),
        _ => Artifact::Stage4(Arc::new(Stage4Result {
            first_use_ns: (0..n).map(|_| (g.op(), g.next())).collect(),
            exec_time_ns: g.next(),
        })),
    }
}

fn build_doc(seed: u64, depth: usize) -> Json {
    let mut g = Gen(seed | 1);
    build_doc_inner(&mut g, depth)
}

fn build_doc_inner(g: &mut Gen, depth: usize) -> Json {
    let strings = ["", "plain", "q\"b\\s", "tab\there", "héllo λ", "\u{1}ctl"];
    match g.below(if depth == 0 { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(g.below(2) == 0),
        2 => Json::Int(g.next() as i128 - i64::MAX as i128),
        // Finite floats only: NaN compares unequal to itself, which is a
        // Json::PartialEq property, not a codec one.
        3 => Json::Float(f64::from_bits(g.next() % (1 << 62)) % 1e12),
        4 => Json::Str(strings[g.below(6) as usize].to_string()),
        5 => Json::Static(strings[g.below(6) as usize]),
        6 => Json::Arr((0..g.below(4)).map(|_| build_doc_inner(g, depth - 1)).collect()),
        _ => Json::Obj(
            (0..g.below(4)).map(|i| (format!("k{i}"), build_doc_inner(g, depth - 1))).collect(),
        ),
    }
}

/// A small sweep matrix with a valid axis/assignment correspondence,
/// optionally marked as a shard.
fn build_sweep(seed: u64, n: usize, sharded: bool) -> SweepMatrix {
    let mut g = Gen(seed | 1);
    let cells = (0..n)
        .map(|i| {
            let baseline = 1 + g.below(1_000_000);
            let benefit = g.next() % baseline;
            SweepCell {
                index: i,
                assignment: vec![
                    ("cost.free_base_ns".to_string(), i as u64),
                    ("driver.unified_memset_penalty".to_string(), i as u64),
                ],
                baseline_exec_ns: baseline,
                total_benefit_ns: benefit,
                benefit_pct: benefit as f64 * 100.0 / baseline as f64,
                problem_count: g.below(40) as usize,
                sync_issues: g.below(30) as usize,
                transfer_issues: g.below(10) as usize,
                sequence_count: g.below(5) as usize,
                collection_overhead_factor: 1.0 + g.below(300) as f64 / 100.0,
            }
        })
        .collect();
    SweepMatrix {
        app_name: "prop".to_string(),
        workload: "codec_props".to_string(),
        axes: vec![
            Axis::new("cost.free_base_ns", (0..n as u64).collect()),
            Axis::new("driver.unified_memset_penalty", (0..n as u64).collect()),
        ],
        layout: AxisLayout::Paired,
        total_cells: n,
        shard: sharded.then(|| Shard::new(1, 2).expect("valid shard")),
        cells,
        summary: Default::default(),
        cache_stats: None,
    }
}

/// Read `bytes` as an artifact of `kind` — Stage 2 through the borrowed
/// [`Stage2Cols`] reader, every other kind through the store's owned
/// decoder; `true` iff the read succeeded. Exercised below against
/// damaged and misaligned buffers — must never panic or read out of
/// bounds.
fn scratch_read(kind: ArtifactKind, bytes: &[u8]) -> bool {
    match kind {
        ArtifactKind::Stage2 => Stage2Cols::new().read(bytes).is_ok(),
        // Analysis artifacts are memory-only; the strategy never builds one.
        ArtifactKind::Analysis => unreachable!("analysis artifacts are not serialized"),
        _ => decode_artifact(bytes, kind).is_ok(),
    }
}

fn artifact_strategy() -> impl Strategy<Value = Artifact> {
    (0u8..5, 0u64..u64::MAX, 0usize..12).prop_map(|(k, seed, n)| build_artifact(k, seed, n))
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    /// decode ∘ encode is the identity for every serializable artifact
    /// kind. The records deliberately lack `PartialEq`, but the encoder
    /// is canonical (hash containers are sorted before writing), so
    /// identity is equivalent to the re-encoded bytes matching.
    #[test]
    fn artifact_roundtrip_is_identity(artifact in artifact_strategy()) {
        let bytes = encode_artifact(&artifact).expect("serializable kind");
        let back = decode_artifact(&bytes, artifact.kind()).expect("decodes");
        prop_assert_eq!(encode_artifact(&back).expect("re-encodes"), bytes);
    }

    /// Arbitrary documents round-trip with full content equality (exact
    /// ints, float bits, string content across Str/Static variants).
    #[test]
    fn doc_roundtrip_is_identity(seed in 0u64..u64::MAX, depth in 0usize..4) {
        let doc = build_doc(seed, depth);
        let back = decode_doc(&encode_doc(&doc)).expect("decodes");
        prop_assert_eq!(&back, &doc);
        prop_assert_eq!(back.to_string_pretty(), doc.to_string_pretty());
    }

    /// Any single-byte corruption of an artifact container is either
    /// rejected with `Err` or — only inside the build-tag bytes 12..20,
    /// which integrity deliberately excludes — decodes the original
    /// content. Nothing panics.
    #[test]
    fn corrupted_artifacts_never_panic(
        artifact in artifact_strategy(),
        pos in 0u64..u64::MAX,
        mask in 1u8..=255,
    ) {
        let bytes = encode_artifact(&artifact).expect("serializable kind");
        let i = (pos % bytes.len() as u64) as usize;
        let mut bad = bytes.clone();
        bad[i] ^= mask;
        // The build tag is outside the checksum but *is* compared
        // against this process's tag, so a mutated tag reads as a
        // stale cache entry (Err) — the point is no panic and no
        // silent misdecode.
        if let Ok(back) = decode_artifact(&bad, artifact.kind()) {
            prop_assert!((12..20).contains(&i), "byte {i} misdecoded");
            prop_assert_eq!(encode_artifact(&back).expect("re-encodes"), bytes);
        }
    }

    /// Every truncation of an artifact container is rejected.
    #[test]
    fn truncated_artifacts_always_err(artifact in artifact_strategy(), cut in 0u64..u64::MAX) {
        let bytes = encode_artifact(&artifact).expect("serializable kind");
        let end = (cut % bytes.len() as u64) as usize;
        prop_assert!(decode_artifact(&bytes[..end], artifact.kind()).is_err());
    }

    /// Same robustness for generic documents: corrupt bytes outside the
    /// build tag must error, truncations must error, and nothing panics.
    #[test]
    fn corrupted_docs_never_panic(
        seed in 0u64..u64::MAX,
        pos in 0u64..u64::MAX,
        mask in 1u8..=255,
    ) {
        let doc = build_doc(seed, 3);
        let bytes = encode_doc(&doc);
        let i = (pos % bytes.len() as u64) as usize;
        let mut bad = bytes.clone();
        bad[i] ^= mask;
        if let Ok(back) = decode_doc(&bad) {
            prop_assert!((12..20).contains(&i), "byte {i} misdecoded");
            prop_assert_eq!(back, doc);
        }
        let end = (pos % bytes.len() as u64) as usize;
        prop_assert!(decode_doc(&bytes[..end]).is_err());
    }

    /// Decoding random garbage (no valid container anywhere) errors.
    #[test]
    fn garbage_bytes_are_rejected(seed in 0u64..u64::MAX, len in 0usize..200) {
        let mut g = Gen(seed | 1);
        let bytes: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        prop_assert!(decode_doc(&bytes).is_err());
        prop_assert!(decode_artifact(&bytes, ArtifactKind::Stage2).is_err());
    }

    /// decode ∘ encode is the identity for sweep matrices too, sharded
    /// or not: re-encoding the decoded matrix reproduces the bytes.
    #[test]
    fn sweep_roundtrip_is_identity(
        seed in 0u64..u64::MAX,
        n in 0usize..8,
        sharded in any::<bool>(),
    ) {
        let bytes = encode_sweep(&build_sweep(seed, n, sharded)).expect("encodes");
        let back = decode_sweep(&bytes).expect("decodes");
        prop_assert_eq!(encode_sweep(&back).expect("re-encodes"), bytes);
    }

    /// The readers accept a container at any buffer alignment
    /// (request bodies and sliced buffers make no alignment promises) and
    /// reject every truncation and every corruption outside the
    /// checksum-exempt build-tag bytes — without panicking or reading
    /// out of bounds at any offset.
    #[test]
    fn readers_survive_damage_at_any_alignment(
        artifact in artifact_strategy(),
        off in 0usize..8,
        pos in 0u64..u64::MAX,
        mask in 1u8..=255,
    ) {
        let bytes = encode_artifact(&artifact).expect("serializable kind");
        let kind = artifact.kind();

        // Force the container to start `off` bytes past an allocation
        // boundary; intact reads must still succeed.
        let mut shifted = vec![0u8; off];
        shifted.extend_from_slice(&bytes);
        prop_assert!(scratch_read(kind, &shifted[off..]), "intact misaligned read failed");
        prop_assert!(Ffb::parse(&shifted[off..]).is_ok());

        // Single-byte corruption: only the build tag (bytes 12..20,
        // outside the integrity region but compared as a staleness
        // check) may still read back; here even that errs, because the
        // mutated tag no longer matches this process's tag.
        let i = (pos % bytes.len() as u64) as usize;
        shifted[off + i] ^= mask;
        if scratch_read(kind, &shifted[off..]) {
            prop_assert!((12..20).contains(&i), "corrupt byte {i} misdecoded");
        }
        shifted[off + i] ^= mask;

        // Every truncation errs, at every alignment.
        let end = (pos % bytes.len() as u64) as usize;
        prop_assert!(!scratch_read(kind, &shifted[off..off + end]));
        prop_assert!(Ffb::parse(&shifted[off..off + end]).is_err());
    }
}
