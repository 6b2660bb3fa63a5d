//! Content-addressed artifact store for pipeline stage outputs.
//!
//! Each stage of the FFM pipeline produces an [`Artifact`] keyed by a
//! [`StageKey`]: a stable 128-bit digest of everything the stage's output
//! depends on — the stage name, a schema version, the application's input
//! digest, the declared config fields the stage reads, and the keys of
//! its upstream artifacts (see `engine::stage_key` for the keying rules).
//! Two sweep cells whose keys collide *by construction* would compute the
//! same bytes, so the store can hand the second cell the first cell's
//! result.
//!
//! The store has two layers:
//!
//! - an in-memory map (always on), shared across the cells of one sweep;
//! - an optional on-disk layer under `results/cache/`, so separate
//!   processes (e.g. two sweeps started at once) and repeated runs share
//!   work.
//!
//! Writers of one entry never coordinate beyond [`write_atomic`]'s
//! rename: threads or processes that miss the same key each compute it
//! and rename a complete file into place, so the worst case is duplicated
//! work, never a torn entry.
//!
//! Disk entries are FFB containers (see [`crate::codec`]): every file
//! carries a magic, the codec [`SCHEMA_VERSION`], a build tag derived
//! from the running binary, and a payload checksum, so an old or
//! corrupted cache can never poison a new binary's reports — mismatched
//! entries read as misses and `clear_cache` can purge them.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gpu_sim::Digest;
use instrument::Discovery;

use crate::analysis::Analysis;
use crate::codec;
use crate::records::{Stage1Result, Stage2Result, Stage3Result, Stage4Result};

pub use crate::codec::SCHEMA_VERSION;

/// Extension for on-disk artifacts; cache hygiene only ever touches
/// `*.art` files.
const EXT: &str = "art";

/// File-name prefix of [`write_atomic`]'s temp files.
const TMP_PREFIX: &str = ".tmp-";

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Content-address of a stage output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageKey(pub u128);

impl StageKey {
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// 128-bit FNV-style hasher used to build [`StageKey`]s.
///
/// Two independent 64-bit FNV-1a lanes with distinct offset bases; the
/// second lane additionally whitens each byte so the lanes cannot cancel.
/// Not cryptographic — collision resistance here only has to beat
/// accidental config collisions, and any collision is between configs the
/// operator chose, not adversarial input.
pub struct KeyHasher {
    a: u64,
    b: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl KeyHasher {
    /// Start a key with a domain-separating label (e.g. the stage name).
    pub fn new(label: &str) -> Self {
        let mut h = KeyHasher { a: FNV_OFFSET, b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15 };
        h.push_bytes(label.as_bytes());
        h.push_u32(SCHEMA_VERSION);
        h
    }

    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a ^= byte as u64;
            self.a = self.a.wrapping_mul(FNV_PRIME);
            self.b ^= (byte ^ 0xa5) as u64;
            self.b = self.b.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn push_u32(&mut self, v: u32) {
        self.push_bytes(&v.to_le_bytes());
    }

    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Length-prefixed so `("ab","c")` and `("a","bc")` hash differently.
    pub fn push_str(&mut self, s: &str) {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes());
    }

    /// Fold an upstream stage key into this one.
    pub fn push_key(&mut self, key: StageKey) {
        self.push_bytes(&key.0.to_le_bytes());
    }

    pub fn finish(&self) -> StageKey {
        StageKey(((self.a as u128) << 64) | self.b as u128)
    }
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// A memoized stage output. Payloads are `Arc`-shared so a cache hit
/// costs a pointer copy, not a deep clone.
#[derive(Debug, Clone)]
pub enum Artifact {
    Discovery(Arc<Discovery>),
    Stage1(Arc<Stage1Result>),
    Stage2(Arc<Stage2Result>),
    Stage3(Arc<Stage3Result>),
    Stage4(Arc<Stage4Result>),
    /// Analysis results are memory-only: they are cheap to recompute
    /// relative to their serialized size and sit at the bottom of the DAG.
    Analysis(Arc<Analysis>),
}

/// Discriminant used for disk filenames and header tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    Discovery,
    Stage1,
    Stage2,
    Stage3,
    Stage4,
    Analysis,
}

impl ArtifactKind {
    pub fn tag(&self) -> &'static str {
        match self {
            ArtifactKind::Discovery => "discovery",
            ArtifactKind::Stage1 => "stage1",
            ArtifactKind::Stage2 => "stage2",
            ArtifactKind::Stage3 => "stage3",
            ArtifactKind::Stage4 => "stage4",
            ArtifactKind::Analysis => "analysis",
        }
    }

    /// Whether artifacts of this kind stay out of the disk layer (no
    /// entry, no probe): the one place that decides it.
    pub(crate) fn memory_only(&self) -> bool {
        matches!(self, ArtifactKind::Analysis)
    }

    pub(crate) fn byte(&self) -> u8 {
        match self {
            ArtifactKind::Discovery => 0,
            ArtifactKind::Stage1 => 1,
            ArtifactKind::Stage2 => 2,
            ArtifactKind::Stage3 => 3,
            ArtifactKind::Stage4 => 4,
            ArtifactKind::Analysis => 5,
        }
    }
}

impl Artifact {
    pub fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Discovery(_) => ArtifactKind::Discovery,
            Artifact::Stage1(_) => ArtifactKind::Stage1,
            Artifact::Stage2(_) => ArtifactKind::Stage2,
            Artifact::Stage3(_) => ArtifactKind::Stage3,
            Artifact::Stage4(_) => ArtifactKind::Stage4,
            Artifact::Analysis(_) => ArtifactKind::Analysis,
        }
    }
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// Cache hit/miss counters, snapshot via [`ArtifactStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub mem_hits: u64,
    pub disk_hits: u64,
    pub misses: u64,
    pub puts: u64,
}

impl StoreStats {
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Hit rate over all lookups; 0.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// Memoizes stage outputs by [`StageKey`].
pub struct ArtifactStore {
    mem: Mutex<HashMap<StageKey, Artifact>>,
    disk: Option<PathBuf>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
}

impl ArtifactStore {
    /// Memory-only store (one process, one sweep).
    pub fn in_memory() -> Self {
        ArtifactStore {
            mem: Mutex::new(HashMap::new()),
            disk: None,
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        }
    }

    /// Store backed by a directory (created on first write). Processes
    /// pointed at the same directory share work.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        let mut s = ArtifactStore::in_memory();
        s.disk = Some(dir.into());
        s
    }

    /// The disk layer for `kind`: `None` without one, and for
    /// memory-only kinds.
    fn disk_for(&self, kind: ArtifactKind) -> Option<&Path> {
        self.disk.as_deref().filter(|_| !kind.memory_only())
    }

    /// Look up an artifact. Checks memory first, then disk (promoting a
    /// disk hit into memory). A corrupt or version-mismatched disk entry
    /// reads as a miss.
    pub fn get(&self, key: StageKey, kind: ArtifactKind) -> Option<Artifact> {
        if let Some(a) = self.mem.lock().unwrap().get(&key) {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Some(a.clone());
        }
        if let Some(dir) = self.disk_for(kind) {
            if let Some(a) = read_entry(&entry_path(dir, key, kind), kind) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.mem.lock().unwrap().insert(key, a.clone());
                return Some(a);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert an artifact. Writes through to disk (atomically, so racing
    /// writers of one key are safe) except for memory-only kinds.
    pub fn put(&self, key: StageKey, artifact: Artifact) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        if let Some(dir) = self.disk_for(artifact.kind()) {
            // Encode before touching the filesystem: a kind without an
            // encoding leaves nothing behind.
            if let Some(bytes) = codec::encode_artifact(&artifact) {
                let path = entry_path(dir, key, artifact.kind());
                if let Err(e) = write_atomic(&path, |w| w.write_all(&bytes)) {
                    crate::log_warn!("cache write failed: {e}");
                }
            }
        }
        self.mem.lock().unwrap().insert(key, artifact);
    }

    pub fn stats(&self) -> StoreStats {
        StoreStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
        }
    }
}

fn entry_path(dir: &Path, key: StageKey, kind: ArtifactKind) -> PathBuf {
    dir.join(format!("{}-{}.{EXT}", kind.tag(), key.hex()))
}

/// Tag identifying the producing binary, folded into every disk entry's
/// header. Derived from a digest of the executable image, so a rebuilt
/// binary (whose stage semantics may have changed in ways the schema
/// version does not capture) never trusts an old cache.
pub fn build_tag() -> u64 {
    static TAG: OnceLock<u64> = OnceLock::new();
    *TAG.get_or_init(|| {
        std::env::current_exe()
            .ok()
            .and_then(|p| std::fs::read(p).ok())
            .map(|bytes| Digest::of(&bytes).0 as u64)
            .unwrap_or(0)
    })
}

/// Sibling temp-file path for an atomic write to `path`. The pid keeps
/// rival processes apart, the sequence number concurrent writers in this
/// one (two sweep cells or serve executors can miss the same key). The
/// name ends in `path`'s own, so a cache entry's temp file still ends in
/// `.art`; [`cache_files`] tells it apart by [`TMP_PREFIX`].
fn tmp_sibling(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!("{TMP_PREFIX}{}-{seq}-{name}", std::process::id()))
}

/// Write `path` atomically: `fill` writes a sibling temp file, which is
/// then renamed into place, creating the parent directory if needed.
/// Readers see the old file or the new one, never a torn one; writers of
/// one path, threads or processes, each rename a complete file and the
/// last one wins. A failed write removes its temp file; a crash
/// mid-write leaves at worst an orphaned `.tmp-*` file, which
/// [`clear_cache`] sweeps from a cache directory.
pub fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let tmp = tmp_sibling(path);
    let result = (|| {
        let file =
            File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        let mut w = BufWriter::new(file);
        fill(&mut w)
            .and_then(|()| w.flush())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("cannot move {} into {}: {e}", tmp.display(), path.display()))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Read one disk entry. Absence is an ordinary miss; anything else wrong
/// with the entry is reported through [`crate::log`] — a corrupt file
/// should never be silently indistinguishable from a cold cache. The
/// header is validated before the payload is touched, so a stale or
/// mangled entry costs one 33-byte read, not a full decode, and the
/// payload lands in a pooled ingest buffer instead of a fresh allocation.
fn read_entry(path: &Path, kind: ArtifactKind) -> Option<Artifact> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut header = [0u8; codec::HEADER_LEN];
    if let Err(e) = file.read_exact(&mut header) {
        crate::log_warn!(
            "corrupt cache entry {} (truncated: {e}); treating as a miss",
            path.display()
        );
        return None;
    }
    match codec::check_entry_header(&header) {
        Ok(()) => {}
        Err(codec::HeaderIssue::Stale(why)) => {
            // Expected after rebuilds or schema bumps — debug, not warn.
            crate::log_debug!("stale cache entry {} ({why}); treating as a miss", path.display());
            return None;
        }
        Err(codec::HeaderIssue::Corrupt(why)) => {
            crate::log_warn!("corrupt cache entry {} ({why}); treating as a miss", path.display());
            return None;
        }
    }
    let mut buf = crate::iobuf::acquire();
    buf.extend_from_slice(&header);
    if let Err(e) = file.read_to_end(&mut buf) {
        crate::log_warn!(
            "corrupt cache entry {} (read failed: {e}); treating as a miss",
            path.display()
        );
        return None;
    }
    match codec::decode_artifact(&buf, kind) {
        Ok(a) => Some(a),
        Err(e) => {
            crate::log_warn!("corrupt cache entry {} ({e}); treating as a miss", path.display());
            None
        }
    }
}

/// Check an entry's header without reading its payload.
fn entry_header_is_current(path: &Path) -> bool {
    let mut header = [0u8; codec::HEADER_LEN];
    let Ok(mut f) = std::fs::File::open(path) else { return false };
    f.read_exact(&mut header).is_ok() && codec::header_is_current(&header)
}

// ---------------------------------------------------------------------------
// Cache hygiene
// ---------------------------------------------------------------------------

/// What `diogenes cache` reports: current vs stale entries in a cache
/// directory. Stale = written by a different schema version or binary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    pub entries: usize,
    pub bytes: u64,
    pub stale_entries: usize,
    pub stale_bytes: u64,
}

/// The `*.art` files in a cache directory, split into entries (sorted)
/// and the temp files of writes that never reached their rename.
fn cache_files(dir: &Path) -> std::io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
    let (mut entries, mut temps) = (Vec::new(), Vec::new());
    if !dir.exists() {
        return Ok((entries, temps));
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if !path.is_file() || path.extension().and_then(|e| e.to_str()) != Some(EXT) {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if name.starts_with(TMP_PREFIX) {
            temps.push(path);
        } else {
            entries.push(path);
        }
    }
    entries.sort();
    Ok((entries, temps))
}

/// Inventory a cache directory without modifying it. A missing directory
/// reads as empty. Only `*.art` entries are considered; temp files are
/// not entries.
pub fn scan_cache(dir: &Path) -> std::io::Result<CacheReport> {
    let mut report = CacheReport::default();
    for path in cache_files(dir)?.0 {
        let len = std::fs::metadata(&path)?.len();
        let current = entry_header_is_current(&path);
        report.entries += 1;
        report.bytes += len;
        if !current {
            report.stale_entries += 1;
            report.stale_bytes += len;
        }
    }
    Ok(report)
}

/// Delete cache entries; returns what was removed. With `stale_only`,
/// keeps entries the current binary can still read. Temp files left by
/// writers killed before their rename are removed in either mode (the
/// store never reads them; this is disk hygiene) — they are not counted
/// as entries.
pub fn clear_cache(dir: &Path, stale_only: bool) -> std::io::Result<CacheReport> {
    let mut removed = CacheReport::default();
    let (entries, temps) = cache_files(dir)?;
    for path in temps {
        let _ = std::fs::remove_file(&path);
    }
    for path in entries {
        let len = std::fs::metadata(&path)?.len();
        let current = entry_header_is_current(&path);
        if stale_only && current {
            continue;
        }
        std::fs::remove_file(&path)?;
        removed.entries += 1;
        removed.bytes += len;
        if !current {
            removed.stale_entries += 1;
            removed.stale_bytes += len;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    use cuda_driver::ApiFn;
    use gpu_sim::{Direction, Frame, SourceLoc, StackTrace, WaitReason};

    use crate::records::{DuplicateTransfer, OpInstance, ProtectedAccess, TracedCall, TransferRec};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "diogenes-store-test-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_loc(line: u32) -> SourceLoc {
        SourceLoc::new("als.cpp", line)
    }

    fn sample_stage2() -> Stage2Result {
        Stage2Result {
            exec_time_ns: 123_456,
            calls: vec![TracedCall {
                seq: 0,
                api: ApiFn::CudaMemcpy,
                site: sample_loc(856),
                stack: StackTrace {
                    frames: vec![
                        Frame::new("main", sample_loc(1)),
                        Frame::new("thrust::copy<float>", sample_loc(856)),
                    ],
                },
                sig: 0xdead_beef,
                folded_sig: 0xfeed_face,
                occ: 3,
                enter_ns: 10,
                exit_ns: 90,
                wait_ns: 40,
                wait_reason: Some(WaitReason::Implicit),
                transfer: Some(TransferRec {
                    dir: Direction::DtoH,
                    bytes: 4096,
                    host: 0x1000,
                    dev: 0x2000,
                    pinned: false,
                    is_async: true,
                }),
                is_launch: false,
            }],
        }
    }

    fn sample_stage3() -> Stage3Result {
        Stage3Result {
            required_syncs: [OpInstance { sig: 1, occ: 0 }].into_iter().collect(),
            observed_syncs: [OpInstance { sig: 1, occ: 0 }, OpInstance { sig: 2, occ: 1 }]
                .into_iter()
                .collect(),
            accesses: vec![ProtectedAccess {
                sync: OpInstance { sig: 1, occ: 0 },
                access_site: sample_loc(901),
                rough_gap_ns: 77,
            }],
            duplicates: vec![DuplicateTransfer {
                op: OpInstance { sig: 9, occ: 2 },
                site: sample_loc(10),
                first_site: sample_loc(5),
                bytes: 1 << 20,
                digest: Digest(0x1234_5678_9abc_def0_1122_3344_5566_7788),
            }],
            first_use_sites: [sample_loc(901), sample_loc(905)].into_iter().collect(),
            hashed_bytes: 1 << 21,
            exec_time_sync_ns: 1000,
            exec_time_hash_ns: 2000,
            exec_time_ns: 3000,
        }
    }

    #[test]
    fn memory_store_hits_and_stats() {
        let store = ArtifactStore::in_memory();
        let key = StageKey(42);
        assert!(store.get(key, ArtifactKind::Stage1).is_none());
        store.put(
            key,
            Artifact::Stage1(Arc::new(Stage1Result {
                exec_time_ns: 1,
                sync_apis: HashMap::new(),
                total_wait_ns: 0,
                sync_hits: 0,
            })),
        );
        assert!(store.get(key, ArtifactKind::Stage1).is_some());
        let stats = store.stats();
        assert_eq!(stats.mem_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.puts, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disk_store_roundtrips_and_survives_memory_loss() {
        let dir = temp_dir("disk");
        let key = StageKey(7);
        {
            let store = ArtifactStore::with_disk(&dir);
            store.put(key, Artifact::Stage3(Arc::new(sample_stage3())));
        }
        // Fresh store, same dir: memory is gone, disk must serve the hit.
        let store = ArtifactStore::with_disk(&dir);
        let got = store.get(key, ArtifactKind::Stage3).expect("disk hit");
        match got {
            Artifact::Stage3(s) => assert_eq!(s.exec_time_ns, 3000),
            other => panic!("wrong kind {:?}", other.kind()),
        }
        assert_eq!(store.stats().disk_hits, 1);
        // Second get is served from memory (promotion).
        store.get(key, ArtifactKind::Stage3).expect("promoted");
        assert_eq!(store.stats().mem_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn empty_analysis() -> Analysis {
        Analysis {
            graph: crate::graph::ExecGraph {
                nodes: Vec::new(),
                exec_time_ns: 0,
                baseline_exec_ns: 0,
            },
            benefit: crate::benefit::BenefitReport {
                per_node: Vec::new(),
                total_ns: 0,
                predicted_exec_ns: 0,
            },
            problems: Vec::new(),
            single_point: Vec::new(),
            api_folds: Vec::new(),
            sequences: Vec::new(),
            by_api: Vec::new(),
            baseline_exec_ns: 0,
        }
    }

    #[test]
    fn analysis_artifacts_stay_out_of_the_disk_layer() {
        let dir = temp_dir("analysis");
        let store = ArtifactStore::with_disk(&dir);
        store.put(StageKey(1), Artifact::Analysis(Arc::new(empty_analysis())));
        assert_eq!(scan_cache(&dir).unwrap().entries, 0, "no disk entry for analysis");
        let files = std::fs::read_dir(&dir).map(|rd| rd.count()).unwrap_or(0);
        assert_eq!(files, 0, "no temp or entry file in the cache directory");
        assert!(store.get(StageKey(1), ArtifactKind::Analysis).is_some(), "memory hit works");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_entries_read_as_misses_and_are_clearable() {
        let dir = temp_dir("stale");
        let store = ArtifactStore::with_disk(&dir);
        let key = StageKey(9);
        store.put(
            key,
            Artifact::Stage1(Arc::new(Stage1Result {
                exec_time_ns: 5,
                sync_apis: HashMap::new(),
                total_wait_ns: 0,
                sync_hits: 0,
            })),
        );
        // Corrupt the entry's build tag (bytes 12..20 of the header).
        let path = entry_path(&dir, key, ArtifactKind::Stage1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let fresh = ArtifactStore::with_disk(&dir);
        assert!(fresh.get(key, ArtifactKind::Stage1).is_none(), "stale entry is a miss");

        let report = scan_cache(&dir).unwrap();
        assert_eq!(report.entries, 1);
        assert_eq!(report.stale_entries, 1);
        assert!(report.bytes > 0);

        // stale_only clear removes it; a current entry would survive.
        let removed = clear_cache(&dir, true).unwrap();
        assert_eq!(removed.entries, 1);
        assert_eq!(scan_cache(&dir).unwrap().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_all_removes_current_entries_too() {
        let dir = temp_dir("clearall");
        let store = ArtifactStore::with_disk(&dir);
        store.put(StageKey(1), Artifact::Stage4(Arc::new(Stage4Result::default())));
        store.put(StageKey(2), Artifact::Stage4(Arc::new(Stage4Result::default())));
        assert_eq!(scan_cache(&dir).unwrap().entries, 2);
        let removed = clear_cache(&dir, false).unwrap();
        assert_eq!(removed.entries, 2);
        assert_eq!(removed.stale_entries, 0);
        assert_eq!(scan_cache(&dir).unwrap().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_of_missing_dir_is_empty() {
        let dir = temp_dir("missing");
        let report = scan_cache(&dir).unwrap();
        assert_eq!(report, CacheReport::default());
    }

    #[test]
    fn key_hasher_separates_labels_fields_and_order() {
        let mut a = KeyHasher::new("stage1");
        a.push_u64(5);
        let mut b = KeyHasher::new("stage2");
        b.push_u64(5);
        assert_ne!(a.finish(), b.finish(), "label is domain-separating");

        let mut c = KeyHasher::new("x");
        c.push_str("ab");
        c.push_str("c");
        let mut d = KeyHasher::new("x");
        d.push_str("a");
        d.push_str("bc");
        assert_ne!(c.finish(), d.finish(), "length prefix prevents aliasing");

        let mut e = KeyHasher::new("x");
        e.push_u64(1);
        e.push_u64(2);
        let mut f = KeyHasher::new("x");
        f.push_u64(2);
        f.push_u64(1);
        assert_ne!(e.finish(), f.finish(), "order matters");
    }

    #[test]
    fn interner_dedups() {
        let a = crate::intern::intern("some-file.cpp");
        let b = crate::intern::intern("some-file.cpp");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.resolve(), b.resolve()));
    }

    fn temp_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(TMP_PREFIX))
            .collect()
    }

    #[test]
    fn temp_paths_for_one_entry_differ() {
        let path = entry_path(Path::new("cache"), StageKey(3), ArtifactKind::Stage2);
        let (a, b) = (tmp_sibling(&path), tmp_sibling(&path));
        assert_ne!(a, b, "two writers of one entry must not share a temp file");
        assert_eq!(a.parent(), path.parent(), "temp files are siblings, so rename is atomic");
    }

    #[test]
    fn concurrent_puts_of_one_key_leave_one_valid_entry() {
        let dir = temp_dir("race");
        let key = StageKey(0x7ace);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let store = ArtifactStore::with_disk(&dir);
                    for _ in 0..25 {
                        store.put(key, Artifact::Stage2(Arc::new(sample_stage2())));
                    }
                });
            }
        });
        let fresh = ArtifactStore::with_disk(&dir);
        match fresh.get(key, ArtifactKind::Stage2) {
            Some(Artifact::Stage2(s)) => {
                assert_eq!(
                    (s.exec_time_ns, s.calls.len(), s.calls[0].sig),
                    (123_456, 1, 0xdead_beef)
                )
            }
            other => panic!("expected a valid stage2 entry, got {:?}", other.map(|a| a.kind())),
        }
        assert_eq!(fresh.stats().disk_hits, 1);
        assert!(temp_files(&dir).is_empty(), "temp files left behind: {:?}", temp_files(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_temp_writes_are_not_entries_and_are_cleared() {
        let dir = temp_dir("leftover");
        let store = ArtifactStore::with_disk(&dir);
        let key = StageKey(0x1eff);
        store.put(key, Artifact::Stage4(Arc::new(Stage4Result::default())));
        // A writer killed between create and rename leaves a complete,
        // current temp file whose name still ends in `.art`.
        let entry = entry_path(&dir, key, ArtifactKind::Stage4);
        let leftover = tmp_sibling(&entry);
        std::fs::copy(&entry, &leftover).unwrap();
        assert_eq!(scan_cache(&dir).unwrap().entries, 1, "a temp file is not an entry");
        let removed = clear_cache(&dir, true).unwrap();
        assert_eq!(removed, CacheReport::default(), "no entry was stale");
        assert!(!leftover.exists(), "--clear-stale removes leftover temp files");
        assert!(entry.exists(), "the current entry survives");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
