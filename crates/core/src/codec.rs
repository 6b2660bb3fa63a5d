//! FFB — the shared binary artifact codec and container format.
//!
//! Every machine-path artifact in the workspace (stage-cache entries,
//! binary sweep shards, `--format bin` exports) is an **FFB** file: a
//! versioned little-endian container whose sections follow the same
//! interned-`Sym`/columnar layout the in-memory analysis core uses. JSON
//! remains the human-facing export; FFB is what other runs and tools
//! ingest.
//!
//! One writer, one reader: [`encode_artifact`], [`encode_doc`] and
//! [`encode_sweep`] assemble the whole container in memory through
//! [`FfbBuilder`] (callers write it with one `write_all`), and
//! [`Ffb::parse`] validates a container once before the owned decoders
//! ([`decode_artifact`], [`decode_doc`], [`decode_sweep`]) copy it into
//! owned values.
//!
//! Container layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "DIOGFFB1"
//! 8       4     SCHEMA_VERSION (u32)
//! 12      8     build tag (u64; digest of the producing binary)
//! 20      8     checksum (u64; over every byte from offset 28 on)
//! 28      1     kind byte (artifact kind, KIND_DOC, or KIND_SWEEP)
//! 29      4     section count (u32, at most MAX_SECTIONS)
//! 33      12×n  section table: (id u32, length u64) per section
//! ...           section payloads, back to back in table order
//! ```
//!
//! Strings never appear inline in records. Each container carries one
//! string-table section ([`SEC_STRINGS`]); records refer to strings by
//! dense `u32` table ids, and a reader interns each table entry exactly
//! once per *file* (not once per record) into the global symbol table
//! (`crate::intern`), after which every per-record string resolve is an
//! index into an already-loaded `Vec<Sym>`.
//!
//! Integrity: [`Ffb::parse`] verifies magic, schema version, section
//! bounds, and the checksum, so any single-byte corruption of a stored
//! file is rejected as an error — decoding never panics on hostile
//! bytes. The build tag is *not* checked by `parse` (so `diogenes
//! convert` can read files from other builds); the artifact-cache path
//! ([`decode_artifact`]) does check it, preserving the store's rule that
//! a rebuilt binary never trusts an old cache.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use cuda_driver::{ApiFn, InternalFn};
use gpu_sim::{Digest, Direction, Frame, SourceLoc, StackTrace, WaitReason};
use instrument::Discovery;

use crate::intern::{intern, intern_static, Sym};
use crate::json::Json;
use crate::records::{
    DuplicateTransfer, OpInstance, ProtectedAccess, Stage1Result, Stage2Result, Stage3Result,
    Stage4Result, TracedCall, TransferRec,
};
use crate::store::{build_tag, Artifact, ArtifactKind};
use crate::sweep::{Axis, AxisLayout, Shard, SweepCell, SweepMatrix, SweepSummary};

/// Bump whenever the binary codec or the keying rules change; old disk
/// entries become stale and are ignored.
pub const SCHEMA_VERSION: u32 = 2;

/// File magic for FFB containers ("DIOGenes Feed-Forward Binary v1").
pub const FFB_MAGIC: &[u8; 8] = b"DIOGFFB1";

/// Container kind byte for a generic JSON document (reports, telemetry).
pub const KIND_DOC: u8 = 16;

/// Container kind byte for a typed columnar sweep matrix.
pub const KIND_SWEEP: u8 = 17;

/// Section id: the string table (one per container).
pub const SEC_STRINGS: u32 = 1;

/// Section id: artifact record payload.
pub const SEC_RECORDS: u32 = 2;

/// Section id: generic JSON document tree.
pub const SEC_DOC: u32 = 3;

/// Section id: sweep header (app, workload, layout, shard, axes).
pub const SEC_SWEEP_HEADER: u32 = 4;

/// Section id: sweep cells, one column per field.
pub const SEC_SWEEP_CELLS: u32 = 5;

/// Containers hold a handful of sections; the cap keeps [`Ffb::parse`]
/// allocation-free (the section table lives in a fixed array).
pub const MAX_SECTIONS: usize = 8;

/// Fixed header length in bytes (magic + version + build tag + checksum
/// + kind + section count); the section table follows immediately.
///
/// Public so the store can fail-fast-validate a header prefix before
/// reading an entry's payload.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 1 + 4;
const CHECKSUM_AT: usize = 20;
const KIND_AT: usize = 28;

/// Does `bytes` start with the FFB magic? Used by readers that accept
/// either JSON text or a binary container and sniff which they got.
pub fn is_ffb(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..8] == FFB_MAGIC
}

/// Cheap header currency check for cache hygiene: magic, schema version
/// and build tag match the running binary. Does not touch the payload
/// (no checksum walk), so `scan_cache` stays O(header) per file.
pub fn header_is_current(bytes: &[u8]) -> bool {
    check_entry_header(bytes).is_ok()
}

/// Why [`check_entry_header`] rejected a cache entry's header.
#[derive(Debug)]
pub enum HeaderIssue {
    /// Another schema version or another build wrote it — routine
    /// staleness after a rebuild, not a sign of damage.
    Stale(String),
    /// Structurally impossible (short, wrong magic): bit rot or a
    /// foreign file sitting in the cache directory.
    Corrupt(String),
}

/// Fail-fast validation of a cache entry's fixed header prefix —
/// length, magic, schema version, build tag — before any payload byte
/// is read. Lets `store::read_entry` classify (and log) bad entries
/// without paying a full-file read for data it will discard, and keeps
/// `scan_cache` O(header) per file.
pub fn check_entry_header(header: &[u8]) -> Result<(), HeaderIssue> {
    if header.len() < HEADER_LEN {
        return Err(HeaderIssue::Corrupt(format!("truncated header ({} bytes)", header.len())));
    }
    if &header[..8] != FFB_MAGIC {
        return Err(HeaderIssue::Corrupt("bad magic".to_string()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != SCHEMA_VERSION {
        return Err(HeaderIssue::Stale(format!(
            "schema version {version}, expected {SCHEMA_VERSION}"
        )));
    }
    let tag = u64::from_le_bytes(header[12..CHECKSUM_AT].try_into().unwrap());
    if tag != build_tag() {
        return Err(HeaderIssue::Stale("written by a different build".to_string()));
    }
    Ok(())
}

const CHECKSUM_PRIME: u64 = 0xff51_afd7_ed55_8ccd;
const CHECKSUM_INIT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word-at-a-time mixing checksum over the covered bytes. Every step is
/// a bijection of the running state for a fixed input suffix, so any
/// single-word (hence single-byte) change is *guaranteed* to change the
/// result — exactly the corruption class disk rot and truncated writes
/// produce. The covered length is folded into the seed and a trailing
/// partial word is zero-padded. Files written by earlier builds must
/// keep parsing, so the value is pinned by a unit test.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = CHECKSUM_INIT ^ (bytes.len() as u64).wrapping_mul(CHECKSUM_PRIME);
    let chunks = bytes.chunks_exact(8);
    let rem = chunks.remainder();
    let mut tail = [0u8; 8];
    tail[..rem.len()].copy_from_slice(rem);
    let padded = (!rem.is_empty()).then_some(tail);
    for word in chunks.map(|c| <[u8; 8]>::try_from(c).unwrap()).chain(padded) {
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(CHECKSUM_PRIME);
        h ^= h >> 29;
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

// ---------------------------------------------------------------------------
// Container writer / reader
// ---------------------------------------------------------------------------

/// Assembles an FFB container: append sections, then [`finish`].
///
/// [`finish`]: FfbBuilder::finish
pub struct FfbBuilder {
    kind: u8,
    sections: Vec<(u32, Vec<u8>)>,
}

impl FfbBuilder {
    pub fn new(kind: u8) -> Self {
        FfbBuilder { kind, sections: Vec::new() }
    }

    pub fn section(&mut self, id: u32, payload: Vec<u8>) {
        assert!(self.sections.len() < MAX_SECTIONS, "too many FFB sections");
        self.sections.push((id, payload));
    }

    /// Serialize header + section table + payloads and stamp the checksum.
    pub fn finish(self) -> Vec<u8> {
        let body: usize = self.sections.iter().map(|(_, p)| p.len()).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + 12 * self.sections.len() + body);
        out.extend_from_slice(FFB_MAGIC);
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&build_tag().to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // checksum placeholder
        out.push(self.kind);
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (id, payload) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        let ck = checksum(&out[KIND_AT..]);
        out[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&ck.to_le_bytes());
        out
    }
}

/// A parsed (but not decoded) FFB container over a caller-owned buffer —
/// a file read, a cache entry, or a request body. One [`Ffb::parse`]
/// validates the header, checksum, and section bounds; after that,
/// section payloads, the interned string table ([`Ffb::strings_into`]),
/// and typed columns ([`Dec::col_u64`]) come straight out of the buffer.
/// Parsing allocates nothing — the section table is a fixed array — so
/// the [`Stage2Cols`] scratch reader stays allocation-free. No alignment
/// is assumed anywhere (see [`ColU64`]), so the buffer can start at any
/// offset.
pub struct Ffb<'a> {
    pub kind: u8,
    pub build_tag: u64,
    bytes: &'a [u8],
    count: usize,
    sections: [(u32, usize, usize); MAX_SECTIONS],
}

impl<'a> Ffb<'a> {
    /// Validate magic, schema version, checksum, and the section table.
    /// Every failure is an `Err`; hostile input can never panic past
    /// this point because all section slices are bounds-checked here.
    pub fn parse(bytes: &'a [u8]) -> Result<Ffb<'a>, String> {
        if bytes.len() < HEADER_LEN {
            return Err(format!("ffb: truncated header ({} bytes)", bytes.len()));
        }
        if &bytes[..8] != FFB_MAGIC {
            return Err("ffb: bad magic".to_string());
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SCHEMA_VERSION {
            return Err(format!("ffb: schema version {version}, expected {SCHEMA_VERSION}"));
        }
        let stored = u64::from_le_bytes(bytes[CHECKSUM_AT..CHECKSUM_AT + 8].try_into().unwrap());
        if stored != checksum(&bytes[KIND_AT..]) {
            return Err("ffb: checksum mismatch (corrupt file)".to_string());
        }
        let build = u64::from_le_bytes(bytes[12..CHECKSUM_AT].try_into().unwrap());
        let kind = bytes[KIND_AT];
        let count = u32::from_le_bytes(bytes[KIND_AT + 1..HEADER_LEN].try_into().unwrap()) as usize;
        if count > MAX_SECTIONS {
            return Err(format!("ffb: {count} sections exceeds the cap of {MAX_SECTIONS}"));
        }
        let table_end = HEADER_LEN + 12 * count;
        if table_end > bytes.len() {
            return Err("ffb: truncated section table".to_string());
        }
        let mut sections = [(0u32, 0usize, 0usize); MAX_SECTIONS];
        let mut offset = table_end;
        for (i, slot) in sections.iter_mut().enumerate().take(count) {
            let at = HEADER_LEN + 12 * i;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
            let len = usize::try_from(len).map_err(|_| "ffb: section length overflow")?;
            let end = offset.checked_add(len).filter(|&e| e <= bytes.len());
            let end = end.ok_or_else(|| format!("ffb: section {id} overruns the file"))?;
            *slot = (id, offset, len);
            offset = end;
        }
        if offset != bytes.len() {
            return Err(format!("ffb: {} trailing bytes after sections", bytes.len() - offset));
        }
        Ok(Ffb { kind, build_tag: build, bytes, count, sections })
    }

    /// Payload of the first section with `id`.
    pub fn section(&self, id: u32) -> Result<&'a [u8], String> {
        self.sections[..self.count]
            .iter()
            .find(|s| s.0 == id)
            .map(|&(_, start, len)| &self.bytes[start..start + len])
            .ok_or_else(|| format!("ffb: missing section {id}"))
    }

    /// `Err` unless the container carries `kind` (`what` names the
    /// expected kind in the message).
    pub fn expect_kind(&self, kind: u8, what: &str) -> Result<(), String> {
        if self.kind != kind {
            return Err(format!("not a {what} container (kind {})", self.kind));
        }
        Ok(())
    }

    /// Re-intern the container's string table into a reused [`StrTable`]
    /// — the zero-steady-state-allocation path: the `Sym` vector is
    /// refilled in place and interning an already-known string costs no
    /// heap (the interner's read-lock fast path).
    pub fn strings_into(&self, table: &mut StrTable) -> Result<(), String> {
        table.refill(self.section(SEC_STRINGS)?)
    }
}

/// A borrowed `u64` column over section bytes, validated once to be a
/// whole number of words. Elements are read as little-endian per access,
/// so the backing buffer needs no alignment.
#[derive(Clone, Copy)]
pub struct ColU64<'a>(&'a [u8]);

impl<'a> ColU64<'a> {
    pub fn new(bytes: &'a [u8]) -> Result<ColU64<'a>, String> {
        if !bytes.len().is_multiple_of(8) {
            return Err(format!("column of {} bytes is not whole words", bytes.len()));
        }
        Ok(ColU64(bytes))
    }

    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, i: usize) -> Option<u64> {
        let at = i.checked_mul(8)?;
        let b = self.0.get(at..at + 8)?;
        Some(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// `col[i]`; panics out of range, like a slice index — for loops
    /// already bounded by [`ColU64::len`].
    pub fn at(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.0[8 * i..8 * i + 8].try_into().unwrap())
    }

    pub fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        self.0.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()))
    }
}

// ---------------------------------------------------------------------------
// Primitive encoder / decoder
// ---------------------------------------------------------------------------
//
// Hand-rolled little-endian primitives (the workspace is std-only, no
// serde). Unordered collections are sorted on encode so the bytes are a
// function of the value, not of hash-map iteration order; decoded
// sets/maps are only ever consumed via membership tests and keyed
// lookups downstream (`problem::classify`), so re-hashing on decode
// cannot change reports.

/// Little-endian byte sink for section payloads.
#[derive(Default)]
pub struct Enc(pub Vec<u8>);

impl Enc {
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
    pub fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }
}

/// Bounds-checked little-endian cursor over a section payload. Every
/// method returns `Err` (never panics) on truncated or corrupt input.
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `Err` unless the cursor consumed the payload exactly.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!("{} trailing bytes in section", self.remaining()));
        }
        Ok(())
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| format!("artifact truncated at byte {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b:#04x}")),
        }
    }
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn u128(&mut self) -> Result<u128, String> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub fn seq_len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        // Any valid length is bounded by the remaining bytes (every
        // element costs at least one byte), which caps allocations on
        // corrupt input.
        let n = usize::try_from(n).map_err(|_| "length overflow".to_string())?;
        if n > self.remaining() {
            return Err(format!("implausible collection length {n}"));
        }
        Ok(n)
    }
    /// A `seq_len()` whose elements are fixed-width: also requires
    /// `n * elem_bytes` to fit in the remaining payload, so column reads
    /// can pre-slice before allocating.
    pub fn col_len(&mut self, elem_bytes: usize) -> Result<usize, String> {
        let n = self.seq_len()?;
        let total = n.checked_mul(elem_bytes).ok_or("column size overflow")?;
        if total > self.remaining() {
            return Err(format!("implausible column length {n}"));
        }
        Ok(n)
    }
    pub fn str(&mut self) -> Result<String, String> {
        Ok(self.str_ref()?.to_string())
    }
    /// Borrowed string view — lets the string table intern straight from
    /// the file bytes without an intermediate `String`.
    pub fn str_ref(&mut self) -> Result<&'a str, String> {
        let n = self.seq_len()?;
        let raw = self.take(n)?;
        std::str::from_utf8(raw).map_err(|_| "invalid utf-8 in artifact".to_string())
    }
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(format!("bad option tag {b:#04x}")),
        }
    }

    /// Take `n` 8-byte elements as a borrowed typed column.
    pub fn col_u64(&mut self, n: usize) -> Result<ColU64<'a>, String> {
        let total = n.checked_mul(8).ok_or("column size overflow")?;
        ColU64::new(self.take(total)?)
    }
}

// ---------------------------------------------------------------------------
// String table
// ---------------------------------------------------------------------------

/// Deduplicating writer for a container's string table. Strings are
/// mapped to dense local ids in first-reference order via the global
/// interner, with a `Sym`-indexed side table so repeat lookups are two
/// array reads — no hashing per record.
#[derive(Default)]
pub struct StrTableBuilder {
    /// `Sym::index() -> local id`, `u32::MAX` = not yet assigned.
    ids: Vec<u32>,
    order: Vec<Sym>,
}

impl StrTableBuilder {
    pub fn new() -> Self {
        StrTableBuilder::default()
    }

    pub fn add(&mut self, s: &str) -> u32 {
        self.add_sym(intern(s))
    }

    pub fn add_static(&mut self, s: &'static str) -> u32 {
        self.add_sym(intern_static(s))
    }

    pub fn add_sym(&mut self, sym: Sym) -> u32 {
        let idx = sym.index();
        if idx >= self.ids.len() {
            self.ids.resize(idx + 1, u32::MAX);
        }
        if self.ids[idx] == u32::MAX {
            self.ids[idx] = self.order.len() as u32;
            self.order.push(sym);
        }
        self.ids[idx]
    }

    /// Serialize as a [`SEC_STRINGS`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u32(self.order.len() as u32);
        for sym in &self.order {
            e.str(sym.resolve());
        }
        e.0
    }
}

/// A container's parsed string table: every entry interned exactly once
/// at parse time, so per-record resolution is one `Vec` index. Reusable
/// — [`Ffb::strings_into`] refills one in place, and refilling with
/// already-interned strings allocates nothing, which is what keeps the
/// [`Stage2Cols`] reader's steady state off the heap entirely.
#[derive(Default)]
pub struct StrTable {
    syms: Vec<Sym>,
}

impl StrTable {
    pub fn parse(section: &[u8]) -> Result<StrTable, String> {
        let mut t = StrTable::default();
        t.refill(section)?;
        Ok(t)
    }

    /// Clear and re-parse in place, keeping the vector's capacity.
    fn refill(&mut self, section: &[u8]) -> Result<(), String> {
        self.syms.clear();
        let mut d = Dec::new(section);
        let n = d.u32()? as usize;
        if n > d.remaining() {
            return Err(format!("implausible string table size {n}"));
        }
        self.syms.reserve(n);
        for _ in 0..n {
            self.syms.push(intern(d.str_ref()?));
        }
        d.finish()
    }

    pub fn sym(&self, id: u32) -> Result<Sym, String> {
        self.syms.get(id as usize).copied().ok_or_else(|| format!("bad string table id {id}"))
    }

    pub fn get(&self, id: u32) -> Result<&'static str, String> {
        Ok(self.sym(id)?.resolve())
    }
}

// ---------------------------------------------------------------------------
// Artifact payloads (stage-cache entries)
// ---------------------------------------------------------------------------

/// Encode a stage artifact as a complete FFB container. `None` for
/// kinds the codec has no encoding for (analysis).
pub fn encode_artifact(artifact: &Artifact) -> Option<Vec<u8>> {
    let mut st = StrTableBuilder::new();
    let mut e = Enc::default();
    match artifact {
        Artifact::Discovery(d) => enc_discovery(&mut e, d),
        Artifact::Stage1(s) => enc_stage1(&mut e, &mut st, s),
        Artifact::Stage2(s) => enc_stage2(&mut e, &mut st, s),
        Artifact::Stage3(s) => enc_stage3(&mut e, &mut st, s),
        Artifact::Stage4(s) => enc_stage4(&mut e, s),
        Artifact::Analysis(_) => return None,
    }
    let mut b = FfbBuilder::new(artifact.kind().byte());
    b.section(SEC_STRINGS, st.encode());
    b.section(SEC_RECORDS, e.0);
    Some(b.finish())
}

/// Decode a stage-cache container. Stricter than [`Ffb::parse`]: the
/// kind byte must match and the build tag must equal the running
/// binary's — an artifact cache is never shared across builds.
pub fn decode_artifact(bytes: &[u8], kind: ArtifactKind) -> Result<Artifact, String> {
    let ffb = Ffb::parse(bytes)?;
    if ffb.build_tag != build_tag() {
        return Err("artifact was written by a different build".to_string());
    }
    if ffb.kind != kind.byte() {
        return Err(format!("artifact kind byte {} is not {:?}", ffb.kind, kind));
    }
    let st = StrTable::parse(ffb.section(SEC_STRINGS)?)?;
    let mut d = Dec::new(ffb.section(SEC_RECORDS)?);
    let artifact = match kind {
        ArtifactKind::Discovery => Artifact::Discovery(Arc::new(dec_discovery(&mut d)?)),
        ArtifactKind::Stage1 => Artifact::Stage1(Arc::new(dec_stage1(&mut d, &st)?)),
        ArtifactKind::Stage2 => Artifact::Stage2(Arc::new(dec_stage2(&mut d, &st)?)),
        ArtifactKind::Stage3 => Artifact::Stage3(Arc::new(dec_stage3(&mut d, &st)?)),
        ArtifactKind::Stage4 => Artifact::Stage4(Arc::new(dec_stage4(&mut d)?)),
        ArtifactKind::Analysis => return Err("analysis artifacts are memory-only".to_string()),
    };
    d.finish()?;
    Ok(artifact)
}

fn internal_fn_index(f: InternalFn) -> u8 {
    InternalFn::all().iter().position(|&g| g == f).expect("InternalFn::all is exhaustive") as u8
}

fn internal_fn_from_index(i: u8) -> Result<InternalFn, String> {
    InternalFn::all().get(i as usize).copied().ok_or_else(|| format!("bad InternalFn index {i}"))
}

fn enc_api(e: &mut Enc, st: &mut StrTableBuilder, api: ApiFn) {
    e.u32(st.add_static(api.name()));
}

fn dec_api(d: &mut Dec<'_>, st: &StrTable) -> Result<ApiFn, String> {
    let name = st.get(d.u32()?)?;
    ApiFn::from_name(name).ok_or_else(|| format!("unknown ApiFn '{name}'"))
}

fn enc_wait_reason(e: &mut Enc, r: WaitReason) {
    e.u8(match r {
        WaitReason::Explicit => 0,
        WaitReason::Implicit => 1,
        WaitReason::Conditional => 2,
        WaitReason::Private => 3,
    });
}

fn dec_wait_reason(d: &mut Dec<'_>) -> Result<WaitReason, String> {
    Ok(match d.u8()? {
        0 => WaitReason::Explicit,
        1 => WaitReason::Implicit,
        2 => WaitReason::Conditional,
        3 => WaitReason::Private,
        b => return Err(format!("bad WaitReason byte {b:#04x}")),
    })
}

fn enc_direction(e: &mut Enc, dir: Direction) {
    e.u8(match dir {
        Direction::HtoD => 0,
        Direction::DtoH => 1,
        Direction::DtoD => 2,
    });
}

fn dec_direction(d: &mut Dec<'_>) -> Result<Direction, String> {
    Ok(match d.u8()? {
        0 => Direction::HtoD,
        1 => Direction::DtoH,
        2 => Direction::DtoD,
        b => return Err(format!("bad Direction byte {b:#04x}")),
    })
}

fn enc_loc(e: &mut Enc, st: &mut StrTableBuilder, loc: &SourceLoc) {
    e.u32(st.add_static(loc.file));
    e.u32(loc.line);
}

fn dec_loc(d: &mut Dec<'_>, st: &StrTable) -> Result<SourceLoc, String> {
    // `SourceLoc.file` is `&'static str`; table entries were interned at
    // parse time (`crate::intern`), so artifacts loaded from disk share
    // one address space with live traces — and with the analysis layer's
    // interned site labels — at zero per-record cost.
    let file = st.get(d.u32()?)?;
    let line = d.u32()?;
    Ok(SourceLoc { file, line })
}

fn enc_op(e: &mut Enc, op: &OpInstance) {
    e.u64(op.sig);
    e.u64(op.occ);
}

fn dec_op(d: &mut Dec<'_>) -> Result<OpInstance, String> {
    Ok(OpInstance { sig: d.u64()?, occ: d.u64()? })
}

fn enc_stack(e: &mut Enc, st: &mut StrTableBuilder, stack: &StackTrace) {
    e.u64(stack.frames.len() as u64);
    for frame in &stack.frames {
        e.u32(st.add(&frame.function));
        enc_loc(e, st, &frame.callsite);
    }
}

fn dec_stack(d: &mut Dec<'_>, st: &StrTable) -> Result<StackTrace, String> {
    let n = d.seq_len()?;
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        // `Frame.function` is a Cow, so borrowing the interned text
        // avoids a per-frame String.
        let function = st.get(d.u32()?)?;
        let callsite = dec_loc(d, st)?;
        frames.push(Frame::new(function, callsite));
    }
    Ok(StackTrace { frames })
}

fn enc_discovery(e: &mut Enc, disc: &Discovery) {
    e.u8(internal_fn_index(disc.sync_fn));
    let mut waits: Vec<(InternalFn, u64)> = disc.waits.iter().map(|(&f, &ns)| (f, ns)).collect();
    waits.sort();
    e.u64(waits.len() as u64);
    for (f, ns) in waits {
        e.u8(internal_fn_index(f));
        e.u64(ns);
    }
}

fn dec_discovery(d: &mut Dec<'_>) -> Result<Discovery, String> {
    let sync_fn = internal_fn_from_index(d.u8()?)?;
    let n = d.seq_len()?;
    let mut waits = HashMap::with_capacity(n);
    for _ in 0..n {
        let f = internal_fn_from_index(d.u8()?)?;
        let ns = d.u64()?;
        waits.insert(f, ns);
    }
    Ok(Discovery { sync_fn, waits })
}

fn enc_stage1(e: &mut Enc, st: &mut StrTableBuilder, s: &Stage1Result) {
    e.u64(s.exec_time_ns);
    e.u64(s.total_wait_ns);
    e.u64(s.sync_hits);
    let mut apis: Vec<(ApiFn, u64)> = s.sync_apis.iter().map(|(&a, &n)| (a, n)).collect();
    apis.sort();
    e.u64(apis.len() as u64);
    for (api, hits) in apis {
        enc_api(e, st, api);
        e.u64(hits);
    }
}

fn dec_stage1(d: &mut Dec<'_>, st: &StrTable) -> Result<Stage1Result, String> {
    let exec_time_ns = d.u64()?;
    let total_wait_ns = d.u64()?;
    let sync_hits = d.u64()?;
    let n = d.seq_len()?;
    let mut sync_apis = HashMap::with_capacity(n);
    for _ in 0..n {
        let api = dec_api(d, st)?;
        let hits = d.u64()?;
        sync_apis.insert(api, hits);
    }
    Ok(Stage1Result { exec_time_ns, sync_apis, total_wait_ns, sync_hits })
}

fn enc_transfer(e: &mut Enc, t: &TransferRec) {
    enc_direction(e, t.dir);
    e.u64(t.bytes);
    e.u64(t.host);
    e.u64(t.dev);
    e.bool(t.pinned);
    e.bool(t.is_async);
}

fn dec_transfer(d: &mut Dec<'_>) -> Result<TransferRec, String> {
    Ok(TransferRec {
        dir: dec_direction(d)?,
        bytes: d.u64()?,
        host: d.u64()?,
        dev: d.u64()?,
        pinned: d.bool()?,
        is_async: d.bool()?,
    })
}

fn enc_call(e: &mut Enc, st: &mut StrTableBuilder, c: &TracedCall) {
    e.u64(c.seq as u64);
    enc_api(e, st, c.api);
    enc_loc(e, st, &c.site);
    enc_stack(e, st, &c.stack);
    e.u64(c.sig);
    e.u64(c.folded_sig);
    e.u64(c.occ);
    e.u64(c.enter_ns);
    e.u64(c.exit_ns);
    e.u64(c.wait_ns);
    e.opt(&c.wait_reason, |e, &r| enc_wait_reason(e, r));
    e.opt(&c.transfer, enc_transfer);
    e.bool(c.is_launch);
}

fn dec_call(d: &mut Dec<'_>, st: &StrTable) -> Result<TracedCall, String> {
    Ok(TracedCall {
        seq: d.u64()? as usize,
        api: dec_api(d, st)?,
        site: dec_loc(d, st)?,
        stack: dec_stack(d, st)?,
        sig: d.u64()?,
        folded_sig: d.u64()?,
        occ: d.u64()?,
        enter_ns: d.u64()?,
        exit_ns: d.u64()?,
        wait_ns: d.u64()?,
        wait_reason: d.opt(dec_wait_reason)?,
        transfer: d.opt(dec_transfer)?,
        is_launch: d.bool()?,
    })
}

fn enc_stage2(e: &mut Enc, st: &mut StrTableBuilder, s: &Stage2Result) {
    e.u64(s.exec_time_ns);
    e.u64(s.calls.len() as u64);
    for c in &s.calls {
        enc_call(e, st, c);
    }
}

fn dec_stage2(d: &mut Dec<'_>, st: &StrTable) -> Result<Stage2Result, String> {
    let exec_time_ns = d.u64()?;
    let n = d.seq_len()?;
    let mut calls = Vec::with_capacity(n);
    for _ in 0..n {
        calls.push(dec_call(d, st)?);
    }
    Ok(Stage2Result { exec_time_ns, calls })
}

fn enc_op_set(e: &mut Enc, set: &HashSet<OpInstance>) {
    let mut ops: Vec<OpInstance> = set.iter().copied().collect();
    ops.sort();
    e.u64(ops.len() as u64);
    for op in &ops {
        enc_op(e, op);
    }
}

fn dec_op_set(d: &mut Dec<'_>) -> Result<HashSet<OpInstance>, String> {
    let n = d.seq_len()?;
    let mut set = HashSet::with_capacity(n);
    for _ in 0..n {
        set.insert(dec_op(d)?);
    }
    Ok(set)
}

fn enc_stage3(e: &mut Enc, st: &mut StrTableBuilder, s: &Stage3Result) {
    enc_op_set(e, &s.required_syncs);
    enc_op_set(e, &s.observed_syncs);
    e.u64(s.accesses.len() as u64);
    for a in &s.accesses {
        enc_op(e, &a.sync);
        enc_loc(e, st, &a.access_site);
        e.u64(a.rough_gap_ns);
    }
    e.u64(s.duplicates.len() as u64);
    for dup in &s.duplicates {
        enc_op(e, &dup.op);
        enc_loc(e, st, &dup.site);
        enc_loc(e, st, &dup.first_site);
        e.u64(dup.bytes);
        e.u128(dup.digest.0);
    }
    let mut sites: Vec<SourceLoc> = s.first_use_sites.iter().copied().collect();
    sites.sort();
    e.u64(sites.len() as u64);
    for site in &sites {
        enc_loc(e, st, site);
    }
    e.u64(s.hashed_bytes);
    e.u64(s.exec_time_sync_ns);
    e.u64(s.exec_time_hash_ns);
    e.u64(s.exec_time_ns);
}

fn dec_stage3(d: &mut Dec<'_>, st: &StrTable) -> Result<Stage3Result, String> {
    let required_syncs = dec_op_set(d)?;
    let observed_syncs = dec_op_set(d)?;
    let n = d.seq_len()?;
    let mut accesses = Vec::with_capacity(n);
    for _ in 0..n {
        accesses.push(ProtectedAccess {
            sync: dec_op(d)?,
            access_site: dec_loc(d, st)?,
            rough_gap_ns: d.u64()?,
        });
    }
    let n = d.seq_len()?;
    let mut duplicates = Vec::with_capacity(n);
    for _ in 0..n {
        duplicates.push(DuplicateTransfer {
            op: dec_op(d)?,
            site: dec_loc(d, st)?,
            first_site: dec_loc(d, st)?,
            bytes: d.u64()?,
            digest: Digest(d.u128()?),
        });
    }
    let n = d.seq_len()?;
    let mut first_use_sites = HashSet::with_capacity(n);
    for _ in 0..n {
        first_use_sites.insert(dec_loc(d, st)?);
    }
    Ok(Stage3Result {
        required_syncs,
        observed_syncs,
        accesses,
        duplicates,
        first_use_sites,
        hashed_bytes: d.u64()?,
        exec_time_sync_ns: d.u64()?,
        exec_time_hash_ns: d.u64()?,
        exec_time_ns: d.u64()?,
    })
}

/// Stage 4 is stored columnar — `sig[]`, `occ[]`, `first_use_ns[]` —
/// so the sync-use gap table reads back as three straight column copies.
fn enc_stage4(e: &mut Enc, s: &Stage4Result) {
    let mut gaps: Vec<(OpInstance, u64)> = s.first_use_ns.iter().map(|(&k, &v)| (k, v)).collect();
    gaps.sort();
    e.u64(gaps.len() as u64);
    for (op, _) in &gaps {
        e.u64(op.sig);
    }
    for (op, _) in &gaps {
        e.u64(op.occ);
    }
    for (_, ns) in &gaps {
        e.u64(*ns);
    }
    e.u64(s.exec_time_ns);
}

fn dec_stage4(d: &mut Dec<'_>) -> Result<Stage4Result, String> {
    let n = d.col_len(24)?;
    let sig = d.col_u64(n)?;
    let occ = d.col_u64(n)?;
    let ns = d.col_u64(n)?;
    let mut first_use_ns = HashMap::with_capacity(n);
    for i in 0..n {
        first_use_ns.insert(OpInstance { sig: sig.at(i), occ: occ.at(i) }, ns.at(i));
    }
    Ok(Stage4Result { first_use_ns, exec_time_ns: d.u64()? })
}

// ---------------------------------------------------------------------------
// Borrowed Stage 2 reader
// ---------------------------------------------------------------------------
//
// Owned decoding (`decode_artifact`) materializes one `TracedCall` and
// one `Vec<Frame>` per call. `Stage2Cols` runs the same validated pass
// into reused flat columns instead (stacks flatten into one shared frame
// table); after a warmup read sizes the vectors, repeat reads touch the
// heap zero times (asserted by `crates/core/tests/alloc_contracts.rs`).

/// One traced call in a [`Stage2Cols`] read: the full [`TracedCall`]
/// payload with the stack flattened into the shared frame table —
/// recover it with [`Stage2Cols::frames_of`].
#[derive(Debug, Clone, Copy)]
pub struct CallRow {
    pub seq: u64,
    pub api: ApiFn,
    pub site: SourceLoc,
    pub sig: u64,
    pub folded_sig: u64,
    pub occ: u64,
    pub enter_ns: u64,
    pub exit_ns: u64,
    pub wait_ns: u64,
    pub wait_reason: Option<WaitReason>,
    pub transfer: Option<TransferRec>,
    pub is_launch: bool,
    frame_start: u32,
    frame_len: u32,
}

/// One stack frame in the shared frame table: interned function symbol
/// plus call site — no per-frame `String`, no per-call `Vec`.
#[derive(Debug, Clone, Copy)]
pub struct FrameRow {
    pub function: Sym,
    pub callsite: SourceLoc,
}

/// Reusable zero-allocation reader for a Stage 2 container. Stacks land
/// in one shared `frames` table; each [`CallRow`] holds a range into it.
#[derive(Default)]
pub struct Stage2Cols {
    pub exec_time_ns: u64,
    pub calls: Vec<CallRow>,
    pub frames: Vec<FrameRow>,
    strings: StrTable,
}

impl Stage2Cols {
    pub fn new() -> Self {
        Stage2Cols::default()
    }

    pub fn len(&self) -> usize {
        self.calls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// The stack frames of `call`, outermost first (encode order).
    pub fn frames_of(&self, call: &CallRow) -> &[FrameRow] {
        let start = call.frame_start as usize;
        &self.frames[start..start + call.frame_len as usize]
    }

    /// One pass over a whole Stage 2 FFB file into reused columns.
    pub fn read(&mut self, file: &[u8]) -> Result<(), String> {
        let ffb = Ffb::parse(file)?;
        ffb.expect_kind(ArtifactKind::Stage2.byte(), "stage2")?;
        ffb.strings_into(&mut self.strings)?;
        let mut d = Dec::new(ffb.section(SEC_RECORDS)?);
        self.exec_time_ns = d.u64()?;
        let n = d.seq_len()?;
        self.calls.clear();
        self.frames.clear();
        for _ in 0..n {
            let seq = d.u64()?;
            let api = dec_api(&mut d, &self.strings)?;
            let site = dec_loc(&mut d, &self.strings)?;
            let frame_start =
                u32::try_from(self.frames.len()).map_err(|_| "frame table overflow".to_string())?;
            let nframes = d.seq_len()?;
            for _ in 0..nframes {
                let function = self.strings.sym(d.u32()?)?;
                let callsite = dec_loc(&mut d, &self.strings)?;
                self.frames.push(FrameRow { function, callsite });
            }
            self.calls.push(CallRow {
                seq,
                api,
                site,
                sig: d.u64()?,
                folded_sig: d.u64()?,
                occ: d.u64()?,
                enter_ns: d.u64()?,
                exit_ns: d.u64()?,
                wait_ns: d.u64()?,
                wait_reason: d.opt(dec_wait_reason)?,
                transfer: d.opt(dec_transfer)?,
                is_launch: d.bool()?,
                frame_start,
                frame_len: nframes as u32,
            });
        }
        d.finish()
    }
}

// ---------------------------------------------------------------------------
// Generic JSON documents (reports, telemetry, converted files)
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ARR: u8 = 6;
const TAG_OBJ: u8 = 7;

/// Mirror of the JSON parser's recursion guard.
const MAX_DOC_DEPTH: usize = 512;

/// Encode any [`Json`] document as an FFB container ([`KIND_DOC`]).
/// All string content — values and object keys — goes through the
/// string table, so documents with repeated keys (every "cells" array)
/// store each key once. Floats are stored as raw bits; together with
/// exact `i128` integers this makes bin→json re-rendering byte-identical
/// to the original pretty form.
pub fn encode_doc(doc: &Json) -> Vec<u8> {
    let mut st = StrTableBuilder::new();
    let mut e = Enc::default();
    enc_json(&mut e, &mut st, doc);
    let mut b = FfbBuilder::new(KIND_DOC);
    b.section(SEC_STRINGS, st.encode());
    b.section(SEC_DOC, e.0);
    b.finish()
}

/// Decode a [`KIND_DOC`] container back into a [`Json`] tree. Strings
/// come back as [`Json::Sym`] over the file's interned table — content-
/// equal to the original `Str` values and serialized identically.
pub fn decode_doc(bytes: &[u8]) -> Result<Json, String> {
    doc_from(&Ffb::parse(bytes)?)
}

fn doc_from(ffb: &Ffb<'_>) -> Result<Json, String> {
    ffb.expect_kind(KIND_DOC, "document")?;
    let st = StrTable::parse(ffb.section(SEC_STRINGS)?)?;
    let mut d = Dec::new(ffb.section(SEC_DOC)?);
    let doc = dec_json(&mut d, &st, 0)?;
    d.finish()?;
    Ok(doc)
}

fn enc_json(e: &mut Enc, st: &mut StrTableBuilder, v: &Json) {
    match v {
        Json::Null => e.u8(TAG_NULL),
        Json::Bool(false) => e.u8(TAG_FALSE),
        Json::Bool(true) => e.u8(TAG_TRUE),
        Json::Int(i) => {
            e.u8(TAG_INT);
            e.u128(*i as u128);
        }
        Json::Float(f) => {
            e.u8(TAG_FLOAT);
            e.f64(*f);
        }
        Json::Str(s) => {
            e.u8(TAG_STR);
            let id = st.add(s);
            e.u32(id);
        }
        Json::Static(s) => {
            e.u8(TAG_STR);
            let id = st.add_static(s);
            e.u32(id);
        }
        Json::Sym(sym) => {
            e.u8(TAG_STR);
            let id = st.add_sym(*sym);
            e.u32(id);
        }
        Json::Arr(items) => {
            e.u8(TAG_ARR);
            e.u32(items.len() as u32);
            for item in items {
                enc_json(e, st, item);
            }
        }
        Json::Obj(fields) => {
            e.u8(TAG_OBJ);
            e.u32(fields.len() as u32);
            for (k, v) in fields {
                let id = st.add(k);
                e.u32(id);
                enc_json(e, st, v);
            }
        }
    }
}

fn dec_json(d: &mut Dec<'_>, st: &StrTable, depth: usize) -> Result<Json, String> {
    if depth > MAX_DOC_DEPTH {
        return Err("document nested too deeply".to_string());
    }
    Ok(match d.u8()? {
        TAG_NULL => Json::Null,
        TAG_FALSE => Json::Bool(false),
        TAG_TRUE => Json::Bool(true),
        TAG_INT => Json::Int(d.u128()? as i128),
        TAG_FLOAT => Json::Float(d.f64()?),
        TAG_STR => Json::Sym(st.sym(d.u32()?)?),
        TAG_ARR => {
            let n = d.u32()? as usize;
            if n > d.remaining() {
                return Err(format!("implausible array length {n}"));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(dec_json(d, st, depth + 1)?);
            }
            Json::Arr(items)
        }
        TAG_OBJ => {
            let n = d.u32()? as usize;
            if n > d.remaining() {
                return Err(format!("implausible object length {n}"));
            }
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let key = st.get(d.u32()?)?.to_string();
                fields.push((key, dec_json(d, st, depth + 1)?));
            }
            Json::Obj(fields)
        }
        b => return Err(format!("bad value tag {b:#04x}")),
    })
}

// ---------------------------------------------------------------------------
// Typed sweep matrices (binary shards and sweep exports)
// ---------------------------------------------------------------------------

/// Encode a sweep matrix as a [`KIND_SWEEP`] container: one header
/// section (app, workload, layout, shard, axes) and one columnar cells
/// section. `Err` if any cell's assignment disagrees with the axes (a
/// hand-built matrix; `run_sweep` can't produce one).
pub fn encode_sweep(m: &SweepMatrix) -> Result<Vec<u8>, String> {
    for c in &m.cells {
        if c.assignment.len() != m.axes.len()
            || c.assignment.iter().zip(&m.axes).any(|((k, _), a)| *k != a.field)
        {
            return Err(format!("cell {} assignment does not match the axes", c.index));
        }
    }
    let mut st = StrTableBuilder::new();
    let mut h = Enc::default();
    h.u32(st.add(&m.app_name));
    h.u32(st.add(&m.workload));
    h.u8(match m.layout {
        AxisLayout::Cartesian => 0,
        AxisLayout::Paired => 1,
    });
    h.opt(&m.shard, |h, s| {
        h.u64(s.k as u64);
        h.u64(s.n as u64);
    });
    h.u64(m.total_cells as u64);
    h.u32(m.axes.len() as u32);
    for a in &m.axes {
        let id = st.add(&a.field);
        h.u32(id);
        h.u64(a.values.len() as u64);
        for &v in &a.values {
            h.u64(v);
        }
    }

    // Cells, one column per field; assignment values are axis-major.
    let mut c = Enc::default();
    c.u64(m.cells.len() as u64);
    c.u32(m.axes.len() as u32);
    let mut column = |value: &dyn Fn(&SweepCell) -> u64| {
        for cell in &m.cells {
            c.u64(value(cell));
        }
    };
    column(&|cell| cell.index as u64);
    for axis in 0..m.axes.len() {
        column(&|cell| cell.assignment[axis].1);
    }
    column(&|cell| cell.baseline_exec_ns);
    column(&|cell| cell.total_benefit_ns);
    column(&|cell| cell.benefit_pct.to_bits());
    column(&|cell| cell.problem_count as u64);
    column(&|cell| cell.sync_issues as u64);
    column(&|cell| cell.transfer_issues as u64);
    column(&|cell| cell.sequence_count as u64);
    column(&|cell| cell.collection_overhead_factor.to_bits());

    let mut b = FfbBuilder::new(KIND_SWEEP);
    b.section(SEC_STRINGS, st.encode());
    b.section(SEC_SWEEP_HEADER, h.0);
    b.section(SEC_SWEEP_CELLS, c.0);
    Ok(b.finish())
}

/// Decode a [`KIND_SWEEP`] container back into a [`SweepMatrix`]. The
/// summary is recomputed from the decoded cells — floats round-trip as
/// raw bits, so the argmin/argmax rows match the producing run exactly.
/// `cache_stats` is diagnostic-only and never serialized.
pub fn decode_sweep(bytes: &[u8]) -> Result<SweepMatrix, String> {
    sweep_from(&Ffb::parse(bytes)?)
}

fn sweep_from(ffb: &Ffb<'_>) -> Result<SweepMatrix, String> {
    ffb.expect_kind(KIND_SWEEP, "sweep")?;
    let st = StrTable::parse(ffb.section(SEC_STRINGS)?)?;
    let mut h = Dec::new(ffb.section(SEC_SWEEP_HEADER)?);
    let app_name = st.get(h.u32()?)?.to_string();
    let workload = st.get(h.u32()?)?.to_string();
    let layout = match h.u8()? {
        0 => AxisLayout::Cartesian,
        1 => AxisLayout::Paired,
        b => return Err(format!("bad layout byte {b:#04x}")),
    };
    let shard = h.opt(|h| {
        let k = usize::try_from(h.u64()?).map_err(|_| "shard k overflow")?;
        let n = usize::try_from(h.u64()?).map_err(|_| "shard n overflow")?;
        Shard::new(k, n)
    })?;
    let total_cells = usize::try_from(h.u64()?).map_err(|_| "total_cells overflow")?;
    let n_axes = h.u32()? as usize;
    let mut axes = Vec::with_capacity(n_axes.min(h.remaining()));
    for _ in 0..n_axes {
        let field = st.get(h.u32()?)?.to_string();
        let n = h.col_len(8)?;
        let values = (0..n).map(|_| h.u64()).collect::<Result<Vec<u64>, String>>()?;
        axes.push(Axis { field, values });
    }
    h.finish()?;

    let mut d = Dec::new(ffb.section(SEC_SWEEP_CELLS)?);
    let n = d.col_len(8)?;
    let cell_axes = d.u32()? as usize;
    // 9 fixed columns + one per axis, 8 bytes per element each.
    let cols = cell_axes.checked_add(9).ok_or("axis count overflow")?;
    let total = n.checked_mul(8 * cols).ok_or("cells size overflow")?;
    if total > d.remaining() {
        return Err(format!("implausible cell count {n}"));
    }
    if cell_axes != axes.len() {
        return Err(format!("cells carry {cell_axes} axes but the header declares {}", axes.len()));
    }
    let index = d.col_u64(n)?;
    let axis_cols = (0..cell_axes).map(|_| d.col_u64(n)).collect::<Result<Vec<_>, String>>()?;
    let baseline_exec_ns = d.col_u64(n)?;
    let total_benefit_ns = d.col_u64(n)?;
    let benefit_pct = d.col_u64(n)?;
    let problem_count = d.col_u64(n)?;
    let sync_issues = d.col_u64(n)?;
    let transfer_issues = d.col_u64(n)?;
    let sequence_count = d.col_u64(n)?;
    let overhead = d.col_u64(n)?;
    d.finish()?;

    let mut cells = Vec::with_capacity(n);
    for i in 0..n {
        cells.push(SweepCell {
            index: usize::try_from(index.at(i)).map_err(|_| "cell index overflow")?,
            assignment: axes
                .iter()
                .zip(&axis_cols)
                .map(|(a, c)| (a.field.clone(), c.at(i)))
                .collect(),
            baseline_exec_ns: baseline_exec_ns.at(i),
            total_benefit_ns: total_benefit_ns.at(i),
            benefit_pct: f64::from_bits(benefit_pct.at(i)),
            problem_count: problem_count.at(i) as usize,
            sync_issues: sync_issues.at(i) as usize,
            transfer_issues: transfer_issues.at(i) as usize,
            sequence_count: sequence_count.at(i) as usize,
            collection_overhead_factor: f64::from_bits(overhead.at(i)),
        });
    }
    let summary: SweepSummary = SweepMatrix::summarize(&cells);
    Ok(SweepMatrix {
        app_name,
        workload,
        axes,
        layout,
        total_cells,
        shard,
        cells,
        summary,
        cache_stats: None,
    })
}

/// Decode any FFB container into a JSON document: [`KIND_DOC`] directly,
/// [`KIND_SWEEP`] via the typed decoder + [`crate::sweep::sweep_to_json`]
/// (byte-identical to the producing run's `--format json` output).
/// Artifact kinds are cache-internal and not convertible.
pub fn decode_any_doc(bytes: &[u8]) -> Result<Json, String> {
    let ffb = Ffb::parse(bytes)?;
    match ffb.kind {
        KIND_DOC => doc_from(&ffb),
        KIND_SWEEP => Ok(crate::sweep::sweep_to_json(&sweep_from(&ffb)?)),
        k => Err(format!("container kind {k} is not a convertible document")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn roundtrip(artifact: Artifact) -> Artifact {
        let kind = artifact.kind();
        let bytes = encode_artifact(&artifact).expect("serializable kind");
        decode_artifact(&bytes, kind).expect("decodes")
    }

    #[test]
    fn discovery_roundtrips() {
        let d = Discovery {
            sync_fn: InternalFn::SyncWait,
            waits: [(InternalFn::SyncWait, 500), (InternalFn::Enqueue, 0)].into_iter().collect(),
        };
        match roundtrip(Artifact::Discovery(Arc::new(d.clone()))) {
            Artifact::Discovery(got) => {
                assert_eq!(got.sync_fn, d.sync_fn);
                assert_eq!(got.waits, d.waits);
            }
            other => panic!("wrong kind {:?}", other.kind()),
        }
    }

    #[test]
    fn stage1_roundtrips() {
        let s = Stage1Result {
            exec_time_ns: 42,
            sync_apis: [(ApiFn::CudaFree, 3), (ApiFn::CudaMemcpy, 7)].into_iter().collect(),
            total_wait_ns: 99,
            sync_hits: 10,
        };
        match roundtrip(Artifact::Stage1(Arc::new(s.clone()))) {
            Artifact::Stage1(got) => {
                assert_eq!(got.exec_time_ns, s.exec_time_ns);
                assert_eq!(got.sync_apis, s.sync_apis);
                assert_eq!(got.total_wait_ns, s.total_wait_ns);
                assert_eq!(got.sync_hits, s.sync_hits);
            }
            other => panic!("wrong kind {:?}", other.kind()),
        }
    }

    #[test]
    fn stage2_roundtrips_including_stacks() {
        let s = sample_stage2();
        match roundtrip(Artifact::Stage2(Arc::new(s.clone()))) {
            Artifact::Stage2(got) => {
                assert_eq!(got.exec_time_ns, s.exec_time_ns);
                assert_eq!(got.calls.len(), s.calls.len());
                let (a, b) = (&got.calls[0], &s.calls[0]);
                assert_eq!(a.seq, b.seq);
                assert_eq!(a.api, b.api);
                assert_eq!(a.site, b.site);
                assert_eq!(a.stack, b.stack);
                assert_eq!(a.sig, b.sig);
                assert_eq!(a.folded_sig, b.folded_sig);
                assert_eq!(a.occ, b.occ);
                assert_eq!((a.enter_ns, a.exit_ns, a.wait_ns), (b.enter_ns, b.exit_ns, b.wait_ns));
                assert_eq!(a.wait_reason, b.wait_reason);
                assert_eq!(a.transfer, b.transfer);
                assert_eq!(a.is_launch, b.is_launch);
                // Decoded file names intern to the same address space the
                // rest of the pipeline uses for synthetic addresses.
                assert_eq!(a.site.addr(), b.site.addr());
            }
            other => panic!("wrong kind {:?}", other.kind()),
        }
    }

    #[test]
    fn stage3_roundtrips() {
        let s = sample_stage3();
        match roundtrip(Artifact::Stage3(Arc::new(s.clone()))) {
            Artifact::Stage3(got) => {
                assert_eq!(got.required_syncs, s.required_syncs);
                assert_eq!(got.observed_syncs, s.observed_syncs);
                assert_eq!(got.accesses.len(), 1);
                assert_eq!(got.accesses[0].sync, s.accesses[0].sync);
                assert_eq!(got.accesses[0].access_site, s.accesses[0].access_site);
                assert_eq!(got.duplicates[0].digest, s.duplicates[0].digest);
                assert_eq!(got.first_use_sites, s.first_use_sites);
                assert_eq!(got.hashed_bytes, s.hashed_bytes);
                assert_eq!(got.exec_time_ns, s.exec_time_ns);
            }
            other => panic!("wrong kind {:?}", other.kind()),
        }
    }

    #[test]
    fn stage4_roundtrips() {
        let mut s = Stage4Result::default();
        s.first_use_ns.insert(OpInstance { sig: 5, occ: 0 }, 111);
        s.first_use_ns.insert(OpInstance { sig: 5, occ: 1 }, 222);
        s.exec_time_ns = 7;
        match roundtrip(Artifact::Stage4(Arc::new(s.clone()))) {
            Artifact::Stage4(got) => {
                assert_eq!(got.first_use_ns, s.first_use_ns);
                assert_eq!(got.exec_time_ns, s.exec_time_ns);
            }
            other => panic!("wrong kind {:?}", other.kind()),
        }
    }

    #[test]
    fn encoding_is_independent_of_hash_iteration_order() {
        // Build the same logical map twice with different insertion orders;
        // the encoded bytes must match.
        let mut a = Stage4Result::default();
        let mut b = Stage4Result::default();
        for i in 0..100u64 {
            a.first_use_ns.insert(OpInstance { sig: i, occ: 0 }, i * 10);
        }
        for i in (0..100u64).rev() {
            b.first_use_ns.insert(OpInstance { sig: i, occ: 0 }, i * 10);
        }
        let ea = encode_artifact(&Artifact::Stage4(Arc::new(a))).unwrap();
        let eb = encode_artifact(&Artifact::Stage4(Arc::new(b))).unwrap();
        assert_eq!(ea, eb);
    }

    #[test]
    fn artifact_decode_rejects_any_corruption() {
        let bytes = encode_artifact(&Artifact::Stage2(Arc::new(sample_stage2()))).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_artifact(&bad, ArtifactKind::Stage2).is_err(), "mutation at byte {i}");
        }
        for end in 0..bytes.len() {
            assert!(
                decode_artifact(&bytes[..end], ArtifactKind::Stage2).is_err(),
                "truncation to {end}"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_artifact(&extra, ArtifactKind::Stage2).is_err(), "trailing bytes rejected");
        // A kind mismatch is rejected even with pristine bytes.
        assert!(decode_artifact(&bytes, ArtifactKind::Stage3).is_err());
    }

    #[test]
    fn artifact_decode_rejects_foreign_build_tags() {
        let mut bytes =
            encode_artifact(&Artifact::Stage4(Arc::new(Stage4Result::default()))).unwrap();
        bytes[12] ^= 0xff; // build tag, outside the checksum's coverage
        assert!(Ffb::parse(&bytes).is_ok(), "container itself is intact");
        assert!(!header_is_current(&bytes), "cache hygiene sees it as stale");
        assert!(decode_artifact(&bytes, ArtifactKind::Stage4).is_err(), "cache path refuses it");
    }

    fn doc() -> Json {
        Json::obj([
            ("app", Json::Str("als".to_string())),
            ("big", Json::Int(i128::from(u64::MAX) * 3)),
            ("neg", Json::Int(-7)),
            ("pct", Json::Float(12.345678901234567)),
            ("flag", Json::Bool(true)),
            ("off", Json::Bool(false)),
            ("nothing", Json::Null),
            ("text", Json::Str("quote \" slash \\ tab\t".to_string())),
            ("sym", Json::Sym(crate::intern::intern("codec-sym-probe"))),
            ("static", Json::Static("codec-static-probe")),
            (
                "cells",
                Json::arr([
                    Json::obj([("k", Json::Int(1)), ("v", Json::Float(2.25))]),
                    Json::obj([("k", Json::Int(2)), ("v", Json::Float(0.5))]),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ])
    }

    #[test]
    fn container_roundtrips_and_checks_integrity() {
        let mut b = FfbBuilder::new(KIND_DOC);
        b.section(SEC_STRINGS, vec![1, 2, 3]);
        b.section(SEC_DOC, vec![9; 40]);
        let bytes = b.finish();
        assert!(is_ffb(&bytes));
        assert!(header_is_current(&bytes));
        let ffb = Ffb::parse(&bytes).unwrap();
        assert_eq!(ffb.kind, KIND_DOC);
        assert_eq!(ffb.build_tag, build_tag());
        assert_eq!(ffb.section(SEC_STRINGS).unwrap(), &[1, 2, 3]);
        assert_eq!(ffb.section(SEC_DOC).unwrap().len(), 40);
        assert!(ffb.section(SEC_RECORDS).is_err(), "absent section is an error");

        // Any single-byte corruption is rejected, wherever it lands —
        // except the build tag (bytes 12..20), which parse deliberately
        // ignores so `diogenes convert` can read files from other builds
        // (the artifact-cache path checks it separately).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            if (12..20).contains(&i) {
                assert!(Ffb::parse(&bad).is_ok(), "build-tag byte {i} is not integrity-checked");
            } else {
                assert!(Ffb::parse(&bad).is_err(), "mutation at byte {i} must not parse");
            }
        }
        // Every strict prefix is rejected too.
        for end in 0..bytes.len() {
            assert!(Ffb::parse(&bytes[..end]).is_err(), "truncation to {end} must not parse");
        }
    }

    #[test]
    fn container_bytes_are_pinned_across_builds() {
        // Files written by earlier builds must keep parsing, so the
        // layout and the checksum may not drift. Everything but the
        // build tag (bytes 12..20, zeroed here) is pinned.
        #[rustfmt::skip]
        const PINNED: [u8; 151] = [
            0x44, 0x49, 0x4f, 0x47, 0x46, 0x46, 0x42, 0x31, 0x02, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x5d, 0x8f, 0x2c,
            0x7c, 0x2a, 0x42, 0x93, 0x10, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
            0x00, 0x2e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
            0x00, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
            0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x61, 0x70, 0x70,
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x61, 0x6c, 0x73, 0x01,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x6e, 0x03, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x70, 0x63, 0x74, 0x07, 0x03, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
            0x00, 0x03, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x29, 0x40,
        ];
        let d = Json::obj([
            ("app", Json::Str("als".to_string())),
            ("n", Json::Int(3)),
            ("pct", Json::Float(12.5)),
        ]);
        let mut bytes = encode_doc(&d);
        assert_eq!(bytes.len(), 151);
        assert_eq!(bytes[20..28], [0x14, 0x5d, 0x8f, 0x2c, 0x7c, 0x2a, 0x42, 0x93], "checksum");
        bytes[12..20].fill(0);
        assert_eq!(bytes, PINNED);
    }

    #[test]
    fn string_table_interns_once_per_file() {
        let mut b = StrTableBuilder::new();
        let a = b.add("codec-table-a");
        let a2 = b.add("codec-table-a");
        let c = b.add_static("codec-table-b");
        assert_eq!(a, a2, "dedup within the table");
        assert_ne!(a, c);
        let t = StrTable::parse(&b.encode()).unwrap();
        assert_eq!(t.get(a).unwrap(), "codec-table-a");
        assert_eq!(t.get(c).unwrap(), "codec-table-b");
        assert!(t.get(99).is_err());
        // The parsed entries share the interner's address space.
        assert!(std::ptr::eq(t.get(a).unwrap(), crate::intern::intern("codec-table-a").resolve()));
    }

    #[test]
    fn doc_roundtrip_is_byte_identical() {
        let d = doc();
        let bytes = encode_doc(&d);
        let back = decode_doc(&bytes).unwrap();
        assert_eq!(back, d, "content equality across Str/Sym variants");
        assert_eq!(back.to_string_pretty(), d.to_string_pretty());
        assert_eq!(back.to_string_compact(), d.to_string_compact());
        assert_eq!(decode_any_doc(&bytes).unwrap().to_string_pretty(), d.to_string_pretty());
    }

    #[test]
    fn doc_decode_rejects_corruption_without_panicking() {
        let d = doc();
        let bytes = encode_doc(&d);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x11;
            if (12..20).contains(&i) {
                // Build-tag bytes: documents decode across builds.
                let back = decode_doc(&bad).expect("foreign build tags decode fine");
                assert_eq!(back.to_string_pretty(), d.to_string_pretty());
            } else {
                assert!(decode_doc(&bad).is_err(), "mutation at byte {i}");
            }
        }
        for end in 0..bytes.len() {
            assert!(decode_doc(&bytes[..end]).is_err(), "truncation to {end}");
        }
    }

    #[test]
    fn non_finite_floats_render_identically_after_roundtrip() {
        let d = Json::obj([("nan", Json::Float(f64::NAN)), ("inf", Json::Float(f64::INFINITY))]);
        let back = decode_doc(&encode_doc(&d)).unwrap();
        // NaN breaks value equality, but both sides render as "null" —
        // byte identity is the contract that matters.
        assert_eq!(back.to_string_pretty(), d.to_string_pretty());
    }

    #[test]
    fn doc_depth_is_bounded() {
        let mut v = Json::Null;
        for _ in 0..600 {
            v = Json::Arr(vec![v]);
        }
        let bytes = encode_doc(&v);
        assert!(decode_doc(&bytes).is_err(), "over-deep documents are rejected");
    }

    fn sample_matrix(shard: Option<Shard>) -> SweepMatrix {
        let axes = vec![
            Axis::new("cost.free_base_ns", vec![1000, 2000]),
            Axis::new("driver.unified_memset_penalty", vec![1, 30]),
        ];
        let cells: Vec<SweepCell> = (0..4usize)
            .map(|i| SweepCell {
                index: i,
                assignment: vec![
                    ("cost.free_base_ns".to_string(), 1000 * (1 + (i as u64 & 1))),
                    ("driver.unified_memset_penalty".to_string(), if i < 2 { 1 } else { 30 }),
                ],
                baseline_exec_ns: 1_000_000 + i as u64,
                total_benefit_ns: 5_000 * i as u64,
                benefit_pct: 0.1 * i as f64 + 0.05,
                problem_count: i + 1,
                sync_issues: i,
                transfer_issues: 1,
                sequence_count: 2,
                collection_overhead_factor: 3.5 - i as f64 * 0.25,
            })
            .collect();
        let summary = SweepMatrix::summarize(&cells);
        SweepMatrix {
            app_name: "als".to_string(),
            workload: "test-workload".to_string(),
            axes,
            layout: AxisLayout::Cartesian,
            total_cells: 4,
            shard,
            cells,
            summary,
            cache_stats: None,
        }
    }

    #[test]
    fn sweep_roundtrip_renders_byte_identically() {
        for shard in [None, Some(Shard::new(1, 2).unwrap())] {
            let m = sample_matrix(shard);
            let bytes = encode_sweep(&m).unwrap();
            let back = decode_sweep(&bytes).unwrap();
            assert_eq!(
                crate::sweep::sweep_to_json(&back).to_string_pretty(),
                crate::sweep::sweep_to_json(&m).to_string_pretty()
            );
            assert_eq!(
                decode_any_doc(&bytes).unwrap().to_string_pretty(),
                crate::sweep::sweep_to_json(&m).to_string_pretty()
            );
        }
    }

    #[test]
    fn sweep_decode_rejects_corruption_without_panicking() {
        let bytes = encode_sweep(&sample_matrix(None)).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x2a;
            if (12..20).contains(&i) {
                assert!(decode_sweep(&bad).is_ok(), "sweeps decode across builds");
            } else {
                assert!(decode_sweep(&bad).is_err(), "mutation at byte {i}");
            }
        }
    }

    #[test]
    fn sweep_encode_validates_assignments() {
        let mut m = sample_matrix(None);
        m.cells[1].assignment[0].0 = "cost.other_field".to_string();
        assert!(encode_sweep(&m).is_err());
    }

    #[test]
    fn borrowed_stage2_reader_matches_owned_decode() {
        let mut s = sample_stage2();
        // A second call with an empty stack and no options exercises the
        // frame-range bookkeeping.
        s.calls.push(TracedCall {
            seq: 1,
            api: ApiFn::CudaDeviceSynchronize,
            site: sample_loc(900),
            stack: StackTrace { frames: vec![] },
            sig: 1,
            folded_sig: 2,
            occ: 0,
            enter_ns: 100,
            exit_ns: 180,
            wait_ns: 60,
            wait_reason: None,
            transfer: None,
            is_launch: true,
        });
        let bytes = encode_artifact(&Artifact::Stage2(Arc::new(s.clone()))).unwrap();

        let mut cols = Stage2Cols::new();
        cols.read(&bytes).unwrap();
        cols.read(&bytes).unwrap(); // reuse is idempotent
        assert_eq!(cols.exec_time_ns, s.exec_time_ns);
        assert_eq!(cols.len(), s.calls.len());

        // Rebuilding the owned record from the flattened rows and
        // re-encoding reproduces the input bytes exactly — full
        // equivalence, not per-field spot checks.
        let rebuilt = Stage2Result {
            exec_time_ns: cols.exec_time_ns,
            calls: cols
                .calls
                .iter()
                .map(|c| TracedCall {
                    seq: c.seq as usize,
                    api: c.api,
                    site: c.site,
                    stack: StackTrace {
                        frames: cols
                            .frames_of(c)
                            .iter()
                            .map(|f| Frame::new(f.function.resolve(), f.callsite))
                            .collect(),
                    },
                    sig: c.sig,
                    folded_sig: c.folded_sig,
                    occ: c.occ,
                    enter_ns: c.enter_ns,
                    exit_ns: c.exit_ns,
                    wait_ns: c.wait_ns,
                    wait_reason: c.wait_reason,
                    transfer: c.transfer,
                    is_launch: c.is_launch,
                })
                .collect(),
        };
        let re = encode_artifact(&Artifact::Stage2(Arc::new(rebuilt))).unwrap();
        assert_eq!(re, bytes);
    }

    #[test]
    fn borrowed_readers_work_at_any_buffer_alignment() {
        // Copy a container to every offset 1..8 of a larger buffer and
        // read it from there: per-access LE reads make alignment moot.
        let bytes = encode_artifact(&Artifact::Stage2(Arc::new(sample_stage2()))).unwrap();
        let mut cols = Stage2Cols::new();
        for offset in 1..8 {
            let mut shifted = vec![0u8; offset];
            shifted.extend_from_slice(&bytes);
            cols.read(&shifted[offset..]).unwrap();
            assert_eq!(cols.len(), 1);
        }
        // The owned decoder reads columns the same way.
        let mut s4 = Stage4Result::default();
        s4.first_use_ns.insert(OpInstance { sig: 3, occ: 1 }, 55);
        let bytes = encode_artifact(&Artifact::Stage4(Arc::new(s4))).unwrap();
        for offset in 1..8 {
            let mut shifted = vec![0u8; offset];
            shifted.extend_from_slice(&bytes);
            let Artifact::Stage4(got) =
                decode_artifact(&shifted[offset..], ArtifactKind::Stage4).unwrap()
            else {
                panic!("wrong kind");
            };
            assert_eq!(got.first_use_ns[&OpInstance { sig: 3, occ: 1 }], 55);
        }
    }

    #[test]
    fn typed_columns_reinterpret_only_when_aligned() {
        let vals: Vec<u8> = [1u64, 2, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert!(ColU64::new(&vals[..12]).is_err(), "partial words rejected");
        let col = ColU64::new(&vals).unwrap();
        assert_eq!(col.len(), 3);
        assert_eq!(col.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(col.get(2), Some(3));
        assert_eq!(col.get(3), None);
        // A deliberately misaligned view still reads correctly via the
        // per-access path.
        let mut buf = vec![0u8; 1];
        buf.extend_from_slice(&vals);
        let mis = ColU64::new(&buf[1..]).unwrap();
        assert_eq!(mis.at(1), 2);
    }

    #[test]
    fn entry_header_check_classifies_stale_vs_corrupt() {
        let bytes = encode_artifact(&Artifact::Stage4(Arc::new(Stage4Result::default()))).unwrap();
        assert!(check_entry_header(&bytes).is_ok());
        assert!(matches!(
            check_entry_header(&bytes[..HEADER_LEN - 1]),
            Err(HeaderIssue::Corrupt(_))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(check_entry_header(&bad_magic), Err(HeaderIssue::Corrupt(_))));
        let mut old_schema = bytes.clone();
        old_schema[8] = old_schema[8].wrapping_add(1);
        assert!(matches!(check_entry_header(&old_schema), Err(HeaderIssue::Stale(_))));
        let mut foreign = bytes;
        foreign[12] ^= 0xff;
        assert!(matches!(check_entry_header(&foreign), Err(HeaderIssue::Stale(_))));
    }
}
