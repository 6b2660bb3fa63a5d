//! Ingest buffers for zero-copy FFB reads: memory-mapped files with a
//! plain-read fallback, plus a global reusable buffer pool.
//!
//! The workspace is std-only, so [`MappedFile`] drives `mmap(2)` through
//! a minimal raw-syscall wrapper on Linux (x86_64 / aarch64). Everywhere
//! else — or when the syscall fails, the file is empty, or
//! `DIOGENES_NO_MMAP` is set — [`read_file`] falls back to reading into
//! a pooled buffer. Either way the caller holds one contiguous `&[u8]`
//! it can hand to the borrowed decode layer ([`crate::codec::Ffb`])
//! without further copies. Mapped buffers carry no alignment guarantee
//! beyond the page the kernel picks, and FFB section payloads start at
//! arbitrary offsets anyway, so the decode layer never assumes
//! alignment (see `codec::ColU64`).
//!
//! The pool ([`acquire`] / [`release`]) recycles ingest buffers across
//! keep-alive HTTP exchanges and artifact-cache disk reads; reuse is
//! observable via [`stats`] and exported by `diogenes serve` as
//! `diogenes_ingest_buffer_reuse_total`.

use std::io::Read as _;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Buffers kept in the pool; excess released buffers go back to the
/// allocator.
const MAX_POOLED: usize = 32;

/// A released buffer above this capacity is dropped rather than pinned
/// in the pool forever (a one-off huge request body should not hold
/// 64 MiB hostage).
const MAX_POOLED_CAPACITY: usize = 16 * 1024 * 1024;

static POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
static REUSED: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static MAPPED: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Counters for pool and mapping activity since process start.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Buffers handed out from the pool instead of freshly allocated.
    pub buffer_reuse: u64,
    /// Buffers handed out empty because the pool was dry.
    pub buffer_allocs: u64,
    /// File reads served by `mmap`.
    pub mapped_reads: u64,
    /// File reads served by a plain read into a pooled buffer.
    pub fallback_reads: u64,
}

/// Snapshot of the ingest counters.
pub fn stats() -> IngestStats {
    IngestStats {
        buffer_reuse: REUSED.load(Ordering::Relaxed),
        buffer_allocs: ALLOCATED.load(Ordering::Relaxed),
        mapped_reads: MAPPED.load(Ordering::Relaxed),
        fallback_reads: FALLBACKS.load(Ordering::Relaxed),
    }
}

/// A pooled byte buffer; returns to the pool on drop. Dereferences to
/// `Vec<u8>`, so it slots in anywhere a scratch vector would.
pub struct PooledBuf(Option<Vec<u8>>);

impl PooledBuf {
    /// Detach the underlying vector; it will no longer return to the
    /// pool automatically (pass it to [`release`] once done).
    pub fn into_inner(mut self) -> Vec<u8> {
        self.0.take().unwrap_or_default()
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        self.0.as_ref().expect("pooled buffer present until drop")
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.0.as_mut().expect("pooled buffer present until drop")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.0.take() {
            release(buf);
        }
    }
}

/// Take an empty buffer from the pool, or a fresh one if it is dry.
pub fn acquire() -> PooledBuf {
    let reused = POOL.lock().ok().and_then(|mut pool| pool.pop());
    match reused {
        Some(mut buf) => {
            REUSED.fetch_add(1, Ordering::Relaxed);
            buf.clear();
            PooledBuf(Some(buf))
        }
        None => {
            ALLOCATED.fetch_add(1, Ordering::Relaxed);
            PooledBuf(Some(Vec::new()))
        }
    }
}

/// Return a buffer to the pool. Contents are discarded; oversized or
/// surplus buffers go back to the allocator instead.
pub fn release(buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
        return;
    }
    if let Ok(mut pool) = POOL.lock() {
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    }
}

/// A read-only memory-mapped file. Unmapped on drop.
pub struct MappedFile {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated; a
// byte slice over it is as shareable as any other immutable buffer.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Map `path` read-only. `Err` means the file cannot be opened at
    /// all; `Ok(None)` means it opened but cannot be mapped (empty
    /// file, unsupported platform, or syscall failure) and the caller
    /// should fall back to a plain read.
    pub fn open(path: &Path) -> std::io::Result<Option<MappedFile>> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Self::from_file(&file, len))
    }

    fn from_file(file: &std::fs::File, len: u64) -> Option<MappedFile> {
        // mmap rejects zero-length mappings, and usize::try_from guards
        // hypothetical 32-bit hosts against >4 GiB files.
        let len = usize::try_from(len).ok().filter(|&l| l > 0)?;
        let ptr = sys::mmap_file(file, len)?;
        Some(MappedFile { ptr: std::ptr::NonNull::new(ptr)?, len })
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: empty files never map (see [`MappedFile::open`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Deref for MappedFile {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; it stays valid until Drop runs.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        sys::munmap(self.ptr.as_ptr(), self.len);
    }
}

/// A file's bytes, however they were brought in. Dereferences to
/// `&[u8]`; pooled backing returns to the pool on drop.
pub enum IngestBuf {
    /// Memory-mapped — the kernel pages bytes in on demand.
    Mapped(MappedFile),
    /// Read into a pooled buffer.
    Pooled(PooledBuf),
}

impl IngestBuf {
    /// Whether the bytes come from an mmap rather than a copy.
    pub fn is_mapped(&self) -> bool {
        matches!(self, IngestBuf::Mapped(_))
    }
}

impl Deref for IngestBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            IngestBuf::Mapped(m) => m,
            IngestBuf::Pooled(b) => b,
        }
    }
}

/// Read a whole file for ingest: mmap when possible, pooled read
/// otherwise. `DIOGENES_NO_MMAP` (any non-empty value) forces the
/// fallback — useful for A/B-testing the two paths on one artifact.
pub fn read_file(path: &Path) -> std::io::Result<IngestBuf> {
    read_file_with(path, mmap_enabled())
}

fn mmap_enabled() -> bool {
    std::env::var_os("DIOGENES_NO_MMAP").is_none_or(|v| v.is_empty())
}

fn read_file_with(path: &Path, allow_mmap: bool) -> std::io::Result<IngestBuf> {
    let mut file = std::fs::File::open(path)?;
    if allow_mmap {
        let len = file.metadata()?.len();
        if let Some(map) = MappedFile::from_file(&file, len) {
            MAPPED.fetch_add(1, Ordering::Relaxed);
            return Ok(IngestBuf::Mapped(map));
        }
    }
    FALLBACKS.fetch_add(1, Ordering::Relaxed);
    let mut buf = acquire();
    file.read_to_end(&mut buf)?;
    Ok(IngestBuf::Pooled(buf))
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    //! Raw `mmap`/`munmap` for the std-only workspace: no libc, so the
    //! syscalls are issued directly. Read-only private mappings only.
    use std::os::fd::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: the `syscall` instruction clobbers rcx/r11; all other
        // registers are declared. The caller vouches for the arguments.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: svc #0 with the syscall number in x8; arguments in
        // x0..x5, result in x0. The caller vouches for the arguments.
        unsafe {
            std::arch::asm!(
                "svc #0",
                in("x8") n,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack),
            );
        }
        ret
    }

    /// Map `len` bytes of `file` read-only; `None` on any failure.
    pub fn mmap_file(file: &std::fs::File, len: usize) -> Option<*mut u8> {
        let fd = file.as_raw_fd();
        if fd < 0 || len == 0 {
            return None;
        }
        // SAFETY: addr=0 lets the kernel pick; fd/len come from an open
        // file we hold a handle to for the duration of the call.
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        // Failure is -errno in [-4095, -1]; 0 cannot come back for a
        // non-MAP_FIXED request but is rejected anyway.
        if (-4095..=0).contains(&ret) {
            return None;
        }
        Some(ret as *mut u8)
    }

    /// Unmap a region obtained from [`mmap_file`]. Failure is ignored —
    /// there is no recovery from a bad unmap at drop time.
    pub fn munmap(ptr: *mut u8, len: usize) {
        if len == 0 {
            return;
        }
        // SAFETY: ptr/len describe a mapping returned by mmap_file that
        // nobody dereferences after this call.
        unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod sys {
    /// No mmap wrapper on this platform; callers take the read fallback.
    pub fn mmap_file(_file: &std::fs::File, _len: usize) -> Option<*mut u8> {
        None
    }

    pub fn munmap(_ptr: *mut u8, _len: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("iobuf-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp file");
        path
    }

    #[test]
    fn pool_recycles_and_clears_buffers() {
        let mut buf = acquire();
        buf.extend_from_slice(b"leftover bytes");
        let cap = buf.capacity();
        drop(buf);
        // The pool is global and shared with concurrent tests, so pop
        // until a recycled buffer with our capacity shows up.
        for _ in 0..MAX_POOLED {
            let again = acquire();
            assert!(again.is_empty(), "recycled buffers must come back empty");
            if again.capacity() == cap {
                return;
            }
        }
        panic!("released buffer never came back from the pool");
    }

    #[test]
    fn release_drops_oversized_buffers() {
        release(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        for _ in 0..MAX_POOLED {
            assert!(acquire().capacity() <= MAX_POOLED_CAPACITY);
        }
    }

    #[test]
    fn mapped_and_fallback_reads_are_identical() {
        let payload: Vec<u8> = (0..70_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let path = temp_file("identity", &payload);
        let mapped = read_file_with(&path, true).expect("mmap read");
        let plain = read_file_with(&path, false).expect("fallback read");
        assert!(!plain.is_mapped());
        assert_eq!(&mapped[..], &payload[..]);
        assert_eq!(&plain[..], &payload[..]);
        // On Linux the mapped path must actually map; elsewhere it
        // falls back and the byte identity above is the whole story.
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        assert!(mapped.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_fall_back_to_pooled_reads() {
        let path = temp_file("empty", b"");
        let buf = read_file(&path).expect("read empty file");
        assert!(!buf.is_mapped());
        assert!(buf.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_files_error() {
        assert!(read_file(Path::new("/nonexistent/iobuf-missing")).is_err());
    }

    #[test]
    fn stats_counters_move() {
        let before = stats();
        let path = temp_file("stats", b"0123456789");
        read_file_with(&path, false).expect("fallback read");
        let after = stats();
        assert!(after.fallback_reads > before.fallback_reads);
        assert!(
            after.buffer_reuse + after.buffer_allocs >= before.buffer_reuse + before.buffer_allocs
        );
        std::fs::remove_file(&path).ok();
    }
}
