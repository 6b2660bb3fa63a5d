//! A global pool of reusable byte buffers for ingest: HTTP request
//! heads and bodies, and artifact-cache disk reads.
//!
//! [`acquire`] hands out an empty buffer, recycled when the pool has
//! one; dropping the [`PooledBuf`] (or passing a detached vector to
//! [`release`]) returns it. Reuse is observable via [`stats`] and
//! exported by `diogenes serve` as `diogenes_ingest_buffer_reuse_total`,
//! so a keep-alive connection's exchanges can be seen sharing one
//! allocation. Other files are read with `std::fs::read`.

use std::ops::{Deref, DerefMut};
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

/// Counters for pool activity since process start.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Buffers handed out from the pool instead of freshly allocated.
    pub buffer_reuse: u64,
    /// Buffers handed out empty because the pool was dry.
    pub buffer_allocs: u64,
}

/// Snapshot of the ingest counters.
pub fn stats() -> IngestStats {
    IngestStats {
        buffer_reuse: REUSED.load(Ordering::Relaxed),
        buffer_allocs: ALLOCATED.load(Ordering::Relaxed),
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn stats_counters_move() {
        let before = stats();
        drop(acquire());
        let after = stats();
        assert!(
            after.buffer_reuse + after.buffer_allocs > before.buffer_reuse + before.buffer_allocs
        );
    }
}
