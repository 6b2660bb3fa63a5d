//! Synthetic workload generators.
//!
//! Stand-ins for the paper's input data sets. Only the *shape* of the
//! data matters to the reproduced analyses — sizes, chunk counts and
//! whether payloads repeat — so each generator produces deterministic,
//! seeded bytes with the right structure.

use gpu_sim::SplitMix64;

/// A synthetic stand-in for the GroupLens MovieLens-10M ratings set used
/// by cumf_als: `users × items` sparse ratings, delivered as fixed-size
/// upload chunks whose contents never change across solver iterations
/// (which is exactly why re-uploading them every iteration is a
/// duplicate-transfer bug).
#[derive(Debug, Clone)]
pub struct RatingsMatrix {
    /// Row-compressed rating bytes, chunked for upload.
    pub chunks: Vec<Vec<u8>>,
    pub users: u32,
    pub items: u32,
}

impl RatingsMatrix {
    /// Generate with a fixed seed. `chunk_bytes` controls upload
    /// granularity.
    pub fn generate(users: u32, items: u32, chunks: usize, chunk_bytes: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let chunks = (0..chunks).map(|_| rng.bytes(chunk_bytes)).collect();
        Self { chunks, users, items }
    }

    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }
}

/// A lid-driven-cavity CFD configuration (cuIBM's
/// `lidDrivenCavityRe5000`): grid dimensions and iteration structure.
#[derive(Debug, Clone, Copy, Hash)]
pub struct CavityConfig {
    pub nx: u32,
    pub ny: u32,
    /// Outer time steps.
    pub steps: u32,
    /// Solver iterations per step (each allocates thrust temporaries).
    pub solver_iters: u32,
    pub reynolds: u32,
}

impl CavityConfig {
    /// Cells in the grid.
    pub fn cells(&self) -> u64 {
        self.nx as u64 * self.ny as u64
    }

    /// Bytes of one field variable (f32 per cell).
    pub fn field_bytes(&self) -> u64 {
        self.cells() * 4
    }
}

/// An `ij`-style sparse matrix description for the AMG benchmark: a
/// 27-point stencil on an `n³` grid.
#[derive(Debug, Clone, Copy, Hash)]
pub struct StencilMatrix {
    pub n: u32,
    pub levels: u32,
    pub cycles: u32,
}

impl StencilMatrix {
    pub fn rows(&self) -> u64 {
        (self.n as u64).pow(3)
    }

    pub fn nnz(&self) -> u64 {
        self.rows() * 27
    }

    /// Bytes of a level-`l` workspace vector (coarsening halves each
    /// dimension's contribution).
    pub fn level_bytes(&self, l: u32) -> u64 {
        ((self.rows() * 8) >> (l * 2)).max(256)
    }
}

/// Dense matrix for the Rodinia Gaussian-elimination benchmark.
#[derive(Debug, Clone)]
pub struct DenseSystem {
    pub n: u32,
    pub matrix: Vec<u8>,
}

impl DenseSystem {
    pub fn generate(n: u32, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let bytes = (n as usize) * (n as usize) * 4;
        // Cap the materialized matrix; the timing model scales with `n`
        // regardless, and only transfer payload contents need bytes.
        let bytes = bytes.min(1 << 20);
        let matrix = rng.bytes(bytes);
        Self { n, matrix }
    }

    pub fn row_bytes(&self) -> u64 {
        (self.n as u64) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratings_are_deterministic_per_seed() {
        let a = RatingsMatrix::generate(100, 50, 4, 1024, 7);
        let b = RatingsMatrix::generate(100, 50, 4, 1024, 7);
        let c = RatingsMatrix::generate(100, 50, 4, 1024, 8);
        assert_eq!(a.chunks, b.chunks);
        assert_ne!(a.chunks, c.chunks);
        assert_eq!(a.total_bytes(), 4 * 1024);
    }

    #[test]
    fn ratings_chunks_differ_from_each_other() {
        let a = RatingsMatrix::generate(10, 10, 3, 512, 1);
        assert_ne!(a.chunks[0], a.chunks[1]);
        assert_ne!(a.chunks[1], a.chunks[2]);
    }

    #[test]
    fn cavity_sizes() {
        let c = CavityConfig { nx: 100, ny: 80, steps: 5, solver_iters: 3, reynolds: 5000 };
        assert_eq!(c.cells(), 8_000);
        assert_eq!(c.field_bytes(), 32_000);
    }

    #[test]
    fn stencil_scales_and_coarsens() {
        let m = StencilMatrix { n: 16, levels: 4, cycles: 2 };
        assert_eq!(m.rows(), 4096);
        assert_eq!(m.nnz(), 4096 * 27);
        assert!(m.level_bytes(1) < m.level_bytes(0));
        assert!(m.level_bytes(10) >= 256, "floor holds");
    }

    #[test]
    fn dense_system_caps_materialized_bytes() {
        let d = DenseSystem::generate(4096, 3);
        assert!(d.matrix.len() <= 1 << 20);
        assert_eq!(d.row_bytes(), 4096 * 4);
    }
}
