//! Parlooper-style loop parallelization.
//!
//! Parlooper statically partitions the GeMM's output across cores; each core
//! then streams the weight tiles of its own output block. For the
//! generation-phase GeMMs (weights have no reuse) the relevant outcome is
//! simply how many weight tiles each core processes and how balanced the
//! partition is.

use crate::GemmShape;

/// A static partition of a GeMM across cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parlooper {
    cores: usize,
    tiles_per_core: Vec<usize>,
}

impl Parlooper {
    /// Partitions the weight tiles of `shape` across `cores` cores,
    /// distributing the remainder one tile at a time so the imbalance is at
    /// most one tile.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn partition(shape: &GemmShape, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        let total = shape.weight_tiles();
        let base = total / cores;
        let remainder = total % cores;
        let tiles_per_core = (0..cores)
            .map(|c| base + usize::from(c < remainder))
            .collect();
        Parlooper {
            cores,
            tiles_per_core,
        }
    }

    /// Number of cores in the partition.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Tiles assigned to core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn tiles_for_core(&self, core: usize) -> usize {
        self.tiles_per_core[core]
    }

    /// The largest per-core assignment (determines the parallel makespan).
    #[must_use]
    pub fn max_tiles_per_core(&self) -> usize {
        self.tiles_per_core.iter().copied().max().unwrap_or(0)
    }

    /// Total tiles across all cores (equals the GeMM's tile count).
    #[must_use]
    pub fn total_tiles(&self) -> usize {
        self.tiles_per_core.iter().sum()
    }

    /// Load imbalance: max over mean minus one (0 = perfectly balanced).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        if self.total_tiles() == 0 {
            return 0.0;
        }
        let mean = self.total_tiles() as f64 / self.cores as f64;
        self.max_tiles_per_core() as f64 / mean - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_conserves_tiles_and_balances() {
        let shape = GemmShape::new(4, 8192, 30720);
        let p = Parlooper::partition(&shape, 56);
        assert_eq!(p.total_tiles(), shape.weight_tiles());
        assert_eq!(p.cores(), 56);
        let min = (0..56).map(|c| p.tiles_for_core(c)).min().unwrap();
        assert!(p.max_tiles_per_core() - min <= 1);
        assert!(p.imbalance() < 0.01);
    }

    #[test]
    fn remainder_is_spread_over_leading_cores() {
        let shape = GemmShape::new(1, 32, 16 * 10); // 10 tiles
        let p = Parlooper::partition(&shape, 4);
        assert_eq!(
            (0..4).map(|c| p.tiles_for_core(c)).collect::<Vec<_>>(),
            vec![3, 3, 2, 2]
        );
        assert_eq!(p.max_tiles_per_core(), 3);
    }

    #[test]
    fn single_core_gets_everything() {
        let shape = GemmShape::new(1, 64, 64);
        let p = Parlooper::partition(&shape, 1);
        assert_eq!(p.tiles_for_core(0), shape.weight_tiles());
        assert_eq!(p.imbalance(), 0.0);
    }

    #[test]
    fn more_cores_than_tiles_leaves_idle_cores() {
        let shape = GemmShape::new(1, 32, 16); // 1 tile
        let p = Parlooper::partition(&shape, 8);
        assert_eq!(p.total_tiles(), 1);
        assert_eq!(p.max_tiles_per_core(), 1);
        assert_eq!(p.tiles_for_core(7), 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Parlooper::partition(&GemmShape::new(1, 32, 16), 0);
    }
}
