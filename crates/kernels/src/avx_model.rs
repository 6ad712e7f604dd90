//! The AVX decompression instruction budget of the libxsmm software kernel.
//!
//! Libxsmm decompresses one 64-byte output row (32 BF16 elements) at a time
//! with a short AVX-512 sequence (§2.4): load the bitmask chunk and the
//! packed nonzeros, expand the nonzeros to their dense positions with a
//! masked `vexpand`, convert the narrow format to BF16, apply the scale
//! factors for MX formats, store the row into the software double buffer,
//! and advance the cursors. The *number* of such instructions per row is
//! what determines the kernel's matriX-to-Vector intensity, and therefore
//! whether it is VEC-bound.
//!
//! The budgets below are derived from that sequence and calibrated so the
//! resulting signatures land where the paper's Fig. 4b/5 place them
//! (96 ops/tile for sparse Q16, 144 for sparse Q8, 80 for dense Q8,
//! 192 for MXFP4).

use deca_compress::{CompressionScheme, TILE_ROWS};
use deca_roofsurface::KernelSignature;

/// The per-row AVX instruction budget of a decompression sequence, split by
/// port class so that vector-resource scaling experiments (§7, Fig. 15) can
/// be modelled: wider vectors shrink the compute portion but memory
/// operations stay cache-line sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvxOpBudget {
    /// Vector load instructions per 32-element output row.
    pub loads_per_row: u32,
    /// Vector store instructions per row (into the software double buffer).
    pub stores_per_row: u32,
    /// Non-memory vector instructions per row (permutes, expands, converts,
    /// shifts, multiplies, mask manipulation).
    pub compute_per_row: u32,
}

impl AvxOpBudget {
    /// The budget for a compression scheme.
    #[must_use]
    pub fn for_scheme(scheme: &CompressionScheme) -> Self {
        let quantized = scheme.is_quantized();
        let sparse = scheme.is_sparse();
        let bits = scheme.format().bits();
        match (quantized, sparse) {
            // Uncompressed BF16: tiles are TLoaded directly; only a software
            // prefetch / cursor update per row.
            (false, false) => AvxOpBudget {
                loads_per_row: 0,
                stores_per_row: 0,
                compute_per_row: 1,
            },
            // Sparse BF16: bitmask load, nonzero load, masked expand, store,
            // popcount + cursor bookkeeping.
            (false, true) => AvxOpBudget {
                loads_per_row: 2,
                stores_per_row: 1,
                compute_per_row: 3,
            },
            // Quantized formats.
            (true, sparse) => {
                if bits <= 4 {
                    // MXFP4: load packed nibbles, split high/low nibbles,
                    // two-step LUT permutes for each half, broadcast and
                    // apply the group scale, re-interleave, store.
                    let extra_sparse = if sparse { 3 } else { 0 };
                    AvxOpBudget {
                        loads_per_row: 2,
                        stores_per_row: 1,
                        compute_per_row: 9 + extra_sparse,
                    }
                } else if sparse {
                    // Sparse BF8: bitmask load, data load, masked byte
                    // expand, two-step widen/convert to BF16, exponent
                    // fix-up, store, popcount + cursor bookkeeping.
                    AvxOpBudget {
                        loads_per_row: 2,
                        stores_per_row: 1,
                        compute_per_row: 6,
                    }
                } else {
                    // Dense BF8: data load, two-step convert, store, cursor.
                    AvxOpBudget {
                        loads_per_row: 1,
                        stores_per_row: 1,
                        compute_per_row: 3,
                    }
                }
            }
        }
    }

    /// Total AVX instructions per row.
    #[must_use]
    pub fn total_per_row(&self) -> u32 {
        self.loads_per_row + self.stores_per_row + self.compute_per_row
    }

    /// Total AVX instructions per 16-row weight tile.
    #[must_use]
    pub fn total_per_tile(&self) -> u32 {
        self.total_per_row() * TILE_ROWS as u32
    }

    /// Memory (load + store) instructions per tile.
    #[must_use]
    pub fn memory_ops_per_tile(&self) -> u32 {
        (self.loads_per_row + self.stores_per_row) * TILE_ROWS as u32
    }

    /// Compute (non-memory) instructions per tile.
    #[must_use]
    pub fn compute_ops_per_tile(&self) -> u32 {
        self.compute_per_row * TILE_ROWS as u32
    }
}

/// The CPU core's vector execution resources available to the decompression
/// sequence, and how they are scaled in the §7 alternatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorResources {
    /// SIMD execution ports that can run the decompression µops.
    pub simd_units: usize,
    /// Vector width multiplier versus AVX-512 (4 models the hypothetical
    /// AVX-2048 units of Fig. 15).
    pub width_multiplier: usize,
    /// Issue/commit width of the core (unchanged in all §7 variants).
    pub issue_width: usize,
}

impl VectorResources {
    /// Stock SPR core: 2 AVX-512 FMA-capable ports, 6-wide allocation.
    #[must_use]
    pub fn spr() -> Self {
        VectorResources {
            simd_units: 2,
            width_multiplier: 1,
            issue_width: 6,
        }
    }

    /// The "More AVX Units" alternative: 4× more SIMD ports, same core
    /// width.
    #[must_use]
    pub fn more_avx_units() -> Self {
        VectorResources {
            simd_units: 8,
            ..VectorResources::spr()
        }
    }

    /// The "Wider AVX Units" alternative: AVX-2048, modelled optimistically
    /// by shrinking the compute portion of the sequence 4× while memory
    /// operations stay cache-line sized.
    #[must_use]
    pub fn wider_avx_units() -> Self {
        VectorResources {
            width_multiplier: 4,
            ..VectorResources::spr()
        }
    }

    /// Dynamic AVX instructions per tile after width scaling.
    #[must_use]
    pub fn effective_avx_ops_per_tile(&self, budget: &AvxOpBudget) -> f64 {
        let compute = f64::from(budget.compute_ops_per_tile()) / self.width_multiplier as f64;
        let memory = f64::from(budget.memory_ops_per_tile());
        compute + memory
    }

    /// Cycles the SIMD ports are busy decompressing one tile.
    #[must_use]
    pub fn decompress_cycles_per_tile(&self, budget: &AvxOpBudget) -> f64 {
        self.effective_avx_ops_per_tile(budget) / self.simd_units as f64
    }

    /// Core issue-slot cycles per tile: the whole dynamic instruction stream
    /// of one iteration — AVX sequence, AMX instructions (TLoad + TComp) and
    /// scalar loop overhead — divided by the core width.
    #[must_use]
    pub fn core_cycles_per_tile(&self, budget: &AvxOpBudget) -> f64 {
        const AMX_OPS_PER_TILE: f64 = 2.0;
        const SCALAR_OVERHEAD_PER_TILE: f64 = 8.0;
        (self.effective_avx_ops_per_tile(budget) + AMX_OPS_PER_TILE + SCALAR_OVERHEAD_PER_TILE)
            / self.issue_width as f64
    }
}

/// The number of vector operations per tile used for Roof-Surface
/// signatures of the *software* kernel (stock SPR resources).
#[must_use]
pub fn software_vops_per_tile(scheme: &CompressionScheme) -> f64 {
    f64::from(AvxOpBudget::for_scheme(scheme).total_per_tile())
}

/// The Roof-Surface kernel signature of the software kernel for a scheme.
#[must_use]
pub fn software_signature(scheme: &CompressionScheme) -> KernelSignature {
    KernelSignature::from_scheme_and_vops(scheme, software_vops_per_tile(scheme).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_calibration_targets() {
        // The op totals that put the software kernels where Fig. 4b/5 place
        // them.
        assert_eq!(
            AvxOpBudget::for_scheme(&CompressionScheme::bf16_sparse(0.2)).total_per_tile(),
            96
        );
        assert_eq!(
            AvxOpBudget::for_scheme(&CompressionScheme::bf8_sparse(0.1)).total_per_tile(),
            144
        );
        assert_eq!(
            AvxOpBudget::for_scheme(&CompressionScheme::bf8_dense()).total_per_tile(),
            80
        );
        assert_eq!(
            AvxOpBudget::for_scheme(&CompressionScheme::mxfp4()).total_per_tile(),
            192
        );
        assert_eq!(
            AvxOpBudget::for_scheme(&CompressionScheme::bf16_dense()).total_per_tile(),
            16
        );
    }

    #[test]
    fn budget_is_independent_of_density_within_a_format() {
        // The AVX sequence processes whole rows, so its length does not
        // depend on how many nonzeros a row happens to contain.
        for d in [0.5, 0.3, 0.1, 0.05] {
            assert_eq!(
                AvxOpBudget::for_scheme(&CompressionScheme::bf8_sparse(d)).total_per_tile(),
                144
            );
        }
    }

    #[test]
    fn sparse_mxfp4_costs_more_than_dense() {
        let dense = AvxOpBudget::for_scheme(&CompressionScheme::mxfp4());
        let sparse = AvxOpBudget::for_scheme(&CompressionScheme::mxfp4_sparse(0.3));
        assert!(sparse.total_per_tile() > dense.total_per_tile());
    }

    #[test]
    fn stock_resources_cycle_counts() {
        let budget = AvxOpBudget::for_scheme(&CompressionScheme::bf8_sparse(0.2));
        let spr = VectorResources::spr();
        assert_eq!(spr.effective_avx_ops_per_tile(&budget), 144.0);
        assert_eq!(spr.decompress_cycles_per_tile(&budget), 72.0);
        // (144 + 2 + 8) / 6 ≈ 25.7 issue cycles per tile: 40–80 % of the
        // commit slots when the per-tile time is 52–84 cycles, matching §4.2.
        let core = spr.core_cycles_per_tile(&budget);
        assert!((core - 154.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn more_units_divide_simd_cycles_but_not_issue_cycles() {
        let budget = AvxOpBudget::for_scheme(&CompressionScheme::bf8_sparse(0.2));
        let more = VectorResources::more_avx_units();
        assert_eq!(more.decompress_cycles_per_tile(&budget), 18.0);
        assert_eq!(
            more.core_cycles_per_tile(&budget),
            VectorResources::spr().core_cycles_per_tile(&budget),
            "commit-width pressure is unchanged"
        );
    }

    #[test]
    fn wider_units_shrink_compute_but_not_memory_ops() {
        let budget = AvxOpBudget::for_scheme(&CompressionScheme::bf8_sparse(0.2));
        let wider = VectorResources::wider_avx_units();
        // loads+stores = 48 per tile stay; compute 96 -> 24.
        assert_eq!(wider.effective_avx_ops_per_tile(&budget), 72.0);
        assert_eq!(wider.decompress_cycles_per_tile(&budget), 36.0);
    }

    #[test]
    fn software_signature_uses_byte_accounting_and_op_budget() {
        let sig = software_signature(&CompressionScheme::mxfp4());
        assert!((sig.vops_per_tile() - 192.0).abs() < 1e-9);
        assert!((sig.bytes_per_tile() - 272.0).abs() < 1e-9);
    }
}
