//! GeMM shapes and the FC-cascade workload (§8).

use deca_compress::{TILE_COLS, TILE_ROWS};

/// The shape of one FC-layer GeMM: activations are `N×K`, weights `K×M`,
/// output `N×M` (§2.3's convention with batch size `N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Batch size (rows of the activation matrix).
    pub n: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
    /// Output features (columns of the weight matrix).
    pub m: usize,
}

impl GemmShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(n: usize, k: usize, m: usize) -> Self {
        assert!(n > 0 && k > 0 && m > 0, "GeMM dimensions must be positive");
        GemmShape { n, k, m }
    }

    /// Number of weight elements.
    #[must_use]
    pub fn weight_elements(&self) -> usize {
        self.k * self.m
    }

    /// Number of 16×32 weight tiles the GeMM streams (zero-padded at the
    /// edges).
    #[must_use]
    pub fn weight_tiles(&self) -> usize {
        self.m.div_ceil(TILE_ROWS) * self.k.div_ceil(TILE_COLS)
    }

    /// Total FMAs of the GeMM (`N·K·M`).
    #[must_use]
    pub fn flops(&self) -> f64 {
        self.n as f64 * self.k as f64 * self.m as f64
    }

    /// TMUL tile operations needed (each covers `512·min(N,16)` FMAs).
    #[must_use]
    pub fn tmul_ops(&self) -> usize {
        self.weight_tiles() * self.n.div_ceil(16)
    }

    /// Bytes of uncompressed BF16 weights.
    #[must_use]
    pub fn weight_bytes_bf16(&self) -> usize {
        self.weight_elements() * 2
    }
}

/// A cascade of identical FC layers, the microbenchmark workload of §8
/// ("a large cascade of FC layers ... ≈250 million parameters, similar to
/// the large FC layers of Llama-2-70B").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcCascade {
    /// Shape of each layer's GeMM.
    pub layer: GemmShape,
    /// Number of chained layers.
    pub layers: usize,
}

impl FcCascade {
    /// The paper's microbenchmark: FC layers of 8192 × 30720 ≈ 252 M
    /// parameters each, with the requested batch size.
    #[must_use]
    pub fn paper_microbenchmark(batch: usize) -> Self {
        FcCascade {
            layer: GemmShape::new(batch, 8192, 30720),
            layers: 8,
        }
    }

    /// A scaled-down cascade for fast tests (same tile-level behaviour).
    #[must_use]
    pub fn small(batch: usize) -> Self {
        FcCascade {
            layer: GemmShape::new(batch, 512, 1024),
            layers: 2,
        }
    }

    /// Total weight tiles streamed by the cascade.
    #[must_use]
    pub fn total_weight_tiles(&self) -> usize {
        self.layer.weight_tiles() * self.layers
    }

    /// Total weight parameters.
    #[must_use]
    pub fn total_parameters(&self) -> usize {
        self.layer.weight_elements() * self.layers
    }

    /// Total FMAs.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.layer.flops() * self.layers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::TILE_ELEMS;

    #[test]
    fn shape_accounting() {
        let shape = GemmShape::new(4, 8192, 30720);
        assert_eq!(shape.weight_elements(), 8192 * 30720);
        assert_eq!(shape.weight_tiles(), (30720 / 16) * (8192 / 32));
        assert_eq!(shape.weight_tiles() * TILE_ELEMS, shape.weight_elements());
        assert_eq!(shape.flops(), 4.0 * 8192.0 * 30720.0);
        assert_eq!(shape.tmul_ops(), shape.weight_tiles());
        assert_eq!(shape.weight_bytes_bf16(), 2 * 8192 * 30720);
    }

    #[test]
    fn ragged_shapes_round_up_to_whole_tiles() {
        let shape = GemmShape::new(1, 33, 17);
        assert_eq!(shape.weight_tiles(), 2 * 2);
        let batch_32 = GemmShape::new(32, 64, 64);
        assert_eq!(batch_32.tmul_ops(), batch_32.weight_tiles() * 2);
    }

    #[test]
    fn paper_microbenchmark_is_250m_parameters_per_layer() {
        let cascade = FcCascade::paper_microbenchmark(1);
        let params = cascade.layer.weight_elements() as f64;
        assert!((params - 251.66e6).abs() / 251.66e6 < 0.01);
        assert_eq!(
            cascade.total_parameters(),
            cascade.layer.weight_elements() * 8
        );
        assert!(cascade.total_weight_tiles() > 3_900_000);
    }

    #[test]
    fn small_cascade_is_cheap() {
        let cascade = FcCascade::small(4);
        assert!(cascade.total_weight_tiles() < 5000);
        assert_eq!(cascade.total_flops(), 2.0 * 4.0 * 512.0 * 1024.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = GemmShape::new(0, 8, 8);
    }
}
