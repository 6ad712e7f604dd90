//! Compression schemes: quantization format × density × group quantization.
//!
//! A scheme determines how many bytes a compressed weight tile occupies in
//! memory and therefore the matriX-to-Memory arithmetic intensity `AIX_M`
//! that drives the Roof-Surface model. The byte accounting follows §2.2:
//! nonzeros are stored contiguously in the quantized format, a bitmask with
//! one bit per original element is added only when the matrix is sparse, and
//! MX-style formats add one 8-bit shared scale per 32-element group.

use deca_numerics::{mx::MX_GROUP_SIZE, QuantFormat};

use crate::{CompressError, TILE_ELEMS};

/// A weight-compression scheme, the "kernel signature" knob of the paper.
///
/// ```
/// use deca_compress::CompressionScheme;
/// let q8_20 = CompressionScheme::bf8_sparse(0.2);
/// assert_eq!(q8_20.label(), "Q8_20%");
/// // 512*0.2 nonzero bytes + 64 bitmask bytes
/// assert_eq!(q8_20.expected_tile_bytes(), 166.4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionScheme {
    format: QuantFormat,
    density: f64,
    group_size: Option<usize>,
}

impl CompressionScheme {
    /// Creates a scheme with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidDensity`] if `density` is not in
    /// `(0, 1]`.
    pub fn new(
        format: QuantFormat,
        density: f64,
        group_size: Option<usize>,
    ) -> Result<Self, CompressError> {
        if !(density > 0.0 && density <= 1.0 && density.is_finite()) {
            return Err(CompressError::InvalidDensity(density));
        }
        if let Some(0) = group_size {
            return Err(CompressError::Format(
                deca_numerics::FormatError::InvalidGroupSize(0),
            ));
        }
        Ok(CompressionScheme {
            format,
            density,
            group_size,
        })
    }

    /// The uncompressed dense BF16 baseline ("BF16" / "Q16" at 100 %).
    #[must_use]
    pub fn bf16_dense() -> Self {
        CompressionScheme {
            format: QuantFormat::Bf16,
            density: 1.0,
            group_size: None,
        }
    }

    /// BF16 values with unstructured sparsity ("Q16_d%").
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    #[must_use]
    pub fn bf16_sparse(density: f64) -> Self {
        CompressionScheme::new(QuantFormat::Bf16, density, None)
            .expect("caller provided an invalid density")
    }

    /// Dense BF8 (E5M2) quantization ("Q8" / "BF8").
    #[must_use]
    pub fn bf8_dense() -> Self {
        CompressionScheme {
            format: QuantFormat::Bf8,
            density: 1.0,
            group_size: None,
        }
    }

    /// BF8 quantization with unstructured sparsity ("Q8_d%").
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    #[must_use]
    pub fn bf8_sparse(density: f64) -> Self {
        CompressionScheme::new(QuantFormat::Bf8, density, None)
            .expect("caller provided an invalid density")
    }

    /// MXFP4: dense 4-bit E2M1 with a shared scale per 32 weights ("Q4").
    #[must_use]
    pub fn mxfp4() -> Self {
        CompressionScheme {
            format: QuantFormat::Fp4,
            density: 1.0,
            group_size: Some(MX_GROUP_SIZE),
        }
    }

    /// MXFP4 with additional unstructured sparsity (not in libxsmm, but
    /// supported by DECA).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    #[must_use]
    pub fn mxfp4_sparse(density: f64) -> Self {
        CompressionScheme::new(QuantFormat::Fp4, density, Some(MX_GROUP_SIZE))
            .expect("caller provided an invalid density")
    }

    /// The quantized element format.
    #[must_use]
    pub fn format(&self) -> QuantFormat {
        self.format
    }

    /// Fraction of nonzero weights in `(0, 1]`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.density
    }

    /// Sparsity (`1 - density`).
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density
    }

    /// True if the scheme prunes weights (density < 100 %) and therefore
    /// needs a bitmask and an expansion step.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        self.density < 1.0
    }

    /// True if the scheme re-encodes values in a sub-16-bit format and
    /// therefore needs a dequantization step.
    #[must_use]
    pub fn is_quantized(&self) -> bool {
        self.format != QuantFormat::Bf16
    }

    /// True if the scheme is the uncompressed dense BF16 baseline — no
    /// dequantization and no expansion, so DECA does not apply (the paper
    /// leaves these Table 4 cells empty).
    #[must_use]
    pub fn is_uncompressed(&self) -> bool {
        !self.is_quantized() && !self.is_sparse()
    }

    /// Group size for group quantization, if any.
    #[must_use]
    pub fn group_size(&self) -> Option<usize> {
        self.group_size
    }

    /// Bits per stored nonzero element.
    #[must_use]
    pub fn element_bits(&self) -> u32 {
        u32::from(self.format.bits())
    }

    /// Expected bytes of nonzero payload per tile (`512·d·bits/8`).
    #[must_use]
    pub fn expected_nonzero_bytes(&self) -> f64 {
        TILE_ELEMS as f64 * self.density * f64::from(self.format.bits()) / 8.0
    }

    /// Bitmask bytes per tile (64 when sparse, 0 when dense).
    #[must_use]
    pub fn bitmask_bytes(&self) -> usize {
        if self.is_sparse() {
            TILE_ELEMS / 8
        } else {
            0
        }
    }

    /// Scale-factor bytes per tile (one byte per group when group-quantized).
    #[must_use]
    pub fn scale_bytes(&self) -> usize {
        match self.group_size {
            Some(g) => TILE_ELEMS.div_ceil(g),
            None => 0,
        }
    }

    /// Expected total bytes of a compressed tile in memory.
    ///
    /// This is `1/AIX_M` in the Roof-Surface model.
    #[must_use]
    pub fn expected_tile_bytes(&self) -> f64 {
        self.expected_nonzero_bytes() + self.bitmask_bytes() as f64 + self.scale_bytes() as f64
    }

    /// The matriX-to-Memory arithmetic intensity `AIX_M` (matrix ops per
    /// byte loaded from memory), §4.1.
    #[must_use]
    pub fn aix_m(&self) -> f64 {
        1.0 / self.expected_tile_bytes()
    }

    /// Exact compression factor versus the dense BF16 tile, using the full
    /// byte accounting (nonzeros + bitmask + scales).
    #[must_use]
    pub fn compression_factor(&self) -> f64 {
        crate::TILE_BYTES_BF16 as f64 / self.expected_tile_bytes()
    }

    /// The simplified compression-factor formula quoted in §2.2:
    /// `16 / (Q·d + 1)`, where the `+1` is the bitmask bit.
    ///
    /// For dense schemes the bitmask term is dropped.
    #[must_use]
    pub fn compression_factor_paper(&self) -> f64 {
        let bitmask_bit = if self.is_sparse() { 1.0 } else { 0.0 };
        16.0 / (f64::from(self.format.bits()) * self.density + bitmask_bit)
    }

    /// The traditional FLOP-per-byte arithmetic intensity of a compressed
    /// GeMM with batch size `n` (used for the 2D roofline of Fig. 3).
    #[must_use]
    pub fn flops_per_byte(&self, n: usize) -> f64 {
        512.0 * n as f64 * self.aix_m()
    }

    /// The paper's label for this scheme, e.g. `Q8_20%`, `Q4`, `Q16`.
    #[must_use]
    pub fn label(&self) -> String {
        let base = self.format.short_name();
        if self.is_sparse() {
            format!("{base}_{:.0}%", self.density * 100.0)
        } else {
            base.to_string()
        }
    }
}

impl std::fmt::Display for CompressionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Named collections of schemes used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeSet;

impl SchemeSet {
    /// The twelve compressed schemes of Figures 12/13, ordered by increasing
    /// compression factor exactly as the paper plots them.
    #[must_use]
    pub fn paper_evaluation() -> Vec<CompressionScheme> {
        vec![
            CompressionScheme::bf16_sparse(0.5),
            CompressionScheme::bf8_dense(),
            CompressionScheme::bf16_sparse(0.3),
            CompressionScheme::bf8_sparse(0.5),
            CompressionScheme::mxfp4(),
            CompressionScheme::bf16_sparse(0.2),
            CompressionScheme::bf8_sparse(0.3),
            CompressionScheme::bf16_sparse(0.1),
            CompressionScheme::bf8_sparse(0.2),
            CompressionScheme::bf16_sparse(0.05),
            CompressionScheme::bf8_sparse(0.1),
            CompressionScheme::bf8_sparse(0.05),
        ]
    }

    /// The Q8 density sweep used in Table 3 and Fig. 17.
    #[must_use]
    pub fn q8_density_sweep() -> Vec<CompressionScheme> {
        vec![
            CompressionScheme::bf8_dense(),
            CompressionScheme::bf8_sparse(0.5),
            CompressionScheme::bf8_sparse(0.3),
            CompressionScheme::bf8_sparse(0.2),
            CompressionScheme::bf8_sparse(0.1),
            CompressionScheme::bf8_sparse(0.05),
        ]
    }

    /// The schemes evaluated end-to-end on LLMs in Table 4.
    #[must_use]
    pub fn llm_evaluation() -> Vec<CompressionScheme> {
        vec![
            CompressionScheme::bf16_dense(),
            CompressionScheme::mxfp4(),
            CompressionScheme::bf8_sparse(0.2),
            CompressionScheme::bf8_sparse(0.05),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn byte_accounting_matches_paper_examples() {
        // Dense BF16: 1024 bytes, no bitmask, no scales.
        assert_eq!(
            CompressionScheme::bf16_dense().expected_tile_bytes(),
            1024.0
        );
        // Dense BF8: 512 bytes.
        assert_eq!(CompressionScheme::bf8_dense().expected_tile_bytes(), 512.0);
        // MXFP4: 256 payload + 16 scale bytes.
        assert_eq!(CompressionScheme::mxfp4().expected_tile_bytes(), 272.0);
        // BF8 at 50 % density: 256 payload + 64 bitmask.
        assert_eq!(
            CompressionScheme::bf8_sparse(0.5).expected_tile_bytes(),
            320.0
        );
        // BF16 at 30 % density: 307.2 + 64.
        assert!(close(
            CompressionScheme::bf16_sparse(0.3).expected_tile_bytes(),
            371.2,
            1e-9
        ));
        // BF8 at 5 % density: 25.6 + 64.
        assert!(close(
            CompressionScheme::bf8_sparse(0.05).expected_tile_bytes(),
            89.6,
            1e-9
        ));
    }

    #[test]
    fn density_validation() {
        assert!(CompressionScheme::new(QuantFormat::Bf8, 0.0, None).is_err());
        assert!(CompressionScheme::new(QuantFormat::Bf8, 1.5, None).is_err());
        assert!(CompressionScheme::new(QuantFormat::Bf8, f64::NAN, None).is_err());
        assert!(CompressionScheme::new(QuantFormat::Bf8, 1.0, None).is_ok());
        assert!(CompressionScheme::new(QuantFormat::Fp4, 0.5, Some(0)).is_err());
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(CompressionScheme::bf16_dense().label(), "Q16");
        assert_eq!(CompressionScheme::bf8_dense().label(), "Q8");
        assert_eq!(CompressionScheme::mxfp4().label(), "Q4");
        assert_eq!(CompressionScheme::bf8_sparse(0.2).label(), "Q8_20%");
        assert_eq!(CompressionScheme::bf16_sparse(0.05).label(), "Q16_5%");
    }

    #[test]
    fn compression_factor_paper_formula() {
        // §2.2: 16/(Q·d + 1). Q8 at 10 % density: 16/1.8 = 8.89.
        let s = CompressionScheme::bf8_sparse(0.1);
        assert!(close(s.compression_factor_paper(), 16.0 / 1.8, 1e-9));
        // Dense Q8: 16/8 = 2.
        assert!(close(
            CompressionScheme::bf8_dense().compression_factor_paper(),
            2.0,
            1e-9
        ));
    }

    #[test]
    fn exact_compression_factor_uses_full_accounting() {
        let s = CompressionScheme::mxfp4();
        assert!(close(s.compression_factor(), 1024.0 / 272.0, 1e-9));
        let dense = CompressionScheme::bf16_dense();
        assert!(close(dense.compression_factor(), 1.0, 1e-9));
    }

    #[test]
    fn aix_m_is_reciprocal_of_bytes() {
        for s in SchemeSet::paper_evaluation() {
            assert!(close(s.aix_m() * s.expected_tile_bytes(), 1.0, 1e-12));
        }
    }

    #[test]
    fn flops_per_byte_scales_with_batch() {
        let s = CompressionScheme::bf8_dense();
        assert!(close(s.flops_per_byte(1), 512.0 / 512.0, 1e-12));
        assert!(close(s.flops_per_byte(4), 4.0 * 512.0 / 512.0, 1e-12));
    }

    #[test]
    fn paper_evaluation_is_ordered_by_compression_factor() {
        let schemes = SchemeSet::paper_evaluation();
        assert_eq!(schemes.len(), 12);
        for pair in schemes.windows(2) {
            assert!(
                pair[0].compression_factor() <= pair[1].compression_factor() + 1e-9,
                "{} ({}) should not exceed {} ({})",
                pair[0],
                pair[0].compression_factor(),
                pair[1],
                pair[1].compression_factor()
            );
        }
    }

    #[test]
    fn sparse_and_quantized_flags() {
        let s = CompressionScheme::bf8_sparse(0.3);
        assert!(s.is_sparse());
        assert!(s.is_quantized());
        let d = CompressionScheme::bf16_dense();
        assert!(!d.is_sparse());
        assert!(!d.is_quantized());
        let q16s = CompressionScheme::bf16_sparse(0.5);
        assert!(q16s.is_sparse());
        assert!(!q16s.is_quantized());
    }

    #[test]
    fn scheme_sets_have_expected_sizes() {
        assert_eq!(SchemeSet::q8_density_sweep().len(), 6);
        assert_eq!(SchemeSet::llm_evaluation().len(), 4);
    }

    #[test]
    fn scale_bytes_only_for_group_quantization() {
        assert_eq!(CompressionScheme::mxfp4().scale_bytes(), 16);
        assert_eq!(CompressionScheme::bf8_dense().scale_bytes(), 0);
        assert_eq!(CompressionScheme::bf16_sparse(0.5).scale_bytes(), 0);
    }

    #[test]
    fn bitmask_bytes_only_when_sparse() {
        assert_eq!(CompressionScheme::bf8_sparse(0.5).bitmask_bytes(), 64);
        assert_eq!(CompressionScheme::bf8_dense().bitmask_bytes(), 0);
    }
}
