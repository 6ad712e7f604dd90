//! The DECA bubble model (§6.2).
//!
//! A DECA vOp produces `W` output elements per cycle, but its dequantization
//! stage can only look up `Lq` codes per cycle (`Lq = L` for 8-bit codes,
//! `2L` for 7-bit, `4L` for ≤6-bit). When a vOp's window contains more than
//! `Lq` nonzeros the vOp occupies the dequantization stage for multiple
//! cycles, injecting pipeline bubbles. With unstructured sparsity of density
//! `d`, the number of nonzeros in a `W`-element window follows a binomial
//! distribution `B(W, d)`, so the *expected* bubbles per vOp are:
//!
//! ```text
//! bpv = Σ_{k=0}^{W/Lq − 1}  k · [ F((k+1)·Lq; W, d) − F(k·Lq; W, d) ]
//! ```
//!
//! where `F` is the binomial CDF. The resulting matriX-to-Vector intensity is
//! `AIX_V = 1 / (#vOps · (1 + bpv))` with `#vOps = 512 / W`.

use deca_compress::{CompressionScheme, TILE_ELEMS};
use deca_numerics::lut::lookups_per_lut_per_cycle;

use crate::KernelSignature;

/// Binomial cumulative distribution function `P(X ≤ k)` for `X ~ B(n, p)`.
///
/// Computed with a numerically stable multiplicative recurrence — exact
/// enough for the `n ≤ 64` window sizes DECA uses.
#[must_use]
pub fn binomial_cdf(k: usize, n: usize, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    if k >= n {
        return 1.0;
    }
    // The [0, 1] bounds are asserted above, so the boundary cases compare
    // exactly (no arithmetic has touched `p` yet).
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        // k < n here: with certain success, fewer than n successes never
        // happens.
        return 0.0;
    }
    let q = 1.0 - p;
    // pmf(0) = q^n, then pmf(i) = pmf(i-1) * (n-i+1)/i * p/q.
    let mut pmf = q.powi(i32::try_from(n).expect("window size fits in i32"));
    let mut cdf = pmf;
    for i in 1..=k {
        pmf *= (n - i + 1) as f64 / i as f64 * (p / q);
        cdf += pmf;
    }
    cdf.min(1.0)
}

/// The analytical model of a DECA PE's vOp pipeline for a `{W, L}` sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecaVopModel {
    /// Output elements produced per vOp (pipeline width).
    pub w: usize,
    /// Number of "big" 256-entry LUTs in the dequantization stage.
    pub l: usize,
}

impl DecaVopModel {
    /// The paper's chosen baseline sizing, `{W=32, L=8}` (§8).
    pub const BASELINE: DecaVopModel = DecaVopModel { w: 32, l: 8 };
    /// The under-provisioned sizing of Fig. 16, `{W=8, L=4}`.
    pub const UNDERPROVISIONED: DecaVopModel = DecaVopModel { w: 8, l: 4 };
    /// The over-provisioned sizing of Fig. 16, `{W=64, L=64}`.
    pub const OVERPROVISIONED: DecaVopModel = DecaVopModel { w: 64, l: 64 };

    /// Creates a sizing.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is zero or `w` does not divide the 512-element
    /// tile evenly.
    #[must_use]
    pub fn new(w: usize, l: usize) -> Self {
        assert!(w > 0 && l > 0, "W and L must be positive");
        assert!(
            TILE_ELEMS.is_multiple_of(w),
            "W={w} must divide the {TILE_ELEMS}-element tile"
        );
        DecaVopModel { w, l }
    }

    /// vOps needed per tile: `512 / W`.
    #[must_use]
    pub fn vops_per_tile(&self) -> usize {
        TILE_ELEMS / self.w
    }

    /// Maximum elements the dequantization stage can handle per cycle for a
    /// given code bit-width (`Lq`).
    #[must_use]
    pub fn lq(&self, bits: u8) -> usize {
        self.l * lookups_per_lut_per_cycle(bits)
    }

    /// Expected bubbles per vOp for a compression scheme, using the binomial
    /// model of §6.2 (deterministic `ceil(W/Lq) − 1` for dense schemes, 0
    /// for schemes that skip dequantization entirely).
    #[must_use]
    pub fn bubbles_per_vop(&self, scheme: &CompressionScheme) -> f64 {
        if !scheme.is_quantized() {
            // BF16 payloads bypass the LUT array: the dequantization stage is
            // skipped, so it cannot inject bubbles.
            return 0.0;
        }
        let lq = self.lq(scheme.format().bits());
        if lq >= self.w {
            return 0.0;
        }
        let d = scheme.density();
        if (d - 1.0).abs() < f64::EPSILON {
            return (self.w.div_ceil(lq) - 1) as f64;
        }
        let max_k = self.w.div_ceil(lq) - 1;
        let mut expected = 0.0;
        for k in 0..=max_k {
            let upper = binomial_cdf(((k + 1) * lq).min(self.w), self.w, d);
            let lower = binomial_cdf(k * lq, self.w, d);
            expected += k as f64 * (upper - lower);
        }
        expected
    }

    /// Expected cycles per vOp (`1 + bubbles`).
    #[must_use]
    pub fn cycles_per_vop(&self, scheme: &CompressionScheme) -> f64 {
        1.0 + self.bubbles_per_vop(scheme)
    }

    /// Expected cycles to decompress one full tile.
    #[must_use]
    pub fn cycles_per_tile(&self, scheme: &CompressionScheme) -> f64 {
        self.vops_per_tile() as f64 * self.cycles_per_vop(scheme)
    }

    /// The matriX-to-Vector intensity of this DECA sizing for a scheme:
    /// `1 / (#vOps · (1 + bpv))`.
    #[must_use]
    pub fn aix_v(&self, scheme: &CompressionScheme) -> f64 {
        1.0 / self.cycles_per_tile(scheme)
    }

    /// The full kernel signature of a scheme decompressed by this DECA
    /// sizing.
    #[must_use]
    pub fn signature(&self, scheme: &CompressionScheme) -> KernelSignature {
        KernelSignature::new(scheme.label(), scheme.aix_m(), self.aix_v(scheme))
    }

    /// A relative hardware-cost proxy in bytes of storage: the LUT array
    /// (`L` big LUTs × 256 BF16 entries) plus `W`-wide pipeline registers
    /// across the three stages plus the expansion crossbar's port cost.
    #[must_use]
    pub fn cost_proxy_bytes(&self) -> usize {
        let lut_bytes = self.l * 256 * 2;
        let pipeline_bytes = self.w * 2 * 3; // SD, DD, TOut registers
        let crossbar_cost = self.w * 58; // grows linearly with port count
        lut_bytes + pipeline_bytes + crossbar_cost
    }
}

impl std::fmt::Display for DecaVopModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{W={}, L={}}}", self.w, self.l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_cdf_reference_values() {
        // B(4, 0.5): P(X<=2) = (1+4+6)/16 = 0.6875.
        assert!((binomial_cdf(2, 4, 0.5) - 0.6875).abs() < 1e-12);
        assert_eq!(binomial_cdf(4, 4, 0.5), 1.0);
        assert_eq!(binomial_cdf(0, 10, 0.0), 1.0);
        assert_eq!(binomial_cdf(3, 10, 1.0), 0.0);
        assert_eq!(binomial_cdf(10, 10, 1.0), 1.0);
        // Monotone in k.
        for k in 0..32 {
            assert!(binomial_cdf(k, 32, 0.3) <= binomial_cdf(k + 1, 32, 0.3) + 1e-15);
        }
    }

    #[test]
    fn dense_8bit_bubbles_are_deterministic() {
        // §6.1: a dense 8-bit scheme always needs W/L cycles in the dequant
        // stage, i.e. W/L − 1 bubbles.
        let model = DecaVopModel::BASELINE;
        let q8 = CompressionScheme::bf8_dense();
        assert_eq!(model.bubbles_per_vop(&q8), 3.0);
        assert_eq!(model.cycles_per_tile(&q8), 64.0);
    }

    #[test]
    fn mxfp4_has_no_bubbles_at_baseline() {
        // 4-bit codes allow 4 lookups per LUT per cycle: Lq = 32 = W.
        let model = DecaVopModel::BASELINE;
        let q4 = CompressionScheme::mxfp4();
        assert_eq!(model.lq(4), 32);
        assert_eq!(model.bubbles_per_vop(&q4), 0.0);
        assert_eq!(model.cycles_per_tile(&q4), 16.0);
    }

    #[test]
    fn bf16_schemes_skip_the_dequant_stage() {
        let model = DecaVopModel::UNDERPROVISIONED;
        let q16 = CompressionScheme::bf16_sparse(0.5);
        assert_eq!(model.bubbles_per_vop(&q16), 0.0);
    }

    #[test]
    fn sparser_schemes_have_fewer_bubbles() {
        // §6.1: "the probability that the Wnd of a vOp is larger than L
        // decreases with sparsity ... naturally achieving higher throughput".
        let model = DecaVopModel::BASELINE;
        let densities = [1.0, 0.5, 0.3, 0.2, 0.1, 0.05];
        let mut previous = f64::INFINITY;
        for d in densities {
            let scheme = if d < 1.0 {
                CompressionScheme::bf8_sparse(d)
            } else {
                CompressionScheme::bf8_dense()
            };
            let bpv = model.bubbles_per_vop(&scheme);
            assert!(
                bpv <= previous + 1e-12,
                "density {d}: bpv {bpv} > {previous}"
            );
            previous = bpv;
        }
        // At 5 % density bubbles are essentially gone.
        assert!(model.bubbles_per_vop(&CompressionScheme::bf8_sparse(0.05)) < 0.01);
    }

    #[test]
    fn expected_bubbles_match_direct_monte_carlo_expectation() {
        // Cross-check the closed-form expectation against the definition
        // E[ceil(X/Lq) - 1] computed by direct summation over the pmf.
        let model = DecaVopModel::new(32, 8);
        let scheme = CompressionScheme::bf8_sparse(0.5);
        let lq = model.lq(8);
        let w = model.w;
        let d = 0.5;
        let mut direct = 0.0;
        for x in 0..=w {
            let pmf = binomial_cdf(x, w, d)
                - if x == 0 {
                    0.0
                } else {
                    binomial_cdf(x - 1, w, d)
                };
            let cycles = if x == 0 { 1 } else { x.div_ceil(lq) };
            direct += pmf * (cycles - 1) as f64;
        }
        let model_bpv = model.bubbles_per_vop(&scheme);
        assert!(
            (model_bpv - direct).abs() < 1e-9,
            "model {model_bpv} direct {direct}"
        );
    }

    #[test]
    fn aix_v_improves_with_larger_sizing() {
        let q8_50 = CompressionScheme::bf8_sparse(0.5);
        let small = DecaVopModel::UNDERPROVISIONED.aix_v(&q8_50);
        let base = DecaVopModel::BASELINE.aix_v(&q8_50);
        let big = DecaVopModel::OVERPROVISIONED.aix_v(&q8_50);
        assert!(small < base && base < big);
    }

    #[test]
    fn signature_combines_scheme_bytes_and_deca_vops() {
        let model = DecaVopModel::BASELINE;
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let sig = model.signature(&scheme);
        assert_eq!(sig.label, "Q8_20%");
        assert!((sig.bytes_per_tile() - 166.4).abs() < 1e-9);
        assert!(sig.vops_per_tile() >= 16.0);
    }

    #[test]
    fn cost_proxy_orders_the_fig16_sizings() {
        let under = DecaVopModel::UNDERPROVISIONED.cost_proxy_bytes();
        let base = DecaVopModel::BASELINE.cost_proxy_bytes();
        let over = DecaVopModel::OVERPROVISIONED.cost_proxy_bytes();
        assert!(under < base && base < over);
        // §9.2: the best sizing has 8x fewer LUTs and half the W of the
        // overprovisioned one.
        assert_eq!(
            DecaVopModel::OVERPROVISIONED.l / DecaVopModel::BASELINE.l,
            8
        );
        assert_eq!(
            DecaVopModel::OVERPROVISIONED.w / DecaVopModel::BASELINE.w,
            2
        );
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn w_must_divide_tile() {
        let _ = DecaVopModel::new(48, 8);
    }
}
