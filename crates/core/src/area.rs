//! DECA area model (§8).
//!
//! The paper estimates the area of the baseline PE (`W=32`, `L=8`) with
//! CACTI for the memory structures, published numbers for the crossbar and
//! the BF16 multipliers, and technology scaling to 7 nm. The result: about
//! 2.51 mm² for 56 PEs, of which ~55 % is Loaders + input queues + TOut
//! registers, ~22 % the LUT array and ~23 % everything else; less than 0.2 %
//! of a ~1600 mm² SPR die. This module reproduces that accounting
//! parametrically so other `{W, L}` sizings can be compared.

use crate::DecaConfig;

/// Square millimetres of one baseline PE at 7 nm (56 PEs ≈ 2.51 mm²).
const BASELINE_PE_MM2: f64 = 2.51 / 56.0;
/// Fraction of the baseline PE taken by Loaders, input queues and TOut
/// registers.
const BASELINE_BUFFER_FRACTION: f64 = 0.55;
/// Fraction taken by the LUT array.
const BASELINE_LUT_FRACTION: f64 = 0.22;
/// Die area of a 56-core SPR in mm² (§8).
pub const SPR_DIE_MM2: f64 = 1600.0;

/// Area breakdown of one DECA PE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaEstimate {
    /// Loaders, SQQ, bitmask queue, scale-factor queue and TOut registers.
    pub buffers_mm2: f64,
    /// The LUT array.
    pub lut_array_mm2: f64,
    /// Expansion crossbar, prefix-sum logic, BF16 multipliers and control.
    pub datapath_mm2: f64,
}

impl AreaEstimate {
    /// Estimates the area of one PE with the given configuration.
    ///
    /// The baseline configuration reproduces the paper's numbers exactly;
    /// other sizings scale each component with its dominant structural
    /// parameter (buffer bytes, LUT count, and `W·log₂W` for the crossbar-
    /// dominated datapath).
    #[must_use]
    pub fn for_config(config: &DecaConfig) -> Self {
        let baseline = DecaConfig::baseline();
        let buffer_bytes = |c: &DecaConfig| {
            (c.sqq_bytes + c.bitmask_queue_bytes + c.scale_queue_bytes) * c.loaders
                + c.loaders * 1024 // TOut registers hold one dense tile each
                + c.loaders * c.ldq_entries * 8
        };
        let crossbar_cost = |c: &DecaConfig| c.w as f64 * (c.w as f64).log2().max(1.0);

        let buffers_mm2 = BASELINE_PE_MM2 * BASELINE_BUFFER_FRACTION * buffer_bytes(config) as f64
            / buffer_bytes(&baseline) as f64;
        let lut_array_mm2 =
            BASELINE_PE_MM2 * BASELINE_LUT_FRACTION * config.l as f64 / baseline.l as f64;
        let datapath_mm2 = BASELINE_PE_MM2
            * (1.0 - BASELINE_BUFFER_FRACTION - BASELINE_LUT_FRACTION)
            * crossbar_cost(config)
            / crossbar_cost(&baseline);
        AreaEstimate {
            buffers_mm2,
            lut_array_mm2,
            datapath_mm2,
        }
    }

    /// Total area of one PE.
    #[must_use]
    pub fn per_pe_mm2(&self) -> f64 {
        self.buffers_mm2 + self.lut_array_mm2 + self.datapath_mm2
    }

    /// Total area of `cores` PEs.
    #[must_use]
    pub fn total_mm2(&self, cores: usize) -> f64 {
        self.per_pe_mm2() * cores as f64
    }

    /// Fraction of a die of `die_mm2` consumed by `cores` PEs.
    #[must_use]
    pub fn fraction_of_die(&self, cores: usize, die_mm2: f64) -> f64 {
        self.total_mm2(cores) / die_mm2
    }

    /// Fractional breakdown `(buffers, lut_array, datapath)`.
    #[must_use]
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = self.per_pe_mm2();
        (
            self.buffers_mm2 / total,
            self.lut_array_mm2 / total,
            self.datapath_mm2 / total,
        )
    }
}

impl std::fmt::Display for AreaEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (b, l, d) = self.breakdown();
        write!(
            f,
            "{:.4} mm²/PE (buffers {:.0}%, LUT array {:.0}%, datapath {:.0}%)",
            self.per_pe_mm2(),
            b * 100.0,
            l * 100.0,
            d * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_numbers() {
        let est = AreaEstimate::for_config(&DecaConfig::baseline());
        let total = est.total_mm2(56);
        assert!((total - 2.51).abs() < 0.01, "56 PEs: {total} mm²");
        let (buffers, lut, rest) = est.breakdown();
        assert!((buffers - 0.55).abs() < 0.01);
        assert!((lut - 0.22).abs() < 0.01);
        assert!((rest - 0.23).abs() < 0.01);
        // §8: the overhead is below 0.2 % of the 1600 mm² die.
        assert!(est.fraction_of_die(56, SPR_DIE_MM2) < 0.002);
    }

    #[test]
    fn overprovisioned_design_costs_substantially_more() {
        let base = AreaEstimate::for_config(&DecaConfig::baseline());
        let over = AreaEstimate::for_config(&DecaConfig::overprovisioned());
        // 8x the LUTs and 2x the crossbar width must show up in area.
        assert!(over.lut_array_mm2 > 7.5 * base.lut_array_mm2);
        assert!(over.per_pe_mm2() > 2.0 * base.per_pe_mm2());
    }

    #[test]
    fn underprovisioned_design_is_cheaper() {
        let base = AreaEstimate::for_config(&DecaConfig::baseline());
        let under = AreaEstimate::for_config(&DecaConfig::underprovisioned());
        assert!(under.per_pe_mm2() < base.per_pe_mm2());
    }

    #[test]
    fn display_shows_breakdown() {
        let text = AreaEstimate::for_config(&DecaConfig::baseline()).to_string();
        assert!(text.contains("mm²"));
        assert!(text.contains("LUT array"));
    }
}
