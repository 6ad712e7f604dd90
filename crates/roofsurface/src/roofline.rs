//! The traditional 2D roofline model (Fig. 3).
//!
//! Attainable FLOPS are bounded by `min(MBW · AI, peak_flops)` where `AI` is
//! the FLOP-per-byte arithmetic intensity. The paper uses this model as the
//! baseline that *fails* to explain the observed degradation of compressed
//! GeMMs on HBM — the comparison against the Roof-Surface model is the point
//! of Fig. 3/4.

use crate::{machine::effective_batch, MachineConfig};

/// A traditional roofline for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    memory_bandwidth: f64,
    mos: f64,
}

/// One kernel plotted on the roofline: its arithmetic intensity, its optimal
/// (roofline) performance and, when available, an observed performance.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Kernel label.
    pub label: String,
    /// FLOP-per-byte arithmetic intensity.
    pub arithmetic_intensity: f64,
    /// Roofline-optimal FLOPS at this intensity.
    pub optimal_flops: f64,
    /// Observed FLOPS (e.g. from simulation), if any.
    pub observed_flops: Option<f64>,
}

impl RooflinePoint {
    /// Ratio `optimal / observed`; `None` when there is no observation.
    #[must_use]
    pub fn optimality_gap(&self) -> Option<f64> {
        self.observed_flops.map(|o| self.optimal_flops / o)
    }
}

impl Roofline {
    /// Builds the roofline of a machine.
    #[must_use]
    pub fn new(machine: &MachineConfig) -> Self {
        Roofline {
            memory_bandwidth: machine.memory_bandwidth_bytes_per_sec(),
            mos: machine.mos(),
        }
    }

    /// Peak compute FLOPS for batch size `n` (the flat roof).
    #[must_use]
    pub fn peak_flops(&self, n: usize) -> f64 {
        crate::FLOPS_PER_TILE_OP_PER_N * effective_batch(n) as f64 * self.mos
    }

    /// Attainable FLOPS at arithmetic intensity `ai` (FLOPs per byte) and
    /// batch size `n`.
    #[must_use]
    pub fn attainable_flops(&self, ai: f64, n: usize) -> f64 {
        (self.memory_bandwidth * ai).min(self.peak_flops(n))
    }

    /// The arithmetic intensity at which the kernel transitions from
    /// memory-bound to compute-bound (the roofline "ridge point").
    #[must_use]
    pub fn ridge_point(&self, n: usize) -> f64 {
        self.peak_flops(n) / self.memory_bandwidth
    }

    /// True if a kernel with intensity `ai` is memory-bandwidth bound.
    #[must_use]
    pub fn is_memory_bound(&self, ai: f64, n: usize) -> bool {
        ai < self.ridge_point(n)
    }

    /// Builds a plotted point for a kernel.
    #[must_use]
    pub fn point(
        &self,
        label: impl Into<String>,
        ai: f64,
        n: usize,
        observed_flops: Option<f64>,
    ) -> RooflinePoint {
        RooflinePoint {
            label: label.into(),
            arithmetic_intensity: ai,
            optimal_flops: self.attainable_flops(ai, n),
            observed_flops,
        }
    }

    /// Samples the roofline curve over a range of arithmetic intensities
    /// (log-spaced), for plotting.
    #[must_use]
    pub fn curve(&self, ai_min: f64, ai_max: f64, samples: usize, n: usize) -> Vec<(f64, f64)> {
        assert!(samples >= 2 && ai_min > 0.0 && ai_max > ai_min);
        let log_min = ai_min.ln();
        let log_max = ai_max.ln();
        (0..samples)
            .map(|i| {
                let t = i as f64 / (samples - 1) as f64;
                let ai = (log_min + t * (log_max - log_min)).exp();
                (ai, self.attainable_flops(ai, n))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::CompressionScheme;

    #[test]
    fn uncompressed_bf16_is_memory_bound_on_both_machines() {
        let bf16 = CompressionScheme::bf16_dense();
        for machine in [MachineConfig::spr_hbm(), MachineConfig::spr_ddr()] {
            let roofline = Roofline::new(&machine);
            let ai = bf16.flops_per_byte(4);
            assert!(roofline.is_memory_bound(ai, 4), "{}", machine.name);
            // HBM: 850 GB/s / 1024 B per tile * 2048 FLOPs = 1.7 TFLOPS.
            let flops = roofline.attainable_flops(ai, 4);
            assert!(flops < roofline.peak_flops(4));
        }
    }

    #[test]
    fn hbm_bf16_baseline_throughput() {
        let roofline = Roofline::new(&MachineConfig::spr_hbm());
        let ai = CompressionScheme::bf16_dense().flops_per_byte(1);
        // 850e9/1024 tiles/s * 512 FLOPs = 0.425 TFLOPS at N=1.
        let flops = roofline.attainable_flops(ai, 1);
        assert!((flops - 0.425e12).abs() / 0.425e12 < 0.01);
    }

    #[test]
    fn high_compression_becomes_compute_bound() {
        let roofline = Roofline::new(&MachineConfig::spr_hbm());
        let q8_5 = CompressionScheme::bf8_sparse(0.05);
        let ai = q8_5.flops_per_byte(4);
        // 2048/89.6 = 22.9 FLOPs/byte > ridge point 17.92e12/850e9 = 21.1.
        assert!(!roofline.is_memory_bound(ai, 4));
        assert_eq!(roofline.attainable_flops(ai, 4), roofline.peak_flops(4));
    }

    #[test]
    fn ridge_point_moves_with_bandwidth() {
        let hbm = Roofline::new(&MachineConfig::spr_hbm());
        let ddr = Roofline::new(&MachineConfig::spr_ddr());
        assert!(ddr.ridge_point(4) > hbm.ridge_point(4));
    }

    #[test]
    fn curve_is_monotonic_nondecreasing() {
        let roofline = Roofline::new(&MachineConfig::spr_hbm());
        let curve = roofline.curve(0.1, 100.0, 64, 4);
        assert_eq!(curve.len(), 64);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1 - 1e-6);
        }
        // The last samples sit on the flat compute roof.
        assert_eq!(curve.last().expect("nonempty").1, roofline.peak_flops(4));
    }

    #[test]
    fn optimality_gap_reports_ratio() {
        let roofline = Roofline::new(&MachineConfig::spr_hbm());
        let p = roofline.point("Q8_5%", 22.9, 4, Some(3.6e12));
        let gap = p.optimality_gap().expect("observation present");
        assert!(gap > 4.0 && gap < 5.5, "gap {gap}"); // paper reports 4.94x
        let p2 = roofline.point("Q8", 4.0, 4, None);
        assert!(p2.optimality_gap().is_none());
    }
}
