//! Analytical design-space exploration over DECA's `{W, L}` sizing (§9.2).
//!
//! The paper dimensions DECA by picking the *smallest* `{W, L}` pair for
//! which the Roof-Surface model predicts that no evaluated kernel remains
//! vector-bound. This module reproduces that procedure.

use deca_compress::CompressionScheme;

use crate::{Bord, BoundingFactor, DecaVopModel, MachineConfig, RoofSurface};

/// A candidate DECA sizing together with its cost proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// The `{W, L}` sizing.
    pub model: DecaVopModel,
    /// Relative hardware cost (bytes of storage-equivalent area).
    pub cost: usize,
}

/// Result of evaluating one design point against a kernel set.
#[derive(Debug, Clone, PartialEq)]
pub struct DseOutcome {
    /// The evaluated sizing.
    pub point: DesignPoint,
    /// Kernels that remain vector-bound under this sizing.
    pub vec_bound_kernels: Vec<String>,
    /// Whether every kernel escaped the VEC region (within tolerance).
    pub all_escape_vec: bool,
    /// The minimum predicted TFLOPS across the kernel set (the worst kernel).
    pub min_tflops: f64,
    /// The geometric-mean predicted TFLOPS across the kernel set.
    pub geomean_tflops: f64,
}

/// The analytical DSE driver.
#[derive(Debug, Clone)]
pub struct DesignSpaceExploration {
    machine: MachineConfig,
    schemes: Vec<CompressionScheme>,
    batch: usize,
    /// A kernel counts as having escaped the VEC region if its vector rate
    /// is within this relative tolerance of the binding memory/matrix rate
    /// (avoids knife-edge classifications when VEC and MTX rates coincide).
    tolerance: f64,
}

impl DesignSpaceExploration {
    /// Creates a DSE over the given machine, kernel set and batch size.
    #[must_use]
    pub fn new(machine: MachineConfig, schemes: Vec<CompressionScheme>, batch: usize) -> Self {
        DesignSpaceExploration {
            machine,
            schemes,
            batch,
            tolerance: 0.02,
        }
    }

    /// Overrides the escape tolerance (default 2 %).
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The kernel set being evaluated.
    #[must_use]
    pub fn schemes(&self) -> &[CompressionScheme] {
        &self.schemes
    }

    /// Evaluates a single `{W, L}` candidate.
    #[must_use]
    pub fn evaluate(&self, model: DecaVopModel) -> DseOutcome {
        let surface = RoofSurface::for_deca(&self.machine);
        let mut vec_bound = Vec::new();
        let mut min_tflops = f64::INFINITY;
        let mut log_sum = 0.0;
        for scheme in &self.schemes {
            let sig = model.signature(scheme);
            let vec_rate = surface.vector_rate(&sig);
            let other = surface.memory_rate(&sig).min(surface.matrix_rate());
            let escapes = vec_rate >= other * (1.0 - self.tolerance);
            if !escapes {
                vec_bound.push(scheme.label());
            }
            let tflops = surface.flops(&sig, self.batch) / 1e12;
            min_tflops = min_tflops.min(tflops);
            log_sum += tflops.ln();
        }
        let geomean = (log_sum / self.schemes.len().max(1) as f64).exp();
        DseOutcome {
            point: DesignPoint {
                model,
                cost: model.cost_proxy_bytes(),
            },
            all_escape_vec: vec_bound.is_empty(),
            vec_bound_kernels: vec_bound,
            min_tflops,
            geomean_tflops: geomean,
        }
    }

    /// Evaluates a list of candidates.
    #[must_use]
    pub fn sweep(&self, candidates: &[DecaVopModel]) -> Vec<DseOutcome> {
        candidates.iter().map(|m| self.evaluate(*m)).collect()
    }

    /// The default candidate grid: `W ∈ {8, 16, 32, 64}` ×
    /// `L ∈ {4, 8, 16, 32, 64}`.
    #[must_use]
    pub fn default_grid() -> Vec<DecaVopModel> {
        let mut grid = Vec::new();
        for w in [8usize, 16, 32, 64] {
            for l in [4usize, 8, 16, 32, 64] {
                grid.push(DecaVopModel::new(w, l));
            }
        }
        grid
    }

    /// Picks the cheapest candidate (by cost proxy) for which every kernel
    /// escapes the VEC region, breaking cost ties by the smaller `W`.
    /// Returns `None` if no candidate qualifies.
    #[must_use]
    pub fn recommend(&self, candidates: &[DecaVopModel]) -> Option<DseOutcome> {
        self.sweep(candidates)
            .into_iter()
            .filter(|o| o.all_escape_vec)
            .min_by(|a, b| (a.point.cost, a.point.model.w).cmp(&(b.point.cost, b.point.model.w)))
    }

    /// The classification of every kernel on the BORD for one sizing — the
    /// data behind Fig. 16b.
    #[must_use]
    pub fn bord_regions(&self, model: DecaVopModel) -> Vec<(String, BoundingFactor)> {
        let bord = Bord::new(RoofSurface::for_deca(&self.machine));
        self.schemes
            .iter()
            .map(|s| (s.label(), bord.classify(&model.signature(s))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::SchemeSet;

    fn hbm_dse() -> DesignSpaceExploration {
        DesignSpaceExploration::new(MachineConfig::spr_hbm(), SchemeSet::paper_evaluation(), 4)
    }

    #[test]
    fn baseline_sizing_escapes_vec_for_all_kernels() {
        // §9.2: {W=32, L=8} is the smallest pair for which predicted
        // performance saturates.
        let outcome = hbm_dse().evaluate(DecaVopModel::BASELINE);
        assert!(
            outcome.all_escape_vec,
            "still VEC-bound: {:?}",
            outcome.vec_bound_kernels
        );
    }

    #[test]
    fn underprovisioned_sizing_fails() {
        let outcome = hbm_dse().evaluate(DecaVopModel::UNDERPROVISIONED);
        assert!(!outcome.all_escape_vec);
        assert!(!outcome.vec_bound_kernels.is_empty());
        // The failure includes high-compression kernels such as Q8_5%.
        assert!(outcome.vec_bound_kernels.iter().any(|k| k == "Q8_5%"));
    }

    #[test]
    fn overprovisioned_sizing_passes_but_costs_more() {
        let dse = hbm_dse();
        let best = dse.evaluate(DecaVopModel::BASELINE);
        let over = dse.evaluate(DecaVopModel::OVERPROVISIONED);
        assert!(over.all_escape_vec);
        assert!(over.point.cost > best.point.cost);
        // §9.2: the overprovisioned design is less than 3 % faster.
        assert!(over.geomean_tflops <= best.geomean_tflops * 1.03);
    }

    #[test]
    fn recommendation_is_the_papers_baseline() {
        let dse = hbm_dse();
        let pick = dse
            .recommend(&DesignSpaceExploration::default_grid())
            .expect("some design must qualify");
        assert_eq!(
            pick.point.model,
            DecaVopModel::BASELINE,
            "picked {}",
            pick.point.model
        );
    }

    #[test]
    fn smaller_candidates_in_the_grid_all_fail() {
        let dse = hbm_dse();
        let best_cost = DecaVopModel::BASELINE.cost_proxy_bytes();
        for outcome in dse.sweep(&DesignSpaceExploration::default_grid()) {
            if outcome.point.cost < best_cost {
                assert!(
                    !outcome.all_escape_vec,
                    "{} is cheaper than the baseline yet passes",
                    outcome.point.model
                );
            }
        }
    }

    #[test]
    fn bord_regions_move_out_of_vec_with_larger_sizing() {
        let dse = hbm_dse();
        let count_vec = |model| {
            dse.bord_regions(model)
                .into_iter()
                .filter(|(_, r)| *r == BoundingFactor::Vector)
                .count()
        };
        let under = count_vec(DecaVopModel::UNDERPROVISIONED);
        let base = count_vec(DecaVopModel::BASELINE);
        assert!(under > base);
    }

    #[test]
    fn min_and_geomean_are_consistent() {
        let outcome = hbm_dse().evaluate(DecaVopModel::BASELINE);
        assert!(outcome.min_tflops > 0.0);
        assert!(outcome.geomean_tflops >= outcome.min_tflops);
    }

    #[test]
    fn ddr_machine_needs_a_smaller_design() {
        // On DDR the memory roof is lower, so even a small DECA suffices for
        // more kernels than on HBM.
        let ddr =
            DesignSpaceExploration::new(MachineConfig::spr_ddr(), SchemeSet::paper_evaluation(), 4);
        let hbm = hbm_dse();
        let small = DecaVopModel::new(16, 8);
        let ddr_fail = ddr.evaluate(small).vec_bound_kernels.len();
        let hbm_fail = hbm.evaluate(small).vec_bound_kernels.len();
        assert!(ddr_fail <= hbm_fail);
    }
}
