//! DECA PE sizing and structural parameters.

use deca_roofsurface::DecaVopModel;

/// The structural configuration of one DECA PE (§6.1, §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecaConfig {
    /// Output elements produced per vOp (pipeline width `W`).
    pub w: usize,
    /// Number of 256-entry "big" LUTs in the dequantization stage (`L`).
    pub l: usize,
    /// Number of Loaders (and, equally, TOut registers); the paper uses 2 so
    /// one tile can be fetched/decompressed while the previous one is
    /// consumed.
    pub loaders: usize,
    /// Entries in each Loader's load queue (outstanding cache lines).
    pub ldq_entries: usize,
    /// Capacity of the sparse quantized queue in bytes.
    pub sqq_bytes: usize,
    /// Capacity of the bitmask queue in bytes.
    pub bitmask_queue_bytes: usize,
    /// Capacity of the scale-factor queue in bytes.
    pub scale_queue_bytes: usize,
}

impl DecaConfig {
    /// The paper's baseline PE: `W=32`, `L=8`, 2 Loaders (§8).
    #[must_use]
    pub fn baseline() -> Self {
        DecaConfig {
            w: 32,
            l: 8,
            loaders: 2,
            ldq_entries: 16,
            sqq_bytes: 2048,
            bitmask_queue_bytes: 128,
            scale_queue_bytes: 64,
        }
    }

    /// The under-provisioned sizing of Fig. 16 (`W=8`, `L=4`).
    #[must_use]
    pub fn underprovisioned() -> Self {
        DecaConfig {
            w: 8,
            l: 4,
            ..DecaConfig::baseline()
        }
    }

    /// The over-provisioned sizing of Fig. 16 (`W=64`, `L=64`).
    #[must_use]
    pub fn overprovisioned() -> Self {
        DecaConfig {
            w: 64,
            l: 64,
            ..DecaConfig::baseline()
        }
    }

    /// Builds a configuration with a custom `{W, L}` sizing and baseline
    /// queue parameters.
    ///
    /// # Panics
    ///
    /// Panics if `w` does not divide the 512-element tile or either
    /// parameter is zero (delegated to [`DecaVopModel::new`]).
    #[must_use]
    pub fn with_sizing(w: usize, l: usize) -> Self {
        // Validate through the analytic model so the constraints stay in one
        // place.
        let _ = DecaVopModel::new(w, l);
        DecaConfig {
            w,
            l,
            ..DecaConfig::baseline()
        }
    }

    /// The analytic vOp model corresponding to this sizing.
    #[must_use]
    pub fn vop_model(&self) -> DecaVopModel {
        DecaVopModel::new(self.w, self.l)
    }

    /// vOps needed per 512-element tile.
    #[must_use]
    pub fn vops_per_tile(&self) -> usize {
        self.vop_model().vops_per_tile()
    }
}

impl Default for DecaConfig {
    fn default() -> Self {
        DecaConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_sizing() {
        let c = DecaConfig::baseline();
        assert_eq!(c.w, 32);
        assert_eq!(c.l, 8);
        assert_eq!(c.loaders, 2);
        assert_eq!(c.vops_per_tile(), 16);
        assert_eq!(DecaConfig::default(), c);
    }

    #[test]
    fn fig16_sizings() {
        assert_eq!(DecaConfig::underprovisioned().w, 8);
        assert_eq!(DecaConfig::underprovisioned().l, 4);
        assert_eq!(DecaConfig::overprovisioned().w, 64);
        assert_eq!(DecaConfig::overprovisioned().l, 64);
    }

    #[test]
    fn custom_sizing_keeps_queue_parameters() {
        let c = DecaConfig::with_sizing(16, 8);
        assert_eq!(c.w, 16);
        assert_eq!(c.vops_per_tile(), 32);
        assert_eq!(c.loaders, DecaConfig::baseline().loaders);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn invalid_w_is_rejected() {
        let _ = DecaConfig::with_sizing(24, 8);
    }
}
