//! The 3D Roof-Surface model (§4.1, Fig. 4a).

use crate::{machine::effective_batch, KernelSignature, MachineConfig};

/// Which of the three rates bounds a kernel's performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundingFactor {
    /// Memory bandwidth (`MBW · AIX_M` is the minimum).
    Memory,
    /// Vector/decompression throughput (`VOS · AIX_V` is the minimum).
    Vector,
    /// Matrix throughput (`MOS` is the minimum).
    Matrix,
}

impl std::fmt::Display for BoundingFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BoundingFactor::Memory => "MEM",
            BoundingFactor::Vector => "VEC",
            BoundingFactor::Matrix => "MTX",
        };
        write!(f, "{s}")
    }
}

/// One sample of the roof surface, for 3D plotting.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceSample {
    /// matriX-to-Memory arithmetic intensity (x axis).
    pub aix_m: f64,
    /// matriX-to-Vector arithmetic intensity (y axis).
    pub aix_v: f64,
    /// Attainable FLOPS at this point (z axis).
    pub flops: f64,
    /// Which sub-surface this sample belongs to.
    pub bound: BoundingFactor,
}

/// The Roof-Surface model: `TPS = min(MBW·AIX_M, VOS·AIX_V, MOS)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoofSurface {
    /// Memory bandwidth in bytes/s.
    mbw: f64,
    /// Vector throughput in vOps/s.
    vos: f64,
    /// Matrix throughput in tile ops/s.
    mos: f64,
}

impl RoofSurface {
    /// Builds a Roof-Surface from explicit machine rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is not strictly positive.
    #[must_use]
    pub fn new(mbw: f64, vos: f64, mos: f64) -> Self {
        assert!(
            mbw > 0.0 && vos > 0.0 && mos > 0.0,
            "machine rates must be positive"
        );
        RoofSurface { mbw, vos, mos }
    }

    /// The Roof-Surface of a machine whose decompression runs on the CPU's
    /// AVX SIMD units (the software/libxsmm configuration).
    #[must_use]
    pub fn for_cpu(machine: &MachineConfig) -> Self {
        RoofSurface::new(
            machine.memory_bandwidth_bytes_per_sec(),
            machine.cpu_vos(),
            machine.mos(),
        )
    }

    /// The Roof-Surface of a machine whose decompression runs on per-core
    /// DECA PEs (one vOp per cycle per core).
    #[must_use]
    pub fn for_deca(machine: &MachineConfig) -> Self {
        RoofSurface::new(
            machine.memory_bandwidth_bytes_per_sec(),
            machine.deca_vos(),
            machine.mos(),
        )
    }

    /// Memory bandwidth (bytes/s).
    #[must_use]
    pub fn mbw(&self) -> f64 {
        self.mbw
    }

    /// Vector throughput (vOps/s).
    #[must_use]
    pub fn vos(&self) -> f64 {
        self.vos
    }

    /// Matrix throughput (tile ops/s).
    #[must_use]
    pub fn mos(&self) -> f64 {
        self.mos
    }

    /// The rate at which memory can supply compressed tiles for this kernel
    /// (tiles/s).
    #[must_use]
    pub fn memory_rate(&self, sig: &KernelSignature) -> f64 {
        self.mbw * sig.aix_m
    }

    /// The rate at which the vector hardware can decompress tiles (tiles/s).
    #[must_use]
    pub fn vector_rate(&self, sig: &KernelSignature) -> f64 {
        self.vos * sig.aix_v
    }

    /// The rate at which the matrix hardware can multiply tiles (tiles/s).
    #[must_use]
    pub fn matrix_rate(&self) -> f64 {
        self.mos
    }

    /// Tiles per second attainable by this kernel — the Roof-Surface
    /// equation (Eq. 1).
    #[must_use]
    pub fn tiles_per_second(&self, sig: &KernelSignature) -> f64 {
        self.memory_rate(sig)
            .min(self.vector_rate(sig))
            .min(self.matrix_rate())
    }

    /// Attainable FLOPS for batch size `n` (Eq. 2).
    #[must_use]
    pub fn flops(&self, sig: &KernelSignature, n: usize) -> f64 {
        crate::FLOPS_PER_TILE_OP_PER_N * effective_batch(n) as f64 * self.tiles_per_second(sig)
    }

    /// Which factor bounds this kernel. Ties are resolved in the order
    /// Memory, Vector, Matrix (a tie means the kernel sits exactly on a
    /// region boundary).
    #[must_use]
    pub fn bounding_factor(&self, sig: &KernelSignature) -> BoundingFactor {
        let mem = self.memory_rate(sig);
        let vec = self.vector_rate(sig);
        let mtx = self.matrix_rate();
        if mem <= vec && mem <= mtx {
            BoundingFactor::Memory
        } else if vec <= mem && vec <= mtx {
            BoundingFactor::Vector
        } else {
            BoundingFactor::Matrix
        }
    }

    /// How much the vector throughput would need to scale (multiplicatively)
    /// for this kernel to stop being vector-bound. Returns 1.0 if it is not
    /// vector-bound.
    #[must_use]
    pub fn required_vos_scaling(&self, sig: &KernelSignature) -> f64 {
        let vec = self.vector_rate(sig);
        let other = self.memory_rate(sig).min(self.matrix_rate());
        (other / vec).max(1.0)
    }

    /// Samples the surface on a log-spaced `resolution × resolution` grid of
    /// `(AIX_M, AIX_V)` for the 3D plot of Fig. 4a.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are not positive and increasing or
    /// `resolution < 2`.
    #[must_use]
    pub fn sample_grid(
        &self,
        aix_m_range: (f64, f64),
        aix_v_range: (f64, f64),
        resolution: usize,
        n: usize,
    ) -> Vec<SurfaceSample> {
        assert!(resolution >= 2, "resolution must be at least 2");
        assert!(
            aix_m_range.0 > 0.0 && aix_m_range.1 > aix_m_range.0,
            "invalid AIX_M range"
        );
        assert!(
            aix_v_range.0 > 0.0 && aix_v_range.1 > aix_v_range.0,
            "invalid AIX_V range"
        );
        let mut samples = Vec::with_capacity(resolution * resolution);
        for i in 0..resolution {
            for j in 0..resolution {
                let tx = i as f64 / (resolution - 1) as f64;
                let ty = j as f64 / (resolution - 1) as f64;
                let aix_m = aix_m_range.0 * (aix_m_range.1 / aix_m_range.0).powf(tx);
                let aix_v = aix_v_range.0 * (aix_v_range.1 / aix_v_range.0).powf(ty);
                let sig = KernelSignature::new("grid", aix_m, aix_v);
                samples.push(SurfaceSample {
                    aix_m,
                    aix_v,
                    flops: self.flops(&sig, n),
                    bound: self.bounding_factor(&sig),
                });
            }
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::CompressionScheme;

    fn hbm_cpu() -> RoofSurface {
        RoofSurface::for_cpu(&MachineConfig::spr_hbm())
    }

    #[test]
    fn rates_match_machine_parameters() {
        let s = hbm_cpu();
        assert!((s.mbw() - 850e9).abs() < 1.0);
        assert!((s.vos() - 280e9).abs() < 1.0);
        assert!((s.mos() - 8.75e9).abs() < 1.0);
        assert_eq!(s.matrix_rate(), s.mos());
    }

    #[test]
    fn min_of_three_rates_selects_the_bound() {
        let s = hbm_cpu();
        // BF8 5 % with the software op budget (144 vops/tile) is VEC-bound on
        // HBM (§3.3).
        let sw = KernelSignature::from_scheme_and_vops(&CompressionScheme::bf8_sparse(0.05), 144.0);
        assert_eq!(s.bounding_factor(&sw), BoundingFactor::Vector);
        assert!(s.tiles_per_second(&sw) <= s.memory_rate(&sw));
        // Uncompressed BF16 needs no decompression work to speak of: give it
        // a tiny op count and it becomes memory-bound.
        let bf16 = KernelSignature::from_scheme_and_vops(&CompressionScheme::bf16_dense(), 16.0);
        assert_eq!(s.bounding_factor(&bf16), BoundingFactor::Memory);
        // An extremely compressed kernel with almost no vector work is
        // matrix-bound.
        let mtx = KernelSignature::new("tiny", 1.0, 1.0);
        assert_eq!(s.bounding_factor(&mtx), BoundingFactor::Matrix);
        assert_eq!(s.tiles_per_second(&mtx), s.mos());
    }

    #[test]
    fn flops_scale_with_batch_and_saturate() {
        let s = hbm_cpu();
        let sig = KernelSignature::new("x", 0.002, 0.01);
        assert!((s.flops(&sig, 4) - 4.0 * s.flops(&sig, 1)).abs() < 1e-3);
        assert_eq!(s.flops(&sig, 16), s.flops(&sig, 32));
    }

    #[test]
    fn roof_surface_never_exceeds_roofline() {
        // The Roof-Surface adds a constraint, so it can only lower the bound.
        let machine = MachineConfig::spr_hbm();
        let surface = RoofSurface::for_cpu(&machine);
        let roofline = crate::Roofline::new(&machine);
        for scheme in deca_compress::SchemeSet::paper_evaluation() {
            let sig = KernelSignature::from_scheme_and_vops(&scheme, 144.0);
            let rs = surface.flops(&sig, 4);
            let rl = roofline.attainable_flops(scheme.flops_per_byte(4), 4);
            assert!(rs <= rl + 1e-3, "{scheme}: RS {rs} > RL {rl}");
        }
    }

    #[test]
    fn deca_surface_has_lower_vos_but_unchanged_mem_and_mtx() {
        let machine = MachineConfig::spr_hbm();
        let cpu = RoofSurface::for_cpu(&machine);
        let deca = RoofSurface::for_deca(&machine);
        assert!(deca.vos() < cpu.vos());
        assert_eq!(deca.mbw(), cpu.mbw());
        assert_eq!(deca.mos(), cpu.mos());
    }

    #[test]
    fn required_vos_scaling_exceeds_4x_for_some_kernels() {
        // §4.2/§7: even 4x VOS is not enough to make all kernels escape the
        // VEC-bound region.
        let s = hbm_cpu();
        let worst =
            KernelSignature::from_scheme_and_vops(&CompressionScheme::bf8_sparse(0.05), 144.0);
        assert!(s.required_vos_scaling(&worst) > 4.0);
        let mem_bound =
            KernelSignature::from_scheme_and_vops(&CompressionScheme::bf16_sparse(0.5), 96.0);
        assert_eq!(s.required_vos_scaling(&mem_bound), 1.0);
    }

    #[test]
    fn sample_grid_covers_all_three_regions() {
        let s = hbm_cpu();
        let samples = s.sample_grid((0.001, 0.02), (0.001, 0.2), 32, 4);
        assert_eq!(samples.len(), 32 * 32);
        let mem = samples
            .iter()
            .filter(|p| p.bound == BoundingFactor::Memory)
            .count();
        let vec = samples
            .iter()
            .filter(|p| p.bound == BoundingFactor::Vector)
            .count();
        let mtx = samples
            .iter()
            .filter(|p| p.bound == BoundingFactor::Matrix)
            .count();
        assert!(
            mem > 0 && vec > 0 && mtx > 0,
            "mem={mem} vec={vec} mtx={mtx}"
        );
        // FLOPS on the surface never exceed the compute roof.
        let peak = crate::FLOPS_PER_TILE_OP_PER_N * 4.0 * s.mos();
        assert!(samples.iter().all(|p| p.flops <= peak + 1e-3));
    }

    #[test]
    fn bounding_factor_display() {
        assert_eq!(BoundingFactor::Memory.to_string(), "MEM");
        assert_eq!(BoundingFactor::Vector.to_string(), "VEC");
        assert_eq!(BoundingFactor::Matrix.to_string(), "MTX");
    }
}
