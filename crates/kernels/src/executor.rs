//! Runs compressed-GeMM kernels on the simulated machine.

use deca::{timing, DecaConfig, IntegrationConfig};
use deca_compress::{
    generator::WeightGenerator, CompressError, CompressionScheme, Compressor, EngineKind,
};
use deca_roofsurface::{MachineConfig, Roofline};
use deca_sim::{CacheConfig, GemmSimulation, GemmStats, TileExecModel};

use crate::{avx_model::VectorResources, software_exec_model, GemmShape, Parlooper};

/// Which decompression engine executes the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// The libxsmm-style software kernel on the core's AVX units.
    Software {
        /// The core's vector resources (stock or scaled per §7).
        resources: VectorResources,
    },
    /// The DECA-accelerated kernel.
    Deca {
        /// PE sizing.
        config: DecaConfig,
        /// Integration / invocation options.
        integration: IntegrationConfig,
    },
}

impl Engine {
    /// The stock software kernel.
    #[must_use]
    pub fn software() -> Self {
        Engine::Software {
            resources: VectorResources::spr(),
        }
    }

    /// The software kernel on a core with scaled vector resources.
    #[must_use]
    pub fn software_with(resources: VectorResources) -> Self {
        Engine::Software { resources }
    }

    /// DECA with the paper's baseline sizing and full integration
    /// (TOut registers, DECA prefetcher, TEPL).
    #[must_use]
    pub fn deca_default() -> Self {
        Engine::Deca {
            config: DecaConfig::baseline(),
            integration: IntegrationConfig::full(),
        }
    }

    /// DECA with explicit sizing and integration options.
    #[must_use]
    pub fn deca(config: DecaConfig, integration: IntegrationConfig) -> Self {
        Engine::Deca {
            config,
            integration,
        }
    }

    /// A short display label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Engine::Software { resources } => {
                if resources.width_multiplier > 1 {
                    "Wider AVX Units".to_string()
                } else if resources.simd_units > 2 {
                    "More AVX Units".to_string()
                } else {
                    "Software-only".to_string()
                }
            }
            Engine::Deca { config, .. } => format!("DECA{{W={},L={}}}", config.w, config.l),
        }
    }
}

/// The result of one simulated compressed GeMM.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmRunResult {
    /// Scheme label (`Q8_20%` etc.).
    pub scheme: String,
    /// Engine label.
    pub engine: String,
    /// Which functional decompression backend stands behind this modeled
    /// run (the engine used when cross-checking modeled numbers against the
    /// functional ground truth).
    pub decompress_engine: String,
    /// Batch size used.
    pub batch: usize,
    /// Achieved TFLOPS (FMAs/s ×1e-12) at the socket level.
    pub tflops: f64,
    /// Detailed simulation statistics.
    pub stats: GemmStats,
}

impl GemmRunResult {
    /// Speedup of this run over a baseline run.
    #[must_use]
    pub fn speedup_over(&self, baseline: &GemmRunResult) -> f64 {
        if baseline.tflops == 0.0 {
            0.0
        } else {
            self.tflops / baseline.tflops
        }
    }
}

/// Executes compressed GeMMs (software or DECA) on a simulated machine.
#[derive(Debug, Clone)]
pub struct CompressedGemmExecutor {
    machine: MachineConfig,
    cache: CacheConfig,
    steady_state_tiles: usize,
    decompress_backend: EngineKind,
}

impl CompressedGemmExecutor {
    /// Creates an executor for a machine with SPR cache parameters. The
    /// functional decompression backend defaults to the scalar reference.
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        CompressedGemmExecutor {
            machine,
            cache: CacheConfig::spr(),
            steady_state_tiles: 3000,
            decompress_backend: EngineKind::Scalar,
        }
    }

    /// Overrides the cache configuration.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Overrides how many tiles per core are simulated for steady-state
    /// measurements.
    #[must_use]
    pub fn with_steady_state_tiles(mut self, tiles: usize) -> Self {
        self.steady_state_tiles = tiles.max(1);
        self
    }

    /// Selects which functional decompression backend stands behind this
    /// executor's modeled runs (named in every [`GemmRunResult`] and used by
    /// [`CompressedGemmExecutor::verify_functional`]).
    #[must_use]
    pub fn with_decompress_backend(mut self, backend: EngineKind) -> Self {
        self.decompress_backend = backend;
        self
    }

    /// The configured functional decompression backend.
    #[must_use]
    pub fn decompress_backend(&self) -> EngineKind {
        self.decompress_backend
    }

    /// The simulated machine.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Cross-checks the configured backend against the scalar reference on
    /// a synthetic matrix compressed with `scheme`: the functional ground
    /// truth the modeled numbers stand on must be engine-independent.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::CorruptTile`] with the backend's name if
    /// the outputs differ, and propagates compression errors.
    pub fn verify_functional(&self, scheme: &CompressionScheme) -> Result<(), CompressError> {
        let weights = WeightGenerator::new(97).dense_matrix(64, 96);
        let compressed = Compressor::new(*scheme).compress_matrix(&weights)?;
        let reference = deca_compress::Decompressor::new().decompress_matrix(&compressed)?;
        let via_backend = self
            .decompress_backend
            .build()
            .decompress_matrix(&compressed)?;
        if via_backend != reference {
            return Err(CompressError::CorruptTile {
                reason: format!(
                    "backend {} disagrees with the scalar reference on {scheme}",
                    self.decompress_backend
                ),
            });
        }
        Ok(())
    }

    /// Builds the tile execution model of a scheme on an engine.
    #[must_use]
    pub fn exec_model(&self, scheme: &CompressionScheme, engine: &Engine) -> TileExecModel {
        match engine {
            Engine::Software { resources } => software_exec_model(scheme, resources),
            Engine::Deca {
                config,
                integration,
            } => timing::tile_exec_model(scheme, config, integration, &self.cache),
        }
    }

    /// Runs a steady-state compressed GeMM and reports the result.
    #[must_use]
    pub fn run(&self, scheme: &CompressionScheme, engine: Engine, batch: usize) -> GemmRunResult {
        let model = self.exec_model(scheme, &engine);
        let sim = GemmSimulation::new(self.machine.clone(), self.cache.clone());
        let stats = sim.run(&model, self.steady_state_tiles);
        GemmRunResult {
            scheme: scheme.label(),
            engine: engine.label(),
            decompress_engine: self.decompress_backend.label().to_string(),
            batch,
            tflops: stats.tflops(&self.machine, batch),
            stats,
        }
    }

    /// The uncompressed BF16 baseline the paper normalizes against
    /// (software kernel, dense BF16 weights).
    #[must_use]
    pub fn uncompressed_baseline(&self, batch: usize) -> GemmRunResult {
        self.run(&CompressionScheme::bf16_dense(), Engine::software(), batch)
    }

    /// The roofline-optimal TFLOPS of a scheme ("Optimal" in Figs. 12/13):
    /// the traditional roofline with all decompression overheads hidden.
    #[must_use]
    pub fn optimal_tflops(&self, scheme: &CompressionScheme, batch: usize) -> f64 {
        let roofline = Roofline::new(&self.machine);
        roofline.attainable_flops(scheme.flops_per_byte(batch), batch) / 1e12
    }

    /// Wall-clock seconds a full GeMM of `shape` takes with the given scheme
    /// and engine: the per-tile steady-state rate applied to the
    /// worst-loaded core of a Parlooper partition.
    #[must_use]
    pub fn gemm_seconds(
        &self,
        shape: &GemmShape,
        scheme: &CompressionScheme,
        engine: Engine,
        batch: usize,
    ) -> f64 {
        let result = self.run(scheme, engine, batch);
        let partition = Parlooper::partition(shape, self.machine.cores);
        let cycles_per_tile = result.stats.cycles_per_tile();
        // Activation-tile reuse: with batches above 16 the TMUL runs
        // ceil(N/16) operations per weight tile, but the weight traffic and
        // decompression work stay the same; the extra TMUL time only matters
        // if the kernel is TMUL-bound, which these GeMMs are not.
        partition.max_tiles_per_core() as f64 * cycles_per_tile / self.machine.frequency_hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::SchemeSet;

    fn executor() -> CompressedGemmExecutor {
        CompressedGemmExecutor::new(MachineConfig::spr_hbm()).with_steady_state_tiles(2000)
    }

    #[test]
    fn uncompressed_baseline_is_memory_bound() {
        let exec = executor();
        let base = exec.uncompressed_baseline(1);
        assert!(base.stats.memory_utilization() > 0.9);
        // ~0.4 TFLOPS at N=1 on HBM (850 GB/s / 1 KB per tile * 512 FMAs).
        assert!(
            (base.tflops - 0.42).abs() < 0.05,
            "baseline {}",
            base.tflops
        );
    }

    #[test]
    fn deca_speedup_over_software_reaches_4x_on_hbm() {
        let exec = executor();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let sw = exec.run(&scheme, Engine::software(), 1);
        let deca = exec.run(&scheme, Engine::deca_default(), 1);
        let speedup = deca.speedup_over(&sw);
        assert!(
            speedup > 3.0 && speedup < 5.5,
            "Q8_5% DECA over software: {speedup:.2} (paper: up to 4x)"
        );
    }

    #[test]
    fn deca_is_near_optimal_for_every_scheme() {
        // §9.1: "In both DDR and HBM, the performance of DECA is
        // near-optimal" (the VEC overheads are hidden).
        let exec = executor();
        for scheme in SchemeSet::paper_evaluation() {
            let deca = exec.run(&scheme, Engine::deca_default(), 1);
            let optimal = exec.optimal_tflops(&scheme, 1);
            assert!(
                deca.tflops > 0.75 * optimal,
                "{scheme}: DECA {:.2} TF vs optimal {:.2} TF",
                deca.tflops,
                optimal
            );
            assert!(deca.tflops <= optimal * 1.02);
        }
    }

    #[test]
    fn software_is_vec_bound_but_deca_is_not_for_q8_sparse() {
        let exec = executor();
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let sw = exec.run(&scheme, Engine::software(), 1);
        let deca = exec.run(&scheme, Engine::deca_default(), 1);
        assert!(sw.stats.decompress_utilization() > 0.85);
        assert!(sw.stats.memory_utilization() < 0.6);
        assert!(deca.stats.memory_utilization() > 0.8);
    }

    #[test]
    fn results_name_the_decompress_backend() {
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let base = executor();
        assert_eq!(base.decompress_backend(), EngineKind::Scalar);
        let run = base.run(&scheme, Engine::deca_default(), 1);
        assert_eq!(run.decompress_engine, "scalar");
        let word = executor().with_decompress_backend(EngineKind::WordParallel);
        let run = word.run(&scheme, Engine::deca_default(), 1);
        assert_eq!(run.decompress_engine, "word-parallel");
        // The modeled numbers do not depend on the functional backend.
        assert_eq!(
            run.tflops,
            base.run(&scheme, Engine::deca_default(), 1).tflops
        );
    }

    #[test]
    fn verify_functional_passes_for_every_backend() {
        for kind in EngineKind::all() {
            let exec = executor().with_decompress_backend(kind);
            for scheme in [
                CompressionScheme::bf8_sparse(0.3),
                CompressionScheme::mxfp4(),
            ] {
                exec.verify_functional(&scheme).expect("bit-exact backend");
            }
        }
    }

    #[test]
    fn engine_labels() {
        assert_eq!(Engine::software().label(), "Software-only");
        assert_eq!(
            Engine::software_with(VectorResources::more_avx_units()).label(),
            "More AVX Units"
        );
        assert_eq!(
            Engine::software_with(VectorResources::wider_avx_units()).label(),
            "Wider AVX Units"
        );
        assert!(Engine::deca_default().label().contains("W=32"));
    }

    #[test]
    fn gemm_seconds_scales_with_shape() {
        let exec = executor();
        let scheme = CompressionScheme::mxfp4();
        let small = GemmShape::new(1, 1024, 4096);
        let large = GemmShape::new(1, 2048, 4096);
        let t_small = exec.gemm_seconds(&small, &scheme, Engine::deca_default(), 1);
        let t_large = exec.gemm_seconds(&large, &scheme, Engine::deca_default(), 1);
        assert!(t_large > 1.8 * t_small && t_large < 2.2 * t_small);
    }

    #[test]
    fn vector_scaling_alternatives_fall_short_of_deca() {
        // Fig. 15: neither 4x more AVX units nor 4x wider AVX units matches
        // DECA.
        let exec = executor();
        let scheme = CompressionScheme::bf8_sparse(0.1);
        let deca = exec.run(&scheme, Engine::deca_default(), 1).tflops;
        let more = exec
            .run(
                &scheme,
                Engine::software_with(VectorResources::more_avx_units()),
                1,
            )
            .tflops;
        let wider = exec
            .run(
                &scheme,
                Engine::software_with(VectorResources::wider_avx_units()),
                1,
            )
            .tflops;
        assert!(deca > more, "DECA {deca:.2} vs more-units {more:.2}");
        assert!(deca > wider, "DECA {deca:.2} vs wider-units {wider:.2}");
    }
}
