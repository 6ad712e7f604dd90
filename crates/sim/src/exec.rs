//! The per-core tile-pipeline executor.
//!
//! A compressed GeMM kernel — software (libxsmm-style) or DECA-accelerated,
//! in any integration configuration — is described to the simulator as a
//! [`TileExecModel`]: how many bytes each tile pulls from memory, how long
//! each of the per-core resources (decompression engine, core issue slots,
//! TMUL) is occupied per tile, which communication latencies are exposed on
//! the critical path, and how the kernel's invocation scheme serializes or
//! overlaps iterations.
//!
//! The executor plays a stream of tiles through four servers — the per-core
//! share of the memory channel, the decompression engine, the core front-end
//! and the TMUL — using the recurrences documented on
//! [`GemmSimulation::run`], and reports occupancy statistics.

use deca_roofsurface::MachineConfig;

use crate::{CacheConfig, GemmStats, MemoryController, MemoryTrace, PrefetchConfig, TraceEvent};

/// How the core invokes the decompression engine, which determines how much
/// cross-iteration overlap survives (§5.2–5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InvocationModel {
    /// Iterations overlap freely up to the buffering depth: the software
    /// double-buffer scheme, or TEPL-based DECA invocation. Decompression of
    /// tile *i* may start as soon as the buffer/loader used by tile
    /// *i − depth* has been handed to the consumer.
    Overlapped,
    /// Store + fence based invocation: the command that triggers tile *i*'s
    /// decompression only executes after iteration *i − depth* has fully
    /// completed, and every iteration additionally pays `overhead_cycles` of
    /// serialized core work (store drain, fence, MMIO write).
    Serialized {
        /// Per-iteration serialized overhead in cycles.
        overhead_cycles: f64,
    },
}

/// The per-tile execution profile of a compressed-GeMM kernel on one core.
#[derive(Debug, Clone, PartialEq)]
pub struct TileExecModel {
    /// Bytes fetched from memory per weight tile (compressed size).
    pub bytes_per_tile: f64,
    /// Cycles the decompression engine (the core's SIMD ports for the
    /// software kernel, the DECA PE for the accelerated one) is busy per
    /// tile.
    pub decompress_cycles_per_tile: f64,
    /// Core issue/commit-slot cycles consumed per tile (the full dynamic
    /// instruction stream of one iteration divided by the core width).
    pub core_cycles_per_tile: f64,
    /// Cycles the TMUL is busy per tile (16 on SPR).
    pub tmul_cycles_per_tile: f64,
    /// Extra latency, beyond what the prefetcher leaves exposed, between a
    /// tile's data being available and decompression starting (e.g. reading
    /// compressed data from the LLC instead of the L2).
    pub exposed_pre_latency: f64,
    /// Latency between the decompressed tile being produced and the TMUL
    /// consuming it (L2 round-trip for the base DECA integration, a TOut /
    /// tile-register read otherwise).
    pub exposed_post_latency: f64,
    /// How the decompression engine is invoked (overlapped vs serialized).
    pub invocation: InvocationModel,
    /// How many tiles may be in flight between invocation and consumption
    /// (2 with double software buffers / dual DECA Loaders).
    pub buffering_depth: usize,
    /// Prefetch behaviour covering the compressed-tile stream.
    pub prefetch: PrefetchConfig,
}

impl TileExecModel {
    /// The per-tile cycle cost that bounds steady-state throughput if every
    /// latency were perfectly hidden: the slowest per-core resource.
    #[must_use]
    pub fn steady_state_bound_cycles(&self, per_core_bytes_per_cycle: f64) -> f64 {
        let mem = self.bytes_per_tile / per_core_bytes_per_cycle;
        mem.max(self.decompress_cycles_per_tile)
            .max(self.core_cycles_per_tile)
            .max(self.tmul_cycles_per_tile)
    }

    /// Basic sanity checks, used by the simulation entry point.
    fn validate(&self) {
        assert!(self.bytes_per_tile >= 0.0, "negative bytes per tile");
        assert!(
            self.decompress_cycles_per_tile >= 0.0
                && self.core_cycles_per_tile >= 0.0
                && self.tmul_cycles_per_tile > 0.0,
            "per-tile cycle costs must be non-negative (TMUL strictly positive)"
        );
        assert!(
            self.buffering_depth >= 1,
            "at least one tile must be allowed in flight"
        );
    }
}

/// A multicore compressed-GeMM simulation.
///
/// The cores are symmetric (Parlooper assigns each an equal share of the
/// output), so one representative core is simulated against its fair share
/// of the socket's memory bandwidth; socket-level numbers scale by the core
/// count. Bandwidth contention shows up as the fair-share cap. (The explicit
/// per-core alternative that shares one socket-level controller lives in
/// [`crate::MulticoreGemmSimulation`]; the two agree in the steady-state
/// regimes the evaluation uses.)
#[derive(Debug, Clone)]
pub struct GemmSimulation {
    machine: MachineConfig,
    cache: CacheConfig,
}

impl GemmSimulation {
    /// Creates a simulation for a machine and cache configuration.
    #[must_use]
    pub fn new(machine: MachineConfig, cache: CacheConfig) -> Self {
        GemmSimulation { machine, cache }
    }

    /// The machine being simulated.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The cache configuration being simulated.
    #[must_use]
    pub fn cache(&self) -> &CacheConfig {
        &self.cache
    }

    /// Socket bytes per core cycle.
    fn socket_bytes_per_cycle(&self) -> f64 {
        self.machine.memory_bandwidth_bytes_per_sec() / self.machine.frequency_hz()
    }

    /// Runs `tiles_per_core` weight tiles through the model on every core
    /// and returns the aggregate statistics.
    ///
    /// Per tile `i` the executor applies (all times in core cycles; `depth`
    /// is the buffering depth, `run` the prefetch run-ahead in tiles):
    ///
    /// ```text
    /// mem_trigger[i]   = consume_done[i - depth - run]
    /// data_ready[i]    = mem.request(mem_trigger[i], bytes) + exposed_fetch_latency
    /// invoke[i]        = Overlapped:  consume_start[i - depth]
    ///                    Serialized:  consume_done[i - depth]
    /// decomp_start[i]  = max(data_ready[i], decomp_free, core_free, invoke[i])
    /// decomp_done[i]   = decomp_start[i] + decompress_cycles
    /// core_free        = decomp_start[i] + core_cycles
    /// consume_start[i] = max(decomp_done[i] + post_latency, tmul_free)
    /// consume_done[i]  = consume_start[i] + tmul_cycles (+ overhead if serialized)
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the model fails validation or `tiles_per_core` is zero.
    #[must_use]
    pub fn run(&self, model: &TileExecModel, tiles_per_core: usize) -> GemmStats {
        model.validate();
        assert!(tiles_per_core > 0, "must simulate at least one tile");
        self.run_once(model, tiles_per_core, |_| model.bytes_per_tile)
    }

    /// Replays an actual per-tile memory trace through the executor: every
    /// tile pays for its *own* compressed bytes (lumpy real matrices)
    /// instead of the scheme-average `bytes_per_tile` of the model, whose
    /// cycle costs and latency/overlap knobs still apply. The trace comes
    /// from [`MemoryTrace::from_matrix`], which streams the matrix through
    /// a named decompression engine.
    ///
    /// # Panics
    ///
    /// Panics if the model fails validation or the trace is empty.
    #[must_use]
    pub fn run_trace(&self, model: &TileExecModel, trace: &MemoryTrace) -> GemmStats {
        model.validate();
        assert!(!trace.is_empty(), "must simulate at least one tile");
        let events = trace.events();
        self.run_once(model, events.len(), |i| {
            TraceEvent::total_bytes(&events[i]) as f64
        })
    }

    fn run_once(
        &self,
        model: &TileExecModel,
        tiles_per_core: usize,
        bytes_of: impl Fn(usize) -> f64,
    ) -> GemmStats {
        let lines_per_tile = self.cache.lines_for(model.bytes_per_tile.max(1.0));
        let prefetch = model
            .prefetch
            .clamped_to_mshrs(self.cache.l2_mshrs, lines_per_tile);
        // The memory controller below carries no intrinsic latency; latency
        // exposure is handled explicitly so prefetching can hide it. Unloaded
        // latencies are used throughout: when bandwidth saturates, latency is
        // off the critical path anyway (the channel's busy time dominates),
        // and keeping the latency independent of the measured utilization
        // keeps the model monotone across configurations.
        let mut memory = MemoryController::fair_share(
            self.socket_bytes_per_cycle(),
            self.machine.cores,
            0.0,
            0.0,
        );
        let miss_latency = self.cache.demand_miss_latency();
        let hit_latency = self.cache.l2_hit_latency();
        let fetch_latency =
            prefetch.exposed_latency(miss_latency, hit_latency) + model.exposed_pre_latency;

        // A prefetcher keeps `distance` tiles in flight beyond the consumer's
        // own buffering, so bandwidth is consumed early and only the residual
        // (coverage-weighted) latency stays on the critical path.
        let runahead = if prefetch.is_enabled() {
            prefetch.distance_tiles.round() as usize
        } else {
            0
        };
        let depth = model.buffering_depth;
        let mem_depth = depth + runahead;
        let (serialized, overhead) = match model.invocation {
            InvocationModel::Overlapped => (false, 0.0),
            InvocationModel::Serialized { overhead_cycles } => (true, overhead_cycles),
        };

        let mut consume_start = vec![0.0f64; tiles_per_core];
        let mut consume_done = vec![0.0f64; tiles_per_core];
        let mut decomp_free = 0.0f64;
        let mut core_free = 0.0f64;
        let mut tmul_free = 0.0f64;

        for i in 0..tiles_per_core {
            let mem_trigger = if i >= mem_depth {
                consume_done[i - mem_depth]
            } else {
                0.0
            };
            let data_ready = memory.request(mem_trigger, bytes_of(i), fetch_latency);
            let invoke = if i >= depth {
                if serialized {
                    consume_done[i - depth]
                } else {
                    consume_start[i - depth]
                }
            } else {
                0.0
            };
            let decomp_start = data_ready.max(decomp_free).max(core_free).max(invoke);
            let decomp_done = decomp_start + model.decompress_cycles_per_tile;
            decomp_free = decomp_done;
            core_free = decomp_start + model.core_cycles_per_tile;
            consume_start[i] = (decomp_done + model.exposed_post_latency).max(tmul_free);
            consume_done[i] = consume_start[i]
                + model.tmul_cycles_per_tile
                + if serialized { overhead } else { 0.0 };
            tmul_free = consume_done[i];
        }

        let total_cycles = consume_done[tiles_per_core - 1];
        GemmStats {
            cores: self.machine.cores,
            tiles_per_core,
            tiles_processed: tiles_per_core * self.machine.cores,
            total_cycles,
            memory_busy_cycles: memory.busy_cycles(),
            tmul_busy_cycles: tiles_per_core as f64 * model.tmul_cycles_per_tile,
            decompress_busy_cycles: tiles_per_core as f64 * model.decompress_cycles_per_tile,
            core_issue_cycles: tiles_per_core as f64
                * (model.core_cycles_per_tile + if serialized { overhead } else { 0.0 }),
            bytes_per_core: memory.bytes_transferred(),
        }
    }

    /// Convenience wrapper: simulate enough tiles to reach steady state (a
    /// few thousand) and report socket TFLOPS for batch size `n`.
    #[must_use]
    pub fn steady_state_tflops(&self, model: &TileExecModel, n: usize) -> f64 {
        self.run(model, 4096).tflops(&self.machine, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_roofsurface::MachineConfig;

    fn base_model() -> TileExecModel {
        TileExecModel {
            bytes_per_tile: 512.0,
            decompress_cycles_per_tile: 40.0,
            core_cycles_per_tile: 30.0,
            tmul_cycles_per_tile: 16.0,
            exposed_pre_latency: 0.0,
            exposed_post_latency: 0.0,
            invocation: InvocationModel::Overlapped,
            buffering_depth: 2,
            prefetch: PrefetchConfig::stream(8),
        }
    }

    fn sim() -> GemmSimulation {
        GemmSimulation::new(MachineConfig::spr_hbm(), CacheConfig::spr())
    }

    #[test]
    fn throughput_is_bounded_by_slowest_resource() {
        let s = sim();
        let model = base_model();
        let stats = s.run(&model, 4000);
        let per_core_bpc = s.socket_bytes_per_cycle() / 56.0;
        let bound = model.steady_state_bound_cycles(per_core_bpc);
        let cpt = stats.cycles_per_tile();
        assert!(
            cpt >= bound * 0.999,
            "cycles/tile {cpt} below bound {bound}"
        );
        assert!(
            cpt <= bound * 1.10,
            "cycles/tile {cpt} far above bound {bound}"
        );
    }

    #[test]
    fn serialized_invocation_is_slower_than_overlapped() {
        let s = sim();
        // Use a compressed-enough tile that memory is not the bottleneck, so
        // the serialization penalty is visible.
        let mut overlapped_model = base_model();
        overlapped_model.bytes_per_tile = 128.0;
        let mut serial = overlapped_model.clone();
        serial.invocation = InvocationModel::Serialized {
            overhead_cycles: 36.0,
        };
        let overlapped = s.run(&overlapped_model, 2000);
        let serialized = s.run(&serial, 2000);
        assert!(
            serialized.total_cycles > overlapped.total_cycles * 1.2,
            "serialization must cost noticeably: {} vs {}",
            serialized.total_cycles,
            overlapped.total_cycles
        );
    }

    #[test]
    fn serialization_overhead_matters_more_for_cheap_tiles() {
        // The paper observes that TEPL's benefit grows as density shrinks
        // because DECA's per-tile time shrinks while communication stays
        // constant (§9.3).
        let s = sim();
        let run_pair = |decomp: f64, bytes: f64| {
            let mut fast = base_model();
            fast.decompress_cycles_per_tile = decomp;
            fast.bytes_per_tile = bytes;
            fast.exposed_post_latency = 6.0;
            let mut slow = fast.clone();
            slow.invocation = InvocationModel::Serialized {
                overhead_cycles: 36.0,
            };
            let a = s.run(&fast, 2000).total_cycles;
            let b = s.run(&slow, 2000).total_cycles;
            b / a
        };
        let penalty_dense = run_pair(64.0, 512.0);
        let penalty_sparse = run_pair(17.0, 90.0);
        assert!(
            penalty_sparse > penalty_dense,
            "sparse {penalty_sparse} dense {penalty_dense}"
        );
    }

    #[test]
    fn missing_prefetch_exposes_memory_latency() {
        let s = sim();
        let mut no_pf = base_model();
        no_pf.prefetch = PrefetchConfig::none();
        let with_pf = s.run(&base_model(), 2000);
        let without = s.run(&no_pf, 2000);
        assert!(without.total_cycles > with_pf.total_cycles);
    }

    #[test]
    fn post_latency_cost_is_bounded_by_its_face_value() {
        let s = sim();
        let mut with_post = base_model();
        with_post.exposed_post_latency = 32.0;
        let base = s.run(&base_model(), 2000);
        let post = s.run(&with_post, 2000);
        assert!(post.total_cycles >= base.total_cycles);
        let added_per_tile = (post.total_cycles - base.total_cycles) / 2000.0;
        assert!(added_per_tile <= 32.0 + 1e-9);
    }

    #[test]
    fn utilizations_are_consistent_with_bottleneck() {
        let s = sim();
        let mut mem_bound = base_model();
        mem_bound.bytes_per_tile = 1024.0;
        mem_bound.decompress_cycles_per_tile = 8.0;
        mem_bound.core_cycles_per_tile = 8.0;
        let stats = s.run(&mem_bound, 4000);
        assert!(stats.memory_utilization() > 0.9);
        assert!(stats.tmul_utilization() < 0.3);
        // FLOPS at N=1 should be near the bandwidth-bound value
        // 850e9/1024*512 = 0.425 TFLOPS.
        let tflops = stats.tflops(&MachineConfig::spr_hbm(), 1);
        assert!((tflops - 0.425).abs() < 0.03, "tflops {tflops}");
    }

    #[test]
    fn core_issue_can_become_the_bottleneck() {
        let s = sim();
        let mut front_end_bound = base_model();
        front_end_bound.core_cycles_per_tile = 120.0;
        front_end_bound.decompress_cycles_per_tile = 20.0;
        let stats = s.run(&front_end_bound, 2000);
        assert!((stats.cycles_per_tile() - 120.0).abs() / 120.0 < 0.1);
        assert!(stats.core_issue_utilization() > 0.9);
    }

    #[test]
    fn more_cores_saturate_bandwidth() {
        // Fig. 14 behaviour: with few cores the kernel is core-side bound
        // and throughput scales with cores; with many cores memory saturates.
        let machine = MachineConfig::spr_ddr();
        let model = TileExecModel {
            bytes_per_tile: 320.0,
            decompress_cycles_per_tile: 72.0,
            core_cycles_per_tile: 40.0,
            ..base_model()
        };
        let tflops_at = |cores: usize| {
            GemmSimulation::new(machine.with_cores(cores), CacheConfig::spr())
                .run(&model, 3000)
                .tflops(&machine.with_cores(cores), 4)
        };
        let t8 = tflops_at(8);
        let t16 = tflops_at(16);
        let t56 = tflops_at(56);
        assert!(t16 > 1.8 * t8, "should scale nearly linearly at low counts");
        assert!(t56 < 2.0 * t16, "must flatten once bandwidth saturates");
    }

    #[test]
    fn steady_state_helper_matches_run() {
        let s = sim();
        let model = base_model();
        let a = s.steady_state_tflops(&model, 4);
        let b = s.run(&model, 4096).tflops(&MachineConfig::spr_hbm(), 4);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_tiles_is_rejected() {
        let _ = sim().run(&base_model(), 0);
    }

    #[test]
    fn trace_replay_matches_uniform_run_for_uniform_tiles() {
        use deca_compress::{
            generator::WeightGenerator, CompressionScheme, Compressor, WordParallelEngine,
        };
        let s = sim();
        // A dense BF8 matrix compresses every tile to exactly 512 bytes, so
        // the trace-driven replay must agree with the uniform model run.
        let m = WeightGenerator::new(3).dense_matrix(256, 512);
        let cm = Compressor::new(CompressionScheme::bf8_dense())
            .compress_matrix(&m)
            .expect("compress");
        let trace = MemoryTrace::from_matrix(&cm, &WordParallelEngine::new()).expect("trace");
        let model = base_model();
        let uniform = s.run(&model, trace.len());
        let traced = s.run_trace(&model, &trace);
        assert_eq!(traced.tiles_per_core, uniform.tiles_per_core);
        assert!((traced.total_cycles - uniform.total_cycles).abs() < 1e-6);
    }

    #[test]
    fn lumpy_sparse_traces_shift_the_memory_time() {
        use deca_compress::{
            generator::WeightGenerator, CompressionScheme, Compressor, WordParallelEngine,
        };
        let s = sim();
        let scheme = CompressionScheme::bf8_sparse(0.3);
        let m = WeightGenerator::new(4).dense_matrix(256, 512);
        let cm = Compressor::new(scheme)
            .compress_matrix(&m)
            .expect("compress");
        let trace = MemoryTrace::from_matrix(&cm, &WordParallelEngine::new()).expect("trace");
        let mut model = base_model();
        model.bytes_per_tile = scheme.expected_tile_bytes();
        let traced = s.run_trace(&model, &trace);
        // The replay moves exactly the matrix's real bytes.
        assert!((traced.bytes_per_core - trace.total_bytes() as f64).abs() < 1e-6);
    }
}
