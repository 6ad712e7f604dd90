//! The DECA vector pipeline: dequantization → expansion → scaling (§6.1).
//!
//! The pipeline consumes a compressed tile as a sequence of vOps. Each vOp
//! produces `W` output elements: it reads the vOp's *window* of nonzero
//! codes from the sparse quantized queue (the window size comes from the
//! bitmask POPCNT), dequantizes them through the LUT array, expands them to
//! their dense positions with the crossbar controlled by the parallel
//! prefix sum, applies the per-group scale factors, and writes the `W`
//! results to the TOut register.
//!
//! The model here is *functional and cycle-counting*: it produces the exact
//! BF16 output tile and, per vOp, the number of cycles the dequantization
//! stage was occupied (1 plus any bubbles caused by windows larger than
//! `Lq`). The queueing/overlap behaviour across tiles is handled by
//! `deca-sim`; this module answers "how many cycles does *this* tile take in
//! the pipeline, given its actual bitmask".

use deca_compress::{
    CompressedTile, DecompressEngine, DecompressScratch, DenseTile, TILE_COLS, TILE_ELEMS,
};
use deca_numerics::{Bf16, QuantFormat};

use crate::{DecaConfig, DecaError, LutArray};

/// Per-tile timing produced by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineTiming {
    /// vOps executed (always `512 / W`).
    pub vops: u32,
    /// Bubbles injected by windows larger than `Lq`.
    pub bubbles: u32,
    /// Total cycles the tile occupied the pipeline, including the fill of
    /// the expansion and scaling stages.
    pub pipeline_cycles: u32,
}

impl PipelineTiming {
    /// Average cycles per vOp.
    #[must_use]
    pub fn cycles_per_vop(&self) -> f64 {
        if self.vops == 0 {
            0.0
        } else {
            f64::from(self.vops + self.bubbles) / f64::from(self.vops)
        }
    }
}

/// The three-stage vOp pipeline of one DECA PE.
#[derive(Debug, Clone, PartialEq)]
pub struct VopPipeline {
    w: usize,
    lut_array: LutArray,
    /// Stages after dequantization (expansion, scaling) that contribute to
    /// the pipeline fill latency of each tile.
    extra_stages: u32,
}

impl VopPipeline {
    /// Builds the pipeline for a PE configuration.
    #[must_use]
    pub fn new(config: &DecaConfig) -> Self {
        VopPipeline {
            w: config.w,
            lut_array: LutArray::new(config.l),
            extra_stages: 2,
        }
    }

    /// The pipeline width `W`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// The LUT array (e.g. to inspect the programmed format).
    #[must_use]
    pub fn lut_array(&self) -> &LutArray {
        &self.lut_array
    }

    /// Programs the LUT array for a quantized format (privileged
    /// configuration stores from the core).
    pub fn configure(&mut self, format: QuantFormat) {
        self.lut_array.program(format);
    }

    /// Processes one compressed tile, producing the dense BF16 tile and its
    /// pipeline timing.
    ///
    /// # Errors
    ///
    /// Returns [`DecaError::NotConfiguredFor`] if the LUT array is
    /// programmed for a different quantized format than the tile uses, and
    /// propagates consistency errors from the tile itself.
    pub fn process(
        &mut self,
        tile: &CompressedTile,
    ) -> Result<(DenseTile, PipelineTiming), DecaError> {
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        let timing = self.process_into(tile, &mut scratch, &mut out)?;
        Ok((out, timing))
    }

    /// Streaming variant of [`VopPipeline::process`]: writes the dense tile
    /// into a caller-provided buffer, unpacking the nonzero codes into the
    /// caller's scratch — the same zero-copy contract as
    /// [`DecompressEngine::decompress_tile_into`], plus the timing model.
    ///
    /// # Errors
    ///
    /// Same contract as [`VopPipeline::process`].
    pub fn process_into(
        &mut self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<PipelineTiming, DecaError> {
        // Same memory-structure validation as the decompression engines: a
        // corrupted tile must fault cleanly, never index out of bounds.
        tile.validate()?;
        let scheme = tile.scheme();
        let format = scheme.format();
        if format != QuantFormat::Bf16 {
            match self.lut_array.programmed_format() {
                Some(f) if f == format => {}
                _ => {
                    return Err(DecaError::NotConfiguredFor {
                        found: format.to_string(),
                    })
                }
            }
        }

        let codes = scratch.unpack(tile);
        let expansion = tile.bitmask().map(|m| {
            if m.popcount() != codes.len() {
                return Err(DecaError::Compress(
                    deca_compress::CompressError::CorruptTile {
                        reason: format!(
                            "bitmask popcount {} does not match {} codes",
                            m.popcount(),
                            codes.len()
                        ),
                    },
                ));
            }
            Ok(m.prefix_sums())
        });
        let prefix = match expansion {
            Some(result) => Some(result?),
            None => None,
        };
        let scales = tile.scales();
        let group = scheme.group_size().unwrap_or(usize::MAX);

        out.fill_zero();
        let mut bubbles = 0u32;
        let vops = (TILE_ELEMS / self.w) as u32;

        for vop in 0..vops as usize {
            let window_start = vop * self.w;
            let window_end = window_start + self.w;
            // POPCNT: determine this vOp's window in the sparse quantized
            // queue.
            let (code_start, code_end) = match &prefix {
                Some(p) => (p[window_start], p[window_end]),
                None => (window_start, window_end),
            };
            let window_codes = &codes[code_start..code_end];

            // Dequantization stage (with bubbles for oversized windows).
            let (values, cycles) = self.lut_array.dequantize(window_codes);
            bubbles += cycles - 1;

            // Expansion stage: scatter values to their dense positions.
            // Scaling stage: apply the per-group scale factors.
            match &prefix {
                Some(p) => {
                    for pos in window_start..window_end {
                        if p[pos + 1] > p[pos] {
                            let value = values[p[pos] - code_start];
                            let scaled = apply_scale(value, scales, pos, group);
                            out.set(pos / TILE_COLS, pos % TILE_COLS, scaled);
                        }
                    }
                }
                None => {
                    for (offset, value) in values.iter().enumerate() {
                        let pos = window_start + offset;
                        let scaled = apply_scale(*value, scales, pos, group);
                        out.set(pos / TILE_COLS, pos % TILE_COLS, scaled);
                    }
                }
            }
        }

        Ok(PipelineTiming {
            vops,
            bubbles,
            pipeline_cycles: vops + bubbles + self.extra_stages,
        })
    }

    /// Processes a tile and validates the functional output bit-exactly
    /// against an injected decompression engine — the cross-check the
    /// integration tests and the executor use to tie the PE's timing model
    /// to the functional ground truth, naming which backend verified it.
    ///
    /// # Errors
    ///
    /// Everything [`VopPipeline::process`] returns, plus
    /// [`DecaError::EngineMismatch`] if the engine's output differs from the
    /// pipeline's in any of the 512 BF16 bit patterns.
    pub fn process_validated(
        &mut self,
        tile: &CompressedTile,
        engine: &dyn DecompressEngine,
    ) -> Result<(DenseTile, PipelineTiming), DecaError> {
        let (out, timing) = self.process(tile)?;
        let mut reference = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        engine.decompress_tile_into(tile, &mut scratch, &mut reference)?;
        let agrees = out
            .elements()
            .iter()
            .zip(reference.elements())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !agrees {
            return Err(DecaError::EngineMismatch {
                engine: engine.name(),
            });
        }
        Ok((out, timing))
    }
}

fn apply_scale(
    value: Bf16,
    scales: &[deca_numerics::mx::ScaleE8M0],
    dense_pos: usize,
    group: usize,
) -> Bf16 {
    if scales.is_empty() {
        value
    } else {
        value * scales[dense_pos / group].to_bf16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::{generator::WeightGenerator, CompressionScheme, Compressor, Decompressor};

    fn compress_sample(scheme: CompressionScheme, seed: u64) -> CompressedTile {
        let tile = WeightGenerator::new(seed).dense_matrix(16, 32).tile(0, 0);
        Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress")
    }

    fn pipeline_for(scheme: &CompressionScheme, config: DecaConfig) -> VopPipeline {
        let mut p = VopPipeline::new(&config);
        p.configure(scheme.format());
        p
    }

    #[test]
    fn functional_output_matches_reference_decompressor() {
        for scheme in [
            CompressionScheme::bf8_dense(),
            CompressionScheme::bf8_sparse(0.3),
            CompressionScheme::mxfp4(),
            CompressionScheme::bf16_sparse(0.1),
        ] {
            let tile = compress_sample(scheme, 17);
            let mut pipeline = pipeline_for(&scheme, DecaConfig::baseline());
            let (out, _) = pipeline.process(&tile).expect("pipeline");
            let reference = Decompressor::new()
                .decompress_tile(&tile)
                .expect("reference");
            assert_eq!(out, reference, "scheme {scheme}");
        }
    }

    #[test]
    fn streaming_process_into_reuses_buffers() {
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let mut pipeline = pipeline_for(&scheme, DecaConfig::baseline());
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        // Stream two different tiles through the same buffers; each output
        // must match its own reference (no leakage from the previous tile).
        for seed in [40, 41] {
            let tile = compress_sample(scheme, seed);
            let timing = pipeline
                .process_into(&tile, &mut scratch, &mut out)
                .expect("pipeline");
            let reference = Decompressor::new()
                .decompress_tile(&tile)
                .expect("reference");
            assert_eq!(out, reference, "seed {seed}");
            assert_eq!(timing.vops, 16);
        }
    }

    #[test]
    fn process_validated_names_the_agreeing_engine() {
        for kind in deca_compress::EngineKind::all() {
            let scheme = CompressionScheme::mxfp4();
            let tile = compress_sample(scheme, 42);
            let mut pipeline = pipeline_for(&scheme, DecaConfig::baseline());
            let engine = kind.build();
            let (out, timing) = pipeline
                .process_validated(&tile, engine.as_ref())
                .expect("validated");
            assert_eq!(timing.vops, 16);
            assert!(out.nonzero_count() > 0);
        }
    }

    #[test]
    fn dense_q8_timing_is_deterministic() {
        // W=32, L=8, 8-bit codes: every vOp needs 4 dequant cycles -> 3
        // bubbles per vOp, 16 vOps, +2 fill cycles.
        let scheme = CompressionScheme::bf8_dense();
        let tile = compress_sample(scheme, 18);
        let mut pipeline = pipeline_for(&scheme, DecaConfig::baseline());
        let (_, timing) = pipeline.process(&tile).expect("pipeline");
        assert_eq!(timing.vops, 16);
        assert_eq!(timing.bubbles, 48);
        assert_eq!(timing.pipeline_cycles, 16 + 48 + 2);
        assert!((timing.cycles_per_vop() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mxfp4_has_no_bubbles() {
        let scheme = CompressionScheme::mxfp4();
        let tile = compress_sample(scheme, 19);
        let mut pipeline = pipeline_for(&scheme, DecaConfig::baseline());
        let (_, timing) = pipeline.process(&tile).expect("pipeline");
        assert_eq!(timing.bubbles, 0);
        assert_eq!(timing.pipeline_cycles, 18);
    }

    #[test]
    fn sparse_tiles_have_fewer_bubbles_than_dense() {
        let dense = compress_sample(CompressionScheme::bf8_dense(), 20);
        let sparse = compress_sample(CompressionScheme::bf8_sparse(0.2), 20);
        let mut p_dense = pipeline_for(&CompressionScheme::bf8_dense(), DecaConfig::baseline());
        let mut p_sparse =
            pipeline_for(&CompressionScheme::bf8_sparse(0.2), DecaConfig::baseline());
        let (_, t_dense) = p_dense.process(&dense).expect("pipeline");
        let (_, t_sparse) = p_sparse.process(&sparse).expect("pipeline");
        assert!(t_sparse.bubbles < t_dense.bubbles);
    }

    #[test]
    fn bf16_sparse_needs_no_lut_configuration() {
        let scheme = CompressionScheme::bf16_sparse(0.5);
        let tile = compress_sample(scheme, 21);
        let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
        // No configure() call: BF16 bypasses the LUT array.
        let (out, timing) = pipeline.process(&tile).expect("pipeline");
        assert_eq!(timing.bubbles, 0);
        assert_eq!(out.nonzero_count(), tile.nonzero_count());
    }

    #[test]
    fn forged_tiles_fault_cleanly_instead_of_panicking() {
        use deca_compress::{pack_codes, Bitmask, TILE_ELEMS};
        // A bitmask covering half a tile with a matching popcount, and a
        // group-quantized tile with a truncated scale vector: both must be
        // rejected as corrupt, exactly like the decompression engines do.
        let mut short_mask = Bitmask::new(256);
        short_mask.set(0, true);
        let short = deca_compress::CompressedTile::new_unchecked(
            CompressionScheme::bf8_sparse(0.5),
            pack_codes(&[1], 8),
            1,
            Some(short_mask),
            vec![],
        );
        let truncated_scales = deca_compress::CompressedTile::new_unchecked(
            CompressionScheme::mxfp4(),
            pack_codes(&vec![0u16; TILE_ELEMS], 4),
            TILE_ELEMS,
            None,
            vec![deca_numerics::mx::ScaleE8M0::ONE; 1],
        );
        for (tile, label) in [(short, "short bitmask"), (truncated_scales, "scales")] {
            let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
            pipeline.configure(tile.scheme().format());
            let err = pipeline.process(&tile).expect_err(label);
            assert!(matches!(err, DecaError::Compress(_)), "{label}: {err}");
        }
    }

    #[test]
    fn misconfigured_format_is_rejected() {
        let q8 = compress_sample(CompressionScheme::bf8_dense(), 22);
        let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
        pipeline.configure(QuantFormat::Fp4);
        let err = pipeline.process(&q8).expect_err("must reject");
        assert!(matches!(err, DecaError::NotConfiguredFor { .. }));
    }

    #[test]
    fn smaller_w_needs_more_vops() {
        let scheme = CompressionScheme::bf8_sparse(0.1);
        let tile = compress_sample(scheme, 23);
        let mut small = pipeline_for(&scheme, DecaConfig::underprovisioned());
        let mut base = pipeline_for(&scheme, DecaConfig::baseline());
        let (_, t_small) = small.process(&tile).expect("pipeline");
        let (_, t_base) = base.process(&tile).expect("pipeline");
        assert_eq!(t_small.vops, 64);
        assert_eq!(t_base.vops, 16);
        assert!(t_small.pipeline_cycles > t_base.pipeline_cycles);
    }

    #[test]
    fn reconfiguration_switches_formats() {
        let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
        pipeline.configure(QuantFormat::Bf8);
        let q8 = compress_sample(CompressionScheme::bf8_dense(), 24);
        assert!(pipeline.process(&q8).is_ok());
        pipeline.configure(QuantFormat::Fp4);
        let q4 = compress_sample(CompressionScheme::mxfp4(), 24);
        assert!(pipeline.process(&q4).is_ok());
        assert!(pipeline.process(&q8).is_err());
        assert_eq!(pipeline.width(), 32);
        assert_eq!(
            pipeline.lut_array().programmed_format(),
            Some(QuantFormat::Fp4)
        );
    }
}
