//! Memory-trace generation for compressed weight streams.
//!
//! The tile executor in [`crate::GemmSimulation`] normally replays the
//! *expected* compressed tile size of a scheme — an average. Real weight
//! matrices are lumpy: per-tile density varies, so the bytes each tile pulls
//! from memory vary too. This module walks an actual [`CompressedMatrix`]
//! through a streaming [`DecompressEngine`] (the zero-copy
//! `decompress_tile_into` API, one reused tile buffer and scratch for the
//! whole sweep) and records, per tile, exactly which memory structures a
//! DECA Loader would fetch — the nonzero payload, the bitmask and the scale
//! factors (§5.2). The resulting [`MemoryTrace`] can then drive a
//! trace-based simulation via [`crate::GemmSimulation::run_trace`], where
//! every tile pays for its own bytes instead of the scheme average.
//!
//! Streaming the tiles through the engine while tracing is not incidental:
//! it validates every tile's consistency on the way (corrupt tiles abort the
//! trace) and pins the trace to a named functional backend.

use deca_compress::{
    CompressError, CompressedMatrix, DecompressEngine, DecompressScratch, DenseTile,
};

/// The memory footprint of one compressed tile as a Loader fetches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Tile-row coordinate.
    pub tile_row: usize,
    /// Tile-column coordinate.
    pub tile_col: usize,
    /// Bytes of the packed nonzero payload.
    pub payload_bytes: usize,
    /// Bytes of the bitmask (0 for dense tiles).
    pub bitmask_bytes: usize,
    /// Bytes of the group-scale factors (0 unless group-quantized).
    pub scale_bytes: usize,
    /// Number of nonzero codes the tile stores.
    pub nonzeros: usize,
}

impl TraceEvent {
    /// Total bytes this tile pulls from memory.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.payload_bytes + self.bitmask_bytes + self.scale_bytes
    }
}

/// A per-tile memory trace of one compressed matrix, generated through a
/// named streaming decompression engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryTrace {
    engine: String,
    events: Vec<TraceEvent>,
}

impl MemoryTrace {
    /// Streams every tile of `matrix` through `engine` (validating it on
    /// the way) and records the per-tile fetch footprint in row-major tile
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`CompressError`] for inconsistent tiles;
    /// the trace is only produced if the entire matrix decompresses.
    pub fn from_matrix(
        matrix: &CompressedMatrix,
        engine: &dyn DecompressEngine,
    ) -> Result<Self, CompressError> {
        let mut tile = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        let mut events = Vec::with_capacity(matrix.tile_rows() * matrix.tile_cols());
        for tr in 0..matrix.tile_rows() {
            for tc in 0..matrix.tile_cols() {
                let compressed = matrix.tile(tr, tc);
                engine.decompress_tile_into(compressed, &mut scratch, &mut tile)?;
                events.push(TraceEvent {
                    tile_row: tr,
                    tile_col: tc,
                    payload_bytes: compressed.payload_bytes(),
                    bitmask_bytes: compressed
                        .bitmask()
                        .map_or(0, deca_compress::Bitmask::byte_size),
                    scale_bytes: compressed.scales().len(),
                    nonzeros: compressed.nonzero_count(),
                });
            }
        }
        Ok(MemoryTrace {
            engine: engine.name().to_string(),
            events,
        })
    }

    /// Name of the engine that generated (and validated) this trace.
    #[must_use]
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// The per-tile events in row-major tile order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of tiles traced.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace holds no tiles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total bytes across all tiles.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.events.iter().map(TraceEvent::total_bytes).sum()
    }

    /// Mean bytes per tile (0 for an empty trace).
    #[must_use]
    pub fn mean_bytes_per_tile(&self) -> f64 {
        if self.events.is_empty() {
            0.0
        } else {
            self.total_bytes() as f64 / self.events.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::{
        generator::WeightGenerator, CompressionScheme, Compressor, EngineKind, WordParallelEngine,
    };

    fn sample_matrix(scheme: CompressionScheme) -> CompressedMatrix {
        let m = WeightGenerator::new(12).dense_matrix(64, 64);
        Compressor::new(scheme)
            .compress_matrix(&m)
            .expect("compress")
    }

    #[test]
    fn trace_covers_every_tile_with_exact_byte_accounting() {
        let cm = sample_matrix(CompressionScheme::bf8_sparse(0.3));
        let engine = WordParallelEngine::new();
        let trace = MemoryTrace::from_matrix(&cm, &engine).expect("trace");
        assert_eq!(trace.len(), cm.tile_rows() * cm.tile_cols());
        assert_eq!(trace.total_bytes(), cm.total_bytes());
        assert_eq!(trace.engine(), "word-parallel");
        assert!(!trace.is_empty());
        for event in trace.events() {
            assert_eq!(
                event.total_bytes(),
                cm.tile(event.tile_row, event.tile_col).byte_size()
            );
            assert_eq!(event.bitmask_bytes, 64);
        }
    }

    #[test]
    fn sparse_traces_are_lumpy_but_average_to_the_scheme() {
        let scheme = CompressionScheme::bf8_sparse(0.3);
        // A naturally sparse matrix (no magnitude pruning) has binomially
        // distributed per-tile nonzero counts: the trace must be lumpy but
        // average out to the scheme's analytic tile size.
        let m = WeightGenerator::new(13).sparse_matrix(128, 128, 0.3);
        let cm = Compressor::new(scheme)
            .without_pruning()
            .compress_matrix(&m)
            .expect("compress");
        let trace =
            MemoryTrace::from_matrix(&cm, &deca_compress::ScalarEngine::new()).expect("trace");
        let mean = trace.mean_bytes_per_tile();
        let expected = scheme.expected_tile_bytes();
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs expected {expected}"
        );
        let bytes: Vec<usize> = trace.events().iter().map(TraceEvent::total_bytes).collect();
        assert!(bytes.iter().any(|b| (*b as f64) != mean));
    }

    #[test]
    fn every_engine_generates_the_same_trace() {
        let cm = sample_matrix(CompressionScheme::mxfp4());
        let reference =
            MemoryTrace::from_matrix(&cm, EngineKind::Scalar.build().as_ref()).expect("trace");
        for kind in EngineKind::all() {
            let trace = MemoryTrace::from_matrix(&cm, kind.build().as_ref()).expect("trace");
            assert_eq!(trace.events(), reference.events());
        }
    }
}
