//! Offline weight compression (Fig. 1, left).
//!
//! Compression happens once, after training: weights are (optionally)
//! magnitude-pruned to the scheme's target density, quantized to the
//! scheme's element format (with per-group power-of-two scales for MX-style
//! formats), and packed into the three per-tile memory structures (nonzero
//! array, bitmask, scale factors).

use deca_numerics::{mx::ScaleE8M0, Bf16, IntCodec, Minifloat, QuantFormat};

use crate::{
    tile::pack_codes, Bitmask, CompressError, CompressedMatrix, CompressedTile, CompressionScheme,
    DenseTile, TILE_COLS, TILE_ELEMS,
};

/// Offline compressor for a single [`CompressionScheme`].
///
/// ```
/// use deca_compress::{Compressor, CompressionScheme, DenseTile};
/// let compressor = Compressor::new(CompressionScheme::bf8_dense());
/// let tile = DenseTile::zero();
/// let compressed = compressor.compress_tile(&tile)?;
/// assert_eq!(compressed.byte_size(), 512);
/// # Ok::<(), deca_compress::CompressError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compressor {
    scheme: CompressionScheme,
    prune_to_density: bool,
    /// The element codec of minifloat formats, built once: constructing a
    /// `Minifloat` enumerates and sorts every code.
    minifloat: Option<Minifloat>,
}

impl Compressor {
    /// Creates a compressor that magnitude-prunes each tile down to the
    /// scheme's density before packing (the default, matching the offline
    /// pruning flow of SparseGPT-style methods).
    #[must_use]
    pub fn new(scheme: CompressionScheme) -> Self {
        Compressor {
            scheme,
            prune_to_density: true,
            minifloat: scheme.format().minifloat(),
        }
    }

    /// Disables magnitude pruning: only values that are already exactly zero
    /// are treated as pruned. Useful when the input matrix was generated
    /// with the desired sparsity pattern.
    #[must_use]
    pub fn without_pruning(mut self) -> Self {
        self.prune_to_density = false;
        self
    }

    /// The scheme this compressor packs for.
    #[must_use]
    pub fn scheme(&self) -> &CompressionScheme {
        &self.scheme
    }

    /// Magnitude-prunes a tile's values to the scheme density, returning the
    /// surviving values (others forced to zero).
    fn pruned_values(&self, tile: &DenseTile) -> Vec<f32> {
        let mut values: Vec<f32> = tile.elements().iter().map(|b| b.to_f32()).collect();
        if !self.scheme.is_sparse() {
            return values;
        }
        let keep = ((TILE_ELEMS as f64) * self.scheme.density()).round() as usize;
        let nonzero_now = values.iter().filter(|v| **v != 0.0).count();
        if self.prune_to_density && nonzero_now > keep {
            // Find the magnitude threshold of the keep-th largest value.
            let mut magnitudes: Vec<f32> = values.iter().map(|v| v.abs()).collect();
            magnitudes.sort_by(|a, b| b.partial_cmp(a).expect("finite weights"));
            let threshold = magnitudes[keep.saturating_sub(1).min(magnitudes.len() - 1)];
            let mut kept = 0usize;
            for v in &mut values {
                if v.abs() >= threshold && *v != 0.0 && kept < keep {
                    kept += 1;
                } else {
                    *v = 0.0;
                }
            }
        }
        values
    }

    /// Computes per-group scales for group-quantized formats, one per
    /// `group_size` consecutive dense positions.
    fn group_scales(&self, values: &[f32]) -> Vec<ScaleE8M0> {
        let Some(group) = self.scheme.group_size() else {
            return Vec::new();
        };
        let element_emax = match self.scheme.format() {
            QuantFormat::Int8 => 7, // max code 127 < 2^7
            QuantFormat::Int4 => 3, // max code 7 < 2^3
            _ => self
                .minifloat
                .as_ref()
                .map_or(0, |mf| mf.max_value().log2().floor() as i32),
        };
        values
            .chunks(group)
            .map(|chunk| {
                let max_abs = chunk.iter().fold(0f32, |m, v| m.max(v.abs()));
                ScaleE8M0::for_group(max_abs, element_emax)
            })
            .collect()
    }

    /// Encodes one weight value into its storage code under an optional
    /// group scale.
    fn encode_value(&self, value: f32, scale: Option<ScaleE8M0>) -> u16 {
        let scaled = match scale {
            Some(s) => value / s.value(),
            None => value,
        };
        match self.scheme.format() {
            QuantFormat::Bf16 => Bf16::from_f32(scaled).to_bits(),
            QuantFormat::Int8 => {
                u16::from(IntCodec::int8().to_storage((scaled.round().clamp(-127.0, 127.0)) as i8))
            }
            QuantFormat::Int4 => {
                u16::from(IntCodec::int4().to_storage((scaled.round().clamp(-7.0, 7.0)) as i8))
            }
            _ => {
                let mf = self
                    .minifloat
                    .as_ref()
                    .expect("all non-BF16 float formats have a minifloat codec");
                u16::from(mf.encode(scaled))
            }
        }
    }

    /// Compresses a single dense tile.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::CorruptTile`] if the assembled tile fails
    /// validation (this indicates an internal bug rather than bad input).
    pub fn compress_tile(&self, tile: &DenseTile) -> Result<CompressedTile, CompressError> {
        let values = self.pruned_values(tile);
        let scales = self.group_scales(&values);

        let (codes, nonzero_count, bitmask) = if self.scheme.is_sparse() {
            let mask = Bitmask::from_predicate(&values, |v| *v != 0.0);
            let group = self.scheme.group_size().unwrap_or(usize::MAX);
            let codes: Vec<u16> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != 0.0)
                .map(|(i, v)| {
                    let scale = if scales.is_empty() {
                        None
                    } else {
                        Some(scales[i / group])
                    };
                    self.encode_value(*v, scale)
                })
                .collect();
            let count = codes.len();
            (codes, count, Some(mask))
        } else {
            let group = self.scheme.group_size().unwrap_or(usize::MAX);
            let codes: Vec<u16> = values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let scale = if scales.is_empty() {
                        None
                    } else {
                        Some(scales[i / group])
                    };
                    self.encode_value(*v, scale)
                })
                .collect();
            (codes, TILE_ELEMS, None)
        };

        let payload = pack_codes(&codes, self.scheme.element_bits());
        CompressedTile::new(self.scheme, payload, nonzero_count, bitmask, scales)
    }

    /// Compresses a whole matrix tile-by-tile.
    ///
    /// # Errors
    ///
    /// Propagates any tile-level error.
    pub fn compress_matrix(
        &self,
        matrix: &crate::WeightMatrix,
    ) -> Result<CompressedMatrix, CompressError> {
        let mut tiles = Vec::with_capacity(matrix.tile_count());
        for tr in 0..matrix.tile_rows() {
            for tc in 0..matrix.tile_cols() {
                tiles.push(self.compress_tile(&matrix.tile(tr, tc))?);
            }
        }
        CompressedMatrix::new(self.scheme, matrix.rows(), matrix.cols(), tiles)
    }
}

/// Convenience free function compressing a matrix under a scheme.
///
/// # Errors
///
/// Propagates compression errors from [`Compressor::compress_matrix`].
pub fn compress(
    matrix: &crate::WeightMatrix,
    scheme: CompressionScheme,
) -> Result<CompressedMatrix, CompressError> {
    Compressor::new(scheme).compress_matrix(matrix)
}

#[allow(dead_code)]
fn _columns_per_group_sanity() {
    // One MX group (32 weights) is exactly one tile row.
    const _: () = assert!(TILE_COLS == 32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WeightGenerator;

    #[test]
    fn dense_bf8_tile_has_512_payload_bytes() {
        let g = WeightGenerator::new(11);
        let m = g.dense_matrix(16, 32);
        let tile = m.tile(0, 0);
        let c = Compressor::new(CompressionScheme::bf8_dense());
        let ct = c.compress_tile(&tile).expect("compress");
        assert_eq!(ct.payload_bytes(), 512);
        assert_eq!(ct.byte_size(), 512);
        assert!(ct.bitmask().is_none());
        assert!(ct.scales().is_empty());
    }

    #[test]
    fn mxfp4_tile_has_scales_per_row_group() {
        let g = WeightGenerator::new(12);
        let m = g.dense_matrix(16, 32);
        let c = Compressor::new(CompressionScheme::mxfp4());
        let ct = c.compress_tile(&m.tile(0, 0)).expect("compress");
        assert_eq!(ct.scales().len(), 16);
        assert_eq!(ct.payload_bytes(), 256);
        assert_eq!(ct.byte_size(), 272);
    }

    #[test]
    fn sparse_tile_is_pruned_to_target_density() {
        let g = WeightGenerator::new(13);
        let m = g.dense_matrix(16, 32);
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let ct = Compressor::new(scheme)
            .compress_tile(&m.tile(0, 0))
            .expect("compress");
        let expected_nnz = (512.0 * 0.2) as usize;
        assert_eq!(ct.nonzero_count(), expected_nnz);
        assert_eq!(ct.bitmask().expect("sparse").popcount(), expected_nnz);
        assert_eq!(ct.payload_bytes(), expected_nnz);
        assert_eq!(ct.byte_size(), expected_nnz + 64);
    }

    #[test]
    fn without_pruning_keeps_existing_zero_pattern() {
        let g = WeightGenerator::new(14);
        let m = g.sparse_matrix(16, 32, 0.1);
        let actual_nnz = m.tile(0, 0).nonzero_count();
        let scheme = CompressionScheme::bf8_sparse(0.5);
        let ct = Compressor::new(scheme)
            .without_pruning()
            .compress_tile(&m.tile(0, 0))
            .expect("compress");
        assert_eq!(ct.nonzero_count(), actual_nnz);
    }

    #[test]
    fn pruning_keeps_largest_magnitudes() {
        let mut values = vec![0.0f32; TILE_ELEMS];
        // Plant 4 large values and many small ones.
        for (i, v) in values.iter_mut().enumerate() {
            *v = 0.001 + (i as f32) * 1e-6;
        }
        values[10] = 5.0;
        values[100] = -6.0;
        values[200] = 4.0;
        values[300] = -7.0;
        let tile = DenseTile::from_f32(&values);
        // Keep only ~1% = 5 values.
        let scheme = CompressionScheme::bf8_sparse(0.01);
        let ct = Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress");
        let mask = ct.bitmask().expect("sparse");
        assert!(mask.get(10) && mask.get(100) && mask.get(200) && mask.get(300));
        assert_eq!(ct.nonzero_count(), 5);
    }

    #[test]
    fn matrix_compression_covers_all_tiles() {
        let g = WeightGenerator::new(15);
        let m = g.dense_matrix(48, 96);
        let cm = compress(&m, CompressionScheme::bf8_dense()).expect("compress");
        assert_eq!(cm.tiles().len(), 3 * 3);
        assert_eq!(cm.total_bytes(), 9 * 512);
        assert!((cm.compression_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bf16_sparse_stores_raw_bf16_bits() {
        let mut values = vec![0.0f32; TILE_ELEMS];
        values[0] = 1.0;
        values[511] = -2.0;
        let tile = DenseTile::from_f32(&values);
        let scheme = CompressionScheme::bf16_sparse(0.05);
        let ct = Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress");
        let codes = ct.unpack_nonzeros();
        assert_eq!(codes.len(), 2);
        assert_eq!(Bf16::from_bits(codes[0]).to_f32(), 1.0);
        assert_eq!(Bf16::from_bits(codes[1]).to_f32(), -2.0);
    }

    #[test]
    fn measured_matrix_density_matches_scheme() {
        let g = WeightGenerator::new(16);
        let m = g.dense_matrix(64, 64);
        let scheme = CompressionScheme::bf8_sparse(0.3);
        let cm = compress(&m, scheme).expect("compress");
        assert!(
            (cm.density() - 0.3).abs() < 0.01,
            "density {}",
            cm.density()
        );
    }
}
