//! Dense and compressed AMX weight tiles.
//!
//! A weight tile is the unit the TMUL consumes: 16 rows × 32 BF16 columns
//! (1 KB). A compressed tile stores the same logical data as three memory
//! structures — the packed nonzero array, the bitmask (when sparse) and the
//! per-group scale factors (when group-quantized) — matching the tile layout
//! DECA's Loaders fetch (§5.2).

use deca_numerics::{mx::ScaleE8M0, Bf16};

use crate::{Bitmask, CompressError, CompressionScheme, TILE_COLS, TILE_ELEMS, TILE_ROWS};

/// The logical shape of an AMX weight tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileShape {
    /// Number of rows (up to 16).
    pub rows: usize,
    /// Number of BF16 columns per row (up to 32).
    pub cols: usize,
}

impl TileShape {
    /// The full AMX weight-tile shape (16×32).
    pub const FULL: TileShape = TileShape {
        rows: TILE_ROWS,
        cols: TILE_COLS,
    };

    /// Elements in this shape.
    #[must_use]
    pub fn elems(&self) -> usize {
        self.rows * self.cols
    }
}

/// A dense 16×32 BF16 weight tile, laid out row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTile {
    data: Vec<Bf16>,
}

impl DenseTile {
    /// Creates an all-zero tile.
    #[must_use]
    pub fn zero() -> Self {
        DenseTile {
            data: vec![Bf16::ZERO; TILE_ELEMS],
        }
    }

    /// Builds a tile from exactly 512 BF16 values in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not contain exactly 512 elements.
    #[must_use]
    pub fn from_values(values: Vec<Bf16>) -> Self {
        assert_eq!(
            values.len(),
            TILE_ELEMS,
            "a dense tile holds exactly {TILE_ELEMS} elements"
        );
        DenseTile { data: values }
    }

    /// Builds a tile from f32 values (converted to BF16).
    ///
    /// # Panics
    ///
    /// Panics if `values` does not contain exactly 512 elements.
    #[must_use]
    pub fn from_f32(values: &[f32]) -> Self {
        assert_eq!(values.len(), TILE_ELEMS);
        DenseTile {
            data: values.iter().map(|v| Bf16::from_f32(*v)).collect(),
        }
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Bf16 {
        assert!(row < TILE_ROWS && col < TILE_COLS, "index out of range");
        self.data[row * TILE_COLS + col]
    }

    /// Sets element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: Bf16) {
        assert!(row < TILE_ROWS && col < TILE_COLS, "index out of range");
        self.data[row * TILE_COLS + col] = value;
    }

    /// All 512 elements in row-major order.
    #[must_use]
    pub fn elements(&self) -> &[Bf16] {
        &self.data
    }

    /// Mutable view of all 512 elements in row-major order (position
    /// `row * 32 + col`). This is the zero-copy write path the streaming
    /// decompression engines scatter into.
    pub fn elements_mut(&mut self) -> &mut [Bf16] {
        &mut self.data
    }

    /// Resets every element to zero without reallocating, so one tile
    /// buffer can be reused across streaming decompressions.
    pub fn fill_zero(&mut self) {
        self.data.fill(Bf16::ZERO);
    }

    /// One 32-element row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= 16`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[Bf16] {
        assert!(row < TILE_ROWS);
        &self.data[row * TILE_COLS..(row + 1) * TILE_COLS]
    }

    /// Number of nonzero elements.
    #[must_use]
    pub fn nonzero_count(&self) -> usize {
        self.data.iter().filter(|v| !v.is_zero()).count()
    }

    /// Fraction of nonzero elements.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nonzero_count() as f64 / TILE_ELEMS as f64
    }

    /// The dense memory footprint of the tile (always 1 KB).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        crate::TILE_BYTES_BF16
    }
}

impl Default for DenseTile {
    fn default() -> Self {
        DenseTile::zero()
    }
}

/// Packs a slice of ≤16-bit codes into bytes at the given bit width,
/// LSB-first within each byte.
#[must_use]
pub fn pack_codes(codes: &[u16], bits: u32) -> Vec<u8> {
    assert!((1..=16).contains(&bits), "bit width must be 1..=16");
    let total_bits = codes.len() * bits as usize;
    let mut bytes = vec![0u8; total_bits.div_ceil(8)];
    let mut bit_pos = 0usize;
    for &code in codes {
        let code = u32::from(code) & ((1u32 << bits) - 1);
        for b in 0..bits as usize {
            if (code >> b) & 1 == 1 {
                bytes[(bit_pos + b) / 8] |= 1 << ((bit_pos + b) % 8);
            }
        }
        bit_pos += bits as usize;
    }
    bytes
}

/// Unpacks `count` codes of `bits` bits each from a byte buffer packed with
/// [`pack_codes`].
///
/// # Panics
///
/// Panics if the buffer is too short.
#[must_use]
pub fn unpack_codes(bytes: &[u8], bits: u32, count: usize) -> Vec<u16> {
    let mut out = Vec::new();
    unpack_codes_into(bytes, bits, count, &mut out);
    out
}

/// Unpacks `count` codes of `bits` bits each into a caller-provided buffer,
/// clearing it first — the non-allocating variant of [`unpack_codes`] that
/// the streaming decompression engines reuse across tiles. Byte-aligned
/// widths (16, 8 and 4 bits — every format the paper evaluates) take a
/// direct byte path; other widths fall back to the bit-serial loop.
///
/// # Panics
///
/// Panics if the buffer is too short.
pub fn unpack_codes_into(bytes: &[u8], bits: u32, count: usize, out: &mut Vec<u16>) {
    assert!((1..=16).contains(&bits), "bit width must be 1..=16");
    assert!(
        bytes.len() * 8 >= count * bits as usize,
        "byte buffer too short: {} bytes for {count} codes of {bits} bits",
        bytes.len()
    );
    out.clear();
    out.reserve(count);
    match bits {
        16 => out.extend(
            bytes
                .chunks_exact(2)
                .take(count)
                .map(|pair| u16::from_le_bytes([pair[0], pair[1]])),
        ),
        8 => out.extend(bytes.iter().take(count).map(|&b| u16::from(b))),
        4 => {
            // Two codes per byte, low nibble first; an odd count ends on the
            // low nibble of one more byte.
            out.resize(count, 0);
            for (pair, &byte) in out.chunks_exact_mut(2).zip(bytes) {
                pair[0] = u16::from(byte & 0x0F);
                pair[1] = u16::from(byte >> 4);
            }
            if count % 2 == 1 {
                out[count - 1] = u16::from(bytes[count / 2] & 0x0F);
            }
        }
        _ => {
            let mut bit_pos = 0usize;
            for _ in 0..count {
                let mut code = 0u16;
                for b in 0..bits as usize {
                    if (bytes[(bit_pos + b) / 8] >> ((bit_pos + b) % 8)) & 1 == 1 {
                        code |= 1 << b;
                    }
                }
                out.push(code);
                bit_pos += bits as usize;
            }
        }
    }
}

/// A compressed weight tile: the three memory structures a DECA Loader
/// fetches (§5.2) plus the scheme needed to interpret them.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedTile {
    scheme: CompressionScheme,
    /// Packed nonzero codes (quantized format), row-major order of the
    /// original dense tile with zeros skipped.
    nonzero_bytes: Vec<u8>,
    /// Number of nonzero codes stored in `nonzero_bytes`.
    nonzero_count: usize,
    /// Bitmask over the 512 dense positions (present only for sparse tiles).
    bitmask: Option<Bitmask>,
    /// Per-group scale factors (present only for group-quantized formats).
    scales: Vec<ScaleE8M0>,
}

impl CompressedTile {
    /// Assembles a compressed tile from its parts, validating consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::CorruptTile`] if the bitmask popcount does
    /// not match `nonzero_count`, the byte payload is too small, a dense
    /// tile carries a bitmask, or the scale count does not match the
    /// scheme's group size.
    pub fn new(
        scheme: CompressionScheme,
        nonzero_bytes: Vec<u8>,
        nonzero_count: usize,
        bitmask: Option<Bitmask>,
        scales: Vec<ScaleE8M0>,
    ) -> Result<Self, CompressError> {
        let tile = CompressedTile {
            scheme,
            nonzero_bytes,
            nonzero_count,
            bitmask,
            scales,
        };
        tile.validate()?;
        Ok(tile)
    }

    /// Checks that the tile's three memory structures agree: the bitmask
    /// covers exactly one tile and its popcount matches the stored nonzero
    /// count, a dense tile stores every element, the payload holds all
    /// codes, and the scale vector matches the scheme's group geometry.
    ///
    /// [`CompressedTile::new`] enforces this at construction; decompression
    /// engines and the vOp pipeline re-check it on every tile so that a
    /// corrupted weight stream (reachable through [`new_unchecked`] or a
    /// hypothetical deserialization path) faults cleanly instead of
    /// indexing out of bounds or silently mis-decompressing.
    ///
    /// [`new_unchecked`]: CompressedTile::new_unchecked
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::CorruptTile`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), CompressError> {
        let corrupt = |reason: String| Err(CompressError::CorruptTile { reason });
        match (&self.bitmask, self.scheme.is_sparse()) {
            (Some(mask), true) => {
                if mask.len() != TILE_ELEMS {
                    return corrupt(format!(
                        "bitmask covers {} bits, expected {TILE_ELEMS}",
                        mask.len()
                    ));
                }
                if mask.popcount() != self.nonzero_count {
                    return corrupt(format!(
                        "bitmask popcount {} does not match nonzero count {}",
                        mask.popcount(),
                        self.nonzero_count
                    ));
                }
            }
            (None, true) => return corrupt("sparse scheme requires a bitmask".to_string()),
            (Some(_), false) => {
                return corrupt("dense scheme must not carry a bitmask".to_string())
            }
            (None, false) => {
                if self.nonzero_count != TILE_ELEMS {
                    return corrupt(format!(
                        "dense tile must store all {TILE_ELEMS} elements, got {}",
                        self.nonzero_count
                    ));
                }
            }
        }
        let needed_bits = self.nonzero_count * self.scheme.element_bits() as usize;
        if self.nonzero_bytes.len() * 8 < needed_bits {
            return corrupt(format!(
                "nonzero payload of {} bytes cannot hold {} codes of {} bits",
                self.nonzero_bytes.len(),
                self.nonzero_count,
                self.scheme.element_bits()
            ));
        }
        let expected_scales = match self.scheme.group_size() {
            Some(g) => TILE_ELEMS.div_ceil(g),
            None => 0,
        };
        if self.scales.len() != expected_scales {
            return corrupt(format!(
                "expected {expected_scales} group scales, got {}",
                self.scales.len()
            ));
        }
        Ok(())
    }

    /// The compression scheme this tile was produced with.
    #[must_use]
    pub fn scheme(&self) -> &CompressionScheme {
        &self.scheme
    }

    /// The packed nonzero payload.
    #[must_use]
    pub fn nonzero_bytes(&self) -> &[u8] {
        &self.nonzero_bytes
    }

    /// Number of nonzero codes stored.
    #[must_use]
    pub fn nonzero_count(&self) -> usize {
        self.nonzero_count
    }

    /// The bitmask, if the tile is sparse.
    #[must_use]
    pub fn bitmask(&self) -> Option<&Bitmask> {
        self.bitmask.as_ref()
    }

    /// Per-group scale factors (empty unless group-quantized).
    #[must_use]
    pub fn scales(&self) -> &[ScaleE8M0] {
        &self.scales
    }

    /// Unpacks the nonzero codes into 16-bit values (BF16 bits for Q16
    /// schemes, narrow codes otherwise).
    #[must_use]
    pub fn unpack_nonzeros(&self) -> Vec<u16> {
        unpack_codes(
            &self.nonzero_bytes,
            self.scheme.element_bits(),
            self.nonzero_count,
        )
    }

    /// Unpacks the nonzero codes into a caller-provided buffer (cleared
    /// first) — the non-allocating variant of [`unpack_nonzeros`] used by
    /// the streaming decompression engines and the vOp pipeline hot loop.
    ///
    /// [`unpack_nonzeros`]: CompressedTile::unpack_nonzeros
    pub fn unpack_nonzeros_into(&self, out: &mut Vec<u16>) {
        unpack_codes_into(
            &self.nonzero_bytes,
            self.scheme.element_bits(),
            self.nonzero_count,
            out,
        );
    }

    /// Assembles a compressed tile from its parts **without** consistency
    /// validation.
    ///
    /// This exists for fault injection: decompression engines must detect
    /// tiles whose memory structures disagree (a corrupted weight stream),
    /// and the validating [`CompressedTile::new`] makes such tiles otherwise
    /// unconstructible. Not intended for production use.
    #[doc(hidden)]
    #[must_use]
    pub fn new_unchecked(
        scheme: CompressionScheme,
        nonzero_bytes: Vec<u8>,
        nonzero_count: usize,
        bitmask: Option<Bitmask>,
        scales: Vec<ScaleE8M0>,
    ) -> Self {
        CompressedTile {
            scheme,
            nonzero_bytes,
            nonzero_count,
            bitmask,
            scales,
        }
    }

    /// Bytes of the nonzero payload as stored in memory.
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.nonzero_bytes.len()
    }

    /// Total bytes the tile occupies in memory: payload + bitmask + scales.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.payload_bytes()
            + self.bitmask.as_ref().map_or(0, Bitmask::byte_size)
            + self.scales.len()
    }

    /// Actual density of this particular tile.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nonzero_count as f64 / TILE_ELEMS as f64
    }

    /// The compression factor actually achieved by this tile.
    #[must_use]
    pub fn compression_factor(&self) -> f64 {
        crate::TILE_BYTES_BF16 as f64 / self.byte_size() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_tile_basics() {
        let mut t = DenseTile::zero();
        assert_eq!(t.nonzero_count(), 0);
        assert_eq!(t.byte_size(), 1024);
        t.set(3, 17, Bf16::from_f32(2.5));
        assert_eq!(t.get(3, 17).to_f32(), 2.5);
        assert_eq!(t.nonzero_count(), 1);
        assert_eq!(t.row(3)[17].to_f32(), 2.5);
        assert!((t.density() - 1.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn dense_tile_from_f32_roundtrip() {
        let values: Vec<f32> = (0..TILE_ELEMS).map(|i| (i as f32) * 0.25).collect();
        let t = DenseTile::from_f32(&values);
        assert_eq!(t.get(0, 1).to_f32(), 0.25);
        assert_eq!(t.get(1, 0).to_f32(), 8.0);
        assert_eq!(t.elements().len(), 512);
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn dense_tile_wrong_length_panics() {
        let _ = DenseTile::from_values(vec![Bf16::ZERO; 100]);
    }

    #[test]
    fn tile_shape_full() {
        assert_eq!(TileShape::FULL.elems(), 512);
    }

    #[test]
    fn pack_unpack_roundtrip_various_widths() {
        for bits in [1u32, 3, 4, 6, 7, 8, 12, 16] {
            let max = if bits == 16 {
                u16::MAX
            } else {
                (1u16 << bits) - 1
            };
            let codes: Vec<u16> = (0..100u16).map(|i| (i * 37 + 5) & max).collect();
            let packed = pack_codes(&codes, bits);
            assert_eq!(packed.len(), (codes.len() * bits as usize).div_ceil(8));
            let unpacked = unpack_codes(&packed, bits, codes.len());
            assert_eq!(unpacked, codes, "bit width {bits}");
        }
    }

    #[test]
    fn four_bit_codes_round_trip_for_every_count() {
        let mut unpacked = Vec::new();
        for count in 0..=513usize {
            let codes: Vec<u16> = (0..count).map(|i| ((i * 7 + count) % 16) as u16).collect();
            let packed = pack_codes(&codes, 4);
            unpack_codes_into(&packed, 4, count, &mut unpacked);
            assert_eq!(unpacked, codes, "count {count}");
        }
    }

    #[test]
    fn pack_codes_4bit_layout() {
        // Two 4-bit codes per byte, low nibble first.
        let packed = pack_codes(&[0x3, 0xA, 0xF], 4);
        assert_eq!(packed, vec![0xA3, 0x0F]);
    }

    fn sample_sparse_tile() -> CompressedTile {
        let scheme = CompressionScheme::bf8_sparse(0.25);
        let mut mask = Bitmask::new(TILE_ELEMS);
        for i in (0..TILE_ELEMS).step_by(4) {
            mask.set(i, true);
        }
        let nnz = mask.popcount();
        let codes: Vec<u16> = (0..nnz as u16).map(|i| i % 256).collect();
        let bytes = pack_codes(&codes, 8);
        CompressedTile::new(scheme, bytes, nnz, Some(mask), vec![]).expect("valid tile")
    }

    #[test]
    fn compressed_tile_byte_size_accounts_for_all_structures() {
        let t = sample_sparse_tile();
        assert_eq!(t.nonzero_count(), 128);
        assert_eq!(t.payload_bytes(), 128);
        assert_eq!(t.byte_size(), 128 + 64);
        assert!((t.density() - 0.25).abs() < 1e-12);
        assert!((t.compression_factor() - 1024.0 / 192.0).abs() < 1e-12);
    }

    #[test]
    fn compressed_tile_unpacks_codes() {
        let t = sample_sparse_tile();
        let codes = t.unpack_nonzeros();
        assert_eq!(codes.len(), 128);
        assert_eq!(codes[5], 5);
    }

    #[test]
    fn corrupt_tiles_are_rejected() {
        let scheme = CompressionScheme::bf8_sparse(0.5);
        // Missing bitmask for a sparse scheme.
        assert!(matches!(
            CompressedTile::new(scheme, vec![0; 256], 256, None, vec![]),
            Err(CompressError::CorruptTile { .. })
        ));
        // Popcount mismatch.
        let mask = Bitmask::new(TILE_ELEMS);
        assert!(CompressedTile::new(scheme, vec![0; 256], 256, Some(mask), vec![]).is_err());
        // Payload too small.
        let mut mask = Bitmask::new(TILE_ELEMS);
        mask.set(0, true);
        mask.set(1, true);
        assert!(CompressedTile::new(scheme, vec![0; 1], 2, Some(mask), vec![]).is_err());
        // Dense scheme with a bitmask.
        let dense = CompressionScheme::bf8_dense();
        assert!(CompressedTile::new(
            dense,
            vec![0; 512],
            512,
            Some(Bitmask::new(TILE_ELEMS)),
            vec![]
        )
        .is_err());
        // Dense tile that does not store every element.
        assert!(CompressedTile::new(dense, vec![0; 511], 511, None, vec![]).is_err());
        // Wrong number of scales for MXFP4.
        let mx = CompressionScheme::mxfp4();
        assert!(CompressedTile::new(mx, vec![0; 256], 512, None, vec![ScaleE8M0::ONE; 3]).is_err());
    }

    #[test]
    fn mxfp4_tile_scale_accounting() {
        let scheme = CompressionScheme::mxfp4();
        let codes = vec![0u16; TILE_ELEMS];
        let bytes = pack_codes(&codes, 4);
        let scales = vec![ScaleE8M0::ONE; 16];
        let t = CompressedTile::new(scheme, bytes, TILE_ELEMS, None, scales).expect("valid");
        assert_eq!(t.byte_size(), 256 + 16);
        assert_eq!(t.scales().len(), 16);
    }
}
