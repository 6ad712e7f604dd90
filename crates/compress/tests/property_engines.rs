//! Property-based tests for the pluggable decompression engines.
//!
//! The contract every backend must honor: for any consistent compressed
//! tile, under every compression scheme (dense and sparse, every quantized
//! format), the engine's output is **bit-identical** to the scalar
//! reference's — and inconsistent tiles are rejected with
//! `CompressError::CorruptTile`, never silently decompressed.

use deca_compress::{
    generator::WeightGenerator, pack_codes, Bitmask, CompressError, CompressedTile,
    CompressionScheme, Compressor, DecompressEngine, DecompressScratch, Decompressor, DenseTile,
    EngineKind, ScalarEngine, SimdEngine, TILE_ELEMS,
};
use deca_numerics::{mx::ScaleE8M0, QuantFormat};
use proptest::prelude::*;

/// Every quantized format × dense/sparse combination the substrate
/// supports, indexed for proptest.
fn scheme_for(format_idx: usize, density: f64) -> CompressionScheme {
    let formats = [
        QuantFormat::Bf16,
        QuantFormat::Bf8,
        QuantFormat::E4m3,
        QuantFormat::Fp4,
        QuantFormat::Int8,
        QuantFormat::Int4,
        QuantFormat::Custom {
            exp_bits: 3,
            man_bits: 2,
        },
    ];
    let format = formats[format_idx % formats.len()];
    // Group quantization for the formats that need an external scale
    // (MX-style 4-bit and integer codes), none otherwise.
    let group = match format {
        QuantFormat::Fp4 | QuantFormat::Int8 | QuantFormat::Int4 => Some(32),
        _ => None,
    };
    CompressionScheme::new(format, density, group).expect("valid scheme")
}

fn decompress_with(engine: &dyn DecompressEngine, tile: &CompressedTile) -> DenseTile {
    let mut out = DenseTile::zero();
    let mut scratch = DecompressScratch::new();
    engine
        .decompress_tile_into(tile, &mut scratch, &mut out)
        .expect("engine decompression");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three engines produce bit-identical dense tiles to the scalar
    /// reference across every scheme (dense + sparse, all formats).
    #[test]
    fn engines_are_bit_identical_to_the_reference(
        seed in 0u64..500,
        format_idx in 0usize..7,
        density_pct in 5u32..=100,
    ) {
        let scheme = scheme_for(format_idx, f64::from(density_pct) / 100.0);
        let tile = WeightGenerator::new(seed).dense_matrix(16, 32).tile(0, 0);
        let compressed = Compressor::new(scheme).compress_tile(&tile).expect("compress");
        let reference = Decompressor::new().decompress_tile(&compressed).expect("reference");
        for kind in EngineKind::all() {
            let out = decompress_with(kind.build().as_ref(), &compressed);
            for (pos, (a, b)) in reference.elements().iter().zip(out.elements()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{} disagrees at position {} under {}", kind, pos, scheme
                );
            }
        }
    }

    /// Whole-matrix decompression (including the threaded fan-out path and
    /// ragged edge tiles) agrees with the reference for every engine.
    #[test]
    fn matrix_decompression_is_engine_independent(
        seed in 0u64..200,
        rows in 1usize..70,
        cols in 1usize..70,
        format_idx in 0usize..7,
        sparse in any::<bool>(),
    ) {
        let density = if sparse { 0.3 } else { 1.0 };
        let scheme = scheme_for(format_idx, density);
        let m = WeightGenerator::new(seed).dense_matrix(rows, cols);
        let cm = Compressor::new(scheme).compress_matrix(&m).expect("compress");
        let reference = Decompressor::new().decompress_matrix(&cm).expect("reference");
        for kind in EngineKind::all() {
            let out = kind.build().decompress_matrix(&cm).expect("engine");
            prop_assert_eq!(&out, &reference, "{} under {}", kind, scheme);
        }
    }

    /// The streaming scratch/output buffers can be reused across arbitrary
    /// scheme sequences without leaking state between tiles.
    #[test]
    fn buffer_reuse_never_leaks_between_tiles(
        seed_a in 0u64..200,
        seed_b in 0u64..200,
        fmt_a in 0usize..7,
        fmt_b in 0usize..7,
    ) {
        let dense = scheme_for(fmt_a, 1.0);
        let sparse = scheme_for(fmt_b, 0.2);
        let tile_a = WeightGenerator::new(seed_a).dense_matrix(16, 32).tile(0, 0);
        let tile_b = WeightGenerator::new(seed_b).dense_matrix(16, 32).tile(0, 0);
        let a = Compressor::new(dense).compress_tile(&tile_a).expect("compress");
        let b = Compressor::new(sparse).compress_tile(&tile_b).expect("compress");
        let reference = Decompressor::new().decompress_tile(&b).expect("reference");
        for kind in EngineKind::all() {
            let engine = kind.build();
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            engine.decompress_tile_into(&a, &mut scratch, &mut out).expect("dense tile");
            engine.decompress_tile_into(&b, &mut scratch, &mut out).expect("sparse tile");
            prop_assert_eq!(&out, &reference, "{}", kind);
        }
    }

    /// The SIMD engine stays bit-identical whichever path runs: the
    /// feature-detected vector kernels and the forced portable fallback
    /// (the path non-AVX2 hosts always take) agree with the reference on
    /// every scheme.
    #[test]
    fn simd_fallback_is_bit_identical_to_the_reference(
        seed in 0u64..500,
        format_idx in 0usize..7,
        density_pct in 5u32..=100,
    ) {
        let scheme = scheme_for(format_idx, f64::from(density_pct) / 100.0);
        let tile = WeightGenerator::new(seed).dense_matrix(16, 32).tile(0, 0);
        let compressed = Compressor::new(scheme).compress_tile(&tile).expect("compress");
        let reference = Decompressor::new().decompress_tile(&compressed).expect("reference");
        for engine in [SimdEngine::new(), SimdEngine::portable()] {
            let out = decompress_with(&engine, &compressed);
            for (pos, (a, b)) in reference.elements().iter().zip(out.elements()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "simd (avx2={}) disagrees at position {} under {}",
                    engine.uses_avx2(), pos, scheme
                );
            }
        }
    }

    /// `Int4` with group scales, dense and sparse, under the compressor's
    /// scales and under arbitrary forged scale codes (normal, subnormal,
    /// infinite, and shifts that push entries out of the normal range).
    #[test]
    fn int4_group_scaled_tiles_match_the_scalar_engine(
        seed in 0u64..500,
        density_pct in 5u32..=100,
        forged_scales in proptest::collection::vec(any::<u8>(), 16),
    ) {
        let scheme = CompressionScheme::new(QuantFormat::Int4, f64::from(density_pct) / 100.0, Some(32))
            .expect("valid scheme");
        let tile = WeightGenerator::new(seed).dense_matrix(16, 32).tile(0, 0);
        let compressed = Compressor::new(scheme).compress_tile(&tile).expect("compress");
        let forged = CompressedTile::new_unchecked(
            scheme,
            compressed.nonzero_bytes().to_vec(),
            compressed.nonzero_count(),
            compressed.bitmask().cloned(),
            forged_scales.into_iter().map(ScaleE8M0::from_code).collect(),
        );
        for tile in [&compressed, &forged] {
            if let Err(msg) = engines_agree_with_scalar(tile) {
                return Err(TestCaseError::fail(format!("{msg} under {scheme}")));
            }
        }
    }
}

/// Every engine, plus the forced portable fallback of the SIMD engine,
/// against [`ScalarEngine`] on one tile: `Err` names the first disagreement.
fn engines_agree_with_scalar(tile: &CompressedTile) -> Result<(), String> {
    let expected = decompress_with(&ScalarEngine::new(), tile);
    let mut engines: Vec<(String, Box<dyn DecompressEngine>)> = EngineKind::all()
        .into_iter()
        .map(|kind| (kind.to_string(), kind.build()))
        .collect();
    engines.push((
        "simd-portable".to_string(),
        Box::new(SimdEngine::portable()),
    ));
    for (name, engine) in &engines {
        let out = decompress_with(engine.as_ref(), tile);
        for (pos, (a, b)) in expected.elements().iter().zip(out.elements()).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "{name} gives {:#06x} at position {pos}, scalar {:#06x}",
                    b.to_bits(),
                    a.to_bits()
                ));
            }
        }
    }
    Ok(())
}

/// A sparse bitmask with an odd popcount (341 of 512), so the 4-bit
/// kernels run their vector body and an odd-length tail.
fn odd_popcount_mask() -> Bitmask {
    let mut mask = Bitmask::new(TILE_ELEMS);
    for pos in (0..TILE_ELEMS).filter(|pos| pos % 3 != 0) {
        mask.set(pos, true);
    }
    mask
}

/// Forged MXFP4 tiles that put every 4-bit code in every scale group under
/// every E8M0 scale code, dense and sparse. Each scale code runs twice: on
/// all 16 groups of a tile (so an eligible code takes the exponent-add
/// scale pass) and mixed with 15 other codes (so one ineligible group sends
/// the whole tile to the multiply).
#[test]
fn every_four_bit_code_under_every_scale_code_matches_the_scalar_engine() {
    let mask = odd_popcount_mask();
    let dense_codes: Vec<u16> = (0..TILE_ELEMS).map(|pos| (pos % 16) as u16).collect();
    let sparse_codes: Vec<u16> = (0..mask.popcount())
        .map(|i| ((i * 5) % 16) as u16)
        .collect();
    for code in 0..=255u8 {
        let uniform = vec![ScaleE8M0::from_code(code); 16];
        let mixed: Vec<ScaleE8M0> = (0..16u8)
            .map(|g| ScaleE8M0::from_code(code.wrapping_add(g.wrapping_mul(17))))
            .collect();
        for scales in [uniform, mixed] {
            let dense = CompressedTile::new_unchecked(
                CompressionScheme::mxfp4(),
                pack_codes(&dense_codes, 4),
                TILE_ELEMS,
                None,
                scales.clone(),
            );
            let sparse = CompressedTile::new_unchecked(
                CompressionScheme::mxfp4_sparse(0.5),
                pack_codes(&sparse_codes, 4),
                sparse_codes.len(),
                Some(mask.clone()),
                scales,
            );
            for tile in [&dense, &sparse] {
                tile.validate()
                    .expect("forged tiles are structurally valid");
                if let Err(msg) = engines_agree_with_scalar(tile) {
                    panic!("scale code {code} on {}: {msg}", tile.scheme());
                }
            }
        }
    }
}

/// A sparse tile whose bitmask claims more nonzeros than the payload stores
/// (a corrupted weight stream).
fn forged_popcount_mismatch() -> CompressedTile {
    let scheme = CompressionScheme::bf8_sparse(0.5);
    let mut mask = Bitmask::new(TILE_ELEMS);
    for i in 0..256 {
        mask.set(i, true);
    }
    let codes: Vec<u16> = (0..200u16).collect(); // 56 codes short
    let bytes = pack_codes(&codes, 8);
    CompressedTile::new_unchecked(scheme, bytes, codes.len(), Some(mask), vec![])
}

/// A dense tile that stores fewer than 512 codes.
fn forged_short_dense() -> CompressedTile {
    let scheme = CompressionScheme::bf8_dense();
    let codes: Vec<u16> = (0..400u16).collect();
    let bytes = pack_codes(&codes, 8);
    CompressedTile::new_unchecked(scheme, bytes, codes.len(), None, vec![])
}

/// A dense MXFP4 tile whose payload holds 400 of its 512 nibbles: the 4-bit
/// kernel reads the payload through raw pointers, so validation must reject
/// the tile before it runs.
fn forged_short_dense_nibbles() -> CompressedTile {
    let codes = vec![7u16; 400];
    CompressedTile::new_unchecked(
        CompressionScheme::mxfp4(),
        pack_codes(&codes, 4),
        TILE_ELEMS,
        None,
        vec![ScaleE8M0::ONE; 16],
    )
}

/// A group-quantized tile whose scale vector was truncated (or stripped):
/// indexing `scales[pos / group]` must never be reachable.
fn forged_scale_count(scales: usize) -> CompressedTile {
    let scheme = CompressionScheme::mxfp4(); // needs 512/32 = 16 scales
    let codes = vec![0u16; TILE_ELEMS];
    let bytes = pack_codes(&codes, 4);
    CompressedTile::new_unchecked(
        scheme,
        bytes,
        TILE_ELEMS,
        None,
        vec![ScaleE8M0::ONE; scales],
    )
}

/// A sparse tile whose bitmask covers more than one tile's worth of
/// positions, with a bit set past position 511: expansion must never write
/// out of bounds.
fn forged_oversized_bitmask() -> CompressedTile {
    let scheme = CompressionScheme::bf8_sparse(0.5);
    let mut mask = Bitmask::new(TILE_ELEMS + 64);
    mask.set(0, true);
    mask.set(TILE_ELEMS + 10, true);
    let codes: Vec<u16> = vec![1, 2];
    let bytes = pack_codes(&codes, 8);
    CompressedTile::new_unchecked(scheme, bytes, codes.len(), Some(mask), vec![])
}

#[test]
fn every_engine_rejects_a_popcount_mismatch() {
    let forged = forged_popcount_mismatch();
    for kind in EngineKind::all() {
        let engine = kind.build();
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        let err = engine
            .decompress_tile_into(&forged, &mut scratch, &mut out)
            .expect_err("popcount mismatch must be rejected");
        assert!(
            matches!(err, CompressError::CorruptTile { .. }),
            "{kind}: {err}"
        );
    }
}

#[test]
fn every_engine_rejects_a_short_dense_tile() {
    for forged in [forged_short_dense(), forged_short_dense_nibbles()] {
        for kind in EngineKind::all() {
            let engine = kind.build();
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            let err = engine
                .decompress_tile_into(&forged, &mut scratch, &mut out)
                .expect_err("short dense payload must be rejected");
            assert!(
                matches!(err, CompressError::CorruptTile { .. }),
                "{kind} under {}: {err}",
                forged.scheme()
            );
        }
    }
}

#[test]
fn every_engine_rejects_corrupt_scale_vectors() {
    // Truncated (would index out of bounds) and stripped (would silently
    // decompress unscaled) scale vectors must both fault.
    for scales in [1, 0, 20] {
        let forged = forged_scale_count(scales);
        for kind in EngineKind::all() {
            let engine = kind.build();
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            let err = engine
                .decompress_tile_into(&forged, &mut scratch, &mut out)
                .expect_err("corrupt scale vector must be rejected");
            assert!(
                matches!(err, CompressError::CorruptTile { .. }),
                "{kind} with {scales} scales: {err}"
            );
        }
    }
}

#[test]
fn every_engine_rejects_an_oversized_bitmask() {
    let forged = forged_oversized_bitmask();
    for kind in EngineKind::all() {
        let engine = kind.build();
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        let err = engine
            .decompress_tile_into(&forged, &mut scratch, &mut out)
            .expect_err("oversized bitmask must be rejected");
        assert!(
            matches!(err, CompressError::CorruptTile { .. }),
            "{kind}: {err}"
        );
    }
}

#[test]
fn corrupt_tiles_abort_matrix_decompression() {
    // A matrix containing one forged tile must fail for every engine,
    // including the threaded fan-out (errors cross the thread boundary).
    let scheme = CompressionScheme::bf8_dense();
    let good = Compressor::new(scheme)
        .compress_tile(&WeightGenerator::new(1).dense_matrix(16, 32).tile(0, 0))
        .expect("compress");
    let tiles = vec![good.clone(), forged_short_dense(), good.clone(), good];
    let cm = deca_compress::CompressedMatrix::new(scheme, 32, 64, tiles).expect("matrix");
    for kind in EngineKind::all() {
        let err = kind
            .build()
            .decompress_matrix(&cm)
            .expect_err("forged tile must abort the matrix");
        assert!(matches!(err, CompressError::CorruptTile { .. }), "{kind}");
    }
}
