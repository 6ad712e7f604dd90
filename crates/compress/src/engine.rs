//! Pluggable streaming decompression engines (Fig. 1, right).
//!
//! The paper's central observation is that *online weight decompression is
//! the hot loop of compressed LLM inference*: every weight tile fetched from
//! memory must be dequantized, expanded and scaled before the TMUL can
//! consume it. This module turns the single hardcoded scalar path into an
//! enumerable backend axis behind one trait.
//!
//! # The streaming, zero-copy contract
//!
//! [`DecompressEngine::decompress_tile_into`] never allocates on the hot
//! path: the caller owns a reusable output [`DenseTile`] and a
//! [`DecompressScratch`] holding the unpacked-code and group-scale buffers,
//! and every backend is required to produce **bit-exact** output — the same
//! 512 BF16 bit patterns the scalar reference produces. This mirrors the
//! hardware contract of Fig. 1: whatever circuit performs dequantization,
//! the TMUL must see identical dense BF16 tiles.
//!
//! # Backends and their Fig. 1 correspondence
//!
//! Three backends, each kept because it is the reference or wins a
//! measurement on some scheme:
//!
//! * [`ScalarEngine`] — the functional ground truth: one dense position at a
//!   time, a running nonzero counter standing in for the prefix sum. This is
//!   the per-element loop a naive CPU implementation executes, and the
//!   reference every other backend is tested against.
//! * [`WordParallelEngine`] — the software analogue of DECA's POPCNT +
//!   parallel-prefix-sum + crossbar datapath (§6.1): it walks the bitmask as
//!   64-bit words, skips zero words entirely, locates nonzeros with
//!   count-trailing-zeros, and dequantizes through a precomputed per-format
//!   LUT array instead of re-deriving tables. On very sparse tiles (Q8_5%),
//!   where few nonzeros leave little to vectorize, it runs level with
//!   [`SimdEngine`] and sometimes ahead of it.
//! * [`SimdEngine`] — explicit vectorization of the same datapath. 4-bit
//!   LUT formats (MXFP4's E2M1, `Int4`, 4-bit `Custom`) run the paper's
//!   software MXFP4 recipe (§3): split the packed payload's nibbles and
//!   look each one up with one byte-shuffle per BF16 byte plane; wider LUT
//!   formats dequantize through 8-lane gathers. Sparse expansion is one
//!   byte-shuffle per 8 mask bits. The E8M0 group scale is an exponent add
//!   when every scaled value stays a normal BF16, and otherwise an 8-lane
//!   f32 multiply rounded back to BF16 in the integer domain. The software
//!   analogue of giving the decompress pipeline real SIMD lanes instead of
//!   one ALU; the fastest backend on denser and group-scaled schemes.
//!
//! # Feature detection and the fallback contract
//!
//! [`SimdEngine`] never assumes ISA support at compile time: the AVX2 path
//! is compiled only on `x86_64` and entered only when
//! `is_x86_feature_detected!("avx2")` reports support at runtime. Every
//! other combination — non-x86 hosts, x86 hosts without AVX2, or an engine
//! constructed with [`SimdEngine::portable`] — takes the portable chunked
//! fallback, which is written in safe Rust over `u64` bitmask words and
//! 4-lane code chunks. Both paths are bit-exact against [`ScalarEngine`],
//! and the fallback is itself regression-tested on AVX2 hosts by forcing it
//! with [`SimdEngine::portable`]. Tiles whose scale metadata the vector
//! kernels cannot reproduce exactly (non-finite forged scales, scale groups
//! not divisible by the 16-lane chunk) are routed to the fallback per tile,
//! so eligibility is a pure speed decision, never a correctness one.
//!
//! [`EngineKind`] names the backends so that higher layers (functional GeMM,
//! trace simulator, PE pipeline, benchmarks) can enumerate them and record
//! *which* engine produced or validated a result.

use deca_numerics::{Bf16, DequantTable, QuantFormat};

use crate::{
    CompressError, CompressedMatrix, CompressedTile, DenseTile, WeightMatrix, TILE_COLS,
    TILE_ELEMS, TILE_ROWS,
};

/// Precomputed dequantization tables for every ≤8-bit quantized format,
/// indexed by format — the replacement for the interior-mutable linear-scan
/// LUT cache the reference decompressor used to carry.
///
/// All tables are built eagerly at construction (a few KB in total), so
/// lookups are a slice index, the structure is `Sync`, and no tile ever pays
/// for table construction.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatLuts {
    tables: Vec<DequantTable>,
}

/// Named formats with a fixed slot (everything except `Custom`).
const NAMED_SLOTS: usize = 5;

fn lut_slot(format: QuantFormat) -> Option<usize> {
    match format {
        QuantFormat::Bf16 => None,
        QuantFormat::Bf8 => Some(0),
        QuantFormat::E4m3 => Some(1),
        QuantFormat::Fp4 => Some(2),
        QuantFormat::Int8 => Some(3),
        QuantFormat::Int4 => Some(4),
        QuantFormat::Custom { exp_bits, man_bits } => custom_combinations()
            .position(|combo| combo == (exp_bits, man_bits))
            .map(|i| NAMED_SLOTS + i),
    }
}

/// Every valid `Custom { exp_bits, man_bits }` combination that fits in a
/// LUT (1 sign + exp + man ≤ 8 bits), in deterministic order.
fn custom_combinations() -> impl Iterator<Item = (u8, u8)> {
    (1u8..=5).flat_map(|e| (0u8..=6).filter_map(move |m| (1 + e + m <= 8).then_some((e, m))))
}

impl FormatLuts {
    /// Builds the tables for every supported ≤8-bit format.
    #[must_use]
    pub fn precomputed() -> Self {
        let mut tables = vec![
            DequantTable::for_format(QuantFormat::Bf8),
            DequantTable::for_format(QuantFormat::E4m3),
            DequantTable::for_format(QuantFormat::Fp4),
            DequantTable::for_format(QuantFormat::Int8),
            DequantTable::for_format(QuantFormat::Int4),
        ];
        for (exp_bits, man_bits) in custom_combinations() {
            tables.push(DequantTable::for_format(QuantFormat::Custom {
                exp_bits,
                man_bits,
            }));
        }
        FormatLuts { tables }
    }

    /// The process-wide shared instance, built once on first use. The
    /// tables are immutable and a pure function of the formats, so every
    /// engine and decompressor shares them instead of re-deriving ~30
    /// tables per construction.
    #[must_use]
    pub fn shared() -> &'static FormatLuts {
        static SHARED: std::sync::OnceLock<FormatLuts> = std::sync::OnceLock::new();
        SHARED.get_or_init(FormatLuts::precomputed)
    }

    /// The dequantization table for `format`, or `None` for BF16 (which
    /// bypasses the LUTs entirely).
    ///
    /// # Panics
    ///
    /// Panics for non-BF16 formats wider than 8 bits, which have no LUT —
    /// the same contract as [`DequantTable::for_format`].
    #[must_use]
    pub fn table(&self, format: QuantFormat) -> Option<&DequantTable> {
        if format == QuantFormat::Bf16 {
            return None;
        }
        let slot =
            lut_slot(format).unwrap_or_else(|| panic!("no dequantization LUT for format {format}"));
        Some(&self.tables[slot])
    }

    /// Dequantizes one code of `format` (BF16 codes pass through as raw bit
    /// patterns), exactly as the reference decompressor does.
    #[must_use]
    pub fn dequantize(&self, format: QuantFormat, code: u16) -> Bf16 {
        match self.table(format) {
            None => Bf16::from_bits(code),
            Some(table) => table.lookup(code as u8),
        }
    }
}

impl Default for FormatLuts {
    fn default() -> Self {
        FormatLuts::precomputed()
    }
}

/// Reusable scratch buffers for streaming decompression: the unpacked
/// nonzero codes and the per-group scales promoted to BF16. Create one per
/// worker and pass it to every [`DecompressEngine::decompress_tile_into`]
/// call — no per-tile allocation survives after the buffers warm up.
#[derive(Debug, Default, Clone)]
pub struct DecompressScratch {
    /// Unpacked nonzero codes of the tile being decompressed.
    codes: Vec<u16>,
    /// Per-group scale factors as BF16 (empty unless group-quantized).
    group_scales: Vec<Bf16>,
    /// Dequantized nonzero values as raw BF16 bits ([`SimdEngine`] only),
    /// zero-padded so vector loads past the last nonzero stay in bounds.
    values: Vec<u16>,
    /// Whole-tile output staging as raw BF16 bits ([`SimdEngine`] only).
    bits: Vec<u16>,
}

impl DecompressScratch {
    /// Creates empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        DecompressScratch::default()
    }

    /// The codes most recently unpacked into this scratch (by
    /// [`DecompressScratch::unpack`] or by a backend that works on unpacked
    /// codes; the SIMD engine's 4-bit path reads the packed payload
    /// directly and leaves this buffer untouched).
    #[must_use]
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Unpacks a tile's nonzero codes into this scratch's code buffer and
    /// returns them — the entry point for external streaming consumers
    /// (e.g. the vOp pipeline) that share the zero-copy contract.
    pub fn unpack<'s>(&'s mut self, tile: &CompressedTile) -> &'s [u16] {
        tile.unpack_nonzeros_into(&mut self.codes);
        &self.codes
    }
}

/// A streaming tile/matrix decompression backend.
///
/// Implementations must be bit-exact with respect to [`ScalarEngine`]: for
/// any consistent [`CompressedTile`], `decompress_tile_into` must produce a
/// [`DenseTile`] whose 512 BF16 bit patterns are identical to the scalar
/// reference's, and must reject inconsistent tiles with
/// [`CompressError::CorruptTile`].
pub trait DecompressEngine: std::fmt::Debug + Send + Sync {
    /// A short stable name identifying the backend (used in reports,
    /// benchmark baselines and error messages).
    fn name(&self) -> &'static str;

    /// Decompresses one tile into the caller-provided output buffer using
    /// the caller-provided scratch space. The output tile is fully
    /// overwritten (zeros included).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::CorruptTile`] if the tile's memory
    /// structures disagree (bitmask popcount vs. stored codes, dense code
    /// count vs. tile size).
    fn decompress_tile_into(
        &self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<(), CompressError>;

    /// Decompresses a whole matrix into a caller-provided dense matrix,
    /// streaming tile by tile through one reused tile buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidShape`] if `out` does not match the
    /// matrix dimensions, and propagates tile-level errors.
    fn decompress_matrix_into(
        &self,
        matrix: &CompressedMatrix,
        out: &mut WeightMatrix,
    ) -> Result<(), CompressError> {
        check_output_shape(matrix, out)?;
        let mut tile = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        for tr in 0..matrix.tile_rows() {
            for tc in 0..matrix.tile_cols() {
                self.decompress_tile_into(matrix.tile(tr, tc), &mut scratch, &mut tile)?;
                store_tile(out, tr, tc, &tile);
            }
        }
        Ok(())
    }

    /// Convenience wrapper allocating the output matrix.
    ///
    /// # Errors
    ///
    /// Propagates tile-level errors.
    fn decompress_matrix(&self, matrix: &CompressedMatrix) -> Result<WeightMatrix, CompressError> {
        let mut out = WeightMatrix::zeros(matrix.rows(), matrix.cols());
        self.decompress_matrix_into(matrix, &mut out)?;
        Ok(out)
    }
}

fn check_output_shape(matrix: &CompressedMatrix, out: &WeightMatrix) -> Result<(), CompressError> {
    if out.rows() != matrix.rows() || out.cols() != matrix.cols() {
        return Err(CompressError::InvalidShape {
            rows: out.rows(),
            cols: out.cols(),
            reason: "output matrix shape does not match the compressed matrix",
        });
    }
    Ok(())
}

/// Writes a decompressed tile into its matrix position, clipping at the
/// matrix edge (tiles past the edge are zero-padded).
fn store_tile(out: &mut WeightMatrix, tr: usize, tc: usize, tile: &DenseTile) {
    let rows = out.rows();
    let cols = out.cols();
    let row_base = tr * TILE_ROWS;
    let col_base = tc * TILE_COLS;
    let tile_cols = TILE_COLS.min(cols.saturating_sub(col_base));
    let band = &mut out.data_mut()[row_base * cols..];
    for (r, row) in tile.elements().chunks_exact(TILE_COLS).enumerate() {
        if r >= rows - row_base {
            break;
        }
        let dst = &mut band[r * cols + col_base..r * cols + col_base + tile_cols];
        for (d, v) in dst.iter_mut().zip(&row[..tile_cols]) {
            *d = v.to_f32();
        }
    }
}

/// What a backend needs to decompress one validated tile: the shared
/// dequantization table (if any), the scale-group size and the raw scales.
struct TilePlan<'a> {
    table: Option<&'a DequantTable>,
    group: usize,
    scales: &'a [deca_numerics::mx::ScaleE8M0],
}

/// Validates a tile's three memory structures (§5.2) via
/// [`CompressedTile::validate`] and returns the dequantization plan shared
/// by all backends — a corrupted weight stream must fault here, never index
/// out of bounds or silently decompress unscaled. Backends that work on
/// unpacked codes unpack them into scratch themselves after this check.
fn prepare<'a>(
    luts: &'a FormatLuts,
    tile: &'a CompressedTile,
) -> Result<TilePlan<'a>, CompressError> {
    tile.validate()?;
    let scheme = tile.scheme();
    Ok(TilePlan {
        table: luts.table(scheme.format()),
        group: scheme.group_size().unwrap_or(usize::MAX),
        scales: tile.scales(),
    })
}

/// The scalar reference backend: per-element dequantize → expand → scale,
/// exactly the semantics of the original `Decompressor` but borrowing the
/// caller's buffers instead of allocating per tile.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScalarEngine;

impl ScalarEngine {
    /// Creates the engine (the per-format LUTs are shared process-wide).
    #[must_use]
    pub fn new() -> Self {
        ScalarEngine
    }

    /// The precomputed per-format LUT array.
    #[must_use]
    pub fn luts(&self) -> &'static FormatLuts {
        FormatLuts::shared()
    }
}

impl DecompressEngine for ScalarEngine {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn decompress_tile_into(
        &self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<(), CompressError> {
        let plan = prepare(self.luts(), tile)?;
        tile.unpack_nonzeros_into(&mut scratch.codes);
        let value_of = |code: u16| match plan.table {
            Some(t) => t.lookup(code as u8),
            None => Bf16::from_bits(code),
        };
        out.fill_zero();
        if let Some(mask) = tile.bitmask() {
            let mut nz = 0usize;
            for pos in 0..TILE_ELEMS {
                if !mask.get(pos) {
                    continue;
                }
                let mut value = value_of(scratch.codes[nz]);
                if !plan.scales.is_empty() {
                    value = value * plan.scales[pos / plan.group].to_bf16();
                }
                out.set(pos / TILE_COLS, pos % TILE_COLS, value);
                nz += 1;
            }
        } else {
            for (pos, &code) in scratch.codes.iter().enumerate() {
                let mut value = value_of(code);
                if !plan.scales.is_empty() {
                    value = value * plan.scales[pos / plan.group].to_bf16();
                }
                out.set(pos / TILE_COLS, pos % TILE_COLS, value);
            }
        }
        Ok(())
    }
}

/// The word-parallel backend: the software analogue of DECA's POPCNT +
/// prefix-sum + crossbar datapath. The bitmask is consumed as 64-bit words
/// (zero words are skipped outright, nonzeros located with
/// count-trailing-zeros), group scales are promoted to BF16 once per tile,
/// and dequantization indexes the precomputed LUT array directly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WordParallelEngine;

impl WordParallelEngine {
    /// Creates the engine (the per-format LUTs are shared process-wide).
    #[must_use]
    pub fn new() -> Self {
        WordParallelEngine
    }
}

impl DecompressEngine for WordParallelEngine {
    fn name(&self) -> &'static str {
        "word-parallel"
    }

    fn decompress_tile_into(
        &self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<(), CompressError> {
        let plan = prepare(FormatLuts::shared(), tile)?;
        tile.unpack_nonzeros_into(&mut scratch.codes);
        let (table, group) = (plan.table, plan.group);
        // Promote the group scales once per tile instead of once per element
        // (bit-exact: the per-element multiply uses the same BF16 value).
        scratch.group_scales.clear();
        scratch
            .group_scales
            .extend(plan.scales.iter().map(|s| s.to_bf16()));
        let group_scales = &scratch.group_scales[..];
        let codes = &scratch.codes[..];
        out.fill_zero();
        let dst = out.elements_mut();
        let value_of = |code: u16| match table {
            Some(t) => t.lookup(code as u8),
            None => Bf16::from_bits(code),
        };
        if let Some(mask) = tile.bitmask() {
            let mut nz = 0usize;
            for (wi, &word) in mask.words().iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let pos = wi * 64 + w.trailing_zeros() as usize;
                    let mut value = value_of(codes[nz]);
                    if !group_scales.is_empty() {
                        value = value * group_scales[pos / group];
                    }
                    dst[pos] = value;
                    nz += 1;
                    w &= w - 1;
                }
            }
        } else if group_scales.is_empty() {
            for (slot, &code) in dst.iter_mut().zip(codes) {
                *slot = value_of(code);
            }
        } else {
            // One scale per group-sized run of positions: no per-element
            // group index.
            let runs = dst.chunks_mut(group).zip(codes.chunks(group));
            for ((run, run_codes), &scale) in runs.zip(group_scales) {
                for (slot, &code) in run.iter_mut().zip(run_codes) {
                    *slot = value_of(code) * scale;
                }
            }
        }
        Ok(())
    }
}

/// Explicitly vectorized dequant → expand → scale backend.
///
/// On `x86_64` hosts with AVX2 (checked at runtime, never assumed at
/// compile time) each tile takes a three-stage vector pipeline:
///
/// 1. **Dequantize** — 4-bit LUT formats (`Fp4`, `Int4`, 4-bit `Custom`)
///    read the packed payload directly: 16 bytes are split into low and
///    high nibbles and interleaved back into code order, then one `pshufb`
///    per BF16 byte plane looks 16 codes up in the format's 16-entry table
///    and an interleave joins the planes. Wider formats unpack their codes
///    and look them up 16 at a time through two 8-lane `vpgatherdd`
///    gathers into a `u32`-widened mirror of the shared [`FormatLuts`]
///    tables (BF16 codes pass through untouched).
/// 2. **Expand** — sparse tiles scatter the compacted values to their dense
///    positions one bitmask byte (8 positions) per `pshufb`, driven by a
///    256-entry precomputed shuffle-control table; cleared positions
///    zero-fill in the same shuffle, so the whole tile is written without a
///    separate memset.
/// 3. **Scale** — an E8M0 scale is a power of two. When every scale code of
///    the tile is in 1..=254 and every nonzero table entry shifted by it
///    stays a normal BF16, the product is exact, so the pass adds
///    `(code - 127) << 7` to every lane of nonzero magnitude, 16 lanes at a
///    time. Any other group-quantized tile multiplies 8 lanes at a time in
///    f32 and rounds back to BF16 with the exact integer
///    round-to-nearest-even and NaN-quieting steps of `Bf16::from_f32`.
///    Both keep the output bit-identical to [`ScalarEngine`].
///
/// Everywhere else — non-x86 hosts, x86 without AVX2, engines built with
/// [`SimdEngine::portable`], or tiles whose scale metadata the vector scale
/// pass cannot reproduce exactly — the portable chunked fallback runs: safe
/// Rust over `u64` bitmask words with the dequantization loop processed in
/// 4-lane chunks. Both paths satisfy the bit-exactness contract.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimdEngine {
    force_portable: bool,
}

impl SimdEngine {
    /// Creates the engine; the vector path is chosen by runtime feature
    /// detection on first use.
    #[must_use]
    pub fn new() -> Self {
        SimdEngine {
            force_portable: false,
        }
    }

    /// Creates the engine with the portable chunked fallback forced on,
    /// regardless of host ISA support — the regression hook that keeps the
    /// fallback path tested on hosts where AVX2 would normally win.
    #[must_use]
    pub fn portable() -> Self {
        SimdEngine {
            force_portable: true,
        }
    }

    /// Whether this instance may use the AVX2 vector path (`false` off
    /// x86-64, on hosts without AVX2, or after [`SimdEngine::portable`]).
    #[must_use]
    pub fn uses_avx2(&self) -> bool {
        !self.force_portable && avx2_available()
    }
}

/// Runtime AVX2 support (always `false` off x86-64).
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl DecompressEngine for SimdEngine {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn decompress_tile_into(
        &self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<(), CompressError> {
        let plan = prepare(FormatLuts::shared(), tile)?;
        // Promote the group scales once per tile (bit-exact: the multiply
        // sees the same BF16 value the scalar engine promotes per element).
        scratch.group_scales.clear();
        scratch
            .group_scales
            .extend(plan.scales.iter().map(|s| s.to_bf16()));
        #[cfg(target_arch = "x86_64")]
        if self.uses_avx2()
            && simd_x86::plan_is_vectorizable(&plan)
            && simd_x86::try_decompress_tile(tile, &plan, scratch, out)
        {
            return Ok(());
        }
        portable::decompress_tile(tile, &plan, scratch, out);
        Ok(())
    }
}

/// The portable chunked fallback for [`SimdEngine`]: safe Rust over `u64`
/// bitmask words, with dequantization unrolled into 4-lane chunks for ILP.
/// Bit-exact with [`ScalarEngine`] on every scheme and every host.
mod portable {
    use deca_numerics::Bf16;

    use super::{DecompressScratch, TilePlan};
    use crate::{CompressedTile, DenseTile};

    pub(super) fn decompress_tile(
        tile: &CompressedTile,
        plan: &TilePlan<'_>,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) {
        let DecompressScratch {
            codes,
            group_scales,
            values,
            ..
        } = scratch;
        // Stage 1: dequantize the packed codes, four lanes per step.
        tile.unpack_nonzeros_into(codes);
        values.clear();
        match plan.table {
            Some(table) => {
                let mut chunks = codes.chunks_exact(4);
                for c in chunks.by_ref() {
                    values.extend_from_slice(&[
                        table.lookup(c[0] as u8).to_bits(),
                        table.lookup(c[1] as u8).to_bits(),
                        table.lookup(c[2] as u8).to_bits(),
                        table.lookup(c[3] as u8).to_bits(),
                    ]);
                }
                for &c in chunks.remainder() {
                    values.push(table.lookup(c as u8).to_bits());
                }
            }
            None => values.extend_from_slice(codes),
        }
        // Stage 2 + 3: expand along u64 bitmask words and apply scales.
        out.fill_zero();
        let dst = out.elements_mut();
        let group = plan.group;
        if let Some(mask) = tile.bitmask() {
            let mut nz = 0usize;
            for (wi, &word) in mask.words().iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let pos = wi * 64 + w.trailing_zeros() as usize;
                    let mut value = Bf16::from_bits(values[nz]);
                    if !group_scales.is_empty() {
                        value = value * group_scales[pos / group];
                    }
                    dst[pos] = value;
                    nz += 1;
                    w &= w - 1;
                }
            }
        } else if group_scales.is_empty() {
            for (slot, &bits) in dst.iter_mut().zip(values.iter()) {
                *slot = Bf16::from_bits(bits);
            }
        } else {
            for (pos, (slot, &bits)) in dst.iter_mut().zip(values.iter()).enumerate() {
                *slot = Bf16::from_bits(bits) * group_scales[pos / group];
            }
        }
    }
}

/// AVX2 vector kernels for [`SimdEngine`] — the one sanctioned
/// `unsafe_code` exception in this crate.
///
/// Safety architecture: the only entry point is [`try_decompress_tile`],
/// which re-checks `is_x86_feature_detected!("avx2")` immediately before
/// entering the `#[target_feature(enable = "avx2")]` kernels, so the ISA
/// precondition is established at the single `unsafe` call boundary. Inside
/// the kernels, `unsafe` is confined to pointer-based loads/stores/gathers,
/// each with its bounds argument documented; all staging buffers carry
/// [`LANE_PAD`] trailing zeros so full-width vector accesses past a logical
/// end stay in bounds. The 4-bit kernel reads the packed payload of a tile
/// that [`CompressedTile::validate`] has already accepted, and re-asserts
/// the payload length it relies on.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, clippy::cast_possible_wrap)]
mod simd_x86 {
    use core::arch::x86_64::{
        __m128i, __m256, __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_and_si256,
        _mm256_andnot_si256, _mm256_blendv_epi8, _mm256_castps_si256, _mm256_castsi256_ps,
        _mm256_castsi256_si128, _mm256_cmp_ps, _mm256_cmpeq_epi16, _mm256_cvtepu16_epi32,
        _mm256_extracti128_si256, _mm256_i32gather_epi32, _mm256_loadu_si256, _mm256_mul_ps,
        _mm256_or_si256, _mm256_packus_epi32, _mm256_permute4x64_epi64, _mm256_set1_epi16,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_si256, _mm256_slli_epi32,
        _mm256_srli_epi32, _mm256_storeu_si256, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8,
        _mm_shuffle_epi8, _mm_srli_epi16, _mm_storeu_si128, _mm_unpackhi_epi8, _mm_unpacklo_epi8,
        _CMP_UNORD_Q,
    };
    use std::sync::OnceLock;

    use deca_numerics::{mx::ScaleE8M0, Bf16, DequantTable};

    use super::{lut_slot, DecompressScratch, FormatLuts, TilePlan};
    use crate::{CompressedTile, DenseTile, TILE_ELEMS};

    /// Zero entries appended to staging buffers so full-width vector loads
    /// and stores past the logical end stay in bounds.
    const LANE_PAD: usize = 16;

    /// Whether the vector kernels reproduce this tile's scale semantics
    /// bit-exactly. Scale groups must align with the 16-lane chunks of the
    /// scale pass, and every scale must stay finite after BF16 promotion: a
    /// forged E8M0 code 255 promotes to +inf, and the vector pass —
    /// which multiplies *every* position, zeros included — would turn
    /// `0 × inf` into NaN where the scalar engine leaves an untouched zero.
    pub(super) fn plan_is_vectorizable(plan: &TilePlan<'_>) -> bool {
        plan.scales.is_empty()
            || (plan.group >= 16
                && plan.group.is_multiple_of(16)
                && plan.scales.iter().all(|s| s.to_bf16().to_f32().is_finite()))
    }

    /// Decompresses one vectorizable tile, returning `false` (having
    /// written nothing) when the host lacks AVX2.
    pub(super) fn try_decompress_tile(
        tile: &CompressedTile,
        plan: &TilePlan<'_>,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: AVX2 support was verified on the line above, satisfying
        // the `#[target_feature(enable = "avx2")]` calling contract.
        unsafe { decompress_tile_avx2(tile, plan, scratch, out) };
        true
    }

    /// The vector kernels' view of one [`FormatLuts`] table.
    struct SimdLut {
        /// The table `u32`-widened as a `vpgatherdd` source (zero-extended
        /// BF16 bits).
        wide: [u32; 256],
        /// For 4-bit formats, the 16 entries split into their low-byte and
        /// high-byte planes: the two `pshufb` tables of the nibble path.
        nibble_planes: Option<[[u8; 16]; 2]>,
        /// The lowest and highest exponent field over the table's nonzero
        /// entries, or `None` if any nonzero entry is subnormal, infinite or
        /// NaN (where an exponent add cannot stand in for the multiply).
        exponents: Option<(i32, i32)>,
    }

    impl SimdLut {
        fn new(table: &DequantTable) -> Self {
            let mut wide = [0u32; 256];
            for (slot, entry) in wide.iter_mut().zip(table.entries()) {
                *slot = u32::from(entry.to_bits());
            }
            let nibble_planes = (table.format().bits() == 4).then(|| {
                let mut planes = [[0u8; 16]; 2];
                for (code, entry) in table.entries()[..16].iter().enumerate() {
                    let [lo, hi] = entry.to_bits().to_le_bytes();
                    planes[0][code] = lo;
                    planes[1][code] = hi;
                }
                planes
            });
            SimdLut {
                wide,
                nibble_planes,
                exponents: normal_exponent_range(table.entries()),
            }
        }
    }

    fn normal_exponent_range(entries: &[Bf16]) -> Option<(i32, i32)> {
        let mut range: Option<(i32, i32)> = None;
        for entry in entries.iter().filter(|e| !e.is_zero()) {
            let exp = i32::from((entry.to_bits() >> 7) & 0xFF);
            if exp == 0 || exp == 0xFF {
                return None;
            }
            range = Some(range.map_or((exp, exp), |(lo, hi)| (lo.min(exp), hi.max(exp))));
        }
        range
    }

    /// [`SimdLut`]s for [`FormatLuts::shared`]'s tables, slot for slot.
    fn simd_luts() -> &'static [SimdLut] {
        static LUTS: OnceLock<Vec<SimdLut>> = OnceLock::new();
        LUTS.get_or_init(|| {
            FormatLuts::shared()
                .tables
                .iter()
                .map(SimdLut::new)
                .collect()
        })
    }

    /// Whether scaling by every one of `scales` is an exact exponent add on
    /// every entry of a table whose nonzero entries span `exponents`: each
    /// scale is a normal power of two (E8M0 code 1..=254), and each shifted
    /// entry stays a normal BF16. The product of a normal BF16 and a power
    /// of two that stays normal is exact, so `Bf16::from_f32`'s rounding
    /// never fires and the multiply reduces to adding `code - 127` to the
    /// exponent field.
    fn scales_are_exponent_adds(exponents: Option<(i32, i32)>, scales: &[ScaleE8M0]) -> bool {
        let Some((lo, hi)) = exponents else {
            return false;
        };
        scales.iter().all(|s| {
            let shift = i32::from(s.code()) - 127;
            (1..=254).contains(&s.code()) && lo + shift >= 1 && hi + shift <= 254
        })
    }

    #[target_feature(enable = "avx2")]
    fn decompress_tile_avx2(
        tile: &CompressedTile,
        plan: &TilePlan<'_>,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) {
        let DecompressScratch {
            codes,
            group_scales,
            values,
            bits,
        } = scratch;
        let lut = lut_slot(tile.scheme().format()).map(|slot| &simd_luts()[slot]);
        let mask = tile.bitmask();
        // Stage 1, dequantize: sparse tiles into the compacted run, dense
        // tiles straight into the whole-tile staging.
        let staged = if mask.is_some() {
            &mut *values
        } else {
            &mut *bits
        };
        if let Some(planes) = lut.and_then(|l| l.nibble_planes.as_ref()) {
            dequant_nibbles(tile.nonzero_bytes(), tile.nonzero_count(), planes, staged);
        } else {
            tile.unpack_nonzeros_into(codes);
            dequant_codes(codes, lut.map(|l| &l.wide), staged);
        }
        // Stage 2, expand: scatter the compacted run to its positions.
        if let Some(mask) = mask {
            expand_sparse(mask.words(), values, bits);
        }
        // Stage 3, scale.
        if !group_scales.is_empty() {
            let bits = &mut bits[..TILE_ELEMS];
            if lut.is_some_and(|l| scales_are_exponent_adds(l.exponents, plan.scales)) {
                add_scale_exponents(bits, plan.scales, plan.group);
            } else {
                scale_bits(bits, group_scales, plan.group);
            }
        }
        // Publish the staged bit patterns into the caller's tile.
        for (dst, &b) in out.elements_mut().iter_mut().zip(bits.iter()) {
            *dst = Bf16::from_bits(b);
        }
    }

    /// Dequantizes the first `count` 4-bit codes packed in `bytes` (two per
    /// byte, low nibble first) into `dst` (cleared first, `LANE_PAD` zeros
    /// appended), 32 codes per iteration: split each byte's nibbles and
    /// interleave them back into code order, then look every code up with
    /// one `pshufb` per BF16 byte plane and interleave the two planes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `count` nibbles (a tile that
    /// failed [`CompressedTile::validate`]).
    #[target_feature(enable = "avx2")]
    fn dequant_nibbles(bytes: &[u8], count: usize, planes: &[[u8; 16]; 2], dst: &mut Vec<u16>) {
        assert!(
            bytes.len() * 2 >= count,
            "payload of {} bytes cannot hold {count} nibbles",
            bytes.len()
        );
        dst.clear();
        dst.resize(count + LANE_PAD, 0);
        // SAFETY: both planes are 16-byte arrays.
        let (lo_plane, hi_plane) = unsafe {
            (
                _mm_loadu_si128(planes[0].as_ptr().cast()),
                _mm_loadu_si128(planes[1].as_ptr().cast()),
            )
        };
        let nibble = _mm_set1_epi8(0x0F);
        let mut i = 0usize;
        while i + 32 <= count {
            // SAFETY: `i + 32 <= count <= 2 * bytes.len()` (asserted above),
            // so the 16-byte load at byte `i / 2` is in bounds; `dst` holds
            // `count + LANE_PAD` entries, bounding the 32 stores from `i`.
            unsafe {
                let packed = _mm_loadu_si128(bytes.as_ptr().add(i / 2).cast());
                let lo = _mm_and_si128(packed, nibble);
                let hi = _mm_and_si128(_mm_srli_epi16::<4>(packed), nibble);
                let out = dst.as_mut_ptr().add(i);
                lookup_16(_mm_unpacklo_epi8(lo, hi), lo_plane, hi_plane, out);
                lookup_16(_mm_unpackhi_epi8(lo, hi), lo_plane, hi_plane, out.add(16));
            }
            i += 32;
        }
        for (pos, d) in dst[..count].iter_mut().enumerate().skip(i) {
            let byte = bytes[pos / 2];
            let code = if pos % 2 == 0 { byte & 0x0F } else { byte >> 4 };
            *d = u16::from_le_bytes([planes[0][usize::from(code)], planes[1][usize::from(code)]]);
        }
    }

    /// Looks up 16 codes (one per byte of `codes`, each in 0..16) in the two
    /// byte planes and stores the 16 BF16 bit patterns at `dst`.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for writing 16 `u16`s.
    #[target_feature(enable = "avx2")]
    unsafe fn lookup_16(codes: __m128i, lo_plane: __m128i, hi_plane: __m128i, dst: *mut u16) {
        let lo = _mm_shuffle_epi8(lo_plane, codes);
        let hi = _mm_shuffle_epi8(hi_plane, codes);
        // SAFETY: the caller guarantees 16 writable lanes at `dst`.
        unsafe {
            _mm_storeu_si128(dst.cast(), _mm_unpacklo_epi8(lo, hi));
            _mm_storeu_si128(dst.add(8).cast(), _mm_unpackhi_epi8(lo, hi));
        }
    }

    /// Dequantizes `codes` into `dst` (cleared first, `LANE_PAD` zeros
    /// appended): 16 codes per iteration through two 8-lane gathers from
    /// `lut`, or a plain copy for BF16 passthrough (`lut == None`).
    #[target_feature(enable = "avx2")]
    fn dequant_codes(codes: &[u16], lut: Option<&[u32; 256]>, dst: &mut Vec<u16>) {
        dst.clear();
        let Some(lut) = lut else {
            dst.extend_from_slice(codes);
            dst.resize(codes.len() + LANE_PAD, 0);
            return;
        };
        dst.resize(codes.len() + LANE_PAD, 0);
        let index_mask = _mm256_set1_epi32(0xFF);
        let base = lut.as_ptr().cast::<i32>();
        let mut i = 0usize;
        while i + 16 <= codes.len() {
            // SAFETY: `i + 16 <= codes.len()` bounds the 16-lane load, and
            // `dst` holds `codes.len() + LANE_PAD` entries so the 16-lane
            // store at `i` is in bounds. The gather indexes are masked to
            // 0..=255 against the 256-entry LUT.
            unsafe {
                let raw = _mm256_loadu_si256(codes.as_ptr().add(i).cast());
                let lo = _mm256_and_si256(
                    _mm256_cvtepu16_epi32(_mm256_castsi256_si128(raw)),
                    index_mask,
                );
                let hi = _mm256_and_si256(
                    _mm256_cvtepu16_epi32(_mm256_extracti128_si256::<1>(raw)),
                    index_mask,
                );
                let vlo = _mm256_i32gather_epi32::<4>(base, lo);
                let vhi = _mm256_i32gather_epi32::<4>(base, hi);
                // packus interleaves the 128-bit lanes; permute restores
                // element order (qwords 0,2,1,3).
                let packed = _mm256_packus_epi32(vlo, vhi);
                let fixed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), fixed);
            }
            i += 16;
        }
        for (d, &c) in dst[i..].iter_mut().zip(&codes[i..]) {
            *d = lut[usize::from(c) & 0xFF] as u16;
        }
    }

    /// `pshufb` control bytes for every bitmask byte: output lane `j` (two
    /// bytes per u16 lane) takes compacted source lane
    /// `popcount(mask & ((1 << j) - 1))` when bit `j` is set, and
    /// zero-fills (0x80 control) otherwise.
    static EXPAND_CTRL: [[u8; 16]; 256] = build_expand_ctrl();

    const fn build_expand_ctrl() -> [[u8; 16]; 256] {
        let mut ctrl = [[0u8; 16]; 256];
        let mut m = 0usize;
        while m < 256 {
            let mut src: u8 = 0;
            let mut j = 0usize;
            while j < 8 {
                if (m >> j) & 1 == 1 {
                    ctrl[m][2 * j] = 2 * src;
                    ctrl[m][2 * j + 1] = 2 * src + 1;
                    src += 1;
                } else {
                    ctrl[m][2 * j] = 0x80;
                    ctrl[m][2 * j + 1] = 0x80;
                }
                j += 1;
            }
            m += 1;
        }
        ctrl
    }

    /// Scatters the compacted `values` to their dense bitmask positions in
    /// `bits` (resized to `TILE_ELEMS + LANE_PAD`), 8 positions per
    /// shuffle. Every position is written — zeros come from the shuffle's
    /// zero-fill lanes — so no separate clear pass is needed.
    #[target_feature(enable = "avx2")]
    fn expand_sparse(words: &[u64], values: &[u16], bits: &mut Vec<u16>) {
        bits.clear();
        bits.resize(TILE_ELEMS + LANE_PAD, 0);
        let mut nz = 0usize;
        let mut pos = 0usize;
        for &word in words {
            for byte in word.to_le_bytes() {
                let ctrl = &EXPAND_CTRL[usize::from(byte)];
                // SAFETY: `values` carries `LANE_PAD` zeros past its
                // logical end and `nz` never exceeds the nonzero count, so
                // the 8-lane load at `nz` is in bounds; `pos < TILE_ELEMS`
                // (8 words × 8 bytes × 8 positions = TILE_ELEMS) and `bits`
                // holds `TILE_ELEMS + LANE_PAD` entries, bounding the
                // store; `ctrl` is a 16-byte array.
                unsafe {
                    let src = _mm_loadu_si128(values.as_ptr().add(nz).cast());
                    let shuffled = _mm_shuffle_epi8(src, _mm_loadu_si128(ctrl.as_ptr().cast()));
                    _mm_storeu_si128(bits.as_mut_ptr().add(pos).cast(), shuffled);
                }
                nz += byte.count_ones() as usize;
                pos += 8;
            }
        }
    }

    /// Multiplies every BF16 lane of `bits` by its group's scale, 16 lanes
    /// per step. Eligibility guarantees each 16-lane chunk falls inside one
    /// scale group (`group % 16 == 0`).
    #[target_feature(enable = "avx2")]
    fn scale_bits(bits: &mut [u16], group_scales: &[Bf16], group: usize) {
        let mut pos = 0usize;
        while pos + 16 <= bits.len() {
            let vscale = _mm256_set1_ps(group_scales[pos / group].to_f32());
            // SAFETY: `pos + 16 <= bits.len()` bounds both the 16-lane load
            // and the 16-lane store at `pos`.
            unsafe {
                let raw = _mm256_loadu_si256(bits.as_ptr().add(pos).cast());
                let lo = mul_round(_mm256_cvtepu16_epi32(_mm256_castsi256_si128(raw)), vscale);
                let hi = mul_round(
                    _mm256_cvtepu16_epi32(_mm256_extracti128_si256::<1>(raw)),
                    vscale,
                );
                let packed = _mm256_packus_epi32(lo, hi);
                let fixed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
                _mm256_storeu_si256(bits.as_mut_ptr().add(pos).cast(), fixed);
            }
            pos += 16;
        }
    }

    /// Scales every BF16 lane of `bits` by its group's E8M0 scale as an
    /// exponent add, 16 lanes per step: lanes with a nonzero magnitude gain
    /// `(code - 127) << 7`, zeros of either sign stay put. Only valid when
    /// [`scales_are_exponent_adds`] holds; eligibility of the tile also
    /// guarantees `group % 16 == 0`.
    #[target_feature(enable = "avx2")]
    fn add_scale_exponents(bits: &mut [u16], scales: &[ScaleE8M0], group: usize) {
        let magnitude = _mm256_set1_epi16(0x7FFF);
        let zero = _mm256_setzero_si256();
        let mut pos = 0usize;
        while pos + 16 <= bits.len() {
            let shift = (i32::from(scales[pos / group].code()) - 127) << 7;
            let offset = _mm256_set1_epi16(shift as i16);
            // SAFETY: `pos + 16 <= bits.len()` bounds both the 16-lane load
            // and the 16-lane store at `pos`.
            unsafe {
                let raw = _mm256_loadu_si256(bits.as_ptr().add(pos).cast());
                let is_zero = _mm256_cmpeq_epi16(_mm256_and_si256(raw, magnitude), zero);
                let scaled = _mm256_add_epi16(raw, _mm256_andnot_si256(is_zero, offset));
                _mm256_storeu_si256(bits.as_mut_ptr().add(pos).cast(), scaled);
            }
            pos += 16;
        }
    }

    /// Multiplies 8 BF16 values (zero-extended into u32 lanes) by `vscale`
    /// in f32 and rounds back to BF16 bits, replicating `Bf16::from_f32`
    /// exactly: round-to-nearest-even via the `0x7FFF + lsb` bias in the
    /// integer domain, NaN products quieted by truncate-and-set-quiet-bit.
    #[target_feature(enable = "avx2")]
    fn mul_round(lanes: __m256i, vscale: __m256) -> __m256i {
        let value = _mm256_castsi256_ps(_mm256_slli_epi32::<16>(lanes));
        let product = _mm256_mul_ps(value, vscale);
        let bits = _mm256_castps_si256(product);
        let shifted = _mm256_srli_epi32::<16>(bits);
        let lsb = _mm256_and_si256(shifted, _mm256_set1_epi32(1));
        let biased = _mm256_add_epi32(_mm256_add_epi32(bits, _mm256_set1_epi32(0x7FFF)), lsb);
        let rounded = _mm256_srli_epi32::<16>(biased);
        let quiet = _mm256_or_si256(shifted, _mm256_set1_epi32(0x40));
        let is_nan = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(product, product));
        _mm256_blendv_epi8(rounded, quiet, is_nan)
    }
}

/// The enumerable backend axis: names every provided engine so that higher
/// layers can select one and report which one ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// [`ScalarEngine`] — the per-element functional reference.
    Scalar,
    /// [`WordParallelEngine`] — u64 bitmask words + popcount prefix sums.
    WordParallel,
    /// [`SimdEngine`] — AVX2 vector kernels with a portable fallback.
    Simd,
}

impl EngineKind {
    /// Every provided backend, in reference-first order.
    #[must_use]
    pub fn all() -> [EngineKind; 3] {
        [
            EngineKind::Scalar,
            EngineKind::WordParallel,
            EngineKind::Simd,
        ]
    }

    /// The backend's stable name (matches [`DecompressEngine::name`]).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Scalar => "scalar",
            EngineKind::WordParallel => "word-parallel",
            EngineKind::Simd => "simd",
        }
    }

    /// Instantiates the backend.
    #[must_use]
    pub fn build(self) -> Box<dyn DecompressEngine> {
        match self {
            EngineKind::Scalar => Box::new(ScalarEngine::new()),
            EngineKind::WordParallel => Box::new(WordParallelEngine::new()),
            EngineKind::Simd => Box::new(SimdEngine::new()),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generator::WeightGenerator, CompressionScheme, Compressor, Decompressor};

    fn sample_tile(scheme: CompressionScheme, seed: u64) -> CompressedTile {
        let tile = WeightGenerator::new(seed).dense_matrix(16, 32).tile(0, 0);
        Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress")
    }

    fn schemes() -> Vec<CompressionScheme> {
        vec![
            CompressionScheme::bf16_dense(),
            CompressionScheme::bf16_sparse(0.3),
            CompressionScheme::bf8_dense(),
            CompressionScheme::bf8_sparse(0.5),
            CompressionScheme::bf8_sparse(0.05),
            CompressionScheme::mxfp4(),
            CompressionScheme::mxfp4_sparse(0.4),
        ]
    }

    #[test]
    fn all_engines_match_the_reference_tile_output() {
        let reference = Decompressor::new();
        for scheme in schemes() {
            let tile = sample_tile(scheme, 31);
            let expected = reference.decompress_tile(&tile).expect("reference");
            for kind in EngineKind::all() {
                let engine = kind.build();
                let mut out = DenseTile::zero();
                let mut scratch = DecompressScratch::new();
                engine
                    .decompress_tile_into(&tile, &mut scratch, &mut out)
                    .expect("engine");
                for (a, b) in expected.elements().iter().zip(out.elements()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind} on {scheme}");
                }
            }
        }
    }

    #[test]
    fn output_tile_is_fully_overwritten() {
        // A reused output buffer must not leak values from a previous tile.
        let engine = WordParallelEngine::new();
        let mut scratch = DecompressScratch::new();
        let mut out = DenseTile::zero();
        let dense = sample_tile(CompressionScheme::bf8_dense(), 5);
        engine
            .decompress_tile_into(&dense, &mut scratch, &mut out)
            .expect("dense");
        let sparse = sample_tile(CompressionScheme::bf8_sparse(0.05), 6);
        engine
            .decompress_tile_into(&sparse, &mut scratch, &mut out)
            .expect("sparse");
        let reference = Decompressor::new().decompress_tile(&sparse).expect("ref");
        assert_eq!(out, reference);
    }

    #[test]
    fn matrix_decompression_matches_reference_for_ragged_shapes() {
        let g = WeightGenerator::new(9);
        let m = g.dense_matrix(50, 70); // not tile-aligned on purpose
        let cm = Compressor::new(CompressionScheme::bf8_sparse(0.3))
            .compress_matrix(&m)
            .expect("compress");
        let expected = Decompressor::new().decompress_matrix(&cm).expect("ref");
        for kind in EngineKind::all() {
            let got = kind.build().decompress_matrix(&cm).expect("engine");
            assert_eq!(got, expected, "{kind}");
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let g = WeightGenerator::new(11);
        let cm = Compressor::new(CompressionScheme::bf8_dense())
            .compress_matrix(&g.dense_matrix(32, 32))
            .expect("compress");
        let mut wrong = WeightMatrix::zeros(16, 32);
        for kind in EngineKind::all() {
            assert!(matches!(
                kind.build().decompress_matrix_into(&cm, &mut wrong),
                Err(CompressError::InvalidShape { .. })
            ));
        }
    }

    #[test]
    fn format_luts_cover_every_sub_byte_format() {
        let luts = FormatLuts::precomputed();
        for format in [
            QuantFormat::Bf8,
            QuantFormat::E4m3,
            QuantFormat::Fp4,
            QuantFormat::Int8,
            QuantFormat::Int4,
            QuantFormat::Custom {
                exp_bits: 3,
                man_bits: 2,
            },
        ] {
            let table = luts.table(format).expect("table");
            assert_eq!(table.format(), format);
            let direct = DequantTable::for_format(format);
            assert_eq!(table.entries(), direct.entries());
        }
        assert!(luts.table(QuantFormat::Bf16).is_none());
        assert_eq!(
            luts.dequantize(QuantFormat::Bf16, Bf16::ONE.to_bits())
                .to_f32(),
            1.0
        );
    }

    #[test]
    fn engine_kind_labels_round_trip() {
        for kind in EngineKind::all() {
            assert_eq!(kind.build().name(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn simd_portable_fallback_matches_reference() {
        // The forced fallback must stay bit-exact even on hosts where the
        // AVX2 path would normally run — this is the regression test for
        // the feature-detection contract.
        let engine = SimdEngine::portable();
        assert!(!engine.uses_avx2());
        let reference = Decompressor::new();
        for scheme in schemes() {
            let tile = sample_tile(scheme, 47);
            let expected = reference.decompress_tile(&tile).expect("reference");
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            engine
                .decompress_tile_into(&tile, &mut scratch, &mut out)
                .expect("portable");
            for (a, b) in expected.elements().iter().zip(out.elements()) {
                assert_eq!(a.to_bits(), b.to_bits(), "portable on {scheme}");
            }
        }
    }

    #[test]
    fn simd_routes_forged_infinite_scales_to_the_fallback() {
        use deca_numerics::mx::ScaleE8M0;
        // E8M0 code 255 promotes to +inf; the vector scale pass multiplies
        // zeros too, so such tiles must take the scalar-equivalent path.
        let tile = sample_tile(CompressionScheme::mxfp4_sparse(0.4), 13);
        let forged = CompressedTile::new(
            *tile.scheme(),
            tile.nonzero_bytes().to_vec(),
            tile.nonzero_count(),
            tile.bitmask().cloned(),
            vec![ScaleE8M0::from_code(255); tile.scales().len()],
        )
        .expect("forged tile still validates");
        let expected = Decompressor::new()
            .decompress_tile(&forged)
            .expect("reference");
        for engine in [SimdEngine::new(), SimdEngine::portable()] {
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            engine
                .decompress_tile_into(&forged, &mut scratch, &mut out)
                .expect("simd");
            for (pos, (a, b)) in expected.elements().iter().zip(out.elements()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "position {pos}");
            }
        }
    }
}
