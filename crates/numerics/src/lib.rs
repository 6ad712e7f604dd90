//! Low-bit numeric formats used by compressed LLM weight tiles.
//!
//! The DECA paper (MICRO 2025) evaluates weight matrices stored as BF16, BF8
//! (8-bit brain floating point) and MXFP4 (4-bit floating point with a shared
//! per-32-element scale). The accelerator itself is format-agnostic: it
//! dequantizes *any* format of 8 bits or fewer through a 256-entry lookup
//! table. This crate provides:
//!
//! * [`Bf16`] — the 16-bit brain floating point output format of the
//!   decompression pipeline,
//! * [`Minifloat`] — a generic ≤8-bit floating point codec covering E5M2
//!   ("BF8"), E4M3, E2M1 (the FP4 element type of MXFP4) and any custom
//!   sign/exponent/mantissa split,
//! * [`IntCodec`] — symmetric integer quantization (INT8/INT4),
//! * [`mx`] — Microscaling (MX) group quantization with a shared 8-bit
//!   power-of-two scale per group,
//! * [`DequantTable`] — the 256-entry dequantization LUT content that DECA's
//!   LUT array is programmed with.
//!
//! # Example
//!
//! ```
//! use deca_numerics::{Minifloat, Bf16};
//!
//! let bf8 = Minifloat::bf8();
//! let code = bf8.encode(1.5);
//! assert_eq!(bf8.decode(code), 1.5);
//!
//! let x = Bf16::from_f32(3.1415927);
//! assert!((x.to_f32() - 3.1415927).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bf16;
mod error;
mod intq;
pub mod lut;
mod minifloat;
pub mod mx;

pub use bf16::Bf16;
pub use error::FormatError;
pub use intq::IntCodec;
pub use lut::DequantTable;
pub use minifloat::{Minifloat, RoundingMode};

/// The quantized storage formats understood by the compression pipeline and
/// by DECA's dequantization stage.
///
/// Every variant occupies at most 8 bits per element, the maximum DECA
/// supports (§6.1 of the paper). The element bit-width determines how many
/// parallel lookups a single "big" LUT can serve per cycle (`L` for 8-bit,
/// `2L` for 7-bit, `4L` for ≤6-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantFormat {
    /// Uncompressed 16-bit brain floating point (no dequantization needed).
    Bf16,
    /// 8-bit brain floating point, E5M2. The paper's "BF8" / "Q8".
    Bf8,
    /// 8-bit floating point, E4M3 (higher precision, smaller range).
    E4m3,
    /// 4-bit floating point element, E2M1, as used inside MXFP4.
    Fp4,
    /// Signed 8-bit integer with an external scale.
    Int8,
    /// Signed 4-bit integer with an external scale (AWQ-style).
    Int4,
    /// An arbitrary minifloat with the given exponent and mantissa widths.
    Custom {
        /// Number of exponent bits (1..=5).
        exp_bits: u8,
        /// Number of mantissa bits (0..=6).
        man_bits: u8,
    },
}

impl QuantFormat {
    /// Bits of storage per quantized element.
    #[must_use]
    pub fn bits(self) -> u8 {
        match self {
            QuantFormat::Bf16 => 16,
            QuantFormat::Bf8 | QuantFormat::E4m3 | QuantFormat::Int8 => 8,
            QuantFormat::Fp4 | QuantFormat::Int4 => 4,
            QuantFormat::Custom { exp_bits, man_bits } => 1 + exp_bits + man_bits,
        }
    }

    /// Whether elements of this format are floating point (vs integer) codes.
    #[must_use]
    pub fn is_float(self) -> bool {
        !matches!(self, QuantFormat::Int8 | QuantFormat::Int4)
    }

    /// Whether the format needs a per-group scale factor to be useful
    /// (MX-style group quantization).
    #[must_use]
    pub fn uses_group_scale(self) -> bool {
        matches!(
            self,
            QuantFormat::Fp4 | QuantFormat::Int4 | QuantFormat::Int8
        )
    }

    /// The minifloat codec for floating-point formats.
    ///
    /// Returns `None` for [`QuantFormat::Bf16`] (which is not re-encoded) and
    /// for the integer formats.
    #[must_use]
    pub fn minifloat(self) -> Option<Minifloat> {
        match self {
            QuantFormat::Bf8 => Some(Minifloat::bf8()),
            QuantFormat::E4m3 => Some(Minifloat::e4m3()),
            QuantFormat::Fp4 => Some(Minifloat::e2m1()),
            QuantFormat::Custom { exp_bits, man_bits } => Minifloat::new(exp_bits, man_bits).ok(),
            QuantFormat::Bf16 | QuantFormat::Int8 | QuantFormat::Int4 => None,
        }
    }

    /// A short human-readable name matching the paper's labels
    /// (`Q16`, `Q8`, `Q4`, ...).
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            QuantFormat::Bf16 => "Q16",
            QuantFormat::Bf8 => "Q8",
            QuantFormat::E4m3 => "E4M3",
            QuantFormat::Fp4 => "Q4",
            QuantFormat::Int8 => "I8",
            QuantFormat::Int4 => "I4",
            QuantFormat::Custom { .. } => "QX",
        }
    }
}

impl std::fmt::Display for QuantFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantFormat::Custom { exp_bits, man_bits } => {
                write!(f, "E{exp_bits}M{man_bits}")
            }
            other => write!(f, "{}", other.short_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_bit_widths() {
        assert_eq!(QuantFormat::Bf16.bits(), 16);
        assert_eq!(QuantFormat::Bf8.bits(), 8);
        assert_eq!(QuantFormat::E4m3.bits(), 8);
        assert_eq!(QuantFormat::Fp4.bits(), 4);
        assert_eq!(QuantFormat::Int4.bits(), 4);
        assert_eq!(
            QuantFormat::Custom {
                exp_bits: 3,
                man_bits: 2
            }
            .bits(),
            6
        );
    }

    #[test]
    fn format_short_names() {
        assert_eq!(QuantFormat::Bf16.short_name(), "Q16");
        assert_eq!(QuantFormat::Bf8.short_name(), "Q8");
        assert_eq!(QuantFormat::Fp4.short_name(), "Q4");
    }

    #[test]
    fn format_display_custom() {
        let f = QuantFormat::Custom {
            exp_bits: 3,
            man_bits: 2,
        };
        assert_eq!(f.to_string(), "E3M2");
        assert_eq!(QuantFormat::Bf8.to_string(), "Q8");
    }

    #[test]
    fn minifloat_available_for_float_formats() {
        assert!(QuantFormat::Bf8.minifloat().is_some());
        assert!(QuantFormat::E4m3.minifloat().is_some());
        assert!(QuantFormat::Fp4.minifloat().is_some());
        assert!(QuantFormat::Bf16.minifloat().is_none());
        assert!(QuantFormat::Int8.minifloat().is_none());
    }

    #[test]
    fn group_scale_usage() {
        assert!(QuantFormat::Fp4.uses_group_scale());
        assert!(QuantFormat::Int4.uses_group_scale());
        assert!(!QuantFormat::Bf8.uses_group_scale());
        assert!(!QuantFormat::Bf16.uses_group_scale());
    }
}
