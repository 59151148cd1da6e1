//! # mira-arch — instruction categories and architecture description files
//!
//! Mira's architecture description file (paper §III-C6) serves two purposes:
//!
//! 1. It divides the x86 instruction set into **64 categories** (Table II
//!    shows seven of them for `cg_solve`). Mira reports per-category
//!    cumulative instruction counts at statement granularity — a middle
//!    ground between per-opcode noise and a single opaque total.
//! 2. It carries machine parameters (core count, cache-line size, vector
//!    width, ...) and user-defined **metric groups** — named sets of
//!    categories such as `fpi` (floating-point instructions, the paper's
//!    headline metric, equivalent to `PAPI_FP_INS`) — that downstream
//!    predictions (e.g. arithmetic intensity, §IV-D2) are computed from.
//!
//! The file format is a small INI dialect parsed by [`ArchDescription::parse`]
//! (no offline serde format crate is available in this environment; the
//! dependency decision is documented in DESIGN.md).
//!
//! The categories are one table, `categories!` in this file: one row
//! `Variant = "name",` per category, in `repr(u8)` order, generates
//! [`Category`], [`Category::ALL`] and [`Category::name`]. A category's
//! variant, index and description-file name are stated once.

pub mod desc;
pub mod dir;

pub use desc::{
    ArchDescription, Bandwidths, CacheHierarchy, CacheLevel, DescError, MachineParams, PeakParams,
};
pub use dir::{load_dir, load_file, LoadError, LoadedDescription};

/// Generates [`Category`], [`Category::ALL`] and [`Category::name`] from
/// the category table: one row `Variant = "name",` per category, in
/// `repr(u8)` order.
macro_rules! categories {
    ($($variant:ident = $name:literal,)*) => {
        /// The 64 instruction categories, mirroring the Intel SDM's grouping of the
        /// x86 instruction set (general-purpose groups, x87, MMX, SSE–SSE4.2, AVX,
        /// system, and 64-bit-mode instructions).
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        #[repr(u8)]
        pub enum Category {
            $($variant,)*
        }

        impl Category {
            /// All categories, index-aligned with their `u8` representation.
            pub const ALL: [Category; Category::COUNT] = [$(Category::$variant),*];

            /// Canonical identifier used in architecture description files.
            pub fn name(self) -> &'static str {
                match self {
                    $(Category::$variant => $name,)*
                }
            }
        }
    };
}

categories! {
    // --- general-purpose ---
    IntDataTransfer = "int_data_transfer",
    IntArith = "int_arith",
    IntLogical = "int_logical",
    ShiftRotate = "shift_rotate",
    BitByte = "bit_byte",
    IntControlTransfer = "int_control_transfer",
    DecimalArith = "decimal_arith",
    StringInstr = "string",
    IoInstr = "io",
    EnterLeave = "enter_leave",
    FlagControl = "flag_control",
    SegmentRegister = "segment_register",
    MiscInstr = "misc",
    RandomNumber = "random_number",
    Bmi1 = "bmi1",
    Bmi2 = "bmi2",
    // --- x87 FPU ---
    X87DataTransfer = "x87_data_transfer",
    X87BasicArith = "x87_basic_arith",
    X87Compare = "x87_compare",
    X87Transcendental = "x87_transcendental",
    X87LoadConstant = "x87_load_constant",
    X87Control = "x87_control",
    // --- MMX ---
    MmxDataTransfer = "mmx_data_transfer",
    MmxConversion = "mmx_conversion",
    MmxPackedArith = "mmx_packed_arith",
    MmxComparison = "mmx_comparison",
    MmxLogical = "mmx_logical",
    MmxShiftRotate = "mmx_shift_rotate",
    MmxStateManagement = "mmx_state_management",
    // --- SSE (single precision) ---
    SseDataTransfer = "sse_data_transfer",
    SsePackedArith = "sse_packed_arith",
    SseComparison = "sse_comparison",
    SseLogical = "sse_logical",
    SseShuffleUnpack = "sse_shuffle_unpack",
    SseConversion = "sse_conversion",
    SseMxcsrState = "sse_mxcsr_state",
    Sse64bitSimd = "sse_64bit_simd",
    SseCacheability = "sse_cacheability",
    // --- SSE2 (double precision + 128-bit integer SIMD) ---
    Sse2DataMovement = "sse2_data_movement",
    Sse2PackedArith = "sse2_packed_arith",
    Sse2Logical = "sse2_logical",
    Sse2Compare = "sse2_compare",
    Sse2ShuffleUnpack = "sse2_shuffle_unpack",
    Sse2Conversion = "sse2_conversion",
    Sse2PackedSingleConversion = "sse2_packed_single_conversion",
    Sse2PackedInteger = "sse2_packed_integer",
    Sse2Cacheability = "sse2_cacheability",
    // --- later SIMD generations ---
    Sse3 = "sse3",
    Ssse3 = "ssse3",
    Sse41 = "sse4_1",
    Sse42 = "sse4_2",
    AesNi = "aesni",
    AvxArith = "avx_arith",
    AvxDataMovement = "avx_data_movement",
    AvxOther = "avx_other",
    Fma = "fma",
    Avx2 = "avx2",
    F16c = "f16c",
    // --- system / mode ---
    Mode64Bit = "mode_64bit",
    SystemInstr = "system",
    Vmx = "vmx",
    Smx = "smx",
    Tsx = "tsx",
    Sgx = "sgx",
}

impl Category {
    /// Total number of categories.
    pub const COUNT: usize = 64;

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn from_index(i: usize) -> Option<Category> {
        Category::ALL.get(i).copied()
    }

    /// Human-readable description, used in Table-II style reports.
    pub fn display_name(self) -> &'static str {
        use Category::*;
        match self {
            IntDataTransfer => "Integer data transfer instruction",
            IntArith => "Integer arithmetic instruction",
            IntControlTransfer => "Integer control transfer instruction",
            Sse2DataMovement => "SSE2 data movement instruction",
            Sse2PackedArith => "SSE2 packed arithmetic instruction",
            Mode64Bit => "64-bit mode instruction",
            MiscInstr => "Misc Instruction",
            other => other.name(),
        }
    }

    pub fn from_name(name: &str) -> Option<Category> {
        Category::ALL.iter().copied().find(|c| c.name() == name)
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fixed-size per-category counter vector; the unit of every metric
/// report in Mira.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CategoryCounts {
    counts: [i128; Category::COUNT],
}

impl Default for CategoryCounts {
    fn default() -> Self {
        CategoryCounts {
            counts: [0; Category::COUNT],
        }
    }
}

impl CategoryCounts {
    pub fn new() -> CategoryCounts {
        CategoryCounts::default()
    }

    pub fn get(&self, c: Category) -> i128 {
        self.counts[c.index()]
    }

    pub fn add(&mut self, c: Category, n: i128) {
        self.counts[c.index()] += n;
    }

    pub fn set(&mut self, c: Category, n: i128) {
        self.counts[c.index()] = n;
    }

    pub fn total(&self) -> i128 {
        self.counts.iter().sum()
    }

    /// Sum over a metric group (set of categories).
    pub fn metric(&self, cats: &[Category]) -> i128 {
        cats.iter().map(|c| self.get(*c)).sum()
    }

    /// Non-zero (category, count) pairs, descending by count.
    pub fn nonzero(&self) -> Vec<(Category, i128)> {
        let mut v: Vec<(Category, i128)> = Category::ALL
            .iter()
            .copied()
            .filter(|c| self.get(*c) != 0)
            .map(|c| (c, self.get(c)))
            .collect();
        v.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        v
    }

    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_64_categories() {
        assert_eq!(Category::COUNT, 64);
        assert_eq!(Category::ALL.len(), 64);
    }

    #[test]
    fn indices_roundtrip() {
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(Category::from_index(i), Some(*c));
        }
        assert_eq!(Category::from_index(64), None);
    }

    #[test]
    fn names_unique_and_roundtrip() {
        use std::collections::BTreeSet;
        let names: BTreeSet<&str> = Category::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 64);
        for c in Category::ALL {
            assert_eq!(Category::from_name(c.name()), Some(c));
        }
        assert_eq!(Category::from_name("bogus"), None);
    }

    #[test]
    fn counts_add_and_metric() {
        let mut a = CategoryCounts::new();
        a.add(Category::Sse2PackedArith, 10);
        a.add(Category::IntArith, 5);
        a.add(Category::Sse2PackedArith, 7);
        assert_eq!(a.get(Category::Sse2PackedArith), 17);
        assert_eq!(a.total(), 22);
        assert_eq!(a.metric(&[Category::Sse2PackedArith]), 17);
    }

    #[test]
    fn nonzero_sorted_descending() {
        let mut a = CategoryCounts::new();
        a.add(Category::IntArith, 5);
        a.add(Category::Sse2PackedArith, 50);
        let nz = a.nonzero();
        assert_eq!(nz[0].0, Category::Sse2PackedArith);
        assert_eq!(nz.len(), 2);
    }
}
