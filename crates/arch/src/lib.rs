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

pub mod desc;
pub mod dir;

pub use desc::{
    ArchDescription, Bandwidths, CacheHierarchy, CacheLevel, DescError, MachineParams, PeakParams,
};
pub use dir::{load_dir, load_file, LoadError, LoadedDescription};

/// The 64 instruction categories, mirroring the Intel SDM's grouping of the
/// x86 instruction set (general-purpose groups, x87, MMX, SSE–SSE4.2, AVX,
/// system, and 64-bit-mode instructions).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Category {
    // --- general-purpose ---
    IntDataTransfer = 0,
    IntArith = 1,
    IntLogical = 2,
    ShiftRotate = 3,
    BitByte = 4,
    IntControlTransfer = 5,
    DecimalArith = 6,
    StringInstr = 7,
    IoInstr = 8,
    EnterLeave = 9,
    FlagControl = 10,
    SegmentRegister = 11,
    MiscInstr = 12,
    RandomNumber = 13,
    Bmi1 = 14,
    Bmi2 = 15,
    // --- x87 FPU ---
    X87DataTransfer = 16,
    X87BasicArith = 17,
    X87Compare = 18,
    X87Transcendental = 19,
    X87LoadConstant = 20,
    X87Control = 21,
    // --- MMX ---
    MmxDataTransfer = 22,
    MmxConversion = 23,
    MmxPackedArith = 24,
    MmxComparison = 25,
    MmxLogical = 26,
    MmxShiftRotate = 27,
    MmxStateManagement = 28,
    // --- SSE (single precision) ---
    SseDataTransfer = 29,
    SsePackedArith = 30,
    SseComparison = 31,
    SseLogical = 32,
    SseShuffleUnpack = 33,
    SseConversion = 34,
    SseMxcsrState = 35,
    Sse64bitSimd = 36,
    SseCacheability = 37,
    // --- SSE2 (double precision + 128-bit integer SIMD) ---
    Sse2DataMovement = 38,
    Sse2PackedArith = 39,
    Sse2Logical = 40,
    Sse2Compare = 41,
    Sse2ShuffleUnpack = 42,
    Sse2Conversion = 43,
    Sse2PackedSingleConversion = 44,
    Sse2PackedInteger = 45,
    Sse2Cacheability = 46,
    // --- later SIMD generations ---
    Sse3 = 47,
    Ssse3 = 48,
    Sse41 = 49,
    Sse42 = 50,
    AesNi = 51,
    AvxArith = 52,
    AvxDataMovement = 53,
    AvxOther = 54,
    Fma = 55,
    Avx2 = 56,
    F16c = 57,
    // --- system / mode ---
    Mode64Bit = 58,
    SystemInstr = 59,
    Vmx = 60,
    Smx = 61,
    Tsx = 62,
    Sgx = 63,
}

impl Category {
    /// Total number of categories.
    pub const COUNT: usize = 64;

    /// All categories, index-aligned with their `u8` representation.
    pub const ALL: [Category; Category::COUNT] = {
        use Category::*;
        [
            IntDataTransfer,
            IntArith,
            IntLogical,
            ShiftRotate,
            BitByte,
            IntControlTransfer,
            DecimalArith,
            StringInstr,
            IoInstr,
            EnterLeave,
            FlagControl,
            SegmentRegister,
            MiscInstr,
            RandomNumber,
            Bmi1,
            Bmi2,
            X87DataTransfer,
            X87BasicArith,
            X87Compare,
            X87Transcendental,
            X87LoadConstant,
            X87Control,
            MmxDataTransfer,
            MmxConversion,
            MmxPackedArith,
            MmxComparison,
            MmxLogical,
            MmxShiftRotate,
            MmxStateManagement,
            SseDataTransfer,
            SsePackedArith,
            SseComparison,
            SseLogical,
            SseShuffleUnpack,
            SseConversion,
            SseMxcsrState,
            Sse64bitSimd,
            SseCacheability,
            Sse2DataMovement,
            Sse2PackedArith,
            Sse2Logical,
            Sse2Compare,
            Sse2ShuffleUnpack,
            Sse2Conversion,
            Sse2PackedSingleConversion,
            Sse2PackedInteger,
            Sse2Cacheability,
            Sse3,
            Ssse3,
            Sse41,
            Sse42,
            AesNi,
            AvxArith,
            AvxDataMovement,
            AvxOther,
            Fma,
            Avx2,
            F16c,
            Mode64Bit,
            SystemInstr,
            Vmx,
            Smx,
            Tsx,
            Sgx,
        ]
    };

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn from_index(i: usize) -> Option<Category> {
        Category::ALL.get(i).copied()
    }

    /// Canonical identifier used in architecture description files.
    pub fn name(self) -> &'static str {
        use Category::*;
        match self {
            IntDataTransfer => "int_data_transfer",
            IntArith => "int_arith",
            IntLogical => "int_logical",
            ShiftRotate => "shift_rotate",
            BitByte => "bit_byte",
            IntControlTransfer => "int_control_transfer",
            DecimalArith => "decimal_arith",
            StringInstr => "string",
            IoInstr => "io",
            EnterLeave => "enter_leave",
            FlagControl => "flag_control",
            SegmentRegister => "segment_register",
            MiscInstr => "misc",
            RandomNumber => "random_number",
            Bmi1 => "bmi1",
            Bmi2 => "bmi2",
            X87DataTransfer => "x87_data_transfer",
            X87BasicArith => "x87_basic_arith",
            X87Compare => "x87_compare",
            X87Transcendental => "x87_transcendental",
            X87LoadConstant => "x87_load_constant",
            X87Control => "x87_control",
            MmxDataTransfer => "mmx_data_transfer",
            MmxConversion => "mmx_conversion",
            MmxPackedArith => "mmx_packed_arith",
            MmxComparison => "mmx_comparison",
            MmxLogical => "mmx_logical",
            MmxShiftRotate => "mmx_shift_rotate",
            MmxStateManagement => "mmx_state_management",
            SseDataTransfer => "sse_data_transfer",
            SsePackedArith => "sse_packed_arith",
            SseComparison => "sse_comparison",
            SseLogical => "sse_logical",
            SseShuffleUnpack => "sse_shuffle_unpack",
            SseConversion => "sse_conversion",
            SseMxcsrState => "sse_mxcsr_state",
            Sse64bitSimd => "sse_64bit_simd",
            SseCacheability => "sse_cacheability",
            Sse2DataMovement => "sse2_data_movement",
            Sse2PackedArith => "sse2_packed_arith",
            Sse2Logical => "sse2_logical",
            Sse2Compare => "sse2_compare",
            Sse2ShuffleUnpack => "sse2_shuffle_unpack",
            Sse2Conversion => "sse2_conversion",
            Sse2PackedSingleConversion => "sse2_packed_single_conversion",
            Sse2PackedInteger => "sse2_packed_integer",
            Sse2Cacheability => "sse2_cacheability",
            Sse3 => "sse3",
            Ssse3 => "ssse3",
            Sse41 => "sse4_1",
            Sse42 => "sse4_2",
            AesNi => "aesni",
            AvxArith => "avx_arith",
            AvxDataMovement => "avx_data_movement",
            AvxOther => "avx_other",
            Fma => "fma",
            Avx2 => "avx2",
            F16c => "f16c",
            Mode64Bit => "mode_64bit",
            SystemInstr => "system",
            Vmx => "vmx",
            Smx => "smx",
            Tsx => "tsx",
            Sgx => "sgx",
        }
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
