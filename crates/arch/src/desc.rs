//! The architecture description file (paper §III-C6).
//!
//! An INI-dialect text file with three kinds of sections:
//!
//! ```ini
//! [machine]
//! name = arya
//! cores = 36
//! cache_line_bytes = 64
//! vector_bits = 128
//! fp_lanes_per_vector = 2
//!
//! [metric fpi]
//! categories = sse2_packed_arith, sse_packed_arith, x87_basic_arith, avx_arith, fma
//!
//! [metric fp_movement]
//! categories = sse2_data_movement, sse_data_transfer, x87_data_transfer, avx_data_movement
//! ```
//!
//! Metric groups name sets of instruction categories; `fpi` reproduces
//! `PAPI_FP_INS` (the paper's validation metric) and the
//! `fpi / fp_movement` ratio is the instruction-based arithmetic intensity
//! of §IV-D2.

use crate::Category;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// One cache level from a `[cache lN]` section: capacity and associativity
/// (the line size is shared across the hierarchy via
/// `machine.cache_line_bytes`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheLevel {
    pub size_bytes: u32,
    pub assoc: u32,
}

impl CacheLevel {
    /// Whether one set fits in the level: `line_bytes × assoc` is nonzero
    /// and neither overflows nor exceeds `size_bytes`.
    /// [`ArchDescription::parse`] refuses levels that fail this.
    pub fn fits(&self, line_bytes: u32) -> bool {
        line_bytes
            .checked_mul(self.assoc)
            .is_some_and(|b| b > 0 && b <= self.size_bytes)
    }

    /// Number of sets at a given line size, at least one. Total for
    /// hand-built levels too: zero ways count as one, and a set whose
    /// byte size overflows (or is zero) means one set.
    pub fn sets(&self, line_bytes: u32) -> u32 {
        match line_bytes.checked_mul(self.assoc.max(1)) {
            Some(b) if b > 0 => (self.size_bytes / b).max(1),
            _ => 1,
        }
    }

    /// Ways per set at a given line size: the declared associativity,
    /// at least one, and never more lines than the whole level holds.
    /// The cap only bites on hand-built levels that fail [`Self::fits`];
    /// with it `sets × ways × line_bytes ≤ max(size_bytes, line_bytes)`.
    pub fn ways(&self, line_bytes: u32) -> u32 {
        let lines = self.size_bytes.checked_div(line_bytes).unwrap_or(0);
        self.assoc.min(lines).max(1)
    }
}

/// The cache hierarchy a description file declares — the parameters the
/// `mira-mem` simulator and the static distinct-line models consume.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheHierarchy {
    pub line_bytes: u32,
    pub l1: CacheLevel,
    pub l2: CacheLevel,
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        let m = MachineParams::default();
        CacheHierarchy {
            line_bytes: m.cache_line_bytes,
            l1: m.l1,
            l2: m.l2,
        }
    }
}

/// Peak floating-point issue parameters from the `[peak]` section — the
/// compute ceiling of a roofline plot, in FLOPs per cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeakParams {
    /// Floating-point execution pipes that can issue each cycle (2 for
    /// the classic separate add + multiply pipes).
    pub fp_pipes: u32,
    /// Fused multiply-add support: each pipe retires two FLOPs per op.
    pub fma: bool,
}

impl Default for PeakParams {
    fn default() -> Self {
        PeakParams {
            fp_pipes: 2,
            fma: false,
        }
    }
}

impl PeakParams {
    /// Peak scalar double-precision FLOPs per cycle.
    pub fn scalar_flops_per_cycle(&self) -> u32 {
        self.fp_pipes * if self.fma { 2 } else { 1 }
    }

    /// Peak vector FLOPs per cycle at a given lane count
    /// (`machine.fp_lanes_per_vector`).
    pub fn vector_flops_per_cycle(&self, lanes: u32) -> u32 {
        self.scalar_flops_per_cycle() * lanes.max(1)
    }
}

/// Sustainable bandwidth of each memory-hierarchy boundary, in bytes per
/// cycle, from the `[bandwidth lN]` / `[bandwidth dram]` sections. Each
/// value caps the traffic crossing *into* that level: `l1` is the
/// core↔L1 load/store bandwidth, `l2` the L1↔L2 fill/write-back path,
/// `dram` the L2↔memory path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bandwidths {
    pub l1: u32,
    pub l2: u32,
    pub dram: u32,
}

impl Default for Bandwidths {
    fn default() -> Self {
        Bandwidths {
            l1: 32,
            l2: 16,
            dram: 4,
        }
    }
}

/// Machine parameters from the `[machine]` section.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineParams {
    pub name: String,
    pub cores: u32,
    pub cache_line_bytes: u32,
    pub vector_bits: u32,
    /// Double-precision lanes per vector register (2 for SSE2, 4 for AVX).
    pub fp_lanes_per_vector: u32,
    /// First-level data cache (`[cache l1]`).
    pub l1: CacheLevel,
    /// Second-level cache (`[cache l2]`).
    pub l2: CacheLevel,
    /// Peak FLOP issue rates (`[peak]`).
    pub peak: PeakParams,
    /// Per-boundary sustainable bandwidths (`[bandwidth *]`).
    pub bandwidth: Bandwidths,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            name: "generic-x86_64".to_string(),
            cores: 1,
            cache_line_bytes: 64,
            vector_bits: 128,
            fp_lanes_per_vector: 2,
            l1: CacheLevel {
                size_bytes: 32 * 1024,
                assoc: 8,
            },
            l2: CacheLevel {
                size_bytes: 256 * 1024,
                assoc: 8,
            },
            peak: PeakParams::default(),
            bandwidth: Bandwidths::default(),
        }
    }
}

/// Parse / validation errors for description files.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DescError {
    Syntax { line: usize, msg: String },
    UnknownCategory { line: usize, name: String },
    UnknownKey { line: usize, key: String },
    BadValue { line: usize, key: String },
}

impl fmt::Display for DescError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            DescError::UnknownCategory { line, name } => {
                write!(f, "line {line}: unknown instruction category `{name}`")
            }
            DescError::UnknownKey { line, key } => write!(f, "line {line}: unknown key `{key}`"),
            DescError::BadValue { line, key } => {
                write!(f, "line {line}: bad value for `{key}`")
            }
        }
    }
}

impl std::error::Error for DescError {}

/// A parsed architecture description.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArchDescription {
    pub machine: MachineParams,
    metrics: BTreeMap<String, Vec<Category>>,
}

/// The default description shipped with Mira: a generic SSE2 x86-64 with
/// the metric groups used throughout the paper's evaluation.
pub const DEFAULT_DESCRIPTION: &str = "\
# Mira default architecture description (generic x86-64, SSE2)
[machine]
name = generic-x86_64
cores = 1
cache_line_bytes = 64
vector_bits = 128
fp_lanes_per_vector = 2

# Cache hierarchy (sizes and associativity; the line size above is shared).
[cache l1]
size_bytes = 32768
assoc = 8

[cache l2]
size_bytes = 262144
assoc = 8

# Peak FP issue: two pipes (add + multiply), no FMA — 2 scalar FLOPs/cycle,
# 4 packed at 2 lanes. The compute ceiling of the roofline.
[peak]
fp_pipes = 2
fma = no

# Sustainable bytes/cycle across each hierarchy boundary — the memory
# ceilings of the roofline (core-L1, L1-L2, L2-memory).
[bandwidth l1]
bytes_per_cycle = 32

[bandwidth l2]
bytes_per_cycle = 16

[bandwidth dram]
bytes_per_cycle = 4

# PAPI_FP_INS equivalent: scalar+packed double/single FP arithmetic.
[metric fpi]
categories = sse2_packed_arith, sse_packed_arith, x87_basic_arith, avx_arith, fma

# FP data movement between XMM registers and memory (arithmetic-intensity
# denominator, paper SIV-D2).
[metric fp_movement]
categories = sse2_data_movement, sse_data_transfer, x87_data_transfer, avx_data_movement

# Total memory-ish traffic proxy.
[metric int_movement]
categories = int_data_transfer

[metric branches]
categories = int_control_transfer
";

impl Default for ArchDescription {
    /// [`DEFAULT_DESCRIPTION`], parsed once per process and cloned.
    fn default() -> Self {
        static DEFAULT: OnceLock<ArchDescription> = OnceLock::new();
        DEFAULT
            .get_or_init(|| {
                ArchDescription::parse(DEFAULT_DESCRIPTION).expect("default description must parse")
            })
            .clone()
    }
}

impl ArchDescription {
    /// Parse a description file. Every number is a `u32`: the cache
    /// sizes and ways, `fp_pipes` and `bytes_per_cycle` are at least 1,
    /// and `cache_line_bytes` is a power of two of at least 8. Errors
    /// name the line and the key.
    pub fn parse(text: &str) -> Result<ArchDescription, DescError> {
        enum Section {
            None,
            Machine,
            /// `true` selects L2, `false` L1.
            Cache(bool),
            Peak,
            /// 0 = l1, 1 = l2, 2 = dram.
            Bandwidth(u8),
            Metric(String),
        }
        let mut machine = MachineParams::default();
        let mut metrics: BTreeMap<String, Vec<Category>> = BTreeMap::new();
        let mut section = Section::None;
        // per cache level, the last key that changed its geometry (its own
        // keys or the shared line size) — blamed if one set ends up wider
        // than the whole level
        let mut geometry_key: [(usize, &str); 2] = [(0, "cache_line_bytes"); 2];
        // the last key that changed the peak FLOP rate — blamed if the
        // vector rate overflows `u32`
        let mut peak_key: (usize, &str) = (0, "fp_pipes");
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
                continue;
            }
            let syntax = |msg: String| DescError::Syntax { line: lineno, msg };
            if let Some(inner) = line.strip_prefix('[') {
                let inner = inner
                    .strip_suffix(']')
                    .ok_or_else(|| syntax("unterminated section header".to_string()))?
                    .trim();
                section = if inner == "machine" {
                    Section::Machine
                } else if let Some(level) = inner.strip_prefix("cache ") {
                    match level.trim() {
                        "l1" => Section::Cache(false),
                        "l2" => Section::Cache(true),
                        other => {
                            return Err(syntax(format!(
                                "unknown cache level `{other}` (expected l1 or l2)"
                            )))
                        }
                    }
                } else if inner == "peak" {
                    Section::Peak
                } else if let Some(level) = inner.strip_prefix("bandwidth ") {
                    match level.trim() {
                        "l1" => Section::Bandwidth(0),
                        "l2" => Section::Bandwidth(1),
                        "dram" => Section::Bandwidth(2),
                        other => {
                            return Err(syntax(format!(
                                "unknown bandwidth level `{other}` (expected l1, l2 or dram)"
                            )))
                        }
                    }
                } else if let Some(name) = inner.strip_prefix("metric ") {
                    let name = name.trim().to_string();
                    metrics.entry(name.clone()).or_default();
                    Section::Metric(name)
                } else {
                    return Err(syntax(format!("unknown section `[{inner}]`")));
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| syntax("expected `key = value`".to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = || DescError::BadValue {
                line: lineno,
                key: key.to_string(),
            };
            // every number is a `u32` of at least `min`
            let num = |min: u32| value.parse().ok().filter(|&v| v >= min).ok_or_else(bad);
            match (&section, key) {
                (Section::None, _) => return Err(syntax("key outside of any section".to_string())),
                (Section::Machine, "name") => machine.name = value.to_string(),
                (Section::Machine, "cores") => machine.cores = num(0)?,
                (Section::Machine, "cache_line_bytes") => {
                    // the mira-mem simulator and line-footprint closed
                    // forms both assume power-of-two lines
                    let v = num(8)?;
                    if !v.is_power_of_two() {
                        return Err(bad());
                    }
                    machine.cache_line_bytes = v;
                    geometry_key = [(lineno, key); 2];
                }
                (Section::Machine, "vector_bits") => machine.vector_bits = num(0)?,
                (Section::Machine, "fp_lanes_per_vector") => {
                    machine.fp_lanes_per_vector = num(0)?;
                    peak_key = (lineno, key);
                }
                (Section::Cache(is_l2), "size_bytes" | "assoc") => {
                    let level = if *is_l2 {
                        &mut machine.l2
                    } else {
                        &mut machine.l1
                    };
                    let field = if key == "assoc" {
                        &mut level.assoc
                    } else {
                        &mut level.size_bytes
                    };
                    *field = num(1)?;
                    geometry_key[usize::from(*is_l2)] = (lineno, key);
                }
                (Section::Peak, "fp_pipes") => {
                    machine.peak.fp_pipes = num(1)?;
                    peak_key = (lineno, key);
                }
                (Section::Peak, "fma") => {
                    machine.peak.fma = match value {
                        "yes" | "true" | "1" => true,
                        "no" | "false" | "0" => false,
                        _ => return Err(bad()),
                    };
                    peak_key = (lineno, key);
                }
                (Section::Bandwidth(level), "bytes_per_cycle") => {
                    let bw = &mut machine.bandwidth;
                    *[&mut bw.l1, &mut bw.l2, &mut bw.dram][usize::from(*level)] = num(1)?;
                }
                (Section::Metric(name), "categories") => {
                    let cats = value
                        .split(',')
                        .map(str::trim)
                        .filter(|part| !part.is_empty())
                        .map(|part| {
                            Category::from_name(part).ok_or_else(|| DescError::UnknownCategory {
                                line: lineno,
                                name: part.to_string(),
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    metrics.insert(name.clone(), cats);
                }
                (section, _) => {
                    // a cache section checks the value before the key
                    if let Section::Cache(_) = section {
                        num(1)?;
                    }
                    return Err(DescError::UnknownKey {
                        line: lineno,
                        key: key.to_string(),
                    });
                }
            }
        }
        // a set wider than its level (or one whose byte size overflows)
        // has no meaningful geometry: the simulator's way table and the
        // static capacity models would disagree about it
        for (level, (line, key)) in [machine.l1, machine.l2].into_iter().zip(geometry_key) {
            if !level.fits(machine.cache_line_bytes) {
                return Err(DescError::BadValue {
                    line,
                    key: key.to_string(),
                });
            }
        }
        // a peak rate past `u32` would wrap (or trap) in
        // `vector_flops_per_cycle` and divide the compute ceiling by zero
        let peak = machine.peak;
        let scalar = peak.fp_pipes.checked_mul(if peak.fma { 2 } else { 1 });
        let lanes = machine.fp_lanes_per_vector.max(1);
        if scalar.and_then(|s| s.checked_mul(lanes)).is_none() {
            let (line, key) = peak_key;
            return Err(DescError::BadValue {
                line,
                key: key.to_string(),
            });
        }
        Ok(ArchDescription { machine, metrics })
    }

    /// Look up a metric group by name.
    pub fn metric(&self, name: &str) -> Option<&[Category]> {
        self.metrics.get(name).map(|v| v.as_slice())
    }

    /// The `fpi` metric group (guaranteed present in the default file).
    pub fn fpi(&self) -> &[Category] {
        self.metric("fpi").unwrap_or(&[])
    }

    /// The declared cache hierarchy (line size from `[machine]`, levels
    /// from the `[cache lN]` sections) — what the `mira-mem` simulator and
    /// distinct-line models are parameterized by.
    pub fn cache_hierarchy(&self) -> CacheHierarchy {
        CacheHierarchy {
            line_bytes: self.machine.cache_line_bytes,
            l1: self.machine.l1,
            l2: self.machine.l2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parses_and_has_fpi() {
        let d = ArchDescription::default();
        assert!(!d.fpi().is_empty());
        assert!(d.fpi().contains(&Category::Sse2PackedArith));
        assert_eq!(d.machine.fp_lanes_per_vector, 2);
    }

    #[test]
    fn default_is_the_parsed_default_description() {
        let parsed = ArchDescription::parse(DEFAULT_DESCRIPTION).unwrap();
        // the first call parses, the second clones the kept description
        assert_eq!(ArchDescription::default(), parsed);
        assert_eq!(ArchDescription::default(), parsed);
    }

    #[test]
    fn every_key_parses_into_its_field() {
        let text = "[machine]\nname = m\ncores = 36\ncache_line_bytes = 128\n\
                    vector_bits = 256\nfp_lanes_per_vector = 4\n\
                    [cache l1]\nsize_bytes = 65536\nassoc = 4\n\
                    [cache l2]\nsize_bytes = 1048576\nassoc = 16\n\
                    [peak]\nfp_pipes = 1\nfma = yes\n\
                    [bandwidth l1]\nbytes_per_cycle = 64\n\
                    [bandwidth l2]\nbytes_per_cycle = 24\n\
                    [bandwidth dram]\nbytes_per_cycle = 8\n\
                    [metric fpi]\ncategories = fma, avx_arith\n\
                    [metric branches]\ncategories = int_control_transfer\n";
        let machine = MachineParams {
            name: "m".to_string(),
            cores: 36,
            cache_line_bytes: 128,
            vector_bits: 256,
            fp_lanes_per_vector: 4,
            l1: CacheLevel {
                size_bytes: 65536,
                assoc: 4,
            },
            l2: CacheLevel {
                size_bytes: 1048576,
                assoc: 16,
            },
            peak: PeakParams {
                fp_pipes: 1,
                fma: true,
            },
            bandwidth: Bandwidths {
                l1: 64,
                l2: 24,
                dram: 8,
            },
        };
        let metrics = BTreeMap::from([
            ("fpi".to_string(), vec![Category::Fma, Category::AvxArith]),
            ("branches".to_string(), vec![Category::IntControlTransfer]),
        ]);
        assert_eq!(
            ArchDescription::parse(text),
            Ok(ArchDescription { machine, metrics })
        );
    }

    #[test]
    fn custom_metric_group() {
        let text = "[machine]\nname = m\n[metric mine]\ncategories = int_arith, fma\n";
        let d = ArchDescription::parse(text).unwrap();
        assert_eq!(
            d.metric("mine").unwrap(),
            &[Category::IntArith, Category::Fma]
        );
        assert_eq!(d.metric("nope"), None);
    }

    #[test]
    fn error_unknown_category() {
        let text = "[metric m]\ncategories = not_a_cat\n";
        let e = ArchDescription::parse(text).unwrap_err();
        assert!(matches!(e, DescError::UnknownCategory { .. }));
    }

    #[test]
    fn error_syntax() {
        assert!(matches!(
            ArchDescription::parse("[machine\n"),
            Err(DescError::Syntax { .. })
        ));
        assert!(matches!(
            ArchDescription::parse("key = 1\n"),
            Err(DescError::Syntax { .. })
        ));
        assert!(matches!(
            ArchDescription::parse("[machine]\nbogus = 1\n"),
            Err(DescError::UnknownKey { .. })
        ));
        assert!(matches!(
            ArchDescription::parse("[weird]\n"),
            Err(DescError::Syntax { .. })
        ));
    }

    #[test]
    fn unknown_key_with_a_bad_value_names_its_line_and_key() {
        let parse = |section: &str| ArchDescription::parse(&format!("# c\n{section}\nfoo = x\n"));
        // a cache section reads the value before the key
        assert_eq!(
            parse("[cache l1]"),
            Err(DescError::BadValue {
                line: 3,
                key: "foo".to_string()
            })
        );
        for section in ["[machine]", "[peak]", "[bandwidth l1]", "[metric m]"] {
            assert_eq!(
                parse(section),
                Err(DescError::UnknownKey {
                    line: 3,
                    key: "foo".to_string()
                }),
                "{section}"
            );
        }
    }

    #[test]
    fn bad_values_name_their_line_and_key() {
        for (section, key, value) in [
            ("machine", "cores", "abc"),
            ("machine", "cores", "-1"),
            ("machine", "cache_line_bytes", "x"),
            // the simulator and the footprint closed forms assume lines
            // of a power of two ≥ 8 bytes
            ("machine", "cache_line_bytes", "48"),
            ("machine", "cache_line_bytes", "4"),
            ("machine", "vector_bits", "1.5"),
            ("machine", "fp_lanes_per_vector", "x"),
            ("cache l1", "size_bytes", "big"),
            ("cache l2", "assoc", "0"),
            ("peak", "fp_pipes", "0"),
            ("peak", "fp_pipes", "4294967296"),
            ("peak", "fma", "maybe"),
            ("bandwidth dram", "bytes_per_cycle", "0"),
            ("bandwidth l2", "bytes_per_cycle", "wide"),
        ] {
            assert_eq!(
                ArchDescription::parse(&format!("[{section}]\n\n{key} = {value}\n")),
                Err(DescError::BadValue {
                    line: 3,
                    key: key.to_string()
                }),
                "[{section}] {key} = {value}"
            );
        }
        // zero is a valid count outside the three positive quantities
        let d = ArchDescription::parse("[machine]\ncores = 0\nvector_bits = 0\n").unwrap();
        assert_eq!((d.machine.cores, d.machine.vector_bits), (0, 0));
    }

    #[test]
    fn default_cache_hierarchy() {
        let d = ArchDescription::default();
        let h = d.cache_hierarchy();
        assert_eq!(h.line_bytes, 64);
        assert_eq!(h.l1.size_bytes, 32 * 1024);
        assert_eq!(h.l1.assoc, 8);
        assert_eq!(h.l2.size_bytes, 256 * 1024);
        assert_eq!(h.l1.sets(64), 64);
        assert_eq!(h.l2.sets(64), 512);
    }

    #[test]
    fn cache_sections_parse() {
        let text = "[machine]\nname = m\ncache_line_bytes = 32\n\
                    [cache l1]\nsize_bytes = 16384\nassoc = 4\n\
                    [cache l2]\nsize_bytes = 524288\nassoc = 16\n";
        let d = ArchDescription::parse(text).unwrap();
        assert_eq!(
            d.machine.l1,
            CacheLevel {
                size_bytes: 16384,
                assoc: 4
            }
        );
        assert_eq!(
            d.machine.l2,
            CacheLevel {
                size_bytes: 524288,
                assoc: 16
            }
        );
        assert_eq!(d.cache_hierarchy().l1.sets(32), 128);
    }

    #[test]
    fn cache_section_errors() {
        // unknown key inside a cache section is rejected
        assert!(matches!(
            ArchDescription::parse("[cache l1]\nlatency = 4\n"),
            Err(DescError::UnknownKey { .. })
        ));
        // unknown cache level
        assert!(matches!(
            ArchDescription::parse("[cache l3]\nsize_bytes = 1\n"),
            Err(DescError::Syntax { .. })
        ));
        assert!(ArchDescription::parse("[machine]\ncache_line_bytes = 32\n").is_ok());
    }

    #[test]
    fn set_wider_than_its_level_is_refused() {
        // 64-byte lines × 2^26 ways is 2^32 bytes: the product wraps to 0
        // in u32, so `sets()` used to divide by zero (or trap on overflow)
        // when the VM built its cache simulator from this description
        let text = DEFAULT_DESCRIPTION.replacen("assoc = 8", "assoc = 67108864", 1);
        let line = 1 + text.lines().position(|l| l == "assoc = 67108864").unwrap();
        assert_eq!(
            ArchDescription::parse(&text),
            Err(DescError::BadValue {
                line,
                key: "assoc".to_string()
            })
        );
        // no overflow, but one set (8 × 64 B) is larger than the level
        assert_eq!(
            ArchDescription::parse("[cache l2]\nsize_bytes = 256\n"),
            Err(DescError::BadValue {
                line: 2,
                key: "size_bytes".to_string()
            })
        );
        // the shared line size can be what breaks a level
        assert_eq!(
            ArchDescription::parse("[machine]\ncache_line_bytes = 8192\n"),
            Err(DescError::BadValue {
                line: 2,
                key: "cache_line_bytes".to_string()
            })
        );
        // exactly one set spanning the level is fine (fully associative)
        assert!(ArchDescription::parse("[cache l1]\nassoc = 512\n").is_ok());
    }

    #[test]
    fn sets_and_ways_are_total_for_hand_built_levels() {
        let level = |size_bytes, assoc| CacheLevel { size_bytes, assoc };
        for (l, line, sets, ways) in [
            (level(32768, 67_108_864), 64, 1, 512), // line × assoc wraps to 0
            (level(32768, u32::MAX), 64, 1, 512),   // overflows
            (level(32768, 0), 64, 512, 1),          // no ways: direct-mapped
            (level(32768, 8), 0, 1, 1),             // no line size
            (level(32, 8), 64, 1, 1),               // smaller than one line
        ] {
            assert!(!l.fits(line), "{l:?}");
            assert_eq!((l.sets(line), l.ways(line)), (sets, ways), "{l:?}");
            let bytes = sets as u64 * ways as u64 * line as u64;
            assert!(bytes <= (l.size_bytes as u64).max(line as u64), "{l:?}");
        }
        // valid levels keep their declared geometry
        let l = level(3 * 4 * 64, 4);
        assert!(l.fits(64));
        assert_eq!((l.sets(64), l.ways(64)), (3, 4));
    }

    #[test]
    fn peak_and_bandwidth_defaults() {
        let d = ArchDescription::default();
        assert_eq!(d.machine.peak.fp_pipes, 2);
        assert!(!d.machine.peak.fma);
        assert_eq!(d.machine.peak.scalar_flops_per_cycle(), 2);
        assert_eq!(
            d.machine
                .peak
                .vector_flops_per_cycle(d.machine.fp_lanes_per_vector),
            4
        );
        assert_eq!(
            d.machine.bandwidth,
            Bandwidths {
                l1: 32,
                l2: 16,
                dram: 4
            }
        );
    }

    #[test]
    fn peak_and_bandwidth_parse() {
        let text = "[machine]\nname = m\n\
                    [peak]\nfp_pipes = 1\nfma = yes\n\
                    [bandwidth l1]\nbytes_per_cycle = 64\n\
                    [bandwidth l2]\nbytes_per_cycle = 24\n\
                    [bandwidth dram]\nbytes_per_cycle = 8\n";
        let d = ArchDescription::parse(text).unwrap();
        assert_eq!(
            d.machine.peak,
            PeakParams {
                fp_pipes: 1,
                fma: true
            }
        );
        // FMA doubles the per-pipe rate
        assert_eq!(d.machine.peak.scalar_flops_per_cycle(), 2);
        assert_eq!(d.machine.peak.vector_flops_per_cycle(4), 8);
        assert_eq!(
            d.machine.bandwidth,
            Bandwidths {
                l1: 64,
                l2: 24,
                dram: 8
            }
        );
    }

    #[test]
    fn peak_rate_past_u32_is_refused() {
        // 2^31 pipes with FMA retire 2^32 FLOPs a cycle: the product
        // wrapped to 0 in release builds and the compute ceiling divided
        // by it; debug builds trapped on the multiplication
        let text = DEFAULT_DESCRIPTION
            .replace("fp_pipes = 2", "fp_pipes = 2147483648")
            .replace("fma = no", "fma = yes");
        let line = 1 + text.lines().position(|l| l == "fma = yes").unwrap();
        assert_eq!(
            ArchDescription::parse(&text),
            Err(DescError::BadValue {
                line,
                key: "fma".to_string()
            })
        );
        // the lane count can be what overflows
        assert_eq!(
            ArchDescription::parse("[machine]\nfp_lanes_per_vector = 4294967295\n"),
            Err(DescError::BadValue {
                line: 2,
                key: "fp_lanes_per_vector".to_string()
            })
        );
        // the largest rate that fits parses, and its peaks are exact
        let d = ArchDescription::parse(
            "[machine]\nfp_lanes_per_vector = 1\n[peak]\nfp_pipes = 2147483647\nfma = yes\n",
        )
        .unwrap();
        assert_eq!(d.machine.peak.vector_flops_per_cycle(1), u32::MAX - 1);
    }

    #[test]
    fn peak_and_bandwidth_errors() {
        // unknown keys inside the new sections are rejected
        assert!(matches!(
            ArchDescription::parse("[peak]\nfrequency_mhz = 2600\n"),
            Err(DescError::UnknownKey { .. })
        ));
        assert!(matches!(
            ArchDescription::parse("[bandwidth l1]\nlatency = 4\n"),
            Err(DescError::UnknownKey { .. })
        ));
        // unknown bandwidth level
        assert!(matches!(
            ArchDescription::parse("[bandwidth l3]\nbytes_per_cycle = 1\n"),
            Err(DescError::Syntax { .. })
        ));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# c\n; c2\n\n[machine]\nname = x\n";
        let d = ArchDescription::parse(text).unwrap();
        assert_eq!(d.machine.name, "x");
    }
}
