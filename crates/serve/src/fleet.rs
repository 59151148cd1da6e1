//! Fleet serving: a directory of machine descriptions, every admitted
//! kernel served on every machine, with hot-reload.
//!
//! A [`MachineFleet`] is the operational wrapper around [`ServeIndex`]:
//! point it at a directory of `*.ini` architecture descriptions
//! ([`mira_arch::load_dir`]), admit kernel sources, and it serves the
//! full kernel × machine cross product.
//!
//! Work follows what analysis actually reads of a description, its
//! [`AnalysisKey`] (cache line size and `[metric fpi]` categories): each
//! kernel is analyzed and compiled once per key into a
//! machine-independent [`PlacementProgram`], and every machine with that
//! key serves it by attaching its own ceilings
//! ([`CompiledKernel::attach`]). Admitting K kernels onto any number of
//! machines that share a key compiles K programs, and
//! [`MachineFleet::reload`] after a bandwidth, peak or capacity edit
//! re-attaches ceilings without analyzing or compiling anything. Only an
//! edit that changes a key compiles, and only for a key no other
//! machine already has.
//!
//! Reloads are atomic: every program a reload needs is built before any
//! entry is swapped, and a [`KernelId`] survives its kernel being
//! swapped. An [`AnswerCache`] needs no notice: its entries are keyed by
//! compiled program, so after a ceilings-only reload every entry's values
//! still serve (under the new ceilings), the re-attached kernels' new ids
//! match no placement kept for the old ceilings, and a kernel recompiled
//! under a new key is a new program that fills entries of its own.
//!
//! [`AnswerCache`]: crate::AnswerCache

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mira_arch::{load_dir, LoadError, LoadedDescription};
use mira_core::{analyze_source, MiraError, MiraOptions};
use mira_roofline::{AnalysisKey, Ceilings, KernelRoofline};

use crate::index::{BuildError, CompiledKernel, KernelId, PlacementProgram, ServeIndex};

/// A typed refusal while building or reloading a fleet. Every variant
/// names the kernel × machine pair (or file) it is attributable to.
#[derive(Debug)]
pub enum FleetError {
    /// The description directory refused to load (unreadable file,
    /// parse error, duplicate machine name) — see [`LoadError`].
    Load(LoadError),
    /// The function is already admitted; re-admitting would duplicate
    /// every pair.
    DuplicateKernel { func: String },
    /// The source pipeline refused under `machine`'s description — the
    /// first loaded machine of its analysis key; every machine sharing
    /// the key would refuse alike.
    Analyze {
        func: String,
        machine: String,
        error: MiraError,
    },
    /// The roofline analyzed under `machine`'s description (as for
    /// [`FleetError::Analyze`]) refused compilation.
    Build {
        func: String,
        machine: String,
        error: BuildError,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Load(e) => write!(f, "fleet directory: {e}"),
            FleetError::DuplicateKernel { func } => {
                write!(f, "kernel `{func}` is already admitted to the fleet")
            }
            FleetError::Analyze {
                func,
                machine,
                error,
            } => {
                write!(f, "analyzing `{func}` for machine `{machine}`: {error}")
            }
            FleetError::Build {
                func,
                machine,
                error,
            } => {
                write!(f, "compiling `{func}` for machine `{machine}`: {error}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Load(e) => Some(e),
            FleetError::DuplicateKernel { .. } => None,
            FleetError::Analyze { error, .. } => Some(error),
            FleetError::Build { error, .. } => Some(error),
        }
    }
}

impl From<LoadError> for FleetError {
    fn from(e: LoadError) -> FleetError {
        FleetError::Load(e)
    }
}

/// What a [`MachineFleet::reload`] did, by machine name.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ReloadReport {
    /// Machines whose file text changed — their entries were swapped in
    /// place under the new ceilings ([`KernelId`]s stable), recompiled
    /// only when the edit changed the analysis key.
    pub changed: Vec<String>,
    /// Machines new to the directory — their kernels were added.
    pub added: Vec<String>,
    /// Machines whose files disappeared. Their kernels are gone and the
    /// index was rebuilt, so previously-issued [`KernelId`]s are void —
    /// re-[`find`](MachineFleet::find) after a removal.
    pub removed: Vec<String>,
    /// Kernel × machine entries this reload installed (swapped, added,
    /// or rebuilt after a removal). It counts entries, not
    /// compilations: a ceilings-only edit installs every kernel of the
    /// machine without compiling any.
    pub recompiled: usize,
}

impl ReloadReport {
    /// Nothing changed on disk; every served answer is as before.
    pub fn is_noop(&self) -> bool {
        self.changed.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }
}

/// One admitted kernel source (compiled once per analysis key).
#[derive(Clone, Debug)]
struct KernelSource {
    func: String,
    src: String,
}

/// The compiled programs of a fleet: per analysis key of a loaded
/// machine, one program per admitted kernel, in admission order.
type Programs = HashMap<AnalysisKey, Vec<Arc<PlacementProgram>>>;

/// A directory-backed serving fleet: one [`ServeIndex`] entry per
/// admitted kernel × loaded machine, reloadable in place. See the
/// [module docs](self).
pub struct MachineFleet {
    dir: PathBuf,
    machines: Vec<LoadedDescription>,
    sources: Vec<KernelSource>,
    programs: Programs,
    index: ServeIndex,
}

impl MachineFleet {
    /// Load every `*.ini` description in `dir` (all-or-nothing; see
    /// [`mira_arch::load_dir`]) into an empty fleet. Kernels are analyzed
    /// with default pipeline options under each machine's description.
    pub fn load(dir: &Path) -> Result<MachineFleet, FleetError> {
        let machines = load_dir(dir)?;
        Ok(MachineFleet {
            dir: dir.to_path_buf(),
            machines,
            sources: Vec::new(),
            programs: Programs::new(),
            index: ServeIndex::new(),
        })
    }

    /// The directory this fleet watches.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The loaded machine descriptions, in file-name order.
    pub fn machines(&self) -> impl Iterator<Item = &LoadedDescription> {
        self.machines.iter()
    }

    /// The admitted kernel function names, in admission order.
    pub fn funcs(&self) -> impl Iterator<Item = &str> {
        self.sources.iter().map(|s| s.func.as_str())
    }

    /// The serving index — query it directly with
    /// [`ServeIndex::run_batch`] and friends.
    pub fn index(&self) -> &ServeIndex {
        &self.index
    }

    /// Look up the [`KernelId`] serving `func` on `machine`.
    pub fn find(&self, func: &str, machine: &str) -> Option<KernelId> {
        self.index.find(func, machine)
    }

    /// Analyze `src` and admit `func` on **every** loaded machine,
    /// returning the new ids in machine order. The kernel is analyzed
    /// and compiled once per analysis key among the machines, under the
    /// first machine with that key. All-or-nothing: every compilation
    /// must succeed before any entry is added, so a refusal never leaves
    /// the cross product partially served.
    pub fn admit_source(&mut self, func: &str, src: &str) -> Result<Vec<KernelId>, FleetError> {
        if self.sources.iter().any(|s| s.func == func) {
            return Err(FleetError::DuplicateKernel {
                func: func.to_string(),
            });
        }
        let source = KernelSource {
            func: func.to_string(),
            src: src.to_string(),
        };
        let mut compiled: Vec<(AnalysisKey, Arc<PlacementProgram>)> = Vec::new();
        let mut built = Vec::with_capacity(self.machines.len());
        for m in &self.machines {
            let key = AnalysisKey::of(&m.desc);
            let program = match compiled.iter().find(|(k, _)| *k == key) {
                Some((_, p)) => p.clone(),
                None => {
                    let p = Arc::new(compile(&source, m)?);
                    compiled.push((key, p.clone()));
                    p
                }
            };
            built.push(CompiledKernel::attach(
                program,
                &Ceilings::from_arch(&m.desc),
                m.name(),
            ));
        }
        let mut ids = Vec::with_capacity(built.len());
        for k in built {
            match self.index.insert(k) {
                Ok(id) => ids.push(id),
                // unreachable: `sources` guards func uniqueness and
                // `load_dir` guards machine-name uniqueness — but a
                // typed error beats trusting that across refactors
                Err(e) => {
                    return Err(FleetError::Build {
                        func: func.to_string(),
                        machine: String::new(),
                        error: e,
                    })
                }
            }
        }
        for (key, p) in compiled {
            self.programs.entry(key).or_default().push(p);
        }
        self.sources.push(source);
        Ok(ids)
    }

    /// Re-read the directory and bring the index up to date:
    ///
    /// * **changed** files (text comparison, not timestamps) get every
    ///   kernel swapped in place under the new description —
    ///   [`KernelId`]s stable, answer-cache entries of reused programs
    ///   still valid;
    /// * **added** files get every admitted kernel added;
    /// * **removed** files force a full index rebuild (ids void).
    ///
    /// Programs are reused by analysis key: an edit to bandwidths,
    /// peaks or capacities attaches the new ceilings to the programs
    /// already compiled, and only a key no loaded machine had before is
    /// analyzed and compiled.
    ///
    /// Atomic against refusals: the directory re-load and *every*
    /// compilation succeed before the first swap, so a malformed file or
    /// a kernel that refuses under a new key leaves the fleet serving
    /// exactly its pre-reload answers.
    pub fn reload(&mut self) -> Result<ReloadReport, FleetError> {
        let fresh = load_dir(&self.dir)?;
        let mut report = ReloadReport::default();
        for old in &self.machines {
            if !fresh.iter().any(|m| m.name() == old.name()) {
                report.removed.push(old.name().to_string());
            }
        }
        for m in &fresh {
            match self.machines.iter().find(|o| o.name() == m.name()) {
                Some(old) if old.text == m.text => {}
                Some(_) => report.changed.push(m.name().to_string()),
                None => report.added.push(m.name().to_string()),
            }
        }
        if report.is_noop() {
            return Ok(report);
        }
        let mut programs = Programs::new();
        for m in &fresh {
            let key = AnalysisKey::of(&m.desc);
            if programs.contains_key(&key) {
                continue;
            }
            let ps = match self.programs.get(&key) {
                Some(ps) => ps.clone(),
                None => self
                    .sources
                    .iter()
                    .map(|s| compile(s, m).map(Arc::new))
                    .collect::<Result<Vec<_>, _>>()?,
            };
            programs.insert(key, ps);
        }
        if report.removed.is_empty() {
            let mut built = Vec::new();
            for m in &fresh {
                let touched = report.changed.iter().any(|n| n == m.name())
                    || report.added.iter().any(|n| n == m.name());
                if touched {
                    built.extend(attach(&programs, m));
                }
            }
            report.recompiled = built.len();
            for k in built {
                self.index.replace(k);
            }
        } else {
            // a machine left the fleet: rebuild the index over the
            // remaining cross product
            let mut index = ServeIndex::new();
            for m in &fresh {
                for k in attach(&programs, m) {
                    if index.insert(k).is_ok() {
                        report.recompiled += 1;
                    }
                }
            }
            self.index = index;
        }
        self.machines = fresh;
        self.programs = programs;
        Ok(report)
    }
}

/// Analyze one kernel source under `m`'s description and compile its
/// placement program — valid on every machine with `m`'s analysis key.
fn compile(s: &KernelSource, m: &LoadedDescription) -> Result<PlacementProgram, FleetError> {
    let opts = MiraOptions {
        compiler: Default::default(),
        arch: m.desc.clone(),
    };
    let analysis = analyze_source(&s.src, &opts).map_err(|error| FleetError::Analyze {
        func: s.func.clone(),
        machine: m.name().to_string(),
        error,
    })?;
    let build = |error| FleetError::Build {
        func: s.func.clone(),
        machine: m.name().to_string(),
        error,
    };
    let kr =
        KernelRoofline::analyze(&analysis, &s.func).map_err(|e| build(BuildError::Model(e)))?;
    PlacementProgram::compile(&kr).map_err(build)
}

/// Serve every program of `m`'s analysis key on `m`, under its ceilings.
fn attach(programs: &Programs, m: &LoadedDescription) -> Vec<CompiledKernel> {
    let c = Ceilings::from_arch(&m.desc);
    programs
        .get(&AnalysisKey::of(&m.desc))
        .into_iter()
        .flatten()
        .map(|p| CompiledKernel::attach(p.clone(), &c, m.name()))
        .collect()
}
