//! Directory loading for architecture description files.
//!
//! A *fleet* of machines is a directory of `*.ini` description files —
//! one per machine — served together by `mira-serve`'s `MachineFleet`.
//! [`load_dir`] reads every description in one pass with all-or-nothing
//! semantics: a malformed file yields a typed, path-attributed
//! [`LoadError`] (the PR 6 taxonomy: every refusal is a value, never a
//! panic) and **no** descriptions, so a caller can never observe a
//! half-loaded fleet.

use std::fs;
use std::path::{Path, PathBuf};

use crate::desc::{ArchDescription, DescError};

/// A typed refusal while loading description files from disk. Carries
/// the offending path so multi-file errors are attributable.
#[derive(Debug)]
pub enum LoadError {
    /// The directory or a file inside it could not be read.
    Io {
        path: PathBuf,
        error: std::io::Error,
    },
    /// A file read fine but is not a valid description
    /// ([`ArchDescription::parse`] refused).
    Parse { path: PathBuf, error: DescError },
    /// Two files in the directory declare the same `[machine] name` —
    /// a fleet keyed by machine name cannot hold both.
    DuplicateName { name: String, path: PathBuf },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            LoadError::Parse { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            LoadError::DuplicateName { name, path } => write!(
                f,
                "{}: machine `{name}` is already declared by another file in the directory",
                path.display()
            ),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io { error, .. } => Some(error),
            LoadError::Parse { error, .. } => Some(error),
            LoadError::DuplicateName { .. } => None,
        }
    }
}

/// One description loaded from disk: the parsed machine plus enough
/// provenance (path, raw text) for change detection on reload.
#[derive(Clone, Debug)]
pub struct LoadedDescription {
    pub path: PathBuf,
    /// The file's raw text — compare against a re-read to detect edits
    /// without trusting filesystem timestamps.
    pub text: String,
    pub desc: ArchDescription,
}

impl LoadedDescription {
    /// The declared machine name (`[machine] name`).
    pub fn name(&self) -> &str {
        &self.desc.machine.name
    }
}

/// Load one description file.
pub fn load_file(path: &Path) -> Result<LoadedDescription, LoadError> {
    let text = fs::read_to_string(path).map_err(|error| LoadError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    let desc = ArchDescription::parse(&text).map_err(|error| LoadError::Parse {
        path: path.to_path_buf(),
        error,
    })?;
    Ok(LoadedDescription {
        path: path.to_path_buf(),
        text,
        desc,
    })
}

/// Load every `*.ini` description in `dir`, sorted by file name so the
/// result (and everything derived from it, like fleet kernel ids) is
/// deterministic across platforms and readdir orders.
///
/// All-or-nothing: the first unreadable, unparsable, or name-colliding
/// file aborts the whole load with its typed error.
pub fn load_dir(dir: &Path) -> Result<Vec<LoadedDescription>, LoadError> {
    let entries = fs::read_dir(dir).map_err(|error| LoadError::Io {
        path: dir.to_path_buf(),
        error,
    })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|error| LoadError::Io {
            path: dir.to_path_buf(),
            error,
        })?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("ini") && path.is_file() {
            paths.push(path);
        }
    }
    paths.sort();
    let mut loaded: Vec<LoadedDescription> = Vec::with_capacity(paths.len());
    for path in &paths {
        let d = load_file(path)?;
        if loaded.iter().any(|m| m.name() == d.name()) {
            return Err(LoadError::DuplicateName {
                name: d.name().to_string(),
                path: path.clone(),
            });
        }
        loaded.push(d);
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::DEFAULT_DESCRIPTION;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mira_arch_dir_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn loads_sorted_and_skips_non_ini() {
        let dir = tmp_dir("sorted");
        let b = DEFAULT_DESCRIPTION.replace("generic-x86_64", "bravo");
        fs::write(dir.join("b.ini"), &b).unwrap();
        fs::write(dir.join("a.ini"), DEFAULT_DESCRIPTION).unwrap();
        fs::write(dir.join("notes.txt"), "not a machine").unwrap();
        let loaded = load_dir(&dir).expect("directory loads");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].name(), "generic-x86_64");
        assert_eq!(loaded[1].name(), "bravo");
        assert_eq!(loaded[0].text, DEFAULT_DESCRIPTION);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_file_is_a_typed_error_not_a_partial_load() {
        let dir = tmp_dir("malformed");
        fs::write(dir.join("a.ini"), DEFAULT_DESCRIPTION).unwrap();
        fs::write(dir.join("b.ini"), "[machine]\ncores = not_a_number\n").unwrap();
        match load_dir(&dir) {
            Err(LoadError::Parse { path, error }) => {
                assert!(
                    path.ends_with("b.ini"),
                    "error names the bad file: {path:?}"
                );
                assert!(matches!(error, DescError::BadValue { .. }));
            }
            other => panic!("expected a typed parse error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_machine_names_are_rejected() {
        let dir = tmp_dir("dup");
        fs::write(dir.join("a.ini"), DEFAULT_DESCRIPTION).unwrap();
        fs::write(dir.join("z.ini"), DEFAULT_DESCRIPTION).unwrap();
        match load_dir(&dir) {
            Err(LoadError::DuplicateName { name, path }) => {
                assert_eq!(name, "generic-x86_64");
                assert!(path.ends_with("z.ini"));
            }
            other => panic!("expected DuplicateName, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_a_typed_io_error() {
        let missing = std::env::temp_dir().join("mira_arch_no_such_dir_xyz");
        match load_dir(&missing) {
            Err(LoadError::Io { path, .. }) => assert_eq!(path, missing),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
