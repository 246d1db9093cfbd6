//! `radd-lint` — the workspace invariant analyzer (“radd-tidy”).
//!
//! The sans-IO architecture rests on boundary invariants that no compiler
//! pass checks: the protocol core must stay pure and deterministic, unsafe
//! code must stay confined to the SIMD kernels, the async runtimes must
//! stay poison-tolerant, and the manifests must keep every real crate
//! behind the lint wall. They used to live in reviewers' heads; PR 9's
//! hardening sweep showed they erode silently. This crate makes them a
//! build gate.
//!
//! Design constraints (mirroring rustc's `tidy`):
//!
//! * **Self-contained** — no external parser, no `cargo metadata`; the
//!   workspace is walked by expanding the member globs of the root
//!   manifest, and sources are scanned token/line-level over a masked
//!   copy ([`scan::mask_code`]) so comments and strings never fire.
//! * **Allowlist with a ratchet** — exceptions live in `tidy.allow`,
//!   each carrying an exact count and a one-line justification; a stale
//!   or drifting entry is itself an error ([`allowlist`]).
//! * **Pure rules** — every rule is a function from text to diagnostics
//!   ([`rules`]), so the fixture suite can pin each diagnostic's rule id,
//!   file, and line without touching the real tree.
//!
//! DESIGN.md §16 documents the rule catalogue and the companion lockdep
//! instrumentation in `shims/parking_lot`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod rules;
pub mod scan;

use std::fmt;
use std::path::{Path, PathBuf};

/// Identifier of one rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// R000 — integrity of `tidy.allow` itself (stale entries, count drift).
    Allowlist,
    /// R001 — sans-IO purity of `crates/protocol`.
    SansIoPurity,
    /// R002 — deterministic collections in `crates/protocol` and
    /// `crates/layout`.
    Determinism,
    /// R003 — `unsafe` confined to `radd-parity` and `// SAFETY:`-commented.
    UnsafeDiscipline,
    /// R004 — poison-tolerant locking in `crates/rt` and `crates/node`.
    LockDiscipline,
    /// R005 — manifest hygiene: lint wall, unsafe pragmas, shim isolation.
    ManifestHygiene,
    /// R006 — every `pub mod` of a crate root has a caller outside its own
    /// file, its crate's tests and `lib.rs` re-exports.
    OrphanModule,
}

impl RuleId {
    /// Stable short id (used in `tidy.allow` and diagnostics).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::Allowlist => "R000",
            RuleId::SansIoPurity => "R001",
            RuleId::Determinism => "R002",
            RuleId::UnsafeDiscipline => "R003",
            RuleId::LockDiscipline => "R004",
            RuleId::ManifestHygiene => "R005",
            RuleId::OrphanModule => "R006",
        }
    }

    /// Human name shown next to the id.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::Allowlist => "allowlist",
            RuleId::SansIoPurity => "sans-io-purity",
            RuleId::Determinism => "determinism",
            RuleId::UnsafeDiscipline => "unsafe-discipline",
            RuleId::LockDiscipline => "lock-discipline",
            RuleId::ManifestHygiene => "manifest-hygiene",
            RuleId::OrphanModule => "orphan-module",
        }
    }

    /// Parse a stable id back to the rule.
    pub fn from_id(s: &str) -> Option<RuleId> {
        Some(match s {
            "R000" => RuleId::Allowlist,
            "R001" => RuleId::SansIoPurity,
            "R002" => RuleId::Determinism,
            "R003" => RuleId::UnsafeDiscipline,
            "R004" => RuleId::LockDiscipline,
            "R005" => RuleId::ManifestHygiene,
            "R006" => RuleId::OrphanModule,
            _ => return None,
        })
    }
}

/// One finding: rule, workspace-relative path, 1-based line, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}/{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.msg
        )
    }
}

/// What the workspace walk found (before and after the allowlist).
#[derive(Debug)]
pub struct Report {
    /// Diagnostics that survived the allowlist — the run fails if any.
    pub diagnostics: Vec<Diagnostic>,
    /// Crates visited (real + shim).
    pub crates_checked: usize,
    /// Source/manifest files scanned.
    pub files_checked: usize,
}

/// One workspace member, as discovered by the manifest walk.
struct Member {
    /// Package name from `[package] name = …`.
    name: String,
    /// Directory containing the crate.
    dir: PathBuf,
    /// True for `shims/*` members (API stand-ins, exempt from source rules).
    is_shim: bool,
}

/// Walk the workspace at `root` and run every rule. Fails with a string
/// only on environmental errors (unreadable files, malformed allowlist) —
/// rule findings are returned in the [`Report`].
pub fn run(root: &Path) -> Result<Report, String> {
    let members = discover_members(root)?;
    let tree = tree_files(root, &members)?;
    let mut diags = Vec::new();
    let mut files = 0usize;

    for m in &members {
        let manifest = m.dir.join("Cargo.toml");
        let manifest_rel = rel(root, &manifest);
        let toml = read(&manifest)?;
        files += 1;

        let lib = m.dir.join(lib_path(&toml));
        let lib_src = if lib.is_file() {
            let src = read(&lib)?;
            diags.extend(rules::orphan_modules(
                &rel(root, &m.dir),
                &rel(root, &lib),
                &src,
                &tree,
            ));
            Some(src)
        } else {
            None
        };

        if m.is_shim {
            diags.extend(rules::shim_dependencies(&manifest_rel, &toml));
            continue;
        }

        diags.extend(rules::manifest_lints(&manifest_rel, &toml));
        if let Some(src) = lib_src {
            diags.extend(rules::lib_pragmas(
                &rel(root, &lib),
                &src,
                m.name == "radd-parity",
            ));
        }

        for file in rust_sources(&m.dir.join("src"))? {
            let src = read(&file)?;
            let path = rel(root, &file);
            files += 1;
            if m.name == "radd-protocol" {
                diags.extend(rules::purity(&path, &src));
            }
            if m.name == "radd-protocol" || m.name == "radd-layout" {
                diags.extend(rules::determinism(&path, &src));
            }
            if m.name == "radd-rt" || m.name == "radd-node" {
                diags.extend(rules::lock_discipline(&path, &src));
            }
            diags.extend(rules::unsafe_discipline(
                &path,
                &src,
                m.name == "radd-parity",
            ));
        }
    }

    let allow_path = root.join("tidy.allow");
    let entries = if allow_path.is_file() {
        allowlist::parse(&read(&allow_path)?)?
    } else {
        Vec::new()
    };
    let mut diagnostics = allowlist::apply(diags, &entries);
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report {
        diagnostics,
        crates_checked: members.len(),
        files_checked: files,
    })
}

/// Every source file that can name a module (R006): each member's `src`,
/// `tests`, `benches` and `examples`, plus the standalone `benchmark/`
/// package, which is outside the workspace but builds from it.
fn tree_files(root: &Path, members: &[Member]) -> Result<Vec<rules::TreeFile>, String> {
    let mut tree = Vec::new();
    let benchmark = root.join("benchmark");
    for dir in members.iter().map(|m| &m.dir).chain([&benchmark]) {
        for sub in ["src", "tests", "benches", "examples"] {
            for file in rust_sources(&dir.join(sub))? {
                tree.push(rules::TreeFile::new(&rel(root, &file), &read(&file)?));
            }
        }
    }
    Ok(tree)
}

/// Expand the root manifest's member globs (`crates/*`, `shims/*`) plus
/// the root package itself, without `cargo metadata`.
fn discover_members(root: &Path) -> Result<Vec<Member>, String> {
    let root_manifest = read(&root.join("Cargo.toml"))?;
    if !root_manifest.contains("[workspace]") {
        return Err(format!(
            "{} is not a workspace root",
            root.join("Cargo.toml").display()
        ));
    }
    let mut members = Vec::new();
    if let Some(name) = package_name(&root_manifest) {
        members.push(Member {
            name,
            dir: root.to_path_buf(),
            is_shim: false,
        });
    }
    for (sub, is_shim) in [("crates", false), ("shims", true)] {
        let dir = root.join(sub);
        if !dir.is_dir() {
            continue;
        }
        let mut found: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        found.sort();
        for d in found {
            let toml = read(&d.join("Cargo.toml"))?;
            let name =
                package_name(&toml).ok_or_else(|| format!("{}: no package name", d.display()))?;
            members.push(Member {
                name,
                dir: d,
                is_shim,
            });
        }
    }
    Ok(members)
}

/// `name = "…"` from a manifest's `[package]` section.
fn package_name(toml: &str) -> Option<String> {
    let mut in_package = false;
    for line in toml.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
        } else if in_package {
            if let Some(v) = t.strip_prefix("name") {
                let v = v.trim_start().strip_prefix('=')?.trim();
                return Some(v.trim_matches('"').to_owned());
            }
        }
    }
    None
}

/// The crate's lib root relative to its directory: `[lib] path = …` if
/// present, else the conventional `src/lib.rs`.
fn lib_path(toml: &str) -> String {
    let mut in_lib = false;
    for line in toml.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_lib = t == "[lib]";
        } else if in_lib {
            if let Some(v) = t.strip_prefix("path") {
                if let Some(v) = v.trim_start().strip_prefix('=') {
                    return v.trim().trim_matches('"').to_owned();
                }
            }
        }
    }
    "src/lib.rs".to_owned()
}

/// All `.rs` files under `dir`, recursively, sorted for determinism.
fn rust_sources(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&d)
            .map_err(|e| format!("{}: {e}", d.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                // Fixture trees are lint inputs, not code of this tree.
                if p.file_name().is_some_and(|n| n != "fixtures") {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
