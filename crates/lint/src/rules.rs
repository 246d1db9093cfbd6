//! The rule catalogue.
//!
//! Every rule is a pure function from source text (or manifest text) to a
//! list of [`Diagnostic`]s, so the fixture tests can drive each rule over
//! a snippet without touching the filesystem. The workspace driver in
//! [`crate::run`] decides *which* files each rule sees (DESIGN.md §16 has
//! the catalogue with scopes and rationale).

use crate::scan::{find_word, mask_code};
use crate::{Diagnostic, RuleId};
use std::collections::HashSet;

/// R001 — sans-IO purity. Banned token → why it is banned.
///
/// `crates/protocol` is the one copy of the §3/§5 state machines; both
/// model checker and differential test assume it is a pure function of
/// its inputs. Wall-clock time, threads, sockets, files, and console
/// output are all ways for nondeterminism (or hidden I/O) to leak in.
const PURITY_BANNED: &[(&str, &str)] = &[
    (
        "std::time",
        "wall-clock time is nondeterministic; use logical time from the driver",
    ),
    (
        "Instant",
        "wall-clock time is nondeterministic; use logical time from the driver",
    ),
    (
        "SystemTime",
        "wall-clock time is nondeterministic; use logical time from the driver",
    ),
    (
        "std::thread",
        "threads/sleep belong to the runtimes, not the sans-IO core",
    ),
    (
        "std::net",
        "real network I/O belongs to the runtimes, not the sans-IO core",
    ),
    (
        "std::fs",
        "filesystem I/O belongs to the runtimes, not the sans-IO core",
    ),
    (
        "std::process",
        "process control belongs to the runtimes, not the sans-IO core",
    ),
    (
        "println!",
        "console output is I/O; emit an Effect or return a value",
    ),
    (
        "eprintln!",
        "console output is I/O; emit an Effect or return a value",
    ),
    (
        "print!",
        "console output is I/O; emit an Effect or return a value",
    ),
    (
        "eprint!",
        "console output is I/O; emit an Effect or return a value",
    ),
    (
        "dbg!",
        "console output is I/O; emit an Effect or return a value",
    ),
];

/// Run R001 over one source file. `path` is workspace-relative.
pub fn purity(path: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_code(src);
    let mut out = Vec::new();
    for (lineno, line) in masked.lines().enumerate() {
        for (token, why) in PURITY_BANNED {
            // `println!`-style entries need the bang matched too; strip it
            // for the word-boundary check and verify the bang by hand.
            let (word, bang) = match token.strip_suffix('!') {
                Some(w) => (w, true),
                None => (*token, false),
            };
            let Some(at) = find_word(line, word) else {
                continue;
            };
            if bang && line.as_bytes().get(at + word.len()) != Some(&b'!') {
                continue;
            }
            out.push(Diagnostic {
                rule: RuleId::SansIoPurity,
                path: path.to_owned(),
                line: lineno + 1,
                msg: format!("`{token}` in the sans-IO core: {why}"),
            });
            break; // one diagnostic per line keeps allowlist counts stable
        }
    }
    out
}

/// Run R002 (determinism) over one source file: `HashMap`/`HashSet` by
/// name. `FxHashMap`/`FxHashSet` pass the word-boundary check and are
/// exempt — `radd_protocol::fasthash` documents them as never-iterated —
/// but the alias *definitions* (which name std's types) must be
/// allowlisted with a justification.
pub fn determinism(path: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_code(src);
    let mut out = Vec::new();
    for (lineno, line) in masked.lines().enumerate() {
        for word in ["HashMap", "HashSet"] {
            if find_word(line, word).is_some() {
                out.push(Diagnostic {
                    rule: RuleId::Determinism,
                    path: path.to_owned(),
                    line: lineno + 1,
                    msg: format!(
                        "`{word}` in a determinism-critical crate: iteration order must \
                         never reach an Effect — use `BTreeMap`/`BTreeSet`, or \
                         `fasthash::Fx{word}` for lookup-only tables, or allowlist \
                         with a justification"
                    ),
                });
                break;
            }
        }
    }
    out
}

/// Run R003 (unsafe discipline) over one source file.
///
/// Outside `radd-parity` any `unsafe` token is a violation (the manifests
/// also carry `forbid(unsafe_code)`, but the lint catches the attribute
/// being dropped *together with* the unsafe block that motivated it).
/// Inside `radd-parity`, every `unsafe` occurrence must be preceded by a
/// `// SAFETY:` comment — attributes and blank-free comment runs between
/// the comment and the `unsafe` line are allowed.
pub fn unsafe_discipline(path: &str, src: &str, in_parity: bool) -> Vec<Diagnostic> {
    let masked = mask_code(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (lineno, line) in masked.lines().enumerate() {
        if find_word(line, "unsafe").is_none() {
            continue;
        }
        if !in_parity {
            out.push(Diagnostic {
                rule: RuleId::UnsafeDiscipline,
                path: path.to_owned(),
                line: lineno + 1,
                msg: "`unsafe` outside `radd-parity`: the SIMD kernels are the workspace's \
                      only sanctioned unsafe code"
                    .to_owned(),
            });
            continue;
        }
        if !has_safety_comment(&raw_lines, lineno) {
            out.push(Diagnostic {
                rule: RuleId::UnsafeDiscipline,
                path: path.to_owned(),
                line: lineno + 1,
                msg: "`unsafe` without a preceding `// SAFETY:` comment stating why the \
                      operation is sound"
                    .to_owned(),
            });
        }
    }
    out
}

/// Is the `unsafe` on `lineno` (0-based) covered by a `SAFETY:` comment —
/// on the same line, or in the contiguous comment/attribute run above it?
fn has_safety_comment(raw_lines: &[&str], lineno: usize) -> bool {
    if raw_lines[lineno].contains("SAFETY:") {
        return true;
    }
    let mut j = lineno;
    while j > 0 {
        j -= 1;
        let t = raw_lines[j].trim_start();
        if t.starts_with("//") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else if t.starts_with("#[") || t.starts_with("#![") {
            // Attributes may sit between the comment and the item.
        } else {
            return false;
        }
    }
    false
}

/// Run R004 (lock discipline) over one source file: no
/// `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()` (or the
/// `.expect(…)` spellings) in the async runtimes — PR 9 made
/// poison-tolerance mandatory there, because one panicked site thread
/// must not cascade into every peer that later touches the shared map.
pub fn lock_discipline(path: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_code(src);
    let b = masked.as_bytes();
    let mut out = Vec::new();
    for acquire in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(pos) = masked[from..].find(acquire) {
            let at = from + pos;
            from = at + 1;
            // Skip whitespace (incl. newlines of a wrapped chain) after
            // the acquire call, then look for the torn-poison pattern.
            let mut j = at + acquire.len();
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            let rest = &masked[j.min(masked.len())..];
            if rest.starts_with(".unwrap()") || rest.starts_with(".expect(") {
                let line = masked[..at].bytes().filter(|&c| c == b'\n').count() + 1;
                out.push(Diagnostic {
                    rule: RuleId::LockDiscipline,
                    path: path.to_owned(),
                    line,
                    msg: format!(
                        "`{acquire}` followed by `.unwrap()`/`.expect(…)`: poison-tolerance \
                         is mandatory in the async runtimes — recover the guard with \
                         `unwrap_or_else(PoisonError::into_inner)` or use `parking_lot`"
                    ),
                });
            }
        }
    }
    out.sort_by_key(|d| d.line);
    out
}

/// R005a — a real crate's manifest must opt into the workspace lint wall
/// with `[lints] workspace = true`.
pub fn manifest_lints(path: &str, toml: &str) -> Vec<Diagnostic> {
    let mut in_lints = false;
    for line in toml.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_lints = t == "[lints]";
        } else if in_lints && t.replace(' ', "") == "workspace=true" {
            return Vec::new();
        }
    }
    vec![Diagnostic {
        rule: RuleId::ManifestHygiene,
        path: path.to_owned(),
        line: 1,
        msg: "real crate without `[lints] workspace = true`: the clippy/rustc wall \
              must cover every crate that ships protocol or runtime code"
            .to_owned(),
    }]
}

/// R005b — shims must not depend on any real crate. The vendored stand-ins
/// mimic external crates; a shim reaching back into the workspace would
/// invert the dependency direction and make the offline substitution lie.
pub fn shim_dependencies(path: &str, toml: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (lineno, line) in toml.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('[') {
            in_deps = t.contains("dependencies");
            continue;
        }
        if in_deps && !t.starts_with('#') && (t.contains("crates/") || t.starts_with("radd-")) {
            out.push(Diagnostic {
                rule: RuleId::ManifestHygiene,
                path: path.to_owned(),
                line: lineno + 1,
                msg: "shim depends on a real crate: vendored stand-ins may only depend \
                      on other shims"
                    .to_owned(),
            });
        }
    }
    out
}

/// R005c — a real crate's lib root must carry the unsafe pragma for its
/// tier: `#![forbid(unsafe_code)]` everywhere, except `radd-parity` whose
/// kernels instead require `#![deny(unsafe_op_in_unsafe_fn)]`.
pub fn lib_pragmas(path: &str, src: &str, is_parity: bool) -> Vec<Diagnostic> {
    let (needle, msg) = if is_parity {
        (
            "#![deny(unsafe_op_in_unsafe_fn)]",
            "`radd-parity` must deny `unsafe_op_in_unsafe_fn` so every unsafe \
             operation sits in its own commented block",
        )
    } else {
        (
            "#![forbid(unsafe_code)]",
            "real crates must forbid unsafe code at the crate root (only \
             `radd-parity` carries unsafe kernels)",
        )
    };
    if src.lines().any(|l| l.trim() == needle) {
        Vec::new()
    } else {
        vec![Diagnostic {
            rule: RuleId::ManifestHygiene,
            path: path.to_owned(),
            line: 1,
            msg: format!("missing `{needle}`: {msg}"),
        }]
    }
}

/// One source file of the tree, reduced to what R006 asks of it: the
/// identifiers its code (not its comments or strings) names.
#[derive(Debug)]
pub struct TreeFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The `pub` type and free-function names the file declares.
    declared: Vec<String>,
    /// Every identifier in the masked text.
    idents: HashSet<String>,
    /// The identifiers directly followed by `::`.
    path_heads: HashSet<String>,
}

impl TreeFile {
    /// Mask and tokenise `src`. A crate root's `pub use …;` statements
    /// are dropped first: re-exporting a module is not calling it, while
    /// the root's own code (and its private `use`) is a caller like any
    /// other file.
    pub fn new(path: &str, src: &str) -> TreeFile {
        let mut masked = mask_code(src);
        if path == "lib.rs" || path.ends_with("/lib.rs") {
            let mut kept = String::with_capacity(masked.len());
            let mut in_reexport = false;
            for line in masked.split_inclusive('\n') {
                in_reexport |= line.trim_start().starts_with("pub use ");
                if !in_reexport {
                    kept.push_str(line);
                }
                in_reexport &= !line.contains(';');
            }
            masked = kept;
        }
        let b = masked.as_bytes();
        let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
        let (mut idents, mut path_heads) = (HashSet::new(), HashSet::new());
        let mut i = 0;
        while i < b.len() {
            if !is_ident(b[i]) {
                i += 1;
                continue;
            }
            let start = i;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            if masked[i..].starts_with("::") {
                path_heads.insert(masked[start..i].to_owned());
            }
            idents.insert(masked[start..i].to_owned());
        }
        TreeFile {
            path: path.to_owned(),
            declared: declared_names(&masked),
            idents,
            path_heads,
        }
    }
}

/// The `pub` type and free-function names a module's file declares. A
/// `pub fn` counts as free only at column 0 (rustfmt indents methods), and
/// `pub(crate)` items are not public.
fn declared_names(masked: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in masked.lines() {
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let mut words = rest
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .skip_while(|w| matches!(*w, "const" | "async" | "unsafe"));
        let name = match words.next() {
            Some("struct" | "enum" | "trait" | "type" | "union") => words.next(),
            Some("fn") if line.starts_with("pub ") => words.next(),
            _ => None,
        };
        names.extend(name.map(str::to_owned));
    }
    names
}

/// Collapse `a/b/../c` to `a/c`.
fn normalize(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        match part {
            ".." if parts.last().is_some_and(|p| *p != "..") => {
                parts.pop();
            }
            "." | "" => {}
            p => parts.push(p),
        }
    }
    parts.join("/")
}

/// R006 — orphan module. For every `pub mod m;` in the crate root
/// `lib_path`, some file of the tree that could be a caller must name
/// one of the `pub` types or free functions `m` declares, or an `m::`
/// path. Not callers: `m`'s own files, the declaring crate's `tests/`
/// (a module kept alive only by its own tests is the case this rule
/// exists for) and the re-export and prelude lines of any `lib.rs`.
///
/// The match is by identifier, so a module whose public names are also
/// used for something else (`reconstruct` is a free function in one place
/// and a method in another) escapes: the rule finds modules nobody can
/// reach, not every module nobody does.
pub fn orphan_modules(
    crate_dir: &str,
    lib_path: &str,
    lib_src: &str,
    tree: &[TreeFile],
) -> Vec<Diagnostic> {
    let lib_dir = lib_path.rsplit_once('/').map_or("", |(d, _)| d);
    // The root package's directory is "": normalising drops the empty part.
    let crate_tests = normalize(&format!("{crate_dir}/tests")) + "/";
    let masked = mask_code(lib_src);
    let raw: Vec<&str> = lib_src.lines().collect();
    let mut out = Vec::new();
    for (lineno, line) in masked.lines().enumerate() {
        let Some(m) = line
            .strip_prefix("pub mod ")
            .and_then(|r| r.strip_suffix(';'))
        else {
            continue;
        };
        // `#[path = "…"]` on the line above mounts the module from elsewhere.
        let mounted = lineno
            .checked_sub(1)
            .and_then(|l| raw[l].trim().strip_prefix("#[path = \""))
            .and_then(|r| r.strip_suffix("\"]"));
        let (file, dir) = match mounted {
            Some(rel) => (normalize(&format!("{lib_dir}/{rel}")), None),
            None => (
                normalize(&format!("{lib_dir}/{m}.rs")),
                Some(normalize(&format!("{lib_dir}/{m}")) + "/"),
            ),
        };
        let own =
            |f: &TreeFile| f.path == file || dir.as_ref().is_some_and(|d| f.path.starts_with(d));
        let names: Vec<&str> = tree
            .iter()
            .filter(|f| own(f))
            .flat_map(|f| f.declared.iter().map(String::as_str))
            .collect();
        let called = tree.iter().any(|f| {
            !own(f)
                && !f.path.starts_with(&crate_tests)
                && (f.path_heads.contains(m) || names.iter().any(|n| f.idents.contains(*n)))
        });
        if !called {
            out.push(Diagnostic {
                rule: RuleId::OrphanModule,
                path: lib_path.to_owned(),
                line: lineno + 1,
                msg: format!(
                    "`pub mod {m}` has no caller: none of its public names ({}) and no \
                     `{m}::` path occurs outside its own file, this crate's `tests/` and \
                     `lib.rs` re-export lines — wire it to a runtime, experiment, bench, \
                     example or the CLI, or delete it with its tests and re-exports",
                    names.join(", ")
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purity_flags_each_banned_token_once_per_line() {
        let d = purity("x.rs", "use std::time::Instant;\nlet t = Instant::now();\n");
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 1);
        assert!(d[0].msg.contains("std::time"));
        assert_eq!(d[1].line, 2);
    }

    #[test]
    fn purity_ignores_comments_and_strings() {
        let d = purity("x.rs", "// std::thread::spawn\nlet s = \"println!\";\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn determinism_exempts_fx_aliases() {
        let d = determinism(
            "x.rs",
            "use crate::fasthash::FxHashMap;\nlet m = FxHashMap::default();\n",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = determinism("x.rs", "use std::collections::HashMap;\n");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn unsafe_needs_safety_in_parity_and_is_banned_elsewhere() {
        let src = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert_eq!(unsafe_discipline("x.rs", src, false).len(), 1);
        assert_eq!(unsafe_discipline("x.rs", src, true).len(), 1);
        let good = "// SAFETY: provably unreachable.\n#[inline]\nunsafe fn g() {}\n";
        assert!(unsafe_discipline("x.rs", good, true).is_empty());
    }

    #[test]
    fn lock_discipline_catches_wrapped_chains() {
        let src = "let g = m\n    .lock()\n    .unwrap();\n";
        let d = lock_discipline("x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        // try_lock() is a different API (no poison Result) — no match.
        assert!(lock_discipline("x.rs", "m.try_lock().unwrap();").is_empty());
        // Poison-tolerant recovery is the sanctioned spelling.
        assert!(lock_discipline(
            "x.rs",
            "m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);"
        )
        .is_empty());
    }

    #[test]
    fn manifest_rules() {
        assert!(manifest_lints(
            "c/Cargo.toml",
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
        )
        .is_empty());
        assert_eq!(
            manifest_lints("c/Cargo.toml", "[package]\nname = \"x\"\n").len(),
            1
        );
        assert_eq!(
            shim_dependencies(
                "s/Cargo.toml",
                "[dependencies]\nradd-core = { path = \"../../crates/core\" }\n"
            )
            .len(),
            1
        );
        assert!(shim_dependencies(
            "s/Cargo.toml",
            "[dependencies]\nserde = { path = \"../serde\" }\n"
        )
        .is_empty());
    }

    #[test]
    fn orphan_modules_follow_mounts_and_count_root_code_as_a_caller() {
        let lib = "pub mod used;\n#[path = \"../../b/src/shared.rs\"]\npub mod shared;\n\
                   pub mod idle;\npub use idle::Idle;\nfn run() { used::go(); }\n";
        let tree = [
            TreeFile::new("crates/a/src/lib.rs", lib),
            TreeFile::new("crates/a/src/used.rs", "pub fn go() {}\n"),
            TreeFile::new("crates/a/src/idle.rs", "pub struct Idle;\n"),
            TreeFile::new("crates/a/tests/t.rs", "use a::Idle;\n"),
            TreeFile::new("crates/b/src/shared.rs", "pub struct Shared;\n"),
            TreeFile::new("crates/b/src/main.rs", "// Idle\nfn main() { Shared; }\n"),
        ];
        let d = orphan_modules("crates/a", "crates/a/src/lib.rs", lib, &tree);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].rule, d[0].line), (RuleId::OrphanModule, 4));
    }

    #[test]
    fn pragma_rules() {
        assert!(lib_pragmas("c/src/lib.rs", "#![forbid(unsafe_code)]\n", false).is_empty());
        assert_eq!(lib_pragmas("c/src/lib.rs", "", false).len(), 1);
        assert!(lib_pragmas("p/src/lib.rs", "#![deny(unsafe_op_in_unsafe_fn)]\n", true).is_empty());
    }
}
