//! Fixture suite: every rule pinned to exact (rule id, file, line)
//! diagnostics over checked-in bad/good snippets under
//! `tests/fixtures/{bad,good}/` (R006 needs a tree, so its pair are
//! miniature workspaces), plus end-to-end [`radd_lint::run`] walks
//! over two more miniature workspaces — one whose allowlist matches exactly,
//! one whose allowlist has gone stale — and a round-trip check of the
//! real committed `tidy.allow`.

use std::path::{Path, PathBuf};

use radd_lint::{allowlist, rules, run, Diagnostic, RuleId};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read(rel: &str) -> String {
    let p = fixtures().join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// Assert `got` is exactly the (rule, line) pairs in `want`, all in `path`.
fn assert_diags(got: &[Diagnostic], path: &str, want: &[(RuleId, usize)]) {
    let flat: Vec<(RuleId, &str, usize)> = got
        .iter()
        .map(|d| (d.rule, d.path.as_str(), d.line))
        .collect();
    let expect: Vec<(RuleId, &str, usize)> = want.iter().map(|&(r, l)| (r, path, l)).collect();
    assert_eq!(flat, expect, "diagnostics: {got:#?}");
}

#[test]
fn bad_purity_fixtures_each_produce_their_diagnostic() {
    for (file, line) in [
        ("bad/purity_time.rs", 4),
        ("bad/purity_thread.rs", 4),
        ("bad/purity_print.rs", 4),
    ] {
        let d = rules::purity(file, &read(file));
        assert_diags(&d, file, &[(RuleId::SansIoPurity, line)]);
    }
}

#[test]
fn bad_determinism_fixtures_each_produce_their_diagnostic() {
    let f = "bad/determinism_hashmap.rs";
    assert_diags(
        &rules::determinism(f, &read(f)),
        f,
        &[(RuleId::Determinism, 3)],
    );
    let f = "bad/determinism_hashset.rs";
    assert_diags(
        &rules::determinism(f, &read(f)),
        f,
        &[(RuleId::Determinism, 4)],
    );
}

#[test]
fn bad_unsafe_fixtures_each_produce_their_diagnostic() {
    let f = "bad/unsafe_outside_parity.rs";
    assert_diags(
        &rules::unsafe_discipline(f, &read(f), false),
        f,
        &[(RuleId::UnsafeDiscipline, 6)],
    );
    let f = "bad/unsafe_missing_safety.rs";
    assert_diags(
        &rules::unsafe_discipline(f, &read(f), true),
        f,
        &[(RuleId::UnsafeDiscipline, 4)],
    );
}

#[test]
fn bad_lock_fixture_produces_its_diagnostic() {
    let f = "bad/lock_unwrap.rs";
    assert_diags(
        &rules::lock_discipline(f, &read(f)),
        f,
        &[(RuleId::LockDiscipline, 4)],
    );
}

#[test]
fn bad_manifest_fixtures_each_produce_their_diagnostic() {
    let f = "bad/manifest_missing_lints.toml";
    assert_diags(
        &rules::manifest_lints(f, &read(f)),
        f,
        &[(RuleId::ManifestHygiene, 1)],
    );
    let f = "bad/shim_real_dep.toml";
    assert_diags(
        &rules::shim_dependencies(f, &read(f)),
        f,
        &[(RuleId::ManifestHygiene, 8)],
    );
    let f = "bad/lib_missing_pragma.rs";
    assert_diags(
        &rules::lib_pragmas(f, &read(f), false),
        f,
        &[(RuleId::ManifestHygiene, 1)],
    );
}

#[test]
fn good_fixtures_are_silent() {
    let src = read("good/purity_clean.rs");
    assert!(rules::purity("x", &src).is_empty());
    assert!(rules::determinism("x", &src).is_empty());

    let src = read("good/determinism_fx.rs");
    assert!(rules::determinism("x", &src).is_empty());

    let src = read("good/unsafe_with_safety.rs");
    assert!(rules::unsafe_discipline("x", &src, true).is_empty());

    let src = read("good/lock_tolerant.rs");
    assert!(rules::lock_discipline("x", &src).is_empty());

    assert!(rules::manifest_lints("x", &read("good/manifest_ok.toml")).is_empty());
    assert!(rules::shim_dependencies("x", &read("good/shim_ok.toml")).is_empty());
    assert!(rules::lib_pragmas("x", &read("good/lib_pragma_ok.rs"), false).is_empty());
}

#[test]
fn orphan_module_fixtures_flag_the_uncalled_module_only() {
    // The two trees differ by one file: `good/` has an example that calls
    // the module; in `bad/` only its own tests and `lib.rs` re-export do.
    let report = run(&fixtures().join("bad/orphan_module")).expect("fixture walks");
    assert_diags(
        &report.diagnostics,
        "crates/kernel/src/lib.rs",
        &[(RuleId::OrphanModule, 5)],
    );
    assert!(
        report.diagnostics[0].msg.contains("Queue, drain"),
        "{:?}",
        report.diagnostics[0]
    );
    let report = run(&fixtures().join("good/orphan_module")).expect("fixture walks");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn mini_workspace_end_to_end() {
    let report = run(&fixtures().join("ws")).expect("fixture workspace walks clean");
    assert_eq!(report.crates_checked, 2);
    assert_eq!(report.files_checked, 3); // two manifests + one source file
    let flat: Vec<(RuleId, &str, usize)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.path.as_str(), d.line))
        .collect();
    // The R002 HashMap on lib.rs:4 is allowlisted (count=1) and absent;
    // the live purity bug and the shim's real dependency survive, sorted.
    assert_eq!(
        flat,
        vec![
            (RuleId::SansIoPurity, "crates/protocol/src/lib.rs", 7),
            (RuleId::ManifestHygiene, "shims/fake/Cargo.toml", 7),
        ]
    );
}

#[test]
fn stale_allowlist_entry_fails_the_run() {
    let report = run(&fixtures().join("ws_stale")).expect("fixture workspace walks clean");
    let flat: Vec<(RuleId, &str, usize)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.path.as_str(), d.line))
        .collect();
    assert_eq!(flat, vec![(RuleId::Allowlist, "tidy.allow", 2)]);
    assert!(
        report.diagnostics[0].msg.contains("stale"),
        "{:?}",
        report.diagnostics[0]
    );
}

#[test]
fn committed_allowlist_parses_and_round_trips() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text =
        std::fs::read_to_string(root.join("tidy.allow")).expect("tidy.allow at the workspace root");
    let entries = allowlist::parse(&text).expect("committed allowlist parses");
    assert!(
        entries.len() <= 10,
        "tidy.allow is a ratchet — keep it under 10 entries"
    );
    let key = |e: &allowlist::Entry| (e.rule, e.path.clone(), e.count, e.justification.clone());
    let re = allowlist::parse(&allowlist::serialize(&entries)).expect("serialized form parses");
    assert_eq!(
        re.iter().map(key).collect::<Vec<_>>(),
        entries.iter().map(key).collect::<Vec<_>>()
    );
}

#[test]
fn the_real_tree_is_tidy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&root).expect("workspace walks clean");
    assert!(
        report.diagnostics.is_empty(),
        "the tree must stay tidy:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
