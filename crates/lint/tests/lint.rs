//! Fixture-driven integration tests for `blazeit-lint`.
//!
//! The fixtures under `tests/fixtures/` are never compiled: each seeds exactly
//! one check's violation pattern (plus a clean file and a suppressed file that
//! must stay silent), and `golden.txt` pins the full rendered output. Re-bless
//! with `BLESS=1 cargo test -p blazeit-lint` after an intentional change.

use std::fs;
use std::path::{Path, PathBuf};

use blazeit_lint::{analyze, Input};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every fixture file, tagged as one synthetic crate, with repo-independent
/// `fixtures/…` paths.
fn fixture_inputs() -> Vec<Input> {
    let dir = fixtures_dir();
    let mut inputs = Vec::new();
    for file in blazeit_lint::collect_rs_files(&dir).unwrap() {
        let rel = file
            .strip_prefix(&dir)
            .unwrap()
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        inputs.push(Input {
            crate_name: "fixture".to_string(),
            path: format!("fixtures/{rel}"),
            source: fs::read_to_string(&file).unwrap(),
        });
    }
    inputs
}

fn single_input(path: &str, source: &str) -> Vec<Input> {
    vec![Input {
        crate_name: "fixture".to_string(),
        path: path.to_string(),
        source: source.to_string(),
    }]
}

#[test]
fn fixtures_match_golden() {
    let rendered: String = analyze(&fixture_inputs()).iter().map(|d| d.render() + "\n").collect();
    let golden_path = fixtures_dir().join("golden.txt");
    if std::env::var_os("BLESS").is_some() {
        fs::write(&golden_path, &rendered).unwrap();
        return;
    }
    let golden = fs::read_to_string(&golden_path).unwrap();
    assert_eq!(
        rendered, golden,
        "fixture diagnostics diverged from golden.txt (re-bless with BLESS=1 if intentional)"
    );
}

#[test]
fn each_check_fires_on_its_fixture() {
    let diags = analyze(&fixture_inputs());
    let count = |code: &str| diags.iter().filter(|d| d.code == code).count();
    assert_eq!(count("fault-coverage"), 2, "fallible-return + fs-call fns without failpoints");
    assert_eq!(
        count("clock-accounting"),
        3,
        "uncharged scoring + uncharged training step + uncounted full-frame render"
    );
    assert_eq!(count("bad-suppression"), 0);
    assert_eq!(count("unused-suppression"), 0);
}

#[test]
fn clean_and_suppressed_fixtures_are_clean() {
    for d in analyze(&fixture_inputs()) {
        assert!(
            !d.file.ends_with("clean.rs") && !d.file.ends_with("suppressed.rs"),
            "unexpected diagnostic in a clean fixture: {}",
            d.render()
        );
    }
}

/// Inserting a justified `allow` above every finding silences the file with no
/// unused-suppression fallout; removing the directives brings every finding
/// back unchanged.
#[test]
fn suppression_round_trip() {
    let source = fs::read_to_string(fixtures_dir().join("clock_accounting.rs")).unwrap();
    let before = analyze(&single_input("fixtures/clock_accounting.rs", &source));
    assert!(!before.is_empty(), "the clock_accounting fixture must seed findings");

    let mut flagged: Vec<(u32, String)> = before.iter().map(|d| (d.line, d.code.clone())).collect();
    flagged.sort();
    flagged.dedup();
    let mut lines: Vec<String> = source.lines().map(String::from).collect();
    for (line, code) in flagged.iter().rev() {
        lines.insert(
            (*line - 1) as usize,
            format!("    // blazeit-lint: allow({code}) -- round-trip test insertion"),
        );
    }
    let suppressed = analyze(&single_input("fixtures/clock_accounting.rs", &lines.join("\n")));
    assert!(
        suppressed.is_empty(),
        "suppressed fixture still reports: {:?}",
        suppressed.iter().map(|d| d.render()).collect::<Vec<_>>()
    );

    let after = analyze(&single_input("fixtures/clock_accounting.rs", &source));
    assert_eq!(after.len(), before.len(), "findings must return once the allows are removed");
}

/// An uncharged scoring call (the `clock_accounting.rs` fixture's first case)
/// with `directive` on the line above it.
fn uncharged_with(directive: &str) -> String {
    format!(
        "pub fn sneaky_scoring(nn: &SpecializedNN, frame: &[f32]) -> usize {{\n    \
         {directive}\n    \
         nn.predict_classes(frame).len()\n}}\n"
    )
}

#[test]
fn suppression_without_reason_is_rejected() {
    let src = uncharged_with("// blazeit-lint: allow(clock-accounting)");
    let diags = analyze(&single_input("fixtures/inline.rs", &src));
    assert!(
        diags.iter().any(|d| d.code == "bad-suppression"),
        "a directive without `-- <reason>` must be a bad-suppression: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.code == "clock-accounting"),
        "a malformed directive must not suppress the underlying finding"
    );
}

#[test]
fn unused_suppression_is_reported() {
    let src = "pub fn f() -> u32 {\n    \
               // blazeit-lint: allow(clock-accounting) -- nothing here scores\n    \
               7\n}\n";
    let diags = analyze(&single_input("fixtures/inline.rs", src));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "unused-suppression");
}

/// Panic-freedom and the sync shim moved to clippy, and the lock order to the
/// `lockorder::Lock` type, so a directive naming their old codes is an unknown
/// check — and suppresses nothing.
#[test]
fn retired_checks_are_unknown() {
    for code in ["panic-site", "panic-site::index", "sync-primitive", "lock-order"] {
        let src = uncharged_with(&format!("// blazeit-lint: allow({code}) -- retired"));
        let diags = analyze(&single_input("fixtures/inline.rs", &src));
        assert!(
            diags.iter().any(|d| d.code == "bad-suppression"
                && d.message == format!("unknown check `{code}` in directive")),
            "`{code}` must be an unknown check: {diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == "clock-accounting"), "{diags:?}");
    }
}

/// A store helper that both checks flag in production code: it touches
/// `std::fs` without a failpoint and scores without charging.
const STORE_HELPER: &str = "    \
    fn helper(nn: &SpecializedNN, frame: &[f32]) -> StoreResult<usize> {
        std::fs::remove_file(\"scratch\")?;
        Ok(nn.predict_classes(frame).len())
    }
";

/// `#[test]` functions and `#[cfg(test)]` modules are exempt from every check.
#[test]
fn test_code_is_exempt() {
    let production = analyze(&single_input("fixtures/store.rs", STORE_HELPER));
    let mut codes: Vec<&str> = production.iter().map(|d| d.code.as_str()).collect();
    codes.sort_unstable();
    assert_eq!(codes, ["clock-accounting", "fault-coverage"], "{production:?}");

    let src = format!(
        "#[cfg(test)]\nmod tests {{\n{STORE_HELPER}\n    #[test]\n    fn t() {{\n        \
         std::fs::remove_file(\"scratch\").ok();\n    }}\n}}\n"
    );
    let diags = analyze(&single_input("fixtures/store.rs", &src));
    assert!(diags.is_empty(), "test code must be exempt: {diags:?}");
}

/// The production workspace itself must lint clean: every finding has either
/// been fixed or carries a justified suppression. This makes `cargo test` a
/// second enforcement point alongside the CI gate.
#[test]
fn workspace_analyzes_clean() {
    let diags = blazeit_lint::analyze_workspace(&repo_root()).unwrap();
    let rendered: Vec<String> = diags.iter().map(|d| d.render()).collect();
    assert!(rendered.is_empty(), "workspace lint regressions:\n{}", rendered.join("\n"));
}

/// The clippy lints that keep production code panic-free. Every
/// suppression is an `#[expect(…, reason = "…")]`, so the last two make a
/// reason mandatory and a stale suppression a build failure.
const PANIC_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "indexing_slicing",
    "allow_attributes",
    "allow_attributes_without_reason",
];

/// Every raw primitive production code must take from the sync shim
/// (`blazeit_core::sync`) or not use at all. `Arc`, `Weak`, `mpsc` and
/// `atomic::Ordering` carry no scheduling decisions and stay plain `std`.
fn banned_primitives() -> Vec<String> {
    let sync = "Mutex MutexGuard RwLock RwLockReadGuard RwLockWriteGuard Condvar Barrier Once \
                OnceLock LazyLock";
    let atomics = "Bool I8 I16 I32 I64 Isize U8 U16 U32 U64 Usize Ptr";
    let sync = sync.split_whitespace().map(|t| format!("std::sync::{t}"));
    sync.chain(atomics.split_whitespace().map(|t| format!("std::sync::atomic::Atomic{t}")))
        .collect()
}

/// The `key = value` lines of one `[table]` of a TOML file, up to the next
/// table header.
fn toml_table(text: &str, header: &str) -> Vec<(String, String)> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().trim_matches('"').to_string()))
        .collect()
}

/// Panic-freedom and the sync shim are enforced by clippy, not by this lint.
/// That holds only while every production target stays under the gate, so a
/// crate that drops its `[lints]` opt-in, a crate root of the root package
/// that loses its attribute table, or a primitive that leaves the
/// `disallowed-types` list fails here.
#[test]
fn clippy_gates_every_production_target() {
    let root = repo_root();
    let read = |rel: &str| fs::read_to_string(root.join(rel)).unwrap();

    let table = toml_table(&read("Cargo.toml"), "[workspace.lints.clippy]");
    for lint in PANIC_LINTS {
        let level = table.iter().find(|(k, _)| k == lint).map(|(_, v)| v.as_str());
        assert!(
            matches!(level, Some("warn" | "deny")),
            "[workspace.lints.clippy] must enable `{lint}`, found {level:?}"
        );
    }

    for (name, rel) in blazeit_lint::TARGETS {
        if let Some(dir) = rel.strip_suffix("/src") {
            let lints = toml_table(&read(&format!("{dir}/Cargo.toml")), "[lints]");
            assert!(
                lints.contains(&("workspace".into(), "true".into())),
                "{dir}/Cargo.toml must opt in with `[lints] workspace = true`"
            );
            continue;
        }
        // The root package opts in per crate root: its integration tests and
        // examples are test code.
        assert_eq!(*rel, "src", "unexpected target `{name}`");
        let mut roots = vec![root.join("src/lib.rs")];
        roots.extend(blazeit_lint::collect_rs_files(&root.join("src/bin")).unwrap());
        assert!(roots.iter().any(|r| r.ends_with("blazeit-server.rs")), "server binary moved");
        for file in roots {
            let src = fs::read_to_string(&file).unwrap();
            let warned: Vec<&str> = src
                .split("#![warn(")
                .skip(1)
                .filter_map(|rest| rest.split_once(")]"))
                .flat_map(|(list, _)| list.split(|c: char| c == ',' || c.is_whitespace()))
                .collect();
            for lint in PANIC_LINTS {
                assert!(
                    warned.contains(&format!("clippy::{lint}").as_str()),
                    "{} must carry `#![warn(clippy::{lint}, …)]`",
                    file.display()
                );
            }
        }
    }

    let clippy = read("clippy.toml");
    let disallowed: Vec<&str> = clippy
        .lines()
        .filter_map(|l| l.split_once("path = \"")?.1.split_once('"'))
        .map(|(path, rest)| {
            assert!(rest.contains("blazeit_core::sync"), "`{path}` needs a reason naming the shim");
            path
        })
        .collect();
    for primitive in banned_primitives() {
        assert!(
            disallowed.contains(&primitive.as_str()),
            "clippy.toml's disallowed-types must name `{primitive}`"
        );
    }
}
