//! Fixture-driven integration tests for `blazeit-lint`.
//!
//! The fixtures under `tests/fixtures/` are never compiled: each seeds exactly
//! one check's violation pattern (plus a clean file and a suppressed file that
//! must stay silent), and `golden.txt` pins the full rendered output. Re-bless
//! with `BLESS=1 cargo test -p blazeit-lint` after an intentional change.

use std::fs;
use std::path::{Path, PathBuf};

use blazeit_core::lockorder::{
    RANKED_LOCKS, RANK_ADMISSION, RANK_FLIGHT, RANK_HELDOUT_CACHE, RANK_LIVE_INDEX, RANK_MONITOR,
    RANK_NN_CACHE, RANK_OBS_TRACE, RANK_SERVE_CACHE, RANK_VIDEO,
};
use blazeit_lint::checks::lock_order::rank_const_name;
use blazeit_lint::model::Event;
use blazeit_lint::{analyze, Input};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every fixture file, tagged as one synthetic crate (so intra-crate call
/// propagation applies) with repo-independent `fixtures/…` paths.
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
    assert_eq!(count("lock-order"), 2, "direct + helper-propagated inversion");
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
    let source = fs::read_to_string(fixtures_dir().join("lock_order.rs")).unwrap();
    let before = analyze(&single_input("fixtures/lock_order.rs", &source));
    assert!(!before.is_empty(), "the lock_order fixture must seed findings");

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
    let suppressed = analyze(&single_input("fixtures/lock_order.rs", &lines.join("\n")));
    assert!(
        suppressed.is_empty(),
        "suppressed fixture still reports: {:?}",
        suppressed.iter().map(|d| d.render()).collect::<Vec<_>>()
    );

    let after = analyze(&single_input("fixtures/lock_order.rs", &source));
    assert_eq!(after.len(), before.len(), "findings must return once the allows are removed");
}

/// A `video` → `monitor` inversion (the `lock_order.rs` fixture's direct
/// case) with `directive` on the line above the second acquisition.
fn inverted_with(directive: &str) -> String {
    format!(
        "pub fn f(ctx: &Ctx) {{\n    \
         let _video = lock_ordered(&ctx.video, RANK_VIDEO, \"video\");\n    \
         {directive}\n    \
         let _monitor = lock_ordered(&ctx.monitor, RANK_MONITOR, \"monitor\");\n}}\n"
    )
}

#[test]
fn suppression_without_reason_is_rejected() {
    let src = inverted_with("// blazeit-lint: allow(lock-order)");
    let diags = analyze(&single_input("fixtures/inline.rs", &src));
    assert!(
        diags.iter().any(|d| d.code == "bad-suppression"),
        "a directive without `-- <reason>` must be a bad-suppression: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.code == "lock-order"),
        "a malformed directive must not suppress the underlying finding"
    );
}

#[test]
fn unused_suppression_is_reported() {
    let src = "pub fn f() -> u32 {\n    \
               // blazeit-lint: allow(lock-order) -- nothing here takes a lock\n    \
               7\n}\n";
    let diags = analyze(&single_input("fixtures/inline.rs", src));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "unused-suppression");
}

/// Panic-freedom and the sync shim moved to clippy, so a directive naming
/// their old codes is an unknown check — and suppresses nothing.
#[test]
fn retired_checks_are_unknown() {
    for code in ["panic-site", "panic-site::index", "sync-primitive"] {
        let src = inverted_with(&format!("// blazeit-lint: allow({code}) -- retired"));
        let diags = analyze(&single_input("fixtures/inline.rs", &src));
        assert!(
            diags.iter().any(|d| d.code == "bad-suppression"
                && d.message == format!("unknown check `{code}` in directive")),
            "`{code}` must be an unknown check: {diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == "lock-order"), "{diags:?}");
    }
}

/// `#[test]` functions and `#[cfg(test)]` modules are exempt from every check.
#[test]
fn test_code_is_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    fn helper(ctx: &Ctx, nn: &SpecializedNN, frame: &[f32]) -> usize {
        let _video = lock_ordered(&ctx.video, RANK_VIDEO, "video");
        let _monitor = lock_ordered(&ctx.monitor, RANK_MONITOR, "monitor");
        nn.predict_classes(frame).len()
    }

    #[test]
    fn t() {
        std::fs::remove_file("scratch").ok();
    }
}
"#;
    let diags = analyze(&single_input("fixtures/inline.rs", src));
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

/// `lockorder::RANKED_LOCKS` is the single source of truth for the hierarchy:
/// the table is well-formed, the runtime `RANK_*` constants are its values,
/// and every `lock_ordered` call site in production source names a table lock
/// paired with that lock's constant.
#[test]
fn rank_table_is_single_source_of_truth() {
    for w in RANKED_LOCKS.windows(2) {
        assert!(w[0].rank < w[1].rank, "ranks must be strictly increasing: {w:?}");
    }
    for (i, a) in RANKED_LOCKS.iter().enumerate() {
        for b in &RANKED_LOCKS[i + 1..] {
            assert_ne!(a.name, b.name, "duplicate lock name in RANKED_LOCKS");
        }
    }
    let by_name = |n: &str| RANKED_LOCKS.iter().find(|l| l.name == n).map(|l| l.rank).unwrap();
    // The serving locks rank *below* every engine lock: a cache miss executes
    // a full query while holding no serving lock, but the converse (engine
    // code acquiring a serving lock) must be impossible by rank.
    assert_eq!(RANK_ADMISSION, by_name("admission"));
    assert_eq!(RANK_SERVE_CACHE, by_name("serve_cache"));
    assert!(
        by_name("serve_cache") < by_name("monitor"),
        "serving locks must rank below engine locks"
    );
    assert_eq!(RANK_MONITOR, by_name("monitor"));
    assert_eq!(RANK_LIVE_INDEX, by_name("live_index"));
    assert_eq!(RANK_NN_CACHE, by_name("nn_cache"));
    assert_eq!(RANK_HELDOUT_CACHE, by_name("heldout_cache"));
    // A single-flight cell is joined under its cache's map lock, so the cell
    // lock ranks after every such map.
    assert_eq!(RANK_FLIGHT, by_name("flight"));
    for map in ["serve_cache", "nn_cache", "heldout_cache"] {
        assert!(by_name(map) < by_name("flight"), "{map} must rank below the cells it holds");
    }
    assert_eq!(RANK_VIDEO, by_name("video"));
    // The trace-collector lock ranks *above* every other lock: spans open and
    // close under arbitrary engine locks, and the collector never acquires
    // anything while its lock is held.
    assert_eq!(RANK_OBS_TRACE, by_name("obs_trace"));
    assert!(by_name("video") < by_name("obs_trace"), "obs_trace must rank above every engine lock");

    let root = repo_root();
    let mut call_sites = 0usize;
    let mut sites_by_name: std::collections::BTreeMap<String, usize> = Default::default();
    for (_crate, rel) in blazeit_lint::TARGETS {
        let dir = root.join(rel);
        if !dir.is_dir() {
            continue;
        }
        for file in blazeit_lint::collect_rs_files(&dir).unwrap() {
            let src = fs::read_to_string(&file).unwrap();
            let model = blazeit_lint::model::parse_file(&file.to_string_lossy(), &src);
            for func in &model.functions {
                for ev in &func.events {
                    let Event::Call { path, str_arg, rank_arg, .. } = ev else { continue };
                    if path.last().map(String::as_str) != Some("lock_ordered") {
                        continue;
                    }
                    call_sites += 1;
                    let at = format!("{}:{}", file.display(), func.qualified);
                    let name = str_arg
                        .as_deref()
                        .unwrap_or_else(|| panic!("lock_ordered without a name literal at {at}"));
                    *sites_by_name.entry(name.to_string()).or_default() += 1;
                    let rank = rank_arg
                        .as_deref()
                        .unwrap_or_else(|| panic!("lock_ordered without a RANK_* const at {at}"));
                    let entry = RANKED_LOCKS
                        .iter()
                        .find(|l| l.name == name)
                        .unwrap_or_else(|| panic!("lock \"{name}\" not in RANKED_LOCKS ({at})"));
                    assert_eq!(
                        rank,
                        rank_const_name(entry.name),
                        "call site at {at} pairs \"{name}\" with the wrong rank constant"
                    );
                }
            }
        }
    }
    assert!(call_sites > 0, "no lock_ordered call sites found — did the hierarchy move?");
    // The serving cache's map lock must stay on the statically-checked
    // `lock_ordered` path (its condvar-paired siblings are covered by the
    // model checker instead): join / probe / remove all go through it.
    assert!(
        sites_by_name.get("serve_cache").copied().unwrap_or(0) >= 3,
        "serve_cache lock_ordered call sites went missing: {sites_by_name:?}"
    );
}
