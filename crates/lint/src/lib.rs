//! # blazeit-lint
//!
//! A project-invariant static analyzer for the BlazeIt workspace. Two
//! call-graph checks guard invariants that no gate running real code checks:
//!
//! * [`fault-coverage`](checks::fault_coverage) — fallible store/stream
//!   functions are dominated by `inject(FaultSite::…)` failpoints, and every
//!   declared fault site keeps at least one live failpoint.
//! * [`clock-accounting`](checks::clock_accounting) — uncharged scoring entry
//!   points are only reachable through allowlisted charged wrappers.
//!
//! Panic-freedom and the sync shim are clippy's: the `[workspace.lints.clippy]`
//! table in the root `Cargo.toml` (`unwrap_used`, `indexing_slicing`, …) and the
//! `disallowed-types` list in `clippy.toml`, both gated by `cargo clippy -- -D
//! warnings`. Their suppressions are `#[expect(…, reason = "…")]` attributes.
//! The lock order is a type: every ranked lock is a
//! `blazeit_core::lockorder::RankedMutex`, whose acquisitions the debug build
//! asserts and the `blazeit-model` explorer checks.
//!
//! Findings can be suppressed in source with
//! `// blazeit-lint: allow(<check>) -- <reason>` (the reason is mandatory;
//! covers the comment's line and the next) or
//! `// blazeit-lint: allow-file(<check>) -- <reason>` (whole file). Malformed
//! and unused suppressions are themselves diagnostics, so justifications
//! cannot rot.

pub mod checks;
pub mod diag;
pub mod lexer;
pub mod model;

use std::path::{Path, PathBuf};

use checks::{SourceFile, Workspace};
use diag::Diagnostic;

/// The production source the workspace run analyzes, relative to the repo
/// root: every library crate plus the facade and the server binary. `bench`
/// and the lint itself are tooling, not production paths, and test targets
/// under `tests/` are test code by definition. The same set is under clippy's
/// panic lints; `tests/lint.rs` guards that.
pub const TARGETS: &[(&str, &str)] = &[
    ("core", "crates/core/src"),
    ("nn", "crates/nn/src"),
    ("detect", "crates/detect/src"),
    ("frameql", "crates/frameql/src"),
    ("videostore", "crates/videostore/src"),
    ("blazeit", "src"),
];

/// One input to [`analyze`]: crate tag, diagnostic path, and source text.
#[derive(Debug, Clone)]
pub struct Input {
    /// Crate tag (`fault-coverage` checks the site inventory only when `core`
    /// is analyzed).
    pub crate_name: String,
    /// Path to render in diagnostics.
    pub path: String,
    /// Source text.
    pub source: String,
}

/// Analyzes a set of in-memory sources: parses each file, runs every check,
/// applies suppressions, and reports malformed/unused suppressions. Returned
/// diagnostics are sorted by file, line, column, code.
pub fn analyze(inputs: &[Input]) -> Vec<Diagnostic> {
    let mut ws = Workspace::default();
    for input in inputs {
        let file_name = Path::new(&input.path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| input.path.clone());
        ws.files.push(SourceFile {
            crate_name: input.crate_name.clone(),
            path: input.path.clone(),
            file_name,
            model: model::parse_file(&input.path, &input.source),
        });
    }
    ws.files.sort_by(|a, b| a.path.cmp(&b.path));
    let raw = checks::run_all(&ws);
    let mut out = Vec::new();
    for d in raw {
        let file = ws.files.iter().find(|f| f.path == d.file);
        let suppressed = file.is_some_and(|f| {
            f.model.suppressions.iter().any(|s| {
                if s.error.is_none() && s.covers(d.line, &d.code) {
                    s.used.set(true);
                    true
                } else {
                    false
                }
            })
        });
        if !suppressed {
            out.push(d);
        }
    }
    for f in &ws.files {
        for s in &f.model.suppressions {
            if let Some(err) = &s.error {
                out.push(Diagnostic::warn("bad-suppression", &f.path, s.line, s.col, err.clone()));
            } else if !s.used.get() {
                out.push(Diagnostic::warn(
                    "unused-suppression",
                    &f.path,
                    s.line,
                    s.col,
                    format!(
                        "suppression for {} matches no diagnostic — remove it (reason was: {})",
                        s.checks.join(", "),
                        s.reason
                    ),
                ));
            }
        }
    }
    diag::sort(&mut out);
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
pub fn collect_rs_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&d)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads and analyzes the standard workspace targets under `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut inputs = Vec::new();
    for (crate_name, rel) in TARGETS {
        let dir = root.join(rel);
        if !dir.is_dir() {
            continue;
        }
        for file in collect_rs_files(&dir)? {
            let source = std::fs::read_to_string(&file)?;
            let path = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            inputs.push(Input { crate_name: crate_name.to_string(), path, source });
        }
    }
    Ok(analyze(&inputs))
}
