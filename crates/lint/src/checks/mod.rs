//! The check catalog.
//!
//! | code | invariant |
//! |------|-----------|
//! | `fault-coverage` | every fallible store/stream function is dominated by an `inject(FaultSite::…)` failpoint, and every declared fault site has at least one live failpoint |
//! | `clock-accounting` | uncharged detector/NN scoring entry points are only called from allowlisted charged wrappers |
//!
//! Panic-freedom and the sync shim are not here: clippy enforces them, through
//! the `[workspace.lints.clippy]` table in the root `Cargo.toml` and the
//! `disallowed-types` list in `clippy.toml`. Neither is the lock order: a
//! ranked lock is a `blazeit_core::lockorder::RankedMutex`, whose every
//! acquisition asserts the order in debug builds.

pub mod clock_accounting;
pub mod fault_coverage;

use crate::diag::Diagnostic;
use crate::model::FileModel;

/// One file under analysis, tagged with the crate it belongs to.
#[derive(Debug)]
pub struct SourceFile {
    /// Crate name (`core`, `nn`, …).
    pub crate_name: String,
    /// Repo-relative path used in diagnostics.
    pub path: String,
    /// Base file name (`store.rs`), used by file-scoped checks.
    pub file_name: String,
    /// Parsed model.
    pub model: FileModel,
}

/// All files under analysis.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Files in deterministic (sorted-path) order.
    pub files: Vec<SourceFile>,
}

/// Runs every check over the workspace, returning raw (pre-suppression)
/// diagnostics.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(fault_coverage::check(ws));
    diags.extend(clock_accounting::check(ws));
    diags
}
