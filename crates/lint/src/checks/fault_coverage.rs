//! `fault-coverage`: chaos coverage cannot silently rot.
//!
//! Two sub-rules:
//!
//! 1. **Dominance** — in `store.rs` and `stream.rs`, every production function
//!    that performs `std::fs` calls or whose return type names
//!    `StoreError`/`StoreResult` must be *dominated by* a failpoint: its body
//!    must reach an `inject(FaultSite::…)` call, directly or through the
//!    intra-file call graph. A new I/O path added without a failpoint is
//!    invisible to the chaos suite — this rule makes it a lint failure
//!    instead.
//! 2. **Inventory** — every variant of `blazeit_core::fault::FaultSite::ALL`
//!    must appear in at least one `inject(FaultSite::…)` call somewhere in the
//!    analyzed source. Deleting the last failpoint of a declared site fails
//!    the build.

use std::collections::{HashMap, HashSet};

use blazeit_core::fault::FaultSite;

use super::Workspace;
use crate::diag::Diagnostic;
use crate::model::Function;

const CODE: &str = "fault-coverage";

/// Files whose fallible surface must be failpoint-dominated.
const COVERED_FILES: &[&str] = &["store.rs", "stream.rs"];

pub(super) fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_dominance(ws, &mut diags);
    check_inventory(ws, &mut diags);
    diags
}

fn is_fs_call(path: &[String]) -> bool {
    path.len() >= 2 && path[path.len() - 2] == "fs"
}

fn needs_coverage(func: &Function) -> bool {
    // `StoreResult<_>` / `Result<_, StoreError>` returns are fallible store
    // operations; a bare `StoreError` (or `Option<StoreError>`) return is an
    // error *constructor* — nothing there can fail, so nothing to inject.
    let fallible_ret = func.ret_idents.iter().any(|i| i == "StoreResult")
        || (func.ret_idents.iter().any(|i| i == "Result")
            && func.ret_idents.iter().any(|i| i == "StoreError"));
    let does_fs = func.events.iter().any(|e| is_fs_call(&e.path));
    fallible_ret || does_fs
}

fn check_dominance(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if !COVERED_FILES.contains(&file.file_name.as_str()) {
            continue;
        }
        let fns: Vec<&Function> = file.model.functions.iter().filter(|f| !f.is_test).collect();
        let by_name: HashMap<&str, Vec<usize>> = {
            let mut m: HashMap<&str, Vec<usize>> = HashMap::new();
            for (i, f) in fns.iter().enumerate() {
                m.entry(f.name.as_str()).or_default().push(i);
            }
            m
        };
        // `covered[i]`: function i's body reaches an inject() call, directly or
        // through intra-file calls (fixpoint).
        let mut covered: Vec<bool> = fns.iter().map(|f| f.calls_any("inject")).collect();
        loop {
            let mut changed = false;
            for (i, f) in fns.iter().enumerate() {
                if covered[i] {
                    continue;
                }
                let reaches = f.events.iter().any(|e| {
                    let Some(callee) = e.path.last() else { return false };
                    by_name.get(callee.as_str()).is_some_and(|ts| ts.iter().any(|&t| covered[t]))
                });
                if reaches {
                    covered[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (i, f) in fns.iter().enumerate() {
            if needs_coverage(f) && !covered[i] {
                let surface = if f.events.iter().any(|e| is_fs_call(&e.path)) {
                    "performs std::fs calls"
                } else {
                    "returns a StoreError-fallible Result"
                };
                diags.push(Diagnostic::warn(
                    CODE,
                    &file.path,
                    f.line,
                    f.col,
                    format!(
                        "fn `{}` {surface} but is not dominated by an inject(FaultSite::…) \
                         failpoint — the chaos suite cannot exercise this path; add a failpoint \
                         or route through a covered helper",
                        f.qualified
                    ),
                ));
            }
        }
    }
}

fn check_inventory(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    // The inventory rule only makes sense when the crate defining the sites is
    // part of the analyzed set (fixture runs analyze a synthetic crate and
    // would otherwise report every site missing).
    if !ws.files.iter().any(|f| f.crate_name == "core" && f.file_name == "fault.rs") {
        return;
    }
    let mut seen: HashSet<String> = HashSet::new();
    for file in &ws.files {
        for func in &file.model.functions {
            if func.is_test {
                continue;
            }
            // `inject(fault::FaultSite::StoreRead)` — the variant is one of the
            // top-level identifier arguments.
            for event in func.calls("inject") {
                seen.extend(event.ident_args.iter().cloned());
            }
        }
    }
    for site in FaultSite::ALL {
        let variant = format!("{site:?}");
        if !seen.contains(&variant) {
            diags.push(Diagnostic::warn(
                CODE,
                "(workspace)",
                0,
                0,
                format!(
                    "declared fault site FaultSite::{variant} (\"{}\") has no live \
                     inject(FaultSite::{variant}) call site in the analyzed source — either wire \
                     the failpoint back in or retire the site",
                    site.label()
                ),
            ));
        }
    }
}
