//! `lock-order`: the static superset of the runtime `lockorder.rs` assertion.
//!
//! The runtime check only fires on interleavings that debug-build tests happen
//! to execute. This check instead considers every *statically possible*
//! acquisition: it extracts ranked-lock acquisitions (`lock_ordered(RANK_…,
//! "name", …)` call sites and helpers returning `OrderedGuard`), propagates
//! them through an intra-crate, name-matched call graph, and flags any chain
//! on which a lock could be acquired while an equal- or higher-ranked lock is
//! already held. With the total rank order enforced everywhere, the lock graph
//! cannot contain a cycle — so this check subsumes static deadlock-cycle
//! detection for the ranked hierarchy.
//!
//! The rank table is **not** duplicated here: it is imported from
//! `blazeit_core::lockorder::RANKED_LOCKS`, the same table the runtime
//! assertion uses, so the two layers cannot diverge.

use std::collections::{HashMap, HashSet};

use blazeit_core::lockorder::RANKED_LOCKS;

use super::Workspace;
use crate::diag::Diagnostic;
use crate::model::{signature_matches, Event, Function, Receiver};

const CODE: &str = "lock-order";

/// Renders the documented order (`admission → … → video → obs_trace`).
pub fn documented_order() -> String {
    RANKED_LOCKS.iter().map(|l| l.name).collect::<Vec<_>>().join(" → ")
}

/// The `RANK_*` constant name for a table entry (`monitor` → `RANK_MONITOR`).
pub fn rank_const_name(lock_name: &str) -> String {
    format!("RANK_{}", lock_name.to_uppercase())
}

fn rank_table() -> HashMap<String, (u8, &'static str)> {
    RANKED_LOCKS.iter().map(|l| (rank_const_name(l.name), (l.rank, l.name))).collect()
}

/// A function's lock summary: the set of ranks it may acquire, directly or
/// through any call chain (bitmask over ranks).
type RankMask = u64;

fn mask_ranks(mask: RankMask) -> impl Iterator<Item = u8> {
    (0..64u8).filter(move |r| mask & (1 << r) != 0)
}

fn lock_name(rank: u8) -> &'static str {
    RANKED_LOCKS.iter().find(|l| l.rank == rank).map(|l| l.name).unwrap_or("?")
}

struct FnRef<'a> {
    file: usize,
    func: &'a Function,
}

/// Per-crate analysis state.
struct CrateGraph<'a> {
    fns: Vec<FnRef<'a>>,
    /// name → indices into `fns` (all same-named functions in the crate).
    by_name: HashMap<&'a str, Vec<usize>>,
    /// Transitive acquirable-rank mask per function.
    summary: Vec<RankMask>,
    /// Functions returning an `OrderedGuard` (treated as acquisitions at the caller).
    returns_guard: Vec<bool>,
}

impl<'a> CrateGraph<'a> {
    /// Resolves a call event to candidate callee indices: same name AND a
    /// signature (receiver shape + argument count) compatible with the call
    /// site. For `self.m(..)` calls, candidates on the caller's own impl type
    /// win outright when any exist.
    fn resolve(&self, caller: usize, event: &Event) -> Vec<usize> {
        let Event::Call { path, receiver, nargs, .. } = event else { return Vec::new() };
        let Some(callee) = path.last() else { return Vec::new() };
        // A call spelled `drop(x)` is always `std::mem::drop` — the language
        // rejects direct `Drop::drop` calls — so resolving it to the crate's
        // `Drop` impls would fabricate edges into destructors (the walker
        // separately interprets `drop(binding)` as releasing a held guard).
        if callee == "drop" {
            return Vec::new();
        }
        let Some(targets) = self.by_name.get(callee.as_str()) else { return Vec::new() };
        let compatible: Vec<usize> = targets
            .iter()
            .copied()
            .filter(|&t| signature_matches(receiver, *nargs, self.fns[t].func))
            .collect();
        if *receiver == Receiver::SelfMethod {
            if let Some(st) = &self.fns[caller].func.self_type {
                let own: Vec<usize> = compatible
                    .iter()
                    .copied()
                    .filter(|&t| self.fns[t].func.self_type.as_ref() == Some(st))
                    .collect();
                if !own.is_empty() {
                    return own;
                }
            }
        }
        compatible
    }
}

pub(super) fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let ranks = rank_table();
    let mut diags = Vec::new();
    let mut crates: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in ws.files.iter().enumerate() {
        crates.entry(&f.crate_name).or_default().push(i);
    }
    let mut crate_names: Vec<&&str> = crates.keys().collect();
    crate_names.sort();
    for name in crate_names {
        let graph = build_graph(ws, &crates[*name], &ranks, &mut diags);
        walk_functions(ws, &graph, &ranks, &mut diags);
    }
    diags
}

fn build_graph<'a>(
    ws: &'a Workspace,
    file_indices: &[usize],
    ranks: &HashMap<String, (u8, &'static str)>,
    diags: &mut Vec<Diagnostic>,
) -> CrateGraph<'a> {
    let mut fns = Vec::new();
    for &fi in file_indices {
        for func in &ws.files[fi].model.functions {
            if !func.is_test {
                fns.push(FnRef { file: fi, func });
            }
        }
    }
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.func.name.as_str()).or_default().push(i);
    }
    let returns_guard: Vec<bool> =
        fns.iter().map(|f| f.func.ret_idents.iter().any(|i| i == "OrderedGuard")).collect();
    // Direct acquisitions; malformed call sites are diagnosed here.
    let summary: Vec<RankMask> = fns
        .iter()
        .map(|f| {
            let mut mask = 0u64;
            for (rank, _name, _line, _col) in acquisitions(ws, f, ranks, Some(diags)) {
                mask |= 1 << rank;
            }
            mask
        })
        .collect();
    let mut graph = CrateGraph { fns, by_name, summary, returns_guard };
    // Fixpoint over the signature-resolved call graph.
    loop {
        let mut changed = false;
        for i in 0..graph.fns.len() {
            let mut mask = graph.summary[i];
            for event in &graph.fns[i].func.events {
                if matches!(event, Event::Call { .. }) {
                    for t in graph.resolve(i, event) {
                        mask |= graph.summary[t];
                    }
                }
            }
            if mask != graph.summary[i] {
                graph.summary[i] = mask;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    graph
}

/// Direct `lock_ordered` acquisitions in a function, with rank-table
/// validation (unknown `RANK_*` constants and name/rank mismatches are
/// themselves diagnostics when `diags` is provided).
fn acquisitions(
    ws: &Workspace,
    f: &FnRef<'_>,
    ranks: &HashMap<String, (u8, &'static str)>,
    mut diags: Option<&mut Vec<Diagnostic>>,
) -> Vec<(u8, String, u32, u32)> {
    let path = &ws.files[f.file].path;
    let mut out = Vec::new();
    for event in &f.func.events {
        let Event::Call { path: cpath, rank_arg, str_arg, line, col, .. } = event else { continue };
        if cpath.last().map(String::as_str) != Some("lock_ordered") {
            continue;
        }
        let Some(rank_const) = rank_arg else {
            if let Some(d) = diags.as_deref_mut() {
                d.push(Diagnostic::warn(
                    CODE,
                    path,
                    *line,
                    *col,
                    "lock_ordered call without a recognizable RANK_* constant — the static \
                     checker cannot rank this acquisition"
                        .to_string(),
                ));
            }
            continue;
        };
        match ranks.get(rank_const) {
            None => {
                if let Some(d) = diags.as_deref_mut() {
                    d.push(Diagnostic::warn(
                        CODE,
                        path,
                        *line,
                        *col,
                        format!(
                            "unknown rank constant `{rank_const}` — not present in \
                             lockorder::RANKED_LOCKS; add the lock to the table first"
                        ),
                    ));
                }
            }
            Some(&(rank, table_name)) => {
                if let Some(site_name) = str_arg {
                    if site_name != table_name {
                        if let Some(d) = diags.as_deref_mut() {
                            d.push(Diagnostic::warn(
                                CODE,
                                path,
                                *line,
                                *col,
                                format!(
                                    "acquisition names lock \"{site_name}\" but `{rank_const}` is \
                                     documented as \"{table_name}\" in lockorder::RANKED_LOCKS"
                                ),
                            ));
                        }
                    }
                }
                out.push((
                    rank,
                    str_arg.clone().unwrap_or_else(|| table_name.to_string()),
                    *line,
                    *col,
                ));
            }
        }
    }
    out
}

struct Held {
    rank: u8,
    name: String,
    depth: u32,
    binding: Option<String>,
}

fn walk_functions(
    ws: &Workspace,
    graph: &CrateGraph<'_>,
    ranks: &HashMap<String, (u8, &'static str)>,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, f) in graph.fns.iter().enumerate() {
        let path = &ws.files[f.file].path;
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0u32;
        for event in &f.func.events {
            match event {
                Event::OpenBlock => depth += 1,
                Event::CloseBlock => {
                    depth = depth.saturating_sub(1);
                    held.retain(|h| h.depth <= depth);
                }
                Event::Call { path: cpath, binding, ident_args, line, col, depth: d, .. } => {
                    let callee = cpath.last().map(String::as_str).unwrap_or("");
                    if callee == "lock_ordered" {
                        let acq = acquisitions_at(ws, f, ranks, *line, *col);
                        for (rank, name) in acq {
                            report_conflicts(path, *line, *col, rank, &name, &held, None, diags);
                            held.push(Held { rank, name, depth: *d, binding: binding.clone() });
                        }
                        continue;
                    }
                    if callee == "drop" {
                        held.retain(|h| h.binding.as_ref().is_none_or(|b| !ident_args.contains(b)));
                        continue;
                    }
                    // A call into the crate: anything the callee (transitively)
                    // acquires must rank strictly above everything held here.
                    let targets = graph.resolve(i, event);
                    if targets.is_empty() || targets.iter().all(|&t| t == i) {
                        continue; // unresolved, or pure self-recursion
                    }
                    let mut acquired: RankMask = 0;
                    let mut guard_ranks: RankMask = 0;
                    for &t in &targets {
                        acquired |= graph.summary[t];
                        if graph.returns_guard[t] {
                            guard_ranks |= graph.summary[t];
                        }
                    }
                    for rank in mask_ranks(acquired) {
                        report_conflicts(
                            path,
                            *line,
                            *col,
                            rank,
                            lock_name(rank),
                            &held,
                            Some(callee),
                            diags,
                        );
                    }
                    // Guard-returning helpers hand the acquisition back to us:
                    // from here on this function holds those ranks.
                    for rank in mask_ranks(guard_ranks) {
                        held.push(Held {
                            rank,
                            name: lock_name(rank).to_string(),
                            depth: *d,
                            binding: binding.clone(),
                        });
                    }
                }
            }
        }
    }
}

/// Re-extracts the (rank, name) pairs of the `lock_ordered` call at a specific
/// source position (the event list does not cache the parse).
fn acquisitions_at(
    ws: &Workspace,
    f: &FnRef<'_>,
    ranks: &HashMap<String, (u8, &'static str)>,
    line: u32,
    col: u32,
) -> Vec<(u8, String)> {
    acquisitions(ws, f, ranks, None)
        .into_iter()
        .filter(|&(_, _, l, c)| l == line && c == col)
        .map(|(r, n, _, _)| (r, n))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn report_conflicts(
    path: &str,
    line: u32,
    col: u32,
    rank: u8,
    name: &str,
    held: &[Held],
    via_call: Option<&str>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut reported: HashSet<u8> = HashSet::new();
    for h in held {
        if h.rank >= rank && reported.insert(h.rank) {
            let how = match via_call {
                Some(callee) => format!("call to `{callee}` may acquire"),
                None => "acquires".to_string(),
            };
            diags.push(Diagnostic::warn(
                CODE,
                path,
                line,
                col,
                format!(
                    "{how} \"{name}\" (rank {rank}) while \"{}\" (rank {}) is held; \
                     the documented order is {}",
                    h.name,
                    h.rank,
                    documented_order()
                ),
            ));
        }
    }
}
