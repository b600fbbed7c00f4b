//! `clock-accounting`: no un-charged simulated inference, no un-charged render.
//!
//! Every expensive operation in the engine must charge the shared `SimClock`
//! before (or while) it runs — that is what makes simulated runtimes honest
//! and comparable. The charging happens in a small set of wrapper functions;
//! the raw scoring primitives they wrap perform real work but touch no clock.
//! This check pins that layering: each *restricted* entry point below may only
//! be called from its allowlisted charged wrappers (or from test code). A new
//! call site anywhere else means somebody found a way to run detector or NN
//! scoring, or to render a full frame, without paying for it.
//!
//! The table is part of the lint's project configuration on purpose: adding a
//! new charged wrapper is a deliberate, reviewed act (edit the table), not
//! something inferred from the code under analysis.

use super::Workspace;
use crate::diag::Diagnostic;

const CODE: &str = "clock-accounting";

/// A restricted scoring entry point and the charged wrappers allowed to call it.
pub struct ClockRule {
    /// Callee method/function name (matched on the last path segment).
    pub callee: &'static str,
    /// Functions (bare names) allowed to call it.
    pub allowed_callers: &'static [&'static str],
    /// Why the callee is restricted — rendered in diagnostics.
    pub note: &'static str,
}

/// The restricted-callee table.
///
/// * Detector: `detect_uncharged` generates detections without charging; only
///   the region-charging wrappers may reach it.
/// * NN forward passes: `logits_batch` is the uncharged inner loop; the
///   `predict_*` family wraps it without charging and is therefore restricted
///   too, all the way up to `SpecializedNN::score_batch` — the one place that
///   charges `CostCategory::SpecializedInference`.
/// * `Dense::forward_into` / `forward_inference` are the layer kernels under
///   all of the above plus the training step.
/// * Training: `Network::train_step` does real work and charges nothing; it may
///   run only inside `Trainer::fit`, and `fit` only inside
///   `SpecializedNN::train` — the one place that charges
///   `CostCategory::Training`, once per example-visit.
/// * Full-frame renders: `Video::frame` is host work that stands for a decode,
///   so production reaches it only through `select.rs`'s counting
///   `render_full_frame`, and that only from the three sites that charge
///   `CostCategory::Decode` for the same frame — the content-filter scan
///   (`run_selection`), its held-out calibration, and the on-demand
///   `PixelSource::pixels` of a frame the scan already charged. A render implies
///   a Decode charge; a Decode charge does not imply a render.
pub const RULES: &[ClockRule] = &[
    ClockRule {
        callee: "detect_uncharged",
        allowed_callers: &["detect_in_region", "detect_batch_in_region"],
        note: "generates detections without charging CostCategory::Detection",
    },
    ClockRule {
        callee: "logits_batch",
        allowed_callers: &["logits", "append_scores"],
        note: "uncharged forward pass",
    },
    ClockRule {
        callee: "logits",
        allowed_callers: &[],
        note: "uncharged forward pass (allocating variant; test-only)",
    },
    ClockRule {
        callee: "append_scores",
        allowed_callers: &["score_batch", "predict_scores"],
        note: "uncharged batched scoring appended to a ScoreMatrix",
    },
    ClockRule {
        callee: "predict_scores",
        allowed_callers: &["predict_probs", "predict_classes"],
        note: "uncharged batched scoring",
    },
    ClockRule {
        callee: "predict_probs",
        allowed_callers: &[],
        note: "uncharged per-example scoring (nested layout; test-only)",
    },
    ClockRule {
        callee: "predict_classes",
        allowed_callers: &["evaluate", "accuracy"],
        note: "uncharged argmax scoring",
    },
    ClockRule {
        callee: "accuracy",
        allowed_callers: &[],
        note: "uncharged evaluation (full forward pass per example; test-only)",
    },
    ClockRule {
        callee: "forward_into",
        allowed_callers: &["logits_batch", "forward_inference", "train_step"],
        note: "uncharged layer forward pass into scratch",
    },
    ClockRule {
        callee: "train_step",
        allowed_callers: &["fit"],
        note: "uncharged SGD step: forward, backward and update",
    },
    ClockRule {
        callee: "fit",
        allowed_callers: &["train"],
        note: "uncharged training loop (and the standardizer fit beside it); \
               SpecializedNN::train charges CostCategory::Training per example-visit",
    },
    ClockRule {
        callee: "forward_inference",
        allowed_callers: &[],
        note: "uncharged layer forward pass (allocating inference variant; test-only)",
    },
    ClockRule {
        callee: "frame",
        allowed_callers: &["render_full_frame"],
        note: "Video::frame, an uncounted full-frame render",
    },
    ClockRule {
        callee: "render_full_frame",
        allowed_callers: &["calibrate_content_filters", "run_selection", "pixels"],
        note: "full-frame render outside the sites that charge CostCategory::Decode for that frame",
    },
];

pub(super) fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        for func in &file.model.functions {
            if func.is_test {
                continue;
            }
            for event in &func.events {
                let Some(callee) = event.path.last() else { continue };
                let Some(rule) = RULES.iter().find(|r| r.callee == callee) else { continue };
                if rule.allowed_callers.contains(&func.name.as_str()) {
                    continue;
                }
                diags.push(Diagnostic::warn(
                    CODE,
                    &file.path,
                    event.line,
                    event.col,
                    format!(
                        "`{}` ({}) called from `{}`, which is not an allowlisted charged \
                         wrapper (allowed: {}) — route through a charging wrapper or extend \
                         the table in crates/lint/src/checks/clock_accounting.rs",
                        rule.callee,
                        rule.note,
                        func.qualified,
                        if rule.allowed_callers.is_empty() {
                            "none — test-only entry point".to_string()
                        } else {
                            rule.allowed_callers.join(", ")
                        }
                    ),
                ));
            }
        }
    }
    diags
}
