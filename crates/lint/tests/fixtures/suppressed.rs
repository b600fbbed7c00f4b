//! Suppression fixture: the same kind of seeded violation as
//! `clock_accounting.rs`, carrying a justified `allow` in both the line and
//! the continued-reason forms — this file must analyze clean, and none of its
//! suppressions may be reported unused. Never compiled — analyzed by
//! `crates/lint/tests/lint.rs` and the CI canary (this file contributes zero
//! diagnostics).

pub fn scored_by_a_charging_caller(nn: &SpecializedNN, frame: &[f32]) -> usize {
    // blazeit-lint: allow(clock-accounting) -- fixture: every caller charges the scoring
    nn.predict_classes(frame).len()
}

pub fn rendered_by_a_charging_caller(video: &Video, frame: FrameIndex) -> f32 {
    // blazeit-lint: allow(clock-accounting) -- fixture: exercises a reason that
    // wraps onto a continuation line.
    video.frame(frame).map(|pixels| pixels.redness()).unwrap_or(0.0)
}
