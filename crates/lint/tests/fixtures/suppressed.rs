//! Suppression fixture: the same kinds of seeded violations as
//! `lock_order.rs` and `clock_accounting.rs`, each carrying a justified
//! `allow` — this file must analyze clean, and none of its suppressions may be
//! reported unused. Never compiled — analyzed by `crates/lint/tests/lint.rs`
//! and the CI canary (this file contributes zero diagnostics).

pub fn inverted_on_purpose(ctx: &Ctx) {
    let _video = lock_ordered(&ctx.video, RANK_VIDEO, "video");
    // blazeit-lint: allow(lock-order) -- fixture: exercises the single-line
    // suppression form, including a continuation line for the reason.
    let _monitor = lock_ordered(&ctx.monitor, RANK_MONITOR, "monitor");
}

pub fn scored_by_a_charging_caller(nn: &SpecializedNN, frame: &[f32]) -> usize {
    // blazeit-lint: allow(clock-accounting) -- fixture: every caller charges the scoring
    nn.predict_classes(frame).len()
}
