//! Clean fixture: near-miss patterns that must NOT be flagged by any check.
//! Never compiled — analyzed by `crates/lint/tests/lint.rs` and the CI
//! canary (this file contributes zero diagnostics).

pub struct Ctx {
    monitor: u32,
    video: u32,
}

pub fn correct_order(ctx: &Ctx) {
    let _monitor = lock_ordered(&ctx.monitor, RANK_MONITOR, "monitor");
    let _video = lock_ordered(&ctx.video, RANK_VIDEO, "video");
}

pub fn drop_releases(ctx: &Ctx) {
    let video = lock_ordered(&ctx.video, RANK_VIDEO, "video");
    drop(video);
    let _monitor = lock_ordered(&ctx.monitor, RANK_MONITOR, "monitor");
}

pub fn scope_releases(ctx: &Ctx) {
    {
        let _video = lock_ordered(&ctx.video, RANK_VIDEO, "video");
    }
    let _monitor = lock_ordered(&ctx.monitor, RANK_MONITOR, "monitor");
}

pub fn evaluate(nn: &SpecializedNN, frame: &[f32]) -> usize {
    nn.predict_classes(frame).len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let ctx = Ctx { monitor: 0, video: 0 };
        let _video = lock_ordered(&ctx.video, RANK_VIDEO, "video");
        let _monitor = lock_ordered(&ctx.monitor, RANK_MONITOR, "monitor");
    }
}
