//! Seeded `clock-accounting` violations: `predict_classes` (uncharged argmax
//! scoring) called from a function that is not an allowlisted charged
//! wrapper — `evaluate` below makes the same call legally — and `train_step`
//! (the uncharged SGD step) called from outside `fit`, the loop whose one
//! caller charges every example-visit. Never compiled — analyzed by
//! `crates/lint/tests/lint.rs` and the CI canary.

pub fn sneaky_scoring(nn: &SpecializedNN, frame: &[f32]) -> usize {
    nn.predict_classes(frame).len()
}

pub fn evaluate(nn: &SpecializedNN, frame: &[f32]) -> usize {
    nn.predict_classes(frame).len()
}

pub fn free_fine_tuning(net: &mut Network, x: &Matrix, y: &[usize], s: &mut TrainScratch) -> f32 {
    net.train_step(x, y, s).unwrap_or(f32::NAN)
}

pub fn fit(net: &mut Network, x: &Matrix, y: &[usize], s: &mut TrainScratch) -> f32 {
    net.train_step(x, y, s).unwrap_or(f32::NAN)
}

// `Video::frame` (a full-frame render) called from outside `render_full_frame`,
// the counting helper whose callers charge the decode; the helper below makes
// the same call legally.
pub fn free_peek(video: &Video, frame: FrameIndex) -> f32 {
    video.frame(frame).map(|pixels| pixels.redness()).unwrap_or(0.0)
}

fn render_full_frame(video: &Video, frame: FrameIndex, rendered: &Cell<u64>) -> Option<Frame> {
    rendered.set(rendered.get() + 1);
    video.frame(frame).ok()
}
