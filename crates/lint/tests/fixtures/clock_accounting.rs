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
