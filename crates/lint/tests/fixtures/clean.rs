//! Clean fixture: near-miss patterns that must NOT be flagged by any check.
//! Never compiled — analyzed by `crates/lint/tests/lint.rs` and the CI
//! canary (this file contributes zero diagnostics).

pub fn evaluate(nn: &SpecializedNN, frame: &[f32]) -> usize {
    nn.predict_classes(frame).len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let nn = SpecializedNN::default();
        assert_eq!(nn.predict_classes(&[0.0]).len(), 1);
    }
}
