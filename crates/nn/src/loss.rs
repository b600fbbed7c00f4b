//! The loss: grouped softmax cross-entropy.
//!
//! BlazeIt's specialized networks are classifiers: a counting network has one softmax
//! over `0..=K` counts, and the multi-class scrubbing network has one softmax *per
//! queried class* ("the specialized NN would return a separate confidence for 'car' and
//! 'bus'", Section 7.1). The grouped cross-entropy below treats the network's output
//! vector as a concatenation of independent softmax heads.

use crate::layers::softmax_segments_into;
use crate::tensor::Matrix;
use crate::{NnError, Result};

/// Description of the output heads: each entry is the number of classes of one head.
///
/// A plain count network has `vec![k + 1]`; a bus+car scrubbing network has
/// `vec![k_bus + 1, k_car + 1]`.
pub type HeadLayout = Vec<usize>;

/// Computes the grouped softmax cross-entropy loss, writing its gradient with respect
/// to the logits into `d_logits` (resized as needed, so a training loop reuses one
/// buffer).
///
/// * `logits` — `batch x sum(heads)` raw network outputs.
/// * `labels` — flat `batch x num_heads` integer class labels: `labels[r * num_heads + h]`
///   is the target class of head `h` for example `r`.
///
/// Returns the mean loss; the gradient is already averaged over the batch. Each head's
/// probabilities come from [`softmax_segments_into`] — the same max-shift / exponentiate
/// / normalize sequence as [`softmax_rows`](crate::layers::softmax_rows).
pub fn grouped_cross_entropy(
    logits: &Matrix,
    labels: &[usize],
    heads: &[usize],
    d_logits: &mut Matrix,
) -> Result<f32> {
    let total: usize = heads.iter().sum();
    if logits.cols() != total {
        return Err(NnError::ShapeMismatch {
            context: format!("logits have {} cols but heads sum to {}", logits.cols(), total),
        });
    }
    if labels.len() != logits.rows() * heads.len() {
        return Err(NnError::InvalidTrainingData(format!(
            "{} labels for {} logit rows of {} heads",
            labels.len(),
            logits.rows(),
            heads.len()
        )));
    }
    let batch = logits.rows().max(1);
    d_logits.reset_zeroed(logits.rows(), total);
    let mut loss = 0.0f64;

    let rows = logits.data().chunks_exact(total.max(1));
    let d_rows = d_logits.data_mut().chunks_exact_mut(total.max(1));
    for ((row, d_row), label_row) in rows.zip(d_rows).zip(labels.chunks_exact(heads.len().max(1))) {
        softmax_segments_into(row, heads, d_row);
        let mut segments = d_row;
        for ((h, &head_size), &label) in heads.iter().enumerate().zip(label_row) {
            if label >= head_size {
                return Err(NnError::InvalidTrainingData(format!(
                    "label {label} out of range for head {h} of size {head_size}"
                )));
            }
            let (probs, rest) = segments.split_at_mut(head_size);
            segments = rest;
            #[expect(
                clippy::indexing_slicing,
                reason = "label < head_size == probs.len() was checked directly above"
            )]
            let p_label = probs[label].max(1e-12);
            loss -= f64::from(p_label.ln());
            for (c, p) in probs.iter_mut().enumerate() {
                let indicator = if c == label { 1.0 } else { 0.0 };
                *p = (*p - indicator) / batch as f32;
            }
        }
    }

    Ok((loss / (batch as f64 * heads.len().max(1) as f64)) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss_and_grad(logits: &Matrix, labels: &[usize], heads: &[usize]) -> Result<(f32, Matrix)> {
        let mut grad = Matrix::zeros(0, 0);
        let loss = grouped_cross_entropy(logits, labels, heads, &mut grad)?;
        Ok((loss, grad))
    }

    #[test]
    fn cross_entropy_perfect_prediction_has_low_loss() {
        // Logits strongly favoring the correct class.
        let logits = Matrix::from_vec(2, 3, vec![10.0, -10.0, -10.0, -10.0, 10.0, -10.0]).unwrap();
        let (loss, grad) = loss_and_grad(&logits, &[0, 1], &[3]).unwrap();
        assert!(loss < 1e-3);
        assert!(grad.norm() < 1e-3);
    }

    #[test]
    fn cross_entropy_wrong_prediction_has_high_loss() {
        let logits = Matrix::from_vec(1, 2, vec![10.0, -10.0]).unwrap();
        let (loss, grad) = loss_and_grad(&logits, &[1], &[2]).unwrap();
        assert!(loss > 5.0);
        // Gradient pushes logit 0 down and logit 1 up.
        assert!(grad.get(0, 0) > 0.0);
        assert!(grad.get(0, 1) < 0.0);
    }

    #[test]
    fn grouped_heads_are_independent() {
        // Two heads of size 2; first head correct, second head wrong.
        let logits = Matrix::from_vec(1, 4, vec![10.0, -10.0, 10.0, -10.0]).unwrap();
        let (loss, grad) = loss_and_grad(&logits, &[0, 1], &[2, 2]).unwrap();
        assert!(loss > 2.0);
        // First head's gradient is near zero, second head's is not.
        assert!(grad.get(0, 0).abs() < 1e-3);
        assert!(grad.get(0, 2) > 0.1);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.5]).unwrap();
        let labels = [2];
        let heads = [3usize];
        let (_, grad) = loss_and_grad(&logits, &labels, &heads).unwrap();
        let eps = 1e-3f32;
        for c in 0..3 {
            let mut up = logits.clone();
            up.set(0, c, logits.get(0, c) + eps);
            let mut down = logits.clone();
            down.set(0, c, logits.get(0, c) - eps);
            let (lu, _) = loss_and_grad(&up, &labels, &heads).unwrap();
            let (ld, _) = loss_and_grad(&down, &labels, &heads).unwrap();
            let numeric = (lu - ld) / (2.0 * eps);
            assert!(
                (numeric - grad.get(0, c)).abs() < 1e-2,
                "col {c}: numeric {numeric} vs analytic {}",
                grad.get(0, c)
            );
        }
    }

    #[test]
    fn invalid_labels_rejected() {
        let logits = Matrix::zeros(1, 3);
        assert!(loss_and_grad(&logits, &[5], &[3]).is_err());
        assert!(loss_and_grad(&logits, &[0, 0], &[3]).is_err());
        assert!(loss_and_grad(&logits, &[0], &[2]).is_err());
    }
}
