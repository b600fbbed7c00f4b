//! Fully-connected layers and activations.

use crate::tensor::Matrix;
use crate::Result;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A fully-connected (dense) layer: `y = x W + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `input_dim x output_dim`.
    pub weights: Matrix,
    /// Bias row vector, `1 x output_dim`.
    pub bias: Matrix,
    /// Whether a ReLU is applied after the affine transform.
    pub relu: bool,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights.
    pub fn new(input_dim: usize, output_dim: usize, relu: bool, rng: &mut StdRng) -> Dense {
        Dense {
            weights: Matrix::xavier(input_dim, output_dim, rng),
            bias: Matrix::zeros(1, output_dim),
            relu,
        }
    }

    /// Reassembles a layer from its parameters (the persistence path). The shapes
    /// must agree: `bias` is a `1 x output_dim` row matching `weights`' columns.
    pub fn from_parts(weights: Matrix, bias: Matrix, relu: bool) -> Result<Dense> {
        if bias.rows() != 1 || bias.cols() != weights.cols() {
            return Err(crate::NnError::ShapeMismatch {
                context: format!(
                    "dense bias {}x{} does not match weights {}x{}",
                    bias.rows(),
                    bias.cols(),
                    weights.rows(),
                    weights.cols()
                ),
            });
        }
        Ok(Dense { weights, bias, relu })
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.cols()
    }

    /// Forward pass into a freshly allocated output (tests; see [`Dense::forward_into`]).
    pub fn forward_inference(&self, input: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(input, &mut out)?;
        Ok(out)
    }

    /// Forward pass writing into a caller-provided output matrix.
    ///
    /// The kernel under batched inference and the training step alike: `out`'s
    /// storage is reused across calls, so a steady-state forward pass performs no
    /// allocation and no per-layer clones. Nothing is cached on the layer; the
    /// training step keeps each layer's output in its own scratch and recovers
    /// the ReLU mask from it (`output > 0` iff the pre-activation was).
    pub fn forward_into(&self, input: &Matrix, out: &mut Matrix) -> Result<()> {
        input.matmul_into(&self.weights, out)?;
        out.add_row_broadcast_in_place(&self.bias)?;
        if self.relu {
            out.relu_in_place();
        }
        Ok(())
    }
}

/// Softmax over consecutive segments of one logits row, written into `out`.
///
/// `heads` gives the width of each segment (the grouped-softmax head layout);
/// `logits` and `out` must both be exactly `heads.iter().sum()` long. Each
/// segment is normalized with the same numerically stable max-shift sequence as
/// [`softmax_rows`], so batched scoring produces bit-identical probabilities to
/// the row-at-a-time path.
pub fn softmax_segments_into(logits: &[f32], heads: &[usize], out: &mut [f32]) {
    let mut offset = 0usize;
    for &size in heads {
        // blazeit-lint: allow(panic-site::index) -- documented contract: logits and out are exactly
        // heads.iter().sum() long, and offset + size never exceeds that sum
        let seg = &logits[offset..offset + size];
        // blazeit-lint: allow(panic-site::index) -- documented contract: logits and out are exactly
        // heads.iter().sum() long, and offset + size never exceeds that sum
        let dst = &mut out[offset..offset + size];
        let seg_max = seg.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (d, &x) in dst.iter_mut().zip(seg) {
            let e = (x - seg_max).exp();
            *d = e;
            sum += e;
        }
        if sum > 0.0 {
            for d in dst.iter_mut() {
                *d /= sum;
            }
        }
        offset += size;
    }
}

/// Numerically stable softmax over each row of `logits`.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    let cols = logits.cols();
    for r in 0..logits.rows() {
        let row_max = logits.row(r).iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for c in 0..cols {
            let e = (logits.get(r, c) - row_max).exp();
            out.set(r, c, e);
            sum += e;
        }
        if sum > 0.0 {
            for c in 0..cols {
                out.set(r, c, out.get(r, c) / sum);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(4, 3, true, &mut rng);
        let x = Matrix::zeros(5, 4);
        let y = layer.forward_inference(&x).unwrap();
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 3);
        assert_eq!(layer.num_params(), 4 * 3 + 3);
    }

    #[test]
    fn relu_clamps_negative_outputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, true, &mut rng);
        layer.weights = Matrix::from_vec(2, 2, vec![-1.0, 1.0, -1.0, 1.0]).unwrap();
        let x = Matrix::row_from_slice(&[1.0, 1.0]);
        let y = layer.forward_inference(&x).unwrap();
        assert_eq!(y.get(0, 0), 0.0);
        assert_eq!(y.get(0, 1), 2.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 100.0]).unwrap();
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(p.get(0, 2) > p.get(0, 1));
        assert!(p.get(1, 2) > 0.99);
    }
}
