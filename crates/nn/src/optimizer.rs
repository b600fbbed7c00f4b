//! SGD with momentum.
//!
//! The paper trains its specialized networks with SGD and momentum 0.9 (Section 9).

use crate::tensor::Matrix;
use crate::{NnError, Result};
use serde::{Deserialize, Serialize};

/// Configuration for the SGD optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient (0.9 in the paper).
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { learning_rate: 0.05, momentum: 0.9, weight_decay: 1e-4 }
    }
}

/// SGD-with-momentum state for one parameter tensor.
///
/// Lives in the training loop's scratch, not on the network: a trained
/// [`Network`](crate::network::Network) is weights only.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdState {
    velocity: Matrix,
    config: SgdConfig,
}

impl SgdState {
    /// Creates zero-velocity optimizer state for a parameter of the given shape.
    pub fn new(rows: usize, cols: usize, config: SgdConfig) -> SgdState {
        SgdState { velocity: Matrix::zeros(rows, cols), config }
    }

    /// Applies one update step in place, with the gradient scaled by `grad_scale`
    /// (the global-norm clip): `v = momentum*v - lr*(grad*grad_scale + wd*param);
    /// param += v`. One fused pass, each element's operations separate multiplies
    /// and adds in exactly that order (see the numerics contract in
    /// [`tensor`](crate::tensor)).
    pub fn step(&mut self, param: &mut Matrix, grad: &Matrix, grad_scale: f32) -> Result<()> {
        let shape = (param.rows(), param.cols());
        if (grad.rows(), grad.cols()) != shape
            || (self.velocity.rows(), self.velocity.cols()) != shape
        {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "sgd step: parameter {}x{}, gradient {}x{}, velocity {}x{}",
                    param.rows(),
                    param.cols(),
                    grad.rows(),
                    grad.cols(),
                    self.velocity.rows(),
                    self.velocity.cols()
                ),
            });
        }
        let SgdConfig { learning_rate, momentum, weight_decay } = self.config;
        for ((p, &g), v) in
            param.data_mut().iter_mut().zip(grad.data()).zip(self.velocity.data_mut())
        {
            let effective = g * grad_scale + *p * weight_decay;
            *v = *v * momentum - effective * learning_rate;
            *p += *v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_moves_against_gradient() {
        let mut param = Matrix::from_vec(1, 2, vec![1.0, -1.0]).unwrap();
        let grad = Matrix::from_vec(1, 2, vec![1.0, -1.0]).unwrap();
        let mut state =
            SgdState::new(1, 2, SgdConfig { learning_rate: 0.1, momentum: 0.0, weight_decay: 0.0 });
        state.step(&mut param, &grad, 1.0).unwrap();
        assert!(param.get(0, 0) < 1.0);
        assert!(param.get(0, 1) > -1.0);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut p_no_momentum = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
        let mut p_momentum = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
        let grad = Matrix::from_vec(1, 1, vec![1.0]).unwrap();
        let mut plain =
            SgdState::new(1, 1, SgdConfig { learning_rate: 0.1, momentum: 0.0, weight_decay: 0.0 });
        let mut with_mom =
            SgdState::new(1, 1, SgdConfig { learning_rate: 0.1, momentum: 0.9, weight_decay: 0.0 });
        for _ in 0..5 {
            plain.step(&mut p_no_momentum, &grad, 1.0).unwrap();
            with_mom.step(&mut p_momentum, &grad, 1.0).unwrap();
        }
        // With momentum the parameter has moved further in the same number of steps.
        assert!(p_momentum.get(0, 0) < p_no_momentum.get(0, 0));
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut param = Matrix::from_vec(1, 1, vec![10.0]).unwrap();
        let zero_grad = Matrix::zeros(1, 1);
        let mut state =
            SgdState::new(1, 1, SgdConfig { learning_rate: 0.1, momentum: 0.0, weight_decay: 0.5 });
        for _ in 0..10 {
            state.step(&mut param, &zero_grad, 1.0).unwrap();
        }
        assert!(param.get(0, 0) < 10.0);
        assert!(param.get(0, 0) > 0.0);
    }

    #[test]
    fn quadratic_convergence() {
        // Minimize f(x) = (x - 3)^2 with gradient 2(x - 3).
        let mut x = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
        let mut state = SgdState::new(
            1,
            1,
            SgdConfig { learning_rate: 0.05, momentum: 0.9, weight_decay: 0.0 },
        );
        for _ in 0..200 {
            let grad = Matrix::from_vec(1, 1, vec![2.0 * (x.get(0, 0) - 3.0)]).unwrap();
            state.step(&mut x, &grad, 1.0).unwrap();
        }
        assert!((x.get(0, 0) - 3.0).abs() < 1e-2, "converged to {}", x.get(0, 0));
    }
}
