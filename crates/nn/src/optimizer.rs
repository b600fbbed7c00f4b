//! SGD with momentum.
//!
//! The paper trains its specialized networks with SGD and momentum 0.9 (Section 9).

use crate::tensor::{at_host_width, Matrix};
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
    /// [`tensor`](crate::tensor)), in the widest lanes the host has.
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
        let (param, velocity) = (param.data_mut(), self.velocity.data_mut());
        let config = self.config;
        at_host_width(
            #[inline(always)]
            || update(param, grad.data(), velocity, grad_scale, config),
        );
        Ok(())
    }
}

/// The update loop, over equal-length slices.
#[inline(always)]
fn update(
    param: &mut [f32],
    grad: &[f32],
    velocity: &mut [f32],
    grad_scale: f32,
    config: SgdConfig,
) {
    let SgdConfig { learning_rate, momentum, weight_decay } = config;
    for ((p, &g), v) in param.iter_mut().zip(grad).zip(velocity) {
        let effective = g * grad_scale + *p * weight_decay;
        *v = *v * momentum - effective * learning_rate;
        *p += *v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::for_each_instantiation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The update loop's portable, AVX2 and AVX-512 instantiations, each where
    /// the host has it, against a scalar indexed loop, bit for bit over three
    /// momentum steps: lengths short of and across every lane width, and the
    /// production layer-0 weights (611×48) and bias (48); clip idle and fired.
    #[test]
    fn update_instantiations_match_the_scalar_update_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(23);
        let configs = [
            SgdConfig::default(),
            SgdConfig { learning_rate: 0.3, momentum: 0.5, weight_decay: 0.01 },
        ];
        let mut cases = Vec::new();
        for len in [0, 1, 3, 7, 8, 15, 16, 17, 33, 48, 611 * 48] {
            for (config, grad_scale) in configs.into_iter().zip([1.0f32, 0.37]) {
                let init: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let grads: Vec<Vec<f32>> =
                    (0..3).map(|_| (0..len).map(|_| rng.gen_range(-3.0..3.0)).collect()).collect();
                let (mut param, mut velocity) = (init.clone(), vec![0.0f32; len]);
                for grad in &grads {
                    for i in 0..len {
                        let effective = grad[i] * grad_scale + param[i] * config.weight_decay;
                        velocity[i] =
                            velocity[i] * config.momentum - effective * config.learning_rate;
                        param[i] += velocity[i];
                    }
                }
                cases.push((config, grad_scale, init, grads, bits(&param), bits(&velocity)));
            }
        }

        for_each_instantiation("sgd update", |lanes| {
            for (config, grad_scale, init, grads, param_bits, velocity_bits) in &cases {
                let (config, grad_scale, len) = (*config, *grad_scale, init.len());
                let (mut param, mut velocity) = (init.clone(), vec![0.0f32; len]);
                for grad in grads {
                    let (p, v) = (&mut param[..], &mut velocity[..]);
                    // SAFETY: `for_each_instantiation` only passes detected lanes.
                    unsafe {
                        lanes.run(
                            #[inline(always)]
                            || update(p, grad, v, grad_scale, config),
                        )
                    };
                }
                assert_eq!(&bits(&param), param_bits, "{lanes:?} params, len {len}");
                assert_eq!(&bits(&velocity), velocity_bits, "{lanes:?} velocity, len {len}");
            }
        });
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

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
