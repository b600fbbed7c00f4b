//! Mini-batch training loop.
//!
//! The paper trains specialized NNs with SGD + momentum, batch size 16, for one epoch
//! over ~150,000 frames (Section 6.2 / 9). The [`Trainer`] reproduces that procedure
//! (epochs and batch size are configurable) and reports what it did so the engine can
//! charge the simulated training cost.
//!
//! Training runs on the scoring stack: the training set is one flat feature
//! [`Matrix`] with flat labels, each shuffled mini-batch is gathered into one reused
//! matrix, and [`Network::train_step`] works entirely inside a [`TrainScratch`] that
//! [`Trainer::fit`] owns — activations, gradients and the SGD velocities — so a
//! steady-state step allocates nothing and the network keeps no optimizer state.

use crate::network::{Network, TrainScratch};
use crate::optimizer::SgdConfig;
use crate::tensor::Matrix;
use crate::{NnError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training data (1 in the paper).
    pub epochs: usize,
    /// Mini-batch size (16 in the paper).
    pub batch_size: usize,
    /// Optimizer settings.
    pub sgd: SgdConfig,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 1, batch_size: 16, sgd: SgdConfig::default(), seed: 0 }
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainOutcome {
    /// Number of examples in the training set.
    pub num_examples: usize,
    /// Total number of example-visits (examples x epochs), which drives the simulated
    /// training cost.
    pub examples_processed: usize,
    /// Mean loss of the final epoch.
    pub final_loss: f32,
    /// Mean loss of the first epoch (for convergence checks).
    pub first_epoch_loss: f32,
}

/// Drives mini-batch training of a [`Network`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> TrainConfig {
        self.config
    }

    /// Trains `network` on the rows of `features`; `labels[r * num_heads + h]` is the
    /// target class of head `h` for row `r`.
    ///
    /// Every call starts from zero momentum with this trainer's [`SgdConfig`]: the
    /// optimizer state lives and dies with the call. Charges no simulated time —
    /// [`SpecializedNN::train`](crate::specialized::SpecializedNN::train), the one
    /// production caller, charges `examples_processed` example-visits.
    pub fn fit(
        &self,
        network: &mut Network,
        features: &Matrix,
        labels: &[usize],
    ) -> Result<TrainOutcome> {
        let num_examples = features.rows();
        let heads = network.config().heads.len();
        if num_examples == 0 {
            return Err(NnError::InvalidTrainingData("empty training set".into()));
        }
        if labels.len() != num_examples * heads {
            return Err(NnError::InvalidTrainingData(format!(
                "{num_examples} feature rows vs {} labels for {heads} heads",
                labels.len()
            )));
        }
        if self.config.batch_size == 0 || self.config.epochs == 0 {
            return Err(NnError::InvalidConfig("batch_size and epochs must be positive".into()));
        }

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..num_examples).collect();
        let mut scratch = TrainScratch::new(network, self.config.sgd);
        let mut batch = Matrix::zeros(0, 0);
        let mut batch_labels = Vec::new();
        let mut first_epoch_loss = 0.0f32;
        let mut final_loss = 0.0f32;

        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                batch.reset_zeroed(chunk.len(), features.cols());
                batch_labels.clear();
                for (dst, &i) in
                    batch.data_mut().chunks_exact_mut(features.cols().max(1)).zip(chunk)
                {
                    dst.copy_from_slice(features.row(i));
                    // blazeit-lint: allow(panic-site::index) -- order is a permutation of
                    // 0..num_examples and labels.len() == num_examples * heads (checked above)
                    batch_labels.extend_from_slice(&labels[i * heads..(i + 1) * heads]);
                }
                let loss = network.train_step(&batch, &batch_labels, &mut scratch)?;
                epoch_loss += f64::from(loss);
                batches += 1;
            }
            let mean = (epoch_loss / batches.max(1) as f64) as f32;
            if epoch == 0 {
                first_epoch_loss = mean;
            }
            final_loss = mean;
        }

        Ok(TrainOutcome {
            num_examples,
            examples_processed: num_examples * self.config.epochs,
            final_loss,
            first_epoch_loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use rand::Rng;

    fn make_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let label: usize = rng.gen_range(0..3);
            let base = label as f32;
            xs.extend([base + rng.gen_range(-0.2..0.2), -base + rng.gen_range(-0.2..0.2)]);
            ys.push(label);
        }
        (Matrix::from_vec(n, 2, xs).unwrap(), ys)
    }

    fn network() -> Network {
        Network::new(NetworkConfig { input_dim: 2, hidden: vec![16], heads: vec![3], seed: 2 })
            .unwrap()
    }

    #[test]
    fn fit_learns_three_way_classification() {
        let (xs, ys) = make_data(600, 5);
        let mut net = network();
        let trainer = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::default() });
        let outcome = trainer.fit(&mut net, &xs, &ys).unwrap();
        assert_eq!(outcome.num_examples, 600);
        assert_eq!(outcome.examples_processed, 3000);
        assert!(outcome.final_loss < outcome.first_epoch_loss);
        assert!(net.accuracy(&xs, &ys).unwrap() > 0.9);
    }

    #[test]
    fn fit_rejects_invalid_inputs() {
        let mut net = network();
        let trainer = Trainer::new(TrainConfig::default());
        let one_row = Matrix::zeros(1, 2);
        assert!(trainer.fit(&mut net, &Matrix::zeros(0, 2), &[]).is_err());
        assert!(trainer.fit(&mut net, &one_row, &[0, 1]).is_err());
        let bad_cfg = Trainer::new(TrainConfig { batch_size: 0, ..TrainConfig::default() });
        assert!(bad_cfg.fit(&mut net, &one_row, &[0]).is_err());
    }

    #[test]
    fn single_epoch_matches_paper_defaults() {
        let cfg = TrainConfig::default();
        assert_eq!(cfg.epochs, 1);
        assert_eq!(cfg.batch_size, 16);
        assert!((cfg.sgd.momentum - 0.9).abs() < 1e-6);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (xs, ys) = make_data(100, 8);
        let trainer = Trainer::new(TrainConfig { epochs: 2, ..TrainConfig::default() });
        let mut a = network();
        let mut b = network();
        trainer.fit(&mut a, &xs, &ys).unwrap();
        trainer.fit(&mut b, &xs, &ys).unwrap();
        assert_eq!(a.logits(&xs).unwrap(), b.logits(&xs).unwrap());
    }

    /// The optimizer state belongs to the call, not the network: refitting a
    /// network continues from its weights but from zero momentum and with the
    /// second trainer's own SGD settings, exactly as a copy that never saw the
    /// first call's state does.
    #[test]
    fn every_fit_starts_from_zero_velocity_with_its_own_config() {
        let (xs, ys) = make_data(100, 8);
        let first = Trainer::new(TrainConfig::default());
        let second = Trainer::new(TrainConfig {
            sgd: SgdConfig { learning_rate: 0.01, momentum: 0.5, weight_decay: 0.0 },
            seed: 1,
            ..TrainConfig::default()
        });
        let mut refit = network();
        first.fit(&mut refit, &xs, &ys).unwrap();
        // Through serialization-shaped reassembly: weights only, by construction.
        let mut fresh =
            Network::from_parts(refit.config().clone(), refit.layers().to_vec()).unwrap();
        second.fit(&mut refit, &xs, &ys).unwrap();
        second.fit(&mut fresh, &xs, &ys).unwrap();
        assert_eq!(refit.logits(&xs).unwrap(), fresh.logits(&xs).unwrap());
    }
}
