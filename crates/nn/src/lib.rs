//! # blazeit-nn
//!
//! A from-scratch neural-network library plus BlazeIt's *specialized networks*.
//!
//! The paper's specialized NNs are "tiny ResNets" trained in PyTorch to mimic the
//! expensive object detector on a reduced task (counting the objects of a class in a
//! frame, or multi-class counting). PyTorch and GPUs are not available here, so this
//! crate implements the minimum viable deep-learning stack needed to *actually train*
//! such models on the synthetic frames:
//!
//! * [`tensor`] — a small dense matrix type and the three product kernels (`A·B`,
//!   `Aᵀ·B`, `A·Bᵀ`) under scoring and training, with the crate's numerics contract:
//!   one correctly rounded `mul_add` per term over ascending `k`, so results are
//!   bit-identical across kernels, batch sizes and instruction sets (the portable
//!   build, which has no FMA instruction, pays for that in speed, not in bits).
//! * [`layers`] — fully-connected layers with ReLU activations.
//! * [`network`] — a sequential network with *grouped softmax heads* (one softmax per
//!   queried object class, the "single NN that detects each object class separately" of
//!   Section 7.1): scratch-buffer batched inference, and one allocation-free SGD step
//!   ([`Network::train_step`]) working inside a [`network::TrainScratch`].
//! * [`loss`] — grouped softmax cross-entropy, its gradient written in place.
//! * [`optimizer`] — SGD with momentum (the paper trains with momentum 0.9), one fused
//!   in-place pass per parameter tensor; the state lives in the training scratch, so a
//!   trained network is weights only.
//! * [`train`] — the mini-batch training loop over one flat feature matrix and flat
//!   labels.
//! * [`features`] — frame featurization (downsampled pixels + channel statistics),
//!   standing in for the 65x65 CNN input.
//! * [`score`] — the flat [`ScoreMatrix`] holding per-frame,
//!   per-head probabilities: the output of batched scoring and the reusable
//!   per-video score index.
//! * [`parallel`] — the persistent worker pool: chunk parallelism for batched
//!   featurization and scoped task fan-out for cross-video query execution
//!   (rayon is unavailable in this build environment).
//! * [`persist`] — the versioned, checksummed binary format for durable index
//!   artifacts: score matrices and trained specialized networks, decoded
//!   bit-identically and rejected (typed errors, no panics) when corrupt.
//! * [`specialized`] — the [`SpecializedNN`] abstraction:
//!   count / multi-class / binary heads, training on the scoring stack (pool-parallel
//!   featurization straight into a flat matrix, then [`Trainer::fit`]), batched scoring
//!   ([`score_batch`](specialized::SpecializedNN::score_batch) /
//!   [`score_video`](specialized::SpecializedNN::score_video)), bootstrap error
//!   estimation on a held-out day, and no-false-negative threshold calibration, with
//!   simulated-time accounting.
//!
//! The point of training real (small) models instead of hard-coding a correlated
//! signal: control variates (Section 6.3) and importance sampling (Section 7) rely on
//! the specialized model being *imperfectly* correlated with the detector. Learned
//! models on rendered frames produce that imperfection organically.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod features;
pub mod layers;
pub mod loss;
pub mod network;
pub mod optimizer;
pub mod parallel;
pub mod persist;
pub mod score;
pub mod specialized;
pub mod tensor;
pub mod train;

pub use features::{FeatureConfig, FrameFeaturizer};
pub use network::{ForwardScratch, Network, NetworkConfig};
pub use persist::PersistError;
pub use score::ScoreMatrix;
pub use specialized::{SpecializedConfig, SpecializedHead, SpecializedNN, TrainingReport};
pub use tensor::Matrix;
pub use train::{TrainConfig, Trainer};

/// Errors produced by the NN substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// Matrix dimensions do not match for the requested operation.
    ShapeMismatch {
        /// Description of the mismatch.
        context: String,
    },
    /// The training set is empty or labels are inconsistent with the configuration.
    InvalidTrainingData(String),
    /// A configuration value is invalid.
    InvalidConfig(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            NnError::InvalidTrainingData(msg) => write!(f, "invalid training data: {msg}"),
            NnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;
