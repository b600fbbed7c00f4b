//! Specialized networks: the core primitive of BlazeIt.
//!
//! A specialized NN is a small model trained to mimic the expensive object detector on
//! a *reduced* task (Section 3): counting the objects of one class per frame, counting
//! several classes at once (one softmax head per class, Section 7.1), or binary
//! presence (the NoScope task, which is just "count >= 1"). Because the task is so much
//! simpler than detection, inference runs orders of magnitude faster (~10,000 fps vs
//! ~3 fps), which is the entire source of BlazeIt's speedups.
//!
//! This module provides:
//!
//! * [`SpecializedNN::train`] — featurize the labeled frames in parallel straight into
//!   one flat feature matrix, standardize it in place, and train the network with SGD +
//!   momentum through [`Trainer::fit`] on the same flat matrices and kernels scoring
//!   uses, charging simulated training time per example-visit.
//! * [`SpecializedNN::score_batch`] / [`SpecializedNN::score_video`] — the batched
//!   scoring pipeline: frames are featurized in parallel chunks, stacked into one
//!   feature matrix per batch, pushed through a single scratch-buffer forward pass,
//!   and written into a flat [`ScoreMatrix`]. Simulated inference time is charged
//!   once per batch, per frame scored. This is the only scoring path: it renders just
//!   the sampled grid pixels, never a full frame (a `#[cfg(test)]` serial full-frame
//!   `score_frame` is the reference its scores must match element-wise).
//! * [`SpecializedNN::estimate_fcount_error_from_scores`] — the bootstrap error
//!   estimate on the held-out day used by Algorithm 1 to decide whether query
//!   rewriting is safe.
//! * [`SpecializedNN::presence_threshold_from_scores`] — the no-false-negative
//!   threshold selection used by the label-based selection filter (Section 8).

use crate::features::{FeatureConfig, FrameFeaturizer, Standardizer};
use crate::network::{ForwardScratch, Network, NetworkConfig};
use crate::parallel::par_fill_chunks;
use crate::score::ScoreMatrix;
use crate::tensor::Matrix;
use crate::train::{TrainConfig, Trainer};
use crate::{NnError, Result};
use blazeit_detect::clock::CostCategory;
use blazeit_detect::{CostProfile, CountVector, SimClock};
use blazeit_videostore::{FrameIndex, ObjectClass, Video};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One output head of a specialized network: counts of one object class, capped at
/// `max_count` (so the head is a softmax over `0..=max_count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecializedHead {
    /// The object class this head counts.
    pub class: ObjectClass,
    /// The largest count the head distinguishes; larger true counts are clamped.
    pub max_count: usize,
}

impl SpecializedHead {
    /// Chooses `max_count` as the paper prescribes (Section 6.2): the highest count
    /// that occurs in at least `min_fraction` of the labeled frames.
    pub fn from_counts<I>(class: ObjectClass, counts: I, min_fraction: f64) -> SpecializedHead
    where
        I: IntoIterator<Item = usize>,
    {
        // Single pass: histogram the counts, then walk the suffix sum downward.
        // `running` after processing bucket k is the number of frames with count
        // >= k, so the first k (from the top) whose suffix fraction clears the
        // threshold is the answer — O(n + max_count) instead of O(n·max_count).
        let mut histogram: Vec<usize> = Vec::new();
        let mut n = 0usize;
        for count in counts {
            if count >= histogram.len() {
                histogram.resize(count + 1, 0);
            }
            // blazeit-lint: allow(panic-site::index) -- the resize directly above guarantees
            // histogram.len() > count
            histogram[count] += 1;
            n += 1;
        }
        let n = n.max(1) as f64;
        let mut max_count = 1usize;
        let mut running = 0usize;
        for k in (1..histogram.len()).rev() {
            // blazeit-lint: allow(panic-site::index) -- k ranges over 1..histogram.len()
            running += histogram[k];
            if running as f64 / n >= min_fraction {
                max_count = k;
                break;
            }
        }
        SpecializedHead { class, max_count: max_count.max(1) }
    }

    /// Number of classes of this head's softmax (`max_count + 1`).
    pub fn head_size(&self) -> usize {
        self.max_count + 1
    }
}

/// Configuration of a specialized network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecializedConfig {
    /// Output heads (one per queried object class).
    pub heads: Vec<SpecializedHead>,
    /// Frame featurization settings.
    pub features: FeatureConfig,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Training-loop settings.
    pub train: TrainConfig,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Simulated throughput profile (inference / training cost).
    pub cost: CostProfile,
}

impl SpecializedConfig {
    /// A sensible default configuration for the given heads.
    pub fn for_heads(heads: Vec<SpecializedHead>) -> SpecializedConfig {
        SpecializedConfig {
            heads,
            features: FeatureConfig::default(),
            hidden: vec![32],
            train: TrainConfig::default(),
            seed: 7,
            cost: CostProfile::default(),
        }
    }

    /// The training targets in [`Trainer::fit`]'s flat layout: entry
    /// `i * heads.len() + h` is example `i`'s count of head `h`'s class, clamped to
    /// the head's `max_count`.
    fn flat_labels(&self, labels: &[CountVector]) -> Vec<usize> {
        labels
            .iter()
            .flat_map(|counts| self.heads.iter().map(|h| counts.get(h.class).min(h.max_count)))
            .collect()
    }

    pub(crate) fn network_config(&self) -> NetworkConfig {
        NetworkConfig {
            input_dim: self.features.dim(),
            hidden: self.hidden.clone(),
            heads: self.heads.iter().map(|h| h.head_size()).collect(),
            seed: self.seed,
        }
    }
}

/// Summary of training a specialized network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Number of labeled frames used.
    pub num_examples: usize,
    /// Simulated seconds charged for training (featurization + SGD).
    pub training_cost_secs: f64,
    /// Final-epoch mean loss.
    pub final_loss: f32,
}

/// The bootstrap error estimate of a specialized network's frame-averaged count
/// (FCOUNT) on a held-out day, used by Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FcountErrorEstimate {
    /// Mean predicted count per frame on the held-out data.
    pub mean_predicted: f64,
    /// Mean true count per frame on the held-out data.
    pub mean_true: f64,
    /// Absolute error of the means.
    pub abs_error: f64,
    /// Mean absolute per-frame error (a stricter diagnostic).
    pub mean_abs_frame_error: f64,
    /// Bootstrap distribution of the absolute error of the mean.
    pub bootstrap_errors: Vec<f64>,
}

impl FcountErrorEstimate {
    /// Estimated probability that the FCOUNT error on unseen data is within `tolerance`.
    pub fn prob_error_within(&self, tolerance: f64) -> f64 {
        if self.bootstrap_errors.is_empty() {
            return if self.abs_error <= tolerance { 1.0 } else { 0.0 };
        }
        let within = self.bootstrap_errors.iter().filter(|&&e| e <= tolerance).count();
        within as f64 / self.bootstrap_errors.len() as f64
    }
}

/// A trained specialized network bound to a simulated clock.
#[derive(Debug, Clone)]
pub struct SpecializedNN {
    config: SpecializedConfig,
    featurizer: FrameFeaturizer,
    standardizer: Standardizer,
    network: Network,
    clock: Arc<SimClock>,
    /// Content fingerprint of (config, standardizer, weights), computed once at
    /// construction — see [`SpecializedNN::weights_fingerprint`].
    fingerprint: u64,
}

impl SpecializedNN {
    /// Trains a specialized network on labeled frames of `video`.
    ///
    /// `frames[i]` is a frame index of the (training-day) video and `labels[i]` the
    /// per-class ground-truth counts for that frame, as produced by running the object
    /// detector over the labeled set.
    pub fn train(
        config: SpecializedConfig,
        video: &Video,
        frames: &[FrameIndex],
        labels: &[CountVector],
        clock: Arc<SimClock>,
    ) -> Result<(SpecializedNN, TrainingReport)> {
        if frames.len() != labels.len() {
            return Err(NnError::InvalidTrainingData(format!(
                "{} frames vs {} labels",
                frames.len(),
                labels.len()
            )));
        }
        if frames.is_empty() {
            return Err(NnError::InvalidTrainingData("no labeled frames".into()));
        }
        if config.heads.is_empty() {
            return Err(NnError::InvalidConfig("at least one head required".into()));
        }

        let mut network = Network::new(config.network_config())?;

        // Featurize straight into one flat matrix, row `i` for `frames[i]`, in
        // parallel chunks on the worker pool — `score_batch`'s kernel, minus the
        // standardizer, which does not exist yet.
        let featurizer = FrameFeaturizer::new(config.features);
        let dim = featurizer.dim();
        let mut features = Matrix::zeros(frames.len(), dim);
        par_fill_chunks(features.data_mut(), dim, |offset, chunk| {
            let first = offset / dim;
            for (i, row) in chunk.chunks_mut(dim).enumerate() {
                // blazeit-lint: allow(panic-site::index) -- par_fill_chunks hands each task a
                // chunk of rows inside the matrix, so first + i < frames.len()
                let frame = frames[first + i];
                featurizer
                    .features_for_video_frame_into(video, frame, row)
                    .map_err(|e| NnError::InvalidTrainingData(e.to_string()))?;
            }
            Ok(())
        })?;
        let ys = config.flat_labels(labels);

        // Standardize features with training-set statistics (the stand-in for the
        // normalization layers of the paper's tiny ResNet); without this the tiny
        // per-object signal is swamped by the common-mode background component.
        let standardizer = Standardizer::fit(&features);
        standardizer.transform_rows_in_place(&mut features);

        let outcome = Trainer::new(config.train).fit(&mut network, &features, &ys)?;

        // Charge simulated training time: one training pass per example-visit, plus
        // decode time for reading the labeled frames (reported separately). This is
        // the only charge training makes, and `fit` has no other production caller.
        let training_cost =
            outcome.examples_processed as f64 * config.cost.training_cost_per_example();
        clock.charge(CostCategory::Training, training_cost);
        clock.charge(CostCategory::Decode, frames.len() as f64 * config.cost.decode_cost());

        let mut nn =
            SpecializedNN { config, featurizer, standardizer, network, clock, fingerprint: 0 };
        nn.fingerprint = crate::persist::specialized_nn_fingerprint(&nn);
        let report = TrainingReport {
            num_examples: frames.len(),
            training_cost_secs: training_cost,
            final_loss: outcome.final_loss,
        };
        Ok((nn, report))
    }

    /// Reassembles a trained network from its parts, binding it to `clock` (the
    /// persistence path: weights and statistics come off disk, the clock is the
    /// deserializing catalog's). The standardizer and network must match the
    /// architecture `config` describes.
    pub fn from_parts(
        config: SpecializedConfig,
        standardizer: Standardizer,
        network: Network,
        clock: Arc<SimClock>,
    ) -> Result<SpecializedNN> {
        if config.heads.is_empty() {
            return Err(NnError::InvalidConfig("at least one head required".into()));
        }
        if standardizer.dim() != config.features.dim() {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "standardizer dim {} vs feature dim {}",
                    standardizer.dim(),
                    config.features.dim()
                ),
            });
        }
        if *network.config() != config.network_config() {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "network config {:?} does not match specialized config's architecture {:?}",
                    network.config(),
                    config.network_config()
                ),
            });
        }
        let featurizer = FrameFeaturizer::new(config.features);
        let mut nn =
            SpecializedNN { config, featurizer, standardizer, network, clock, fingerprint: 0 };
        nn.fingerprint = crate::persist::specialized_nn_fingerprint(&nn);
        Ok(nn)
    }

    /// A stable content fingerprint of this network — the FNV-1a hash of its
    /// full serialized form (configuration, standardizer statistics, every
    /// layer's weights), computed once at construction. Two networks share a
    /// fingerprint iff they are bit-identical, which is what lets score-index
    /// cache keys pin *which weights* produced the scores.
    pub fn weights_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub(crate) fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    pub(crate) fn network(&self) -> &Network {
        &self.network
    }

    /// The configuration used to build this network.
    pub fn config(&self) -> &SpecializedConfig {
        &self.config
    }

    /// The output heads.
    pub fn heads(&self) -> &[SpecializedHead] {
        &self.config.heads
    }

    /// The index of the head for `class`, if present.
    pub fn head_index(&self, class: ObjectClass) -> Option<usize> {
        self.config.heads.iter().position(|h| h.class == class)
    }

    /// The sizes of this network's output heads (`max_count + 1` each).
    pub fn head_sizes(&self) -> Vec<usize> {
        self.config.heads.iter().map(|h| h.head_size()).collect()
    }

    /// Number of frames scored per forward pass by the batch API.
    pub const BATCH_FRAMES: usize = 512;

    /// Scores a set of frames with batched, data-parallel inference.
    ///
    /// Frames are processed in batches of [`SpecializedNN::BATCH_FRAMES`]: each
    /// batch is featurized and standardized in parallel chunks (one contiguous
    /// chunk per available core), stacked into a single feature matrix, pushed
    /// through one scratch-buffer forward pass, and softmaxed into row
    /// `i` of the returned [`ScoreMatrix`] (row `i` corresponds to `frames[i]`).
    ///
    /// Simulated decode and specialized-inference time are charged once per
    /// batch, per frame scored. Scores are element-wise identical to the
    /// test-only serial reference (`score_frame`): the per-frame featurize →
    /// standardize → forward → per-head softmax sequence is unchanged, only its
    /// batching differs.
    pub fn score_batch(&self, video: &Video, frames: &[FrameIndex]) -> Result<ScoreMatrix> {
        let mut scores = ScoreMatrix::zeros(frames.len(), self.head_sizes());
        let dim = self.featurizer.dim();
        let mut features = Matrix::zeros(0, 0);
        let mut scratch = ForwardScratch::default();
        for (batch_index, batch) in frames.chunks(Self::BATCH_FRAMES).enumerate() {
            self.clock
                .charge(CostCategory::Decode, batch.len() as f64 * self.config.cost.decode_cost());
            self.clock.charge(
                CostCategory::SpecializedInference,
                batch.len() as f64 * self.config.cost.specialized_inference_cost(),
            );
            features.reset_zeroed(batch.len(), dim);
            par_fill_chunks(features.data_mut(), dim, |offset, chunk| {
                let first = offset / dim;
                for (i, row) in chunk.chunks_mut(dim).enumerate() {
                    // Sparse-render featurization straight into this frame's row
                    // of the batch feature matrix: only the sampled grid pixels
                    // are rendered, and no per-frame buffers are allocated —
                    // identical features to the full-frame path.
                    // blazeit-lint: allow(panic-site::index) -- par_fill_chunks hands each task a
                    // chunk of rows inside the matrix, so first + i < batch.len()
                    self.featurizer.features_for_video_frame_into(video, batch[first + i], row)?;
                    self.standardizer.transform_in_place(row);
                }
                Ok(())
            })?;
            self.network.predict_scores_into_rows(
                &features,
                &mut scratch,
                &mut scores,
                batch_index * Self::BATCH_FRAMES,
            )?;
        }
        Ok(scores)
    }

    /// Scores every frame of `video`, producing the reusable per-video score
    /// index (the paper's "BlazeIt (indexed)" artifact). Row `f` of the result
    /// holds frame `f`'s per-head probabilities.
    pub fn score_video(&self, video: &Video) -> Result<ScoreMatrix> {
        let frames: Vec<FrameIndex> = (0..video.len()).collect();
        self.score_batch(video, &frames)
    }

    /// Scores one frame from a full-frame render: per-head probability
    /// distributions over counts, with the charges [`SpecializedNN::score_batch`]
    /// makes per frame. The serial reference the batch API is tested against.
    #[cfg(test)]
    fn score_frame(&self, video: &Video, frame: FrameIndex) -> Result<Vec<Vec<f32>>> {
        let f = video.frame(frame).map_err(|e| NnError::InvalidConfig(e.to_string()))?;
        self.clock.charge(CostCategory::Decode, self.config.cost.decode_cost());
        self.clock.charge(
            CostCategory::SpecializedInference,
            self.config.cost.specialized_inference_cost(),
        );
        let mut feats = self.featurizer.features(&f)?;
        self.standardizer.transform_in_place(&mut feats);
        let x = Matrix::row_from_slice(&feats);
        let probs = self.network.predict_probs(&x)?;
        Ok(probs.into_iter().next().unwrap_or_default())
    }

    /// Estimates the FCOUNT error of this network for `class` on a held-out day via the
    /// bootstrap (Section 6.2), from a [`ScoreMatrix`] over the held-out frames and
    /// their true counts (row `i` of `scores` must be the frame `true_counts[i]`
    /// describes). No inference time is charged — scoring the frames
    /// ([`SpecializedNN::score_batch`]) already paid for it.
    pub fn estimate_fcount_error_from_scores(
        &self,
        scores: &ScoreMatrix,
        true_counts: &[usize],
        class: ObjectClass,
        bootstrap_samples: usize,
        seed: u64,
    ) -> Result<FcountErrorEstimate> {
        if scores.num_frames() != true_counts.len() || true_counts.is_empty() {
            return Err(NnError::InvalidTrainingData(
                "held-out scores and counts must be non-empty and equal length".into(),
            ));
        }
        let head = self
            .head_index(class)
            .ok_or_else(|| NnError::InvalidConfig(format!("no head for class {class}")))?;
        let predicted: Vec<f64> =
            (0..scores.num_frames()).map(|i| scores.expected_count(i, head)).collect();
        let n = true_counts.len();
        let mean_pred = predicted.iter().sum::<f64>() / n as f64;
        let mean_true = true_counts.iter().sum::<usize>() as f64 / n as f64;
        let mean_abs_frame_error =
            predicted.iter().zip(true_counts).map(|(p, &t)| (p - t as f64).abs()).sum::<f64>()
                / n as f64;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut bootstrap_errors = Vec::with_capacity(bootstrap_samples);
        for _ in 0..bootstrap_samples {
            let mut sum_p = 0.0;
            let mut sum_t = 0.0;
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                // blazeit-lint: allow(panic-site::index) -- i is gen_range(0..n) where n is the
                // common length of both slices
                sum_p += predicted[i];
                // blazeit-lint: allow(panic-site::index) -- i is gen_range(0..n) where n is the
                // common length of both slices
                sum_t += true_counts[i] as f64;
            }
            bootstrap_errors.push(((sum_p - sum_t) / n as f64).abs());
        }

        Ok(FcountErrorEstimate {
            mean_predicted: mean_pred,
            mean_true,
            abs_error: (mean_pred - mean_true).abs(),
            mean_abs_frame_error,
            bootstrap_errors,
        })
    }

    /// Calibrates a presence threshold for `class` with no false negatives on the
    /// held-out frames: returns the largest confidence `t` such that every held-out
    /// frame that truly contains the class scores `P(count >= 1) >= t`, from a
    /// [`ScoreMatrix`] over those frames (row `i` of `scores` must be the frame
    /// `true_counts[i]` describes). No inference time is charged.
    ///
    /// Frames scoring below the returned threshold can be discarded by the label-based
    /// selection filter without introducing false negatives on the held-out day
    /// (Section 8).
    pub fn presence_threshold_from_scores(
        &self,
        scores: &ScoreMatrix,
        true_counts: &[usize],
        class: ObjectClass,
    ) -> Result<f64> {
        if scores.num_frames() != true_counts.len() || true_counts.is_empty() {
            return Err(NnError::InvalidTrainingData(
                "held-out scores and counts must be non-empty and equal length".into(),
            ));
        }
        let head = self
            .head_index(class)
            .ok_or_else(|| NnError::InvalidConfig(format!("no head for class {class}")))?;
        let mut min_positive_score = f64::INFINITY;
        for (i, &count) in true_counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let p = scores.tail_probability(i, head, 1);
            if p < min_positive_score {
                min_positive_score = p;
            }
        }
        if !min_positive_score.is_finite() {
            // No positive frames in the held-out set: nothing can be safely filtered.
            return Ok(0.0);
        }
        // Small safety margin against held-out/test distribution mismatch.
        Ok((min_positive_score * 0.9).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::tail_probability;
    use blazeit_videostore::{DatasetPreset, DAY_HELDOUT, DAY_TRAIN};

    fn labeled_counts(video: &Video, frames: &[FrameIndex]) -> Vec<CountVector> {
        frames
            .iter()
            .map(|&f| CountVector::from_ground_truth(&video.scene().visible_at(f)))
            .collect()
    }

    fn train_car_counter(
        frames_per_day: u64,
        train_stride: usize,
    ) -> (SpecializedNN, Video, Video) {
        let train_video =
            DatasetPreset::Taipei.generate_with_frames(DAY_TRAIN, frames_per_day).unwrap();
        let heldout_video =
            DatasetPreset::Taipei.generate_with_frames(DAY_HELDOUT, frames_per_day).unwrap();
        let frames: Vec<FrameIndex> = (0..frames_per_day).step_by(train_stride).collect();
        let labels = labeled_counts(&train_video, &frames);
        let max_count = labels.iter().map(|c| c.get(ObjectClass::Car)).max().unwrap_or(1);
        let head = SpecializedHead { class: ObjectClass::Car, max_count: max_count.max(1) };
        let mut config = SpecializedConfig::for_heads(vec![head]);
        config.train.epochs = 3;
        let clock = SimClock::new();
        let (nn, report) =
            SpecializedNN::train(config, &train_video, &frames, &labels, clock).unwrap();
        assert!(report.training_cost_secs > 0.0);
        (nn, train_video, heldout_video)
    }

    #[test]
    fn head_from_counts_uses_one_percent_rule() {
        // 1000 frames: counts of 3 occur 2% of the time, counts of 4 only 0.5%.
        let mut counts = vec![0usize; 700];
        counts.extend(vec![1; 200]);
        counts.extend(vec![2; 75]);
        counts.extend(vec![3; 20]);
        counts.extend(vec![4; 5]);
        let head = SpecializedHead::from_counts(ObjectClass::Car, counts, 0.01);
        assert_eq!(head.max_count, 3);
        assert_eq!(head.head_size(), 4);
    }

    #[test]
    fn head_from_counts_handles_empty_and_all_zero() {
        let empty = SpecializedHead::from_counts(ObjectClass::Car, Vec::<usize>::new(), 0.01);
        assert_eq!(empty.max_count, 1);
        let zeros = SpecializedHead::from_counts(ObjectClass::Car, vec![0; 100], 0.01);
        assert_eq!(zeros.max_count, 1);
    }

    #[test]
    fn training_produces_correlated_counts() {
        let (nn, train_video, _) = train_car_counter(3_000, 3);
        // On the training day the predicted counts should correlate with ground truth.
        let mut pred_sum = 0.0;
        let mut true_sum = 0.0;
        let mut agree = 0usize;
        let mut total = 0usize;
        let frames: Vec<FrameIndex> = (0..3_000).step_by(97).collect();
        let scores = nn.score_batch(&train_video, &frames).unwrap();
        for (i, &f) in frames.iter().enumerate() {
            let true_count = train_video.ground_truth_count(f, ObjectClass::Car).unwrap();
            let pred = scores.argmax_count(i, 0);
            pred_sum += pred as f64;
            true_sum += true_count as f64;
            if (pred as i64 - true_count as i64).abs() <= 1 {
                agree += 1;
            }
            total += 1;
        }
        assert!(
            agree as f64 / total as f64 > 0.6,
            "specialized NN within-1 agreement too low: {agree}/{total}"
        );
        // The averages should be in the same ballpark (not identical — it is a proxy).
        assert!((pred_sum - true_sum).abs() / (total as f64) < 1.0);
    }

    #[test]
    fn score_batch_matches_score_frame_elementwise_over_a_day() {
        // The batched pipeline must be a pure performance change: every
        // probability it produces for an entire preset day must equal the
        // serial per-frame path bit for bit.
        let frames_per_day = 1_500u64;
        let (nn, _, heldout) = train_car_counter(frames_per_day, 5);
        let batched = nn.score_video(&heldout).unwrap();
        assert_eq!(batched.num_frames() as u64, frames_per_day);
        for f in 0..frames_per_day {
            let serial = nn.score_frame(&heldout, f).unwrap();
            assert_eq!(
                batched.frame_probs(f as usize),
                serial,
                "batched and serial scores diverge at frame {f}"
            );
        }
    }

    /// Training is a function of the labeled day alone: where it runs (the main
    /// thread, or a pool task as the stream's drift refresh does — featurization
    /// then nests `par_fill_chunks` inside `par_run`) and how the feature rows were
    /// produced (pool-parallel sparse renders, or one full-frame decode at a time)
    /// cannot reach the weights.
    #[test]
    fn training_is_independent_of_where_and_how_rows_are_featurized() {
        let video = DatasetPreset::Taipei.generate_with_frames(DAY_TRAIN, 400).unwrap();
        let frames: Vec<FrameIndex> = (0..400).step_by(3).collect();
        let labels = labeled_counts(&video, &frames);
        let mut config = SpecializedConfig::for_heads(vec![
            SpecializedHead { class: ObjectClass::Car, max_count: 2 },
            SpecializedHead { class: ObjectClass::Bus, max_count: 1 },
        ]);
        config.train.epochs = 2;
        let train = || {
            SpecializedNN::train(config.clone(), &video, &frames, &labels, SimClock::new())
                .unwrap()
                .0
                .weights_fingerprint()
        };
        let on_main = train();
        let in_pool_task = crate::parallel::par_run(vec![
            Box::new(train) as Box<dyn FnOnce() -> u64 + Send + '_>,
            Box::new(train),
        ]);
        assert_eq!(in_pool_task, [on_main, on_main]);

        let featurizer = FrameFeaturizer::new(config.features);
        let rows: Vec<Vec<f32>> = frames
            .iter()
            .map(|&f| featurizer.features(&video.frame(f).unwrap()).unwrap())
            .collect();
        let mut features = Matrix::from_rows(&rows).unwrap();
        let standardizer = Standardizer::fit(&features);
        standardizer.transform_rows_in_place(&mut features);
        let ys = config.flat_labels(&labels);
        let mut network = Network::new(config.network_config()).unwrap();
        Trainer::new(config.train).fit(&mut network, &features, &ys).unwrap();
        let serial =
            SpecializedNN::from_parts(config.clone(), standardizer, network, SimClock::new())
                .unwrap();
        assert_eq!(serial.weights_fingerprint(), on_main);
    }

    #[test]
    fn score_batch_charges_the_same_inference_totals_as_serial() {
        let (nn, train_video, _) = train_car_counter(1_000, 5);
        let frames: Vec<FrameIndex> = (0..1_000).collect();

        let before = nn.clock.breakdown();
        let _ = nn.score_batch(&train_video, &frames).unwrap();
        let batched = nn.clock.breakdown().since(&before);

        let before = nn.clock.breakdown();
        for &f in &frames {
            nn.score_frame(&train_video, f).unwrap();
        }
        let serial = nn.clock.breakdown().since(&before);

        assert!((batched.specialized - serial.specialized).abs() < 1e-9);
        assert!((batched.decode - serial.decode).abs() < 1e-9);
        let expected = 1_000.0 * nn.config.cost.specialized_inference_cost();
        assert!((batched.specialized - expected).abs() < 1e-9);
    }

    #[test]
    fn score_batch_handles_multiple_heads_and_odd_batch_sizes() {
        let frames_per_day = 700u64; // not a multiple of BATCH_FRAMES
        let train_video =
            DatasetPreset::Taipei.generate_with_frames(DAY_TRAIN, frames_per_day).unwrap();
        let frames: Vec<FrameIndex> = (0..frames_per_day).step_by(2).collect();
        let labels = labeled_counts(&train_video, &frames);
        let heads = vec![
            SpecializedHead { class: ObjectClass::Car, max_count: 3 },
            SpecializedHead { class: ObjectClass::Bus, max_count: 1 },
        ];
        let mut config = SpecializedConfig::for_heads(heads);
        config.train.epochs = 2;
        let (nn, _) =
            SpecializedNN::train(config, &train_video, &frames, &labels, SimClock::new()).unwrap();

        let scores = nn.score_batch(&train_video, &frames).unwrap();
        assert_eq!(scores.num_frames(), frames.len());
        assert_eq!(scores.head_sizes(), &[4, 2]);
        for (i, &f) in frames.iter().enumerate() {
            assert_eq!(scores.frame_probs(i), nn.score_frame(&train_video, f).unwrap());
        }
        // Empty input is fine.
        let empty = nn.score_batch(&train_video, &[]).unwrap();
        assert_eq!(empty.num_frames(), 0);
    }

    #[test]
    fn scoring_charges_inference_time() {
        let (nn, train_video, _) = train_car_counter(1_500, 5);
        let before = nn.clock.breakdown().specialized;
        nn.score_frame(&train_video, 100).unwrap();
        nn.score_frame(&train_video, 101).unwrap();
        let after = nn.clock.breakdown().specialized;
        let expected = 2.0 * nn.config.cost.specialized_inference_cost();
        assert!((after - before - expected).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_normalized_and_tail_is_monotone() {
        let (nn, _, heldout) = train_car_counter(1_500, 5);
        let probs = nn.score_frame(&heldout, 700).unwrap();
        assert_eq!(probs.len(), 1);
        let head = &probs[0];
        let sum: f32 = head.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        let mut prev = 1.0 + 1e-6;
        for n in 0..head.len() {
            let tail = tail_probability(head, n);
            assert!(tail <= prev + 1e-6);
            prev = tail;
        }
    }

    #[test]
    fn fcount_error_estimate_and_bootstrap() {
        let (nn, _, heldout) = train_car_counter(2_000, 4);
        let frames: Vec<FrameIndex> = (0..2_000).step_by(7).collect();
        let true_counts: Vec<usize> = frames
            .iter()
            .map(|&f| heldout.ground_truth_count(f, ObjectClass::Car).unwrap())
            .collect();
        let scores = nn.score_batch(&heldout, &frames).unwrap();
        let est = nn
            .estimate_fcount_error_from_scores(&scores, &true_counts, ObjectClass::Car, 50, 3)
            .unwrap();
        assert_eq!(est.bootstrap_errors.len(), 50);
        assert!(est.mean_true > 0.0);
        assert!(est.abs_error < 1.0, "held-out FCOUNT error too large: {}", est.abs_error);
        // Probability is monotone in the tolerance.
        assert!(est.prob_error_within(1.0) >= est.prob_error_within(0.01));
        assert!(est.prob_error_within(10.0) == 1.0);
    }

    #[test]
    fn presence_threshold_has_no_false_negatives_on_heldout() {
        let (nn, _, heldout) = train_car_counter(2_000, 4);
        let frames: Vec<FrameIndex> = (0..2_000).step_by(11).collect();
        let true_counts: Vec<usize> = frames
            .iter()
            .map(|&f| heldout.ground_truth_count(f, ObjectClass::Car).unwrap())
            .collect();
        let scores = nn.score_batch(&heldout, &frames).unwrap();
        let threshold =
            nn.presence_threshold_from_scores(&scores, &true_counts, ObjectClass::Car).unwrap();
        assert!((0.0..=1.0).contains(&threshold));
        // Every held-out frame containing a car must score at or above the threshold.
        for (i, (&f, &count)) in frames.iter().zip(&true_counts).enumerate() {
            if count > 0 {
                let p = scores.tail_probability(i, 0, 1);
                assert!(p >= threshold, "frame {f} with {count} cars scored {p} < {threshold}");
            }
        }
    }

    #[test]
    fn mismatched_training_inputs_rejected() {
        let video = DatasetPreset::Taipei.generate_with_frames(DAY_TRAIN, 200).unwrap();
        let config = SpecializedConfig::for_heads(vec![SpecializedHead {
            class: ObjectClass::Car,
            max_count: 3,
        }]);
        let clock = SimClock::new();
        let err = SpecializedNN::train(config.clone(), &video, &[1, 2, 3], &[], clock.clone());
        assert!(err.is_err());
        let err2 = SpecializedNN::train(config, &video, &[], &[], clock);
        assert!(err2.is_err());
    }

    #[test]
    fn missing_head_is_an_error() {
        let (nn, train_video, _) = train_car_counter(1_000, 10);
        let scores = nn.score_batch(&train_video, &[0]).unwrap();
        assert!(nn.presence_threshold_from_scores(&scores, &[0], ObjectClass::Boat).is_err());
        assert!(nn.head_index(ObjectClass::Boat).is_none());
        assert!(nn.head_index(ObjectClass::Car).is_some());
    }
}
