//! Engine configuration.

use crate::fault::RetryPolicy;
use blazeit_detect::{CostProfile, DetectionMethod};
use blazeit_nn::features::FeatureConfig;
use blazeit_nn::train::TrainConfig;
use blazeit_videostore::DatasetPreset;
use serde::{Deserialize, Serialize};

/// Configuration of one registered video's [`VideoContext`](crate::context::VideoContext).
///
/// As in the paper (Section 3, "Configuration"), the object detection method, its
/// confidence threshold, and the entity-resolution parameters are user-configurable;
/// everything else has defaults matching the paper's implementation notes (Section 9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlazeItConfig {
    /// The object detection method treated as ground truth.
    pub detection_method: DetectionMethod,
    /// The detection confidence threshold (Table 3 assigns one per stream).
    pub detection_threshold: f32,
    /// Simulated throughput constants for specialized NNs, filters, training, decode.
    pub cost: CostProfile,
    /// Frame featurization for specialized NNs.
    pub features: FeatureConfig,
    /// Hidden layer widths of specialized NNs.
    pub specialized_hidden: Vec<usize>,
    /// Training settings for specialized NNs (1 epoch, batch 16, SGD momentum 0.9 in
    /// the paper; more epochs help the much smaller synthetic labeled sets).
    pub train: TrainConfig,
    /// Stride (in frames) at which the labeled training day is annotated by the
    /// detector to build the labeled set.
    pub labeled_stride: u64,
    /// Stride at which the held-out day is annotated for threshold / error estimation.
    pub heldout_stride: u64,
    /// Number of bootstrap resamples used for the specialized-NN error estimate.
    pub bootstrap_samples: usize,
    /// Fraction used by the "highest count in at least this fraction of frames" rule
    /// when picking the number of count classes (1% in the paper).
    pub count_class_min_fraction: f64,
    /// IoU threshold for the motion-IoU tracker (0.7 in the paper).
    pub tracker_iou: f32,
    /// Base RNG seed for sampling during query execution.
    pub sampling_seed: u64,
    /// Retry/backoff policy for transient index-store errors (each backoff is
    /// charged to the simulated clock under the `other` category).
    pub store_retry: RetryPolicy,
}

impl Default for BlazeItConfig {
    fn default() -> Self {
        BlazeItConfig {
            detection_method: DetectionMethod::MaskRcnn,
            detection_threshold: 0.8,
            cost: CostProfile::default(),
            features: FeatureConfig::default(),
            specialized_hidden: vec![48],
            train: {
                let mut t = TrainConfig { epochs: 8, ..TrainConfig::default() };
                t.sgd.learning_rate = 0.03;
                t
            },
            labeled_stride: 3,
            heldout_stride: 7,
            bootstrap_samples: 100,
            count_class_min_fraction: 0.01,
            tracker_iou: 0.7,
            sampling_seed: 0xB1A2_E175,
            store_retry: RetryPolicy::default(),
        }
    }
}

impl BlazeItConfig {
    /// The configuration the paper's Table 3 implies for a given dataset preset:
    /// FGFA with threshold 0.2 for taipei, Mask R-CNN with threshold 0.8 elsewhere.
    pub fn for_preset(preset: DatasetPreset) -> BlazeItConfig {
        let method = match preset {
            DatasetPreset::Taipei => DetectionMethod::Fgfa,
            _ => DetectionMethod::MaskRcnn,
        };
        BlazeItConfig {
            detection_method: method,
            detection_threshold: preset.detection_threshold(),
            ..BlazeItConfig::default()
        }
    }

    /// Returns a copy with a different sampling seed (used to average over runs).
    pub fn with_seed(&self, seed: u64) -> BlazeItConfig {
        BlazeItConfig { sampling_seed: seed, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let cfg = BlazeItConfig::default();
        assert_eq!(cfg.detection_method, DetectionMethod::MaskRcnn);
        assert!((cfg.tracker_iou - 0.7).abs() < 1e-6);
        assert!((cfg.count_class_min_fraction - 0.01).abs() < 1e-12);
        assert_eq!(cfg.train.batch_size, 16);
    }

    #[test]
    fn preset_configs_follow_table3() {
        let taipei = BlazeItConfig::for_preset(DatasetPreset::Taipei);
        assert_eq!(taipei.detection_method, DetectionMethod::Fgfa);
        assert!((taipei.detection_threshold - 0.2).abs() < 1e-6);
        let rialto = BlazeItConfig::for_preset(DatasetPreset::Rialto);
        assert_eq!(rialto.detection_method, DetectionMethod::MaskRcnn);
        assert!((rialto.detection_threshold - 0.8).abs() < 1e-6);
    }

    #[test]
    fn with_seed_only_changes_seed() {
        let a = BlazeItConfig::default();
        let b = a.with_seed(1234);
        assert_eq!(a.detection_method, b.detection_method);
        assert_ne!(a.sampling_seed, b.sampling_seed);
    }
}
