//! Dataset presets mirroring Table 3 of the BlazeIt paper.
//!
//! The paper evaluates on six webcam streams. Each preset here configures the scene
//! simulator so the generated stream matches the paper's reported statistics for that
//! stream: occupancy (fraction of frames containing the queried class), average
//! appearance duration, resolution and frame rate. The number of *distinct* objects
//! then follows from those statistics and the chosen video length.
//!
//! Occupancy is converted to the simulator's mean-concurrent-objects parameter via the
//! Poisson relation `occupancy = 1 - exp(-mean_concurrent)`.
//!
//! Each camera has three "days" of footage, as in the paper: day 0 is used to build the
//! labeled training set, day 1 is the held-out set used for threshold / error
//! estimation, and day 2 is the unseen test data that queries run over.

use crate::render::RenderConfig;
use crate::scene::{ClassProfile, SceneConfig};
use crate::video::{Video, VideoConfig};
use crate::{ObjectClass, Result, VideoError};
use serde::{Deserialize, Serialize};

/// Day index used for the labeled training data.
pub const DAY_TRAIN: u32 = 0;
/// Day index used for the held-out (threshold-estimation) data.
pub const DAY_HELDOUT: u32 = 1;
/// Day index used for the unseen test data.
pub const DAY_TEST: u32 = 2;

/// Converts an occupancy fraction (probability that a frame contains at least one
/// object) into the mean number of concurrent objects under a Poisson count model.
pub fn occupancy_to_mean_concurrent(occupancy: f64) -> f64 {
    let occ = occupancy.clamp(0.0, 0.999_999);
    -(1.0 - occ).ln()
}

/// One of the six named dataset presets from Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetPreset {
    /// Taipei intersection: cars (64.4% occupancy) and buses (11.9%), 720p/30.
    Taipei,
    /// Night-time street: cars (28.1%), 720p/30, dark and noisy.
    NightStreet,
    /// Rialto bridge canal: boats (89.9%), 720p/30.
    Rialto,
    /// Grand canal: boats (57.7%), 1080p/60.
    GrandCanal,
    /// Amsterdam square: cars (44.7%), 720p/30.
    Amsterdam,
    /// "Archie" high-resolution intersection: cars (51.8%, very short appearances), 2160p/30.
    Archie,
}

impl DatasetPreset {
    /// All six presets, in the order Table 3 lists them.
    pub const ALL: [DatasetPreset; 6] = [
        DatasetPreset::Taipei,
        DatasetPreset::NightStreet,
        DatasetPreset::Rialto,
        DatasetPreset::GrandCanal,
        DatasetPreset::Amsterdam,
        DatasetPreset::Archie,
    ];

    /// The stream name used in FrameQL queries (`FROM taipei`).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetPreset::Taipei => "taipei",
            DatasetPreset::NightStreet => "night-street",
            DatasetPreset::Rialto => "rialto",
            DatasetPreset::GrandCanal => "grand-canal",
            DatasetPreset::Amsterdam => "amsterdam",
            DatasetPreset::Archie => "archie",
        }
    }

    /// Parses a preset from its stream name (as used in `FROM` clauses).
    pub fn parse(name: &str) -> Result<DatasetPreset> {
        let lower = name.to_ascii_lowercase().replace('_', "-");
        DatasetPreset::ALL
            .iter()
            .copied()
            .find(|p| p.name() == lower)
            .ok_or_else(|| VideoError::UnknownDataset(name.to_string()))
    }

    /// The primary object class the paper queries on this stream.
    pub fn primary_class(&self) -> ObjectClass {
        match self {
            DatasetPreset::Taipei
            | DatasetPreset::NightStreet
            | DatasetPreset::Amsterdam
            | DatasetPreset::Archie => ObjectClass::Car,
            DatasetPreset::Rialto | DatasetPreset::GrandCanal => ObjectClass::Boat,
        }
    }

    /// Frames per second of the stream (Table 3).
    pub fn fps(&self) -> f64 {
        match self {
            DatasetPreset::GrandCanal => 60.0,
            _ => 30.0,
        }
    }

    /// Nominal resolution of the stream (Table 3).
    pub fn resolution(&self) -> (f32, f32) {
        match self {
            DatasetPreset::GrandCanal => (1920.0, 1080.0),
            DatasetPreset::Archie => (3840.0, 2160.0),
            _ => (1280.0, 720.0),
        }
    }

    /// Default number of frames per synthetic day.
    ///
    /// The paper's days are 6-11 hours (≈1M frames); the synthetic default is 30
    /// simulated minutes per day, which preserves every relative comparison while
    /// keeping the full experiment suite runnable on a laptop. Harnesses can request
    /// longer days via [`DatasetPreset::video_config_with_frames`].
    pub fn default_frames(&self) -> u64 {
        (self.fps() * 60.0 * 30.0) as u64
    }

    /// A fixed per-camera RNG seed (so "taipei" is the same stream in every test).
    pub fn seed(&self) -> u64 {
        match self {
            DatasetPreset::Taipei => 0x007A_1901,
            DatasetPreset::NightStreet => 0x007A_1902,
            DatasetPreset::Rialto => 0x007A_1903,
            DatasetPreset::GrandCanal => 0x007A_1904,
            DatasetPreset::Amsterdam => 0x007A_1905,
            DatasetPreset::Archie => 0x007A_1906,
        }
    }

    /// The per-class occupancy / mean-duration targets from Table 3, as
    /// `(class, occupancy, mean duration seconds)`.
    pub fn class_targets(&self) -> Vec<(ObjectClass, f64, f64)> {
        match self {
            DatasetPreset::Taipei => vec![
                (ObjectClass::Car, 0.644, 1.43),
                (ObjectClass::Bus, 0.119, 2.82),
                // A small amount of pedestrian traffic as a confuser class.
                (ObjectClass::Person, 0.05, 2.0),
            ],
            DatasetPreset::NightStreet => {
                vec![(ObjectClass::Car, 0.281, 3.94), (ObjectClass::Person, 0.04, 3.0)]
            }
            DatasetPreset::Rialto => vec![(ObjectClass::Boat, 0.899, 10.7)],
            DatasetPreset::GrandCanal => vec![(ObjectClass::Boat, 0.577, 9.50)],
            DatasetPreset::Amsterdam => vec![
                (ObjectClass::Car, 0.447, 7.88),
                (ObjectClass::Person, 0.08, 4.0),
                (ObjectClass::Bus, 0.03, 6.0),
            ],
            DatasetPreset::Archie => vec![(ObjectClass::Car, 0.518, 0.30)],
        }
    }

    /// The detection confidence threshold Table 3 assigns to this stream.
    pub fn detection_threshold(&self) -> f32 {
        match self {
            DatasetPreset::Taipei => 0.2,
            _ => 0.8,
        }
    }

    fn render_config(&self) -> RenderConfig {
        match self {
            DatasetPreset::NightStreet => RenderConfig::night(),
            DatasetPreset::Rialto | DatasetPreset::GrandCanal => RenderConfig::water(),
            _ => RenderConfig::default(),
        }
    }

    fn class_profile(&self, class: ObjectClass, occupancy: f64, duration: f64) -> ClassProfile {
        let mean_concurrent = occupancy_to_mean_concurrent(occupancy);
        match class {
            ObjectClass::Car => ClassProfile::car(mean_concurrent, duration),
            // ~15% of buses are red tour buses (the content-selection target).
            ObjectClass::Bus => ClassProfile::bus(mean_concurrent, duration, 0.15),
            ObjectClass::Boat => ClassProfile::boat(mean_concurrent, duration),
            ObjectClass::Person => ClassProfile::person(mean_concurrent, duration),
            ObjectClass::Bird => ClassProfile::bird(mean_concurrent, duration),
            _ => ClassProfile { class, ..ClassProfile::car(mean_concurrent, duration) },
        }
    }

    /// The [`SceneConfig`] implementing this preset's Table 3 targets.
    pub fn scene_config(&self) -> SceneConfig {
        let (width, height) = self.resolution();
        let classes = self
            .class_targets()
            .into_iter()
            .map(|(class, occ, dur)| self.class_profile(class, occ, dur))
            .collect();
        SceneConfig {
            width,
            height,
            fps: self.fps(),
            classes,
            diurnal_amplitude: 0.35,
            day_variation: 0.3,
        }
    }

    /// Builds the [`VideoConfig`] for a given day with the default length.
    pub fn video_config(&self, day: u32) -> VideoConfig {
        self.video_config_with_frames(day, self.default_frames())
    }

    /// Builds the [`VideoConfig`] for a given day with an explicit length in frames.
    pub fn video_config_with_frames(&self, day: u32, num_frames: u64) -> VideoConfig {
        VideoConfig {
            name: self.name().to_string(),
            scene: self.scene_config(),
            render: self.render_config(),
            num_frames,
            seed: self.seed(),
            day,
        }
    }

    /// Generates one day of this stream with the default length.
    pub fn generate(&self, day: u32) -> Result<Video> {
        Video::generate(self.video_config(day))
    }

    /// Generates one day of this stream with an explicit length in frames.
    pub fn generate_with_frames(&self, day: u32, num_frames: u64) -> Result<Video> {
        Video::generate(self.video_config_with_frames(day, num_frames))
    }
}

/// Builds a small ornithology-style scene (birds at a feeder), used by the example
/// programs; not part of Table 3 but one of the paper's motivating use cases.
pub fn bird_feeder_config(num_frames: u64, seed: u64, day: u32) -> VideoConfig {
    VideoConfig {
        name: "bird-feeder".into(),
        scene: SceneConfig {
            width: 1280.0,
            height: 720.0,
            fps: 30.0,
            classes: vec![ClassProfile::bird(0.4, 4.0)],
            diurnal_amplitude: 0.4,
            day_variation: 0.3,
        },
        render: RenderConfig::default(),
        num_frames,
        seed,
        day,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_conversion_roundtrips() {
        for occ in [0.05, 0.119, 0.281, 0.447, 0.644, 0.899] {
            let mean = occupancy_to_mean_concurrent(occ);
            let back = 1.0 - (-mean).exp();
            assert!((back - occ).abs() < 1e-9);
        }
    }

    #[test]
    fn occupancy_conversion_monotone() {
        assert!(occupancy_to_mean_concurrent(0.9) > occupancy_to_mean_concurrent(0.5));
        assert!(occupancy_to_mean_concurrent(0.0) == 0.0);
    }

    #[test]
    fn preset_names_roundtrip() {
        for p in DatasetPreset::ALL {
            assert_eq!(DatasetPreset::parse(p.name()).unwrap(), p);
        }
        assert_eq!(DatasetPreset::parse("night_street").unwrap(), DatasetPreset::NightStreet);
        assert!(DatasetPreset::parse("not-a-stream").is_err());
    }

    #[test]
    fn presets_have_expected_metadata() {
        assert_eq!(DatasetPreset::GrandCanal.fps(), 60.0);
        assert_eq!(DatasetPreset::Archie.resolution(), (3840.0, 2160.0));
        assert_eq!(DatasetPreset::Taipei.detection_threshold(), 0.2);
        assert_eq!(DatasetPreset::Rialto.primary_class(), ObjectClass::Boat);
    }

    #[test]
    fn scene_configs_validate() {
        for p in DatasetPreset::ALL {
            p.scene_config().validate().unwrap();
        }
    }

    #[test]
    fn generate_small_day_for_each_preset() {
        for p in DatasetPreset::ALL {
            let video = p.generate_with_frames(DAY_TEST, 2_000).unwrap();
            assert_eq!(video.len(), 2_000);
            assert_eq!(video.name(), p.name());
            // The primary class should appear somewhere in a couple of thousand frames.
            let mut found = false;
            for f in (0..2_000).step_by(50) {
                if video.ground_truth_count(f, p.primary_class()).unwrap() > 0 {
                    found = true;
                    break;
                }
            }
            assert!(found, "no {} found in {}", p.primary_class(), p.name());
        }
    }

    #[test]
    fn different_days_have_different_tracks() {
        let a = DatasetPreset::Taipei.generate_with_frames(DAY_TRAIN, 3_000).unwrap();
        let b = DatasetPreset::Taipei.generate_with_frames(DAY_TEST, 3_000).unwrap();
        assert_ne!(a.tracks(), b.tracks());
    }

    #[test]
    fn bird_feeder_scene_generates() {
        let v = Video::generate(bird_feeder_config(1_000, 7, 0)).unwrap();
        assert_eq!(v.name(), "bird-feeder");
    }
}
