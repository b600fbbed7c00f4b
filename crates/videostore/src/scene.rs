//! Scene simulation: generating ground-truth object tracks for a synthetic video.
//!
//! The paper's datasets are real webcam streams; what matters to every BlazeIt
//! optimization is the *statistics* of the object stream — occupancy (fraction of
//! frames containing the class), average appearance duration, number of distinct
//! objects, and how often rare combinations (e.g. "at least one bus and five cars")
//! occur. The simulator generates tracks from a marked Poisson process whose
//! parameters are chosen so those statistics match Table 3 of the paper.
//!
//! The generative model, per object class:
//!
//! * New tracks arrive as a Poisson process whose rate is modulated over the day
//!   (a diurnal sine profile) and by a per-day multiplier, so different "days" of the
//!   same camera have genuinely different true counts (needed for Table 5).
//! * Each track's dwell time is exponential around the class's mean duration.
//! * Tracks travel along one of a handful of "lanes" with a class-specific speed, size
//!   and color distribution.
//!
//! By Little's law, the expected number of concurrent objects is
//! `arrival_rate x mean_duration`, which the configuration exposes directly as
//! [`ClassProfile::mean_concurrent`].

use crate::geometry::Point;
use crate::object::{Color, GroundTruthObject, ObjectClass};
use crate::track::{Track, TrackId};
use crate::{Result, VideoError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp, Normal, Poisson};
use serde::{Deserialize, Serialize};

/// A weighted color choice for a class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColorWeight {
    /// The color.
    pub color: Color,
    /// Relative weight (need not sum to one across the palette).
    pub weight: f32,
}

/// Per-class generative parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassProfile {
    /// Object class being generated.
    pub class: ObjectClass,
    /// Expected number of objects of this class visible in a frame (Little's law mean).
    pub mean_concurrent: f64,
    /// Mean duration of an appearance, in seconds.
    pub mean_duration_secs: f64,
    /// Mean object width in nominal pixels.
    pub mean_width: f32,
    /// Mean object height in nominal pixels.
    pub mean_height: f32,
    /// Relative standard deviation of the size (0.2 = ±20%).
    pub size_jitter: f32,
    /// Color palette with weights.
    pub palette: Vec<ColorWeight>,
    /// Vertical band of the scene (as fractions of height) in which this class travels.
    pub lane_band: (f32, f32),
    /// Positional wobble amplitude in nominal pixels (boats bob, bikes weave).
    pub wobble: f32,
}

impl ClassProfile {
    /// A car profile with sensible defaults for a 720p traffic camera.
    pub fn car(mean_concurrent: f64, mean_duration_secs: f64) -> Self {
        ClassProfile {
            class: ObjectClass::Car,
            mean_concurrent,
            mean_duration_secs,
            mean_width: 140.0,
            mean_height: 90.0,
            size_jitter: 0.25,
            palette: vec![
                ColorWeight { color: Color::GREY, weight: 0.35 },
                ColorWeight { color: Color::WHITE, weight: 0.25 },
                ColorWeight { color: Color::BLACK, weight: 0.2 },
                ColorWeight { color: Color::BLUE, weight: 0.1 },
                ColorWeight { color: Color::RED, weight: 0.1 },
            ],
            lane_band: (0.45, 0.85),
            wobble: 0.0,
        }
    }

    /// A bus profile; `red_fraction` controls how many buses are "red tour buses",
    /// which the content-based-selection experiments search for.
    pub fn bus(mean_concurrent: f64, mean_duration_secs: f64, red_fraction: f32) -> Self {
        let red = red_fraction.clamp(0.0, 1.0);
        ClassProfile {
            class: ObjectClass::Bus,
            mean_concurrent,
            mean_duration_secs,
            mean_width: 340.0,
            mean_height: 160.0,
            size_jitter: 0.15,
            palette: vec![
                ColorWeight { color: Color::RED, weight: red },
                ColorWeight { color: Color::WHITE, weight: (1.0 - red) * 0.7 },
                ColorWeight { color: Color::YELLOW, weight: (1.0 - red) * 0.3 },
            ],
            lane_band: (0.4, 0.8),
            wobble: 0.0,
        }
    }

    /// A boat profile (rialto / grand-canal).
    pub fn boat(mean_concurrent: f64, mean_duration_secs: f64) -> Self {
        ClassProfile {
            class: ObjectClass::Boat,
            mean_concurrent,
            mean_duration_secs,
            mean_width: 220.0,
            mean_height: 110.0,
            size_jitter: 0.35,
            palette: vec![
                ColorWeight { color: Color::WHITE, weight: 0.5 },
                ColorWeight { color: Color::rgb(120, 80, 40), weight: 0.3 },
                ColorWeight { color: Color::BLUE, weight: 0.2 },
            ],
            lane_band: (0.35, 0.75),
            wobble: 6.0,
        }
    }

    /// A pedestrian profile.
    pub fn person(mean_concurrent: f64, mean_duration_secs: f64) -> Self {
        ClassProfile {
            class: ObjectClass::Person,
            mean_concurrent,
            mean_duration_secs,
            mean_width: 45.0,
            mean_height: 120.0,
            size_jitter: 0.2,
            palette: vec![
                ColorWeight { color: Color::rgb(80, 80, 110), weight: 0.4 },
                ColorWeight { color: Color::rgb(150, 120, 100), weight: 0.3 },
                ColorWeight { color: Color::GREEN, weight: 0.15 },
                ColorWeight { color: Color::RED, weight: 0.15 },
            ],
            lane_band: (0.55, 0.95),
            wobble: 2.0,
        }
    }

    /// A bird profile (ornithology use case).
    pub fn bird(mean_concurrent: f64, mean_duration_secs: f64) -> Self {
        ClassProfile {
            class: ObjectClass::Bird,
            mean_concurrent,
            mean_duration_secs,
            mean_width: 50.0,
            mean_height: 40.0,
            size_jitter: 0.3,
            palette: vec![
                ColorWeight { color: Color::RED, weight: 0.3 },
                ColorWeight { color: Color::BLUE, weight: 0.3 },
                ColorWeight { color: Color::rgb(120, 90, 60), weight: 0.4 },
            ],
            lane_band: (0.2, 0.8),
            wobble: 8.0,
        }
    }

    fn pick_color(&self, rng: &mut StdRng) -> Color {
        let total: f32 = self.palette.iter().map(|c| c.weight.max(0.0)).sum();
        if total <= 0.0 || self.palette.is_empty() {
            return Color::GREY;
        }
        let mut x = rng.gen::<f32>() * total;
        for cw in &self.palette {
            x -= cw.weight.max(0.0);
            if x <= 0.0 {
                return cw.color;
            }
        }
        self.palette.last().map(|c| c.color).unwrap_or(Color::GREY)
    }
}

/// Scene-level configuration: resolution, frame rate, class mix, day-to-day variation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneConfig {
    /// Nominal frame width in pixels (e.g. 1280 for 720p).
    pub width: f32,
    /// Nominal frame height in pixels (e.g. 720 for 720p).
    pub height: f32,
    /// Frames per second of the stream.
    pub fps: f64,
    /// Per-class generative profiles.
    pub classes: Vec<ClassProfile>,
    /// Amplitude of the diurnal (within-day) arrival-rate modulation in `[0, 1)`.
    ///
    /// A value of 0.4 means the arrival rate swings ±40% over the course of the video.
    pub diurnal_amplitude: f64,
    /// Per-day arrival-rate multiplier. Day `d`'s rate is scaled by
    /// `1 + day_variation * sin(golden-ratio hash of d)`, so distinct days genuinely
    /// differ (Table 5's premise).
    pub day_variation: f64,
}

impl SceneConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.fps <= 0.0 {
            return Err(VideoError::InvalidConfig("fps must be positive".into()));
        }
        if self.width <= 0.0 || self.height <= 0.0 {
            return Err(VideoError::InvalidConfig("resolution must be positive".into()));
        }
        if self.classes.is_empty() {
            return Err(VideoError::InvalidConfig("at least one class profile required".into()));
        }
        for c in &self.classes {
            if c.mean_concurrent < 0.0 || c.mean_duration_secs <= 0.0 {
                return Err(VideoError::InvalidConfig(format!(
                    "class {} has invalid rate/duration",
                    c.class
                )));
            }
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(VideoError::InvalidConfig("diurnal_amplitude must be in [0,1)".into()));
        }
        Ok(())
    }

    /// The per-day rate multiplier for day `day`.
    pub fn day_multiplier(&self, day: u32) -> f64 {
        // A deterministic, seed-independent pseudo-random phase per day.
        let phase = (day as f64 * 0.618_033_988_749_895).fract() * std::f64::consts::TAU;
        1.0 + self.day_variation * phase.sin()
    }
}

/// One phase of a phased (drifting) scene: `num_frames` frames generated from
/// `config`'s class mix and rates. See [`SceneSimulator::generate_phased`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenePhase {
    /// The generative configuration active during this phase.
    pub config: SceneConfig,
    /// How many frames this phase lasts.
    pub num_frames: u64,
}

/// The generated scene for one day of video: all ground-truth tracks plus a frame index
/// for fast per-frame lookups.
#[derive(Debug, Clone)]
pub struct SceneSimulator {
    config: SceneConfig,
    num_frames: u64,
    tracks: Vec<Track>,
    /// `bucket_index[b]` lists indices into `tracks` of tracks overlapping frame bucket
    /// `b` (buckets of [`SceneSimulator::BUCKET`] frames), so per-frame ground-truth
    /// lookups don't scan every track of the day.
    bucket_index: Vec<Vec<u32>>,
}

impl SceneSimulator {
    /// Number of frames per bucket in the temporal index.
    const BUCKET: u64 = 256;

    /// Generates the scene for one day.
    ///
    /// * `seed` — base RNG seed for the video; combined with `day` so each day is an
    ///   independent draw.
    /// * `day` — which day (0 = train, 1 = held-out/threshold, 2 = test by convention).
    /// * `num_frames` — length of the day in frames.
    pub fn generate(config: SceneConfig, seed: u64, day: u32, num_frames: u64) -> Result<Self> {
        config.validate()?;
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(day as u64 + 1)));
        let day_mult = config.day_multiplier(day);
        let mut tracks = Vec::new();
        let mut next_id: TrackId = 1;

        for profile in &config.classes {
            let duration_frames = (profile.mean_duration_secs * config.fps).max(1.0);
            // Little's law: arrivals per frame = mean_concurrent / mean_duration_frames.
            let base_rate = profile.mean_concurrent / duration_frames;
            #[expect(
                clippy::expect_used,
                reason = "duration_frames is clamped to >= 1.0 two lines above, so the rate is \
                          positive and finite."
            )]
            let exp = Exp::new(1.0 / duration_frames).expect("positive rate");
            #[expect(
                clippy::expect_used,
                reason = "size_jitter is an f32 magnitude from the class profile; a negative value \
                          is a construction bug worth a loud failure during synthetic-video \
                          generation, not a recoverable state."
            )]
            let size_noise = Normal::new(0.0, f64::from(profile.size_jitter)).expect("stddev >= 0");

            // Walk the day in coarse slots of BUCKET frames; within each slot the rate
            // is constant, which is plenty of resolution for a diurnal profile.
            let mut slot_start = 0u64;
            while slot_start < num_frames {
                let slot_len = Self::BUCKET.min(num_frames - slot_start);
                let t_frac = slot_start as f64 / num_frames.max(1) as f64;
                let diurnal =
                    1.0 + config.diurnal_amplitude * (std::f64::consts::TAU * t_frac).sin();
                let rate = (base_rate * diurnal * day_mult).max(0.0);
                let expected = rate * slot_len as f64;
                let arrivals = if expected > 0.0 {
                    Poisson::new(expected).map(|p| p.sample(&mut rng) as u64).unwrap_or(0)
                } else {
                    0
                };
                for _ in 0..arrivals {
                    let enter = slot_start + rng.gen_range(0..slot_len);
                    let dwell = exp.sample(&mut rng).max(1.0) as u64;
                    let exit = (enter + dwell).min(num_frames.saturating_sub(1));
                    let (band_lo, band_hi) = profile.lane_band;
                    let y = config.height * rng.gen_range(band_lo..band_hi.max(band_lo + 1e-3));
                    let leftward = rng.gen_bool(0.5);
                    // Speed chosen so the object crosses the scene in roughly its dwell
                    // time (plus noise), so long-dwell objects move slowly.
                    let cross_frames = (dwell as f32).max(1.0);
                    let speed = (config.width / cross_frames) * rng.gen_range(0.6..1.4);
                    let (start_x, vx) = if leftward {
                        (config.width + profile.mean_width, -speed)
                    } else {
                        (-profile.mean_width, speed)
                    };
                    let mut sz = |mean: f32| {
                        (mean * (1.0 + size_noise.sample(&mut rng) as f32)).max(mean * 0.3)
                    };
                    let width = sz(profile.mean_width);
                    let height = sz(profile.mean_height);
                    tracks.push(Track {
                        id: next_id,
                        class: profile.class,
                        enter_frame: enter,
                        exit_frame: exit,
                        start: Point::new(start_x, y),
                        velocity: Point::new(vx, rng.gen_range(-0.2..0.2)),
                        width,
                        height,
                        color: profile.pick_color(&mut rng),
                        wobble: profile.wobble,
                    });
                    next_id += 1;
                }
                slot_start += slot_len;
            }
        }

        let bucket_index = Self::build_index(&tracks, num_frames);
        Ok(SceneSimulator { config, num_frames, tracks, bucket_index })
    }

    /// Generates a scene whose generative statistics *change over time*: each
    /// [`ScenePhase`] contributes `num_frames` frames drawn from its own
    /// [`SceneConfig`] (class mix, arrival rates, durations), concatenated in
    /// order into one track list over one timeline.
    ///
    /// This is how distribution drift is injected into a synthetic stream: a
    /// phase boundary is exactly the moment a camera's world changes (rush hour
    /// starts, a regatta passes the canal) while the *camera* — resolution,
    /// frame rate, rendering — stays fixed, so every phase must share `width`,
    /// `height`, and `fps`. Tracks never cross a phase boundary (their exit
    /// frames are clamped to the phase end, as a single-phase scene clamps to
    /// the end of the day).
    ///
    /// A single-phase call is bit-identical to [`SceneSimulator::generate`]
    /// with that phase's configuration: phase `i` derives its RNG stream from
    /// `seed` xor a per-phase constant that is zero for `i == 0`.
    pub fn generate_phased(phases: &[ScenePhase], seed: u64, day: u32) -> Result<Self> {
        let Some(first) = phases.first() else {
            return Err(VideoError::InvalidConfig("at least one scene phase required".into()));
        };
        for phase in phases {
            phase.config.validate()?;
            if phase.num_frames == 0 {
                return Err(VideoError::InvalidConfig(
                    "every scene phase must contain at least one frame".into(),
                ));
            }
            if phase.config.width != first.config.width
                || phase.config.height != first.config.height
                || phase.config.fps != first.config.fps
            {
                return Err(VideoError::InvalidConfig(
                    "scene phases must share resolution and frame rate (drift changes the \
                     world, not the camera)"
                        .into(),
                ));
            }
        }
        let total: u64 = phases.iter().map(|p| p.num_frames).sum();
        let mut tracks: Vec<Track> = Vec::new();
        let mut next_id: TrackId = 1;
        let mut offset = 0u64;
        for (i, phase) in phases.iter().enumerate() {
            let phase_seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64);
            let segment = Self::generate(phase.config.clone(), phase_seed, day, phase.num_frames)?;
            for track in segment.tracks {
                tracks.push(Track {
                    id: next_id,
                    enter_frame: track.enter_frame + offset,
                    exit_frame: track.exit_frame + offset,
                    ..track
                });
                next_id += 1;
            }
            offset += phase.num_frames;
        }
        let bucket_index = Self::build_index(&tracks, total);
        Ok(SceneSimulator { config: first.config.clone(), num_frames: total, tracks, bucket_index })
    }

    fn build_index(tracks: &[Track], num_frames: u64) -> Vec<Vec<u32>> {
        let n_buckets = (num_frames / Self::BUCKET + 1) as usize;
        let mut index = vec![Vec::new(); n_buckets];
        for (i, t) in tracks.iter().enumerate() {
            let first = (t.enter_frame / Self::BUCKET) as usize;
            let last = (t.exit_frame / Self::BUCKET) as usize;
            for bucket in index.iter_mut().take(last.min(n_buckets - 1) + 1).skip(first) {
                bucket.push(i as u32);
            }
        }
        index
    }

    /// The scene configuration this simulator was generated from.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Number of frames in this day of video.
    pub fn num_frames(&self) -> u64 {
        self.num_frames
    }

    /// All generated tracks.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Ground-truth objects visible at `frame`.
    pub fn visible_at(&self, frame: u64) -> Vec<GroundTruthObject> {
        if frame >= self.num_frames {
            return Vec::new();
        }
        let bucket = (frame / Self::BUCKET) as usize;
        let mut out = Vec::new();
        if let Some(candidates) = self.bucket_index.get(bucket) {
            for &i in candidates {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "bucket_index stores indices of self.tracks entries, built in the \
                              same pass"
                )]
                if let Some(gt) = self.tracks[i as usize].ground_truth_at(
                    frame,
                    self.config.width,
                    self.config.height,
                ) {
                    out.push(gt);
                }
            }
        }
        // Stable order (by track id) so downstream consumers are deterministic.
        out.sort_by_key(|o| o.track_id);
        out
    }

    /// Count of visible objects of `class` at `frame`.
    pub fn count_at(&self, frame: u64, class: ObjectClass) -> usize {
        self.visible_at(frame).iter().filter(|o| o.class == class).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SceneConfig {
        SceneConfig {
            width: 1280.0,
            height: 720.0,
            fps: 30.0,
            classes: vec![ClassProfile::car(1.5, 2.0), ClassProfile::bus(0.15, 3.0, 0.2)],
            diurnal_amplitude: 0.3,
            day_variation: 0.25,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SceneSimulator::generate(small_config(), 42, 0, 5_000).unwrap();
        let b = SceneSimulator::generate(small_config(), 42, 0, 5_000).unwrap();
        assert_eq!(a.tracks(), b.tracks());
        assert_eq!(a.visible_at(1234), b.visible_at(1234));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SceneSimulator::generate(small_config(), 1, 0, 5_000).unwrap();
        let b = SceneSimulator::generate(small_config(), 2, 0, 5_000).unwrap();
        assert_ne!(a.tracks(), b.tracks());
    }

    #[test]
    fn different_days_differ() {
        let a = SceneSimulator::generate(small_config(), 7, 0, 5_000).unwrap();
        let b = SceneSimulator::generate(small_config(), 7, 1, 5_000).unwrap();
        assert_ne!(a.tracks(), b.tracks());
    }

    #[test]
    fn mean_concurrent_roughly_matches_littles_law() {
        let cfg = SceneConfig {
            classes: vec![ClassProfile::car(2.0, 3.0)],
            diurnal_amplitude: 0.0,
            day_variation: 0.0,
            ..small_config()
        };
        let sim = SceneSimulator::generate(cfg, 3, 0, 30_000).unwrap();
        let mut total = 0usize;
        let step = 37;
        let mut frames = 0usize;
        let mut f = 1000;
        while f < 29_000 {
            total += sim.count_at(f, ObjectClass::Car);
            frames += 1;
            f += step;
        }
        let mean = total as f64 / frames as f64;
        // Edge effects (objects leaving the field of view early) bias the count down a
        // little; accept a generous band around the configured mean of 2.0.
        assert!(mean > 1.0 && mean < 3.0, "mean concurrent cars was {mean}");
    }

    #[test]
    fn track_ids_unique() {
        let sim = SceneSimulator::generate(small_config(), 11, 0, 10_000).unwrap();
        let mut ids: Vec<_> = sim.tracks().iter().map(|t| t.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(before, ids.len());
    }

    #[test]
    fn visible_objects_within_bounds() {
        let sim = SceneSimulator::generate(small_config(), 5, 2, 8_000).unwrap();
        for f in (0..8_000).step_by(503) {
            for o in sim.visible_at(f) {
                assert!(o.bbox.xmin >= 0.0 && o.bbox.xmax <= 1280.0);
                assert!(o.bbox.ymin >= 0.0 && o.bbox.ymax <= 720.0);
                assert!(o.visibility > 0.0 && o.visibility <= 1.0);
            }
        }
    }

    #[test]
    fn out_of_range_frame_is_empty() {
        let sim = SceneSimulator::generate(small_config(), 5, 0, 1_000).unwrap();
        assert!(sim.visible_at(1_000).is_empty());
        assert!(sim.visible_at(50_000).is_empty());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = small_config();
        cfg.fps = 0.0;
        assert!(SceneSimulator::generate(cfg, 0, 0, 100).is_err());
        let mut cfg2 = small_config();
        cfg2.classes.clear();
        assert!(SceneSimulator::generate(cfg2, 0, 0, 100).is_err());
    }

    #[test]
    fn single_phase_matches_plain_generation_exactly() {
        let cfg = small_config();
        let plain = SceneSimulator::generate(cfg.clone(), 42, 2, 4_000).unwrap();
        let phased = SceneSimulator::generate_phased(
            &[ScenePhase { config: cfg, num_frames: 4_000 }],
            42,
            2,
        )
        .unwrap();
        assert_eq!(plain.tracks(), phased.tracks());
        assert_eq!(plain.visible_at(1777), phased.visible_at(1777));
    }

    #[test]
    fn phased_scene_shifts_the_distribution_at_the_boundary() {
        let calm = SceneConfig {
            classes: vec![ClassProfile::car(0.5, 2.0)],
            diurnal_amplitude: 0.0,
            day_variation: 0.0,
            ..small_config()
        };
        let busy = SceneConfig { classes: vec![ClassProfile::car(4.0, 2.0)], ..calm.clone() };
        let sim = SceneSimulator::generate_phased(
            &[
                ScenePhase { config: calm, num_frames: 6_000 },
                ScenePhase { config: busy, num_frames: 6_000 },
            ],
            9,
            2,
        )
        .unwrap();
        assert_eq!(sim.num_frames(), 12_000);
        let mean = |lo: u64, hi: u64| {
            let mut total = 0usize;
            let mut n = 0usize;
            let mut f = lo;
            while f < hi {
                total += sim.count_at(f, ObjectClass::Car);
                n += 1;
                f += 31;
            }
            total as f64 / n as f64
        };
        let before = mean(500, 5_500);
        let after = mean(6_500, 11_500);
        assert!(after > before * 2.0, "drift phase should be much busier: {before} -> {after}");
        // Tracks never cross the phase boundary, and ids stay unique.
        let mut ids: Vec<_> = sim.tracks().iter().map(|t| t.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(n, ids.len());
        for t in sim.tracks() {
            assert!(
                (t.enter_frame < 6_000) == (t.exit_frame < 6_000),
                "track {} crosses the phase boundary",
                t.id
            );
        }
    }

    #[test]
    fn phased_scene_rejects_camera_changes_and_empty_phases() {
        let cfg = small_config();
        assert!(SceneSimulator::generate_phased(&[], 1, 0).is_err());
        assert!(SceneSimulator::generate_phased(
            &[ScenePhase { config: cfg.clone(), num_frames: 0 }],
            1,
            0
        )
        .is_err());
        let mut other_camera = cfg.clone();
        other_camera.width = 1920.0;
        assert!(SceneSimulator::generate_phased(
            &[
                ScenePhase { config: cfg, num_frames: 100 },
                ScenePhase { config: other_camera, num_frames: 100 },
            ],
            1,
            0
        )
        .is_err());
    }

    #[test]
    fn day_multiplier_varies_by_day() {
        let cfg = small_config();
        let m0 = cfg.day_multiplier(0);
        let m1 = cfg.day_multiplier(1);
        let m2 = cfg.day_multiplier(2);
        assert!((m0 - m1).abs() > 1e-6 || (m1 - m2).abs() > 1e-6);
    }
}
