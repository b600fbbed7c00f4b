//! Per-video statistics: the quantities reported in Table 3 of the paper
//! (occupancy, average appearance duration, distinct object counts) plus the count
//! distributions the scrubbing experiments rely on.

use crate::object::ObjectClass;
use crate::video::Video;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Statistics about one object class in one day of video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// The object class.
    pub class: ObjectClass,
    /// Fraction of frames containing at least one object of the class.
    pub occupancy: f64,
    /// Average duration of an appearance (track length) in seconds.
    pub avg_duration_secs: f64,
    /// Number of distinct tracks of this class.
    pub distinct_count: u64,
    /// Mean number of objects of this class per frame (the FCOUNT ground truth).
    pub mean_per_frame: f64,
    /// Maximum per-frame count observed.
    pub max_per_frame: usize,
    /// Histogram of per-frame counts: `histogram[k]` = number of frames with exactly
    /// `k` objects of the class.
    pub count_histogram: Vec<u64>,
}

impl ClassStats {
    /// Number of frames with at least `n` objects of the class (the scrubbing-query
    /// "instances" count of Table 6).
    pub fn frames_with_at_least(&self, n: usize) -> u64 {
        self.count_histogram.iter().skip(n).sum()
    }

    /// The largest count threshold `n` for which at least `min_instances` frames have
    /// `>= n` objects. Returns `None` if even `n = 1` is too rare.
    ///
    /// The paper "selected rare events with at least 10 instances" (Table 6); this
    /// helper performs that selection against the synthetic streams.
    pub fn rare_event_threshold(&self, min_instances: u64) -> Option<usize> {
        (1..=self.max_per_frame).rev().find(|&n| self.frames_with_at_least(n) >= min_instances)
    }
}

/// Statistics for a whole day of video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoStats {
    /// Stream name.
    pub name: String,
    /// Number of frames analyzed.
    pub num_frames: u64,
    /// Frames per second.
    pub fps: f64,
    /// Length in hours.
    pub length_hours: f64,
    /// Per-class statistics, keyed by class name for stable serialization.
    pub classes: BTreeMap<String, ClassStats>,
}

impl VideoStats {
    /// Computes statistics over every frame of the video's ground truth.
    ///
    /// This scans ground-truth object counts (not pixels), so it is cheap even for
    /// hundreds of thousands of frames.
    pub fn compute(video: &Video) -> VideoStats {
        Self::compute_classes(video, &ObjectClass::ALL)
    }

    /// Computes statistics for a subset of classes.
    pub fn compute_classes(video: &Video, classes: &[ObjectClass]) -> VideoStats {
        let num_frames = video.len();
        let fps = video.fps();
        let mut per_class: BTreeMap<ObjectClass, (Vec<u64>, u64)> = BTreeMap::new();
        for &c in classes {
            per_class.insert(c, (Vec::new(), 0));
        }

        // Count per frame.
        let mut frame_counts: BTreeMap<ObjectClass, Vec<u64>> =
            classes.iter().map(|&c| (c, vec![0u64; 1])).collect();
        let mut occupied: BTreeMap<ObjectClass, u64> = classes.iter().map(|&c| (c, 0)).collect();
        let mut total: BTreeMap<ObjectClass, u64> = classes.iter().map(|&c| (c, 0)).collect();

        for f in 0..num_frames {
            let objects = video.scene().visible_at(f);
            #[expect(
                clippy::indexing_slicing,
                reason = "the resize directly above guarantees hist.len() > count"
            )]
            for &c in classes {
                let count = objects.iter().filter(|o| o.class == c).count();
                let hist = frame_counts.entry(c).or_default();
                if count >= hist.len() {
                    hist.resize(count + 1, 0);
                }
                hist[count] += 1;
                if count > 0 {
                    *occupied.entry(c).or_default() += 1;
                }
                *total.entry(c).or_default() += count as u64;
            }
        }

        // Track durations and distinct counts from the ground-truth tracks.
        for track in video.tracks() {
            if let Some(entry) = per_class.get_mut(&track.class) {
                entry.0.push(track.duration_frames());
                entry.1 += 1;
            }
        }

        let mut out = BTreeMap::new();
        for &c in classes {
            let hist = frame_counts.remove(&c).unwrap_or_default();
            let (durations, distinct) = per_class.remove(&c).unwrap_or((Vec::new(), 0));
            let avg_duration_frames = if durations.is_empty() {
                0.0
            } else {
                durations.iter().sum::<u64>() as f64 / durations.len() as f64
            };
            let occ = occupied.get(&c).copied().unwrap_or(0) as f64 / num_frames.max(1) as f64;
            let mean = total.get(&c).copied().unwrap_or(0) as f64 / num_frames.max(1) as f64;
            let max_per_frame = hist.len().saturating_sub(1);
            out.insert(
                c.name().to_string(),
                ClassStats {
                    class: c,
                    occupancy: occ,
                    avg_duration_secs: avg_duration_frames / fps,
                    distinct_count: distinct,
                    mean_per_frame: mean,
                    max_per_frame,
                    count_histogram: hist,
                },
            );
        }

        VideoStats {
            name: video.name().to_string(),
            num_frames,
            fps,
            length_hours: num_frames as f64 / fps / 3600.0,
            classes: out,
        }
    }

    /// Statistics for one class, if computed.
    pub fn class(&self, class: ObjectClass) -> Option<&ClassStats> {
        self.classes.get(class.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{DatasetPreset, DAY_TEST};

    #[test]
    fn stats_on_taipei_sample() {
        let video = DatasetPreset::Taipei.generate_with_frames(DAY_TEST, 6_000).unwrap();
        let stats = VideoStats::compute_classes(&video, &[ObjectClass::Car, ObjectClass::Bus]);
        let car = stats.class(ObjectClass::Car).unwrap();
        let bus = stats.class(ObjectClass::Bus).unwrap();
        // Cars are common, buses are rarer, as in Table 3.
        assert!(car.occupancy > bus.occupancy);
        assert!(car.occupancy > 0.3, "car occupancy {}", car.occupancy);
        assert!(bus.occupancy < 0.4, "bus occupancy {}", bus.occupancy);
        assert!(car.distinct_count > bus.distinct_count);
        assert!(car.mean_per_frame > 0.2);
        // Histogram sums to the number of frames.
        assert_eq!(car.count_histogram.iter().sum::<u64>(), 6_000);
    }

    #[test]
    fn frames_with_at_least_is_monotone() {
        let video = DatasetPreset::Amsterdam.generate_with_frames(DAY_TEST, 4_000).unwrap();
        let stats = VideoStats::compute_classes(&video, &[ObjectClass::Car]);
        let car = stats.class(ObjectClass::Car).unwrap();
        let mut prev = u64::MAX;
        for n in 0..=car.max_per_frame {
            let cur = car.frames_with_at_least(n);
            assert!(cur <= prev);
            prev = cur;
        }
        assert_eq!(car.frames_with_at_least(0), 4_000);
    }

    #[test]
    fn rare_event_threshold_has_enough_instances() {
        let video = DatasetPreset::Rialto.generate_with_frames(DAY_TEST, 8_000).unwrap();
        let stats = VideoStats::compute_classes(&video, &[ObjectClass::Boat]);
        let boat = stats.class(ObjectClass::Boat).unwrap();
        if let Some(n) = boat.rare_event_threshold(20) {
            assert!(boat.frames_with_at_least(n) >= 20);
            // And the next-higher threshold must be rarer than 20 (or impossible).
            assert!(n == boat.max_per_frame || boat.frames_with_at_least(n + 1) < 20);
        }
    }

    #[test]
    fn length_hours_consistent() {
        let video = DatasetPreset::Taipei.generate_with_frames(DAY_TEST, 3_600 * 30).unwrap();
        let stats = VideoStats::compute_classes(&video, &[ObjectClass::Car]);
        assert!((stats.length_hours - 1.0).abs() < 1e-9);
    }
}
