//! Entity resolution: the motion-IoU tracker.
//!
//! Section 9 of the paper: "Given the set of objects in two consecutive frames, we
//! compute the pairwise IoU of each object in the two frames. We use a cutoff of 0.7 to
//! call an object the same across consecutive frames." The tracker below implements
//! exactly that, assigning a fresh `trackid` whenever no previous-frame detection of the
//! same class overlaps enough. Tracks also expire if not observed for a configurable
//! number of frames (so subsampled scans still resolve slow objects).

use crate::detector::Detection;
use blazeit_videostore::FrameIndex;
use serde::{Deserialize, Serialize};

/// A detection annotated with the track id assigned by the tracker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackedDetection {
    /// The tracker-assigned identifier (FrameQL's `trackid`).
    pub track_id: u64,
    /// The underlying detection.
    pub detection: Detection,
}

#[derive(Debug, Clone)]
struct ActiveTrack {
    id: u64,
    last_frame: FrameIndex,
    last: Detection,
}

/// The motion-IoU entity-resolution method.
#[derive(Debug, Clone)]
pub struct IouTracker {
    iou_threshold: f32,
    max_gap_frames: u64,
    next_id: u64,
    active: Vec<ActiveTrack>,
}

impl Default for IouTracker {
    fn default() -> Self {
        IouTracker::new(0.7, 1)
    }
}

impl IouTracker {
    /// Creates a tracker with an IoU threshold and a maximum frame gap.
    ///
    /// `max_gap_frames = 1` is the paper's consecutive-frame matching; larger values
    /// let the tracker bridge subsampled scans.
    pub fn new(iou_threshold: f32, max_gap_frames: u64) -> Self {
        IouTracker { iou_threshold, max_gap_frames, next_id: 1, active: Vec::new() }
    }

    /// The IoU threshold used to match detections across frames.
    pub fn iou_threshold(&self) -> f32 {
        self.iou_threshold
    }

    /// Number of distinct track ids assigned so far.
    pub fn tracks_created(&self) -> u64 {
        self.next_id - 1
    }

    /// Processes the detections of `frame` (which must be non-decreasing across calls)
    /// and returns them annotated with track ids.
    pub fn update(&mut self, frame: FrameIndex, detections: &[Detection]) -> Vec<TrackedDetection> {
        // Expire stale tracks.
        let max_gap = self.max_gap_frames;
        self.active.retain(|t| frame.saturating_sub(t.last_frame) <= max_gap);

        let mut used_tracks = vec![false; self.active.len()];
        let mut out = Vec::with_capacity(detections.len());

        for det in detections {
            // Greedy best-IoU match against unconsumed active tracks of the same class.
            let mut best: Option<(usize, f32)> = None;
            for (i, track) in self.active.iter().enumerate() {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "i comes from enumerating self.active, so it indexes the same vec"
                )]
                if used_tracks[i] || track.last.class != det.class || track.last_frame >= frame {
                    continue;
                }
                let iou = track.last.bbox.iou(&det.bbox);
                if iou >= self.iou_threshold && best.map(|(_, b)| iou > b).unwrap_or(true) {
                    best = Some((i, iou));
                }
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "used_tracks is sized active.len() and i enumerates active; i comes from \
                          enumerating self.active, so it indexes the same vec"
            )]
            let id = match best {
                Some((i, _)) => {
                    used_tracks[i] = true;
                    self.active[i].id
                }
                None => {
                    let id = self.next_id;
                    self.next_id += 1;
                    id
                }
            };
            out.push(TrackedDetection { track_id: id, detection: det.clone() });
        }

        // Update / insert active tracks from this frame's assignments.
        for td in &out {
            match self.active.iter_mut().find(|t| t.id == td.track_id) {
                Some(t) => {
                    t.last_frame = frame;
                    t.last = td.detection.clone();
                }
                None => self.active.push(ActiveTrack {
                    id: td.track_id,
                    last_frame: frame,
                    last: td.detection.clone(),
                }),
            }
        }
        out
    }

    /// Resets the tracker, forgetting all active tracks (ids keep incrementing so
    /// track ids remain globally unique within a session).
    pub fn reset(&mut self) {
        self.active.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazeit_videostore::{BoundingBox, ObjectClass};

    fn det(class: ObjectClass, x: f32) -> Detection {
        Detection::new(class, BoundingBox::new(x, 100.0, x + 100.0, 200.0), 0.9)
    }

    #[test]
    fn same_object_keeps_its_id() {
        let mut tracker = IouTracker::default();
        let a = tracker.update(0, &[det(ObjectClass::Car, 100.0)]);
        let b = tracker.update(1, &[det(ObjectClass::Car, 105.0)]);
        assert_eq!(a[0].track_id, b[0].track_id);
        assert_eq!(tracker.tracks_created(), 1);
    }

    #[test]
    fn far_apart_objects_get_new_ids() {
        let mut tracker = IouTracker::default();
        let a = tracker.update(0, &[det(ObjectClass::Car, 100.0)]);
        let b = tracker.update(1, &[det(ObjectClass::Car, 700.0)]);
        assert_ne!(a[0].track_id, b[0].track_id);
        assert_eq!(tracker.tracks_created(), 2);
    }

    #[test]
    fn different_classes_never_match() {
        let mut tracker = IouTracker::default();
        let a = tracker.update(0, &[det(ObjectClass::Car, 100.0)]);
        let b = tracker.update(1, &[det(ObjectClass::Bus, 100.0)]);
        assert_ne!(a[0].track_id, b[0].track_id);
    }

    #[test]
    fn track_expires_after_gap() {
        let mut tracker = IouTracker::new(0.7, 1);
        let a = tracker.update(0, &[det(ObjectClass::Car, 100.0)]);
        // Nothing at frames 1-2; object reappears at frame 3 in the same place.
        let b = tracker.update(3, &[det(ObjectClass::Car, 100.0)]);
        assert_ne!(a[0].track_id, b[0].track_id, "expired track must not be revived");
    }

    #[test]
    fn larger_gap_allowance_bridges_subsampling() {
        let mut tracker = IouTracker::new(0.7, 10);
        let a = tracker.update(0, &[det(ObjectClass::Car, 100.0)]);
        let b = tracker.update(7, &[det(ObjectClass::Car, 102.0)]);
        assert_eq!(a[0].track_id, b[0].track_id);
    }

    #[test]
    fn two_objects_tracked_independently() {
        let mut tracker = IouTracker::default();
        let frame0 = vec![det(ObjectClass::Car, 100.0), det(ObjectClass::Car, 600.0)];
        let frame1 = vec![det(ObjectClass::Car, 605.0), det(ObjectClass::Car, 103.0)];
        let a = tracker.update(0, &frame0);
        let b = tracker.update(1, &frame1);
        assert_eq!(a[0].track_id, b[1].track_id);
        assert_eq!(a[1].track_id, b[0].track_id);
        assert_eq!(tracker.tracks_created(), 2);
    }

    #[test]
    fn reset_forgets_active_tracks() {
        let mut tracker = IouTracker::default();
        let a = tracker.update(0, &[det(ObjectClass::Car, 100.0)]);
        tracker.reset();
        let b = tracker.update(1, &[det(ObjectClass::Car, 100.0)]);
        assert_ne!(a[0].track_id, b[0].track_id);
    }

    #[test]
    fn one_track_not_matched_twice_in_a_frame() {
        let mut tracker = IouTracker::default();
        tracker.update(0, &[det(ObjectClass::Car, 100.0)]);
        // Two nearly identical detections in the next frame: only one may inherit the id.
        let out = tracker.update(1, &[det(ObjectClass::Car, 101.0), det(ObjectClass::Car, 99.0)]);
        assert_ne!(out[0].track_id, out[1].track_id);
    }
}
