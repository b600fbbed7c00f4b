//! The baselines every experiment in the paper compares against.
//!
//! * **Naive**: run the object detector on every frame. For aggregates this is the
//!   planner's `ExactScan` strategy (its executor body lives here, crate-private); for
//!   scrubbing it is the `ScrubScan` strategy (scan sequentially until the requested
//!   number of events is found), run by the scrub executor like every scrub.
//! * **NoScope (oracle)**: a strictly-more-powerful idealization of NoScope — an oracle
//!   that knows, for free, whether each frame contains at least one object of a class.
//!   The detector is then only run on frames the oracle says are occupied (Section
//!   10.1.1 of the paper). Because NoScope cannot count or localize, every occupied
//!   frame still needs full detection for counting / scrubbing / selection queries.
//! * **Naive AQP** is the planner's `NaiveSampling` strategy ([`crate::aggregate`]).
//!
//! A plan the optimizer would not pick is measured by overriding the prepared query's
//! sub-plan (`PreparedQuery::plan_mut`) and running it, so every BlazeIt-side number
//! comes through the one executor path the planner drives.
//!
//! The functions here also provide *oracle* (uncharged) ground-truth computations used
//! by harnesses and tests to measure accuracy without perturbing the cost accounting.

use crate::context::VideoContext;
use crate::relation::RelationBuilder;
use crate::{BlazeItError, Result};
use blazeit_detect::{
    count_class, CountVector, Detection, ObjectDetector, SimClock, SimulatedDetector,
};
use blazeit_frameql::query::ClassRequirement;
use blazeit_videostore::{FrameIndex, ObjectClass, Video};
use std::collections::BTreeSet;

/// How many frames each full-scan baseline hands to [`ObjectDetector::detect_batch`]
/// at a time. Large enough to amortize per-call bookkeeping, small enough to keep
/// per-chunk detection buffers modest.
const DETECT_CHUNK: usize = 1024;

/// Converts plan requirements into `(class, min_count)` pairs.
pub fn requirement_pairs(requirements: &[ClassRequirement]) -> Vec<(ObjectClass, usize)> {
    requirements.iter().map(|r| (r.class, r.min_count)).collect()
}

/// Runs `visit(frame, detections)` over `frames` in detection batches of
/// [`DETECT_CHUNK`], using `detector`. The shared driver behind every full-scan
/// baseline: detection is batched, while the visitor (counting, tracking, row
/// materialization) stays sequential and order-preserving.
fn scan_detections(
    detector: &dyn ObjectDetector,
    video: &Video,
    frames: &[FrameIndex],
    mut visit: impl FnMut(FrameIndex, &[Detection]),
) {
    for chunk in frames.chunks(DETECT_CHUNK) {
        let batch = detector.detect_batch(video, chunk);
        for (&frame, detections) in chunk.iter().zip(&batch) {
            visit(frame, detections);
        }
    }
}

fn all_frames(video: &Video) -> Vec<FrameIndex> {
    (0..video.len()).collect()
}

fn count_for(detections: &[Detection], class: Option<ObjectClass>) -> usize {
    match class {
        Some(c) => count_class(detections, c),
        None => detections.len(),
    }
}

/// Naive exact FCOUNT: object detection on every frame (in batches).
/// Returns `(fcount, frames averaged over, detector calls)`.
pub(crate) fn naive_fcount(
    ctx: &VideoContext,
    class: Option<ObjectClass>,
) -> Result<(f64, u64, u64)> {
    let video = ctx.video();
    let video = &*video;
    let mut total = 0usize;
    scan_detections(ctx.detector(), video, &all_frames(video), |_, detections| {
        total += count_for(detections, class);
    });
    Ok((total as f64 / video.len().max(1) as f64, video.len(), video.len()))
}

/// NoScope-oracle FCOUNT: the binary-presence oracle is free, and the detector is run
/// (in batches) only on frames that contain at least one object of the class (it must
/// be, because NoScope cannot distinguish one object from several).
/// Returns `(fcount, detector calls)`.
pub fn noscope_fcount(ctx: &VideoContext, class: ObjectClass) -> Result<(f64, u64)> {
    let video = ctx.video();
    let video = &*video;
    let occupied: Vec<FrameIndex> =
        (0..video.len()).filter(|&f| video.scene().count_at(f, class) > 0).collect();
    let mut total = 0usize;
    scan_detections(ctx.detector(), video, &occupied, |_, detections| {
        total += count_class(detections, class);
    });
    Ok((total as f64 / video.len().max(1) as f64, occupied.len() as u64))
}

/// Ground-truth FCOUNT relative to the configured detector, computed *without charging
/// the shared clock* (for accuracy evaluation only). Returns `(fcount, frames scanned)`.
pub fn oracle_fcount(ctx: &VideoContext, class: Option<ObjectClass>) -> (f64, u64) {
    let offline = SimClock::new();
    let detector = SimulatedDetector::new(
        ctx.config().detection_method,
        ctx.config().detection_threshold,
        offline,
    );
    let video = ctx.video();
    let video = &*video;
    let mut total = 0usize;
    scan_detections(&detector, video, &all_frames(video), |_, detections| {
        total += count_for(detections, class);
    });
    (total as f64 / video.len().max(1) as f64, video.len())
}

/// Per-frame detector counts for the whole unseen video, computed without charging the
/// ctx clock. Used by harnesses to find ground-truth event frames.
pub fn oracle_counts(ctx: &VideoContext, video: &Video) -> Vec<CountVector> {
    let offline = SimClock::new();
    let detector = SimulatedDetector::new(
        ctx.config().detection_method,
        ctx.config().detection_threshold,
        offline,
    );
    let mut counts = Vec::with_capacity(video.len() as usize);
    scan_detections(&detector, video, &all_frames(video), |_, detections| {
        counts.push(CountVector::from_detections(detections));
    });
    counts
}

/// Exact `COUNT(DISTINCT trackid)`: batched detection + sequential entity resolution
/// over every frame. Returns `(distinct track count, detector calls)`.
pub(crate) fn exact_distinct_count(
    ctx: &VideoContext,
    class: Option<ObjectClass>,
) -> Result<(f64, u64)> {
    let video = ctx.video();
    let video = &*video;
    let mut builder = RelationBuilder::new(ctx.detector(), ctx.config().tracker_iou, 1);
    let mut tracks: BTreeSet<u64> = BTreeSet::new();
    scan_detections(ctx.detector(), video, &all_frames(video), |frame, detections| {
        for row in builder.rows_for_detections(video, frame, detections) {
            if class.map(|c| c == row.class).unwrap_or(true) {
                tracks.insert(row.trackid);
            }
        }
    });
    Ok((tracks.len() as f64, video.len()))
}

/// Checks the GAP constraint: `frame` must be at least `gap` frames from every frame
/// already accepted.
pub fn respects_gap(accepted: &[FrameIndex], frame: FrameIndex, gap: u64) -> bool {
    accepted.iter().all(|&a| a.abs_diff(frame) >= gap)
}

/// NoScope-oracle scrubbing: like the naive scan (the planner's `ScrubScan` strategy,
/// detector on every frame in order until `limit` frames satisfy the requirements
/// and the GAP constraint), but frames lacking binary presence of *any* required
/// class are skipped for free. Returns `(matching frames, detector calls)`.
pub fn noscope_scrub(
    ctx: &VideoContext,
    requirements: &[(ObjectClass, usize)],
    limit: u64,
    gap: u64,
) -> Result<(Vec<FrameIndex>, u64)> {
    if requirements.is_empty() {
        return Err(BlazeItError::Unsupported("scrubbing requires class requirements".into()));
    }
    let video = ctx.video();
    let video = &*video;
    let mut accepted = Vec::new();
    let mut calls = 0u64;
    for frame in 0..video.len() {
        if accepted.len() as u64 >= limit {
            break;
        }
        if !respects_gap(&accepted, frame, gap) {
            continue;
        }
        // Free binary-presence oracle: every required class must be present at all.
        let present =
            requirements.iter().all(|&(class, _)| video.scene().count_at(frame, class) > 0);
        if !present {
            continue;
        }
        let detections = ctx.detector().detect(video, frame);
        calls += 1;
        let counts = CountVector::from_detections(&detections);
        if counts.satisfies_all(requirements) {
            accepted.push(frame);
        }
    }
    Ok((accepted, calls))
}

/// NoScope-oracle selection: batched detection + sequential tracking only on frames
/// where the class is present (binary presence known for free).
pub fn noscope_selection_scan(
    ctx: &VideoContext,
    class: ObjectClass,
) -> Result<(Vec<blazeit_frameql::FrameQlRow>, u64)> {
    let video = ctx.video();
    let video = &*video;
    let occupied: Vec<FrameIndex> =
        (0..video.len()).filter(|&f| video.scene().count_at(f, class) > 0).collect();
    let mut builder = RelationBuilder::new(ctx.detector(), ctx.config().tracker_iou, 1);
    let mut rows = Vec::new();
    scan_detections(ctx.detector(), video, &occupied, |frame, detections| {
        for row in builder.rows_for_detections(video, frame, detections) {
            if row.class == class {
                rows.push(row);
            }
        }
    });
    Ok((rows, occupied.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::plan::{PlanStrategy, VideoPlan};
    use crate::session::run_edited;
    use blazeit_videostore::DatasetPreset;
    use std::sync::Arc;

    fn engine() -> Arc<VideoContext> {
        Catalog::one_video(DatasetPreset::Taipei, 1_200).1
    }

    #[test]
    fn naive_fcount_charges_every_frame() {
        let e = engine();
        let before = e.clock().breakdown().detection;
        let (fcount, frames, calls) = naive_fcount(&e, Some(ObjectClass::Car)).unwrap();
        assert_eq!((frames, calls), (1_200, 1_200));
        assert!(fcount > 0.0);
        let charged = e.clock().breakdown().detection - before;
        let per_frame = e.detector().cost_per_frame(&e.video());
        assert!((charged - 1_200.0 * per_frame).abs() < 1e-6);
    }

    #[test]
    fn noscope_fcount_is_cheaper_and_close() {
        let e = engine();
        let (naive_value, _, naive_calls) = naive_fcount(&e, Some(ObjectClass::Car)).unwrap();
        let (ns_value, ns_calls) = noscope_fcount(&e, ObjectClass::Car).unwrap();
        assert!(ns_calls < naive_calls);
        // The oracle skips only truly-empty frames; small differences can arise from
        // spurious detections on empty frames, which are rare.
        assert!((naive_value - ns_value).abs() < 0.1, "{naive_value} vs {ns_value}");
    }

    #[test]
    fn oracle_fcount_does_not_charge_clock() {
        let e = engine();
        let before = e.clock().total();
        let (value, _) = oracle_fcount(&e, Some(ObjectClass::Car));
        assert!(value > 0.0);
        assert_eq!(e.clock().total(), before);
    }

    #[test]
    fn gap_constraint_checker() {
        assert!(respects_gap(&[], 100, 50));
        assert!(respects_gap(&[10], 100, 50));
        assert!(!respects_gap(&[80], 100, 50));
        assert!(respects_gap(&[80], 100, 20));
    }

    /// The naive scan scrub: the planner's scan strategy, forced.
    fn scan_scrub(catalog: &Catalog, class: &str, limit: u64, gap: u64) -> (Vec<FrameIndex>, u64) {
        let sql = format!(
            "SELECT timestamp FROM taipei GROUP BY timestamp \
             HAVING SUM(class='{class}') >= 1 LIMIT {limit} GAP {gap}"
        );
        let scan = |sub: &mut VideoPlan| sub.strategy = PlanStrategy::ScrubScan;
        let output = run_edited(catalog, &sql, scan).unwrap().output;
        (output.frames().unwrap().to_vec(), output.detection_calls())
    }

    #[test]
    fn naive_scrub_finds_events_in_order_with_gap() {
        let (catalog, _) = Catalog::one_video(DatasetPreset::Taipei, 1_200);
        let (frames, calls) = scan_scrub(&catalog, "car", 5, 30);
        assert!(frames.len() <= 5);
        assert!(calls >= frames.len() as u64);
        let mut sorted = frames.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, frames, "naive scan returns frames in order");
        for pair in frames.windows(2) {
            assert!(pair[1] - pair[0] >= 30);
        }
    }

    #[test]
    fn noscope_scrub_uses_no_more_calls_than_naive() {
        let (catalog, e) = Catalog::one_video(DatasetPreset::Taipei, 1_200);
        let (naive_frames, naive_calls) = scan_scrub(&catalog, "bus", 3, 30);
        let (ns_frames, ns_calls) = noscope_scrub(&e, &[(ObjectClass::Bus, 1)], 3, 30).unwrap();
        assert!(ns_calls <= naive_calls);
        // Both must find (roughly) the same events; the oracle only skips frames with
        // no bus at all.
        assert_eq!(naive_frames.len(), ns_frames.len());
    }

    #[test]
    fn scrub_requires_requirements() {
        let e = engine();
        assert!(noscope_scrub(&e, &[], 3, 0).is_err());
    }

    #[test]
    fn selection_scans_filter_by_class() {
        let e = engine();
        let (rows, calls) = noscope_selection_scan(&e, ObjectClass::Bus).unwrap();
        assert!(calls < e.video().len());
        assert!(rows.iter().all(|r| r.class == ObjectClass::Bus));
    }
}
