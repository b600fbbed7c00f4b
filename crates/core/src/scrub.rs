//! Cardinality-limited scrubbing queries (Section 7 of the paper).
//!
//! The user asks for up to `LIMIT` frames containing a (possibly multi-class) rare
//! event, e.g. "at least one bus and at least five cars", with returned frames at least
//! `GAP` frames apart. Scanning sequentially or sampling uniformly is hopeless for rare
//! events, so BlazeIt adapts importance sampling from rare-event simulation: a
//! specialized NN scores every unseen frame with the probability that it satisfies the
//! predicate, frames are visited in descending confidence order, and the expensive
//! detector only verifies the most promising candidates until the requested number of
//! true positives is found. Only detector-verified frames are returned, so the result
//! contains no false positives (the paper reports only runtime for these queries).

use crate::baselines::{requirement_pairs, respects_gap};
use crate::context::VideoContext;
use crate::obs;
use crate::plan::{heads_for, PlanStrategy, VideoPlan};
use crate::result::{QueryOutput, SourcedFrame};
use crate::{baselines, BlazeItError, Result};
use blazeit_detect::{CountVector, ObjectDetector};
use blazeit_frameql::query::QueryPlanInfo;
use blazeit_nn::specialized::SpecializedNN;
use blazeit_videostore::{FrameIndex, ObjectClass};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Options for a scrubbing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubOptions {
    /// Maximum number of frames to return.
    pub limit: u64,
    /// Minimum spacing between returned frames.
    pub gap: u64,
}

/// The outcome of a scrubbing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScrubOutcome {
    /// Frames satisfying the predicate, in the order they were verified.
    pub frames: Vec<FrameIndex>,
    /// Number of detector invocations (the "sample complexity" of Figures 7 and 9).
    pub detection_calls: u64,
    /// Number of frames scored by the specialized NN (the whole unseen video unless a
    /// pre-built index was supplied).
    pub frames_scored: u64,
}

/// Executes a scrubbing query against one video, following the strategy the planner
/// resolved into its sub-plan.
pub fn execute(ctx: &VideoContext, info: &QueryPlanInfo, plan: &VideoPlan) -> Result<QueryOutput> {
    let requirements = requirement_pairs(&info.requirements);
    let opts = plan
        .scrub
        .ok_or_else(|| BlazeItError::Internal("scrub plan carries no scrub options".into()))?;

    match &plan.strategy {
        // Section 7.1: with no training examples of the event, fall back to scanning
        // (our NoScope-oracle analogue would be cheating here, so the naive scan is
        // the conservative fallback).
        PlanStrategy::ScrubScan => {
            let (frames, calls) = baselines::naive_scrub(ctx, &requirements, opts.limit, opts.gap)?;
            Ok(QueryOutput::Frames { frames, detection_calls: calls })
        }
        PlanStrategy::ScrubRanked => {
            let nn = ctx.specialized_for(&plan.heads)?;
            let ranked = score_frames(ctx, &nn, &requirements)?;
            let outcome =
                verify_ranked_with_budget(ctx, &ranked, &requirements, opts, plan.detection_budget);
            Ok(QueryOutput::Frames {
                frames: outcome.frames,
                detection_calls: outcome.detection_calls,
            })
        }
        other => Err(BlazeItError::Internal(format!(
            "scrub::execute called with non-scrub strategy {other:?}"
        ))),
    }
}

/// Trains (or fetches from cache) the multi-head counting NN the planner would pick
/// for a set of requirements (`plan::heads_for`) — the harness entry that runs without a
/// [`VideoPlan`].
pub fn specialized_for_requirements(
    ctx: &VideoContext,
    requirements: &[(ObjectClass, usize)],
) -> Result<Arc<SpecializedNN>> {
    ctx.specialized_for(&heads_for(ctx, requirements))
}

/// Scores every frame of the unseen video with the specialized NN's confidence that it
/// satisfies the requirements, returning `(frame, confidence)` pairs sorted by
/// descending confidence.
///
/// The per-frame scores come from the context's cached batched score index (the
/// "index" the paper's BlazeIt (indexed) variant assumes already exists): the first
/// query per class set builds it with [`SpecializedNN::score_video`] and charges the
/// inference cost to the shared clock; repeated queries rank from the cache for free.
pub fn score_frames(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    requirements: &[(ObjectClass, usize)],
) -> Result<Vec<(FrameIndex, f64)>> {
    let head_requirements: Vec<(usize, usize)> = requirements
        .iter()
        .map(|&(class, n)| {
            nn.head_index(class)
                .map(|head| (head, n))
                .ok_or_else(|| BlazeItError::Internal(format!("no head for class {class}")))
        })
        .collect::<Result<_>>()?;
    let scores = ctx.score_index(nn)?;
    let mut scored: Vec<(FrameIndex, f64)> = (0..scores.num_frames())
        .map(|frame| {
            (frame as FrameIndex, scores.requirement_confidence(frame, &head_requirements))
        })
        .collect();
    // Descending by confidence (NaN-safe total order); ties broken by frame index
    // for determinism.
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(scored)
}

/// How many candidate frames the verification loop hands to
/// [`ObjectDetector::detect_batch`] at a time. Small enough that the early-exit
/// (`LIMIT`) semantics keep a tight leash on wasted work, large enough to amortize
/// per-call bookkeeping.
const VERIFY_PREFETCH: usize = 16;

/// Verifies candidate frames (already ranked by confidence) with the detector until
/// `limit` satisfying frames are found, respecting `gap`.
pub fn verify_ranked(
    ctx: &VideoContext,
    ranked: &[(FrameIndex, f64)],
    requirements: &[(ObjectClass, usize)],
    opts: ScrubOptions,
) -> ScrubOutcome {
    verify_ranked_with_budget(ctx, ranked, requirements, opts, None)
}

/// Like [`verify_ranked`], with an optional hard cap on detector invocations (the
/// plan's detection budget).
///
/// Detection runs through a small pipelined prefetch window over
/// [`ObjectDetector::detect_batch`], constructed so the verified frames, their order,
/// and the number of charged detector calls are *identical* to the frame-by-frame
/// loop: a window only ever contains frames the serial loop was guaranteed to reach —
/// each window frame respects the gap against every already-accepted frame *and*
/// against every earlier frame in the same window (so no in-window acceptance can
/// retroactively disqualify it), and the window never exceeds the remaining limit (so
/// the early exit cannot fire mid-window).
pub fn verify_ranked_with_budget(
    ctx: &VideoContext,
    ranked: &[(FrameIndex, f64)],
    requirements: &[(ObjectClass, usize)],
    opts: ScrubOptions,
    budget: Option<u64>,
) -> ScrubOutcome {
    let videos = [VerifyVideo { ctx, requirements }];
    let order: Vec<(usize, FrameIndex)> = ranked.iter().map(|&(frame, _)| (0, frame)).collect();
    let (accepted, calls) = verify_windowed(&videos, &order, opts, budget);
    ScrubOutcome {
        frames: accepted.into_iter().map(|(_, frame)| frame).collect(),
        detection_calls: calls,
        frames_scored: ranked.len() as u64,
    }
}

/// One video's inputs to the shared windowed verification loop.
struct VerifyVideo<'a> {
    ctx: &'a VideoContext,
    requirements: &'a [(ObjectClass, usize)],
}

/// The windowed verification loop shared by single-video ranked verification and the
/// multi-video global-limit merge: walks `order` (a `(video index, frame)` visit
/// sequence), verifying through per-video [`ObjectDetector::detect_batch`] prefetch
/// windows until `opts.limit` frames are accepted or `budget` detector calls are
/// spent. Returns the accepted `(video index, frame)` pairs in acceptance order and
/// the number of charged calls.
///
/// The window rules make the outcome *identical* to a frame-by-frame walk of
/// `order`: a window only ever contains consecutive candidates of one video, each
/// respecting the gap against that video's already-accepted frames **and** against
/// every earlier frame in the same window (so no in-window acceptance can
/// retroactively disqualify it), and the window never exceeds the remaining limit or
/// budget (so the early exit cannot fire mid-window). `GAP` binds within a video
/// only; frames of different videos are never temporally related.
fn verify_windowed(
    videos: &[VerifyVideo<'_>],
    order: &[(usize, FrameIndex)],
    opts: ScrubOptions,
    budget: Option<u64>,
) -> (Vec<(usize, FrameIndex)>, u64) {
    let _verify = obs::span("detect-verify");
    let mut accepted: Vec<(usize, FrameIndex)> = Vec::new();
    let mut accepted_per_video: Vec<Vec<FrameIndex>> = videos.iter().map(|_| Vec::new()).collect();
    let mut calls = 0u64;
    let mut cursor = 0usize;
    let mut window: Vec<FrameIndex> = Vec::with_capacity(VERIFY_PREFETCH);

    while cursor < order.len() && (accepted.len() as u64) < opts.limit {
        let remaining_limit = (opts.limit - accepted.len() as u64) as usize;
        let remaining_budget = match budget {
            Some(b) if b <= calls => break,
            Some(b) => (b - calls) as usize,
            None => usize::MAX,
        };
        let cap = VERIFY_PREFETCH.min(remaining_limit).min(remaining_budget);
        // blazeit-lint: allow(panic-site::index) -- cursor < order.len() is the enclosing loop's
        // guard
        let video_idx = order[cursor].0;
        // blazeit-lint: allow(panic-site::index) -- video_idx comes from order, built by
        // enumerating this same videos slice
        let video = &videos[video_idx];

        window.clear();
        // blazeit-lint: allow(panic-site::index) -- the && short-circuit re-checks cursor <
        // order.len() before indexing
        while cursor < order.len() && window.len() < cap && order[cursor].0 == video_idx {
            // blazeit-lint: allow(panic-site::index) -- the while condition above just re-validated
            // cursor < order.len()
            let frame = order[cursor].1;
            // blazeit-lint: allow(panic-site::index) -- accepted_per_video is sized videos.len()
            // and video_idx enumerates videos
            if !respects_gap(&accepted_per_video[video_idx], frame, opts.gap) {
                // The serial loop skips this frame for free, and would still skip it
                // after any in-window acceptance (the accepted set only grows).
                cursor += 1;
                continue;
            }
            if !respects_gap(&window, frame, opts.gap) {
                // Whether the serial loop detects this frame depends on the outcome
                // of an earlier in-window candidate; stop the window here and
                // re-examine it once those outcomes are known.
                break;
            }
            window.push(frame);
            cursor += 1;
        }
        if window.is_empty() {
            // Everything up to the next video boundary was gap-skipped for free;
            // re-enter the loop so the next candidate starts a fresh window.
            continue;
        }

        let batch = video.ctx.detector().detect_batch(&video.ctx.video(), &window);
        calls += window.len() as u64;
        for (&frame, detections) in window.iter().zip(&batch) {
            let counts = CountVector::from_detections(detections);
            if counts.satisfies_all(video.requirements) {
                accepted.push((video_idx, frame));
                // blazeit-lint: allow(panic-site::index) -- accepted_per_video is sized
                // videos.len() and video_idx enumerates videos
                accepted_per_video[video_idx].push(frame);
            }
        }
    }
    (accepted, calls)
}

/// One video's candidate ranking inside a multi-video scrub: the frames to verify,
/// in the order the per-video strategy would visit them, with the confidence the
/// global interleave sorts by.
pub(crate) struct VideoCandidates<'a> {
    ctx: &'a VideoContext,
    requirements: Vec<(ObjectClass, usize)>,
    /// `(frame, confidence)` in per-video visit order. Ranked sub-plans carry real
    /// NN confidences in `[0, 1]`; scan-fallback sub-plans carry `-1.0` for every
    /// frame, so the global interleave only reaches them after every ranked
    /// candidate of every video — scanning stays the last resort catalog-wide.
    candidates: Vec<(FrameIndex, f64)>,
}

/// Phase 1 of a multi-video scrub, for one video: builds its candidate ranking —
/// training (or loading) its specialized network and scoring its frames. The
/// session fans this out across videos on the persistent worker pool.
pub(crate) fn rank_candidates<'a>(
    ctx: &'a VideoContext,
    info: &QueryPlanInfo,
    plan: &VideoPlan,
) -> Result<VideoCandidates<'a>> {
    let requirements = requirement_pairs(&info.requirements);
    let candidates = match &plan.strategy {
        PlanStrategy::ScrubRanked => {
            let nn = ctx.specialized_for(&plan.heads)?;
            score_frames(ctx, &nn, &requirements)?
        }
        PlanStrategy::ScrubScan => (0..ctx.video().len()).map(|frame| (frame, -1.0f64)).collect(),
        other => {
            return Err(BlazeItError::Internal(format!(
                "scrub::rank_candidates with non-scrub strategy {other:?}"
            )))
        }
    };
    Ok(VideoCandidates { ctx, requirements, candidates })
}

/// Phase 2 of a multi-video scrub (deterministic): the per-video rankings of
/// [`rank_candidates`] are interleaved by descending confidence and verified in that
/// global order against one **global** `LIMIT`, charging the detector through
/// per-video prefetch windows, until the limit is satisfied — at which point *no*
/// video is charged another call (early cancellation), no matter how many
/// candidates it still had queued. `GAP` constrains frames within a video; frames
/// of different videos are never temporally related.
///
/// An optional `budget` caps total detector invocations across all videos.
pub(crate) fn verify_catalog(
    per_video: &[VideoCandidates<'_>],
    opts: ScrubOptions,
    budget: Option<u64>,
) -> QueryOutput {
    // Global interleave: (confidence desc, video index asc, per-video rank asc).
    // Sorting by (confidence, video, frame) preserves each video's own visit order
    // because rankings are already confidence-descending with frame-ascending ties.
    let mut merged: Vec<(usize, FrameIndex, f64)> = Vec::new();
    for (video_idx, vc) in per_video.iter().enumerate() {
        merged.extend(vc.candidates.iter().map(|&(frame, conf)| (video_idx, frame, conf)));
    }
    merged.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));

    // Verify in global order through the shared windowed loop (the same code path
    // single-video ranked verification uses, so the gap / limit / budget window
    // rules cannot diverge between the two).
    let videos: Vec<VerifyVideo<'_>> = per_video
        .iter()
        .map(|vc| VerifyVideo { ctx: vc.ctx, requirements: &vc.requirements })
        .collect();
    let order: Vec<(usize, FrameIndex)> =
        merged.iter().map(|&(video_idx, frame, _)| (video_idx, frame)).collect();
    let (accepted, calls) = verify_windowed(&videos, &order, opts, budget);
    let frames = accepted
        .into_iter()
        .map(|(video_idx, frame)| SourcedFrame {
            // blazeit-lint: allow(panic-site::index) -- video_idx comes from enumerating this same
            // per_video slice
            video: per_video[video_idx].ctx.video().name().to_string(),
            frame,
        })
        .collect();
    QueryOutput::CatalogFrames { frames, detection_calls: calls }
}

/// The full BlazeIt scrubbing plan: score every frame with the specialized NN, then
/// verify in descending-confidence order.
pub fn blazeit_scrub(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    requirements: &[(ObjectClass, usize)],
    opts: ScrubOptions,
) -> Result<ScrubOutcome> {
    let ranked = score_frames(ctx, nn, requirements)?;
    Ok(verify_ranked(ctx, &ranked, requirements, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::result::QueryOutput;
    use blazeit_videostore::DatasetPreset;

    fn engine() -> (Catalog, Arc<VideoContext>) {
        Catalog::one_video(DatasetPreset::Taipei, 2_500)
    }

    #[test]
    fn scrub_returns_only_true_positives() {
        let (_, e) = engine();
        let reqs = [(ObjectClass::Car, 2usize)];
        let nn = specialized_for_requirements(&e, &reqs).unwrap();
        let outcome = blazeit_scrub(&e, &nn, &reqs, ScrubOptions { limit: 5, gap: 10 }).unwrap();
        assert!(outcome.frames.len() <= 5);
        assert_eq!(outcome.frames_scored, e.video().len());
        // Every returned frame must genuinely satisfy the predicate according to the
        // detector (which is exactly how they were verified).
        for &frame in &outcome.frames {
            let dets = e.detector().detect(&e.video(), frame);
            let counts = CountVector::from_detections(&dets);
            assert!(counts.satisfies_all(&reqs), "frame {frame} fails the predicate");
        }
        // GAP respected.
        for (i, &a) in outcome.frames.iter().enumerate() {
            for &b in &outcome.frames[i + 1..] {
                assert!(a.abs_diff(b) >= 10);
            }
        }
    }

    #[test]
    fn blazeit_scrub_uses_fewer_detector_calls_than_baselines_for_rare_events() {
        let (_, e) = engine();
        // A moderately rare event: at least 3 cars simultaneously.
        let reqs = [(ObjectClass::Car, 3usize)];
        let opts = ScrubOptions { limit: 3, gap: 30 };
        let nn = specialized_for_requirements(&e, &reqs).unwrap();
        let blazeit = blazeit_scrub(&e, &nn, &reqs, opts).unwrap();
        let (naive_frames, naive_calls) =
            baselines::naive_scrub(&e, &reqs, opts.limit, opts.gap).unwrap();
        if blazeit.frames.len() == opts.limit as usize && naive_frames.len() == opts.limit as usize
        {
            assert!(
                blazeit.detection_calls <= naive_calls,
                "BlazeIt used {} detector calls, naive used {}",
                blazeit.detection_calls,
                naive_calls
            );
        }
    }

    #[test]
    fn scoring_is_ranked_descending() {
        let (_, e) = engine();
        let reqs = [(ObjectClass::Car, 1usize)];
        let nn = specialized_for_requirements(&e, &reqs).unwrap();
        let ranked = score_frames(&e, &nn, &reqs).unwrap();
        assert_eq!(ranked.len(), e.video().len() as usize);
        for pair in ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn query_with_no_training_examples_falls_back_to_scan() {
        let (catalog, e) = engine();
        // 50 simultaneous cars never happens in the training data.
        let result = catalog
            .session()
            .query(
                "SELECT timestamp FROM taipei GROUP BY timestamp \
                 HAVING SUM(class='car') >= 50 LIMIT 2",
            )
            .unwrap();
        match result.output {
            QueryOutput::Frames { frames, detection_calls } => {
                assert!(frames.is_empty());
                // The fallback scanned the whole video looking for the event.
                assert_eq!(detection_calls, e.video().len());
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn multi_class_scrub_query_end_to_end() {
        let (catalog, e) = engine();
        let result = catalog
            .session()
            .query(
                "SELECT timestamp FROM taipei GROUP BY timestamp \
                 HAVING SUM(class='bus')>=1 AND SUM(class='car')>=1 LIMIT 3 GAP 60",
            )
            .unwrap();
        match result.output {
            QueryOutput::Frames { frames, .. } => {
                for &frame in &frames {
                    let dets = e.detector().detect(&e.video(), frame);
                    let counts = CountVector::from_detections(&dets);
                    assert!(counts.at_least(ObjectClass::Bus, 1));
                    assert!(counts.at_least(ObjectClass::Car, 1));
                }
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    /// The frame-by-frame loop the prefetch window must be indistinguishable from.
    fn verify_ranked_serial_reference(
        ctx: &VideoContext,
        ranked: &[(FrameIndex, f64)],
        requirements: &[(ObjectClass, usize)],
        opts: ScrubOptions,
    ) -> ScrubOutcome {
        let video = ctx.video();
        let video = &*video;
        let mut accepted: Vec<FrameIndex> = Vec::new();
        let mut calls = 0u64;
        for &(frame, _confidence) in ranked {
            if accepted.len() as u64 >= opts.limit {
                break;
            }
            if !respects_gap(&accepted, frame, opts.gap) {
                continue;
            }
            let detections = ctx.detector().detect(video, frame);
            calls += 1;
            let counts = CountVector::from_detections(&detections);
            if counts.satisfies_all(requirements) {
                accepted.push(frame);
            }
        }
        ScrubOutcome {
            frames: accepted,
            detection_calls: calls,
            frames_scored: ranked.len() as u64,
        }
    }

    #[test]
    fn batched_verification_matches_serial_loop_exactly() {
        // Two identical engines (deterministic substrate): one verifies through the
        // pipelined detect_batch window, the other through the frame-by-frame
        // reference. Returned frames, order, call counts, and charged detection
        // seconds must all agree — across gap/limit combinations that exercise
        // window truncation, pairwise-gap breaks, and early exit.
        let (_, batched_engine) = engine();
        let (_, serial_engine) = engine();
        for (min_count, limit, gap) in
            [(1usize, 5u64, 0u64), (2, 5, 10), (2, 10, 300), (3, 3, 30), (1, 40, 900)]
        {
            let reqs = [(ObjectClass::Car, min_count)];
            let opts = ScrubOptions { limit, gap };
            let nn_b = specialized_for_requirements(&batched_engine, &reqs).unwrap();
            let ranked_b = score_frames(&batched_engine, &nn_b, &reqs).unwrap();
            let nn_s = specialized_for_requirements(&serial_engine, &reqs).unwrap();
            let ranked_s = score_frames(&serial_engine, &nn_s, &reqs).unwrap();
            assert_eq!(ranked_b, ranked_s, "identical engines must rank identically");

            let before_b = batched_engine.clock().breakdown().detection;
            let batched = verify_ranked(&batched_engine, &ranked_b, &reqs, opts);
            let charged_b = batched_engine.clock().breakdown().detection - before_b;

            let before_s = serial_engine.clock().breakdown().detection;
            let serial = verify_ranked_serial_reference(&serial_engine, &ranked_s, &reqs, opts);
            let charged_s = serial_engine.clock().breakdown().detection - before_s;

            assert_eq!(batched.frames, serial.frames, "limit={limit} gap={gap}");
            assert_eq!(batched.detection_calls, serial.detection_calls, "limit={limit} gap={gap}");
            assert!(
                (charged_b - charged_s).abs() < 1e-9,
                "charged detection time diverged: {charged_b} vs {charged_s}"
            );
        }
    }

    #[test]
    fn budgeted_verification_stops_at_the_cap() {
        let (_, e) = engine();
        let reqs = [(ObjectClass::Car, 3usize)];
        let nn = specialized_for_requirements(&e, &reqs).unwrap();
        let ranked = score_frames(&e, &nn, &reqs).unwrap();
        let opts = ScrubOptions { limit: 50, gap: 0 };
        let unbudgeted = verify_ranked(&e, &ranked, &reqs, opts);
        let capped = verify_ranked_with_budget(&e, &ranked, &reqs, opts, Some(7));
        assert!(capped.detection_calls <= 7);
        assert!(capped.detection_calls <= unbudgeted.detection_calls);
        // The budgeted run is a prefix of the unbudgeted one.
        assert_eq!(
            capped.frames[..],
            unbudgeted.frames[..capped.frames.len().min(unbudgeted.frames.len())]
        );
    }

    #[test]
    fn limit_zero_returns_nothing() {
        let (_, e) = engine();
        let reqs = [(ObjectClass::Car, 1usize)];
        let nn = specialized_for_requirements(&e, &reqs).unwrap();
        let outcome = blazeit_scrub(&e, &nn, &reqs, ScrubOptions { limit: 0, gap: 0 }).unwrap();
        assert!(outcome.frames.is_empty());
        assert_eq!(outcome.detection_calls, 0);
    }
}
