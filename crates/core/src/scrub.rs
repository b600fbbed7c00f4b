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
//!
//! **Ordering is lazy.** Verification typically reads a few dozen of a video's
//! candidates, so nothing puts all of them in order up front: a video's ranking holds
//! every frame's confidence and orders only as far as verification reads, one block
//! at a time (a selection of the block from the unordered rest, then a sort of the
//! block alone). The visit order itself is defined once — confidence descending by
//! `total_cmp`, then video ascending, then frame ascending — and single-video scrubs,
//! [`score_frames`] and the `FROM *` k-way merge all walk it. `EXPLAIN ANALYZE`
//! reports how many candidates a scrub put in order as `frames_ranked` on its
//! `detect-verify` span.

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
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;
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
    /// Number of frames that got a specialized-NN confidence: every frame of the
    /// unseen video, whether its scores came from the cached index or were computed.
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
            let outcome = scrub_ranked(ctx, &nn, &requirements, opts, plan.detection_budget)?;
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

/// A candidate's key in the one order every scrub visits candidates in. Earlier in
/// the visit order compares less: confidence descending (NaN-safe `total_cmp`), then
/// video ascending, then frame ascending. A video yields each frame once, so no two
/// candidates compare equal — which is what makes unstable sorts and selections exact.
#[derive(Clone, Copy)]
struct Candidate {
    confidence: f64,
    video: usize,
    frame: FrameIndex,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Candidate) -> Ordering {
        other
            .confidence
            .total_cmp(&self.confidence)
            .then(self.video.cmp(&other.video))
            .then(self.frame.cmp(&other.frame))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Candidate) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Candidate) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// [`Candidate`]'s order between two `(frame, confidence)` pairs of one video.
fn visit_order(a: &(FrameIndex, f64), b: &(FrameIndex, f64)) -> Ordering {
    let key = |&(frame, confidence): &(FrameIndex, f64)| Candidate { confidence, video: 0, frame };
    key(a).cmp(&key(b))
}

/// How many candidates a [`Ranking`] puts in order first; every later block doubles
/// the ordered prefix. Small enough that a small `LIMIT` orders a sliver of a long
/// video, large enough that a typical scrub needs one or two blocks.
const RANK_BLOCK: usize = 256;

/// One video's `(frame, confidence)` candidates, yielded in visit order and put in
/// that order only as far as they are read.
///
/// A block is a `select_nth_unstable_by` over the unordered rest followed by a sort of
/// the selected block alone. Blocks double the ordered prefix, and once the prefix
/// passes half the candidates the rest is sorted in one go, so a walk to exhaustion
/// costs a small constant more than one full sort.
struct Ranking {
    /// `candidates[..ordered]` are in visit order, and each precedes every candidate
    /// after them.
    candidates: Vec<(FrameIndex, f64)>,
    ordered: usize,
    /// The next candidate to yield (`next <= ordered`).
    next: usize,
}

impl Ranking {
    fn new(candidates: Vec<(FrameIndex, f64)>) -> Ranking {
        Ranking { candidates, ordered: 0, next: 0 }
    }

    fn order_next_block(&mut self) {
        let sort_rest = 2 * self.ordered >= self.candidates.len();
        let block = RANK_BLOCK.max(self.ordered);
        let Some(rest) = self.candidates.get_mut(self.ordered..) else { return };
        if sort_rest || block >= rest.len() {
            rest.sort_unstable_by(visit_order);
            self.ordered += rest.len();
        } else {
            let (head, _, _) = rest.select_nth_unstable_by(block, visit_order);
            head.sort_unstable_by(visit_order);
            self.ordered += block;
        }
    }
}

impl Iterator for Ranking {
    type Item = (FrameIndex, f64);

    fn next(&mut self) -> Option<(FrameIndex, f64)> {
        if self.next == self.ordered {
            self.order_next_block();
        }
        let candidate = self.candidates.get(self.next).copied()?;
        self.next += 1;
        Some(candidate)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.candidates.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Ranking {}

/// One video's candidates as a stream of `(frame, confidence)` in visit order.
enum Candidates<'r> {
    /// Specialized-NN confidences, ordered lazily.
    Ranked(Ranking),
    /// Candidates a caller already put in visit order (the public `verify_ranked*`
    /// helpers).
    Ordered { candidates: &'r [(FrameIndex, f64)], next: usize },
    /// The scan fallback: every frame in frame order at confidence `-1.0`, so the
    /// `FROM *` merge reaches a scanning video only after every ranked candidate of
    /// every video — scanning stays the last resort catalog-wide.
    Scan(Range<FrameIndex>),
}

impl Candidates<'_> {
    /// Candidates put in visit order so far: a ranking's ordered prefix, and for a
    /// stream that is in order already, the candidates it has yielded.
    fn ranked(&self) -> u64 {
        match self {
            Candidates::Ranked(ranking) => ranking.ordered as u64,
            Candidates::Ordered { next, .. } => *next as u64,
            Candidates::Scan(frames) => frames.start,
        }
    }
}

impl Iterator for Candidates<'_> {
    type Item = (FrameIndex, f64);

    fn next(&mut self) -> Option<(FrameIndex, f64)> {
        match self {
            Candidates::Ranked(ranking) => ranking.next(),
            Candidates::Ordered { candidates, next } => {
                let candidate = candidates.get(*next).copied()?;
                *next += 1;
                Some(candidate)
            }
            Candidates::Scan(frames) => frames.next().map(|frame| (frame, -1.0)),
        }
    }
}

/// The k-way merge of per-video candidate streams into the one visit order, yielding
/// `(video index, frame)`. Each stream is already in that order, so the heap of their
/// next candidates always holds the global next one. A stream's next candidate is
/// pulled only when the candidate after its last one is asked for, so no video is
/// put in order further than verification reads.
struct Merge<'r> {
    sources: Vec<Candidates<'r>>,
    heads: BinaryHeap<Reverse<Candidate>>,
    /// Streams whose next candidate has yet to join `heads`: every stream before the
    /// first pull, afterwards the stream of the candidate last yielded.
    pending: Vec<usize>,
}

impl<'r> Merge<'r> {
    fn new(sources: Vec<Candidates<'r>>) -> Merge<'r> {
        let pending = (0..sources.len()).collect();
        Merge { heads: BinaryHeap::with_capacity(sources.len()), sources, pending }
    }

    /// Candidates put in visit order so far, over every stream.
    fn ranked(&self) -> u64 {
        self.sources.iter().map(Candidates::ranked).sum()
    }
}

impl Iterator for Merge<'_> {
    type Item = (usize, FrameIndex);

    fn next(&mut self) -> Option<(usize, FrameIndex)> {
        for video in self.pending.drain(..) {
            if let Some((frame, confidence)) = self.sources.get_mut(video).and_then(Iterator::next)
            {
                self.heads.push(Reverse(Candidate { confidence, video, frame }));
            }
        }
        let Reverse(next) = self.heads.pop()?;
        self.pending.push(next.video);
        Some((next.video, next.frame))
    }
}

/// Gives every frame of the unseen video the specialized NN's confidence that it
/// satisfies the requirements, as a [`Ranking`] nothing has been put in order in yet.
///
/// The per-frame scores come from the context's cached batched score index (the
/// "index" the paper's BlazeIt (indexed) variant assumes already exists): the first
/// query per class set builds it with [`SpecializedNN::score_video`] and charges the
/// inference cost to the shared clock; repeated queries rank from the cache for free.
fn rank_frames(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    requirements: &[(ObjectClass, usize)],
) -> Result<Ranking> {
    let head_requirements: Vec<(usize, usize)> = requirements
        .iter()
        .map(|&(class, n)| {
            nn.head_index(class)
                .map(|head| (head, n))
                .ok_or_else(|| BlazeItError::Internal(format!("no head for class {class}")))
        })
        .collect::<Result<_>>()?;
    let scores = ctx.score_index(nn)?;
    Ok(Ranking::new(
        (0..scores.num_frames())
            .map(|frame| {
                (frame as FrameIndex, scores.requirement_confidence(frame, &head_requirements))
            })
            .collect(),
    ))
}

/// Scores every frame of the unseen video with the specialized NN's confidence that it
/// satisfies the requirements, returning every `(frame, confidence)` pair in the
/// scrub's visit order (confidence descending, then frame ascending).
///
/// This drains the same lazy ranking a scrub verifies from, so it orders all of the
/// video; the scrub itself orders only what its verification reads. Scores come from
/// the context's cached score index, as for every ranked scrub: the first query per
/// class set builds it and charges the inference, repeated ones are free.
pub fn score_frames(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    requirements: &[(ObjectClass, usize)],
) -> Result<Vec<(FrameIndex, f64)>> {
    Ok(rank_frames(ctx, nn, requirements)?.collect())
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
    let candidates = Candidates::Ordered { candidates: ranked, next: 0 };
    verify_video(ctx, candidates, ranked.len() as u64, requirements, opts, budget)
}

/// The single-video ranked scrub: ranks the video lazily and verifies in visit order,
/// ordering only as far as verification reads.
fn scrub_ranked(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    requirements: &[(ObjectClass, usize)],
    opts: ScrubOptions,
    budget: Option<u64>,
) -> Result<ScrubOutcome> {
    let ranking = rank_frames(ctx, nn, requirements)?;
    let frames_scored = ranking.len() as u64;
    Ok(verify_video(ctx, Candidates::Ranked(ranking), frames_scored, requirements, opts, budget))
}

/// Verifies one video's candidate stream through the shared windowed loop.
fn verify_video(
    ctx: &VideoContext,
    candidates: Candidates<'_>,
    frames_scored: u64,
    requirements: &[(ObjectClass, usize)],
    opts: ScrubOptions,
    budget: Option<u64>,
) -> ScrubOutcome {
    let videos = [VerifyVideo { ctx, requirements: requirements.to_vec() }];
    let (accepted, calls) = verify_windowed(&videos, Merge::new(vec![candidates]), opts, budget);
    ScrubOutcome {
        frames: accepted.into_iter().map(|(_, frame)| frame).collect(),
        detection_calls: calls,
        frames_scored,
    }
}

/// One video's inputs to the shared windowed verification loop.
struct VerifyVideo<'a> {
    ctx: &'a VideoContext,
    requirements: Vec<(ObjectClass, usize)>,
}

/// The windowed verification loop shared by single-video ranked verification and the
/// multi-video global-limit merge: walks `candidates` (a `(video index, frame)` visit
/// sequence), verifying through per-video [`ObjectDetector::detect_batch`] prefetch
/// windows until `opts.limit` frames are accepted or `budget` detector calls are
/// spent. Returns the accepted `(video index, frame)` pairs in acceptance order and
/// the number of charged calls, and counts on its span how many candidates were put
/// in order to get there.
///
/// The window rules make the outcome *identical* to a frame-by-frame walk of
/// `candidates`: a window only ever contains consecutive candidates of one video, each
/// respecting the gap against that video's already-accepted frames **and** against
/// every earlier frame in the same window (so no in-window acceptance can
/// retroactively disqualify it), and the window never exceeds the remaining limit or
/// budget (so the early exit cannot fire mid-window). `GAP` binds within a video
/// only; frames of different videos are never temporally related. Each window either
/// consumes the candidate at the cursor or stops before it, so a peek is all the
/// look-ahead the loop needs.
fn verify_windowed(
    videos: &[VerifyVideo<'_>],
    mut candidates: Merge<'_>,
    opts: ScrubOptions,
    budget: Option<u64>,
) -> (Vec<(usize, FrameIndex)>, u64) {
    let _verify = obs::span("detect-verify");
    let mut accepted: Vec<(usize, FrameIndex)> = Vec::new();
    let mut accepted_per_video: Vec<Vec<FrameIndex>> = videos.iter().map(|_| Vec::new()).collect();
    let mut calls = 0u64;
    let mut window: Vec<FrameIndex> = Vec::with_capacity(VERIFY_PREFETCH);
    let mut stream = candidates.by_ref().peekable();

    while (accepted.len() as u64) < opts.limit {
        let remaining_budget = match budget {
            Some(b) if b <= calls => break,
            Some(b) => (b - calls) as usize,
            None => usize::MAX,
        };
        let Some(&(video_idx, _)) = stream.peek() else { break };
        let remaining_limit = (opts.limit - accepted.len() as u64) as usize;
        let cap = VERIFY_PREFETCH.min(remaining_limit).min(remaining_budget);
        // blazeit-lint: allow(panic-site::index) -- video_idx comes from the merge, whose
        // streams were built one per entry of this same videos slice
        let video = &videos[video_idx];

        window.clear();
        while window.len() < cap {
            let Some(&(next_video, frame)) = stream.peek() else { break };
            if next_video != video_idx {
                break;
            }
            // blazeit-lint: allow(panic-site::index) -- accepted_per_video is sized
            // videos.len() and video_idx enumerates videos
            if !respects_gap(&accepted_per_video[video_idx], frame, opts.gap) {
                // The serial loop skips this frame for free, and would still skip it
                // after any in-window acceptance (the accepted set only grows).
                stream.next();
                continue;
            }
            if !respects_gap(&window, frame, opts.gap) {
                // Whether the serial loop detects this frame depends on the outcome
                // of an earlier in-window candidate; stop the window here and
                // re-examine it once those outcomes are known.
                break;
            }
            window.push(frame);
            stream.next();
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
            if counts.satisfies_all(&video.requirements) {
                accepted.push((video_idx, frame));
                // blazeit-lint: allow(panic-site::index) -- accepted_per_video is sized
                // videos.len() and video_idx enumerates videos
                accepted_per_video[video_idx].push(frame);
            }
        }
    }
    obs::count(obs::COUNTER_FRAMES_RANKED, candidates.ranked());
    (accepted, calls)
}

/// One video's part in a multi-video scrub: what to verify against, and its
/// candidates, in the order the per-video strategy visits them.
pub(crate) struct VideoCandidates<'a> {
    video: VerifyVideo<'a>,
    candidates: Candidates<'a>,
}

/// Phase 1 of a multi-video scrub, for one video: gets its candidates ready —
/// training (or loading) its specialized network and scoring its frames, leaving
/// the ordering to verification. The session fans this out across videos on the
/// persistent worker pool.
pub(crate) fn rank_candidates<'a>(
    ctx: &'a VideoContext,
    info: &QueryPlanInfo,
    plan: &VideoPlan,
) -> Result<VideoCandidates<'a>> {
    let requirements = requirement_pairs(&info.requirements);
    let candidates = match &plan.strategy {
        PlanStrategy::ScrubRanked => {
            let nn = ctx.specialized_for(&plan.heads)?;
            Candidates::Ranked(rank_frames(ctx, &nn, &requirements)?)
        }
        PlanStrategy::ScrubScan => Candidates::Scan(0..ctx.video().len()),
        other => {
            return Err(BlazeItError::Internal(format!(
                "scrub::rank_candidates with non-scrub strategy {other:?}"
            )))
        }
    };
    Ok(VideoCandidates { video: VerifyVideo { ctx, requirements }, candidates })
}

/// Phase 2 of a multi-video scrub (deterministic): the per-video candidates of
/// [`rank_candidates`] are merged into one global visit order (confidence descending,
/// then video, then frame) and verified in it against one **global** `LIMIT`,
/// charging the detector through per-video prefetch windows, until the limit is
/// satisfied — at which point *no* video is charged another call (early
/// cancellation) or put further in order, no matter how many candidates it still
/// had. `GAP` constrains frames within a video; frames of different videos are never
/// temporally related.
///
/// An optional `budget` caps total detector invocations across all videos.
pub(crate) fn verify_catalog(
    per_video: Vec<VideoCandidates<'_>>,
    opts: ScrubOptions,
    budget: Option<u64>,
) -> QueryOutput {
    // Verify through the shared windowed loop (the same code path single-video ranked
    // verification uses, so the gap / limit / budget window rules cannot diverge
    // between the two).
    let (videos, sources): (Vec<VerifyVideo<'_>>, Vec<Candidates<'_>>) =
        per_video.into_iter().map(|vc| (vc.video, vc.candidates)).unzip();
    let (accepted, calls) = verify_windowed(&videos, Merge::new(sources), opts, budget);
    let frames = accepted
        .into_iter()
        .map(|(video_idx, frame)| SourcedFrame {
            // blazeit-lint: allow(panic-site::index) -- video_idx comes from enumerating this same
            // videos slice
            video: videos[video_idx].ctx.video().name().to_string(),
            frame,
        })
        .collect();
    QueryOutput::CatalogFrames { frames, detection_calls: calls }
}

/// The full BlazeIt scrubbing plan: score every frame with the specialized NN, then
/// verify in descending-confidence order (ordering only as far as verification reads).
pub fn blazeit_scrub(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    requirements: &[(ObjectClass, usize)],
    opts: ScrubOptions,
) -> Result<ScrubOutcome> {
    scrub_ranked(ctx, nn, requirements, opts, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::result::QueryOutput;
    use blazeit_videostore::DatasetPreset;
    use proptest::prelude::*;

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

    /// Today's visit order as the eager implementation computed it: every
    /// `(frame, confidence)` pair, fully sorted with a stable sort.
    fn eager_order(mut candidates: Vec<(FrameIndex, f64)>) -> Vec<(FrameIndex, f64)> {
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates
    }

    /// Pairs with their confidences as bits, so NaN compares equal to itself.
    fn bits(candidates: &[(FrameIndex, f64)]) -> Vec<(FrameIndex, u64)> {
        candidates.iter().map(|&(frame, confidence)| (frame, confidence.to_bits())).collect()
    }

    /// The frame-by-frame loop the prefetch window must be indistinguishable from.
    fn verify_ranked_serial_reference(
        ctx: &VideoContext,
        ranked: &[(FrameIndex, f64)],
        requirements: &[(ObjectClass, usize)],
        opts: ScrubOptions,
        budget: Option<u64>,
    ) -> ScrubOutcome {
        let video = ctx.video();
        let video = &*video;
        let mut accepted: Vec<FrameIndex> = Vec::new();
        let mut calls = 0u64;
        for &(frame, _confidence) in ranked {
            if accepted.len() as u64 >= opts.limit || budget.is_some_and(|b| calls >= b) {
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
        // pipelined detect_batch window — once over the lazy ranking, once over the
        // eagerly sorted slice — the other through the frame-by-frame reference.
        // Returned frames, order, call counts, and charged detection seconds must all
        // agree — across gap/limit/budget combinations that exercise window
        // truncation, pairwise-gap breaks, early exit, the budget cap, and walks to
        // exhaustion (a LIMIT no gap-respecting set of satisfying frames can reach).
        let (_, batched_engine) = engine();
        let (_, serial_engine) = engine();
        let detection = |ctx: &VideoContext| ctx.clock().breakdown().detection;
        for (min_count, limit, gap) in [
            (1usize, 5u64, 0u64),
            (2, 5, 10),
            (2, 10, 300),
            (3, 3, 30),
            (1, 40, 900),
            (4, 2_500, 120),
        ] {
            let reqs = [(ObjectClass::Car, min_count)];
            let opts = ScrubOptions { limit, gap };
            let nn_b = specialized_for_requirements(&batched_engine, &reqs).unwrap();
            let nn_s = specialized_for_requirements(&serial_engine, &reqs).unwrap();
            let eager = eager_order(rank_frames(&serial_engine, &nn_s, &reqs).unwrap().candidates);
            assert_eq!(
                bits(&score_frames(&batched_engine, &nn_b, &reqs).unwrap()),
                bits(&eager),
                "the drained ranking is the eager order"
            );

            for budget in [None, Some(7), Some(600)] {
                let shape = format!("min_count={min_count} limit={limit} gap={gap} {budget:?}");
                let before = detection(&batched_engine);
                let lazy = scrub_ranked(&batched_engine, &nn_b, &reqs, opts, budget).unwrap();
                let charged_lazy = detection(&batched_engine) - before;

                let before = detection(&batched_engine);
                let sliced =
                    verify_ranked_with_budget(&batched_engine, &eager, &reqs, opts, budget);
                let charged_sliced = detection(&batched_engine) - before;

                let before = detection(&serial_engine);
                let serial =
                    verify_ranked_serial_reference(&serial_engine, &eager, &reqs, opts, budget);
                let charged_serial = detection(&serial_engine) - before;

                assert_eq!(lazy, serial, "{shape}");
                assert_eq!(sliced, serial, "{shape}");
                assert_eq!(charged_lazy.to_bits(), charged_sliced.to_bits(), "{shape}");
                assert!(
                    (charged_lazy - charged_serial).abs() < 1e-9,
                    "{shape}: charged detection time diverged: {charged_lazy} vs {charged_serial}"
                );
            }
        }
    }

    #[test]
    fn explain_analyze_counts_frames_ranked_on_detect_verify() {
        let (catalog, e) = engine();
        let frames_ranked = |limit: u64, gap: u64| {
            let sql = format!(
                "EXPLAIN ANALYZE SELECT timestamp FROM taipei GROUP BY timestamp \
                 HAVING SUM(class='car') >= 1 LIMIT {limit} GAP {gap}"
            );
            let result = catalog.session().query(&sql).unwrap();
            let trace = result.output.analyze_trace().unwrap().clone();
            let verify = trace.spans.iter().find(|s| s.label == "detect-verify").unwrap();
            let ranked = verify
                .counters
                .iter()
                .find(|(name, _)| name == obs::COUNTER_FRAMES_RANKED)
                .map(|c| c.1);
            (ranked, trace.to_string())
        };

        // A small LIMIT puts one block of the video in order.
        let (ranked, text) = frames_ranked(2, 0);
        assert_eq!(ranked, Some(RANK_BLOCK as u64), "{text}");
        assert!(text.contains(&format!("frames_ranked={RANK_BLOCK}")), "{text}");
        assert!(ranked.unwrap() * 4 < e.video().len());

        // No three frames of 2500 are 900 apart, so a LIMIT of 40 walks every
        // candidate — and puts exactly all of them in order.
        let (ranked, text) = frames_ranked(40, 900);
        assert_eq!(ranked, Some(e.video().len()), "{text}");
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

    /// Today's `FROM *` interleave: every video's candidates concatenated and sorted
    /// by (confidence desc, video asc, frame asc).
    fn concatenate_and_sort(per_video: &[Vec<(FrameIndex, f64)>]) -> Vec<(usize, FrameIndex)> {
        let mut merged: Vec<(usize, FrameIndex, f64)> = Vec::new();
        for (video_idx, candidates) in per_video.iter().enumerate() {
            merged.extend(candidates.iter().map(|&(frame, conf)| (video_idx, frame, conf)));
        }
        merged.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        merged.into_iter().map(|(video_idx, frame, _)| (video_idx, frame)).collect()
    }

    /// The frame-by-frame walk of a catalog visit order under one global limit and
    /// budget, with the gap binding per video.
    fn verify_catalog_serial_reference(
        contexts: &[&VideoContext],
        requirements: &[(ObjectClass, usize)],
        order: &[(usize, FrameIndex)],
        opts: ScrubOptions,
        budget: Option<u64>,
    ) -> (Vec<SourcedFrame>, u64) {
        let mut accepted: Vec<SourcedFrame> = Vec::new();
        let mut per_video: Vec<Vec<FrameIndex>> = vec![Vec::new(); contexts.len()];
        let mut calls = 0u64;
        for &(video_idx, frame) in order {
            if accepted.len() as u64 >= opts.limit || budget.is_some_and(|b| calls >= b) {
                break;
            }
            if !respects_gap(&per_video[video_idx], frame, opts.gap) {
                continue;
            }
            let ctx = contexts[video_idx];
            let detections = ctx.detector().detect(&ctx.video(), frame);
            calls += 1;
            if CountVector::from_detections(&detections).satisfies_all(requirements) {
                per_video[video_idx].push(frame);
                accepted.push(SourcedFrame { video: ctx.video().name().to_string(), frame });
            }
        }
        (accepted, calls)
    }

    #[test]
    fn catalog_merge_equals_the_concatenate_and_sort_interleave() {
        let catalog = Catalog::new();
        for preset in [DatasetPreset::Taipei, DatasetPreset::NightStreet, DatasetPreset::Amsterdam]
        {
            catalog.register_preset(preset, 600).unwrap();
        }
        let reqs = [(ObjectClass::Car, 1usize)];
        for (limit, gap, budget) in [(6u64, 250u64, None), (9, 0, None), (40, 30, Some(300))] {
            let sql = format!(
                "SELECT timestamp FROM * GROUP BY timestamp HAVING SUM(class='car') >= 1 \
                 LIMIT {limit} GAP {gap}"
            );
            let mut prepared = catalog.session().prepare(&sql).unwrap();
            // The middle video scans; the other two rank.
            prepared.plan_mut().subplans[1].strategy = PlanStrategy::ScrubScan;
            for sub in &mut prepared.plan_mut().subplans {
                sub.detection_budget = budget;
            }
            let strategies: Vec<PlanStrategy> =
                prepared.plan().subplans.iter().map(|s| s.strategy.clone()).collect();
            assert_eq!(
                strategies,
                [PlanStrategy::ScrubRanked, PlanStrategy::ScrubScan, PlanStrategy::ScrubRanked]
            );
            let contexts: Vec<&VideoContext> = prepared.contexts().collect();
            let candidates = || {
                contexts
                    .iter()
                    .zip(&prepared.plan().subplans)
                    .map(|(ctx, sub)| rank_candidates(ctx, prepared.info(), sub).unwrap())
                    .collect::<Vec<_>>()
            };

            // Every candidate of every video, in whatever order: the reference sorts.
            let pairs: Vec<Vec<(FrameIndex, f64)>> =
                candidates().into_iter().map(|vc| vc.candidates.collect()).collect();
            assert_eq!(pairs[1].len(), 600);
            assert!(pairs[1].iter().all(|&(_, conf)| conf == -1.0));
            let reference = concatenate_and_sort(&pairs);
            let sources = candidates().into_iter().map(|vc| vc.candidates).collect();
            assert_eq!(Merge::new(sources).collect::<Vec<_>>(), reference);

            // And the verification over the merge is the serial walk of that order.
            let output = prepared.run().unwrap().output;
            let QueryOutput::CatalogFrames { frames, detection_calls } = output else {
                panic!("unexpected output {output:?}");
            };
            let opts = ScrubOptions { limit, gap };
            let expected =
                verify_catalog_serial_reference(&contexts, &reqs, &reference, opts, budget);
            assert_eq!((frames, detection_calls), expected, "limit={limit} gap={gap}");
        }
    }

    /// Generated confidences that stress the comparator: NaN of both signs, ±0.0,
    /// 1.0 (what clamped tail sums tie at), and a handful of repeated values.
    fn confidence(code: u32, uniform: f64) -> f64 {
        match code {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => 0.0,
            3 => -0.0,
            4..=5 => 1.0,
            6..=9 => f64::from(code) / 16.0,
            _ => uniform,
        }
    }

    proptest! {
        /// Draining a ranking equals sorting every candidate eagerly; reading a
        /// prefix of it orders no more than the blocks that prefix needs.
        #[test]
        fn draining_a_ranking_equals_the_eager_sort(
            codes in prop::collection::vec((0u32..16, 0.0f64..1.0), 0..3_000),
            read in 0usize..3_000,
        ) {
            let candidates: Vec<(FrameIndex, f64)> = codes
                .iter()
                .enumerate()
                .map(|(frame, &(code, uniform))| (frame as FrameIndex, confidence(code, uniform)))
                .collect();
            let eager = eager_order(candidates.clone());
            let drained: Vec<(FrameIndex, f64)> = Ranking::new(candidates.clone()).collect();
            prop_assert_eq!(bits(&drained), bits(&eager));

            let mut ranking = Ranking::new(candidates);
            let prefix: Vec<(FrameIndex, f64)> = ranking.by_ref().take(read).collect();
            prop_assert_eq!(bits(&prefix), bits(&eager[..read.min(eager.len())]));
            // Blocks double the prefix, so reading `read` orders fewer than
            // `read + max(RANK_BLOCK, read)`.
            prop_assert!(ranking.ordered <= eager.len());
            prop_assert!(ranking.ordered <= read + RANK_BLOCK.max(read));
        }

        /// The k-way merge of rankings and scans equals concatenating and sorting.
        #[test]
        fn merging_rankings_and_scans_equals_the_global_sort(
            codes in prop::collection::vec((0u32..16, 0.0f64..1.0), 0..1_500),
            cuts in (0usize..1_500, 0usize..1_500),
            scan_len in 0u64..200,
        ) {
            let all: Vec<f64> =
                codes.iter().map(|&(code, uniform)| confidence(code, uniform)).collect();
            let lo = cuts.0.min(cuts.1).min(all.len());
            let hi = cuts.0.max(cuts.1).min(all.len());
            let pairs = |slice: &[f64]| -> Vec<(FrameIndex, f64)> {
                slice.iter().enumerate().map(|(f, &c)| (f as FrameIndex, c)).collect()
            };
            let per_video = vec![
                pairs(&all[..lo]),
                (0..scan_len).map(|frame| (frame, -1.0)).collect(),
                pairs(&all[lo..hi]),
                pairs(&all[hi..]),
            ];
            let presorted = eager_order(per_video[3].clone());
            let sources = vec![
                Candidates::Ranked(Ranking::new(per_video[0].clone())),
                Candidates::Scan(0..scan_len),
                Candidates::Ranked(Ranking::new(per_video[2].clone())),
                Candidates::Ordered { candidates: &presorted, next: 0 },
            ];
            let mut merge = Merge::new(sources);
            let merged: Vec<(usize, FrameIndex)> = merge.by_ref().collect();
            prop_assert_eq!(merged, concatenate_and_sort(&per_video));
            let total: usize = per_video.iter().map(Vec::len).sum();
            prop_assert_eq!(merge.ranked(), total as u64);
        }
    }
}
