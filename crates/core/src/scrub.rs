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
//! **One shape for one video or many.** Every scrub runs in two phases. Per video,
//! `rank_candidates` turns the sub-plan's strategy into a candidate stream: the
//! specialized NN's confidences (`ScrubRanked`), or every frame in frame order
//! (`ScrubScan`, the fallback when the labeled set holds no example of the event).
//! Then `verify` merges the streams into one visit order and verifies it against
//! one `LIMIT`, `GAP` and detector budget. A single-video scrub is the one-stream case
//! of the same merge, so the window rules, the budget and the early exit cannot
//! differ between `FROM taipei` and `FROM *`.
//!
//! **Ordering is lazy.** Verification typically reads a few dozen of a video's
//! candidates, so nothing puts all of them in order up front: a video's ranking holds
//! every frame's confidence and orders only as far as verification reads, one block
//! at a time (a selection of the block from the unordered rest, then a sort of the
//! block alone). The visit order itself is defined once — confidence descending by
//! `total_cmp`, then video ascending, then frame ascending — and the k-way merge walks
//! it for every scrub. `EXPLAIN ANALYZE` reports how many candidates a scrub put in
//! order as `frames_ranked` on its `detect-verify` span.

use crate::baselines::{requirement_pairs, respects_gap};
use crate::context::VideoContext;
use crate::obs;
use crate::plan::{PlanStrategy, VideoPlan};
use crate::{BlazeItError, Result};
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
const FIRST_BLOCK: usize = 256;

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
        let block = FIRST_BLOCK.max(self.ordered);
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
}

/// One video's candidates as a stream of `(frame, confidence)` in visit order.
enum Candidates {
    /// Specialized-NN confidences, ordered lazily.
    Ranked(Ranking),
    /// The scan fallback: every frame in frame order at confidence `-1.0`, so the
    /// `FROM *` merge reaches a scanning video only after every ranked candidate of
    /// every video — scanning stays the last resort catalog-wide.
    Scan(Range<FrameIndex>),
}

impl Candidates {
    /// Candidates put in visit order so far: a ranking's ordered prefix, and for a
    /// scan (in order already) the frames it has yielded.
    fn ranked(&self) -> u64 {
        match self {
            Candidates::Ranked(ranking) => ranking.ordered as u64,
            Candidates::Scan(frames) => frames.start,
        }
    }
}

impl Iterator for Candidates {
    type Item = (FrameIndex, f64);

    fn next(&mut self) -> Option<(FrameIndex, f64)> {
        match self {
            Candidates::Ranked(ranking) => ranking.next(),
            Candidates::Scan(frames) => frames.next().map(|frame| (frame, -1.0)),
        }
    }
}

/// The k-way merge of per-video candidate streams into the one visit order, yielding
/// `(video index, frame)`. Each stream is already in that order, so the heap of their
/// next candidates always holds the global next one. A stream's next candidate is
/// pulled only when the candidate after its last one is asked for, so no video is
/// put in order further than verification reads.
struct Merge {
    sources: Vec<Candidates>,
    heads: BinaryHeap<Reverse<Candidate>>,
    /// Streams whose next candidate has yet to join `heads`: every stream before the
    /// first pull, afterwards the stream of the candidate last yielded.
    pending: Vec<usize>,
}

impl Merge {
    fn new(sources: Vec<Candidates>) -> Merge {
        let pending = (0..sources.len()).collect();
        Merge { heads: BinaryHeap::with_capacity(sources.len()), sources, pending }
    }

    /// Candidates put in visit order so far, over every stream.
    fn ranked(&self) -> u64 {
        self.sources.iter().map(Candidates::ranked).sum()
    }
}

impl Iterator for Merge {
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
    let mut candidates = Vec::with_capacity(scores.num_frames());
    candidates.extend(
        scores.rows(0..scores.num_frames()).enumerate().map(|(frame, row)| {
            (frame as FrameIndex, row.requirement_confidence(&head_requirements))
        }),
    );
    Ok(Ranking::new(candidates))
}

/// How many candidate frames the verification loop hands to
/// [`ObjectDetector::detect_batch`] at a time. Small enough that the early-exit
/// (`LIMIT`) semantics keep a tight leash on wasted work, large enough to amortize
/// per-call bookkeeping.
const VERIFY_PREFETCH: usize = 16;

/// One video's inputs to the windowed verification loop.
struct VerifyVideo<'a> {
    ctx: &'a VideoContext,
    requirements: Vec<(ObjectClass, usize)>,
}

/// The windowed verification loop behind [`verify`]: walks `candidates` (a
/// `(video index, frame)` visit sequence), verifying through per-video
/// [`ObjectDetector::detect_batch`] prefetch windows until `opts.limit` frames are
/// accepted or `budget` detector calls are spent. Returns the accepted
/// `(video index, frame)` pairs in acceptance order and the number of charged calls,
/// and counts on its span how many candidates were put in order to get there.
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
    mut candidates: Merge,
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
        #[expect(
            clippy::indexing_slicing,
            reason = "video_idx comes from the merge, whose streams were built one per entry of \
                      this same videos slice"
        )]
        let video = &videos[video_idx];

        window.clear();
        while window.len() < cap {
            let Some(&(next_video, frame)) = stream.peek() else { break };
            if next_video != video_idx {
                break;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "accepted_per_video is sized videos.len() and video_idx enumerates videos"
            )]
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
                #[expect(
                    clippy::indexing_slicing,
                    reason = "accepted_per_video is sized videos.len() and video_idx enumerates \
                              videos"
                )]
                accepted_per_video[video_idx].push(frame);
            }
        }
    }
    obs::count(obs::COUNTER_FRAMES_RANKED, candidates.ranked());
    (accepted, calls)
}

/// One video's part in a scrub: what to verify against, and its candidates, in the
/// order its sub-plan's strategy visits them.
pub(crate) struct VideoCandidates<'a> {
    video: VerifyVideo<'a>,
    candidates: Candidates,
}

/// Phase 1 of a scrub, for one video: gets its candidates ready — for a ranked
/// sub-plan, training (or loading) its specialized network and scoring its frames,
/// leaving the ordering to verification. A fan-out runs this per video on the
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

/// Phase 2 of a scrub (deterministic): the videos' candidates, one stream per entry
/// of `per_video`, are merged into the one visit order (confidence descending, then
/// video, then frame) and verified in it against one `LIMIT`, charging the detector
/// through per-video prefetch windows, until the limit is satisfied — at which point
/// *no* video is charged another call (early cancellation) or put further in order,
/// no matter how many candidates it still had. An optional `budget` caps detector
/// invocations across all videos.
///
/// Returns the accepted `(index into per_video, frame)` pairs in acceptance order and
/// the number of detector calls charged.
pub(crate) fn verify(
    per_video: Vec<VideoCandidates<'_>>,
    opts: ScrubOptions,
    budget: Option<u64>,
) -> (Vec<(usize, FrameIndex)>, u64) {
    let (videos, sources): (Vec<VerifyVideo<'_>>, Vec<Candidates>) =
        per_video.into_iter().map(|vc| (vc.video, vc.candidates)).unzip();
    verify_windowed(&videos, Merge::new(sources), opts, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::plan::heads_for;
    use crate::result::{QueryOutput, SourcedFrame};
    use crate::session::run_edited;
    use blazeit_videostore::DatasetPreset;
    use proptest::prelude::*;

    fn engine() -> (Catalog, Arc<VideoContext>) {
        Catalog::one_video(DatasetPreset::Taipei, 2_500)
    }

    fn scrub_sql(min_cars: usize, limit: u64, gap: u64) -> String {
        format!(
            "SELECT timestamp FROM taipei GROUP BY timestamp \
             HAVING SUM(class='car') >= {min_cars} LIMIT {limit} GAP {gap}"
        )
    }

    /// Runs a one-video scrub through the planner with its sub-plan edited by `edit`,
    /// returning the frames, the detector calls and the detection seconds charged.
    fn run_scrub(
        catalog: &Catalog,
        sql: &str,
        edit: impl FnOnce(&mut VideoPlan),
    ) -> (Vec<FrameIndex>, u64, f64) {
        let result = run_edited(catalog, sql, edit).unwrap();
        let QueryOutput::Frames { frames, detection_calls } = result.output else {
            panic!("unexpected output {:?}", result.output);
        };
        (frames, detection_calls, result.cost.detection)
    }

    /// The video's ranking for `requirements`, over the network the planner trains.
    fn ranking(ctx: &VideoContext, requirements: &[(ObjectClass, usize)]) -> Ranking {
        let nn = ctx.specialized_for(&heads_for(ctx, requirements)).unwrap();
        rank_frames(ctx, &nn, requirements).unwrap()
    }

    #[test]
    fn scrub_returns_only_true_positives() {
        let (catalog, e) = engine();
        let reqs = [(ObjectClass::Car, 2usize)];
        let (frames, _, _) = run_scrub(&catalog, &scrub_sql(2, 5, 10), |sub| {
            assert_eq!(sub.strategy, PlanStrategy::ScrubRanked);
        });
        assert!(frames.len() <= 5);
        // Every returned frame must genuinely satisfy the predicate according to the
        // detector (which is exactly how they were verified).
        for &frame in &frames {
            let dets = e.detector().detect(&e.video(), frame);
            let counts = CountVector::from_detections(&dets);
            assert!(counts.satisfies_all(&reqs), "frame {frame} fails the predicate");
        }
        // GAP respected.
        for (i, &a) in frames.iter().enumerate() {
            for &b in &frames[i + 1..] {
                assert!(a.abs_diff(b) >= 10);
            }
        }
    }

    #[test]
    fn ranked_scrub_uses_fewer_detector_calls_than_the_scan_for_rare_events() {
        let (catalog, _) = engine();
        // A moderately rare event: at least 3 cars simultaneously.
        let sql = scrub_sql(3, 3, 30);
        let (ranked, ranked_calls, _) = run_scrub(&catalog, &sql, |_| {});
        let (scanned, scan_calls, _) =
            run_scrub(&catalog, &sql, |sub| sub.strategy = PlanStrategy::ScrubScan);
        if ranked.len() == 3 && scanned.len() == 3 {
            assert!(
                ranked_calls <= scan_calls,
                "the ranked scrub used {ranked_calls} detector calls, the scan {scan_calls}"
            );
        }
    }

    #[test]
    fn scoring_is_ranked_descending() {
        let (_, e) = engine();
        let ranked: Vec<(FrameIndex, f64)> = ranking(&e, &[(ObjectClass::Car, 1)]).collect();
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

    /// The visit order as an eager implementation computes it: every
    /// `(frame, confidence)` pair, fully sorted with a stable sort.
    fn eager_order(mut candidates: Vec<(FrameIndex, f64)>) -> Vec<(FrameIndex, f64)> {
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates
    }

    /// Pairs with their confidences as bits, so NaN compares equal to itself.
    fn bits(candidates: &[(FrameIndex, f64)]) -> Vec<(FrameIndex, u64)> {
        candidates.iter().map(|&(frame, confidence)| (frame, confidence.to_bits())).collect()
    }

    /// The frame-by-frame loop the prefetch window must be indistinguishable from:
    /// returns the accepted frames and the detector calls.
    fn verify_serial_reference(
        ctx: &VideoContext,
        order: &[(FrameIndex, f64)],
        requirements: &[(ObjectClass, usize)],
        opts: ScrubOptions,
        budget: Option<u64>,
    ) -> (Vec<FrameIndex>, u64) {
        let video = ctx.video();
        let video = &*video;
        let mut accepted: Vec<FrameIndex> = Vec::new();
        let mut calls = 0u64;
        for &(frame, _confidence) in order {
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
        (accepted, calls)
    }

    #[test]
    fn batched_verification_matches_serial_loop_exactly() {
        // Two identical engines (deterministic substrate): one scrubs through the
        // planner — the lazy ranking, or the scan — verifying through the pipelined
        // detect_batch window, the other walks the eagerly sorted order (or every
        // frame in order) through the frame-by-frame reference. Returned frames,
        // order, call counts, and charged detection seconds must all agree — across
        // gap/limit/budget combinations that exercise window truncation,
        // pairwise-gap breaks, early exit, the budget cap, and walks to exhaustion
        // (a LIMIT no gap-respecting set of satisfying frames can reach).
        let (batched_catalog, _) = engine();
        let (_, serial_engine) = engine();
        let detection = |ctx: &VideoContext| ctx.clock().breakdown().detection;
        let scan_order: Vec<(FrameIndex, f64)> =
            (0..serial_engine.video().len()).map(|frame| (frame, -1.0)).collect();
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
            let sql = scrub_sql(min_count, limit, gap);
            let eager = eager_order(ranking(&serial_engine, &reqs).candidates);
            let drained: Vec<(FrameIndex, f64)> = ranking(&serial_engine, &reqs).collect();
            assert_eq!(bits(&drained), bits(&eager), "the drained ranking is the eager order");

            for (strategy, order) in
                [(PlanStrategy::ScrubRanked, &eager), (PlanStrategy::ScrubScan, &scan_order)]
            {
                for budget in [None, Some(7), Some(600)] {
                    let shape = format!(
                        "{strategy:?} min_count={min_count} limit={limit} gap={gap} {budget:?}"
                    );
                    let (frames, calls, charged) = run_scrub(&batched_catalog, &sql, |sub| {
                        assert_eq!(sub.strategy, PlanStrategy::ScrubRanked, "{shape}");
                        sub.strategy = strategy.clone();
                        sub.detection_budget = budget;
                    });

                    let before = detection(&serial_engine);
                    let serial =
                        verify_serial_reference(&serial_engine, order, &reqs, opts, budget);
                    let charged_serial = detection(&serial_engine) - before;

                    assert_eq!((frames, calls), serial, "{shape}");
                    assert!(
                        (charged - charged_serial).abs() < 1e-9,
                        "{shape}: charged detection time diverged: {charged} vs {charged_serial}"
                    );
                }
            }
        }
    }

    #[test]
    fn explain_analyze_counts_frames_ranked_on_detect_verify() {
        let (catalog, e) = engine();
        let frames_ranked = |limit: u64, gap: u64| {
            let sql = format!("EXPLAIN ANALYZE {}", scrub_sql(1, limit, gap));
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
        assert_eq!(ranked, Some(FIRST_BLOCK as u64), "{text}");
        assert!(text.contains(&format!("frames_ranked={FIRST_BLOCK}")), "{text}");
        assert!(ranked.unwrap() * 4 < e.video().len());

        // No three frames of 2500 are 900 apart, so a LIMIT of 40 walks every
        // candidate — and puts exactly all of them in order.
        let (ranked, text) = frames_ranked(40, 900);
        assert_eq!(ranked, Some(e.video().len()), "{text}");
    }

    #[test]
    fn budgeted_verification_stops_at_the_cap() {
        let (catalog, _) = engine();
        let sql = scrub_sql(3, 50, 0);
        let (unbudgeted, unbudgeted_calls, _) = run_scrub(&catalog, &sql, |_| {});
        let (capped, capped_calls, _) =
            run_scrub(&catalog, &sql, |sub| sub.detection_budget = Some(7));
        assert!(capped_calls <= 7);
        assert!(capped_calls <= unbudgeted_calls);
        // The budgeted run is a prefix of the unbudgeted one.
        assert_eq!(capped[..], unbudgeted[..capped.len().min(unbudgeted.len())]);
    }

    #[test]
    fn limit_zero_returns_nothing() {
        let (catalog, _) = engine();
        for strategy in [PlanStrategy::ScrubRanked, PlanStrategy::ScrubScan] {
            let (frames, calls, _) = run_scrub(&catalog, &scrub_sql(1, 5, 0), |sub| {
                sub.strategy = strategy;
                sub.scrub = Some(ScrubOptions { limit: 0, gap: 0 });
            });
            assert!(frames.is_empty());
            assert_eq!(calls, 0);
        }
    }

    /// The `FROM *` interleave computed eagerly: every video's candidates
    /// concatenated and sorted by (confidence desc, video asc, frame asc).
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
            // `read + max(FIRST_BLOCK, read)`.
            prop_assert!(ranking.ordered <= eager.len());
            prop_assert!(ranking.ordered <= read + FIRST_BLOCK.max(read));
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
            let sources = vec![
                Candidates::Ranked(Ranking::new(per_video[0].clone())),
                Candidates::Scan(0..scan_len),
                Candidates::Ranked(Ranking::new(per_video[2].clone())),
                Candidates::Ranked(Ranking::new(per_video[3].clone())),
            ];
            let mut merge = Merge::new(sources);
            let merged: Vec<(usize, FrameIndex)> = merge.by_ref().collect();
            prop_assert_eq!(merged, concatenate_and_sort(&per_video));
            let total: usize = per_video.iter().map(Vec::len).sum();
            prop_assert_eq!(merge.ranked(), total as u64);
        }
    }
}
