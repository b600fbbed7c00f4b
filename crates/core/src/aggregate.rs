//! Aggregation queries (Section 6 of the paper).
//!
//! Given an aggregate with a user-specified error tolerance and confidence, BlazeIt
//! picks between three plans (Algorithm 1):
//!
//! 1. **Query rewriting** (Section 6.2): train a specialized counting NN on the labeled
//!    set; if its bootstrap-estimated FCOUNT error on the held-out day is within the
//!    tolerance at the requested confidence, answer the query from the specialized NN
//!    alone — zero object-detection calls on the unseen data.
//! 2. **Control variates** (Section 6.3): otherwise use the specialized NN as a control
//!    variate inside the adaptive sampling loop, reducing the variance of the sampled
//!    detector counts and therefore the number of detector invocations.
//! 3. **Naive AQP** (Section 6.1): when there is not enough training data for a
//!    specialized NN, fall back to plain adaptive sampling.
//!
//! The adaptive sampling loop starts at `K/ε` samples (an ε-net argument, where `K` is
//! the range of the estimated quantity) and stops when the CLT bound
//! `Q(1 - δ/2) · σ̂_N < ε` holds, using the finite-sample (Bessel) corrected standard
//! deviation of the estimator.

use crate::context::VideoContext;
use crate::obs;
use crate::plan::{PlanStrategy, RewriteDecision, VideoPlan};
use crate::result::{AggregateMethod, QueryOutput};
use crate::stats::{mean_and_sample_variance, normal_critical_value};
use crate::{baselines, BlazeItError, Result};
use blazeit_detect::{count_class, ObjectDetector};
use blazeit_frameql::query::{AggregateKind, QueryClass, QueryPlanInfo};
use blazeit_nn::specialized::SpecializedNN;
use blazeit_nn::ScoreMatrix;
use blazeit_videostore::{ObjectClass, Video};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Options controlling an adaptive sampling run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingOptions {
    /// Absolute error tolerance ε.
    pub error: f64,
    /// Confidence level (fraction), e.g. 0.95.
    pub confidence: f64,
    /// RNG seed for frame sampling.
    pub seed: u64,
    /// Hard cap on the number of sampled frames (defaults to the video length).
    pub max_samples: Option<u64>,
}

impl SamplingOptions {
    /// Builds options with the default seed from the engine configuration.
    pub fn new(error: f64, confidence: f64, seed: u64) -> SamplingOptions {
        SamplingOptions { error, confidence, seed, max_samples: None }
    }
}

/// The outcome of an adaptive sampling run.
struct SamplingOutcome {
    /// The estimate of the frame-averaged count.
    estimate: f64,
    /// Number of frames sampled (= object-detection calls).
    samples: u64,
    /// Standard error of the estimator at termination.
    standard_error: f64,
    /// Frames of the video the samples were drawn from.
    frames: u64,
}

/// Executes an aggregate query against one video, following the strategy the planner
/// resolved into its sub-plan (Algorithm 1 of the paper; see
/// [`crate::plan::plan_video`]).
pub fn execute(ctx: &VideoContext, info: &QueryPlanInfo, plan: &VideoPlan) -> Result<QueryOutput> {
    let QueryClass::Aggregate { kind } = &info.class else {
        return Err(BlazeItError::Internal("aggregate::execute called on non-aggregate".into()));
    };
    let class = info.single_class();

    match &plan.strategy {
        PlanStrategy::ExactDistinct => {
            let (value, calls) = baselines::exact_distinct_count(ctx, class)?;
            Ok(QueryOutput::Aggregate {
                value,
                standard_error: None,
                detection_calls: calls,
                method: AggregateMethod::Exact,
            })
        }
        // No error tolerance: the user asked for the exact answer.
        PlanStrategy::ExactScan => {
            let (fcount, frames, calls) = baselines::naive_fcount(ctx, class)?;
            Ok(QueryOutput::Aggregate {
                value: finalize_kind(kind, fcount, frames),
                standard_error: None,
                detection_calls: calls,
                method: AggregateMethod::Exact,
            })
        }
        // Not enough training data (or no single class): plain adaptive sampling.
        PlanStrategy::NaiveSampling => {
            let video = ctx.video();
            let outcome = adaptive_sampling(ctx, &video, class, budgeted_sampling(plan)?, None)?;
            Ok(QueryOutput::Aggregate {
                value: finalize_kind(kind, outcome.estimate, outcome.frames),
                standard_error: Some(outcome.standard_error),
                detection_calls: outcome.samples,
                method: AggregateMethod::NaiveSampling,
            })
        }
        // Algorithm 1: specialized NN, then rewriting or control variates.
        PlanStrategy::SpecializedAggregate { decision } => {
            let class = class.ok_or_else(|| {
                BlazeItError::Internal("specialized aggregate plan without a single class".into())
            })?;
            let opts = budgeted_sampling(plan)?;
            let nn = ctx.specialized_for(&plan.heads)?;
            let decision =
                match decision {
                    // The planner could not check the held-out error for free; pay for
                    // the calibration now (only the first query per class set does) and
                    // apply the planner's own rule to it.
                    RewriteDecision::AtExecution => ctx
                        .heldout_calibration(&nn)?
                        .rewrite_decision(class, opts.error, opts.confidence)?,
                    resolved => *resolved,
                };
            match decision {
                RewriteDecision::Rewrite => {
                    let (value, frames) = rewrite_fcount(ctx, &nn, class)?;
                    Ok(QueryOutput::Aggregate {
                        value: finalize_kind(kind, value, frames),
                        standard_error: None,
                        detection_calls: 0,
                        method: AggregateMethod::QueryRewriting,
                    })
                }
                _ => {
                    control_variate_aggregate(ctx, &ctx.indexed_video(&nn)?, &nn, kind, class, opts)
                }
            }
        }
        other => Err(BlazeItError::Internal(format!(
            "aggregate::execute called with non-aggregate strategy {other:?}"
        ))),
    }
}

/// The sub-plan's sampling options with any detector-call budget folded into the cap.
fn budgeted_sampling(plan: &VideoPlan) -> Result<SamplingOptions> {
    let mut opts = plan.sampling.ok_or_else(|| {
        BlazeItError::Internal("sampling aggregate plan carries no sampling options".into())
    })?;
    if let Some(budget) = plan.detection_budget {
        opts.max_samples = Some(opts.max_samples.map_or(budget, |m| m.min(budget)));
    }
    Ok(opts)
}

/// Converts a frame-averaged count over `frames` frames into the requested
/// aggregate.
fn finalize_kind(kind: &AggregateKind, fcount: f64, frames: u64) -> f64 {
    match kind {
        AggregateKind::FrameAveragedCount => fcount,
        AggregateKind::Count => fcount * frames as f64,
        AggregateKind::CountDistinct(_) => fcount,
    }
}

/// Answers an FCOUNT query directly from the specialized NN (query rewriting): the
/// mean of the NN's expected count over every frame of the unseen video, and the
/// number of frames it averaged. No object detection is performed; the per-frame
/// scores come from the context's cached batched score index, so only the first
/// query per class set pays inference, and the sum is the index's running sum.
fn rewrite_fcount(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    class: ObjectClass,
) -> Result<(f64, u64)> {
    let _rewrite = obs::span("query rewrite");
    let head = nn
        .head_index(class)
        .ok_or_else(|| BlazeItError::Internal(format!("no head for class {class}")))?;
    let scores = ctx.score_index(nn)?;
    let frames = scores.num_frames();
    Ok((scores.expected_count_sum(head, frames) / frames.max(1) as f64, frames as u64))
}

/// The number of detector samples at which adaptive sampling starts: `K / ε`, where `K`
/// is the range of the estimated quantity (max count + 1).
fn initial_sample_size(range_k: usize, error: f64) -> u64 {
    ((range_k.max(1) as f64) / error.max(1e-6)).ceil() as u64
}

fn detector_count(
    ctx: &VideoContext,
    video: &Video,
    frame: u64,
    class: Option<ObjectClass>,
) -> usize {
    let detections = ctx.detector().detect(video, frame);
    match class {
        Some(c) => count_class(&detections, c),
        None => detections.len(),
    }
}

/// Answers `kind` by adaptive sampling with the specialized NN as a control variate.
///
/// The NN's expected count of every frame of the unseen video (cheap: ~10,000 fps
/// simulated) gives the control variate's exact mean `τ` and variance, both read
/// off the score index (see [`control_moments`]). Each sampled frame contributes
/// the pair `(m_i, t_i)`; the coefficient `c = -Cov(m, t) / Var(t)` is re-estimated
/// every round and the estimator `m̂ = m̄ + c (t̄ - τ)` replaces the plain sample
/// mean, shrinking the variance by the squared correlation.
///
/// `snapshot` is one `(video, score index)` pair ([`VideoContext::indexed_video`]):
/// frames are drawn from exactly the frames the index covers, and COUNT is scaled
/// by that frame count, however far a stream has grown since.
fn control_variate_aggregate(
    ctx: &VideoContext,
    snapshot: &(Arc<Video>, Arc<ScoreMatrix>),
    nn: &SpecializedNN,
    kind: &AggregateKind,
    class: ObjectClass,
    opts: SamplingOptions,
) -> Result<QueryOutput> {
    let (video, scores) = snapshot;
    let head = nn
        .head_index(class)
        .ok_or_else(|| BlazeItError::Internal(format!("no head for class {class}")))?;
    if scores.num_frames() as u64 != video.len() {
        return Err(BlazeItError::Internal(format!(
            "control variate scores cover {} frames but their video has {}",
            scores.num_frames(),
            video.len()
        )));
    }
    let moments = control_moments(scores, head);
    let control = ControlVariate { scores, head, moments };
    let outcome = adaptive_sampling(ctx, video, Some(class), opts, Some(control))?;
    Ok(QueryOutput::Aggregate {
        value: finalize_kind(kind, outcome.estimate, outcome.frames),
        standard_error: Some(outcome.standard_error),
        detection_calls: outcome.samples,
        method: AggregateMethod::ControlVariates,
    })
}

/// The control variate's exact mean `τ` and population variance over every frame.
#[derive(Debug, Clone, Copy)]
struct Moments {
    tau: f64,
    var_t: f64,
}

/// `Moments` of head `head`'s expected counts over the whole index: `τ` from the
/// running sum, the variance from one pass over the rows in frame order — the bits
/// `stats::mean_and_variance` gives over the materialised column.
fn control_moments(scores: &ScoreMatrix, head: usize) -> Moments {
    let frames = scores.num_frames();
    if frames == 0 {
        return Moments { tau: 0.0, var_t: 0.0 };
    }
    let n = frames as f64;
    let tau = scores.expected_count_sum(head, frames) / n;
    let var_t =
        scores.expected_counts(head, 0..frames).map(|t| (t - tau) * (t - tau)).sum::<f64>() / n;
    Moments { tau, var_t }
}

/// Where a control-variate run reads each sampled frame's `t_i`, and the moments.
struct ControlVariate<'a> {
    scores: &'a ScoreMatrix,
    head: usize,
    moments: Moments,
}

fn adaptive_sampling(
    ctx: &VideoContext,
    video: &Video,
    class: Option<ObjectClass>,
    opts: SamplingOptions,
    control: Option<ControlVariate<'_>>,
) -> Result<SamplingOutcome> {
    let _sample = obs::span("sample-verify");
    if opts.error <= 0.0 {
        return Err(BlazeItError::Unsupported("error tolerance must be positive".into()));
    }
    if !(0.0..1.0).contains(&opts.confidence) {
        return Err(BlazeItError::Unsupported("confidence must be in (0, 1)".into()));
    }
    let num_frames = video.len();
    let range_k = match class {
        Some(c) => ctx.default_max_count(c, 1) + 1,
        None => ctx.labeled().train().counts.iter().map(|cv| cv.total()).max().unwrap_or(1) + 1,
    };
    let z = normal_critical_value(opts.confidence);
    // An explicit max_samples (e.g. a detector-call budget from the plan) is a hard
    // cap: it truncates even the initial K/eps draw.
    let max_samples = opts.max_samples.unwrap_or(num_frames).max(1);
    let initial = initial_sample_size(range_k, opts.error).min(num_frames.max(1)).min(max_samples);
    let batch = (initial / 10).max(25);

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut m_samples: Vec<f64> = Vec::new();
    let mut t_samples: Vec<f64> = Vec::new();

    let draw = |rng: &mut StdRng, m: &mut Vec<f64>, t: &mut Vec<f64>| {
        let frame = rng.gen_range(0..num_frames);
        m.push(detector_count(ctx, video, frame, class) as f64);
        if let Some(cv) = &control {
            t.push(cv.scores.expected_count(frame as usize, cv.head));
        }
    };

    for _ in 0..initial {
        draw(&mut rng, &mut m_samples, &mut t_samples);
    }

    let moments = control.as_ref().map(|cv| cv.moments);
    loop {
        let (estimate, std_err) = estimator_state(&m_samples, &t_samples, moments);
        if z * std_err < opts.error || m_samples.len() as u64 >= max_samples {
            return Ok(SamplingOutcome {
                estimate,
                samples: m_samples.len() as u64,
                standard_error: std_err,
                frames: num_frames,
            });
        }
        // The hard cap also truncates the final batch, never just the between-batch
        // check — otherwise a round could overshoot the budget by up to batch - 1.
        let room = max_samples - m_samples.len() as u64;
        for _ in 0..batch.min(room) {
            draw(&mut rng, &mut m_samples, &mut t_samples);
        }
    }
}

/// Computes the current estimate and its standard error (re-fitting the control
/// coefficient when there is a control variate).
fn estimator_state(m_samples: &[f64], t_samples: &[f64], control: Option<Moments>) -> (f64, f64) {
    let n = m_samples.len().max(1) as f64;
    let mean_m = m_samples.iter().sum::<f64>() / n;
    match control {
        None => {
            let std = sample_std(m_samples);
            (mean_m, std / n.sqrt())
        }
        Some(cv) => {
            let mean_t = t_samples.iter().sum::<f64>() / n;
            let c = if cv.var_t > 1e-12 {
                let cov = sample_cov(m_samples, t_samples);
                -cov / cv.var_t
            } else {
                0.0
            };
            let adjusted: Vec<f64> =
                m_samples.iter().zip(t_samples).map(|(m, t)| m + c * (t - cv.tau)).collect();
            let estimate = mean_m + c * (mean_t - cv.tau);
            let std = sample_std(&adjusted);
            (estimate, std / n.sqrt())
        }
    }
}

fn sample_std(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::INFINITY;
    }
    mean_and_sample_variance(values).1.sqrt()
}

fn sample_cov(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum::<f64>() / (n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::session::run_edited;
    use crate::stats::mean_and_variance;
    use blazeit_videostore::DatasetPreset;

    fn engine() -> (Catalog, Arc<VideoContext>) {
        Catalog::one_video(DatasetPreset::Taipei, 2_000)
    }

    #[test]
    fn initial_sample_size_follows_k_over_eps() {
        assert_eq!(initial_sample_size(5, 0.1), 50);
        assert_eq!(initial_sample_size(5, 0.01), 500);
        assert_eq!(initial_sample_size(0, 0.1), 10);
    }

    /// Runs a taipei car FCOUNT within `error` through the planner with its sub-plan
    /// edited by `edit`, returning the estimate, the detector calls and how it was
    /// answered.
    fn run_fcount(
        catalog: &Catalog,
        error: f64,
        edit: impl FnOnce(&mut VideoPlan),
    ) -> Result<(f64, u64, AggregateMethod)> {
        let sql = format!(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN {error} \
             AT CONFIDENCE 95%"
        );
        match run_edited(catalog, &sql, edit)?.output {
            QueryOutput::Aggregate { value, detection_calls, method, .. } => {
                Ok((value, detection_calls, method))
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn naive_sampling_estimates_fcount_within_tolerance() {
        let (catalog, e) = engine();
        let (true_fcount, _) = baselines::oracle_fcount(&e, Some(ObjectClass::Car));
        let (estimate, samples, method) = run_fcount(&catalog, 0.1, |sub| {
            sub.strategy = PlanStrategy::NaiveSampling;
            sub.sampling.as_mut().unwrap().seed = 17;
        })
        .unwrap();
        assert_eq!(method, AggregateMethod::NaiveSampling);
        assert!(samples >= initial_sample_size(2, 0.1));
        assert!(
            (estimate - true_fcount).abs() < 0.25,
            "estimate {estimate} vs truth {true_fcount}"
        );
    }

    #[test]
    fn control_variates_use_fewer_samples_than_naive() {
        let (catalog, _) = engine();
        // An error target neither strategy needs every frame for (at 0.03 both stop
        // at the 2000-frame cap).
        let error = 0.05;
        let seed = |sub: &mut VideoPlan| sub.sampling.as_mut().unwrap().seed = 5;
        let (_, naive, _) = run_fcount(&catalog, error, |sub| {
            seed(sub);
            sub.strategy = PlanStrategy::NaiveSampling;
        })
        .unwrap();
        let (_, cv, method) = run_fcount(&catalog, error, |sub| {
            seed(sub);
            sub.strategy =
                PlanStrategy::SpecializedAggregate { decision: RewriteDecision::ControlVariates };
        })
        .unwrap();
        assert_eq!(method, AggregateMethod::ControlVariates);
        // Both runs draw the same frames, so equal counts would mean the control
        // variate changed nothing (here 1050 vs 1325).
        assert!(cv < naive, "control variates used {cv} samples vs naive {naive}");
    }

    #[test]
    fn control_variate_fits_a_coefficient_that_shrinks_the_standard_error() {
        // `m` follows `t` up to small noise: the fitted coefficient must be non-zero
        // (≈ −1) and cut the standard error well below plain sampling's.
        let t: Vec<f64> = (0..200).map(|i| ((i * 37) % 11) as f64 / 4.0).collect();
        let m: Vec<f64> =
            t.iter().enumerate().map(|(i, t)| t + ((i * 13) % 5) as f64 * 0.1).collect();
        let (tau, var_t) = mean_and_variance(&t);
        let control = Some(Moments { tau, var_t });
        let (plain_estimate, plain) = estimator_state(&m, &t, None);
        let (cv_estimate, cv) = estimator_state(&m, &t, control);
        assert!(cv < 0.25 * plain, "control-variate error {cv} vs plain {plain}");
        // Every frame sampled: t̄ = τ, so the correction leaves the mean unchanged.
        assert!((cv_estimate - plain_estimate).abs() < 1e-12);
    }

    /// A deterministic index of `frames` rows over heads of sizes 4 and 3, grown
    /// the way a stream grows one: a first batch, then ticks of uneven sizes.
    fn synthetic_index(frames: usize) -> ScoreMatrix {
        let heads = vec![4, 3];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rows = Vec::with_capacity(frames * 7);
        for _ in 0..frames {
            for &size in &heads {
                let raw: Vec<f32> = (0..size)
                    .map(|_| {
                        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        (state >> 40) as f32 / (1u64 << 24) as f32 + 1e-3
                    })
                    .collect();
                let total: f32 = raw.iter().sum();
                rows.extend(raw.iter().map(|p| p / total));
            }
        }
        let mut index = ScoreMatrix::empty(heads.clone());
        let mut at = 0;
        for tick in [1_000, 256, 3_000, 1, 4_096, 999].into_iter().chain(std::iter::repeat(2_048)) {
            let tick = tick.min(frames - at);
            if tick == 0 {
                break;
            }
            let tail =
                ScoreMatrix::from_raw(tick, heads.clone(), rows[at * 7..(at + tick) * 7].to_vec())
                    .unwrap();
            index = index.extended(&tail).unwrap();
            at += tick;
        }
        index
    }

    #[test]
    fn control_moments_equal_the_materialised_column_bit_for_bit() {
        // Over 10 000 frames: three chunks, the last one partial.
        let frames = 2 * blazeit_nn::score::CHUNK_ROWS + 1_900;
        let index = synthetic_index(frames);
        assert_eq!(index.num_frames(), frames);
        for head in 0..index.num_heads() {
            let column: Vec<f64> = (0..frames).map(|f| index.expected_count(f, head)).collect();
            let (tau, var_t) = mean_and_variance(&column);
            let moments = control_moments(&index, head);
            assert_eq!(moments.tau.to_bits(), tau.to_bits(), "head {head}: tau");
            assert_eq!(moments.var_t.to_bits(), var_t.to_bits(), "head {head}: var_t");
        }
    }

    #[test]
    fn control_variate_count_samples_and_scales_the_snapshot_while_the_stream_grows() {
        let class = ObjectClass::Car;
        let count_sql = "SELECT COUNT(*) FROM taipei WHERE class = 'car' \
                         ERROR WITHIN 0.1 AT CONFIDENCE 95%";
        let stream = Catalog::new();
        let ctx = stream
            .register_stream_preset(
                DatasetPreset::Taipei,
                1_500,
                1_000,
                crate::stream::DriftConfig::disabled(),
            )
            .unwrap();

        // Reference: the planner's control-variate COUNT end to end on a fixed
        // video of the stream's first 1000 frames.
        let fixed = Catalog::new();
        fixed
            .register((*ctx.video()).clone(), Arc::clone(ctx.labeled()), ctx.config().clone())
            .unwrap();
        let mut forced = None;
        let reference = run_edited(&fixed, count_sql, |sub| {
            sub.strategy =
                PlanStrategy::SpecializedAggregate { decision: RewriteDecision::ControlVariates };
            sub.sampling.as_mut().unwrap().seed = 3;
            forced = Some((sub.heads.clone(), sub.sampling.unwrap()));
        })
        .unwrap()
        .output;
        let (heads, opts) = forced.unwrap();

        // The stream's index covers 1000 frames; 256 more land before sampling.
        let nn = ctx.specialized_for(&heads).unwrap();
        let snapshot = ctx.indexed_video(&nn).unwrap();
        stream.stream("taipei").unwrap().advance(256).unwrap();
        assert_eq!((snapshot.0.len(), ctx.video().len()), (1_000, 1_256));
        let answer = |kind: &AggregateKind| match control_variate_aggregate(
            &ctx, &snapshot, &nn, kind, class, opts,
        )
        .unwrap()
        {
            QueryOutput::Aggregate { value, standard_error, detection_calls, method } => {
                assert_eq!(method, AggregateMethod::ControlVariates);
                (value, standard_error.unwrap(), detection_calls)
            }
            other => panic!("unexpected output {other:?}"),
        };
        let count = answer(&AggregateKind::Count);
        let fcount = answer(&AggregateKind::FrameAveragedCount);
        // COUNT is FCOUNT scaled by the frames the index covers, not the stream's
        // current length.
        assert_eq!(count.0.to_bits(), (fcount.0 * 1_000.0).to_bits());
        assert_eq!((count.1.to_bits(), count.2), (fcount.1.to_bits(), fcount.2));
        let QueryOutput::Aggregate { value, standard_error, detection_calls, .. } = reference
        else {
            panic!("unexpected output {reference:?}")
        };
        assert_eq!(count.0.to_bits(), value.to_bits());
        assert_eq!(count.1.to_bits(), standard_error.unwrap().to_bits());
        assert_eq!(count.2, detection_calls);
    }

    #[test]
    fn rewriting_matches_ground_truth_roughly() {
        let (catalog, e) = engine();
        let (value, calls, method) = run_fcount(&catalog, 0.1, |sub| {
            sub.strategy =
                PlanStrategy::SpecializedAggregate { decision: RewriteDecision::Rewrite };
        })
        .unwrap();
        assert_eq!((calls, method), (0, AggregateMethod::QueryRewriting));
        let (true_fcount, _) = baselines::oracle_fcount(&e, Some(ObjectClass::Car));
        assert!(
            (value - true_fcount).abs() < 0.5,
            "rewriting gave {value}, detector ground truth {true_fcount}"
        );
    }

    #[test]
    fn invalid_options_rejected() {
        let (catalog, _) = engine();
        for (error, confidence) in [(0.0, 0.95), (0.1, 1.5)] {
            let run = run_fcount(&catalog, 0.1, |sub| {
                sub.strategy = PlanStrategy::NaiveSampling;
                sub.sampling = Some(SamplingOptions::new(error, confidence, 1));
            });
            assert!(matches!(run, Err(BlazeItError::Unsupported(_))), "{run:?}");
        }
    }

    #[test]
    fn execute_exact_when_no_error_bound() {
        let (catalog, e) = engine();
        let result =
            catalog.session().query("SELECT FCOUNT(*) FROM taipei WHERE class = 'car'").unwrap();
        match result.output {
            QueryOutput::Aggregate { method, detection_calls, .. } => {
                assert_eq!(method, AggregateMethod::Exact);
                assert_eq!(detection_calls, e.video().len());
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn execute_falls_back_to_naive_sampling_for_rare_class() {
        // Birds never appear in taipei, so there is no training data for a specialized
        // NN and the engine must fall back to plain AQP.
        let (catalog, _) = engine();
        let result = catalog
            .session()
            .query("SELECT FCOUNT(*) FROM taipei WHERE class = 'bird' ERROR WITHIN 0.1 AT CONFIDENCE 95%")
            .unwrap();
        match result.output {
            QueryOutput::Aggregate { method, value, .. } => {
                assert_eq!(method, AggregateMethod::NaiveSampling);
                assert!(value.abs() < 0.05, "bird FCOUNT should be ~0, got {value}");
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn count_star_scales_fcount_by_frames() {
        let (catalog, e) = engine();
        let fcount = catalog
            .session()
            .query("SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 90%")
            .unwrap()
            .output
            .aggregate_value()
            .unwrap();
        let count = catalog
            .session()
            .query("SELECT COUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 90%")
            .unwrap()
            .output
            .aggregate_value()
            .unwrap();
        let frames = e.video().len() as f64;
        assert!(
            (count - fcount * frames).abs() / (fcount * frames) < 0.5,
            "COUNT(*) {count} is not consistent with FCOUNT {fcount} * {frames}"
        );
    }
}
