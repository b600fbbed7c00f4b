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
use crate::stats::{mean_and_sample_variance, mean_and_variance, normal_critical_value};
use crate::{baselines, BlazeItError, Result};
use blazeit_detect::{count_class, ObjectDetector};
use blazeit_frameql::query::{AggregateKind, QueryClass, QueryPlanInfo};
use blazeit_nn::specialized::SpecializedNN;
use blazeit_videostore::ObjectClass;
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingOutcome {
    /// The estimate of the frame-averaged count.
    pub estimate: f64,
    /// Number of frames sampled (= object-detection calls).
    pub samples: u64,
    /// Standard error of the estimator at termination.
    pub standard_error: f64,
    /// The fitted control-variate coefficient (0 for naive sampling).
    pub control_coefficient: f64,
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
            let (fcount, calls) = baselines::naive_fcount(ctx, class)?;
            Ok(QueryOutput::Aggregate {
                value: finalize_kind(kind, fcount, ctx),
                standard_error: None,
                detection_calls: calls,
                method: AggregateMethod::Exact,
            })
        }
        // Not enough training data (or no single class): plain adaptive sampling.
        PlanStrategy::NaiveSampling => {
            let outcome = naive_aqp_fcount(ctx, class, budgeted_sampling(plan)?)?;
            Ok(QueryOutput::Aggregate {
                value: finalize_kind(kind, outcome.estimate, ctx),
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
                    let value = rewrite_fcount(ctx, &nn, class)?;
                    Ok(QueryOutput::Aggregate {
                        value: finalize_kind(kind, value, ctx),
                        standard_error: None,
                        detection_calls: 0,
                        method: AggregateMethod::QueryRewriting,
                    })
                }
                _ => {
                    let outcome = control_variate_fcount(ctx, &nn, class, opts)?;
                    Ok(QueryOutput::Aggregate {
                        value: finalize_kind(kind, outcome.estimate, ctx),
                        standard_error: Some(outcome.standard_error),
                        detection_calls: outcome.samples,
                        method: AggregateMethod::ControlVariates,
                    })
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

/// Converts a frame-averaged count into the requested aggregate.
fn finalize_kind(kind: &AggregateKind, fcount: f64, ctx: &VideoContext) -> f64 {
    match kind {
        AggregateKind::FrameAveragedCount => fcount,
        AggregateKind::Count => fcount * ctx.video().len() as f64,
        AggregateKind::CountDistinct(_) => fcount,
    }
}

/// Answers an FCOUNT query directly from the specialized NN (query rewriting): the
/// mean of the NN's expected count over every frame of the unseen video. No object
/// detection is performed; the per-frame scores come from the context's cached
/// batched score index, so only the first query per class set pays inference.
pub fn rewrite_fcount(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    class: ObjectClass,
) -> Result<f64> {
    let _rewrite = obs::span("query rewrite");
    let head = nn
        .head_index(class)
        .ok_or_else(|| BlazeItError::Internal(format!("no head for class {class}")))?;
    let scores = ctx.score_index(nn)?;
    let mut total = 0.0f64;
    for frame in 0..scores.num_frames() {
        total += scores.expected_count(frame, head);
    }
    Ok(total / scores.num_frames().max(1) as f64)
}

/// The number of detector samples at which adaptive sampling starts: `K / ε`, where `K`
/// is the range of the estimated quantity (max count + 1).
pub fn initial_sample_size(range_k: usize, error: f64) -> u64 {
    ((range_k.max(1) as f64) / error.max(1e-6)).ceil() as u64
}

fn detector_count(ctx: &VideoContext, frame: u64, class: Option<ObjectClass>) -> usize {
    let detections = ctx.detector().detect(&ctx.video(), frame);
    match class {
        Some(c) => count_class(&detections, c),
        None => detections.len(),
    }
}

/// Plain adaptive sampling (naive AQP): uniform random frames, detector counts, CLT
/// stopping rule.
pub fn naive_aqp_fcount(
    ctx: &VideoContext,
    class: Option<ObjectClass>,
    opts: SamplingOptions,
) -> Result<SamplingOutcome> {
    adaptive_sampling(ctx, class, opts, None)
}

/// Adaptive sampling with the specialized NN as a control variate.
///
/// The NN's expected count is computed for *every* frame of the unseen video (cheap:
/// ~10,000 fps simulated), giving the control variate's exact mean `τ` and variance.
/// Each sampled frame contributes the pair `(m_i, t_i)`; the coefficient
/// `c = -Cov(m, t) / Var(t)` is re-estimated every round and the estimator
/// `m̂ = m̄ + c (t̄ - τ)` replaces the plain sample mean, shrinking the variance by the
/// squared correlation.
pub fn control_variate_fcount(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    class: ObjectClass,
    opts: SamplingOptions,
) -> Result<SamplingOutcome> {
    let t_all = specialized_scores(ctx, nn, class)?;
    control_variate_fcount_with_scores(ctx, &t_all, class, opts)
}

/// Computes the specialized NN's expected count for every frame of the unseen video
/// (the control variate's values), reading from the context's cached batched score
/// index. The first call per class set charges (batched) specialized-inference
/// time; repeated calls are free.
pub fn specialized_scores(
    ctx: &VideoContext,
    nn: &Arc<SpecializedNN>,
    class: ObjectClass,
) -> Result<Vec<f64>> {
    let head = nn
        .head_index(class)
        .ok_or_else(|| BlazeItError::Internal(format!("no head for class {class}")))?;
    let scores = ctx.score_index(nn)?;
    Ok((0..scores.num_frames()).map(|frame| scores.expected_count(frame, head)).collect())
}

/// Control-variate sampling reusing precomputed per-frame specialized-NN scores (the
/// "indexed" scenario, and what lets sweep harnesses score each video only once).
pub fn control_variate_fcount_with_scores(
    ctx: &VideoContext,
    t_all: &[f64],
    class: ObjectClass,
    opts: SamplingOptions,
) -> Result<SamplingOutcome> {
    if t_all.len() != ctx.video().len() as usize {
        return Err(BlazeItError::Internal(format!(
            "control variate scores cover {} frames but the video has {}",
            t_all.len(),
            ctx.video().len()
        )));
    }
    let (tau, var_t) = mean_and_variance(t_all);
    adaptive_sampling(
        ctx,
        Some(class),
        opts,
        Some(ControlVariate { t_all: t_all.to_vec(), tau, var_t }),
    )
}

struct ControlVariate {
    t_all: Vec<f64>,
    tau: f64,
    var_t: f64,
}

fn adaptive_sampling(
    ctx: &VideoContext,
    class: Option<ObjectClass>,
    opts: SamplingOptions,
    control: Option<ControlVariate>,
) -> Result<SamplingOutcome> {
    let _sample = obs::span("sample-verify");
    if opts.error <= 0.0 {
        return Err(BlazeItError::Unsupported("error tolerance must be positive".into()));
    }
    if !(0.0..1.0).contains(&opts.confidence) {
        return Err(BlazeItError::Unsupported("confidence must be in (0, 1)".into()));
    }
    let video = ctx.video();
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
        m.push(detector_count(ctx, frame, class) as f64);
        if let Some(cv) = &control {
            // blazeit-lint: allow(panic-site::index) -- frame ranges over 0..num_frames and t_all
            // was sized with one entry per frame
            t.push(cv.t_all[frame as usize]);
        }
    };

    for _ in 0..initial {
        draw(&mut rng, &mut m_samples, &mut t_samples);
    }

    loop {
        let (estimate, std_err, coefficient) = estimator_state(&m_samples, &t_samples, &control);
        if z * std_err < opts.error || m_samples.len() as u64 >= max_samples {
            return Ok(SamplingOutcome {
                estimate,
                samples: m_samples.len() as u64,
                standard_error: std_err,
                control_coefficient: coefficient,
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

/// Computes the current estimate, its standard error, and the control coefficient.
fn estimator_state(
    m_samples: &[f64],
    t_samples: &[f64],
    control: &Option<ControlVariate>,
) -> (f64, f64, f64) {
    let n = m_samples.len().max(1) as f64;
    let mean_m = m_samples.iter().sum::<f64>() / n;
    match control {
        None => {
            let std = sample_std(m_samples);
            (mean_m, std / n.sqrt(), 0.0)
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
            (estimate, std / n.sqrt(), c)
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

    #[test]
    fn naive_sampling_estimates_fcount_within_tolerance() {
        let (_, e) = engine();
        let (true_fcount, _) = baselines::oracle_fcount(&e, Some(ObjectClass::Car));
        let outcome =
            naive_aqp_fcount(&e, Some(ObjectClass::Car), SamplingOptions::new(0.1, 0.95, 17))
                .unwrap();
        assert!(outcome.samples >= initial_sample_size(2, 0.1));
        assert!(
            (outcome.estimate - true_fcount).abs() < 0.25,
            "estimate {} vs truth {true_fcount}",
            outcome.estimate
        );
        assert_eq!(outcome.control_coefficient, 0.0);
    }

    #[test]
    fn control_variates_use_fewer_samples_than_naive() {
        let (_, e) = engine();
        let class = ObjectClass::Car;
        let nn = e.specialized_for(&[(class, e.default_max_count(class, 1))]).unwrap();
        let opts = SamplingOptions::new(0.03, 0.95, 5);
        let naive = naive_aqp_fcount(&e, Some(class), opts).unwrap();
        let cv = control_variate_fcount(&e, &nn, class, opts).unwrap();
        assert!(
            cv.samples <= naive.samples,
            "control variates used {} samples vs naive {}",
            cv.samples,
            naive.samples
        );
        assert!(cv.control_coefficient.abs() > 0.0);
    }

    #[test]
    fn rewriting_matches_ground_truth_roughly() {
        let (_, e) = engine();
        let class = ObjectClass::Car;
        let nn = e.specialized_for(&[(class, e.default_max_count(class, 1))]).unwrap();
        let value = rewrite_fcount(&e, &nn, class).unwrap();
        let (true_fcount, _) = baselines::oracle_fcount(&e, Some(class));
        assert!(
            (value - true_fcount).abs() < 0.5,
            "rewriting gave {value}, detector ground truth {true_fcount}"
        );
    }

    #[test]
    fn invalid_options_rejected() {
        let (_, e) = engine();
        assert!(naive_aqp_fcount(&e, None, SamplingOptions::new(0.0, 0.95, 1)).is_err());
        assert!(naive_aqp_fcount(&e, None, SamplingOptions::new(0.1, 1.5, 1)).is_err());
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
