//! Explicit query plans: what the rule-based optimizer chose, as an inspectable value.
//!
//! A [`QueryPlan`] is the catalog-level plan for one prepared query: the query's
//! classification, the [`MergeSemantics`] describing how per-video results combine
//! into one answer, and one [`VideoPlan`] *sub-plan per video* the `FROM` clause
//! spans. The common single-video query has exactly one sub-plan (reachable through
//! [`QueryPlan::only`]); a `FROM a, b, c` or `FROM *` query fans out into one
//! sub-plan per registered video, each with its own strategy, specialized heads, and
//! cache warmth — which is exactly what `EXPLAIN` renders, so a mixed catalog shows
//! per-video `cold` / `disk-warm` / `warm` states side by side.
//!
//! [`plan_query`] builds the plan *without charging the simulated clock*: it reads
//! only the labeled sets' statistics and the contexts' caches. Callers inspect and
//! override the plan through [`PreparedQuery`](crate::session::PreparedQuery) before
//! running it, and `EXPLAIN <query>` renders it via the [`std::fmt::Display`] impl.
//!
//! All policy lives here — which strategy a query runs, which `(class, max_count)`
//! heads it trains (`heads_for`), whether the labeled set has enough examples to
//! train them at all (the `MIN_*` thresholds), and Algorithm 1's rule
//! (`HeldOutCalibration::rewrite_decision`). The executors take the resolved
//! [`VideoPlan`] and decide nothing themselves.
//!
//! One decision cannot always be made for free: Algorithm 1's rewrite-vs-control-
//! variates choice needs the specialized network's held-out error, which requires
//! training. When the network and its held-out calibration are already cached the
//! planner resolves the decision immediately (a lookup); otherwise the sub-plan
//! honestly reports [`RewriteDecision::AtExecution`] and the aggregate executor
//! applies the same rule once it has paid for the calibration.

use crate::aggregate::SamplingOptions;
use crate::baselines::requirement_pairs;
use crate::context::{CacheWarmth, HeldOutCalibration, VideoContext};
use crate::fault::HealthReport;
use crate::scrub::ScrubOptions;
use crate::select::SelectionOptions;
use crate::stream::StreamStatus;
use crate::{BlazeItError, Result};
use blazeit_frameql::query::{AggregateKind, QueryClass, QueryPlanInfo};
use blazeit_videostore::ObjectClass;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Minimum number of positive labeled frames required before BlazeIt will train a
/// specialized NN for an aggregate (Algorithm 1's "sufficient training data" check).
const MIN_TRAINING_EXAMPLES: usize = 50;

/// Minimum number of positive training frames required before BlazeIt trains a
/// specialized NN for a scrubbing query; below this it falls back to a filtered scan
/// (Section 7.1).
const MIN_SCRUB_EXAMPLES: usize = 1;

/// Minimum number of positive labeled frames required before the label-based filter
/// is calibrated for a selection query.
const MIN_LABEL_FILTER_EXAMPLES: usize = 20;

/// How an aggregate's rewrite-vs-control-variates choice (Algorithm 1) stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewriteDecision {
    /// The cached held-out error estimate meets the tolerance: answer from the
    /// specialized network alone.
    Rewrite,
    /// The cached held-out error estimate misses the tolerance: sample with the
    /// specialized network as a control variate.
    ControlVariates,
    /// The specialized network (or its held-out scores) is not cached yet; the
    /// held-out check runs — and is charged — at execution time.
    AtExecution,
}

/// The execution strategy the optimizer chose for one video of a query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanStrategy {
    /// Exact aggregate: object detection on every frame (no error tolerance given).
    ExactScan,
    /// Exact `COUNT(DISTINCT trackid)`: detection + entity resolution on every frame.
    ExactDistinct,
    /// Plain adaptive sampling (no specialized network trainable for this query).
    NaiveSampling,
    /// Algorithm 1: specialized network, then query rewriting or control variates.
    SpecializedAggregate {
        /// The rewrite decision, resolved at plan time when the caches allow it.
        decision: RewriteDecision,
    },
    /// A continuous aggregate (`WINDOW` / `EVERY` clauses): executed tick by
    /// tick through `Session::subscribe` over the stream's incremental score
    /// index, never as a one-shot query.
    ContinuousAggregate,
    /// Scrubbing fallback: sequential scan (no training examples of the event).
    ScrubScan,
    /// Scrubbing: rank all frames by specialized-NN confidence, verify best-first.
    ScrubRanked,
    /// Content-based selection (or exhaustive scan) through the filter pipeline.
    Selection,
}

/// How the per-video sub-results of a multi-video query combine into one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeSemantics {
    /// The query spans one video: its sub-result *is* the answer.
    SingleVideo,
    /// Aggregates: per-video estimates are summed into a catalog-wide total, and
    /// their standard errors compose as the root-sum-square (the videos' samplers
    /// are independent), so the combined confidence interval is never wider than
    /// the sum of the per-video intervals.
    SumEstimates,
    /// Scrubbing: per-video candidate rankings are interleaved by descending
    /// confidence against one *global* `LIMIT`; once it is satisfied, no video is
    /// charged another detector call (early cancellation).
    GlobalLimit,
    /// Selection: per-video rows are concatenated in `FROM`-clause order, each
    /// tagged with its source video.
    ConcatRows,
}

impl MergeSemantics {
    /// The label `EXPLAIN` renders for the merge step.
    fn label(&self) -> &'static str {
        match self {
            MergeSemantics::SingleVideo => "single video (no merge)",
            MergeSemantics::SumEstimates => {
                "sum per-video estimates (composed confidence interval)"
            }
            MergeSemantics::GlobalLimit => {
                "interleave per-video rankings against one global LIMIT \
                 (early cancellation once satisfied)"
            }
            MergeSemantics::ConcatRows => "concatenate rows tagged with their source video",
        }
    }
}

/// The resolved, overridable sub-plan for one video of a prepared query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoPlan {
    /// The registered video this sub-plan executes against.
    pub video: String,
    /// The chosen execution strategy.
    pub strategy: PlanStrategy,
    /// Specialized-network heads `(class, max_count)` the sub-plan trains or reuses.
    pub heads: Vec<(ObjectClass, usize)>,
    /// Adaptive-sampling budget (aggregates with an error tolerance).
    pub sampling: Option<SamplingOptions>,
    /// Scrubbing limit / gap. For a fan-out plan the limit is *global*: execution
    /// requires every sub-plan to carry identical scrub options (and rejects
    /// divergent `plan_mut` overrides with a clear error, rather than silently
    /// honoring one sub-plan's values).
    pub scrub: Option<ScrubOptions>,
    /// Which inferred filters a selection sub-plan may use.
    pub selection: SelectionOptions,
    /// Hard cap on detector invocations (set via
    /// [`PreparedQuery::with_budget`](crate::session::PreparedQuery::with_budget)).
    /// Caps this video's sampler / scan. A fan-out scrub applies it as one
    /// *global* verification cap and therefore requires every sub-plan to carry
    /// the same value (divergent overrides are rejected at run time).
    pub detection_budget: Option<u64>,
    /// How warm the trained-network cache is for `heads`: in memory, persisted
    /// in the catalog's index store (a free disk load away), or cold (training
    /// will be charged).
    pub specialized_cache: CacheWarmth,
    /// How warm the unseen video's score-index cache is for `heads` (same three
    /// states; disk-warm and memory-warm both execute with zero specialized
    /// inference charged).
    pub score_index_cache: CacheWarmth,
    /// The stream state for this video (frames ingested, index freshness and
    /// model generation, drift score, refresh state), rendered by `EXPLAIN`.
    /// `None` for ordinary fixed-length registrations.
    pub stream: Option<StreamStatus>,
    /// The context's health snapshot (store degradation, retry counters,
    /// retrain failures), rendered by `EXPLAIN`. `None` when there is nothing
    /// notable — a fully healthy context renders no health lines at all.
    pub health: Option<HealthReport>,
}

/// How the serving layer's coalescing result cache disposed of a query,
/// stamped onto the plan by `blazeit_core::serve` so `EXPLAIN` can report it.
/// Plans built directly by [`plan_query`] (no server in the path) carry no
/// status and render no `cache:` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheStatus {
    /// Answered from a published result of the same `(query, generation)` key.
    Hit,
    /// Computed fresh (and published for future hits).
    Miss,
    /// Attached as a waiter to an identical in-flight computation; `n` is the
    /// number of waiters that shared the one execution.
    Coalesced(usize),
}

impl CacheStatus {
    /// The `EXPLAIN` rendering: `hit`, `miss`, or `coalesced(n waiters)`.
    pub fn label(&self) -> String {
        match self {
            CacheStatus::Hit => "hit".to_string(),
            CacheStatus::Miss => "miss".to_string(),
            CacheStatus::Coalesced(n) => {
                format!("coalesced({n} waiter{})", if *n == 1 { "" } else { "s" })
            }
        }
    }
}

/// The resolved, overridable plan for one prepared query: one sub-plan per video the
/// `FROM` clause spans, plus the semantics merging their results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryPlan {
    /// The query classification driving the strategy choice.
    pub class: QueryClass,
    /// How per-video sub-results combine into the final answer.
    pub merge: MergeSemantics,
    /// One sub-plan per video, in `FROM`-clause order (registration order for
    /// `FROM *`). Always non-empty.
    pub subplans: Vec<VideoPlan>,
    /// Serving-layer cache disposition, when the query went through a
    /// [`serve::Server`](crate::serve::Server). `None` (the planner default)
    /// renders nothing, keeping direct-session `EXPLAIN` output unchanged.
    #[serde(default)]
    pub cache: Option<CacheStatus>,
}

impl QueryPlan {
    /// The single sub-plan of a single-video query.
    ///
    /// # Panics
    ///
    /// Panics if the plan fans out over more than one video — use
    /// [`QueryPlan::subplans`] (or iterate) for multi-video plans.
    pub fn only(&self) -> &VideoPlan {
        assert_eq!(
            self.subplans.len(),
            1,
            "QueryPlan::only on a plan spanning {} videos",
            self.subplans.len()
        );
        // blazeit-lint: allow(panic-site::index) -- the assert_eq! directly above pins
        // subplans.len() to 1
        &self.subplans[0]
    }

    /// Mutable access to the single sub-plan of a single-video query (same panic
    /// rule as [`QueryPlan::only`]).
    pub fn only_mut(&mut self) -> &mut VideoPlan {
        assert_eq!(
            self.subplans.len(),
            1,
            "QueryPlan::only_mut on a plan spanning {} videos",
            self.subplans.len()
        );
        // blazeit-lint: allow(panic-site::index) -- the assert_eq! above pins subplans.len() to 1
        &mut self.subplans[0]
    }

    /// Whether the plan fans out with catalog merge semantics (`FROM *` or a
    /// `FROM` list of two or more videos). A fan-out plan produces the `Catalog*`
    /// output shapes even when it happens to span a single registered video.
    pub fn is_fan_out(&self) -> bool {
        !matches!(self.merge, MergeSemantics::SingleVideo)
    }
}

/// Plans an analyzed query against every video context it spans, in order.
///
/// Each element of `targets` pairs a registered video's context with the query's
/// analysis against that video's UDF registry. `fan_out` says whether the query's
/// `FROM` clause is catalog-shaped (`FROM *`, or a list of two or more videos):
/// fan-out plans keep the catalog merge semantics — and the `Catalog*` output
/// shapes — even when the catalog happens to hold a single video, so `FROM *`
/// always returns the same result structure regardless of registration count.
///
/// Free of side effects: nothing is trained, nothing is scored, and nothing is
/// charged to the simulated clock — this is what makes `EXPLAIN` free.
pub fn plan_query(targets: &[(&VideoContext, &QueryPlanInfo)], fan_out: bool) -> Result<QueryPlan> {
    let Some((_, first_info)) = targets.first() else {
        return Err(BlazeItError::Internal("plan_query requires at least one video".into()));
    };
    let class = first_info.class.clone();
    let merge = if !fan_out && targets.len() == 1 {
        MergeSemantics::SingleVideo
    } else {
        match &class {
            QueryClass::Aggregate { .. } => MergeSemantics::SumEstimates,
            QueryClass::Scrub => MergeSemantics::GlobalLimit,
            QueryClass::Select | QueryClass::Exhaustive => MergeSemantics::ConcatRows,
        }
    };
    let subplans = targets
        .iter()
        .map(|(ctx, info)| plan_video(ctx, info))
        .collect::<Result<Vec<VideoPlan>>>()?;
    Ok(QueryPlan { class, merge, subplans, cache: None })
}

/// Plans an analyzed query against one video context (one sub-plan of the fan-out).
///
/// Free of side effects and simulated cost, like [`plan_query`].
pub fn plan_video(ctx: &VideoContext, info: &QueryPlanInfo) -> Result<VideoPlan> {
    let mut plan = plan_video_strategy(ctx, info)?;
    // For a streaming context, surface the live state for the chosen heads —
    // this is the free plan-time read `EXPLAIN` renders.
    plan.stream = ctx.stream_status(&plan.heads);
    // Surface degradation only when there is something to say: a healthy
    // context's plan renders byte-identically to one planned before the
    // robustness layer existed.
    let report = ctx.health().report();
    plan.health = report.is_notable().then_some(report);
    Ok(plan)
}

fn plan_video_strategy(ctx: &VideoContext, info: &QueryPlanInfo) -> Result<VideoPlan> {
    let mut plan = VideoPlan {
        video: ctx.video().name().to_string(),
        strategy: PlanStrategy::ExactScan,
        heads: Vec::new(),
        sampling: None,
        scrub: None,
        selection: SelectionOptions::all(),
        detection_budget: None,
        specialized_cache: CacheWarmth::Cold,
        score_index_cache: CacheWarmth::Cold,
        stream: None,
        health: None,
    };

    match &info.class {
        QueryClass::Aggregate { kind } => {
            if let AggregateKind::CountDistinct(column) = kind {
                if column != "trackid" {
                    return Err(BlazeItError::Unsupported(format!(
                        "COUNT(DISTINCT {column}) is not supported; only trackid"
                    )));
                }
                plan.strategy = PlanStrategy::ExactDistinct;
                return Ok(plan);
            }
            if info.window.is_some() || info.every.is_some() {
                // Continuous clauses: the query runs tick by tick under
                // Session::subscribe, answering from the stream's incremental
                // index for the single queried class.
                plan.strategy = PlanStrategy::ContinuousAggregate;
                if let Some(class) = info.single_class() {
                    plan.set_heads(ctx, heads_for(ctx, &[(class, 1)]));
                }
                return Ok(plan);
            }
            let Some(error) = info.error_within else {
                plan.strategy = PlanStrategy::ExactScan;
                return Ok(plan);
            };
            let confidence = info.confidence.unwrap_or(0.95);
            plan.sampling =
                Some(SamplingOptions::new(error, confidence, ctx.config().sampling_seed));
            let trainable = info.single_class().and_then(|class| {
                trainable_heads(ctx, &[(class, 1)], MIN_TRAINING_EXAMPLES)
                    .map(|heads| (class, heads))
            });
            plan.strategy = match trainable {
                Some((class, heads)) => {
                    // Warmth first: resolving the decision promotes a disk-warm
                    // network to memory, and EXPLAIN reports the state before that.
                    plan.set_heads(ctx, heads);
                    // Free when the network and its calibration are cached (memory
                    // or disk); otherwise the decision waits for execution.
                    let decision = ctx
                        .cached_specialized(&plan.heads)
                        .and_then(|nn| ctx.cached_heldout_calibration(&nn))
                        .and_then(|c| c.rewrite_decision(class, error, confidence).ok())
                        .unwrap_or(RewriteDecision::AtExecution);
                    PlanStrategy::SpecializedAggregate { decision }
                }
                None => PlanStrategy::NaiveSampling,
            };
            Ok(plan)
        }
        QueryClass::Scrub => {
            let requirements = requirement_pairs(&info.requirements);
            if requirements.is_empty() {
                return Err(BlazeItError::Unsupported(
                    "scrubbing queries must constrain at least one object class".into(),
                ));
            }
            plan.scrub =
                Some(ScrubOptions { limit: info.limit.unwrap_or(10), gap: info.gap.unwrap_or(0) });
            plan.strategy = match trainable_heads(ctx, &requirements, MIN_SCRUB_EXAMPLES) {
                Some(heads) => {
                    plan.set_heads(ctx, heads);
                    PlanStrategy::ScrubRanked
                }
                None => PlanStrategy::ScrubScan,
            };
            Ok(plan)
        }
        QueryClass::Select | QueryClass::Exhaustive => {
            plan.strategy = PlanStrategy::Selection;
            // The label filter's heads: the selection executor calibrates the
            // filter from exactly these, and skips it when there are none.
            let heads = label_filter_heads(ctx, info);
            if !heads.is_empty() {
                plan.set_heads(ctx, heads);
            }
            Ok(plan)
        }
    }
}

/// The head-set rule: one counting head per required class (as in the paper, a
/// single network counts each class separately), sized by the larger of the
/// query's own threshold and the "highest count in ≥1% of frames" rule
/// ([`VideoContext::default_max_count`]).
pub(crate) fn heads_for(
    ctx: &VideoContext,
    requirements: &[(ObjectClass, usize)],
) -> Vec<(ObjectClass, usize)> {
    requirements
        .iter()
        .map(|&(class, min_count)| (class, ctx.default_max_count(class, min_count)))
        .collect()
}

/// The sufficiency rule: the heads for `requirements` when the training day holds
/// at least `min_examples` frames satisfying them, `None` when a specialized
/// network cannot be trained and the strategy must fall back.
fn trainable_heads(
    ctx: &VideoContext,
    requirements: &[(ObjectClass, usize)],
    min_examples: usize,
) -> Option<Vec<(ObjectClass, usize)>> {
    ctx.labeled()
        .has_training_examples(requirements, min_examples)
        .then(|| heads_for(ctx, requirements))
}

/// The heads a selection's label filter trains: one presence head for the single
/// target class when it has enough labeled data to calibrate on, none otherwise.
/// (Also asked by [`select::plan_filters`](crate::select::plan_filters), the harness
/// entry that runs without a [`VideoPlan`].)
pub(crate) fn label_filter_heads(
    ctx: &VideoContext,
    info: &QueryPlanInfo,
) -> Vec<(ObjectClass, usize)> {
    info.single_class()
        .and_then(|class| trainable_heads(ctx, &[(class, 1)], MIN_LABEL_FILTER_EXAMPLES))
        .unwrap_or_default()
}

impl HeldOutCalibration {
    /// Algorithm 1's rule: rewrite the query when the bootstrap puts the
    /// specialized network's held-out FCOUNT error within `error` with
    /// probability at least `confidence`; otherwise sample with the network as a
    /// control variate.
    pub(crate) fn rewrite_decision(
        &self,
        class: ObjectClass,
        error: f64,
        confidence: f64,
    ) -> Result<RewriteDecision> {
        let estimate = &self.head(class)?.fcount_error;
        Ok(if estimate.prob_error_within(error) >= confidence {
            RewriteDecision::Rewrite
        } else {
            RewriteDecision::ControlVariates
        })
    }
}

impl QueryPlan {
    fn class_label(&self) -> String {
        match &self.class {
            QueryClass::Aggregate { kind } => match kind {
                AggregateKind::FrameAveragedCount => "aggregate (FCOUNT)".to_string(),
                AggregateKind::Count => "aggregate (COUNT)".to_string(),
                AggregateKind::CountDistinct(col) => format!("aggregate (COUNT DISTINCT {col})"),
            },
            QueryClass::Scrub => "scrub (cardinality-limited)".to_string(),
            QueryClass::Select => "content-based selection".to_string(),
            QueryClass::Exhaustive => "exhaustive scan".to_string(),
        }
    }
}

impl VideoPlan {
    /// Records the heads the sub-plan trains or reuses, with how warm this
    /// context's caches are for them.
    fn set_heads(&mut self, ctx: &VideoContext, heads: Vec<(ObjectClass, usize)>) {
        self.specialized_cache = ctx.specialized_warmth(&heads);
        self.score_index_cache = ctx.score_index_warmth(&heads);
        self.heads = heads;
    }

    fn strategy_label(&self) -> String {
        match &self.strategy {
            PlanStrategy::ExactScan => "exact scan (detector on every frame)".to_string(),
            PlanStrategy::ExactDistinct => {
                "exact distinct count (detector + entity resolution on every frame)".to_string()
            }
            PlanStrategy::NaiveSampling => {
                "naive adaptive sampling (no specialized NN)".to_string()
            }
            PlanStrategy::SpecializedAggregate { decision } => match decision {
                RewriteDecision::Rewrite => {
                    "query rewriting (cached held-out error within tolerance)".to_string()
                }
                RewriteDecision::ControlVariates => {
                    "control-variate sampling (cached held-out error exceeds tolerance)".to_string()
                }
                RewriteDecision::AtExecution => {
                    "specialized NN; rewrite vs control variates decided at execution \
                     (train + held-out error check)"
                        .to_string()
                }
            },
            PlanStrategy::ContinuousAggregate => {
                "continuous aggregate over the stream's incremental index \
                 (run via Session::subscribe)"
                    .to_string()
            }
            PlanStrategy::ScrubScan => {
                "sequential scan (no training examples of the event)".to_string()
            }
            PlanStrategy::ScrubRanked => {
                "rank frames by specialized-NN confidence, verify best-first".to_string()
            }
            PlanStrategy::Selection => "filtered scan feeding the object detector".to_string(),
        }
    }

    /// Renders the per-video lines of this sub-plan (everything below the
    /// class / merge header).
    fn fmt_body(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  strategy: {}", self.strategy_label())?;
        if !self.heads.is_empty() {
            let heads: Vec<String> =
                self.heads.iter().map(|(c, m)| format!("{}<={m}", c.name())).collect();
            writeln!(f, "  heads:    {}", heads.join(", "))?;
        }
        if let Some(s) = &self.sampling {
            writeln!(
                f,
                "  sampling: error within {} at {:.0}% confidence (seed {})",
                s.error,
                s.confidence * 100.0,
                s.seed
            )?;
        }
        if let Some(s) = &self.scrub {
            writeln!(f, "  scrub:    limit {} gap {}", s.limit, s.gap)?;
        }
        if matches!(self.strategy, PlanStrategy::Selection) {
            let onoff = |b: bool| if b { "on" } else { "off" };
            writeln!(
                f,
                "  filters:  label={} content={} temporal={} spatial={}",
                onoff(self.selection.use_label_filter),
                onoff(self.selection.use_content_filter),
                onoff(self.selection.use_temporal_filter),
                onoff(self.selection.use_spatial_filter),
            )?;
        }
        match self.detection_budget {
            Some(budget) => writeln!(f, "  budget:   at most {budget} detector calls")?,
            None => writeln!(f, "  budget:   unlimited detector calls")?,
        }
        write!(
            f,
            "  caches:   specialized={} score-index={}",
            self.specialized_cache.label(),
            self.score_index_cache.label()
        )?;
        if let Some(stream) = &self.stream {
            writeln!(f)?;
            write!(
                f,
                "  stream:   ingested {}/{} frames; index {}",
                stream.ingested,
                stream.capacity,
                match stream.index_frames {
                    Some(frames) => {
                        format!("covers {frames} (generation {})", stream.generation)
                    }
                    None => "not built".to_string(),
                },
            )?;
            writeln!(f)?;
            write!(
                f,
                "  drift:    score {} vs threshold {}; refresh {}",
                stream.drift_score.map_or("unchecked".to_string(), |s| format!("{s:.3}")),
                if stream.drift_threshold.is_finite() {
                    format!("{:.3}", stream.drift_threshold)
                } else {
                    "disabled".to_string()
                },
                stream.refresh.label(),
            )?;
        }
        if let Some(health) = &self.health {
            writeln!(f)?;
            write!(f, "  health:   {}", health.health_line())?;
            if let Some(retrain) = health.retrain_line() {
                writeln!(f)?;
                write!(f, "  retrain:  {retrain}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_fan_out() {
            // blazeit-lint: allow(panic-site::index) -- !is_fan_out() means this plan holds exactly
            // one subplan
            let sub = &self.subplans[0];
            writeln!(f, "QUERY PLAN for '{}'", sub.video)?;
            writeln!(f, "  class:    {}", self.class_label())?;
            if let Some(status) = &self.cache {
                writeln!(f, "  cache:    {}", status.label())?;
            }
            return sub.fmt_body(f);
        }
        let plural = if self.subplans.len() == 1 { "video" } else { "videos" };
        writeln!(f, "QUERY PLAN over {} {plural}", self.subplans.len())?;
        writeln!(f, "  class:    {}", self.class_label())?;
        writeln!(f, "  merge:    {}", self.merge.label())?;
        if let Some(status) = &self.cache {
            writeln!(f, "  cache:    {}", status.label())?;
        }
        for (i, sub) in self.subplans.iter().enumerate() {
            writeln!(f, "SUB-PLAN for '{}'", sub.video)?;
            sub.fmt_body(f)?;
            if i + 1 < self.subplans.len() {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}
