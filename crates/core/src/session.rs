//! Sessions and prepared queries: the planner / executor split.
//!
//! A [`Session`] is a lightweight query handle over a [`Catalog`].
//! [`Session::prepare`] parses a FrameQL string, routes it to the registered video(s)
//! named in its `FROM` clause — one video, an explicit `FROM a, b, c` list, or
//! `FROM *` for the whole catalog — analyzes it per video, and plans it, all without
//! charging the simulated clock. The returned [`PreparedQuery`] holds a [`QueryPlan`]
//! with one sub-plan per video that the caller can inspect
//! ([`PreparedQuery::plan`]), render ([`PreparedQuery::explain`]), and override
//! ([`PreparedQuery::with_options`], [`PreparedQuery::with_budget`]) before paying
//! for execution with [`PreparedQuery::run`].
//!
//! Multi-video queries execute their per-video sub-queries **in parallel** across
//! [`VideoContext`]s (on the persistent worker pool of
//! [`blazeit_nn::parallel`]) and merge results with statistically honest semantics:
//! aggregates sum per-video estimates and compose their confidence intervals
//! (root-sum-square of independent standard errors), scrubbing interleaves
//! per-video rankings against one global `LIMIT` with early cancellation, and
//! selection concatenates rows tagged with their source video (see
//! [`MergeSemantics`](crate::plan::MergeSemantics)).
//!
//! `EXPLAIN <query>` flows through the same path: the prepared query is marked
//! explain-only and [`PreparedQuery::run`] returns the rendered plan as
//! [`QueryOutput::Explain`] with zero simulated cost.

// blazeit-lint: allow-file(panic-site::index) -- PreparedQuery invariant: targets and subplans are
// built together by plan(), non-empty and of equal length

use crate::aggregate;
use crate::catalog::Catalog;
use crate::context::VideoContext;
use crate::fault;
use crate::obs;
use crate::plan::{plan_query, QueryPlan};
use crate::result::{QueryOutput, QueryResult, SourcedRow, VideoAggregate};
use crate::scrub;
use crate::select::{self, SelectionOptions};
use crate::{BlazeItError, Result};
use blazeit_detect::SimClock;
use blazeit_frameql::ast::FromClause;
use blazeit_frameql::query::{analyze, QueryClass, QueryPlanInfo};
use blazeit_frameql::{parse_query, Query};
use std::sync::Arc;
use std::time::Instant;

/// A query session over a catalog of registered videos.
#[derive(Debug, Clone, Copy)]
pub struct Session<'a> {
    catalog: &'a Catalog,
}

/// One video a prepared query spans: its context plus the query's analysis against
/// that video's UDF registry. The context is an `Arc` snapshot out of the shared
/// catalog, so a prepared query stays valid (and runnable from any thread) no
/// matter what is registered afterwards.
#[derive(Debug)]
struct QueryTarget {
    ctx: Arc<VideoContext>,
    info: QueryPlanInfo,
}

impl<'a> Session<'a> {
    pub(crate) fn new(catalog: &'a Catalog) -> Session<'a> {
        Session { catalog }
    }

    /// The catalog this session queries.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Parses, routes, analyzes and plans a FrameQL query without executing it (and
    /// without charging the simulated clock).
    ///
    /// The `FROM` clause decides the fan-out: a single name routes to that video, a
    /// list routes to each named video in query order, and `*` routes to every
    /// registered video in registration order. Unknown names fail with
    /// [`BlazeItError::UnknownVideo`] (including a nearest-name suggestion).
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery> {
        let parse_started = Instant::now();
        let parsed = parse_query(sql)?;
        let parse_wall_secs = parse_started.elapsed().as_secs_f64();
        let plan_started = Instant::now();
        let contexts: Vec<Arc<VideoContext>> = match &parsed.from {
            FromClause::All => {
                let contexts = self.catalog.contexts();
                if contexts.is_empty() {
                    return Err(BlazeItError::Unsupported(
                        "FROM * spans every registered video, but the catalog is empty; \
                         register a video first"
                            .into(),
                    ));
                }
                contexts
            }
            FromClause::Videos(names) => {
                let mut contexts: Vec<Arc<VideoContext>> = Vec::with_capacity(names.len());
                for name in names {
                    let ctx = self.catalog.context(name)?;
                    // The parser rejects duplicates it can see; this guards ASTs
                    // built programmatically (two spellings of one stream).
                    if contexts.iter().any(|c| Arc::ptr_eq(c, &ctx)) {
                        return Err(BlazeItError::Unsupported(format!(
                            "video '{name}' appears more than once in the FROM list"
                        )));
                    }
                    contexts.push(ctx);
                }
                contexts
            }
        };
        let targets: Vec<QueryTarget> = contexts
            .into_iter()
            .map(|ctx| {
                let info = analyze(&parsed, &ctx.udfs())?;
                Ok(QueryTarget { ctx, info })
            })
            .collect::<Result<_>>()?;
        let pairs: Vec<(&VideoContext, &QueryPlanInfo)> =
            targets.iter().map(|t| (t.ctx.as_ref(), &t.info)).collect();
        // `FROM *` keeps catalog (fan-out) semantics even over a one-video catalog,
        // so the query's result shape never depends on how many videos happen to be
        // registered.
        let fan_out = parsed.from.is_all() || targets.len() > 1;
        let plan = plan_query(&pairs, fan_out)?;
        Ok(PreparedQuery {
            targets,
            sql: sql.to_string(),
            query: parsed,
            plan,
            parse_wall_secs,
            plan_wall_secs: plan_started.elapsed().as_secs_f64(),
            admission_wait_secs: None,
        })
    }

    /// Convenience: prepare and immediately run a query with its default plan.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.prepare(sql)?.run()
    }
}

/// A planned query, ready to inspect, override, and run.
///
/// Owns `Arc` snapshots of its target contexts, so it has no borrow of the
/// session or catalog: it can be moved across threads and run after (or while)
/// the catalog changes under it.
#[derive(Debug)]
pub struct PreparedQuery {
    targets: Vec<QueryTarget>,
    sql: String,
    query: Query,
    plan: QueryPlan,
    /// Wall-clock seconds `prepare` spent parsing — surfaced as the `parse`
    /// span of an `EXPLAIN ANALYZE` trace (the collector is installed at run
    /// time, after these stages already happened).
    parse_wall_secs: f64,
    /// Wall-clock seconds `prepare` spent routing, analyzing, and planning —
    /// the `plan` span of an `EXPLAIN ANALYZE` trace.
    plan_wall_secs: f64,
    /// Wall-clock seconds the serving layer spent waiting for admission before
    /// calling [`PreparedQuery::run`] — surfaced as the `admission wait` span
    /// of an `EXPLAIN ANALYZE` trace. `None` for queries that never passed
    /// through admission control.
    admission_wait_secs: Option<f64>,
}

impl PreparedQuery {
    /// The first (for single-video queries: the only) video context the query was
    /// routed to. Multi-video queries span every context in [`PreparedQuery::contexts`].
    pub fn context(&self) -> &VideoContext {
        self.targets[0].ctx.as_ref()
    }

    /// Every video context the query spans, in `FROM`-clause order.
    pub fn contexts(&self) -> impl Iterator<Item = &VideoContext> + '_ {
        self.targets.iter().map(|t| t.ctx.as_ref())
    }

    /// The parsed query AST.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The analyzed plan information (classification, requirements, constraints)
    /// for the first video. Analysis differs between videos only through their UDF
    /// registries; the classification is identical across the fan-out.
    pub fn info(&self) -> &QueryPlanInfo {
        &self.targets[0].info
    }

    /// The resolved plan: one sub-plan per video plus the merge semantics.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Mutable access to the plan — the full override hatch for harnesses.
    pub fn plan_mut(&mut self) -> &mut QueryPlan {
        &mut self.plan
    }

    /// Whether this statement was an `EXPLAIN` (runs free, returns the plan).
    /// True for `EXPLAIN ANALYZE` too — check [`PreparedQuery::is_analyze`]
    /// to distinguish the variant that executes.
    pub fn is_explain(&self) -> bool {
        self.query.explain
    }

    /// Whether this statement was an `EXPLAIN ANALYZE` (executes the query
    /// under a trace collector and returns the recorded span tree).
    pub fn is_analyze(&self) -> bool {
        self.query.analyze
    }

    /// Replaces the selection filter options (which inferred filters a selection
    /// plan may use) on **every** sub-plan. No effect on aggregate / scrubbing
    /// strategies.
    pub fn with_options(mut self, options: SelectionOptions) -> PreparedQuery {
        for sub in &mut self.plan.subplans {
            sub.selection = options;
        }
        self
    }

    /// Caps the number of object-detector invocations the plan may spend.
    ///
    /// The cap binds adaptive sampling (aggregates) and ranked verification
    /// (scrubbing); exact scans and selection scans are not truncated, since cutting
    /// them off would silently change the result's meaning. For a multi-video
    /// aggregate the cap applies per video (each sampler is independent); for a
    /// multi-video scrub it caps the *global* verification loop, matching the
    /// global `LIMIT`. The executors fold the budget into their own knobs at run
    /// time, so later `plan_mut` edits compose.
    pub fn with_budget(mut self, max_detection_calls: u64) -> PreparedQuery {
        for sub in &mut self.plan.subplans {
            sub.detection_budget = Some(max_detection_calls);
        }
        self
    }

    /// Records how long the serving layer waited for admission before running
    /// this query, so an `EXPLAIN ANALYZE` trace can surface the wait as its
    /// own span (the wait happens before the collector is installed).
    pub fn set_admission_wait(&mut self, wait_secs: f64) {
        self.admission_wait_secs = Some(wait_secs);
    }

    /// The rendered plan, exactly what `EXPLAIN <query>` returns.
    pub fn explain(&self) -> String {
        self.plan.to_string()
    }

    /// Executes the plan (or, for `EXPLAIN`, returns the rendered plan for free;
    /// for `EXPLAIN ANALYZE`, executes under a trace collector and returns the
    /// recorded span tree).
    pub fn run(&self) -> Result<QueryResult> {
        let started = Instant::now();
        let clock = self.targets[0].ctx.clock();

        if self.query.analyze {
            return self.run_analyze(started);
        }

        // This thread's own ledger, not the clock's fold over every ledger: a
        // served query must not report what other sessions were charged
        // meanwhile. (Pool workers charge the submitter's tag, and untagged
        // library callers all share ledger 0.)
        let tag = SimClock::charge_tag();
        let cost_before = clock.breakdown_for(tag);
        let output = if self.query.explain {
            QueryOutput::Explain { plan: self.plan.clone() }
        } else {
            self.reject_continuous_clauses()?;
            self.execute()?
        };

        let cost = clock.breakdown_for(tag).since(&cost_before);
        Ok(QueryResult {
            query: self.sql.clone(),
            output,
            cost,
            wall_secs: started.elapsed().as_secs_f64(),
        })
    }

    fn reject_continuous_clauses(&self) -> Result<()> {
        if self.query.window.is_some() || self.query.every.is_some() {
            return Err(BlazeItError::Unsupported(
                "WINDOW/EVERY are continuous-query clauses; subscribe the query \
                 with Session::subscribe instead of running it one-shot"
                    .into(),
            ));
        }
        Ok(())
    }

    /// `EXPLAIN ANALYZE`: executes the plan with a trace collector installed,
    /// then returns the assembled span tree (the executed payload itself is
    /// discarded, like the rows of a PostgreSQL `EXPLAIN ANALYZE`).
    ///
    /// The result's `cost` is defined as [`QueryTrace::total_cost`] — the fold
    /// of the per-span deltas in span order, which the collector merged back
    /// into the ambient ledger with the identical fold — so the rendered trace
    /// total always equals the result's cost **bitwise**, and both equal what
    /// the session's ledger was charged.
    ///
    /// [`QueryTrace::total_cost`]: crate::obs::QueryTrace::total_cost
    fn run_analyze(&self, started: Instant) -> Result<QueryResult> {
        self.reject_continuous_clauses()?;
        let clock = self.targets[0].ctx.clock();
        let guard = obs::install_collector(Arc::clone(clock));
        let outcome = {
            let _root = obs::span("query");
            obs::record_span("parse", self.parse_wall_secs);
            obs::record_span("plan", self.plan_wall_secs);
            if let Some(wait) = self.admission_wait_secs {
                obs::record_span("admission wait", wait);
            }
            let result = self.execute();
            if let Ok(output) = &result {
                obs::count(obs::COUNTER_DETECTOR_CALLS, output.detection_calls());
            }
            result
        };
        let trace = guard.finish();
        outcome?;
        let cost = trace.total_cost();
        Ok(QueryResult {
            query: self.sql.clone(),
            output: QueryOutput::ExplainAnalyze { plan: self.plan.clone(), trace },
            cost,
            wall_secs: started.elapsed().as_secs_f64(),
        })
    }

    fn execute(&self) -> Result<QueryOutput> {
        if !self.plan.is_fan_out() {
            let target = &self.targets[0];
            let sub = &self.plan.subplans[0];
            let _video = obs::span_with(|| format!("video '{}'", target.ctx.video().name()));
            return match &target.info.class {
                QueryClass::Aggregate { .. } => aggregate::execute(&target.ctx, &target.info, sub),
                QueryClass::Scrub => scrub::execute(&target.ctx, &target.info, sub),
                QueryClass::Select | QueryClass::Exhaustive => {
                    select::execute(&target.ctx, &self.query, &target.info, sub)
                }
            };
        }
        match &self.targets[0].info.class {
            QueryClass::Aggregate { .. } => self.execute_catalog_aggregate(),
            QueryClass::Scrub => self.execute_catalog_scrub(),
            QueryClass::Select | QueryClass::Exhaustive => self.execute_catalog_selection(),
        }
    }

    /// Runs one closure per video concurrently on the persistent worker pool,
    /// returning results in `FROM`-clause order. Each video's sub-query is
    /// deterministic in isolation (its own seeds, caches, and frames), so the
    /// fan-out's results are independent of scheduling.
    ///
    /// Panics are caught at the task boundary: a panicking sub-query becomes a
    /// typed [`BlazeItError::TaskPanicked`] naming its video, sibling
    /// sub-queries finish normally, and the worker pool stays healthy.
    fn fan_out<T: Send>(
        &self,
        per_video: impl Fn(usize) -> Result<T> + Send + Sync,
    ) -> Vec<Result<T>> {
        let per_video = &per_video;
        // Fan-out tasks run on pool workers, whose thread-local tracing state
        // is empty: capture this thread's state (if a trace is active) and
        // re-install it inside each task, so per-video spans attach under the
        // submitting query's span — the same trick the pool itself plays with
        // the SimClock charge tag.
        let trace = obs::trace_context();
        let trace = &trace;
        let tasks: Vec<Box<dyn FnOnce() -> Result<T> + Send + '_>> = (0..self.targets.len())
            .map(|idx| {
                let task: Box<dyn FnOnce() -> Result<T> + Send + '_> = Box::new(move || {
                    let body = || {
                        let _video = obs::span_with(|| {
                            format!("video '{}'", self.targets[idx].ctx.video().name())
                        });
                        if fault::inject(fault::FaultSite::ParTask).is_some() {
                            // blazeit-lint: allow(panic-site) -- deliberate chaos panic: the
                            // injected fault must explode inside the task so the pool
                            // boundary's catch_unwind handling is what gets exercised.
                            panic!("injected fault: parallel sub-query panic");
                        }
                        per_video(idx)
                    };
                    match trace {
                        Some(trace) => trace.enter(body),
                        None => body(),
                    }
                });
                task
            })
            .collect();
        blazeit_nn::parallel::par_run_caught(tasks)
            .into_iter()
            .enumerate()
            .map(|(idx, outcome)| match outcome {
                Ok(result) => result,
                Err(caught) => Err(BlazeItError::TaskPanicked {
                    task: format!("sub-query for video '{}'", self.targets[idx].ctx.video().name()),
                    message: caught.message,
                }),
            })
            .collect()
    }

    /// Multi-video aggregate: per-video estimates in parallel, then the catalog-wide
    /// sum with a composed (root-sum-square) standard error. Summing is statistically
    /// honest because each video's estimator is unbiased for its own total and the
    /// samplers draw independently; independence also makes the composed interval
    /// never wider than the sum of the per-video intervals.
    fn execute_catalog_aggregate(&self) -> Result<QueryOutput> {
        let outputs = self.fan_out(|idx| {
            let target = &self.targets[idx];
            aggregate::execute(&target.ctx, &target.info, &self.plan.subplans[idx])
        });
        let _merge = obs::span("merge");
        let mut per_video = Vec::with_capacity(outputs.len());
        for (target, output) in self.targets.iter().zip(outputs) {
            match output? {
                QueryOutput::Aggregate { value, standard_error, detection_calls, method } => {
                    per_video.push(VideoAggregate {
                        video: target.ctx.video().name().to_string(),
                        value,
                        standard_error,
                        detection_calls,
                        method,
                    });
                }
                other => {
                    return Err(BlazeItError::Internal(format!(
                        "aggregate sub-query returned non-aggregate output {other:?}"
                    )))
                }
            }
        }
        let value = per_video.iter().map(|v| v.value).sum();
        let detection_calls = per_video.iter().map(|v| v.detection_calls).sum();
        let sum_of_squares: f64 =
            per_video.iter().filter_map(|v| v.standard_error).map(|se| se * se).sum();
        let standard_error = if per_video.iter().any(|v| v.standard_error.is_some()) {
            Some(sum_of_squares.sqrt())
        } else {
            None
        };
        Ok(QueryOutput::CatalogAggregate { value, standard_error, detection_calls, per_video })
    }

    /// Multi-video scrub: per-video candidate confidences in parallel, then one
    /// global `LIMIT` over the merged candidates, verified in that deterministic
    /// order.
    fn execute_catalog_scrub(&self) -> Result<QueryOutput> {
        let opts = self.plan.subplans[0].scrub.ok_or_else(|| {
            BlazeItError::Internal("catalog scrub plan carries no scrub options".into())
        })?;
        let budget = self.plan.subplans[0].detection_budget;
        // The limit, gap, and budget are global to the interleaved verification, so
        // a per-sub-plan override that diverges cannot be honored — reject it
        // loudly instead of silently running with one sub-plan's values.
        for sub in &self.plan.subplans[1..] {
            if sub.scrub != Some(opts) || sub.detection_budget != budget {
                return Err(BlazeItError::Unsupported(format!(
                    "a multi-video scrub runs one global LIMIT/GAP and detector \
                     budget, but sub-plan '{}' diverges from '{}'; set identical \
                     scrub options and budget on every sub-plan",
                    sub.video, self.plan.subplans[0].video
                )));
            }
        }
        let per_video = self
            .fan_out(|idx| {
                let target = &self.targets[idx];
                scrub::rank_candidates(&target.ctx, &target.info, &self.plan.subplans[idx])
            })
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        Ok(scrub::verify_catalog(per_video, opts, budget))
    }

    /// Multi-video selection: per-video filtered scans in parallel, rows
    /// concatenated in `FROM`-clause order and tagged with their source video.
    fn execute_catalog_selection(&self) -> Result<QueryOutput> {
        let outputs = self.fan_out(|idx| {
            let target = &self.targets[idx];
            select::execute(&target.ctx, &self.query, &target.info, &self.plan.subplans[idx])
        });
        let _merge = obs::span("merge");
        let mut all_rows: Vec<SourcedRow> = Vec::new();
        let mut detection_calls = 0u64;
        for (target, output) in self.targets.iter().zip(outputs) {
            match output? {
                QueryOutput::Rows { rows, detection_calls: calls } => {
                    let video = target.ctx.video().name().to_string();
                    all_rows.extend(
                        rows.into_iter().map(|row| SourcedRow { video: video.clone(), row }),
                    );
                    detection_calls += calls;
                }
                other => {
                    return Err(BlazeItError::Internal(format!(
                        "selection sub-query returned non-row output {other:?}"
                    )))
                }
            }
        }
        Ok(QueryOutput::CatalogRows { rows: all_rows, detection_calls })
    }
}
