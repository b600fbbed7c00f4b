//! Streaming ingestion, incremental score indexes, drift detection, and
//! continuous queries.
//!
//! BlazeIt's motivating deployments (traffic cameras, retail feeds) are *live*
//! streams, and ingest-time processing is where the cost/latency win lives
//! (Focus builds its low-latency story on an ingest-time index; NoScope's
//! amortization argument needs the cascade's work to happen as data arrives).
//! This module turns a registered video into a growing one:
//!
//! * A [`StreamSource`] appends frames to a registered stream's
//!   [`VideoContext`]. The synthetic substrate generates the *full* day
//!   deterministically up front and ingestion reveals successive prefixes
//!   ([`Video::prefix`]), so the frames a query sees never depend on when they
//!   were ingested — which is exactly the property that makes incremental
//!   indexing honest.
//! * Every ingest **incrementally extends** the context's cached score indexes:
//!   only the newly arrived frames are featurized and scored (batched, on the
//!   [`blazeit_nn::parallel`] worker pool), and the new rows are appended to
//!   the cached [`ScoreMatrix`]. Because per-frame scores are
//!   batch-composition invariant, the incremental index is **bit-identical** to
//!   a cold full re-score of the grown video — and already-scored frames are
//!   never charged again. Write-behind keeps the durable
//!   [`IndexStore`](crate::store::IndexStore) consistent with the grown video
//!   (the superseded shorter artifact is replaced).
//! * A **drift monitor** compares the recent window's specialized-score
//!   distribution against the training-time (held-out calibration)
//!   distribution with a two-sample Kolmogorov–Smirnov statistic, cost-modeled
//!   on the shared [`SimClock`](blazeit_detect::SimClock) through the
//!   cheap-filter path. Past a threshold it schedules a **background retrain**
//!   (run via [`blazeit_nn::parallel::par_run_caught`], so a panicking retrain
//!   degrades instead of crashing): the recent window is labeled
//!   with the full detector, a fresh specialized network is trained on those
//!   labels, the ingested prefix is re-scored, and the new `(network, index)`
//!   pair is **swapped in atomically** — a subscribed query snapshots
//!   `(network, scores, generation)` under one lock and therefore always
//!   answers from exactly one model generation.
//! * [`Session::subscribe`] turns a FrameQL `FCOUNT`/`COUNT` aggregate —
//!   optionally with `WINDOW n FRAMES` / `EVERY n FRAMES` clauses — into a
//!   [`Subscription`] yielding one [`StreamUpdate`] per tick, with an honest
//!   confidence interval derived from held-out calibration residuals. Ticks
//!   read the incremental index and charge **zero** detection and zero
//!   redundant specialized inference.
//!
//! `EXPLAIN` renders the stream state (frames ingested, index freshness and
//! generation, last drift score, refresh pending/running) for any query planned
//! against a streaming context; see
//! [`StreamStatus`] and [`VideoPlan::stream`](crate::plan::VideoPlan::stream).

use crate::catalog::Catalog;
use crate::context::{LiveIndex, VideoContext};
use crate::fault::{self, RetrainHealth};
use crate::lockorder::{Lock, RankedMutex};
use crate::obs;
use crate::plan::heads_for;
use crate::session::Session;
use crate::single_flight::Flight;
use crate::stats::normal_critical_value;
use crate::{BlazeItError, Result};
use blazeit_detect::clock::CostCategory;
use blazeit_detect::{CountVector, ObjectDetector};
use blazeit_frameql::parse_query;
use blazeit_frameql::query::{analyze, AggregateKind, QueryClass};
use blazeit_nn::parallel::par_run_caught;
use blazeit_nn::specialized::SpecializedNN;
use blazeit_nn::ScoreMatrix;
use blazeit_videostore::{ObjectClass, Video};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Default tick interval (frames) for a subscription whose query names neither
/// `EVERY` nor `WINDOW`.
pub const DEFAULT_TICK_FRAMES: u64 = 512;

/// Configuration of a stream's drift monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Width (frames) of the recent window whose score distribution is
    /// compared against the training-time reference.
    pub window: u64,
    /// Run the two-sample check each time this many further frames have been
    /// ingested since the last check.
    pub check_every: u64,
    /// Kolmogorov–Smirnov statistic above which a background refresh is
    /// scheduled. `f64::INFINITY` disables drift-triggered refreshes.
    pub threshold: f64,
    /// Stride (frames) at which a refresh labels the recent window with the
    /// full object detector (charged, like any detector use).
    pub retrain_stride: u64,
    /// Never check before this many frames have been ingested (a tiny prefix
    /// has too little signal for a two-sample statistic).
    pub min_history: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 600,
            check_every: 300,
            threshold: 0.25,
            retrain_stride: 3,
            min_history: 600,
        }
    }
}

impl DriftConfig {
    /// A monitor that never triggers (incremental indexing only).
    pub fn disabled() -> DriftConfig {
        DriftConfig { threshold: f64::INFINITY, ..DriftConfig::default() }
    }
}

/// Where a head set's drift-triggered refresh stands (rendered by `EXPLAIN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefreshState {
    /// No refresh has been scheduled.
    Idle,
    /// Drift crossed the threshold; the retrain runs at the next ingest.
    Pending,
    /// The background retrain is executing right now.
    Running,
    /// A refresh completed and swapped in the given model generation.
    Completed {
        /// The model generation the refresh swapped in.
        generation: u64,
    },
    /// The last refresh attempt failed (task error or panic). The context
    /// keeps answering from the given generation and the drift monitor is
    /// re-armed with exponential backoff; see
    /// [`HealthReport::retrain`](crate::HealthReport::retrain).
    Failed {
        /// The model generation the context is pinned at.
        generation: u64,
    },
}

impl RefreshState {
    /// The label `EXPLAIN` renders.
    pub fn label(&self) -> String {
        match self {
            RefreshState::Idle => "idle".to_string(),
            RefreshState::Pending => "pending".to_string(),
            RefreshState::Running => "running".to_string(),
            RefreshState::Completed { generation } => {
                format!("completed (generation {generation})")
            }
            RefreshState::Failed { generation } => {
                format!("failed (generation {generation} kept)")
            }
        }
    }
}

/// A streaming context's observable state for one head set, as `EXPLAIN`
/// renders it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStatus {
    /// Frames ingested so far (the current video length).
    pub ingested: u64,
    /// Total frames the stream will eventually deliver.
    pub capacity: u64,
    /// Frames covered by the live score index for the planned heads (`None`
    /// when no index has been built yet). By construction this equals
    /// `ingested` whenever an index exists — ingestion extends every live
    /// index under the same lock that swaps the video.
    pub index_frames: Option<u64>,
    /// Model generation of the live index (0 = trained from the labeled set).
    pub generation: u64,
    /// The drift monitor's most recent two-sample statistic, if it has run.
    pub drift_score: Option<f64>,
    /// The configured drift threshold.
    pub drift_threshold: f64,
    /// Where the head set's background refresh stands.
    pub refresh: RefreshState,
}

/// What one [`StreamSource::advance`] call did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Ingested length before the call.
    pub from: u64,
    /// Ingested length after the call (clamped to the stream's capacity).
    pub to: u64,
    /// Live score indexes that were incrementally extended (one per cached
    /// head set).
    pub indexes_extended: usize,
    /// Whether the drift monitor ran its two-sample check during this ingest.
    pub drift_checked: bool,
    /// Background refreshes that completed during this ingest.
    pub refreshes: Vec<RefreshReport>,
    /// Background refreshes that failed during this ingest. Each failure kept
    /// the previous model generation, re-armed the drift monitor with
    /// exponential backoff, and was recorded in the context's
    /// [`HealthState`](crate::HealthState) — it never fails the ingest itself.
    pub refresh_failures: usize,
}

impl IngestReport {
    /// Frames appended by this call.
    pub fn appended(&self) -> u64 {
        self.to - self.from
    }
}

/// One completed drift-triggered refresh.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefreshReport {
    /// The head set that was retrained, `(class, max_count)` per head.
    pub heads: Vec<(ObjectClass, usize)>,
    /// The model generation swapped in.
    pub new_generation: u64,
    /// The drift score that triggered the refresh.
    pub drift_score: f64,
    /// Window frames labeled with the full detector for retraining.
    pub labeled_frames: usize,
}

/// One update of a subscribed continuous query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamUpdate {
    /// The ingested-frame position this tick fired at (a multiple of the
    /// subscription's `EVERY` interval).
    pub tick: u64,
    /// The `[lo, hi)` frame range the update aggregates over.
    pub range: (u64, u64),
    /// The aggregate estimate (`FCOUNT`: per-frame mean; `COUNT`: window
    /// total), bias-corrected with the held-out calibration residual.
    pub value: f64,
    /// Standard error of the estimate, from held-out calibration residuals
    /// (window-mean noise plus calibration-shift uncertainty).
    pub standard_error: f64,
    /// The `confidence`-level interval `value ± z·SE`.
    pub ci: (f64, f64),
    /// The confidence level the interval was built at.
    pub confidence: f64,
    /// The model generation this update was answered from. Every value in one
    /// update comes from exactly this generation — the snapshot is taken under
    /// one lock, so a concurrent drift refresh can never mix generations
    /// within a tick.
    pub generation: u64,
    /// Content fingerprint of the network that produced the scores (two
    /// updates share a fingerprint iff they used bit-identical weights).
    pub model_fingerprint: u64,
}

// ---------------------------------------------------------------------------------
// Internal state.
// ---------------------------------------------------------------------------------

/// Per-context streaming state: the full generated day plus the drift monitor.
pub(crate) struct StreamState {
    /// The full-day video; the context's current video is always a prefix view
    /// of this, so ingested frames are bit-identical to a cold registration of
    /// the grown video.
    pub(crate) capacity: Arc<Video>,
    /// Drift-monitor configuration.
    pub(crate) drift: DriftConfig,
    /// Per-head-key drift bookkeeping. Lock order: this lock is acquired
    /// before `live_index` (see [`VideoContext`]).
    pub(crate) monitor: RankedMutex<HashMap<String, DriftEntry>>,
}

impl StreamState {
    pub(crate) fn new(capacity: Arc<Video>, drift: DriftConfig) -> StreamState {
        StreamState { capacity, drift, monitor: RankedMutex::new(Lock::Monitor, HashMap::new()) }
    }
}

/// Drift bookkeeping for one head set.
pub(crate) struct DriftEntry {
    /// The training-time reference sample: per head, the specialized expected
    /// counts over the held-out calibration frames (or, after a refresh, over
    /// the refresh's training window).
    reference: Vec<Vec<f64>>,
    /// Ingested length at the last two-sample check.
    last_check: u64,
    /// The last check's statistic.
    last_score: Option<f64>,
    /// Refresh state machine.
    refresh: RefreshState,
    /// Consecutive failed refresh attempts for this head set.
    failures: u32,
    /// Ingested-frame position before which the monitor must not re-check
    /// (armed by a failed refresh with exponential backoff; 0 = unblocked).
    blocked_until: u64,
}

/// A consistent `(video, network, scores, generation)` snapshot of one head
/// set's live index, taken under a single lock acquisition.
pub(crate) struct StreamSnapshot {
    pub(crate) video: Arc<Video>,
    pub(crate) nn: Arc<SpecializedNN>,
    pub(crate) scores: Arc<ScoreMatrix>,
    pub(crate) generation: u64,
}

/// The two-sample Kolmogorov–Smirnov statistic `sup |F_a - F_b|`.
fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut a: Vec<f64> = a.to_vec();
    let mut b: Vec<f64> = b.to_vec();
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (mut i, mut j) = (0usize, 0usize);
    let mut sup = 0.0f64;
    #[expect(
        clippy::indexing_slicing,
        reason = "two-pointer merge: the while guard guarantees i < a.len() and j < b.len() at the \
                  top of each pass, and the inner loops' && short-circuit re-checks the cursor \
                  before indexing"
    )]
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            i += 1;
        } else if b[j] < a[i] {
            j += 1;
        } else {
            // Tied values must advance both empirical CDFs together, or
            // identical samples would read as drifted.
            let v = a[i];
            while i < a.len() && a[i] == v {
                i += 1;
            }
            while j < b.len() && b[j] == v {
                j += 1;
            }
        }
        let fa = i as f64 / a.len() as f64;
        let fb = j as f64 / b.len() as f64;
        sup = sup.max((fa - fb).abs());
    }
    sup
}

/// What one background refresh task produced (before the atomic swap).
struct RefreshOutcome {
    key: String,
    heads: Vec<(ObjectClass, usize)>,
    nn: Arc<SpecializedNN>,
    scores: Arc<ScoreMatrix>,
    reference: Vec<Vec<f64>>,
    labeled_frames: usize,
    drift_score: f64,
}

// ---------------------------------------------------------------------------------
// VideoContext streaming surface.
// ---------------------------------------------------------------------------------

impl VideoContext {
    fn stream_state(&self) -> Result<&StreamState> {
        self.stream.as_ref().ok_or_else(|| {
            BlazeItError::Unsupported(format!(
                "video '{}' is not a stream; register it with Catalog::register_stream",
                self.video().name()
            ))
        })
    }

    /// The stream's observable state for a head set, or `None` for ordinary
    /// (non-streaming) registrations. Free of simulated cost — this is what
    /// `EXPLAIN` renders.
    pub fn stream_status(&self, heads: &[(ObjectClass, usize)]) -> Option<StreamStatus> {
        let state = self.stream.as_ref()?;
        let key = Self::head_key(&Self::normalized_heads(heads));
        let monitor = state.monitor.lock();
        let index = self.live_index.lock();
        let video = self.video();
        let entry = index.get(&key);
        let drift = monitor.get(&key);
        Some(StreamStatus {
            ingested: video.len(),
            capacity: state.capacity.len(),
            index_frames: entry.map(|e| e.scores.num_frames() as u64),
            generation: entry.map_or(0, |e| e.generation),
            drift_score: drift.and_then(|d| d.last_score),
            drift_threshold: state.drift.threshold,
            refresh: drift.map_or(RefreshState::Idle, |d| d.refresh),
        })
    }

    /// Grows the stream to `target` frames (clamped to capacity), extending
    /// every cached live score index incrementally: only the new frames are
    /// scored (batched, on the worker pool), and the new rows are appended.
    /// Returns `(from, to, indexes_extended)`.
    fn ingest_to(&self, target: u64) -> Result<(u64, u64, usize)> {
        let state = self.stream_state()?;
        // Failpoint: a faulted frame source fails the ingest *before* any
        // state changes, so the typed error honestly promises "stream
        // unchanged — just retry advance".
        if let Some(injected) = fault::inject(fault::FaultSite::StreamIngest) {
            let message = match injected {
                fault::InjectedFault::TransientIo => {
                    "injected fault: frame source would block (transient)"
                }
                _ => "injected fault: frame source I/O error",
            };
            return Err(BlazeItError::Ingest {
                video: self.video().name().to_string(),
                message: message.to_string(),
            });
        }
        // Holding `live_index` across scoring and the video swap is the
        // atomicity story: a reader that acquires this lock (score_index,
        // stream_snapshot) always sees indexes covering exactly the current
        // video, and two concurrent ingests cannot double-score a frame.
        let mut index = self.live_index.lock();
        let current = self.video();
        let from = current.len();
        let to = target.min(state.capacity.len());
        if to <= from {
            return Ok((from, from, 0));
        }
        let grown = Arc::new(state.capacity.prefix(to)?);
        let new_frames: Vec<u64> = (from..to).collect();
        // Phase 1 — score every tail first, publishing nothing. A failure here
        // leaves every index and the video exactly as they were (all-or-
        // nothing), so the "index covers exactly the current video" invariant
        // can never be half-broken across head sets.
        let mut grown_entries: Vec<(String, Arc<ScoreMatrix>)> = Vec::with_capacity(index.len());
        for (key, entry) in index.iter() {
            // Incremental scoring: charge exactly the new frames, never the
            // already-scored prefix. Row-wise this is bit-identical to a cold
            // `score_video(&grown)` because scores are per-frame pure.
            let tail = entry.nn.score_batch(&grown, &new_frames)?;
            grown_entries.push((key.clone(), Arc::new(entry.scores.extended(&tail)?)));
        }
        // Phase 2 — publish: swap the grown indexes in, write behind, then
        // swap the video (still under the `live_index` lock).
        let extended = grown_entries.len();
        for (key, scores) in grown_entries {
            let Some(entry) = index.get_mut(&key) else {
                return Err(BlazeItError::Internal(format!(
                    "live index entry '{key}' vanished while its lock was held"
                )));
            };
            // Write-behind: persist the grown index under the grown video's
            // key and retire the superseded shorter artifact, so disk stays
            // consistent with the stream. A failing store degrades to
            // in-memory indexing (recorded in [`HealthState`]) rather than
            // failing ingestion.
            let new_key = Self::score_key(&grown, to as usize, &entry.nn);
            let old_key = Self::score_key(&current, from as usize, &entry.nn);
            self.store_op("store grown score index", |store, dir| {
                store.store_scores(dir, &new_key, &scores)
            });
            self.store_op("retire superseded score index", |store, dir| {
                store.remove_scores(dir, &old_key)
            });
            entry.scores = scores;
        }
        *self.video.lock() = grown;
        // New frames are observable: invalidate serving-layer cache entries
        // keyed on the previous generation.
        self.bump_data_generation();
        obs::metrics().stream_frames_ingested.add(to - from);
        Ok((from, to, extended))
    }

    /// Runs the drift monitor's two-sample check for every monitored head set
    /// that is due. Returns whether any check ran. Cost-modeled on the shared
    /// clock through the cheap-filter path (the statistic touches
    /// `window + reference` score values per head).
    fn check_drift(&self) -> Result<bool> {
        let state = self.stream_state()?;
        let drift = state.drift;
        if !drift.threshold.is_finite() {
            return Ok(false);
        }
        let mut monitor = state.monitor.lock();
        let index = self.live_index.lock();
        let video = self.video();
        let ingested = video.len();
        let mut any = false;
        for (key, entry) in index.iter() {
            let Some(ent) = monitor.get_mut(key) else { continue };
            if matches!(ent.refresh, RefreshState::Pending | RefreshState::Running) {
                continue;
            }
            // A failed refresh arms a backoff window: the monitor stays quiet
            // (and the current generation keeps answering) until it elapses.
            if ingested < ent.blocked_until {
                continue;
            }
            if ingested < drift.min_history.max(drift.window)
                || ingested < ent.last_check + drift.check_every
            {
                continue;
            }
            let lo = (ingested - drift.window) as usize;
            let mut score = 0.0f64;
            let mut touched = 0usize;
            for (h, reference) in ent.reference.iter().enumerate() {
                let recent: Vec<f64> =
                    entry.scores.expected_counts(h, lo..ingested as usize).collect();
                touched += recent.len() + reference.len();
                score = score.max(ks_statistic(&recent, reference));
            }
            self.clock()
                .charge(CostCategory::Filter, touched as f64 * self.config().cost.filter_cost());
            ent.last_check = ingested;
            ent.last_score = Some(score);
            obs::metrics().stream_drift_checks.inc();
            obs::metrics().stream_drift_score.set(score);
            any = true;
            if score > drift.threshold {
                ent.refresh = RefreshState::Pending;
            }
        }
        Ok(any)
    }

    /// Executes every pending drift refresh as a background task on the worker
    /// pool ([`par_run_caught`]): label the recent window with the full
    /// detector, train a fresh specialized network, re-score the ingested
    /// prefix, then atomically swap the new `(network, index)` pair in (and
    /// heal the durable store). In-flight subscribed queries keep answering
    /// from their snapshot of the previous generation until the swap
    /// completes.
    ///
    /// A refresh task that errors **or panics** never fails the ingest:
    /// the head set keeps its current `(network, index, generation)`, the
    /// monitor is re-armed with exponential backoff, and the failure is
    /// recorded in the context's [`HealthState`]. Returns the completed
    /// refresh reports plus the number of failed attempts.
    fn run_pending_refreshes(&self) -> Result<(Vec<RefreshReport>, usize)> {
        let state = self.stream_state()?;
        let drift = state.drift;
        // Claim pending refreshes (Pending → Running) and snapshot what each
        // task needs, so the heavy work runs without holding any lock.
        let pending: Vec<(String, Arc<SpecializedNN>, f64)> = {
            let mut monitor = state.monitor.lock();
            let index = self.live_index.lock();
            monitor
                .iter_mut()
                .filter(|(_, ent)| ent.refresh == RefreshState::Pending)
                .filter_map(|(key, ent)| {
                    let entry = index.get(key)?;
                    ent.refresh = RefreshState::Running;
                    Some((key.clone(), Arc::clone(&entry.nn), ent.last_score.unwrap_or(0.0)))
                })
                .collect()
        };
        if pending.is_empty() {
            return Ok((Vec::new(), 0));
        }
        let video = self.video();
        let tasks: Vec<Box<dyn FnOnce() -> Result<RefreshOutcome> + Send + '_>> = pending
            .iter()
            .map(|(key, old_nn, drift_score)| {
                let video = Arc::clone(&video);
                let task: Box<dyn FnOnce() -> Result<RefreshOutcome> + Send + '_> =
                    Box::new(move || {
                        // Failpoint: a faulted retrain either errors (typed)
                        // or panics (caught at the task boundary) — both paths
                        // must leave the head set on its current generation.
                        if let Some(injected) = fault::inject(fault::FaultSite::Retrain) {
                            #[expect(
                                clippy::panic,
                                reason = "deliberate chaos panic: the retrain task boundary's \
                                          catch_unwind is exactly what this failpoint exercises."
                            )]
                            if injected == fault::InjectedFault::Panic {
                                panic!("injected fault: retrain panic");
                            }
                            return Err(BlazeItError::Internal(
                                "injected fault: retrain failed".into(),
                            ));
                        }
                        let heads: Vec<(ObjectClass, usize)> =
                            old_nn.heads().iter().map(|h| (h.class, h.max_count)).collect();
                        let lo = video.len().saturating_sub(drift.window);
                        let frames: Vec<u64> = (lo..video.len())
                            .step_by(drift.retrain_stride.max(1) as usize)
                            .collect();
                        // Label the drifted window with the full detector
                        // (charged — refreshing is real work, done off the
                        // query path).
                        let labels: Vec<CountVector> = self
                            .detector()
                            .detect_batch(&video, &frames)
                            .iter()
                            .map(|dets| CountVector::from_detections(dets))
                            .collect();
                        let spec_config = self.context_spec_config(&heads);
                        let (nn, _report) = SpecializedNN::train(
                            spec_config,
                            &video,
                            &frames,
                            &labels,
                            Arc::clone(self.clock()),
                        )?;
                        let nn = Arc::new(nn);
                        // Re-score the whole ingested prefix with the new
                        // weights: a new generation means a new index.
                        let scores = Arc::new(nn.score_video(&video)?);
                        // The new training-time reference: the new model's own
                        // scores over its training window, so the monitor
                        // compares future windows against what the refreshed
                        // model was fitted to.
                        let reference: Vec<Vec<f64>> = (0..scores.num_heads())
                            .map(|h| {
                                scores
                                    .expected_counts(h, lo as usize..video.len() as usize)
                                    .collect()
                            })
                            .collect();
                        Ok(RefreshOutcome {
                            key: key.clone(),
                            heads,
                            nn,
                            scores,
                            reference,
                            labeled_frames: frames.len(),
                            drift_score: *drift_score,
                        })
                    });
                task
            })
            .collect();
        let outcomes = par_run_caught(tasks);

        // Atomic swap: monitor → live_index → nn_cache, all held together, so
        // no reader can observe a network without its matching index.
        let mut reports = Vec::new();
        let mut failures = 0usize;
        let mut monitor = state.monitor.lock();
        let mut index = self.live_index.lock();
        let mut nns = self.nn_cache.lock();
        for ((key, _, _), outcome) in pending.iter().zip(outcomes) {
            // Flatten the task's panic-or-error envelope: a panic becomes the
            // typed [`BlazeItError::TaskPanicked`] and joins the same
            // kept-generation failure path as an ordinary task error.
            let flattened = match outcome {
                Ok(task_result) => task_result,
                Err(caught) => Err(BlazeItError::TaskPanicked {
                    task: format!("drift refresh for head set '{key}'"),
                    message: caught.message,
                }),
            };
            let applied = flattened.and_then(|outcome| {
                let current = self.video();
                // Defensive: if another driver grew the stream while the
                // retrain ran, extend the new index to cover it before
                // publishing.
                let scores = if (outcome.scores.num_frames() as u64) < current.len() {
                    let missing: Vec<u64> =
                        (outcome.scores.num_frames() as u64..current.len()).collect();
                    let tail = outcome.nn.score_batch(&current, &missing)?;
                    Arc::new(outcome.scores.extended(&tail)?)
                } else {
                    outcome.scores
                };
                let generation = index.get(&outcome.key).map_or(0, |e| e.generation) + 1;
                // Heal the store: retire the old generation's index artifact
                // and persist the new one. The refreshed network itself is not
                // persisted: its training identity is the stream window, not
                // the labeled set, so no later lookup could ask for it. All
                // write-behind: a failing store is recorded in
                // [`HealthState`], never fails the swap.
                if let Some(old) = index.get(&outcome.key) {
                    let old_key = Self::score_key(&current, current.len() as usize, &old.nn);
                    self.store_op("retire pre-refresh score index", |store, dir| {
                        store.remove_scores(dir, &old_key)
                    });
                }
                let new_key = Self::score_key(&current, current.len() as usize, &outcome.nn);
                self.store_op("store refreshed score index", |store, dir| {
                    store.store_scores(dir, &new_key, &scores)
                });
                nns.insert(outcome.key.clone(), Flight::done(Arc::clone(&outcome.nn)));
                index.insert(outcome.key.clone(), LiveIndex { nn: outcome.nn, scores, generation });
                if let Some(ent) = monitor.get_mut(&outcome.key) {
                    ent.reference = outcome.reference;
                    ent.refresh = RefreshState::Completed { generation };
                    ent.failures = 0;
                    ent.blocked_until = 0;
                }
                Ok(RefreshReport {
                    heads: outcome.heads,
                    new_generation: generation,
                    drift_score: outcome.drift_score,
                    labeled_frames: outcome.labeled_frames,
                })
            });
            match applied {
                Ok(report) => {
                    obs::metrics().stream_retrain_completed.inc();
                    self.health().clear_retrain_failure();
                    // A new model generation answers differently: cached
                    // results keyed on the old data generation must miss.
                    self.bump_data_generation();
                    reports.push(report);
                }
                Err(e) => {
                    obs::metrics().stream_retrain_failed.inc();
                    // Graceful degradation: the head set keeps its current
                    // `(network, index, generation)` — subscriptions and
                    // queries keep answering bit-exactly from it — and the
                    // monitor re-arms after an exponentially growing window,
                    // so a persistently failing retrain cannot spin. A
                    // failure must never strand a head set in Running.
                    failures += 1;
                    let ingested = self.video().len();
                    let generation = index.get(key).map_or(0, |e| e.generation);
                    if let Some(ent) = monitor.get_mut(key) {
                        ent.failures = ent.failures.saturating_add(1);
                        let backoff = drift
                            .check_every
                            .max(1)
                            .saturating_mul(1u64 << u64::from((ent.failures - 1).min(16)));
                        ent.blocked_until = ingested.saturating_add(backoff);
                        ent.refresh = RefreshState::Failed { generation };
                        self.health().record_retrain_failure(RetrainHealth {
                            generation,
                            failures: ent.failures,
                            backoff_frames: backoff,
                            resume_at: ent.blocked_until,
                            last_error: e.to_string(),
                        });
                    }
                }
            }
        }
        Ok((reports, failures))
    }

    /// Ensures a live index (and drift reference) exists for `heads`: trains or
    /// loads the specialized network, scores the current prefix once, builds
    /// the held-out calibration index, and seeds the drift monitor's
    /// training-time reference distribution. Later ingests keep the index
    /// fresh incrementally.
    pub(crate) fn ensure_stream_index(&self, heads: &[(ObjectClass, usize)]) -> Result<()> {
        let state = self.stream_state()?;
        let normalized = Self::normalized_heads(heads);
        let nn = self.specialized_for(&normalized)?;
        let _live = self.score_index(&nn)?;
        let calibration = self.heldout_calibration(&nn)?;
        let key = Self::head_key(&normalized);
        let mut monitor = state.monitor.lock();
        monitor.entry(key).or_insert_with(|| DriftEntry {
            reference: calibration.heads.iter().map(|h| h.expected_counts.clone()).collect(),
            last_check: 0,
            last_score: None,
            refresh: RefreshState::Idle,
            failures: 0,
            blocked_until: 0,
        });
        Ok(())
    }

    /// A consistent `(video, network, scores, generation)` snapshot for
    /// `heads`, taken under one lock acquisition — the read primitive of
    /// subscriptions.
    pub(crate) fn stream_snapshot(&self, heads: &[(ObjectClass, usize)]) -> Result<StreamSnapshot> {
        let key = Self::head_key(&Self::normalized_heads(heads));
        let index = self.live_index.lock();
        let video = self.video();
        let entry = index.get(&key).ok_or_else(|| {
            BlazeItError::Internal(
                "no live score index for a subscribed head set (subscribe builds one)".into(),
            )
        })?;
        debug_assert_eq!(entry.scores.num_frames() as u64, video.len());
        Ok(StreamSnapshot {
            video,
            nn: Arc::clone(&entry.nn),
            scores: Arc::clone(&entry.scores),
            generation: entry.generation,
        })
    }
}

// ---------------------------------------------------------------------------------
// StreamSource.
// ---------------------------------------------------------------------------------

/// A handle that drives ingestion of one registered stream.
///
/// Obtained from [`Catalog::stream`]; the streaming state itself lives on the
/// [`VideoContext`], so any number of handles (and concurrent subscribed
/// queries) may coexist.
#[derive(Debug, Clone)]
pub struct StreamSource {
    ctx: Arc<VideoContext>,
    /// The stream's total frame capacity, cached at construction (the stream
    /// state is immutable for the context's lifetime), so accessors never
    /// have to re-validate that the context is a stream.
    capacity: u64,
}

impl StreamSource {
    pub(crate) fn new(ctx: Arc<VideoContext>) -> Result<StreamSource> {
        let capacity = ctx.stream_state()?.capacity.len();
        Ok(StreamSource { ctx, capacity })
    }

    /// The stream's video context.
    pub fn context(&self) -> &VideoContext {
        self.ctx.as_ref()
    }

    /// Frames ingested so far.
    pub fn ingested(&self) -> u64 {
        self.ctx.video().len()
    }

    /// Total frames the stream will eventually deliver.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Frames not yet ingested.
    pub fn remaining(&self) -> u64 {
        self.capacity() - self.ingested()
    }

    /// Whether every frame has been ingested.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Ingests up to `frames` further frames (clamped to capacity): extends
    /// every live score index incrementally, runs the drift monitor, and
    /// executes any refresh it scheduled as a background task on the worker
    /// pool. See [`IngestReport`].
    pub fn advance(&self, frames: u64) -> Result<IngestReport> {
        self.advance_to(self.ingested().saturating_add(frames))
    }

    /// Like [`StreamSource::advance`], to an absolute ingested length.
    pub fn advance_to(&self, target: u64) -> Result<IngestReport> {
        let (from, to, indexes_extended) = self.ctx.ingest_to(target)?;
        let drift_checked = self.ctx.check_drift()?;
        let (refreshes, refresh_failures) = self.ctx.run_pending_refreshes()?;
        Ok(IngestReport { from, to, indexes_extended, drift_checked, refreshes, refresh_failures })
    }
}

impl Catalog {
    /// A driving handle for a registered stream (see
    /// [`Catalog::register_stream`]). Fails with
    /// [`BlazeItError::Unsupported`] when the named video is an ordinary,
    /// fixed-length registration.
    pub fn stream(&self, name: &str) -> Result<StreamSource> {
        StreamSource::new(self.context(name)?)
    }
}

// ---------------------------------------------------------------------------------
// Subscriptions.
// ---------------------------------------------------------------------------------

/// A subscribed continuous query over one registered stream.
///
/// Created with [`Session::subscribe`]; [`Subscription::poll`] yields one
/// [`StreamUpdate`] per elapsed tick. Polling reads the incremental score
/// index — it charges zero detection and zero redundant specialized inference
/// for already-scored frames (the only inference a poll can ever charge is the
/// one-time held-out calibration of a freshly swapped-in model generation, which
/// the context caches per network like any other).
#[derive(Debug)]
pub struct Subscription {
    ctx: Arc<VideoContext>,
    sql: String,
    class: ObjectClass,
    heads: Vec<(ObjectClass, usize)>,
    kind: AggregateKind,
    window: Option<u64>,
    every: u64,
    confidence: f64,
    next_tick: u64,
}

impl<'a> Session<'a> {
    /// Subscribes a FrameQL aggregate to a registered stream, returning a
    /// [`Subscription`] that yields incremental updates as frames are
    /// ingested.
    ///
    /// The query must be a `FCOUNT(*)` / `COUNT(*)` aggregate over exactly one
    /// class of exactly one registered *stream* (see
    /// [`Catalog::register_stream`]). `WINDOW n FRAMES` bounds each update to
    /// the most recent `n` frames (default: everything ingested so far);
    /// `EVERY n FRAMES` sets the tick interval (default: the window width,
    /// else [`DEFAULT_TICK_FRAMES`]). Ticks fire at ingested-frame positions
    /// that are multiples of the interval.
    ///
    /// Subscribing ensures the stream's live index exists: the specialized
    /// network is trained (or loaded from the index store) and the current
    /// prefix is scored once — the only time the subscription ever pays
    /// full-prefix inference. From then on, ingestion extends the index
    /// incrementally and every poll answers from it for free.
    pub fn subscribe(&self, sql: &str) -> Result<Subscription> {
        let query = parse_query(sql)?;
        if query.explain {
            return Err(BlazeItError::Unsupported(
                "EXPLAIN is a one-shot statement; prepare() renders a stream's state".into(),
            ));
        }
        let Some(name) = query.from.as_single() else {
            return Err(BlazeItError::Unsupported(
                "a continuous query subscribes to exactly one stream (multi-video \
                 FROM clauses are one-shot only)"
                    .into(),
            ));
        };
        let ctx = self.catalog().context(name)?;
        let info = analyze(&query, &ctx.udfs())?;
        let QueryClass::Aggregate { kind } = &info.class else {
            return Err(BlazeItError::Unsupported(
                "only FCOUNT/COUNT aggregates can be subscribed (scrubbing and \
                 selection are one-shot queries)"
                    .into(),
            ));
        };
        if matches!(kind, AggregateKind::CountDistinct(_)) {
            return Err(BlazeItError::Unsupported(
                "COUNT(DISTINCT ...) requires exact entity resolution and cannot \
                 be subscribed"
                    .into(),
            ));
        }
        let Some(class) = info.single_class() else {
            return Err(BlazeItError::Unsupported(
                "a continuous aggregate needs exactly one class predicate \
                 (e.g. WHERE class = 'car')"
                    .into(),
            ));
        };
        let heads = heads_for(&ctx, &[(class, 1)]);
        ctx.ensure_stream_index(&heads)?;
        let every = info.every.or(info.window).unwrap_or(DEFAULT_TICK_FRAMES).max(1);
        let start = ctx.video().len();
        let next_tick = (start / every + 1) * every;
        Ok(Subscription {
            ctx,
            sql: sql.to_string(),
            class,
            heads,
            kind: kind.clone(),
            window: info.window,
            every,
            confidence: info.confidence.unwrap_or(0.95),
            next_tick,
        })
    }
}

impl Subscription {
    /// The subscribed query text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The stream context this subscription reads.
    pub fn context(&self) -> &VideoContext {
        self.ctx.as_ref()
    }

    /// The tick interval in frames.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// The window width in frames (`None` = everything ingested so far).
    pub fn window(&self) -> Option<u64> {
        self.window
    }

    /// The next ingested-frame position that will produce an update.
    pub fn next_tick(&self) -> u64 {
        self.next_tick
    }

    /// Yields one [`StreamUpdate`] per tick that has elapsed since the last
    /// poll (empty when the stream has not grown past the next tick yet).
    ///
    /// Each update is computed from a single consistent snapshot of the live
    /// index — one model generation per tick, even while a drift refresh swaps
    /// generations concurrently.
    pub fn poll(&mut self) -> Result<Vec<StreamUpdate>> {
        let mut updates = Vec::new();
        loop {
            let snap = self.ctx.stream_snapshot(&self.heads)?;
            if self.next_tick > snap.video.len() {
                break;
            }
            let tick = self.next_tick;
            let lo = self.window.map_or(0, |w| tick.saturating_sub(w));
            let head = snap.nn.head_index(self.class).ok_or_else(|| {
                BlazeItError::Internal(format!("live index lost the head for {}", self.class))
            })?;
            let n_window = (tick - lo) as usize;
            // Without a window the sum over every frame so far is the index's
            // running sum; a window's is folded from its first frame.
            let pred_sum = if lo == 0 {
                snap.scores.expected_count_sum(head, tick as usize)
            } else {
                snap.scores.expected_counts(head, lo as usize..tick as usize).sum::<f64>()
            };
            let pred_mean = pred_sum / n_window.max(1) as f64;
            let calibration = self.ctx.heldout_calibration(&snap.nn)?;
            let cal = calibration.head(self.class)?;
            let mut value = pred_mean + cal.residual_mean;
            let mut se = (cal.residual_variance / n_window.max(1) as f64
                + cal.residual_variance / cal.expected_counts.len().max(1) as f64)
                .sqrt();
            if matches!(self.kind, AggregateKind::Count) {
                value *= n_window as f64;
                se *= n_window as f64;
            }
            let z = normal_critical_value(self.confidence);
            let generation = snap.generation;
            let model_fingerprint = snap.nn.weights_fingerprint();
            updates.push(StreamUpdate {
                tick,
                range: (lo, tick),
                value,
                standard_error: se,
                ci: (value - z * se, value + z * se),
                confidence: self.confidence,
                generation,
                model_fingerprint,
            });
            self.next_tick += self.every;
        }
        Ok(updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ks_statistic_basics() {
        // Identical samples: zero.
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_statistic(&a, &a), 0.0);
        // Disjoint supports: one.
        let b = [10.0, 11.0, 12.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
        // Symmetric.
        let c = [1.5, 2.5, 3.5, 9.0];
        assert!((ks_statistic(&a, &c) - ks_statistic(&c, &a)).abs() < 1e-12);
        // Bounded.
        assert!((0.0..=1.0).contains(&ks_statistic(&a, &c)));
        // Empty samples are not drift.
        assert_eq!(ks_statistic(&[], &a), 0.0);
    }

    #[test]
    fn drift_config_defaults_and_disabled() {
        let d = DriftConfig::default();
        assert!(d.threshold.is_finite());
        assert!(d.window > 0 && d.check_every > 0);
        let off = DriftConfig::disabled();
        assert!(!off.threshold.is_finite());
    }

    #[test]
    fn refresh_state_labels() {
        assert_eq!(RefreshState::Idle.label(), "idle");
        assert_eq!(RefreshState::Pending.label(), "pending");
        assert_eq!(RefreshState::Running.label(), "running");
        assert_eq!(RefreshState::Completed { generation: 2 }.label(), "completed (generation 2)");
        assert_eq!(RefreshState::Failed { generation: 3 }.label(), "failed (generation 3 kept)");
    }
}
