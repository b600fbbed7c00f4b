//! Per-video execution state: the video, its labeled set, and its caches.
//!
//! A [`VideoContext`] is one registered video of a [`Catalog`](crate::catalog::Catalog):
//! the unseen test-day video, the labeled set (training + held-out days annotated
//! offline), the detector configured for this stream, the UDF registry, and three
//! caches:
//!
//! * `nn_cache` — trained specialized networks by head set. Once a network has been
//!   trained for some class set, later queries reuse it and pay only inference (the
//!   paper's "BlazeIt (no train)" scenario).
//! * `live_index` — the unseen video's [`ScoreMatrix`] per head set, kept beside the
//!   network that produced it. The first query over a class set scores the whole
//!   video once ([`SpecializedNN::score_video`]); every later query answers from the
//!   cached index and pays *no* specialized inference at all — the paper's
//!   "BlazeIt (indexed)" scenario made concrete.
//! * `heldout_cache` — one [`HeldOutCalibration`] per trained network: its scores
//!   over the held-out day and every statistic the optimizer derives from them
//!   (Algorithm 1's bootstrap error estimate, the label filter's presence
//!   threshold, a streaming tick's residuals), each computed once per network.
//!
//! The caches live on the context (not on any engine or session), so every query
//! routed to this video — from any session over the owning catalog — shares them.
//!
//! When the owning catalog was opened with
//! [`Catalog::with_index_store`](crate::catalog::Catalog::with_index_store), the
//! caches become the memory tier of a read-through / write-behind hierarchy over
//! the durable [`IndexStore`]: a miss consults the disk store before training or
//! scoring (a warm load charges *nothing* to the simulated clock), and every
//! freshly trained network or built index is written behind to disk. Invalid
//! artifacts (truncated, corrupted, version-bumped) never fail a query: the
//! context falls back to recomputing and overwrites the bad file.

use crate::config::BlazeItConfig;
use crate::fault::HealthState;
use crate::labeled::LabeledSet;
use crate::lockorder::{Lock, RankedMutex};
use crate::obs;
use crate::single_flight::{self, FlightMap};
use crate::stats::mean_and_sample_variance;
use crate::store::{IndexStore, StoreResult};
use crate::stream::StreamState;
use crate::sync::{AtomicU64, OnceLock, Ordering, RwLock};
use crate::{BlazeItError, Result};
use blazeit_detect::{SimClock, SimulatedDetector};
use blazeit_frameql::{builtin_udfs, UdfRegistry};
use blazeit_nn::persist::fnv1a;
use blazeit_nn::specialized::{
    FcountErrorEstimate, SpecializedConfig, SpecializedHead, SpecializedNN,
};
use blazeit_nn::ScoreMatrix;
use blazeit_videostore::{ObjectClass, Video};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The `name#day#vseed#len#frames#features#hidden#nnseed#train#cost` prefix of every
/// persisted cache key: a video's full identity, how many of its frames the
/// artifact covers, and the specialized configuration. Key strings are stored
/// inside their artifacts and verified on load, so this format is frozen.
fn identity_key<'a>(
    video: &'a Video,
    frames: usize,
    config: &'a SpecializedConfig,
) -> impl std::fmt::Display + 'a {
    std::fmt::from_fn(move |f| {
        write!(
            f,
            "{}#day{}#vseed{}#{}#{}#{:?}#{:?}#nnseed{}#{:?}#{:?}",
            video.name(),
            video.config().day,
            video.config().seed,
            video.len(),
            frames,
            config.features,
            config.hidden,
            config.seed,
            config.train,
            config.cost,
        )
    })
}

/// How warm a per-video cache is for a given head set — what `EXPLAIN` surfaces
/// as the cost the plan will actually pay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheWarmth {
    /// Not cached anywhere: execution trains / scores (and charges the clock).
    Cold,
    /// Persisted in the catalog's index store but not yet in memory: execution
    /// loads it from disk, charging **zero** simulated inference or training.
    Disk,
    /// Already in the in-memory cache: execution reuses it directly.
    Memory,
}

impl CacheWarmth {
    /// The label `EXPLAIN` renders (`cold` / `disk-warm` / `warm`).
    pub fn label(&self) -> &'static str {
        match self {
            CacheWarmth::Cold => "cold",
            CacheWarmth::Disk => "disk-warm",
            CacheWarmth::Memory => "warm",
        }
    }

    /// Whether execution can reuse the artifact without training / scoring
    /// (memory- or disk-warm).
    pub fn is_warm(&self) -> bool {
        !matches!(self, CacheWarmth::Cold)
    }
}

/// One entry of the live (test-day) score-index cache: the scores, the exact
/// network that produced them, and the model generation they belong to.
///
/// Holding the network alongside its scores is what makes both streaming
/// ingestion and atomic model swaps possible: appending frames needs the
/// producing network to score the new rows, and a subscribed query snapshotting
/// `(nn, scores, generation)` under one lock acquisition is guaranteed to
/// answer from exactly one model generation.
pub(crate) struct LiveIndex {
    /// The network whose weights produced `scores`.
    pub(crate) nn: Arc<SpecializedNN>,
    /// Per-frame scores covering exactly the context's current video length.
    pub(crate) scores: Arc<ScoreMatrix>,
    /// Model generation: 0 for the labeled-set-trained network, incremented by
    /// every drift-triggered refresh swap.
    pub(crate) generation: u64,
}

/// What one head's scores over the held-out day say about it.
#[derive(Debug)]
pub struct HeadCalibration {
    /// The class the head counts.
    pub class: ObjectClass,
    /// Expected count per held-out frame, in annotation order (also the drift
    /// monitor's training-time reference sample).
    pub expected_counts: Vec<f64>,
    /// Bootstrap estimate of the FCOUNT error: Algorithm 1's input (Section 6.2).
    pub fcount_error: FcountErrorEstimate,
    /// The selection label filter's cut: the largest `P(count >= 1)` threshold
    /// with no false negatives on the held-out day (Section 8).
    pub presence_threshold: f64,
    /// Mean of `truth - expected` per frame: a streaming tick's bias correction.
    pub residual_mean: f64,
    /// Bessel-corrected variance of those residuals: a tick's interval noise.
    pub residual_variance: f64,
}

/// A specialized network's scores over the held-out day plus every statistic the
/// optimizer derives from them — the value of the context's `heldout_cache`, built
/// once per network and read by the planner, the executors and streaming ticks alike.
#[derive(Debug)]
pub struct HeldOutCalibration {
    /// Row `i` scores `labeled().heldout().frames[i]`.
    pub scores: Arc<ScoreMatrix>,
    /// One entry per head of the network, in head order.
    pub heads: Vec<HeadCalibration>,
}

impl HeldOutCalibration {
    /// The statistics of the head counting `class`.
    pub fn head(&self, class: ObjectClass) -> Result<&HeadCalibration> {
        self.heads
            .iter()
            .find(|h| h.class == class)
            .ok_or_else(|| BlazeItError::Internal(format!("no head for class {class}")))
    }
}

/// One registered video and everything cached for it.
///
/// # Lock order
///
/// Code acquiring more than one of these locks follows
/// [`crate::lockorder`]. Ingestion holds `live_index` across the video swap,
/// so any reader that takes `live_index` first observes a consistent
/// `(video, index)` pair.
pub struct VideoContext {
    /// The current video — for a streaming context, the ingested prefix of the
    /// full generated day; swapped atomically as frames arrive.
    pub(crate) video: RankedMutex<Arc<Video>>,
    labeled: Arc<LabeledSet>,
    config: BlazeItConfig,
    /// Fingerprint of `config`, fixed at construction — one third of the
    /// serving layer's cache key (name × data generation × config).
    config_fingerprint: u64,
    clock: Arc<SimClock>,
    detector: SimulatedDetector,
    /// The UDF registry, copy-on-write: readers take a cheap `Arc` snapshot,
    /// registration clones-and-swaps so it is `&self` (callable through the
    /// shared catalog) without blocking queries mid-evaluation.
    udfs: RwLock<Arc<UdfRegistry>>,
    /// Monotone counter of *answer-changing* events on this context: stream
    /// ingestion, drift-refresh publication, and UDF registration all bump it.
    /// The serving layer keys its result cache on this, so a bump invalidates
    /// exactly the cached answers that could have changed — and nothing else.
    data_generation: AtomicU64,
    /// Trained specialized networks by normalized head key (the *current*
    /// generation; drift refreshes replace entries in place).
    pub(crate) nn_cache: RankedMutex<FlightMap<String, Arc<SpecializedNN>>>,
    /// Live test-day score indexes by normalized head key; see [`LiveIndex`].
    pub(crate) live_index: RankedMutex<HashMap<String, LiveIndex>>,
    /// Held-out calibrations by the scoring network's weights fingerprint (the
    /// held-out day and the configuration are fixed for the context's lifetime
    /// and the day never grows, so these need no streaming machinery).
    heldout_cache: RankedMutex<FlightMap<u64, Arc<HeldOutCalibration>>>,
    /// The paper's head-size rule per class (indexed by [`ObjectClass::index`]),
    /// derived from the training day on a class's first use.
    head_sizes: [OnceLock<usize>; ObjectClass::ALL.len()],
    /// The durable tier behind the caches, plus this video's directory name
    /// inside it (its normalized stream name).
    pub(crate) store: Option<(Arc<IndexStore>, String)>,
    /// Streaming state (full-day capacity video + drift monitor); `None` for
    /// ordinary, fixed-length registrations.
    pub(crate) stream: Option<StreamState>,
    /// Robustness bookkeeping: store degradation, retry counters, the
    /// last-error ring buffer, and retrain-failure state. Every store failure
    /// on this context's read-through/write-behind paths is recorded here —
    /// degradation is always queryable and rendered by EXPLAIN, never silent.
    health: HealthState,
}

impl std::fmt::Debug for VideoContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let video = self.video();
        f.debug_struct("VideoContext")
            .field("video", &video.name())
            .field("frames", &video.len())
            .field("detection_method", &self.config.detection_method)
            .field("stream", &self.stream.is_some())
            .finish()
    }
}

impl VideoContext {
    /// Creates a context over `video` (the unseen test data) with a pre-built labeled
    /// set, charging all expensive work to `clock` (usually the owning catalog's) and,
    /// when `store` is given, wiring the caches into that durable [`IndexStore`] (what
    /// [`Catalog::with_index_store`](crate::catalog::Catalog::with_index_store)
    /// passes for every registered video).
    pub fn with_store(
        video: Video,
        labeled: Arc<LabeledSet>,
        config: BlazeItConfig,
        clock: Arc<SimClock>,
        store: Option<Arc<IndexStore>>,
    ) -> VideoContext {
        Self::with_parts(video, labeled, config, clock, store, None)
    }

    /// The full constructor: like [`VideoContext::with_store`], optionally with
    /// streaming state (what
    /// [`Catalog::register_stream`](crate::catalog::Catalog::register_stream)
    /// passes).
    pub(crate) fn with_parts(
        video: Video,
        labeled: Arc<LabeledSet>,
        config: BlazeItConfig,
        clock: Arc<SimClock>,
        store: Option<Arc<IndexStore>>,
        stream: Option<StreamState>,
    ) -> VideoContext {
        let detector = SimulatedDetector::new(
            config.detection_method,
            config.detection_threshold,
            Arc::clone(&clock),
        );
        let store = store.map(|s| {
            let dir = crate::catalog::normalize(video.name());
            (s, dir)
        });
        let health = HealthState::new(config.sampling_seed);
        // FNV-1a, not `std`'s randomized `DefaultHasher`: the fingerprint must
        // not vary across runs.
        let config_fingerprint = fnv1a(format!("{config:?}").as_bytes());
        VideoContext {
            video: RankedMutex::new(Lock::Video, Arc::new(video)),
            labeled,
            config,
            config_fingerprint,
            clock,
            detector,
            udfs: RwLock::new(Arc::new(builtin_udfs())),
            data_generation: AtomicU64::new(0),
            nn_cache: RankedMutex::new(Lock::NnCache, HashMap::new()),
            live_index: RankedMutex::new(Lock::LiveIndex, HashMap::new()),
            heldout_cache: RankedMutex::new(Lock::HeldoutCache, HashMap::new()),
            head_sizes: Default::default(),
            store,
            stream,
            health,
        }
    }

    /// The durable index store behind this context's caches, if any.
    pub fn index_store(&self) -> Option<&Arc<IndexStore>> {
        self.store.as_ref().map(|(s, _)| s)
    }

    /// This context's health state: store degradation, retry counters, the
    /// recent-error ring buffer, and retrain-failure records. Snapshot it with
    /// [`HealthState::report`]; EXPLAIN renders the same snapshot.
    pub fn health(&self) -> &HealthState {
        &self.health
    }

    /// Runs one store operation through the robustness pipeline:
    ///
    /// * skipped entirely (returns `None`) while the context is degraded to
    ///   memory-only mode, except for the periodic probe that tests whether the
    ///   store healed;
    /// * transient errors are retried under the configured
    ///   [`RetryPolicy`](crate::fault::RetryPolicy), each backoff charged to
    ///   the simulated clock;
    /// * the outcome is recorded in [`HealthState`] — successes clear the
    ///   failure streak (healing a degraded context), failures are pushed into
    ///   the error ring and hard/exhausted-transient failures count toward
    ///   degradation.
    ///
    /// `what` labels the operation in the health report's error ring.
    pub(crate) fn store_op<T>(
        &self,
        what: &'static str,
        mut op: impl FnMut(&IndexStore, &str) -> StoreResult<T>,
    ) -> Option<T> {
        let (store, dir) = self.store.as_ref()?;
        if !self.health.store_attempt_allowed() {
            return None;
        }
        let outcome =
            self.health.run_with_retry(&self.config.store_retry, &self.clock, || op(store, dir));
        match outcome {
            Ok(value) => {
                self.health.record_store_success();
                Some(value)
            }
            Err(error) => {
                self.health.record_store_error(what, &error);
                None
            }
        }
    }

    /// The unseen (test) video queries run over — a cheap atomic snapshot.
    ///
    /// For a streaming context this is the currently ingested prefix; it is
    /// swapped (never mutated) as frames arrive, so an executor that takes one
    /// snapshot works over one consistent set of frames for its whole run even
    /// while ingestion continues.
    pub fn video(&self) -> Arc<Video> {
        Arc::clone(&self.video.lock())
    }

    /// The labeled set.
    pub fn labeled(&self) -> &Arc<LabeledSet> {
        &self.labeled
    }

    /// The context configuration.
    pub fn config(&self) -> &BlazeItConfig {
        &self.config
    }

    /// The simulated clock all costs are charged to.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The configured object detector (charges the shared clock on every call).
    pub fn detector(&self) -> &SimulatedDetector {
        &self.detector
    }

    /// A snapshot of the UDF registry. Cheap (`Arc` clone); registrations that
    /// land after the snapshot are not visible through it, which is exactly
    /// the isolation a running query needs.
    pub fn udfs(&self) -> Arc<UdfRegistry> {
        Arc::clone(&self.udfs.read())
    }

    /// Registers (or replaces) a UDF available to queries on this video.
    ///
    /// Copy-on-write: the registry is cloned, extended, and swapped under a
    /// short write lock, so this is `&self` — callable on a context shared
    /// across sessions — and in-flight queries keep evaluating against the
    /// snapshot they took. Bumps the data generation: a redefined UDF can
    /// change answers, so cached results must not outlive it.
    pub fn register_udf(
        &self,
        name: &str,
        frame_liftable: bool,
        func: impl Fn(
                &blazeit_videostore::Frame,
                &blazeit_videostore::BoundingBox,
            ) -> blazeit_frameql::Value
            + Send
            + Sync
            + 'static,
    ) {
        let mut slot = self.udfs.write();
        let mut next = UdfRegistry::clone(&**slot);
        next.register(name, frame_liftable, func);
        *slot = Arc::new(next);
        drop(slot);
        self.bump_data_generation();
    }

    /// The data generation: how many answer-changing events (ingested frames
    /// batches, drift-refresh publications, UDF registrations) this context
    /// has seen. The serving layer's cache keys include it, so stale answers
    /// are unreachable the moment it moves.
    pub fn data_generation(&self) -> u64 {
        self.data_generation.load(Ordering::SeqCst)
    }

    /// Advances the data generation, returning the new value.
    pub(crate) fn bump_data_generation(&self) -> u64 {
        self.data_generation.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The fingerprint of this context's configuration (fixed at
    /// construction) — the config component of the serving cache key.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// Normalizes a requested head set into the form every cache key and trained
    /// configuration derives from: sorted by class, `max_count` clamped to at
    /// least 1 (a softmax head needs `0..=1` at minimum).
    ///
    /// Clamping *before* keying is what keeps the caches coherent: a
    /// `(class, 0)` request trains exactly the network a `(class, 1)` request
    /// trains, so both must hit the same cache entry. (Keying on the caller's
    /// raw value used to cache under `"class:0"` while the equivalent
    /// `(class, 1)` request missed, re-trained, and double-charged the clock.)
    pub(crate) fn normalized_heads(heads: &[(ObjectClass, usize)]) -> Vec<(ObjectClass, usize)> {
        let mut sorted: Vec<(ObjectClass, usize)> =
            heads.iter().map(|&(c, m)| (c, m.max(1))).collect();
        sorted.sort_by_key(|(c, _)| c.index());
        sorted
    }

    /// The cache key for a set of `(class, max_count)` heads. Order-insensitive
    /// and clamp-insensitive: the key is always derived from
    /// [`VideoContext::normalized_heads`], so every head-set formulation that
    /// trains the same network keys the same entry.
    pub(crate) fn head_key(heads: &[(ObjectClass, usize)]) -> String {
        Self::normalized_heads(heads)
            .iter()
            .map(|(c, m)| format!("{}:{}", c.name(), m))
            .collect::<Vec<_>>()
            .join("|")
    }

    /// The cache key for a score index: full video identity (name, day, seed,
    /// length, frames scored) + the network's full configuration (heads, feature
    /// config, hidden widths, init seed, training settings, cost profile) + a
    /// content fingerprint of the network's trained weights.
    ///
    /// The day/seed components distinguish the test-day index from the held-out
    /// index even when both days are the same length and fully annotated; the
    /// configuration components come from the *network being scored* (not the
    /// context config). The weights fingerprint is the load-bearing part for
    /// sharing: a score matrix is a pure function of (video, weights), so two
    /// networks with identical configurations but different weights — trained on
    /// different labels, e.g. under a different detector threshold or labeled
    /// stride, or supplied externally — can never serve each other's scores,
    /// in memory or through the durable store. (Every key string is also stored
    /// *inside* its artifact and verified on load, so anything the key
    /// distinguishes the store provably cannot confuse.)
    pub(crate) fn score_key(video: &Video, frames_scored: usize, nn: &SpecializedNN) -> String {
        let config = nn.config();
        let heads: Vec<(ObjectClass, usize)> =
            config.heads.iter().map(|h| (h.class, h.max_count)).collect();
        format!(
            "{}#wfp{:016x}#{}",
            identity_key(video, frames_scored, config),
            nn.weights_fingerprint(),
            Self::head_key(&heads),
        )
    }

    /// The durable-store key for a trained specialized network: the labeled
    /// training data's identity (training-day video, number of labeled frames,
    /// the detector that produced the labels) + the full specialized
    /// configuration (the same prefix [`VideoContext::score_key`] uses, over the
    /// training day).
    ///
    /// The in-memory `nn_cache` keys by head set alone because a context's
    /// configuration and labeled set are fixed for its lifetime; the disk store
    /// is shared across catalog instances with arbitrary configurations, so its
    /// key must pin everything the trained weights depend on — otherwise a
    /// config or dataset change would silently serve a stale network forever.
    fn nn_store_key(&self, normalized: &[(ObjectClass, usize)]) -> String {
        let config = self.context_spec_config(normalized);
        format!(
            "nn#{}#det{:?}#thr{}#lstride{}#{}",
            identity_key(self.labeled.train_video(), self.labeled.train().frames.len(), &config),
            self.config.detection_method,
            self.config.detection_threshold,
            self.config.labeled_stride,
            Self::head_key(normalized),
        )
    }

    /// The specialized-network configuration this context trains for a sorted
    /// head set (shared by [`VideoContext::specialized_for`] and the cache-key
    /// derivations so they can never disagree).
    pub(crate) fn context_spec_config(&self, sorted: &[(ObjectClass, usize)]) -> SpecializedConfig {
        let spec_heads: Vec<SpecializedHead> = sorted
            .iter()
            .map(|&(class, max_count)| SpecializedHead { class, max_count: max_count.max(1) })
            .collect();
        let mut spec_config = SpecializedConfig::for_heads(spec_heads);
        spec_config.features = self.config.features;
        spec_config.hidden = self.config.specialized_hidden.clone();
        spec_config.train = self.config.train;
        spec_config.cost = self.config.cost;
        spec_config.seed = self.config.sampling_seed ^ 0x5EC1_A112;
        spec_config
    }

    /// Returns (training if necessary) a specialized network with one counting head per
    /// requested `(class, max_count)` pair.
    ///
    /// Lookup is read-through: in-memory cache, then the durable index store
    /// (a disk-warm load charges *nothing* to the shared clock), then training
    /// (charged). A miss is computed once: concurrent callers for the same head
    /// set wait for one training. Freshly trained networks are written behind
    /// to the store, so they survive this catalog. An invalid stored artifact
    /// falls back to retraining and is overwritten.
    pub fn specialized_for(&self, heads: &[(ObjectClass, usize)]) -> Result<Arc<SpecializedNN>> {
        if heads.is_empty() {
            return Err(BlazeItError::Internal(
                "specialized_for requires at least one head".into(),
            ));
        }
        let normalized = Self::normalized_heads(heads);
        let train = || {
            if let Some(nn) = self.load_stored_network(&normalized) {
                obs::count(obs::COUNTER_CACHE_HITS, 1);
                return Ok(nn);
            }
            let _train = obs::span("train specialized");
            let spec_config = self.context_spec_config(&normalized);
            let train_day = self.labeled.train();
            let (nn, _report) = SpecializedNN::train(
                spec_config,
                self.labeled.train_video(),
                &train_day.frames,
                &train_day.counts,
                Arc::clone(&self.clock),
            )?;
            let nn = Arc::new(nn);
            // Write-behind; a failed write degrades to in-memory-only caching
            // rather than failing the query, recorded in the health state.
            self.store_op("store specialized nn", |store, dir| {
                store.store_network(dir, &self.nn_store_key(&normalized), &nn)
            });
            Ok(nn)
        };
        let key = Self::head_key(&normalized);
        single_flight::compute_once(|| self.nn_cache.lock(), key, "train specialized", train)
    }

    /// Disk tier of the network cache: the disk keys by the full training
    /// identity (see [`VideoContext::nn_store_key`]). An invalid stored
    /// artifact reads as a miss — callers recompute and the write-behind
    /// replaces the bad file.
    fn load_stored_network(
        &self,
        normalized: &[(ObjectClass, usize)],
    ) -> Option<Arc<SpecializedNN>> {
        self.store_op("load specialized nn", |store, dir| {
            store.load_network(dir, &self.nn_store_key(normalized), &self.clock)
        })?
        .map(Arc::new)
    }

    /// The default counting head size for `class`, chosen by the paper's rule: the
    /// highest count appearing in at least `count_class_min_fraction` of the labeled
    /// frames, and never below `at_least`.
    pub fn default_max_count(&self, class: ObjectClass, at_least: usize) -> usize {
        #[expect(
            clippy::indexing_slicing,
            reason = "head_sizes has one slot per ObjectClass::ALL entry and index() is a position \
                      in ALL"
        )]
        let rule = *self.head_sizes[class.index()].get_or_init(|| {
            let counts = self.labeled.train().class_counts(class);
            SpecializedHead::from_counts(class, counts, self.config.count_class_min_fraction)
                .max_count
        });
        rule.max(at_least).max(1)
    }

    /// The cached specialized network for these heads, if one is available
    /// without training: in memory, or loaded (free of simulated cost) from the
    /// durable store and promoted to memory. Never trains, never waits on a
    /// training in flight, never charges the clock — this is what free
    /// plan-time inspection uses, and it agrees with
    /// [`VideoContext::specialized_warmth`] by construction.
    pub fn cached_specialized(&self, heads: &[(ObjectClass, usize)]) -> Option<Arc<SpecializedNN>> {
        let normalized = Self::normalized_heads(heads);
        let load = || self.load_stored_network(&normalized);
        single_flight::peek_or_load(|| self.nn_cache.lock(), Self::head_key(&normalized), load)
    }

    /// The per-video score index for `nn` over the unseen (test) video: every frame
    /// scored by the batched pipeline, cached so repeated queries over the same
    /// class set pay specialized inference only once (the paper's
    /// "BlazeIt (indexed)" scenario).
    ///
    /// The first call charges the full-video inference cost to the shared clock;
    /// later calls are free.
    pub fn score_index(&self, nn: &Arc<SpecializedNN>) -> Result<Arc<ScoreMatrix>> {
        Ok(self.indexed_video(nn)?.1)
    }

    /// [`VideoContext::score_index`] together with the video it covers, taken
    /// under one acquisition of the `live_index` lock. On a stream, a
    /// `video()` read before or after may already be longer than the index:
    /// a query that samples frames or scales by the frame count reads both
    /// from this pair.
    pub(crate) fn indexed_video(
        &self,
        nn: &Arc<SpecializedNN>,
    ) -> Result<(Arc<Video>, Arc<ScoreMatrix>)> {
        let heads: Vec<(ObjectClass, usize)> =
            nn.heads().iter().map(|h| (h.class, h.max_count)).collect();
        let key = Self::head_key(&heads);
        // The lock is held across the build so two concurrent first queries
        // cannot both score the video (which would double-charge the clock).
        // It also pins the (video, index) pair: ingestion swaps the video only
        // while holding this lock, so the snapshot below is consistent.
        let mut cache = self.live_index.lock();
        let video = self.video();
        if let Some(entry) = cache.get(&key) {
            if entry.nn.weights_fingerprint() == nn.weights_fingerprint()
                && entry.scores.num_frames() as u64 == video.len()
            {
                obs::count(obs::COUNTER_CACHE_HITS, 1);
                return Ok((video, Arc::clone(&entry.scores)));
            }
        }
        let skey = Self::score_key(&video, video.len() as usize, nn);
        let scores = if let Some(scores) = self.load_stored_scores(&skey) {
            obs::count(obs::COUNTER_CACHE_HITS, 1);
            scores
        } else {
            let _score = obs::span("specialized score");
            obs::count(obs::COUNTER_FRAMES_SCORED, video.len());
            let scores = Arc::new(nn.score_video(&video)?);
            self.store_scores_behind(&skey, &scores);
            scores
        };
        // Only the *current* generation's network may own the live entry: a
        // caller still holding a pre-refresh network (its query started before
        // a drift swap) gets its scores computed above but must not clobber the
        // swapped-in index.
        let is_current = self
            .nn_cache
            .lock()
            .get(&key)
            .and_then(|flight| flight.peek())
            .is_none_or(|current| current.weights_fingerprint() == nn.weights_fingerprint());
        if is_current {
            let generation = cache.get(&key).map_or(0, |e| e.generation);
            cache.insert(
                key,
                LiveIndex { nn: Arc::clone(nn), scores: Arc::clone(&scores), generation },
            );
        }
        Ok((video, scores))
    }

    /// Disk tier of the score-cache read-through: loads a stored matrix for
    /// `key`, charging nothing. Invalid artifacts read as a miss (the caller
    /// recomputes and the write-behind replaces the bad file).
    pub(crate) fn load_stored_scores(&self, key: &str) -> Option<Arc<ScoreMatrix>> {
        self.store_op("load score index", |store, dir| store.load_scores(dir, key))?.map(Arc::new)
    }

    /// Write-behind half of the score-cache hierarchy; a failed write degrades
    /// to in-memory-only caching rather than failing the query, recorded in
    /// the health state.
    pub(crate) fn store_scores_behind(&self, key: &str, scores: &ScoreMatrix) {
        self.store_op("store score index", |store, dir| store.store_scores(dir, key, scores));
    }

    /// The [`HeldOutCalibration`] of `nn`, cached like [`VideoContext::score_index`]:
    /// the first call per network charges the held-out inference (unless the scores
    /// are in the durable store) and derives the statistics, once however many
    /// callers race it; later calls are free.
    pub fn heldout_calibration(&self, nn: &Arc<SpecializedNN>) -> Result<Arc<HeldOutCalibration>> {
        let calibrate = || {
            let heldout = self.labeled.heldout();
            let key = self.heldout_score_key(nn);
            let scores = if let Some(scores) = self.load_stored_scores(&key) {
                obs::count(obs::COUNTER_CACHE_HITS, 1);
                scores
            } else {
                let _score = obs::span("held-out score");
                obs::count(obs::COUNTER_FRAMES_SCORED, heldout.frames.len() as u64);
                let scores =
                    Arc::new(nn.score_batch(self.labeled.heldout_video(), &heldout.frames)?);
                self.store_scores_behind(&key, &scores);
                scores
            };
            self.calibrate_heldout(nn, scores)
        };
        let key = nn.weights_fingerprint();
        single_flight::compute_once(|| self.heldout_cache.lock(), key, "held-out score", calibrate)
    }

    /// The held-out calibration of `nn` if its scores are already built: in
    /// memory, or loaded (and promoted to memory) from the durable store. Never
    /// scores, never waits on a calibration in flight, and never charges the
    /// clock — this is what lets the planner resolve Algorithm 1's rewrite
    /// decision for free on a disk-warm catalog, not just a memory-warm one.
    pub fn cached_heldout_calibration(
        &self,
        nn: &Arc<SpecializedNN>,
    ) -> Option<Arc<HeldOutCalibration>> {
        let scores = || self.load_stored_scores(&self.heldout_score_key(nn));
        let load = || self.calibrate_heldout(nn, scores()?).ok();
        single_flight::peek_or_load(|| self.heldout_cache.lock(), nn.weights_fingerprint(), load)
    }

    /// The disk-tier key of `nn`'s held-out scores (the memory tier keys by
    /// weights fingerprint alone, so the string is only built on a memory miss).
    fn heldout_score_key(&self, nn: &SpecializedNN) -> String {
        Self::score_key(self.labeled.heldout_video(), self.labeled.heldout().frames.len(), nn)
    }

    /// Derives `nn`'s calibration from its held-out `scores` — the one place any
    /// held-out statistic is computed.
    fn calibrate_heldout(
        &self,
        nn: &SpecializedNN,
        scores: Arc<ScoreMatrix>,
    ) -> Result<Arc<HeldOutCalibration>> {
        let mut heads = Vec::with_capacity(nn.heads().len());
        for (h, &SpecializedHead { class, .. }) in nn.heads().iter().enumerate() {
            let truth = self.labeled.heldout().class_counts(class);
            let fcount_error = nn.estimate_fcount_error_from_scores(
                &scores,
                &truth,
                class,
                self.config.bootstrap_samples,
                self.config.sampling_seed,
            )?;
            let presence_threshold = nn.presence_threshold_from_scores(&scores, &truth, class)?;
            let expected_counts: Vec<f64> =
                scores.expected_counts(h, 0..scores.num_frames()).collect();
            let residuals: Vec<f64> =
                truth.iter().zip(&expected_counts).map(|(&t, e)| t as f64 - e).collect();
            let (residual_mean, residual_variance) = mean_and_sample_variance(&residuals);
            heads.push(HeadCalibration {
                class,
                expected_counts,
                fcount_error,
                presence_threshold,
                residual_mean,
                residual_variance,
            });
        }
        Ok(Arc::new(HeldOutCalibration { scores, heads }))
    }

    /// The score index for `nn` over the held-out day's annotated frames: the
    /// matrix inside [`VideoContext::heldout_calibration`].
    pub fn heldout_score_index(&self, nn: &Arc<SpecializedNN>) -> Result<Arc<ScoreMatrix>> {
        Ok(Arc::clone(&self.heldout_calibration(nn)?.scores))
    }

    /// The cache state of the specialized network for these heads: in memory,
    /// persisted on disk (a free load away), or cold. File presence is checked
    /// without decoding, so this is safe for free plan-time inspection.
    pub fn specialized_warmth(&self, heads: &[(ObjectClass, usize)]) -> CacheWarmth {
        let normalized = Self::normalized_heads(heads);
        let key = Self::head_key(&normalized);
        if self.nn_cache.lock().get(&key).is_some_and(|flight| flight.peek().is_some()) {
            return CacheWarmth::Memory;
        }
        // A degraded (memory-only) context will not read the store, so a
        // persisted artifact must honestly report as cold.
        match &self.store {
            Some((store, dir))
                if self.health.store_usable()
                    && store.has_network(dir, &self.nn_store_key(&normalized)) =>
            {
                CacheWarmth::Disk
            }
            _ => CacheWarmth::Cold,
        }
    }

    /// The cache state of the unseen video's score index for these heads.
    ///
    /// Score keys pin the exact network weights, so this needs the network: the
    /// memory cache is probed first, then the durable store (a disk-warm
    /// network is loaded — free of simulated cost — and promoted to memory, so
    /// a later `EXPLAIN` may truthfully report it as `warm`). Without a network
    /// anywhere there can be no score index either: `Cold`.
    pub fn score_index_warmth(&self, heads: &[(ObjectClass, usize)]) -> CacheWarmth {
        let normalized = Self::normalized_heads(heads);
        let Some(nn) = self.cached_specialized(&normalized) else {
            return CacheWarmth::Cold;
        };
        let cache = self.live_index.lock();
        let video = self.video();
        if let Some(entry) = cache.get(&Self::head_key(&normalized)) {
            if entry.nn.weights_fingerprint() == nn.weights_fingerprint()
                && entry.scores.num_frames() as u64 == video.len()
            {
                return CacheWarmth::Memory;
            }
        }
        let key = Self::score_key(&video, video.len() as usize, &nn);
        match &self.store {
            Some((store, dir)) if self.health.store_usable() && store.has_scores(dir, &key) => {
                CacheWarmth::Disk
            }
            _ => CacheWarmth::Cold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::result::QueryOutput;
    use blazeit_videostore::DatasetPreset;

    fn engine() -> (Catalog, Arc<VideoContext>) {
        Catalog::one_video(DatasetPreset::Taipei, 1_500)
    }

    #[test]
    fn engine_construction_and_accessors() {
        let (catalog, e) = engine();
        assert_eq!(e.video().name(), "taipei");
        assert_eq!(e.video().len(), 1_500);
        assert!(!e.labeled().train().is_empty());
        assert_eq!(e.clock().total(), 0.0);
        assert_eq!(catalog.video_names(), vec!["taipei".to_string()]);
    }

    #[test]
    fn specialized_cache_hits_avoid_retraining() {
        let (_, e) = engine();
        let heads = [(ObjectClass::Car, 3usize)];
        assert!(!e.specialized_warmth(&heads).is_warm());
        let _nn = e.specialized_for(&heads).unwrap();
        assert!(e.specialized_warmth(&heads).is_warm());
        let training_after_first = e.clock().breakdown().training;
        assert!(training_after_first > 0.0);
        let _nn2 = e.specialized_for(&heads).unwrap();
        let training_after_second = e.clock().breakdown().training;
        assert!((training_after_second - training_after_first).abs() < 1e-12);
    }

    #[test]
    fn score_index_cache_hits_charge_no_inference() {
        let (_, e) = engine();
        let heads = [(ObjectClass::Car, 2usize)];
        let nn = e.specialized_for(&heads).unwrap();
        assert!(!e.score_index_warmth(&heads).is_warm());

        let before = e.clock().breakdown().specialized;
        let index = e.score_index(&nn).unwrap();
        assert_eq!(index.num_frames() as u64, e.video().len());
        let after_first = e.clock().breakdown().specialized;
        assert!(after_first > before, "building the index must charge inference");
        assert!(e.score_index_warmth(&heads).is_warm());

        let index_again = e.score_index(&nn).unwrap();
        assert!(Arc::ptr_eq(&index, &index_again));
        let after_second = e.clock().breakdown().specialized;
        assert!(
            (after_second - after_first).abs() < 1e-12,
            "cache hit must not charge specialized inference"
        );
    }

    #[test]
    fn score_index_distinguishes_test_and_heldout_days() {
        // With heldout_stride = 1 the held-out day is fully annotated, so its
        // index covers the same number of frames as the test day's, and both
        // videos share the preset name and length — the cache keys must still
        // differ (they encode the day), or rewriting would silently answer
        // queries from the held-out day's scores.
        let mut config = BlazeItConfig::for_preset(DatasetPreset::Taipei);
        config.heldout_stride = 1;
        let e =
            Catalog::new().register_preset_with_config(DatasetPreset::Taipei, 600, config).unwrap();
        let nn = e.specialized_for(&[(ObjectClass::Car, 2)]).unwrap();
        let heldout_index = e.heldout_score_index(&nn).unwrap();
        let test_index = e.score_index(&nn).unwrap();
        assert!(!Arc::ptr_eq(&heldout_index, &test_index));
        assert_eq!(heldout_index.num_frames(), test_index.num_frames());
        assert_ne!(*heldout_index, *test_index);
    }

    #[test]
    fn heldout_calibration_is_derived_once_per_network() {
        let (_, e) = engine();
        let nn = e.specialized_for(&[(ObjectClass::Car, 2)]).unwrap();
        let first = e.heldout_calibration(&nn).unwrap();
        let charged = e.clock().total();
        assert!(Arc::ptr_eq(&e.heldout_calibration(&nn).unwrap(), &first));
        assert!(Arc::ptr_eq(&e.heldout_score_index(&nn).unwrap(), &first.scores));
        assert_eq!(e.clock().total(), charged, "repeat calls must charge nothing");
    }

    #[test]
    fn persisted_key_strings_are_frozen() {
        // Literals captured before the two formatters were merged: artifacts on
        // disk carry these strings and are rejected on load if they change.
        const CONFIG: &str = "FeatureConfig { grid_side: 12, include_stats: true, \
            include_deviation: true }#[48]#nnseed4016259175#TrainConfig { epochs: 8, \
            batch_size: 16, sgd: SgdConfig { learning_rate: 0.03, momentum: 0.9, \
            weight_decay: 0.0001 }, seed: 0 }#CostProfile { specialized_fps: 10000.0, \
            training_fps: 2500.0, filter_fps: 100000.0, decode_fps: 1000.0 }";
        let (_, e) = Catalog::one_video(DatasetPreset::Taipei, 600);
        let heads = [(ObjectClass::Car, 2usize), (ObjectClass::Bus, 0usize)];
        let nn = e.specialized_for(&heads).unwrap();
        let wfp = nn.weights_fingerprint();
        assert_eq!(
            VideoContext::score_key(&e.video(), 600, &nn),
            format!("taipei#day2#vseed8001793#600#600#{CONFIG}#wfp{wfp:016x}#car:2|bus:1")
        );
        assert_eq!(
            e.nn_store_key(&VideoContext::normalized_heads(&heads)),
            format!(
                "nn#taipei#day0#vseed8001793#600#200#{CONFIG}#detFgfa#thr0.2#lstride3#car:2|bus:1"
            )
        );
    }

    #[test]
    fn repeated_queries_hit_the_score_index() {
        // The "BlazeIt (indexed)" acceptance scenario: the second identical query
        // over the same video + class set pays zero specialized inference.
        let (catalog, e) = engine();
        let sql =
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%";
        catalog.session().query(sql).unwrap();
        let after_first = e.clock().breakdown().specialized;
        assert!(after_first > 0.0);
        catalog.session().query(sql).unwrap();
        let after_second = e.clock().breakdown().specialized;
        assert!(
            (after_second - after_first).abs() < 1e-12,
            "second query charged {} extra specialized-inference seconds",
            after_second - after_first
        );
    }

    #[test]
    fn default_max_count_respects_floor() {
        let (_, e) = engine();
        let k = e.default_max_count(ObjectClass::Car, 5);
        assert!(k >= 5);
        let k2 = e.default_max_count(ObjectClass::Bird, 1);
        assert_eq!(k2, 1);
    }

    #[test]
    fn end_to_end_aggregate_query_runs() {
        let (catalog, _) = engine();
        let result = catalog
            .session()
            .query("SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%")
            .unwrap();
        match result.output {
            QueryOutput::Aggregate { value, .. } => assert!(value >= 0.0),
            other => panic!("expected aggregate output, got {other:?}"),
        }
        assert!(result.runtime_secs() > 0.0);
    }

    #[test]
    fn end_to_end_scrub_query_runs() {
        let (catalog, _) = engine();
        let result = catalog
            .session()
            .query(
                "SELECT timestamp FROM taipei GROUP BY timestamp \
                 HAVING SUM(class='car') >= 1 LIMIT 3 GAP 30",
            )
            .unwrap();
        match &result.output {
            QueryOutput::Frames { frames, .. } => {
                assert!(frames.len() <= 3);
                for pair in frames.windows(2) {
                    let gap = pair[0].abs_diff(pair[1]);
                    assert!(gap >= 30, "frames {pair:?} violate GAP 30");
                }
            }
            other => panic!("expected frames output, got {other:?}"),
        }
    }

    #[test]
    fn clock_reset() {
        let (catalog, e) = engine();
        catalog
            .session()
            .query(
                "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.3 AT CONFIDENCE 90%",
            )
            .unwrap();
        assert!(e.clock().total() > 0.0);
        catalog.reset_clock();
        assert_eq!(e.clock().total(), 0.0);
    }

    #[test]
    fn explain_is_free() {
        let (catalog, e) = engine();
        let result = catalog
            .session()
            .query("EXPLAIN SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1")
            .unwrap();
        assert!(result.output.explain_plan().is_some());
        assert_eq!(e.clock().total(), 0.0, "EXPLAIN must not charge the simulated clock");
    }
}
