//! The catalog: many registered videos behind one declarative query surface.
//!
//! BlazeIt's premise is a declarative interface over a *corpus* of video streams, not
//! a single file. A [`Catalog`] owns one [`VideoContext`] per registered video — each
//! with its own labeled set, detector configuration, and per-video caches of trained
//! specialized networks and score indexes — plus the shared [`SimClock`] every
//! expensive operation charges. FrameQL queries are routed to the right context by
//! their `FROM` clause through a [`Session`]; a query naming
//! an unregistered video fails with [`BlazeItError::UnknownVideo`] listing what *is*
//! registered.
//!
//! Video names are normalized (ASCII-lowercased, `_` → `-`) for routing, so
//! `FROM night_street` and `FROM Night-Street` both reach the `night-street` stream.
//!
//! The catalog is **shared-by-default**: contexts live behind the sync shim's
//! [`RwLock`] as `Arc` snapshots, so every method takes `&self` — N sessions
//! (and the [`serve`](crate::serve) layer's worker threads) plan and execute
//! simultaneously against one `Arc<Catalog>`, and videos can be registered
//! while queries are in flight. Lookups hand out `Arc<VideoContext>` clones;
//! the short-lived contexts lock is never held across planning or execution.

use crate::config::BlazeItConfig;
use crate::context::VideoContext;
use crate::labeled::LabeledSet;
use crate::session::Session;
use crate::store::{IndexStore, StoreError};
use crate::stream::{DriftConfig, StreamState};
use crate::sync::RwLock;
use crate::{BlazeItError, Result};
use blazeit_detect::SimClock;
use blazeit_videostore::{DatasetPreset, Video, DAY_HELDOUT, DAY_TEST, DAY_TRAIN};
use std::path::Path;
use std::sync::Arc;

/// Store errors hit before a context (and so its `HealthState`) exists,
/// tagged with the operation that failed; recorded right after registration.
type CollectedStoreErrors = Vec<(&'static str, StoreError)>;

/// Normalizes a video name for routing: ASCII-lowercase, underscores to hyphens.
/// (Also the per-video directory name inside an [`IndexStore`].)
pub(crate) fn normalize(name: &str) -> String {
    name.to_ascii_lowercase().replace('_', "-")
}

/// Levenshtein edit distance between two (normalized) names, used to suggest the
/// closest registered video when a `FROM` clause misses.
#[expect(
    clippy::indexing_slicing,
    reason = "Levenshtein DP: both rows are sized b.len() + 1, so index 0 exists, every j < b.len() \
              from the enumerate has a slot j + 1, and b.len() is the last slot"
)]
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<u8> = a.bytes().collect();
    let b: Vec<u8> = b.bytes().collect();
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitution = previous[j] + usize::from(ca != cb);
            current[j + 1] = substitution.min(previous[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut previous, &mut current);
    }
    previous[b.len()]
}

/// The registered name most plausibly meant by `requested`: minimum edit distance
/// over normalized names, ties broken by registration order, and only offered when
/// the distance is small relative to the name — at most a third of the longer
/// name's length, so short names never produce coincidental "did you mean"
/// suggestions (a 2-edit distance between two 2-character names is not a typo).
fn nearest_name(requested: &str, available: &[String]) -> Option<String> {
    let requested = normalize(requested);
    let best = available
        .iter()
        .map(|name| (edit_distance(&requested, &normalize(name)), name))
        .min_by_key(|&(distance, _)| distance)?;
    let (distance, name) = best;
    (distance * 3 <= requested.len().max(name.len())).then(|| name.clone())
}

/// A catalog of registered videos sharing one simulated clock.
pub struct Catalog {
    clock: Arc<SimClock>,
    /// Registration-ordered contexts. The shim `RwLock` keeps registration
    /// `&self` (concurrent with queries); the `Arc`s make lookups snapshots,
    /// so the lock is released before any planning or execution happens.
    contexts: RwLock<Vec<Arc<VideoContext>>>,
    store: Option<Arc<IndexStore>>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog").field("videos", &self.video_names()).finish()
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// Creates an empty catalog with a fresh simulated clock.
    pub fn new() -> Catalog {
        Catalog { clock: SimClock::new(), contexts: RwLock::new(Vec::new()), store: None }
    }

    /// Creates an empty catalog whose per-video caches are backed by a durable
    /// [`IndexStore`] rooted at `path` (created if absent).
    ///
    /// Every video registered afterwards joins the read-through / write-behind
    /// hierarchy: trained specialized networks and score indexes are persisted as
    /// they are built, and a fresh catalog opened over the same path later
    /// answers repeat queries from disk with **zero** specialized-inference or
    /// training cost charged to the simulated clock — the paper's
    /// "BlazeIt (indexed)" scenario made durable.
    pub fn with_index_store(path: impl AsRef<Path>) -> Result<Catalog> {
        let store = IndexStore::open(path)?;
        Ok(Catalog {
            clock: SimClock::new(),
            contexts: RwLock::new(Vec::new()),
            store: Some(Arc::new(store)),
        })
    }

    /// Like [`Catalog::with_index_store`], with a size budget: the store keeps
    /// its total artifact bytes at or below `max_bytes` by evicting the
    /// least-recently-used artifacts (usage tracked in a small on-disk
    /// manifest, not filesystem mtimes). Storing an artifact that cannot fit
    /// even after evicting everything else fails with
    /// [`StoreError::BudgetExceeded`];
    /// the catalog's write-behind degrades to in-memory caching in that case.
    pub fn with_index_store_budget(path: impl AsRef<Path>, max_bytes: u64) -> Result<Catalog> {
        let store = IndexStore::open_with_budget(path, max_bytes)?;
        Ok(Catalog {
            clock: SimClock::new(),
            contexts: RwLock::new(Vec::new()),
            store: Some(Arc::new(store)),
        })
    }

    /// The durable index store behind this catalog's caches, if any.
    pub fn index_store(&self) -> Option<&Arc<IndexStore>> {
        self.store.as_ref()
    }

    /// Registers a video (the unseen test data) with a pre-built labeled set and
    /// per-stream configuration, returning its context.
    ///
    /// Fails if a video with the same (normalized) name is already registered.
    /// Registration takes `&self`: the context is built outside the contexts
    /// lock, then published under a short write section, so queries already in
    /// flight are never blocked on context construction.
    pub fn register(
        &self,
        video: Video,
        labeled: Arc<LabeledSet>,
        config: BlazeItConfig,
    ) -> Result<Arc<VideoContext>> {
        let ctx = Arc::new(VideoContext::with_store(
            video,
            labeled,
            config,
            Arc::clone(&self.clock),
            self.store.clone(),
        ));
        self.publish(ctx)
    }

    /// Publishes a freshly built context, enforcing name uniqueness under the
    /// write lock (the whole check-then-insert is one atomic section, so two
    /// concurrent registrations of the same name cannot both succeed).
    fn publish(&self, ctx: Arc<VideoContext>) -> Result<Arc<VideoContext>> {
        let key = normalize(ctx.video().name());
        let mut contexts = self.contexts.write();
        if contexts.iter().any(|c| normalize(c.video().name()) == key) {
            return Err(BlazeItError::Unsupported(format!(
                "video '{}' is already registered in this catalog",
                ctx.video().name()
            )));
        }
        contexts.push(Arc::clone(&ctx));
        Ok(ctx)
    }

    /// Registers one of the Table 3 presets: generates its three days (train,
    /// held-out, test) at `frames_per_day` frames each, builds the labeled set
    /// offline, and registers the test day under the preset's name.
    pub fn register_preset(
        &self,
        preset: DatasetPreset,
        frames_per_day: u64,
    ) -> Result<Arc<VideoContext>> {
        let config = BlazeItConfig::for_preset(preset);
        self.register_preset_with_config(preset, frames_per_day, config)
    }

    /// Like [`Catalog::register_preset`] but with an explicit configuration.
    pub fn register_preset_with_config(
        &self,
        preset: DatasetPreset,
        frames_per_day: u64,
        config: BlazeItConfig,
    ) -> Result<Arc<VideoContext>> {
        let test = preset.generate_with_frames(DAY_TEST, frames_per_day)?;
        let (labeled, store_errors) =
            self.build_or_load_labeled(preset, frames_per_day, &config)?;
        let ctx = self.register(test, labeled, config)?;
        // The labeled-set artifacts were read/written before the context
        // existed; its health state inherits their failures so EXPLAIN and
        // monitoring see them instead of a silent swallow.
        for (op, error) in &store_errors {
            ctx.health().record_store_error(op, error);
        }
        Ok(ctx)
    }

    /// Builds the labeled set for a preset — or, when this catalog has an
    /// index store that already holds the annotations for the same labeling
    /// identity (videos, detector, strides), loads them instead of re-running
    /// the offline detector pass ([`LabeledSet::annotation_cost_secs`] is zero
    /// for a loaded set). Freshly built annotations are written behind.
    fn build_or_load_labeled(
        &self,
        preset: DatasetPreset,
        frames_per_day: u64,
        config: &BlazeItConfig,
    ) -> Result<(Arc<LabeledSet>, CollectedStoreErrors)> {
        let train = preset.generate_with_frames(DAY_TRAIN, frames_per_day)?;
        let heldout = preset.generate_with_frames(DAY_HELDOUT, frames_per_day)?;
        let key = Self::labeled_store_key(&train, &heldout, config);
        let dir = normalize(preset.name());
        // The context (and so its HealthState) does not exist yet; failures
        // are collected here and recorded on the context right after
        // registration, so no store error is ever silently swallowed.
        let mut store_errors: Vec<(&'static str, StoreError)> = Vec::new();
        if let Some(store) = &self.store {
            match store.load_labeled(&dir, &key) {
                Ok(Some((train_day, heldout_day))) => {
                    // An inconsistent artifact falls through to the rebuild
                    // below, which overwrites it (same healing rule as every
                    // other artifact class); the clones are O(1) views.
                    if let Ok(set) = LabeledSet::from_parts(
                        train.clone(),
                        heldout.clone(),
                        train_day,
                        heldout_day,
                    ) {
                        return Ok((Arc::new(set), store_errors));
                    }
                }
                Ok(None) => {}
                Err(e) => store_errors.push(("load labeled set", e)),
            }
        }
        let set = LabeledSet::build(train, heldout, config)?;
        if let Some(store) = &self.store {
            // Write-behind; a failing store degrades to building on every
            // open, and the error lands in the context's health state.
            if let Err(e) = store.store_labeled(&dir, &key, set.train(), set.heldout()) {
                store_errors.push(("store labeled set", e));
            }
        }
        Ok((Arc::new(set), store_errors))
    }

    /// The durable-store key for a labeled set: everything the annotations
    /// depend on — both videos' full identity and the labeling detector and
    /// strides. (Specialized-NN configuration is deliberately absent: the
    /// annotations are detector outputs, shared by every model trained on
    /// them.)
    fn labeled_store_key(train: &Video, heldout: &Video, config: &BlazeItConfig) -> String {
        format!(
            "labeled#{}#days{}-{}#vseed{}#{}x2#det{:?}#thr{}#strides{}-{}",
            train.name(),
            train.config().day,
            heldout.config().day,
            train.config().seed,
            train.len(),
            config.detection_method,
            config.detection_threshold,
            config.labeled_stride,
            config.heldout_stride,
        )
    }

    /// Registers a **live stream**: `capacity` is the full day the stream will
    /// eventually deliver (generated deterministically up front, as the
    /// synthetic stand-in for a camera feed), of which only the first
    /// `initial_frames` are ingested at registration. Frames arrive through
    /// [`Catalog::stream`] / [`StreamSource::advance`](crate::stream::StreamSource::advance);
    /// every cached score index is extended incrementally as they do, and
    /// `drift` configures the background refresh monitor.
    ///
    /// Queries (and [`Session::subscribe`](crate::session::Session::subscribe))
    /// see exactly the ingested prefix.
    pub fn register_stream(
        &self,
        capacity: Video,
        labeled: Arc<LabeledSet>,
        config: BlazeItConfig,
        initial_frames: u64,
        drift: DriftConfig,
    ) -> Result<Arc<VideoContext>> {
        let capacity = Arc::new(capacity);
        let initial = capacity.prefix(initial_frames.max(1).min(capacity.len()))?;
        let ctx = Arc::new(VideoContext::with_parts(
            initial,
            labeled,
            config,
            Arc::clone(&self.clock),
            self.store.clone(),
            Some(StreamState::new(capacity, drift)),
        ));
        self.publish(ctx)
    }

    /// Registers one of the Table 3 presets as a live stream: the labeled days
    /// are built (or loaded from the index store) as usual, the test day of
    /// `frames_per_day` frames becomes the stream's capacity, and ingestion
    /// starts at `initial_frames`.
    pub fn register_stream_preset(
        &self,
        preset: DatasetPreset,
        frames_per_day: u64,
        initial_frames: u64,
        drift: DriftConfig,
    ) -> Result<Arc<VideoContext>> {
        let config = BlazeItConfig::for_preset(preset);
        let capacity = preset.generate_with_frames(DAY_TEST, frames_per_day)?;
        let (labeled, store_errors) =
            self.build_or_load_labeled(preset, frames_per_day, &config)?;
        let ctx = self.register_stream(capacity, labeled, config, initial_frames, drift)?;
        for (op, error) in &store_errors {
            ctx.health().record_store_error(op, error);
        }
        Ok(ctx)
    }

    /// Looks up a registered video's context by (normalized) name.
    ///
    /// A miss fails with [`BlazeItError::UnknownVideo`] listing every registered
    /// stream, suggesting the nearest registered name (by edit distance) when the
    /// request looks like a typo, and reminding that `FROM *` spans the catalog.
    pub fn context(&self, name: &str) -> Result<Arc<VideoContext>> {
        let key = normalize(name);
        self.contexts
            .read()
            .iter()
            .find(|c| normalize(c.video().name()) == key)
            .cloned()
            .ok_or_else(|| self.unknown_video(name))
    }

    /// The routing error for an unregistered name, with the nearest-name hint.
    pub(crate) fn unknown_video(&self, name: &str) -> BlazeItError {
        let available = self.video_names();
        let hint = nearest_name(name, &available);
        BlazeItError::UnknownVideo { requested: name.to_string(), available, hint }
    }

    /// The registered video names, in registration order.
    pub fn video_names(&self) -> Vec<String> {
        self.contexts.read().iter().map(|c| c.video().name().to_string()).collect()
    }

    /// A snapshot of every registered context, in registration order. The
    /// contexts lock is released before this returns: the snapshot stays
    /// valid (each entry is an `Arc`) but does not observe registrations that
    /// land afterwards.
    pub fn contexts(&self) -> Vec<Arc<VideoContext>> {
        self.contexts.read().clone()
    }

    /// Number of registered videos.
    pub fn len(&self) -> usize {
        self.contexts.read().len()
    }

    /// Whether the catalog has no registered videos.
    pub fn is_empty(&self) -> bool {
        self.contexts.read().is_empty()
    }

    /// The shared simulated clock all registered videos charge.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// Resets the shared clock (useful between experiments sharing one catalog).
    pub fn reset_clock(&self) {
        self.clock.reset();
    }

    /// Opens a query session over this catalog.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }
}

#[cfg(test)]
impl Catalog {
    /// A fresh catalog with one registered preset, and that video's context: the
    /// one-video fixture the crate's unit tests share.
    pub(crate) fn one_video(preset: DatasetPreset, frames: u64) -> (Catalog, Arc<VideoContext>) {
        let catalog = Catalog::new();
        let ctx = catalog.register_preset(preset, frames).unwrap();
        (catalog, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazeit_detect::ObjectDetector;
    use blazeit_videostore::ObjectClass;

    #[test]
    fn register_and_lookup_with_normalization() {
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::NightStreet, 600).unwrap();
        assert_eq!(catalog.len(), 1);
        assert!(!catalog.is_empty());
        // Underscore and case variants all route to the hyphenated stream.
        for name in ["night-street", "night_street", "NIGHT_STREET"] {
            assert_eq!(catalog.context(name).unwrap().video().name(), "night-street");
        }
    }

    #[test]
    fn unknown_video_error_lists_registered_names() {
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::Taipei, 600).unwrap();
        catalog.register_preset(DatasetPreset::Amsterdam, 600).unwrap();
        let err = catalog.context("rialto").unwrap_err();
        match err {
            BlazeItError::UnknownVideo { requested, available, hint } => {
                assert_eq!(requested, "rialto");
                assert_eq!(available, vec!["taipei".to_string(), "amsterdam".to_string()]);
                // "rialto" is not a plausible typo of either registered name.
                assert_eq!(hint, None);
            }
            other => panic!("expected UnknownVideo, got {other:?}"),
        }
    }

    #[test]
    fn unknown_video_name_is_rejected_with_catalog_listing() {
        let (catalog, _) = Catalog::one_video(DatasetPreset::Taipei, 1_500);
        let err = catalog
            .session()
            .query("SELECT FCOUNT(*) FROM rialto WHERE class = 'boat' ERROR WITHIN 0.1");
        match err {
            Err(BlazeItError::UnknownVideo { requested, available, .. }) => {
                assert_eq!(requested, "rialto");
                assert_eq!(available, vec!["taipei".to_string()]);
            }
            other => panic!("expected UnknownVideo, got {other:?}"),
        }
    }

    #[test]
    fn video_name_normalization_accepts_underscores() {
        let (catalog, _) = Catalog::one_video(DatasetPreset::NightStreet, 600);
        // night_street vs night-street should be treated as the same relation.
        let result = catalog.session().query(
            "SELECT FCOUNT(*) FROM night_street WHERE class = 'car' ERROR WITHIN 0.5 AT CONFIDENCE 90%",
        );
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn unknown_video_error_suggests_the_nearest_name() {
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::Taipei, 600).unwrap();
        catalog.register_preset(DatasetPreset::Amsterdam, 600).unwrap();
        let err = catalog.context("amstredam").unwrap_err();
        match &err {
            BlazeItError::UnknownVideo { hint, .. } => {
                assert_eq!(hint.as_deref(), Some("amsterdam"));
            }
            other => panic!("expected UnknownVideo, got {other:?}"),
        }
        // Short names never produce coincidental suggestions: every registered name
        // is 2 edits from "zz", which is not a plausible typo of anything here.
        match catalog.context("zz").unwrap_err() {
            BlazeItError::UnknownVideo { hint, .. } => assert_eq!(hint, None),
            other => panic!("expected UnknownVideo, got {other:?}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("did you mean 'amsterdam'?"), "{rendered}");
        assert!(rendered.contains("FROM * queries every registered video"), "{rendered}");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::Taipei, 600).unwrap();
        let err = catalog.register_preset(DatasetPreset::Taipei, 600);
        assert!(matches!(err, Err(BlazeItError::Unsupported(_))));
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn contexts_share_the_catalog_clock() {
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::Taipei, 600).unwrap();
        catalog.register_preset(DatasetPreset::Amsterdam, 600).unwrap();
        assert_eq!(catalog.clock().total(), 0.0);
        let ctx = catalog.context("taipei").unwrap();
        ctx.detector().detect(&ctx.video(), 0);
        assert!(catalog.clock().total() > 0.0);
        let before = catalog.clock().total();
        let ctx2 = catalog.context("amsterdam").unwrap();
        ctx2.detector().detect(&ctx2.video(), 0);
        assert!(catalog.clock().total() > before, "both contexts charge the shared clock");
        catalog.reset_clock();
        assert_eq!(catalog.clock().total(), 0.0);
    }

    #[test]
    fn per_video_udfs_via_shared_context() {
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::Taipei, 600).unwrap();
        catalog
            .context("taipei")
            .unwrap()
            .register_udf("always_seven", true, |_, _| blazeit_frameql::Value::Number(7.0));
        assert!(catalog.context("taipei").unwrap().udfs().contains("always_seven"));
        let _ = ObjectClass::Car;
    }

    #[test]
    fn registration_is_concurrent_with_lookups() {
        // The tentpole contract: `register*` takes `&self`, so a shared
        // `Arc<Catalog>` accepts new videos while other threads query it.
        let catalog = Arc::new(Catalog::new());
        catalog.register_preset(DatasetPreset::Taipei, 600).unwrap();
        std::thread::scope(|s| {
            let c = Arc::clone(&catalog);
            s.spawn(move || c.register_preset(DatasetPreset::Amsterdam, 600).map(|_| ()));
            for _ in 0..50 {
                assert_eq!(catalog.context("taipei").unwrap().video().name(), "taipei");
            }
        });
        assert_eq!(catalog.len(), 2);
        // Concurrent duplicate registration: exactly one winner.
        let outcomes: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&catalog);
                    s.spawn(move || c.register_preset(DatasetPreset::Rialto, 600).is_ok())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outcomes.iter().filter(|&&ok| ok).count(), 1);
        assert_eq!(catalog.len(), 3);
    }
}
