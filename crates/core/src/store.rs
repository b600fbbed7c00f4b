//! The durable on-disk index store: score matrices and trained specialized
//! networks that survive the [`Catalog`](crate::catalog::Catalog).
//!
//! The paper's "BlazeIt (indexed)" scenario assumes the specialized-NN score index
//! already exists when a query arrives — which only makes sense if indexes outlive
//! the process that built them (Focus builds its whole low-latency story on an
//! ingest-time index consulted at query time; NoScope's amortization argument
//! needs the cascade's work to be reusable). An [`IndexStore`] makes the catalog's
//! per-video caches durable: [`Catalog::with_index_store`](crate::catalog::Catalog::with_index_store)
//! wires every registered [`VideoContext`](crate::context::VideoContext) into a
//! read-through / write-behind hierarchy — memory cache → disk store → train/score
//! — so a fresh catalog over a populated store answers repeat queries with **zero**
//! specialized inference or training charged to the simulated clock.
//!
//! ## Directory layout
//!
//! One directory per registered video (its normalized name), two artifact classes
//! inside, filenames derived from the FNV-1a hash of fully-identifying keys (the
//! full key string is stored — and verified — inside each file, so a hash
//! collision or renamed file is rejected, never silently served):
//!
//! ```text
//! <root>/
//!   <video-name>/
//!     nn/<fnv1a(key)>.bzn       trained networks; key = training-data identity
//!                               (training video, labeled-set size, detector) +
//!                               the full specialized configuration
//!     scores/<fnv1a(key)>.bzs   score matrices; key = scored-video identity +
//!                               configuration + a fingerprint of the network
//!                               weights that produced them
//!     labeled/<fnv1a(key)>.bzl  labeled-set annotations (the offline detector
//!                               pass over the train + held-out days); key =
//!                               both videos' identity + detector + strides
//!   manifest.tsv                LRU bookkeeping (budgeted stores only)
//! ```
//!
//! ## Size budgeting
//!
//! [`IndexStore::open_with_budget`] caps the total artifact bytes: every store
//! and load bumps the artifact's use sequence in `manifest.tsv` (recency is
//! tracked explicitly, never inferred from mtimes), and writes evict the
//! least-recently-used artifacts until the total fits. An artifact bigger than
//! the entire budget is rejected up front with the typed
//! [`StoreError::BudgetExceeded`] — an un-evictable overflow — and nothing is
//! written; the catalog's write-behind treats that like any other store
//! failure and degrades to in-memory caching.
//!
//! Because the keys pin everything an artifact depends on, catalogs opened over
//! one store path with *different* `BlazeItConfig`s plan cold and recompute
//! instead of serving each other's artifacts.
//!
//! Files use the versioned, checksummed envelope of [`blazeit_nn::persist`];
//! truncated, corrupted, or version-bumped files fail to load with a typed
//! [`StoreError`] (never a panic), and the context's read-through path falls back
//! to recomputing — then overwrites the bad file with a fresh artifact.

use crate::fault;
use crate::labeled::AnnotatedDay;
use crate::obs;
use crate::sync::Mutex;
use crate::BlazeItError;
use blazeit_detect::{CountVector, Detection, SimClock};
use blazeit_nn::persist::{self, PersistError};
use blazeit_nn::specialized::SpecializedNN;
use blazeit_nn::ScoreMatrix;
use blazeit_videostore::{BoundingBox, ObjectClass};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A typed index-store failure: I/O around an artifact file, or the artifact
/// itself failing to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The store directory or an artifact file could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A transient, retryable I/O failure (`WouldBlock`-shaped: the resource is
    /// momentarily busy or unavailable). Eligible for retry under the
    /// context's [`RetryPolicy`](crate::fault::RetryPolicy); once retries are
    /// exhausted it counts toward store degradation like [`StoreError::Io`].
    Transient {
        /// The path involved.
        path: PathBuf,
        /// The underlying condition, rendered.
        message: String,
    },
    /// An artifact file exists but is invalid: truncated, corrupted,
    /// version-mismatched, or stored under a different identity key.
    Invalid {
        /// The artifact file.
        path: PathBuf,
        /// The typed decoding failure.
        source: PersistError,
    },
    /// Storing the artifact would exceed the store's size budget even after
    /// evicting every other artifact (the artifact alone is bigger than the
    /// budget): an un-evictable overflow.
    BudgetExceeded {
        /// The artifact that could not be stored.
        path: PathBuf,
        /// The artifact's size in bytes.
        needed: u64,
        /// The store's configured budget in bytes.
        budget: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "index store I/O error at {}: {message}", path.display())
            }
            StoreError::Transient { path, message } => {
                write!(f, "transient index store error at {}: {message}", path.display())
            }
            StoreError::Invalid { path, source } => {
                write!(f, "invalid index artifact {}: {source}", path.display())
            }
            StoreError::BudgetExceeded { path, needed, budget } => {
                write!(
                    f,
                    "index artifact {} needs {needed} bytes but the store budget is \
                     {budget} bytes (un-evictable overflow)",
                    path.display()
                )
            }
        }
    }
}

impl StoreError {
    /// Whether this failure is transient (momentary, worth retrying with
    /// backoff) as opposed to a hard error or a corrupt artifact.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Transient { .. })
    }
}

impl std::error::Error for StoreError {}

impl From<StoreError> for BlazeItError {
    fn from(e: StoreError) -> Self {
        BlazeItError::Store(e)
    }
}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), message: e.to_string() }
}

/// Convenience result alias for store operations.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

/// Least-recently-used bookkeeping for a budgeted store: artifact sizes and a
/// monotone use sequence per relative path, persisted as a small manifest file
/// (`manifest.tsv` at the store root) so recency survives reopen — mtimes are
/// not trusted (they are coarse, and backup/copy tools rewrite them).
#[derive(Debug, Default)]
struct Manifest {
    next_seq: u64,
    entries: HashMap<String, (u64, u64)>, // rel path -> (bytes, last-used seq)
}

impl Manifest {
    const FILE: &'static str = "manifest.tsv";
    const HEADER: &'static str = "blazeit-index-manifest v1";

    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|&(bytes, _)| bytes).sum()
    }

    /// Parses a manifest file; `None` when missing or malformed (the caller
    /// rebuilds from a directory scan).
    fn parse(text: &str) -> Option<Manifest> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let next_seq: u64 = header.strip_prefix(Self::HEADER)?.trim().parse().ok()?;
        let mut entries = HashMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            let seq: u64 = parts.next()?.parse().ok()?;
            let bytes: u64 = parts.next()?.parse().ok()?;
            let rel = parts.next()?.to_string();
            entries.insert(rel, (bytes, seq));
        }
        Some(Manifest { next_seq, entries })
    }

    fn render(&self) -> String {
        let mut rows: Vec<(&String, &(u64, u64))> = self.entries.iter().collect();
        rows.sort_by_key(|(rel, _)| rel.as_str());
        let mut out = format!("{} {}\n", Self::HEADER, self.next_seq);
        for (rel, (bytes, seq)) in rows {
            out.push_str(&format!("{seq}\t{bytes}\t{rel}\n"));
        }
        out
    }
}

/// A durable store of score indexes, trained specialized networks, and
/// labeled-set annotations, shared by every video of a catalog.
#[derive(Debug)]
pub struct IndexStore {
    root: PathBuf,
    /// Maximum total artifact bytes, enforced by LRU eviction; `None` =
    /// unbounded (no manifest maintained).
    budget: Option<u64>,
    manifest: Mutex<Manifest>,
}

impl IndexStore {
    /// Opens (creating if necessary) an index store rooted at `path`, with no
    /// size budget.
    // blazeit-lint: allow(fault-coverage) -- bootstrap path: create_dir_all runs once
    // before any fault plan is installed; a failure surfaces as StoreError::Io and
    // aborts setup rather than degrading a live store.
    pub fn open(path: impl AsRef<Path>) -> StoreResult<IndexStore> {
        let root = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        Ok(IndexStore { root, budget: None, manifest: Mutex::new(Manifest::default()) })
    }

    /// Opens a store whose total artifact bytes are kept at or below
    /// `max_bytes` by least-recently-used eviction.
    ///
    /// Recency is tracked in a small on-disk manifest (every store and load
    /// bumps the artifact's use sequence), **not** in filesystem mtimes. An
    /// existing store opened with a budget is reconciled first: untracked
    /// artifact files are adopted (as least recently used), stale manifest
    /// rows are dropped, and the store is evicted down to the budget
    /// immediately.
    pub fn open_with_budget(path: impl AsRef<Path>, max_bytes: u64) -> StoreResult<IndexStore> {
        let root = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        let mut manifest = std::fs::read_to_string(root.join(Manifest::FILE))
            .ok()
            .and_then(|text| Manifest::parse(&text))
            .unwrap_or_default();
        Self::reconcile(&root, &mut manifest);
        let store = IndexStore { root, budget: Some(max_bytes), manifest: Mutex::new(manifest) };
        {
            let mut manifest = store.manifest.lock();
            store.evict_to_budget(&mut manifest, None)?;
            store.persist_manifest(&manifest)?;
        }
        Ok(store)
    }

    /// Syncs a manifest with the artifact files actually on disk: drops rows
    /// whose file is gone, adopts files the manifest has never seen (with the
    /// lowest recency, so unknown history evicts first).
    // blazeit-lint: allow(fault-coverage) -- infallible by design: reconciliation
    // tolerates every fs error (unreadable dirs/entries are skipped), so there is
    // no error path an injected fault could surface through.
    fn reconcile(root: &Path, manifest: &mut Manifest) {
        let mut on_disk: Vec<(String, u64)> = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else { continue };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if matches!(
                    path.extension().and_then(|e| e.to_str()),
                    Some("bzn" | "bzs" | "bzl")
                ) {
                    if let (Ok(rel), Ok(meta)) = (path.strip_prefix(root), entry.metadata()) {
                        on_disk.push((rel.to_string_lossy().into_owned(), meta.len()));
                    }
                }
            }
        }
        let live: std::collections::HashSet<&str> =
            on_disk.iter().map(|(rel, _)| rel.as_str()).collect();
        manifest.entries.retain(|rel, _| live.contains(rel.as_str()));
        on_disk.sort();
        for (rel, bytes) in on_disk {
            manifest.entries.entry(rel).or_insert((bytes, 0));
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured size budget in bytes, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Total artifact bytes currently tracked (only meaningful for budgeted
    /// stores, whose manifest is kept in sync).
    pub fn tracked_bytes(&self) -> u64 {
        self.manifest.lock().total_bytes()
    }

    fn rel(&self, path: &Path) -> String {
        path.strip_prefix(&self.root)
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|_| path.to_string_lossy().into_owned())
    }

    fn persist_manifest(&self, manifest: &Manifest) -> StoreResult<()> {
        write_atomically(&self.root.join(Manifest::FILE), manifest.render().as_bytes())
    }

    /// Evicts least-recently-used artifacts (never `keep`) until the tracked
    /// total fits the budget.
    fn evict_to_budget(&self, manifest: &mut Manifest, keep: Option<&str>) -> StoreResult<()> {
        let Some(budget) = self.budget else { return Ok(()) };
        while manifest.total_bytes() > budget {
            let victim = manifest
                .entries
                .iter()
                .filter(|(rel, _)| keep != Some(rel.as_str()))
                .min_by_key(|(rel, &(_, seq))| (seq, (*rel).clone()))
                .map(|(rel, _)| rel.clone());
            let Some(victim) = victim else {
                // Nothing evictable is left; the survivor alone exceeds the
                // budget. `store_artifact` pre-checks incoming sizes, so this
                // can only be reached by shrinking the budget of an existing
                // store below its largest pinned artifact.
                let path = self.root.join(keep.unwrap_or_default());
                return Err(StoreError::BudgetExceeded {
                    needed: manifest.total_bytes(),
                    budget,
                    path,
                });
            };
            let path = self.root.join(&victim);
            if let Some(injected) = fault::inject(fault::FaultSite::StoreRemove) {
                if let Some(error) = injected_io_error(&path, injected) {
                    return Err(error);
                }
            }
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&path, e)),
            }
            manifest.entries.remove(&victim);
            obs::metrics().store_evictions.inc();
        }
        Ok(())
    }

    /// Records a freshly written artifact in the manifest and evicts older
    /// artifacts as needed (no-op for unbudgeted stores).
    fn record_write(&self, path: &Path, bytes: u64) -> StoreResult<()> {
        if self.budget.is_none() {
            return Ok(());
        }
        let rel = self.rel(path);
        let mut manifest = self.manifest.lock();
        let seq = manifest.next_seq;
        manifest.next_seq += 1;
        manifest.entries.insert(rel.clone(), (bytes, seq));
        self.evict_to_budget(&mut manifest, Some(&rel))?;
        self.persist_manifest(&manifest)
    }

    /// Bumps an artifact's use sequence (loads count as uses for LRU).
    fn record_use(&self, path: &Path) {
        if self.budget.is_none() {
            return;
        }
        let rel = self.rel(path);
        let mut manifest = self.manifest.lock();
        let seq = manifest.next_seq;
        if let Some(entry) = manifest.entries.get_mut(&rel) {
            entry.1 = seq;
            manifest.next_seq += 1;
            let _ = self.persist_manifest(&manifest);
        }
    }

    /// Drops an artifact from the manifest (after its file was removed).
    fn record_remove(&self, path: &Path) {
        if self.budget.is_none() {
            return;
        }
        let rel = self.rel(path);
        let mut manifest = self.manifest.lock();
        if manifest.entries.remove(&rel).is_some() {
            let _ = self.persist_manifest(&manifest);
        }
    }

    /// Writes an artifact through the budget gate: an artifact bigger than the
    /// whole budget is rejected up front as un-evictable overflow (nothing is
    /// written), anything else is written atomically and older artifacts are
    /// evicted LRU-first to make room.
    fn store_artifact(&self, path: &Path, bytes: &[u8]) -> StoreResult<()> {
        if let Some(budget) = self.budget {
            if bytes.len() as u64 > budget {
                return Err(StoreError::BudgetExceeded {
                    path: path.to_path_buf(),
                    needed: bytes.len() as u64,
                    budget,
                });
            }
        }
        write_atomically(path, bytes)?;
        obs::metrics().store_writes.inc();
        self.record_write(path, bytes.len() as u64)
    }

    /// This video's directory inside the store: the (normalized) name when it is
    /// already a safe single path component, otherwise a sanitized form with a
    /// disambiguating hash. Video names are caller-controlled strings, so they
    /// must never be able to traverse outside the store root (`"../shared"`) or
    /// nest into another video's namespace (`"a/b"`).
    fn video_dir(&self, video: &str) -> PathBuf {
        let cleaned: String = video
            .chars()
            .map(
                |c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '-' },
            )
            .collect();
        // A changed, empty, or dot-leading name (".", "..", hidden files) gets
        // the raw name's hash appended so distinct raw names stay distinct.
        let dir = if cleaned != video || cleaned.is_empty() || cleaned.starts_with('.') {
            format!(
                "{}-{:08x}",
                cleaned.trim_start_matches('.'),
                persist::fnv1a(video.as_bytes()) as u32
            )
        } else {
            cleaned
        };
        self.root.join(dir)
    }

    /// The artifact path for a trained network stored under `key` for `video`.
    /// Exposed so tests and tooling can inspect (or corrupt) specific files.
    pub fn network_path(&self, video: &str, key: &str) -> PathBuf {
        self.video_dir(video)
            .join("nn")
            .join(format!("{:016x}.bzn", persist::fnv1a(key.as_bytes())))
    }

    /// The artifact path for a score matrix stored under `key` for `video`.
    pub fn scores_path(&self, video: &str, key: &str) -> PathBuf {
        self.video_dir(video)
            .join("scores")
            .join(format!("{:016x}.bzs", persist::fnv1a(key.as_bytes())))
    }

    /// The artifact path for labeled-set annotations stored under `key` for
    /// `video`.
    pub fn labeled_path(&self, video: &str, key: &str) -> PathBuf {
        self.video_dir(video)
            .join("labeled")
            .join(format!("{:016x}.bzl", persist::fnv1a(key.as_bytes())))
    }

    /// Whether a trained network is stored under `key` for `video` (a cheap file
    /// presence check: used by plan warmth, so it must not decode anything).
    pub fn has_network(&self, video: &str, key: &str) -> bool {
        self.network_path(video, key).is_file()
    }

    /// Whether a score matrix is stored under `key` for `video`.
    pub fn has_scores(&self, video: &str, key: &str) -> bool {
        self.scores_path(video, key).is_file()
    }

    /// Loads the trained network stored under `key` for `video`, binding it to
    /// `clock`; `Ok(None)` when no artifact exists, a typed [`StoreError`] when
    /// one exists but cannot be decoded. Charges nothing to the simulated clock.
    pub fn load_network(
        &self,
        video: &str,
        key: &str,
        clock: &Arc<SimClock>,
    ) -> StoreResult<Option<SpecializedNN>> {
        let path = self.network_path(video, key);
        let Some(bytes) = read_if_exists(&path)? else { return Ok(None) };
        self.record_use(&path);
        obs::metrics().store_reads.inc();
        persist::decode_specialized_nn(&bytes, key, Arc::clone(clock))
            .map(Some)
            .map_err(|source| StoreError::Invalid { path, source })
    }

    /// Loads the score matrix stored under `key` for `video` (`Ok(None)` when
    /// absent, typed error when invalid). The result is bit-identical to the
    /// matrix that was stored. Charges nothing to the simulated clock.
    pub fn load_scores(&self, video: &str, key: &str) -> StoreResult<Option<ScoreMatrix>> {
        let path = self.scores_path(video, key);
        let Some(bytes) = read_if_exists(&path)? else { return Ok(None) };
        self.record_use(&path);
        obs::metrics().store_reads.inc();
        persist::decode_score_matrix(&bytes, key)
            .map(Some)
            .map_err(|source| StoreError::Invalid { path, source })
    }

    /// Stores (or replaces) a trained network under `key` for `video`.
    pub fn store_network(&self, video: &str, key: &str, nn: &SpecializedNN) -> StoreResult<()> {
        self.store_artifact(
            &self.network_path(video, key),
            &persist::encode_specialized_nn(nn, key),
        )
    }

    /// Stores (or replaces) a score matrix under `key` for `video`.
    pub fn store_scores(&self, video: &str, key: &str, scores: &ScoreMatrix) -> StoreResult<()> {
        self.store_artifact(
            &self.scores_path(video, key),
            &persist::encode_score_matrix(scores, key),
        )
    }

    /// Removes the score matrix stored under `key` for `video`, if present
    /// (streaming ingestion retires the superseded shorter artifact after
    /// writing the grown one, so disk tracks the stream).
    pub fn remove_scores(&self, video: &str, key: &str) -> StoreResult<()> {
        let path = self.scores_path(video, key);
        if let Some(injected) = fault::inject(fault::FaultSite::StoreRemove) {
            if let Some(error) = injected_io_error(&path, injected) {
                return Err(error);
            }
        }
        match std::fs::remove_file(&path) {
            Ok(()) => {
                self.record_remove(&path);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(&path, e)),
        }
    }

    /// Stores labeled-set annotations (the training and held-out
    /// [`AnnotatedDay`]s) under `key` for `video`, so a fresh catalog over
    /// this store can skip the offline annotation pass entirely.
    pub fn store_labeled(
        &self,
        video: &str,
        key: &str,
        train: &AnnotatedDay,
        heldout: &AnnotatedDay,
    ) -> StoreResult<()> {
        self.store_artifact(&self.labeled_path(video, key), &encode_labeled(key, train, heldout))
    }

    /// Loads the labeled-set annotations stored under `key` for `video`
    /// (`Ok(None)` when absent, typed error when invalid). Per-frame counts
    /// are re-derived from the stored detections, so they can never disagree.
    pub fn load_labeled(
        &self,
        video: &str,
        key: &str,
    ) -> StoreResult<Option<(AnnotatedDay, AnnotatedDay)>> {
        let path = self.labeled_path(video, key);
        let Some(bytes) = read_if_exists(&path)? else { return Ok(None) };
        self.record_use(&path);
        obs::metrics().store_reads.inc();
        decode_labeled(&bytes, key).map(Some).map_err(|source| StoreError::Invalid { path, source })
    }
}

// ---------------------------------------------------------------------------------
// Labeled-set annotation codec (envelope shared with `blazeit_nn::persist`).
// ---------------------------------------------------------------------------------

fn encode_day(w: &mut persist::Writer, day: &AnnotatedDay) {
    w.u64s(&day.frames);
    w.usize(day.detections.len());
    for dets in &day.detections {
        w.usize(dets.len());
        for d in dets {
            w.u8(d.class.index() as u8);
            w.f32(d.bbox.xmin);
            w.f32(d.bbox.ymin);
            w.f32(d.bbox.xmax);
            w.f32(d.bbox.ymax);
            w.f32(d.confidence);
            w.f32s(&d.features);
        }
    }
}

fn decode_day(r: &mut persist::Reader<'_>) -> std::result::Result<AnnotatedDay, PersistError> {
    let frames = r.u64s("annotated frames")?;
    let num = r.usize("detection list count")?;
    if num != frames.len() {
        return Err(PersistError::Corrupt(format!(
            "{} detection lists for {} annotated frames",
            num,
            frames.len()
        )));
    }
    let mut detections = Vec::with_capacity(num);
    let mut counts = Vec::with_capacity(num);
    for _ in 0..num {
        let n = r.usize("detections per frame")?;
        let mut dets = Vec::with_capacity(n);
        for _ in 0..n {
            let class_index = r.u8("detection class")?;
            let class = ObjectClass::ALL.get(class_index as usize).copied().ok_or_else(|| {
                PersistError::Corrupt(format!("unknown object class index {class_index}"))
            })?;
            let bbox = BoundingBox {
                xmin: r.f32("bbox xmin")?,
                ymin: r.f32("bbox ymin")?,
                xmax: r.f32("bbox xmax")?,
                ymax: r.f32("bbox ymax")?,
            };
            let confidence = r.f32("detection confidence")?;
            let features = r.f32s("detection features")?;
            dets.push(Detection { class, bbox, confidence, features });
        }
        counts.push(CountVector::from_detections(&dets));
        detections.push(dets);
    }
    Ok(AnnotatedDay { frames, detections, counts })
}

/// Serializes both annotated days under their cache-identity `key`.
fn encode_labeled(key: &str, train: &AnnotatedDay, heldout: &AnnotatedDay) -> Vec<u8> {
    let mut w = persist::Writer::default();
    w.str(key);
    encode_day(&mut w, train);
    encode_day(&mut w, heldout);
    persist::seal(persist::KIND_LABELED_SET, w.payload())
}

/// Decodes both annotated days, verifying the envelope and key.
fn decode_labeled(
    bytes: &[u8],
    expected_key: &str,
) -> std::result::Result<(AnnotatedDay, AnnotatedDay), PersistError> {
    let payload = persist::open(persist::KIND_LABELED_SET, bytes)?;
    let mut r = persist::Reader::new(payload);
    persist::check_key(&mut r, expected_key)?;
    let train = decode_day(&mut r)?;
    let heldout = decode_day(&mut r)?;
    r.finish()?;
    Ok((train, heldout))
}

/// Maps an injected fault at an I/O failpoint to the store error it simulates
/// (`None` for fault kinds the call site handles specially, e.g. torn writes).
fn injected_io_error(path: &Path, injected: fault::InjectedFault) -> Option<StoreError> {
    match injected {
        fault::InjectedFault::TransientIo => Some(StoreError::Transient {
            path: path.to_path_buf(),
            message: "injected fault: resource temporarily unavailable (would block)".into(),
        }),
        fault::InjectedFault::Io => Some(StoreError::Io {
            path: path.to_path_buf(),
            message: "injected fault: I/O error".into(),
        }),
        _ => None,
    }
}

fn read_if_exists(path: &Path) -> StoreResult<Option<Vec<u8>>> {
    if let Some(injected) = fault::inject(fault::FaultSite::StoreRead) {
        if let Some(error) = injected_io_error(path, injected) {
            return Err(error);
        }
    }
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(path, e)),
    }
}

/// Writes via a uniquely-named temp file + rename so a crash mid-write leaves
/// either the old artifact or none — never a torn file that would read as
/// corrupt forever. The temp name carries the process id and a per-process
/// counter, so concurrent writers of the same artifact (two catalogs sharing
/// one store path) cannot interleave on one temp file; last rename wins with a
/// complete file either way.
fn write_atomically(path: &Path, bytes: &[u8]) -> StoreResult<()> {
    use crate::sync::{AtomicU64, Ordering};
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

    let dir = path.parent().ok_or_else(|| StoreError::Io {
        path: path.to_path_buf(),
        message: "artifact path has no parent directory".into(),
    })?;
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    match fault::inject(fault::FaultSite::StoreWrite) {
        Some(fault::InjectedFault::TornWrite) => {
            // Simulate a filesystem that lied about durability: leave a
            // truncated artifact at the final path while *reporting success*.
            // The checksummed persist envelope catches this on the next read
            // (`StoreError::Invalid`) and the read-through path heals it by
            // recomputing and overwriting.
            #[expect(
                clippy::indexing_slicing,
                reason = "bytes.len() / 2 <= bytes.len(), so the torn prefix is always in range"
            )]
            let torn = &bytes[..bytes.len() / 2];
            std::fs::write(path, torn).map_err(|e| io_err(path, e))?;
            return Ok(());
        }
        Some(injected) => {
            if let Some(error) = injected_io_error(path, injected) {
                return Err(error);
            }
        }
        None => {}
    }
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}
