//! Integration tests for the durable index store: save/load bit-identity, the
//! zero-cost "BlazeIt (indexed)" acceptance scenario across catalog instances,
//! typed rejection of damaged artifacts with fallback to recompute, and the
//! head-key normalization regression.

use blazeit::nn::{PersistError, ScoreMatrix};
use blazeit::prelude::*;
use std::path::{Path, PathBuf};

/// A fresh per-test scratch directory under the system temp dir (respects
/// `TMPDIR`, which is how CI sandboxes these tests).
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blazeit-index-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every artifact file (`.bzn` networks, `.bzs` score matrices) under `root`.
fn artifact_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if matches!(path.extension().and_then(|e| e.to_str()), Some("bzn") | Some("bzs"))
            {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Every probability of an index, as bits, row after row in frame order.
fn row_bits(scores: &ScoreMatrix) -> Vec<u32> {
    scores
        .rows(0..scores.num_frames())
        .flat_map(|row| row.probs().iter().map(|p| p.to_bits()))
        .collect()
}

fn store_catalog(dir: &Path, frames: u64) -> Catalog {
    let catalog = Catalog::with_index_store(dir).expect("open index store");
    catalog.register_preset(DatasetPreset::Taipei, frames).expect("register taipei");
    catalog
}

const FCOUNT_SQL: &str =
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%";
const SCRUB_SQL: &str = "SELECT timestamp FROM taipei GROUP BY timestamp \
                         HAVING SUM(class='car') >= 2 LIMIT 5 GAP 60";

// ---------------------------------------------------------------------------------
// The acceptance scenario: a fresh catalog over a previously populated store
// answers repeat queries with zero specialized-inference (and training) cost,
// EXPLAIN reports the disk-warm state, and loaded scores are bit-identical.
// ---------------------------------------------------------------------------------

#[test]
fn fresh_catalog_over_populated_store_pays_zero_specialized_cost() {
    let dir = tmpdir("acceptance");
    let frames = 900u64;

    // First catalog: pays training + full-video scoring, persisting as it goes.
    let catalog1 = store_catalog(&dir, frames);
    assert!(catalog1.index_store().is_some());
    let fcount1 = catalog1
        .session()
        .query(FCOUNT_SQL)
        .unwrap()
        .output
        .aggregate_value()
        .expect("aggregate output");
    let scrub1 = catalog1.session().query(SCRUB_SQL).unwrap().output.frames().unwrap().to_vec();
    let paid = catalog1.clock().breakdown();
    assert!(paid.training > 0.0, "first catalog must pay training");
    assert!(paid.specialized > 0.0, "first catalog must pay specialized inference");

    // Capture the in-memory index for the bit-identity check below.
    let ctx1 = catalog1.context("taipei").unwrap();
    let heads = vec![(ObjectClass::Car, ctx1.default_max_count(ObjectClass::Car, 1))];
    let nn1 = ctx1.specialized_for(&heads).unwrap();
    let scores1 = row_bits(&ctx1.score_index(&nn1).unwrap());

    assert!(!artifact_files(&dir).is_empty(), "the store must hold persisted artifacts");
    drop(catalog1);

    // Second catalog, fresh process state: EXPLAIN sees the disk-warm store.
    let catalog2 = store_catalog(&dir, frames);
    let explain = catalog2
        .session()
        .query(&format!("EXPLAIN {FCOUNT_SQL}"))
        .unwrap()
        .output
        .explain_plan()
        .unwrap()
        .to_string();
    assert!(
        explain.contains("caches:   specialized=disk-warm score-index=disk-warm"),
        "EXPLAIN must surface the disk-warm store:\n{explain}"
    );
    // Disk-warm inputs are a free load away, so the planner resolves Algorithm
    // 1's rewrite decision at plan time — just as it does memory-warm.
    let prepared = catalog2.session().prepare(FCOUNT_SQL).unwrap();
    match &prepared.plan().only().strategy {
        PlanStrategy::SpecializedAggregate { decision } => {
            assert_ne!(
                *decision,
                RewriteDecision::AtExecution,
                "disk-warm caches must resolve the rewrite decision at plan time"
            );
        }
        other => panic!("unexpected strategy {other:?}"),
    }
    assert_eq!(catalog2.clock().total(), 0.0, "EXPLAIN (and its warmth probes) stay free");

    // Repeat both queries: zero specialized inference, zero training.
    let fcount2 = catalog2.session().query(FCOUNT_SQL).unwrap().output.aggregate_value().unwrap();
    let scrub2 = catalog2.session().query(SCRUB_SQL).unwrap().output.frames().unwrap().to_vec();
    let warm = catalog2.clock().breakdown();
    assert_eq!(warm.specialized, 0.0, "warm loads must charge zero specialized inference");
    assert_eq!(warm.training, 0.0, "warm loads must charge zero training");

    // Deterministic substrate + bit-identical artifacts ⇒ identical answers.
    assert_eq!(fcount1, fcount2);
    assert_eq!(scrub1, scrub2);

    // Bit-identity: the loaded score index equals both what was stored and what
    // a store-less catalog computes from scratch.
    let ctx2 = catalog2.context("taipei").unwrap();
    assert_eq!(ctx2.specialized_warmth(&heads), CacheWarmth::Memory);
    let nn2 = ctx2.specialized_for(&heads).unwrap();
    let scores2 = row_bits(&ctx2.score_index(&nn2).unwrap());
    assert_eq!(scores1, scores2, "loaded scores must be bit-identical to the stored ones");

    let fresh = Catalog::new();
    fresh.register_preset(DatasetPreset::Taipei, frames).unwrap();
    let ctx3 = fresh.context("taipei").unwrap();
    let nn3 = ctx3.specialized_for(&heads).unwrap();
    let scores3 = row_bits(&ctx3.score_index(&nn3).unwrap());
    assert_eq!(scores2, scores3, "loaded scores must be bit-identical to fresh computation");

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// Typed rejection of damaged artifacts (direct store API).
// ---------------------------------------------------------------------------------

#[test]
fn damaged_artifacts_are_rejected_with_typed_errors() {
    let dir = tmpdir("typed-errors");
    let store = IndexStore::open(&dir).unwrap();
    let scores = ScoreMatrix::from_raw(2, vec![3], vec![0.5, 0.3, 0.2, 0.1, 0.2, 0.7]).unwrap();
    store.store_scores("vid", "key", &scores).unwrap();
    let path = store.scores_path("vid", "key");
    let good = std::fs::read(&path).unwrap();

    // Pristine artifact loads bit-identically.
    let loaded = store.load_scores("vid", "key").unwrap().expect("artifact exists");
    assert_eq!(loaded, scores);
    // Absent artifact is None, not an error.
    assert_eq!(store.load_scores("vid", "other-key").unwrap(), None);

    // Truncated file → Corrupt.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    match store.load_scores("vid", "key") {
        Err(StoreError::Invalid { source: PersistError::Corrupt(_), .. }) => {}
        other => panic!("truncated file: expected Invalid/Corrupt, got {other:?}"),
    }

    // Flipped payload byte → Corrupt (checksum mismatch).
    let mut flipped = good.clone();
    let mid = flipped.len() - 9; // inside the payload, before the trailing checksum
    flipped[mid] ^= 0xFF;
    std::fs::write(&path, &flipped).unwrap();
    match store.load_scores("vid", "key") {
        Err(StoreError::Invalid { source: PersistError::Corrupt(msg), .. }) => {
            assert!(msg.contains("checksum"), "{msg}");
        }
        other => panic!("flipped byte: expected Invalid/Corrupt, got {other:?}"),
    }

    // Bumped format version (byte 5 of the envelope) → VersionMismatch: an
    // artifact from another version's arithmetic is recomputed, never served.
    let mut bumped = good.clone();
    bumped[5] = bumped[5].wrapping_add(1);
    std::fs::write(&path, &bumped).unwrap();
    match store.load_scores("vid", "key") {
        Err(StoreError::Invalid {
            source: PersistError::VersionMismatch { found, expected },
            ..
        }) => {
            assert_ne!(found, expected);
        }
        other => panic!("bumped version: expected VersionMismatch, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// Hostile video names cannot escape the store root or collide.
// ---------------------------------------------------------------------------------

#[test]
fn hostile_video_names_stay_inside_the_store_root() {
    let dir = tmpdir("hostile-names");
    let store = IndexStore::open(&dir).unwrap();
    let root = std::fs::canonicalize(store.root()).unwrap();
    for name in ["../escape", "..", ".", "a/b", "a\\b", "/etc/passwd", "", ".hidden", "ok-name"] {
        for path in [store.network_path(name, "k"), store.scores_path(name, "k")] {
            // The artifact path must resolve inside the root even before the
            // file exists: its components may contain no traversal.
            let rel = path.strip_prefix(&root).or_else(|_| path.strip_prefix(store.root()));
            let rel =
                rel.unwrap_or_else(|_| panic!("{} escapes the root for {name:?}", path.display()));
            assert!(
                rel.components().all(|c| matches!(c, std::path::Component::Normal(_))),
                "{} contains traversal components for {name:?}",
                path.display()
            );
        }
        // Round-trip through the sanitized directory still works.
        let scores = ScoreMatrix::from_raw(1, vec![2], vec![0.25, 0.75]).unwrap();
        store.store_scores(name, "k", &scores).unwrap();
        assert_eq!(store.load_scores(name, "k").unwrap(), Some(scores));
    }
    // Distinct hostile names must not collide onto one directory.
    assert_ne!(store.scores_path("a/b", "k"), store.scores_path("a-b", "k"));
    assert_ne!(store.scores_path("..", "k"), store.scores_path(".", "k"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// Fallback: a catalog over a store full of damaged files recomputes (and heals).
// ---------------------------------------------------------------------------------

#[test]
fn corrupted_store_falls_back_to_recompute_and_heals() {
    let dir = tmpdir("fallback");
    let frames = 700u64;

    // Populate, then damage every artifact in place.
    let catalog1 = store_catalog(&dir, frames);
    let fcount1 = catalog1.session().query(FCOUNT_SQL).unwrap().output.aggregate_value().unwrap();
    drop(catalog1);
    let files = artifact_files(&dir);
    assert!(!files.is_empty());
    for file in &files {
        let bytes = std::fs::read(file).unwrap();
        std::fs::write(file, &bytes[..bytes.len() / 3]).unwrap();
    }

    // A fresh catalog must not fail (or serve garbage): it retrains and rescores,
    // charging the clock again, and produces the same answer.
    let catalog2 = store_catalog(&dir, frames);
    let fcount2 = catalog2.session().query(FCOUNT_SQL).unwrap().output.aggregate_value().unwrap();
    let repaid = catalog2.clock().breakdown();
    assert!(repaid.training > 0.0, "damaged store must fall back to retraining");
    assert!(repaid.specialized > 0.0, "damaged store must fall back to rescoring");
    assert_eq!(fcount1, fcount2);
    drop(catalog2);

    // The write-behind healed the store: a third catalog loads for free again.
    let catalog3 = store_catalog(&dir, frames);
    let fcount3 = catalog3.session().query(FCOUNT_SQL).unwrap().output.aggregate_value().unwrap();
    let healed = catalog3.clock().breakdown();
    assert_eq!(healed.specialized, 0.0, "healed store must serve warm loads again");
    assert_eq!(healed.training, 0.0);
    assert_eq!(fcount2, fcount3);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// A configuration change invalidates the store: artifacts trained under one
// BlazeItConfig must never be served to a catalog with a different one.
// ---------------------------------------------------------------------------------

#[test]
fn changed_configuration_never_serves_stale_artifacts() {
    let dir = tmpdir("config-change");
    let frames = 700u64;

    // Populate under the preset's default configuration.
    let catalog1 = store_catalog(&dir, frames);
    catalog1.session().query(FCOUNT_SQL).unwrap();
    drop(catalog1);

    // Same store path, different specialized architecture: the persisted network
    // and scores no longer describe what this catalog would train, so it must
    // retrain from scratch (stale artifacts are keyed away, not served).
    let mut config = BlazeItConfig::for_preset(DatasetPreset::Taipei);
    config.specialized_hidden = vec![24, 12];
    let catalog2 = Catalog::with_index_store(&dir).unwrap();
    catalog2.register_preset_with_config(DatasetPreset::Taipei, frames, config).unwrap();
    let explain2 = catalog2
        .session()
        .query(&format!("EXPLAIN {FCOUNT_SQL}"))
        .unwrap()
        .output
        .explain_plan()
        .unwrap()
        .to_string();
    assert!(
        explain2.contains("caches:   specialized=cold score-index=cold"),
        "a different architecture must plan cold:\n{explain2}"
    );
    catalog2.session().query(FCOUNT_SQL).unwrap();
    let paid = catalog2.clock().breakdown();
    assert!(paid.training > 0.0, "changed config must retrain, not reuse stale weights");
    assert!(paid.specialized > 0.0, "changed config must rescore");
    drop(catalog2);

    // A detector-threshold change alters the *labels* (and hence the trained
    // weights) while leaving the network architecture identical — the score
    // key's weights fingerprint is what keeps these apart.
    let mut config = BlazeItConfig::for_preset(DatasetPreset::Taipei);
    config.detection_threshold = 0.5;
    let catalog2b = Catalog::with_index_store(&dir).unwrap();
    catalog2b.register_preset_with_config(DatasetPreset::Taipei, frames, config).unwrap();
    catalog2b.session().query(FCOUNT_SQL).unwrap();
    let paid = catalog2b.clock().breakdown();
    assert!(paid.training > 0.0, "changed detector threshold must retrain");
    assert!(paid.specialized > 0.0, "weights differ, so scores must be recomputed");
    drop(catalog2b);

    // The original configuration still loads its own artifacts for free.
    let catalog3 = store_catalog(&dir, frames);
    catalog3.session().query(FCOUNT_SQL).unwrap();
    assert_eq!(catalog3.clock().breakdown().training, 0.0);
    assert_eq!(catalog3.clock().breakdown().specialized, 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// Head-key normalization regression: (class, 0) and (class, 1) are the same
// network and must share one cache entry (the head is clamped before keying).
// ---------------------------------------------------------------------------------

#[test]
fn zero_and_one_max_count_heads_share_one_cache_entry() {
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, 700).unwrap();
    let ctx = catalog.context("taipei").unwrap();

    let nn_zero = ctx.specialized_for(&[(ObjectClass::Car, 0)]).unwrap();
    let trained_once = catalog.clock().breakdown().training;
    assert!(trained_once > 0.0);

    // The equivalent clamped request must hit the same entry: no retraining,
    // the very same Arc.
    let nn_one = ctx.specialized_for(&[(ObjectClass::Car, 1)]).unwrap();
    assert!(std::sync::Arc::ptr_eq(&nn_zero, &nn_one), "clamp-equivalent heads must share");
    assert_eq!(catalog.clock().breakdown().training, trained_once, "trained exactly once");

    // Every cache probe agrees, in both formulations.
    for heads in [[(ObjectClass::Car, 0)], [(ObjectClass::Car, 1)]] {
        assert!(ctx.specialized_warmth(&heads).is_warm());
        assert_eq!(ctx.specialized_warmth(&heads), CacheWarmth::Memory);
        assert!(ctx.cached_specialized(&heads).is_some());
    }

    // And the score index keyed through the same normalization is shared too.
    let index = ctx.score_index(&nn_zero).unwrap();
    assert!(ctx.score_index_warmth(&[(ObjectClass::Car, 0)]).is_warm());
    assert!(ctx.score_index_warmth(&[(ObjectClass::Car, 1)]).is_warm());
    let specialized_before = catalog.clock().breakdown().specialized;
    let index_again = ctx.score_index(&nn_one).unwrap();
    assert!(std::sync::Arc::ptr_eq(&index, &index_again));
    assert_eq!(catalog.clock().breakdown().specialized, specialized_before);
}

// ---------------------------------------------------------------------------------
// Head-order insensitivity rides on the same normalization.
// ---------------------------------------------------------------------------------

#[test]
fn head_order_does_not_split_the_cache() {
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, 700).unwrap();
    let ctx = catalog.context("taipei").unwrap();

    let ab = ctx.specialized_for(&[(ObjectClass::Car, 3), (ObjectClass::Bus, 0)]).unwrap();
    let trained_once = catalog.clock().breakdown().training;
    let ba = ctx.specialized_for(&[(ObjectClass::Bus, 1), (ObjectClass::Car, 3)]).unwrap();
    assert!(std::sync::Arc::ptr_eq(&ab, &ba));
    assert_eq!(catalog.clock().breakdown().training, trained_once);
}

// ---------------------------------------------------------------------------------
// Size budgeting: LRU eviction tracked through the manifest (satellite of the
// streaming PR).
// ---------------------------------------------------------------------------------

/// A small synthetic score matrix whose encoded artifact is a few KB.
fn small_scores(frames: usize) -> ScoreMatrix {
    ScoreMatrix::from_raw(frames, vec![4], [0.1, 0.2, 0.3, 0.4].repeat(frames)).unwrap()
}

#[test]
fn budgeted_store_evicts_least_recently_used_artifacts() {
    let dir = tmpdir("budget-lru");
    let scores = small_scores(64);
    let artifact_len = blazeit::nn::persist::encode_score_matrix(&scores, "key-a").len() as u64;
    // Room for two artifacts plus slack, never three.
    let budget = artifact_len * 2 + artifact_len / 2;
    let store = IndexStore::open_with_budget(&dir, budget).unwrap();
    assert_eq!(store.budget(), Some(budget));

    store.store_scores("v", "key-a", &scores).unwrap();
    store.store_scores("v", "key-b", &scores).unwrap();
    assert!(store.has_scores("v", "key-a") && store.has_scores("v", "key-b"));
    assert!(store.tracked_bytes() <= budget);

    // Touch A (a load is a use), then store C: the LRU victim must be B.
    assert!(store.load_scores("v", "key-a").unwrap().is_some());
    store.store_scores("v", "key-c", &scores).unwrap();
    assert!(store.has_scores("v", "key-a"), "recently used artifact survived");
    assert!(!store.has_scores("v", "key-b"), "least recently used artifact evicted");
    assert!(store.has_scores("v", "key-c"));
    assert!(store.tracked_bytes() <= budget);

    // An evicted artifact reads as a clean miss, not an error.
    assert_eq!(store.load_scores("v", "key-b").unwrap(), None);

    // The manifest (not mtimes) carries recency across reopen: touch C, reopen,
    // store D — the victim is A.
    assert!(store.load_scores("v", "key-c").unwrap().is_some());
    drop(store);
    let store = IndexStore::open_with_budget(&dir, budget).unwrap();
    store.store_scores("v", "key-d", &scores).unwrap();
    assert!(!store.has_scores("v", "key-a"), "A was least recent after reopen");
    assert!(store.has_scores("v", "key-c") && store.has_scores("v", "key-d"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unevictable_overflow_is_a_typed_error_and_writes_nothing() {
    let dir = tmpdir("budget-overflow");
    let store = IndexStore::open_with_budget(&dir, 64).unwrap();
    let scores = small_scores(64);
    let err = store.store_scores("v", "too-big", &scores).unwrap_err();
    match &err {
        StoreError::BudgetExceeded { needed, budget, .. } => {
            assert!(*needed > *budget);
            assert_eq!(*budget, 64);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert!(!store.has_scores("v", "too-big"), "a rejected artifact leaves no file");
    assert_eq!(store.tracked_bytes(), 0);

    // A catalog over a too-small budget degrades to in-memory caching instead
    // of failing queries (write-behind swallows the typed error).
    let catalog = Catalog::with_index_store_budget(dir.join("tiny"), 64).unwrap();
    catalog.register_preset(DatasetPreset::Taipei, 600).unwrap();
    let result = catalog.session().query(FCOUNT_SQL).unwrap();
    assert!(result.output.aggregate_value().is_some());
    assert!(artifact_files(&dir.join("tiny")).is_empty(), "nothing fit the 64-byte budget");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budgeted_store_adopts_an_unmanifested_store_and_trims_it() {
    let dir = tmpdir("budget-adopt");
    let scores = small_scores(64);
    let artifact_len = blazeit::nn::persist::encode_score_matrix(&scores, "key-a").len() as u64;
    {
        // Populate without any budget (no manifest is written).
        let store = IndexStore::open(&dir).unwrap();
        store.store_scores("v", "key-a", &scores).unwrap();
        store.store_scores("v", "key-b", &scores).unwrap();
        store.store_scores("v", "key-c", &scores).unwrap();
    }
    // Reopening with a two-artifact budget reconciles and evicts down to it.
    let store = IndexStore::open_with_budget(&dir, artifact_len * 2).unwrap();
    let remaining = ["key-a", "key-b", "key-c"].iter().filter(|k| store.has_scores("v", k)).count();
    assert_eq!(remaining, 2, "adoption trimmed the store to the budget");
    assert!(store.tracked_bytes() <= artifact_len * 2);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// Labeled-set persistence: a fresh catalog over a populated store skips the
// offline annotation pass (satellite of the streaming PR).
// ---------------------------------------------------------------------------------

#[test]
fn labeled_annotations_persist_across_catalogs() {
    let dir = tmpdir("labeled");
    let frames = 700u64;
    let (first_train, first_heldout, first_cost) = {
        let catalog = store_catalog(&dir, frames);
        let labeled_ctx = catalog.context("taipei").unwrap();
        let labeled = labeled_ctx.labeled();
        assert!(
            labeled.annotation_cost_secs() > 0.0,
            "the first registration runs the offline detector"
        );
        (labeled.train().clone(), labeled.heldout().clone(), labeled.annotation_cost_secs())
    };
    assert!(first_cost > 0.0);

    // A fresh catalog over the same store loads the annotations instead of
    // re-running the detector, and gets the exact same labeled set.
    let catalog = store_catalog(&dir, frames);
    let labeled_ctx = catalog.context("taipei").unwrap();
    let labeled = labeled_ctx.labeled();
    assert_eq!(labeled.annotation_cost_secs(), 0.0, "annotations came from the store");
    assert_eq!(labeled.train(), &first_train);
    assert_eq!(labeled.heldout(), &first_heldout);

    // The key pins the labeling identity: a different detector threshold must
    // miss and re-annotate (stale annotations are never served).
    let mut config = BlazeItConfig::for_preset(DatasetPreset::Taipei);
    config.detection_threshold = 0.5;
    let other = Catalog::with_index_store(&dir).unwrap();
    other.register_preset_with_config(DatasetPreset::Taipei, frames, config).unwrap();
    let relabeled_ctx = other.context("taipei").unwrap();
    let relabeled = relabeled_ctx.labeled();
    assert!(relabeled.annotation_cost_secs() > 0.0, "changed detector => fresh annotation");
    assert_ne!(relabeled.train(), &first_train);

    // A corrupted annotation artifact falls back to a rebuild (and heals).
    let store = IndexStore::open(&dir).unwrap();
    let labeled_files: Vec<PathBuf> = {
        let mut out = Vec::new();
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap().flatten() {
                let p = entry.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|e| e == "bzl") {
                    out.push(p);
                }
            }
        }
        out
    };
    assert!(!labeled_files.is_empty(), "annotations were persisted as .bzl artifacts");
    for file in &labeled_files {
        std::fs::write(file, b"garbage").unwrap();
    }
    drop(store);
    let catalog = store_catalog(&dir, frames);
    let healed_ctx = catalog.context("taipei").unwrap();
    let healed = healed_ctx.labeled();
    assert!(healed.annotation_cost_secs() > 0.0, "corrupt annotations => rebuild");
    assert_eq!(healed.train(), &first_train);
    let _ = std::fs::remove_dir_all(&dir);
}
