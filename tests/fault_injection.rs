//! Chaos tests for the robustness subsystem (`--features fault-injection`).
//!
//! The invariant under test: with **any** deterministic fault schedule
//! installed, every query either returns an answer **bit-identical** to the
//! fault-free run or a **typed** error — never a panic, never a silently wrong
//! answer. After the faults stop, the engine heals: degraded contexts return
//! to store-backed mode and the durable store converges back to the fault-free
//! artifact bytes.
//!
//! Without the `fault-injection` feature this file compiles to nothing (the
//! failpoints themselves compile out of the engine; a unit test in
//! `blazeit_core::fault` pins that).
#![cfg(feature = "fault-injection")]

use blazeit::core::fault::{install, FaultPlan, FaultSite};
use blazeit::nn::ScoreMatrix;
use blazeit::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

const CAR: ObjectClass = ObjectClass::Car;
const FCOUNT_SQL: &str =
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%";
const SCRUB_SQL: &str = "SELECT timestamp FROM taipei GROUP BY timestamp \
                         HAVING SUM(class='car') >= 2 LIMIT 5 GAP 60";
const SUBSCRIBE_SQL: &str = "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' EVERY 100 FRAMES";

/// A fresh scratch directory under the system temp dir (respects `TMPDIR`).
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blazeit-fault-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

// -------------------------------------------------------------------------------
// Shared fixture: one labeled set + capacity video for every chaos case.
// -------------------------------------------------------------------------------

struct Fixture {
    labeled: Arc<LabeledSet>,
    config: BlazeItConfig,
    capacity: Video,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let preset = DatasetPreset::Taipei;
        let frames = 500u64;
        let config = BlazeItConfig::for_preset(preset);
        let train = preset.generate_with_frames(DAY_TRAIN, frames).unwrap();
        let heldout = preset.generate_with_frames(DAY_HELDOUT, frames).unwrap();
        let labeled = Arc::new(LabeledSet::build(train, heldout, &config).unwrap());
        let capacity = preset.generate_with_frames(DAY_TEST, frames).unwrap();
        Fixture { labeled, config, capacity }
    })
}

// -------------------------------------------------------------------------------
// The pipeline each case runs: a subscribed stream driven to exhaustion, then
// cold and warm FCOUNT, a scrub, and finally a second catalog instance over the
// same store (exercising the disk read path, including torn-artifact reads).
// -------------------------------------------------------------------------------

/// Everything observable about one pipeline run, in bit-exact form.
#[derive(Debug, Clone, PartialEq)]
struct PipelineRun {
    /// `(tick, value bits, generation)` per subscription update, in order.
    updates: Vec<(u64, u64, u64)>,
    fcount_first: u64,
    fcount_warm: u64,
    scrub_frames: Vec<u64>,
    /// FCOUNT from a second catalog instance reading the same store.
    fcount_reopened: u64,
    /// Typed ingest errors observed while driving the stream (faulted runs
    /// simply retry the advance; the error promises the stream is unchanged).
    ingest_errors: usize,
}

fn run_pipeline(dir: &Path) -> PipelineRun {
    let fx = fixture();
    let catalog = Catalog::with_index_store(dir).expect("open index store");
    catalog
        .register_stream(
            fx.capacity.clone(),
            Arc::clone(&fx.labeled),
            fx.config.clone(),
            150,
            DriftConfig::disabled(),
        )
        .expect("register stream");
    let session = catalog.session();
    let mut sub = session.subscribe(SUBSCRIBE_SQL).expect("subscribe");
    let stream = catalog.stream("taipei").expect("stream handle");
    let mut updates = Vec::new();
    let mut ingest_errors = 0usize;
    let mut attempts = 0usize;
    while !stream.is_exhausted() {
        attempts += 1;
        assert!(attempts < 512, "stream never exhausted under fault schedule");
        match stream.advance(100) {
            Ok(_) => {}
            Err(BlazeItError::Ingest { .. }) => ingest_errors += 1,
            Err(other) => panic!("advance failed with a non-ingest error: {other}"),
        }
        for update in sub.poll().expect("poll") {
            updates.push((update.tick, update.value.to_bits(), update.generation));
        }
    }
    let fcount = |catalog: &Catalog| -> u64 {
        catalog
            .session()
            .query(FCOUNT_SQL)
            .expect("fcount")
            .output
            .aggregate_value()
            .expect("aggregate output")
            .to_bits()
    };
    let fcount_first = fcount(&catalog);
    let fcount_warm = fcount(&catalog);
    let scrub_frames =
        catalog.session().query(SCRUB_SQL).expect("scrub").output.frames().unwrap().to_vec();

    // A second catalog over the same store: reads whatever artifacts the run
    // left behind (possibly torn or missing) and must still answer
    // bit-identically, recomputing where the store lets it down.
    let reopened = Catalog::with_index_store(dir).expect("reopen store");
    reopened
        .register(fx.capacity.clone(), Arc::clone(&fx.labeled), fx.config.clone())
        .expect("register reopened");
    let fcount_reopened = fcount(&reopened);
    PipelineRun { updates, fcount_first, fcount_warm, scrub_frames, fcount_reopened, ingest_errors }
}

/// `(update observations, first fcount, warm fcount, scrub frames, reopened
/// fcount)` — the fields that must be bit-identical across fault schedules
/// (`ingest_errors` is schedule-dependent bookkeeping).
type Answers = (Vec<(u64, u64, u64)>, u64, u64, Vec<u64>, u64);

/// Artifact files as `(relative path, bytes)`, sorted by path.
type Artifacts = Vec<(String, Vec<u8>)>;

fn answers(run: &PipelineRun) -> Answers {
    (
        run.updates.clone(),
        run.fcount_first,
        run.fcount_warm,
        run.scrub_frames.clone(),
        run.fcount_reopened,
    )
}

/// Runs a fault-free phase under a plan that never faults. Plans are
/// process-wide: an unguarded phase would consume the failpoint hits of
/// whichever chaos test holds a plan meanwhile, and that test's run would no
/// longer reproduce.
fn fault_free<T>(phase: impl FnOnce() -> T) -> T {
    let _quiet = install(FaultPlan::uniform(0, 0.0));
    phase()
}

/// The fault-free reference run (and its surviving artifact bytes), computed
/// once.
fn baseline() -> &'static (PipelineRun, Artifacts) {
    static BASELINE: OnceLock<(PipelineRun, Artifacts)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = tmpdir("baseline");
        let run = fault_free(|| run_pipeline(&dir));
        let artifacts = artifact_bytes(&dir);
        assert!(!artifacts.is_empty(), "baseline run persisted no artifacts");
        (run, artifacts)
    })
}

/// Every artifact file under `root` as `(relative path, bytes)`, sorted.
fn artifact_bytes(root: &Path) -> Artifacts {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("bzn") | Some("bzs") | Some("bzl")
            ) {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

// -------------------------------------------------------------------------------
// The chaos property: 64 random (seed, probability) fault schedules.
// -------------------------------------------------------------------------------

proptest! {
    #[test]
    fn any_fault_schedule_yields_bit_exact_answers_or_typed_errors(
        seed in 0u64..u64::MAX,
        p_millis in 0u64..200,
    ) {
        let (reference, reference_artifacts) = baseline();
        let dir = tmpdir(&format!("chaos-{seed}-{p_millis}"));
        let chaotic = {
            let _guard = install(FaultPlan::uniform(seed, p_millis as f64 / 1000.0));
            run_pipeline(&dir)
        };
        // Invariant 1: every answer the faulted run produced is bit-identical
        // to the fault-free run's. (Typed errors already surfaced as retried
        // ingests or would have panicked `run_pipeline`.)
        prop_assert_eq!(answers(&chaotic), answers(reference));

        // Invariant 2: healing. With the schedule uninstalled, re-running the
        // read path over the surviving store converges every artifact the
        // fault-free run produced back to its exact bytes (torn artifacts are
        // detected, recomputed, and rewritten; missing ones are rebuilt).
        let healed = fault_free(|| run_pipeline(&dir));
        prop_assert_eq!(answers(&healed), answers(reference));
        prop_assert_eq!(healed.ingest_errors, 0);
        let healed_artifacts = artifact_bytes(&dir);
        for (name, bytes) in reference_artifacts {
            let found = healed_artifacts.iter().find(|(n, _)| n == name);
            prop_assert!(found.is_some(), "healed store is missing artifact {}", name);
            prop_assert_eq!(
                &found.unwrap().1, bytes,
                "healed artifact {} diverged from the fault-free bytes", name
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// -------------------------------------------------------------------------------
// Determinism: the same plan injects the same faults and yields the same run.
// -------------------------------------------------------------------------------

#[test]
fn identical_fault_plans_reproduce_identical_runs() {
    let runs: Vec<(PipelineRun, u64)> = (0..2)
        .map(|i| {
            let dir = tmpdir(&format!("determinism-{i}"));
            let guard = install(FaultPlan::uniform(0x00DE_7EC7_AB1E, 0.08));
            let run = run_pipeline(&dir);
            let injected = guard.injected_total();
            drop(guard);
            let _ = std::fs::remove_dir_all(&dir);
            (run, injected)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "same seed, same schedule, same run");
}

// -------------------------------------------------------------------------------
// Store degradation and probation-based healing.
// -------------------------------------------------------------------------------

#[test]
fn persistent_store_failure_degrades_to_memory_only_then_heals() {
    let fx = fixture();
    // Fault-free reference: same registration shape, its own store.
    let reference_bits = fault_free(|| {
        let dir = tmpdir("degrade-reference");
        let catalog = Catalog::with_index_store(&dir).unwrap();
        catalog
            .register_stream(
                fx.capacity.clone(),
                Arc::clone(&fx.labeled),
                fx.config.clone(),
                150,
                DriftConfig::disabled(),
            )
            .unwrap();
        let bits = catalog
            .session()
            .query(FCOUNT_SQL)
            .unwrap()
            .output
            .aggregate_value()
            .unwrap()
            .to_bits();
        let _ = std::fs::remove_dir_all(&dir);
        bits
    });
    let dir = tmpdir("degrade");
    let catalog = Catalog::with_index_store(&dir).unwrap();
    catalog
        .register_stream(
            fx.capacity.clone(),
            Arc::clone(&fx.labeled),
            fx.config.clone(),
            150,
            DriftConfig::disabled(),
        )
        .unwrap();
    {
        // A dead store: every read, write, and removal fails (transient or
        // hard, the schedule's choice). The query must still answer — computing
        // in memory — and after three consecutive failures the context drops
        // to memory-only mode.
        let _guard = install(
            FaultPlan::only(11, FaultSite::StoreRead, 1.0)
                .with_site(FaultSite::StoreWrite, 1.0)
                .with_site(FaultSite::StoreRemove, 1.0),
        );
        let value = catalog
            .session()
            .query(FCOUNT_SQL)
            .expect("query answers despite a dead store")
            .output
            .aggregate_value()
            .unwrap();
        assert_eq!(value.to_bits(), reference_bits, "degradation never changes the answer");
        let report = catalog.context("taipei").unwrap().health().report();
        assert!(report.store_degraded, "3+ consecutive store failures degrade: {report:?}");
        assert!(report.store_errors > 0);
        assert!(report.health_line().starts_with("degraded"));
        // EXPLAIN renders the degradation.
        let explain = catalog.session().query(&format!("EXPLAIN {FCOUNT_SQL}")).unwrap();
        let plan = format!("{}", explain.output.explain_plan().unwrap());
        assert!(plan.contains("health:   degraded"), "plan renders health line:\n{plan}");
    }
    // The post-fault phase runs under a plan that never faults (see `fault_free`).
    fault_free(|| {
        // Faults stopped. The memory caches are warm, so repeat queries alone
        // would never touch the store again; streaming ingest keeps generating
        // store-backed work (write-behind of the grown score index), which drives
        // the probation window: skipped ops, then a probe, which now succeeds and
        // restores store-backed mode.
        let stream = catalog.stream("taipei").unwrap();
        let mut healed = false;
        while !stream.is_exhausted() {
            stream.advance(5).unwrap();
            if !catalog.context("taipei").unwrap().health().report().store_degraded {
                healed = true;
                break;
            }
        }
        assert!(healed, "probation re-probes and heals once faults stop");
        // Healthy again: EXPLAIN drops the degradation banner.
        let explain = catalog.session().query(&format!("EXPLAIN {FCOUNT_SQL}")).unwrap();
        let plan = format!("{}", explain.output.explain_plan().unwrap());
        assert!(!plan.contains("degraded"), "healed plan:\n{plan}");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------------
// Torn writes: reported success, detected on read, healed by recompute.
// -------------------------------------------------------------------------------

#[test]
fn torn_write_is_detected_on_read_and_healed_by_rewrite() {
    let dir = tmpdir("torn");
    let store = IndexStore::open(&dir).unwrap();
    let mut probs = Vec::new();
    for i in 0..600usize {
        probs.push((i as f32 * 0.618).fract());
    }
    let scores = ScoreMatrix::from_raw(200, vec![3], probs).unwrap();
    // Scan seeds until the schedule's first store-write fault is a torn write
    // (it *reports success* while truncating the artifact on disk; hard and
    // transient injections return errors instead, so Ok() identifies it).
    let mut torn_seed = None;
    for seed in 0..64u64 {
        let _guard = install(FaultPlan::only(seed, FaultSite::StoreWrite, 1.0));
        if store.store_scores("v", "k", &scores).is_ok() {
            torn_seed = Some(seed);
            break;
        }
    }
    let torn_seed = torn_seed.expect("some seed draws a torn write first");
    // The read path must refuse the truncated artifact with a typed error —
    // never deserialize garbage.
    let readback = store.load_scores("v", "k");
    assert!(
        matches!(readback, Err(StoreError::Invalid { .. })),
        "torn artifact (seed {torn_seed}) must read back as Invalid, got {readback:?}"
    );
    // Healing: a clean rewrite converges the artifact and the read round-trips
    // bit-exactly.
    store.store_scores("v", "k", &scores).unwrap();
    let healed = store.load_scores("v", "k").unwrap().expect("artifact present");
    for (a, b) in scores.rows(0..200).zip(healed.rows(0..200)) {
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.probs()), bits(b.probs()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------------
// Retrain failure: generation pinned, monitor re-armed with backoff, healed by
// the next fault-free refresh.
// -------------------------------------------------------------------------------

#[test]
fn failed_retrain_keeps_generation_and_rearms_with_backoff() {
    let fx = fixture();
    // A drift monitor that always fires once it may check: every checked
    // window "drifts" (threshold below any statistic), checks every 100
    // frames after a 100-frame history.
    let drift = DriftConfig {
        window: 100,
        check_every: 100,
        threshold: -1.0,
        retrain_stride: 3,
        min_history: 100,
    };
    let catalog = Catalog::new();
    catalog
        .register_stream(fx.capacity.clone(), Arc::clone(&fx.labeled), fx.config.clone(), 50, drift)
        .unwrap();
    let session = catalog.session();
    let mut sub = session.subscribe(SUBSCRIBE_SQL).unwrap();
    let stream = catalog.stream("taipei").unwrap();
    let ctx = catalog.context("taipei").unwrap();
    let heads = vec![(CAR, ctx.default_max_count(CAR, 1))];

    // Every retrain faults (task error or task panic, schedule's choice) —
    // the ingest itself must succeed with the failure recorded.
    let report = {
        let _guard = install(FaultPlan::only(3, FaultSite::Retrain, 1.0));
        let report = stream.advance_to(150).expect("ingest survives a failing retrain");
        assert!(report.drift_checked);
        assert_eq!(report.refreshes, vec![]);
        assert_eq!(report.refresh_failures, 1, "the forced drift refresh failed");
        report
    };
    drop(report);
    // The post-fault phase runs under a plan that never faults (see `fault_free`).
    fault_free(|| {
        let status = ctx.stream_status(&heads).unwrap();
        assert_eq!(status.generation, 0, "failed refresh keeps the current generation");
        assert_eq!(status.refresh, RefreshState::Failed { generation: 0 });
        let health = ctx.health().report();
        let retrain = health.retrain.as_ref().expect("retrain failure recorded");
        assert_eq!(retrain.generation, 0);
        assert_eq!(retrain.failures, 1);
        assert_eq!(retrain.backoff_frames, 100, "first failure re-arms after one check interval");
        assert_eq!(retrain.resume_at, 250);
        assert!(health.retrain_line().unwrap().contains("failed@gen 0"));
        // EXPLAIN renders the retrain line.
        let explain = catalog.session().query(&format!("EXPLAIN {FCOUNT_SQL}")).unwrap();
        let plan = format!("{}", explain.output.explain_plan().unwrap());
        assert!(plan.contains("retrain:  failed@gen 0"), "plan renders retrain health:\n{plan}");
        // The subscription keeps answering from generation 0.
        stream.advance_to(200).unwrap();
        for update in sub.poll().unwrap() {
            assert_eq!(update.generation, 0);
        }

        // Inside the backoff window the monitor must not re-check; past it (and
        // with the faults gone) the refresh succeeds and swaps generation 1 in.
        let quiet = stream.advance_to(249).unwrap();
        assert!(!quiet.drift_checked, "monitor is quiet inside the backoff window");
        let mut new_generation = None;
        let mut target = 250;
        while new_generation.is_none() && target <= fx.capacity.len() {
            let report = stream.advance_to(target).unwrap();
            assert_eq!(report.refresh_failures, 0);
            if let Some(refresh) = report.refreshes.first() {
                new_generation = Some(refresh.new_generation);
            }
            target += 100;
        }
        assert_eq!(new_generation, Some(1), "the post-backoff fault-free refresh swaps in gen 1");
        assert!(ctx.health().report().retrain.is_none(), "a successful refresh clears the record");
        let status = ctx.stream_status(&heads).unwrap();
        assert_eq!(status.generation, 1);
        assert_eq!(status.refresh, RefreshState::Completed { generation: 1 });
    });
}

// -------------------------------------------------------------------------------
// Parallel-task panics: typed error, healthy pool.
// -------------------------------------------------------------------------------

#[test]
fn fanned_out_task_panic_is_a_typed_error_and_the_pool_survives() {
    let fx = fixture();
    let catalog = Catalog::new();
    catalog.register(fx.capacity.clone(), Arc::clone(&fx.labeled), fx.config.clone()).unwrap();
    catalog.register_preset(DatasetPreset::Amsterdam, 400).unwrap();
    // An aggregate and a scrub: both fan their per-video work out the same way.
    for sql in [
        "SELECT FCOUNT(*) FROM * WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%",
        "SELECT timestamp FROM * GROUP BY timestamp HAVING SUM(class='car') >= 1 LIMIT 3 GAP 30",
    ] {
        {
            let _guard = install(FaultPlan::only(5, FaultSite::ParTask, 1.0));
            let err = catalog.session().query(sql).expect_err("every sub-query panics");
            assert!(
                matches!(&err, BlazeItError::TaskPanicked { message, .. }
                         if message.contains("injected fault")),
                "panic surfaces as the typed TaskPanicked, got {err}"
            );
        }
        // The worker pool survives the caught panics: the same query runs clean
        // (under a plan that never faults: plans are process-wide, and an
        // unguarded query would consume hits of whichever chaos test holds one).
        let _quiet = install(FaultPlan::only(5, FaultSite::ParTask, 0.0));
        let result = catalog.session().query(sql).expect("pool is healthy after panics");
        assert!(
            result.output.aggregate_value().is_some() || result.output.sourced_frames().is_some()
        );
    }
}
