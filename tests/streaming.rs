//! Integration tests for the streaming subsystem: incremental ingestion,
//! bit-identical live score indexes, continuous-query subscriptions, drift
//! detection with atomic model refresh, and store consistency.

use blazeit::core::stream::DEFAULT_TICK_FRAMES;
use blazeit::core::sync::OnceLock;
use blazeit::nn::ScoreMatrix;
use blazeit::prelude::*;
use blazeit::videostore::scene::ScenePhase;
use proptest::prelude::*;
use std::sync::Arc;

const CAR: ObjectClass = ObjectClass::Car;

/// Every probability of an index, as bits, row after row in frame order.
fn row_bits(scores: &ScoreMatrix) -> Vec<u32> {
    scores
        .rows(0..scores.num_frames())
        .flat_map(|row| row.probs().iter().map(|p| p.to_bits()))
        .collect()
}

/// Heads the car-FCOUNT subscription plans on a given context.
fn car_heads(ctx: &VideoContext) -> Vec<(ObjectClass, usize)> {
    vec![(CAR, ctx.default_max_count(CAR, 1))]
}

/// A stable calm/busy day: taipei's scene with the day-to-day and diurnal rate
/// modulation switched off (so only the injected phase boundary shifts the
/// distribution), and a busy phase with 4x the car traffic.
fn drifting_capacity(calm_frames: u64, busy_frames: u64) -> Video {
    let preset = DatasetPreset::Taipei;
    let mut config = preset.video_config_with_frames(DAY_TEST, calm_frames + busy_frames);
    config.scene.day_variation = 0.0;
    config.scene.diurnal_amplitude = 0.0;
    let calm = config.scene.clone();
    let mut busy = calm.clone();
    for profile in &mut busy.classes {
        if profile.class == CAR {
            profile.mean_concurrent *= 8.0;
        }
    }
    Video::generate_phased(
        config,
        &[
            ScenePhase { config: calm, num_frames: calm_frames },
            ScenePhase { config: busy, num_frames: busy_frames },
        ],
    )
    .unwrap()
}

/// Labeled days matching [`drifting_capacity`]'s calm statistics.
fn stable_labeled(frames_per_day: u64) -> (Arc<LabeledSet>, BlazeItConfig) {
    let preset = DatasetPreset::Taipei;
    let config = BlazeItConfig::for_preset(preset);
    let mut train_cfg = preset.video_config_with_frames(DAY_TRAIN, frames_per_day);
    train_cfg.scene.day_variation = 0.0;
    train_cfg.scene.diurnal_amplitude = 0.0;
    let mut heldout_cfg = train_cfg.for_day(DAY_HELDOUT);
    heldout_cfg.num_frames = frames_per_day;
    let train = Video::generate(train_cfg).unwrap();
    let heldout = Video::generate(heldout_cfg).unwrap();
    (Arc::new(LabeledSet::build(train, heldout, &config).unwrap()), config)
}

// -------------------------------------------------------------------------------
// Acceptance: a subscribed FCOUNT over a live stream.
// -------------------------------------------------------------------------------

#[test]
fn subscribed_fcount_over_live_stream_is_incremental_and_bit_identical() {
    let frames = 2_400u64;
    let initial = 800u64;
    let catalog = Catalog::new();
    catalog
        .register_stream_preset(DatasetPreset::Taipei, frames, initial, DriftConfig::disabled())
        .unwrap();
    let session = catalog.session();
    let mut sub = session
        .subscribe(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' \
             WINDOW 600 FRAMES EVERY 250 FRAMES",
        )
        .unwrap();
    assert_eq!(sub.every(), 250);
    assert_eq!(sub.window(), Some(600));

    let ctx = catalog.context("taipei").unwrap();
    let heads = car_heads(&ctx);
    let heldout_frames = ctx.labeled().heldout().len() as u64;
    let cost = ctx.config().cost;
    // Subscribing trains the specialized NN and scores the initial prefix plus
    // the held-out calibration day — exactly once.
    let after_subscribe = catalog.clock().breakdown();
    let expected_initial = (initial + heldout_frames) as f64 * cost.specialized_inference_cost();
    assert!(
        (after_subscribe.specialized - expected_initial).abs() < 1e-9,
        "subscribe scored {} specialized-seconds, expected {expected_initial}",
        after_subscribe.specialized
    );

    let stream = catalog.stream("taipei").unwrap();
    assert_eq!(stream.ingested(), initial);
    assert_eq!(stream.capacity(), frames);

    let mut updates: Vec<StreamUpdate> = Vec::new();
    let mut charged = after_subscribe.specialized;
    while !stream.is_exhausted() {
        let before = catalog.clock().breakdown().specialized;
        let report = stream.advance(300).unwrap();
        let after = catalog.clock().breakdown().specialized;
        // Incremental indexing charges exactly the appended frames — zero
        // redundant inference for already-scored frames.
        let expected = report.appended() as f64 * cost.specialized_inference_cost();
        assert!(
            (after - before - expected).abs() < 1e-9,
            "advance of {} frames charged {} specialized-seconds",
            report.appended(),
            after - before
        );
        assert_eq!(report.indexes_extended, 1);
        assert!(report.refreshes.is_empty(), "drift is disabled");
        charged = after;

        let before_poll = catalog.clock().breakdown();
        let batch = sub.poll().unwrap();
        let after_poll = catalog.clock().breakdown();
        // Ticks answer from the incremental index: zero detection, zero
        // specialized inference.
        assert_eq!(after_poll.specialized, before_poll.specialized, "a poll must not score");
        assert_eq!(after_poll.detection, before_poll.detection, "a poll must not detect");
        updates.extend(batch);
    }
    // Total specialized inference over the stream's life: every frame exactly
    // once, plus the one-time held-out calibration.
    let expected_total = (frames + heldout_frames) as f64 * cost.specialized_inference_cost();
    assert!((charged - expected_total).abs() < 1e-9, "total {charged} vs {expected_total}");

    // One update per EVERY boundary crossed after subscription.
    let expected_ticks: Vec<u64> =
        (1..=frames / 250).map(|k| k * 250).filter(|&t| t > initial).collect();
    assert_eq!(updates.iter().map(|u| u.tick).collect::<Vec<_>>(), expected_ticks);
    for update in &updates {
        assert_eq!(update.range.1 - update.range.0, 600, "window width");
        assert_eq!(update.generation, 0);
        assert!(update.value.is_finite() && update.standard_error.is_finite());
        assert!(update.standard_error > 0.0);
        assert!(update.ci.0 <= update.value && update.value <= update.ci.1);
        // The windowed car FCOUNT of taipei should be in a sane range.
        assert!(update.value > 0.0 && update.value < 10.0, "estimate {}", update.value);
    }

    // The incremental index is bit-identical to a cold re-score of the same
    // frames: a fresh catalog over the fully generated day (the stream's
    // capacity *is* the preset's 2400-frame test day) trains the same network
    // (same labeled set, same seeds) and scores from scratch.
    let nn_stream = ctx.specialized_for(&heads).unwrap();
    let index_stream = ctx.score_index(&nn_stream).unwrap();
    let cold = Catalog::new();
    cold.register_preset(DatasetPreset::Taipei, frames).unwrap();
    let cold_ctx = cold.context("taipei").unwrap();
    let nn_cold = cold_ctx.specialized_for(&heads).unwrap();
    assert_eq!(
        nn_stream.weights_fingerprint(),
        nn_cold.weights_fingerprint(),
        "deterministic training must reproduce the same network"
    );
    let index_cold = cold_ctx.score_index(&nn_cold).unwrap();
    assert_eq!(index_stream.num_frames(), frames as usize);
    assert_eq!(
        row_bits(&index_stream),
        row_bits(&index_cold),
        "incremental and cold scores diverge"
    );

    // And the per-tick estimates agree with what the cold index implies: the
    // last update's window mean must match a direct computation over the cold
    // scores plus the shared calibration residual.
    let last = updates.last().unwrap();
    let head = nn_cold.head_index(CAR).unwrap();
    let (lo, hi) = last.range;
    let pred: f64 =
        (lo as usize..hi as usize).map(|f| index_cold.expected_count(f, head)).sum::<f64>()
            / (hi - lo) as f64;
    let heldout_scores = cold_ctx.heldout_score_index(&nn_cold).unwrap();
    let truth = cold_ctx.labeled().heldout().class_counts(CAR);
    let mean_resid: f64 = (0..truth.len())
        .map(|i| truth[i] as f64 - heldout_scores.expected_count(i, head))
        .sum::<f64>()
        / truth.len() as f64;
    assert!(
        (last.value - (pred + mean_resid)).abs() < 1e-12,
        "tick estimate {} vs cold recomputation {}",
        last.value,
        pred + mean_resid
    );
}

// -------------------------------------------------------------------------------
// A subscription without WINDOW reads the index's running sums.
// -------------------------------------------------------------------------------

/// Without `WINDOW`, an update's mean sums the expected count of every frame
/// ingested so far: the index's running sum at a chunk boundary continued over at
/// most one chunk. Every value and standard error must be the bits the
/// frame-by-frame fold gives, whatever the ticks: empty, one frame, ticks that
/// straddle a chunk boundary and one that spans several chunks.
#[test]
fn unwindowed_subscription_matches_the_frame_by_frame_fold() {
    let chunk = blazeit::nn::score::CHUNK_ROWS as u64;
    let (labeled, config) = stable_labeled(1_000);
    let capacity = DatasetPreset::Taipei.generate_with_frames(DAY_TEST, 3 * chunk + 500).unwrap();
    let catalog = Catalog::new();
    catalog.register_stream(capacity, labeled, config, 300, DriftConfig::disabled()).unwrap();
    let mut sub = catalog
        .session()
        .subscribe("SELECT FCOUNT(*) FROM taipei WHERE class = 'car' EVERY 97 FRAMES")
        .unwrap();
    assert_eq!(sub.window(), None);
    let stream = catalog.stream("taipei").unwrap();
    let mut updates: Vec<StreamUpdate> = Vec::new();
    let ticks =
        [0, 1, chunk - 302, 2, 2 * chunk + 100, 0, 1].into_iter().chain(std::iter::repeat(300));
    for tick in ticks {
        if stream.is_exhausted() {
            break;
        }
        stream.advance(tick).unwrap();
        updates.extend(sub.poll().unwrap());
    }
    let last = stream.ingested() / 97;
    assert_eq!(
        updates.iter().map(|u| u.tick).collect::<Vec<_>>(),
        (4..=last).map(|k| k * 97).collect::<Vec<_>>()
    );

    let ctx = catalog.context("taipei").unwrap();
    let nn = ctx.specialized_for(&car_heads(&ctx)).unwrap();
    let index = ctx.score_index(&nn).unwrap();
    let head = nn.head_index(CAR).unwrap();
    let calibration = ctx.heldout_calibration(&nn).unwrap();
    let cal = calibration.head(CAR).unwrap();
    for update in &updates {
        assert_eq!(update.range, (0, update.tick));
        let n = update.tick as usize;
        let pred = (0..n).map(|f| index.expected_count(f, head)).sum::<f64>() / n as f64;
        assert_eq!(update.value.to_bits(), (pred + cal.residual_mean).to_bits(), "tick {n}");
        let se = (cal.residual_variance / n as f64
            + cal.residual_variance / cal.expected_counts.len() as f64)
            .sqrt();
        assert_eq!(update.standard_error.to_bits(), se.to_bits(), "tick {n}");
    }
}

// -------------------------------------------------------------------------------
// Subscription surface errors and defaults.
// -------------------------------------------------------------------------------

#[test]
fn subscribe_rejects_unsupported_shapes_and_one_shot_rejects_stream_clauses() {
    let catalog = Catalog::new();
    catalog
        .register_stream_preset(DatasetPreset::Taipei, 900, 300, DriftConfig::disabled())
        .unwrap();
    catalog.register_preset(DatasetPreset::Amsterdam, 600).unwrap();
    let session = catalog.session();

    // One-shot execution of continuous clauses is rejected with a pointer to
    // subscribe...
    let err = session
        .query("SELECT FCOUNT(*) FROM taipei WHERE class = 'car' WINDOW 100 FRAMES")
        .unwrap_err();
    assert!(matches!(err, BlazeItError::Unsupported(ref m) if m.contains("subscribe")), "{err}");
    // ...but EXPLAIN still renders (free), including the stream state.
    let explained = session
        .query("EXPLAIN SELECT FCOUNT(*) FROM taipei WHERE class = 'car' WINDOW 100 FRAMES")
        .unwrap();
    let rendered = explained.output.explain_plan().unwrap().to_string();
    assert!(rendered.contains("stream:   ingested 300/900 frames"), "{rendered}");
    assert!(rendered.contains("refresh idle"), "{rendered}");
    assert_eq!(catalog.clock().total(), 0.0, "EXPLAIN must stay free on streams");

    // Subscribing a non-stream registration fails.
    let err = session.subscribe("SELECT FCOUNT(*) FROM amsterdam WHERE class = 'car'").unwrap_err();
    assert!(
        matches!(err, BlazeItError::Unsupported(ref m) if m.contains("register_stream")),
        "{err}"
    );
    // Multi-video and non-aggregate shapes fail.
    assert!(session.subscribe("SELECT FCOUNT(*) FROM * WHERE class = 'car'").is_err());
    assert!(session.subscribe("SELECT * FROM taipei WHERE class = 'car'").is_err());
    assert!(session
        .subscribe("SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car'")
        .is_err());
    assert!(session.subscribe("SELECT FCOUNT(*) FROM taipei").is_err(), "needs a class");
    // Driving a non-stream video fails too.
    assert!(catalog.stream("amsterdam").is_err());

    // Defaults: EVERY falls back to WINDOW, then to DEFAULT_TICK_FRAMES.
    let sub = session
        .subscribe("SELECT FCOUNT(*) FROM taipei WHERE class = 'car' WINDOW 200 FRAMES")
        .unwrap();
    assert_eq!(sub.every(), 200);
    let sub = session.subscribe("SELECT FCOUNT(*) FROM taipei WHERE class = 'car'").unwrap();
    assert_eq!(sub.every(), DEFAULT_TICK_FRAMES);
    assert_eq!(sub.window(), None);
}

// -------------------------------------------------------------------------------
// Drift: injected distribution shift triggers exactly one atomic refresh.
// -------------------------------------------------------------------------------

fn drift_config() -> DriftConfig {
    // Calibrated against the deterministic fixture: pre-drift checks stay at or
    // below 0.25, while the first fully-busy window scores ~0.35.
    DriftConfig {
        window: 600,
        check_every: 150,
        threshold: 0.30,
        retrain_stride: 3,
        min_history: 600,
    }
}

#[test]
fn injected_drift_triggers_exactly_one_background_retrain_with_atomic_swap() {
    let (labeled, config) = stable_labeled(1_200);
    let capacity = drifting_capacity(1_200, 1_200);
    let catalog = Catalog::new();
    catalog.register_stream(capacity, labeled, config, 600, drift_config()).unwrap();
    let session = catalog.session();
    let mut sub = session
        .subscribe(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' \
             WINDOW 450 FRAMES EVERY 150 FRAMES",
        )
        .unwrap();
    let ctx = catalog.context("taipei").unwrap();
    let stream = catalog.stream("taipei").unwrap();

    let mut updates: Vec<StreamUpdate> = Vec::new();
    let mut refreshes: Vec<RefreshReport> = Vec::new();
    while !stream.is_exhausted() {
        let report = stream.advance(150).unwrap();
        for r in &report.refreshes {
            eprintln!(
                "refresh at {} frames: drift {:.3} -> generation {}",
                report.to, r.drift_score, r.new_generation
            );
        }
        refreshes.extend(report.refreshes.clone());
        updates.extend(sub.poll().unwrap());
        let status = ctx.stream_status(&car_heads(&ctx)).unwrap();
        eprintln!(
            "ingested {}: drift {:?} refresh {:?}",
            status.ingested, status.drift_score, status.refresh
        );
    }

    // Exactly one retrain, triggered by the injected shift.
    assert_eq!(refreshes.len(), 1, "expected exactly one drift refresh: {refreshes:?}");
    assert_eq!(refreshes[0].new_generation, 1);
    assert!(refreshes[0].drift_score > drift_config().threshold);
    assert!(refreshes[0].labeled_frames > 0);

    // The swap is atomic and monotone: generations never decrease, and each
    // generation maps to exactly one model fingerprint.
    assert!(updates.windows(2).all(|w| w[0].generation <= w[1].generation));
    let fingerprints = |generation: u64| {
        let mut fps: Vec<u64> = updates
            .iter()
            .filter(|u| u.generation == generation)
            .map(|u| u.model_fingerprint)
            .collect();
        fps.dedup();
        fps
    };
    assert_eq!(fingerprints(0).len(), 1);
    assert_eq!(fingerprints(1).len(), 1);
    assert_ne!(fingerprints(0)[0], fingerprints(1)[0], "the refresh swapped the weights");
    assert!(updates.iter().all(|u| u.generation <= 1));

    // The refreshed model actually tracks the busy regime: post-swap windowed
    // estimates see the heavier traffic.
    let pre = updates.iter().find(|u| u.generation == 0).unwrap().value;
    let post = updates.iter().rfind(|u| u.generation == 1).unwrap().value;
    assert!(post > pre, "refreshed estimates should reflect the busier regime: {pre} -> {post}");

    // EXPLAIN renders the final stream state: fully ingested, generation 1,
    // refresh completed.
    let rendered = session
        .query("EXPLAIN SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1")
        .unwrap()
        .output
        .explain_plan()
        .unwrap()
        .to_string();
    assert!(rendered.contains("ingested 2400/2400 frames"), "{rendered}");
    assert!(rendered.contains("generation 1"), "{rendered}");
    assert!(rendered.contains("refresh completed (generation 1)"), "{rendered}");
    let status = ctx.stream_status(&car_heads(&ctx)).unwrap();
    assert_eq!(status.refresh, RefreshState::Completed { generation: 1 });
    assert_eq!(status.index_frames, Some(2_400));
}

// The old `drift_refresh_never_races_an_in_flight_subscription` test lived
// here: it drove ingestion and a polling subscription on two OS threads and
// asserted no tick mixed model generations — but it only ever witnessed the
// one schedule the OS happened to produce. It is superseded by
// `crates/model/tests/stream_protocol.rs`, which model-checks a hand-written
// model of the protocol in *every* interleaving of advance / poll /
// retrain-publication up to the preemption bound (plus a seeded-race canary
// proving the checker still catches a torn generation swap). That model is a
// copy: the lock order of `stream.rs` itself is checked here, by the debug
// lock-order tracker every ranked lock these tests take goes through. The
// deterministic engine-level properties
// the old test also touched (exactly one refresh, contiguous ticks,
// generation↔fingerprint coherence) remain covered by
// `drift_detection_triggers_refresh_and_improves_accuracy` above.

// -------------------------------------------------------------------------------
// Store consistency under streaming.
// -------------------------------------------------------------------------------

#[test]
fn streaming_write_behind_keeps_disk_consistent_with_the_grown_video() {
    let dir = std::env::temp_dir().join(format!("blazeit-stream-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let frames = 1_200u64;
    {
        let catalog = Catalog::with_index_store(&dir).unwrap();
        catalog
            .register_stream_preset(DatasetPreset::Taipei, frames, 400, DriftConfig::disabled())
            .unwrap();
        let session = catalog.session();
        let mut sub = session
            .subscribe("SELECT FCOUNT(*) FROM taipei WHERE class = 'car' EVERY 200 FRAMES")
            .unwrap();
        let stream = catalog.stream("taipei").unwrap();
        while !stream.is_exhausted() {
            stream.advance(200).unwrap();
            sub.poll().unwrap();
        }
        // Exactly two score artifacts remain on disk: the held-out calibration
        // index and the *current* live index — every superseded length was
        // retired as the stream grew.
        let scores_dir = dir.join("taipei").join("scores");
        let artifacts: Vec<_> = std::fs::read_dir(&scores_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "bzs"))
            .collect();
        assert_eq!(artifacts.len(), 2, "expected heldout + one live artifact, found {artifacts:?}");
    }
    // A fresh catalog over the fully grown video answers from the stream's
    // persisted artifacts: zero training, zero specialized inference.
    let cold = Catalog::with_index_store(&dir).unwrap();
    cold.register_preset(DatasetPreset::Taipei, frames).unwrap();
    let result = cold
        .session()
        .query(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%",
        )
        .unwrap();
    assert!(result.output.aggregate_value().is_some());
    let sim = cold.clock().breakdown();
    assert_eq!(sim.training, 0.0, "the stream persisted its trained network");
    assert_eq!(sim.specialized, 0.0, "the stream persisted its grown score index");
    // The labeled-set annotations were persisted too: registration re-used them.
    assert_eq!(cold.context("taipei").unwrap().labeled().annotation_cost_secs(), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------------------
// Property: N appends + incremental scoring == cold re-score of the grown video.
// -------------------------------------------------------------------------------

struct EquivalenceFixture {
    labeled: Arc<LabeledSet>,
    config: BlazeItConfig,
    capacity: Video,
    /// Separate index stores for the streaming and cold catalogs: each holds
    /// the (deterministically identical) trained network so the 64 proptest
    /// cases load it disk-warm instead of retraining, while score artifacts
    /// stay segregated — the cold catalog must never be able to *load* the
    /// stream's incremental index it is supposed to independently reproduce.
    stream_store: std::path::PathBuf,
    cold_store: std::path::PathBuf,
}

/// Shared fixture: one labeled set + capacity video, built once for all cases.
fn equivalence_fixture() -> &'static EquivalenceFixture {
    static FIXTURE: OnceLock<EquivalenceFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let preset = DatasetPreset::Taipei;
        let frames = 800u64;
        let config = BlazeItConfig::for_preset(preset);
        let train = preset.generate_with_frames(DAY_TRAIN, frames).unwrap();
        let heldout = preset.generate_with_frames(DAY_HELDOUT, frames).unwrap();
        let labeled = Arc::new(LabeledSet::build(train, heldout, &config).unwrap());
        let capacity = preset.generate_with_frames(DAY_TEST, frames).unwrap();
        let base = std::env::temp_dir().join(format!("blazeit-stream-prop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        EquivalenceFixture {
            labeled,
            config,
            capacity,
            stream_store: base.join("stream"),
            cold_store: base.join("cold"),
        }
    })
}

proptest! {
    #[test]
    fn incremental_appends_are_bit_identical_to_cold_rescoring(
        initial in 100u64..350,
        appends in prop::collection::vec(30u64..250, 1..4),
    ) {
        let EquivalenceFixture { labeled, config, capacity, stream_store, cold_store } =
            equivalence_fixture();
        let catalog = Catalog::with_index_store(stream_store).unwrap();
        catalog
            .register_stream(
                capacity.clone(),
                Arc::clone(labeled),
                config.clone(),
                initial,
                DriftConfig::disabled(),
            )
            .unwrap();
        let ctx = catalog.context("taipei").unwrap();
        let heads = car_heads(&ctx);
        let nn = ctx.specialized_for(&heads).unwrap();
        let _ = ctx.score_index(&nn).unwrap();
        let stream = catalog.stream("taipei").unwrap();
        for append in &appends {
            stream.advance(*append).unwrap();
        }
        let grown = stream.ingested();
        prop_assert!(grown >= initial && grown <= capacity.len());
        let incremental = ctx.score_index(&nn).unwrap();
        prop_assert_eq!(incremental.num_frames() as u64, grown);

        // Cold: register the grown prefix as an ordinary fixed video and score
        // it from scratch with an independently trained (but deterministic,
        // hence bit-identical) network. Dropping the cold store's persisted
        // scores keeps the re-score genuinely cold across cases; the trained
        // network alone is carried over (loading it is bit-exact).
        let _ = std::fs::remove_dir_all(cold_store.join("taipei").join("scores"));
        let cold = Catalog::with_index_store(cold_store).unwrap();
        cold.register(capacity.prefix(grown).unwrap(), Arc::clone(labeled), config.clone())
            .unwrap();
        let cold_ctx = cold.context("taipei").unwrap();
        let cold_nn = cold_ctx.specialized_for(&heads).unwrap();
        prop_assert_eq!(nn.weights_fingerprint(), cold_nn.weights_fingerprint());
        let cold_index = cold_ctx.score_index(&cold_nn).unwrap();
        prop_assert_eq!(cold_index.num_frames() as u64, grown);
        prop_assert_eq!(row_bits(&incremental), row_bits(&cold_index));

        // And the declarative aggregate answer over the grown stream is
        // exactly the cold catalog's answer (same plan, same seeds, same
        // scores).
        let sql = "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' \
                   ERROR WITHIN 0.15 AT CONFIDENCE 95%";
        let live = catalog.session().query(sql).unwrap();
        let cold_result = cold.session().query(sql).unwrap();
        prop_assert_eq!(live.output.aggregate_value(), cold_result.output.aggregate_value());
        prop_assert_eq!(live.output.detection_calls(), cold_result.output.detection_calls());
    }
}
