//! Integration tests for the catalog / session / prepared-query API: EXPLAIN golden
//! output, multi-video routing with per-video cache isolation, and plan overrides.

use blazeit::prelude::*;

fn taipei_catalog(frames: u64) -> Catalog {
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, frames).expect("register taipei");
    catalog
}

// ---------------------------------------------------------------------------------
// EXPLAIN golden output (one per query class), and the free-of-charge guarantee.
// ---------------------------------------------------------------------------------

#[test]
fn explain_golden_output_per_query_class() {
    let catalog = taipei_catalog(900);
    let session = catalog.session();

    let explain = |sql: &str| -> String {
        let result = session.query(sql).expect("explain runs");
        result.output.explain_plan().expect("explain output").to_string()
    };

    let aggregate = explain(
        "EXPLAIN SELECT FCOUNT(*) FROM taipei WHERE class = 'car' \
         ERROR WITHIN 0.1 AT CONFIDENCE 95%",
    );
    assert_eq!(
        aggregate,
        "QUERY PLAN for 'taipei'\n\
         \x20 class:    aggregate (FCOUNT)\n\
         \x20 strategy: specialized NN; rewrite vs control variates decided at execution \
         (train + held-out error check)\n\
         \x20 heads:    car<=5\n\
         \x20 sampling: error within 0.1 at 95% confidence (seed 2980241781)\n\
         \x20 budget:   unlimited detector calls\n\
         \x20 caches:   specialized=cold score-index=cold"
    );

    let scrub = explain(
        "EXPLAIN SELECT timestamp FROM taipei GROUP BY timestamp \
         HAVING SUM(class='car') >= 2 LIMIT 5 GAP 60",
    );
    assert_eq!(
        scrub,
        "QUERY PLAN for 'taipei'\n\
         \x20 class:    scrub (cardinality-limited)\n\
         \x20 strategy: rank frames by specialized-NN confidence, verify best-first\n\
         \x20 heads:    car<=5\n\
         \x20 scrub:    limit 5 gap 60\n\
         \x20 budget:   unlimited detector calls\n\
         \x20 caches:   specialized=cold score-index=cold"
    );

    let selection = explain(
        "EXPLAIN SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 10 \
         AND area(mask) > 20000 GROUP BY trackid HAVING COUNT(*) > 15",
    );
    assert_eq!(
        selection,
        "QUERY PLAN for 'taipei'\n\
         \x20 class:    content-based selection\n\
         \x20 strategy: filtered scan feeding the object detector\n\
         \x20 heads:    bus<=1\n\
         \x20 filters:  label=on content=on temporal=on spatial=on\n\
         \x20 budget:   unlimited detector calls\n\
         \x20 caches:   specialized=cold score-index=cold"
    );

    // None of the three EXPLAINs may charge the simulated clock.
    assert_eq!(catalog.clock().total(), 0.0, "EXPLAIN must be free");
}

#[test]
fn explain_decision_resolves_once_caches_are_warm() {
    // One tolerance the held-out error estimate meets and one it misses: either
    // way the warm plan must name the method the cold run actually used —
    // Algorithm 1 is one rule, whether the planner or the executor applies it.
    for (tolerance, cold_method, warm_decision) in [
        (0.5, AggregateMethod::QueryRewriting, RewriteDecision::Rewrite),
        (0.2, AggregateMethod::ControlVariates, RewriteDecision::ControlVariates),
    ] {
        let catalog = taipei_catalog(900);
        let session = catalog.session();
        let sql = format!(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' \
             ERROR WITHIN {tolerance} AT CONFIDENCE 95%"
        );

        // Cold caches: the rewrite decision honestly defers to execution.
        let cold = session.prepare(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(
            cold.plan().only().strategy,
            PlanStrategy::SpecializedAggregate { decision: RewriteDecision::AtExecution }
        );
        assert_eq!(cold.plan().only().specialized_cache, CacheWarmth::Cold);

        // Run the real query once (trains the NN, scores the held-out day).
        match session.query(&sql).unwrap().output {
            QueryOutput::Aggregate { method, .. } => assert_eq!(method, cold_method),
            other => panic!("unexpected output {other:?}"),
        }
        let charged = catalog.clock().total();
        assert!(charged > 0.0);

        // Warm caches: the plan resolves the decision — still for free.
        let warm = session.prepare(&format!("EXPLAIN {sql}")).unwrap();
        match &warm.plan().only().strategy {
            PlanStrategy::SpecializedAggregate { decision } => {
                assert_ne!(*decision, RewriteDecision::AtExecution, "warm caches must decide");
                assert_eq!(*decision, warm_decision, "planner and executor disagree");
            }
            other => panic!("unexpected strategy {other:?}"),
        }
        assert_eq!(warm.plan().only().specialized_cache, CacheWarmth::Memory);
        assert!(warm.run().unwrap().output.explain_plan().is_some());
        assert_eq!(catalog.clock().total(), charged, "planning and EXPLAIN stay free");
    }
}

// ---------------------------------------------------------------------------------
// Multi-video routing and per-video cache isolation.
// ---------------------------------------------------------------------------------

#[test]
fn one_catalog_serves_multiple_videos_with_isolated_score_indexes() {
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, 1_000).expect("register taipei");
    catalog.register_preset(DatasetPreset::Rialto, 1_000).expect("register rialto");
    let session = catalog.session();

    let taipei_sql =
        "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%";
    let rialto_sql =
        "SELECT FCOUNT(*) FROM rialto WHERE class = 'boat' ERROR WITHIN 0.2 AT CONFIDENCE 95%";

    // First query on each video trains + scores that video.
    let taipei_first = session.query(taipei_sql).unwrap().output.aggregate_value().unwrap();
    let specialized_after_taipei = catalog.clock().breakdown().specialized;
    assert!(specialized_after_taipei > 0.0);

    let rialto_first = session.query(rialto_sql).unwrap().output.aggregate_value().unwrap();
    let specialized_after_rialto = catalog.clock().breakdown().specialized;
    assert!(
        specialized_after_rialto > specialized_after_taipei,
        "rialto cannot reuse taipei's score index"
    );

    // Second query on each video answers from that video's own cached index: zero
    // additional specialized inference (the acceptance scenario).
    let taipei_second = session.query(taipei_sql).unwrap().output.aggregate_value().unwrap();
    let rialto_second = session.query(rialto_sql).unwrap().output.aggregate_value().unwrap();
    let specialized_after_repeats = catalog.clock().breakdown().specialized;
    assert!(
        (specialized_after_repeats - specialized_after_rialto).abs() < 1e-12,
        "repeat queries must charge zero specialized inference"
    );

    // Deterministic engine: repeated queries agree with themselves, and the two
    // videos produce genuinely different answers (no cross-video routing mixups).
    assert_eq!(taipei_first, taipei_second);
    assert_eq!(rialto_first, rialto_second);
    assert_ne!(taipei_first, rialto_first);

    // Routing errors list the whole catalog.
    match session.query("SELECT FCOUNT(*) FROM amsterdam WHERE class = 'car'") {
        Err(BlazeItError::UnknownVideo { requested, available, .. }) => {
            assert_eq!(requested, "amsterdam");
            assert_eq!(available, vec!["taipei".to_string(), "rialto".to_string()]);
        }
        other => panic!("expected UnknownVideo, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------------
// Plan-override round-trips.
// ---------------------------------------------------------------------------------

#[test]
fn with_options_actually_changes_selection_execution() {
    let catalog = taipei_catalog(1_200);
    let session = catalog.session();
    let sql = "SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 10 \
               AND area(mask) > 20000 GROUP BY trackid HAVING COUNT(*) > 15";

    let prepared = session.prepare(sql).unwrap();
    assert_eq!(prepared.plan().only().selection, SelectionOptions::all());
    let filtered = prepared.run().unwrap();

    let overridden = session.prepare(sql).unwrap().with_options(SelectionOptions::none());
    assert_eq!(overridden.plan().only().selection, SelectionOptions::none());
    let naive = overridden.run().unwrap();

    assert!(
        filtered.output.detection_calls() < naive.output.detection_calls(),
        "disabling every filter must make the scan strictly more expensive \
         (filtered {} vs naive {})",
        filtered.output.detection_calls(),
        naive.output.detection_calls()
    );
    assert_eq!(naive.output.detection_calls(), catalog.context("taipei").unwrap().video().len());
}

#[test]
fn selection_trains_exactly_the_heads_its_plan_carries() {
    // The label filter calibrates from `plan.heads`, like the aggregate and scrub
    // executors: with the heads emptied it trains nothing and scans exactly what
    // the same query scans with the label filter switched off.
    let catalog = taipei_catalog(900);
    let session = catalog.session();
    let sql = "SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 10 \
               AND area(mask) > 20000 GROUP BY trackid HAVING COUNT(*) > 15";

    let mut headless = session.prepare(sql).unwrap();
    assert!(!headless.plan().only().heads.is_empty(), "the planner picks a bus head");
    headless.plan_mut().only_mut().heads.clear();
    let headless = headless.run().unwrap();

    let no_label = SelectionOptions { use_label_filter: false, ..SelectionOptions::all() };
    let unlabeled = session.prepare(sql).unwrap().with_options(no_label).run().unwrap();
    assert_eq!(headless.output.detection_calls(), unlabeled.output.detection_calls());
    assert_eq!(catalog.clock().breakdown().training, 0.0, "no heads, nothing to train");
}

#[test]
fn with_budget_caps_sampling_detector_calls() {
    let catalog = taipei_catalog(1_200);
    let session = catalog.session();
    // Birds never appear in taipei, so this plans as naive sampling whose K/eps
    // initial draw (10 detector calls per 0.1 error unit) far exceeds the budget.
    let sql =
        "SELECT FCOUNT(*) FROM taipei WHERE class = 'bird' ERROR WITHIN 0.01 AT CONFIDENCE 95%";

    let unbudgeted = session.prepare(sql).unwrap();
    assert_eq!(unbudgeted.plan().only().strategy, PlanStrategy::NaiveSampling);
    assert_eq!(unbudgeted.plan().only().detection_budget, None);
    let free_run = unbudgeted.run().unwrap();

    let budgeted = session.prepare(sql).unwrap().with_budget(40);
    assert_eq!(budgeted.plan().only().detection_budget, Some(40));
    let capped_run = budgeted.run().unwrap();

    assert!(free_run.output.detection_calls() > 40);
    assert!(
        capped_run.output.detection_calls() <= 40,
        "budget of 40 calls was exceeded: {}",
        capped_run.output.detection_calls()
    );
}

#[test]
fn with_budget_caps_scrub_verification() {
    let catalog = taipei_catalog(1_500);
    let session = catalog.session();
    // A predicate with few true positives forces a long verification tail.
    let sql = "SELECT timestamp FROM taipei GROUP BY timestamp \
               HAVING SUM(class='car') >= 4 LIMIT 10";

    let free_run = session.prepare(sql).unwrap().run().unwrap();
    let capped_run = session.prepare(sql).unwrap().with_budget(25).run().unwrap();
    assert!(capped_run.output.detection_calls() <= 25);
    assert!(capped_run.output.detection_calls() <= free_run.output.detection_calls());
    // Whatever the budget returned must be a prefix-quality subset: every frame it
    // returned was detector-verified, so it also appears in the unbudgeted result.
    let free_frames = free_run.output.frames().unwrap();
    for frame in capped_run.output.frames().unwrap() {
        assert!(free_frames.contains(frame), "budgeted result invented frame {frame}");
    }
}
