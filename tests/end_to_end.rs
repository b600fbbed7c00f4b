//! Cross-crate integration tests: FrameQL text in, verified results out, with the
//! accuracy and cost properties the paper's design promises.

use blazeit::core::baselines;
use blazeit::prelude::*;
use std::sync::Arc;

fn taipei(frames: u64) -> (Catalog, Arc<VideoContext>) {
    let catalog = Catalog::new();
    let engine = catalog.register_preset(DatasetPreset::Taipei, frames).expect("engine");
    (catalog, engine)
}

#[test]
fn aggregate_estimate_respects_error_bound_against_detector_truth() {
    let (catalog, engine) = taipei(3_000);
    let result = catalog
        .session()
        .query(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.15 AT CONFIDENCE 95%",
        )
        .unwrap();
    let estimate = result.output.aggregate_value().unwrap();
    let (truth, _) = baselines::oracle_fcount(&engine, Some(ObjectClass::Car));
    // The bound is probabilistic (95%); allow twice the tolerance as the hard test
    // limit so the suite stays deterministic while still catching gross violations.
    assert!(
        (estimate - truth).abs() <= 0.3,
        "estimate {estimate} too far from detector ground truth {truth}"
    );
}

#[test]
fn aggregate_is_cheaper_than_both_baselines() {
    let (catalog, engine) = taipei(3_000);
    let result = catalog
        .session()
        .query(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%",
        )
        .unwrap();
    let blazeit_runtime = result.runtime_secs();

    // Naive: the exact query, which plans the detector on every frame.
    let naive =
        catalog.session().query("SELECT FCOUNT(*) FROM taipei WHERE class = 'car'").unwrap();
    assert_eq!(naive.output.detection_calls(), engine.video().len());
    let naive_runtime = naive.runtime_secs();

    let before = engine.clock().breakdown();
    baselines::noscope_fcount(&engine, ObjectClass::Car).unwrap();
    let noscope_runtime = engine.clock().breakdown().since(&before).total();

    assert!(
        blazeit_runtime < naive_runtime,
        "BlazeIt ({blazeit_runtime}) should beat naive ({naive_runtime})"
    );
    assert!(
        blazeit_runtime < noscope_runtime,
        "BlazeIt ({blazeit_runtime}) should beat the NoScope oracle ({noscope_runtime})"
    );
}

#[test]
fn scrubbing_results_are_true_positives_with_gap() {
    let (catalog, engine) = taipei(3_000);
    let result = catalog
        .session()
        .query(
            "SELECT timestamp FROM taipei GROUP BY timestamp \
             HAVING SUM(class='car') >= 2 LIMIT 5 GAP 60",
        )
        .unwrap();
    let frames = result.output.frames().unwrap();
    assert!(frames.len() <= 5);
    for (i, &a) in frames.iter().enumerate() {
        // Verified against the same detector the engine used.
        let detections = engine.detector().detect(&engine.video(), a);
        let cars = detections.iter().filter(|d| d.class == ObjectClass::Car).count();
        assert!(cars >= 2, "frame {a} returned with only {cars} cars");
        for &b in &frames[i + 1..] {
            assert!(a.abs_diff(b) >= 60, "frames {a} and {b} violate GAP 60");
        }
    }
}

#[test]
fn selection_rows_satisfy_all_predicates_and_use_fewer_detections() {
    let (catalog, engine) = taipei(3_000);
    let sql = "SELECT * FROM taipei WHERE class = 'bus' AND area(mask) > 20000";
    let result = catalog.session().query(sql).unwrap();
    let rows = result.output.rows().unwrap();
    for row in rows {
        assert_eq!(row.class, ObjectClass::Bus);
        assert!(row.mask.area() > 20_000.0);
    }
    assert!(
        result.output.detection_calls() <= engine.video().len(),
        "selection should never inspect more frames than exist"
    );
}

#[test]
fn exact_queries_report_exact_method_and_full_cost() {
    let (catalog, engine) = taipei(1_200);
    let result =
        catalog.session().query("SELECT FCOUNT(*) FROM taipei WHERE class = 'bus'").unwrap();
    match result.output {
        QueryOutput::Aggregate { method, detection_calls, .. } => {
            assert_eq!(method, AggregateMethod::Exact);
            assert_eq!(detection_calls, engine.video().len());
        }
        other => panic!("unexpected output {other:?}"),
    }
}

#[test]
fn count_distinct_uses_entity_resolution() {
    let (catalog, engine) = taipei(1_200);
    let result = catalog
        .session()
        .query("SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car'")
        .unwrap();
    let distinct = result.output.aggregate_value().unwrap();
    // There are certainly multiple distinct cars in 40 seconds of a busy intersection,
    // and far fewer distinct cars than total car-rows.
    assert!(distinct >= 2.0, "only {distinct} distinct cars found");
    let exact_rows =
        catalog.session().query("SELECT FCOUNT(*) FROM taipei WHERE class = 'car'").unwrap();
    let total_rows = exact_rows.output.aggregate_value().unwrap() * engine.video().len() as f64;
    assert!(distinct < total_rows);
}

#[test]
fn unknown_video_or_class_are_clean_errors() {
    let (catalog, _) = taipei(600);
    assert!(catalog.session().query("SELECT FCOUNT(*) FROM rialto WHERE class = 'boat'").is_err());
    assert!(catalog
        .session()
        .query("SELECT FCOUNT(*) FROM taipei WHERE class = 'unicorn'")
        .is_err());
    assert!(catalog.session().query("SELECT FCOUNT(* FROM taipei").is_err());
}

#[test]
fn clock_accounts_for_every_query() {
    let (catalog, engine) = taipei(900);
    assert_eq!(engine.clock().total(), 0.0);
    let r1 = catalog
        .session()
        .query(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.3 AT CONFIDENCE 90%",
        )
        .unwrap();
    let after_first = engine.clock().total();
    assert!(after_first > 0.0);
    assert!(r1.cost.total() <= after_first + 1e-9);
    let _r2 = catalog
        .session()
        .query(
            "SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 1 LIMIT 1",
        )
        .unwrap();
    assert!(engine.clock().total() > after_first);
}

#[test]
fn different_presets_run_end_to_end() {
    for preset in [DatasetPreset::Rialto, DatasetPreset::Amsterdam] {
        let catalog = Catalog::new();
        catalog.register_preset(preset, 1_500).expect("engine");
        let class = preset.primary_class();
        let sql = format!(
            "SELECT FCOUNT(*) FROM {} WHERE class = '{}' ERROR WITHIN 0.2 AT CONFIDENCE 90%",
            preset.name().replace('-', "_"),
            class.name()
        );
        let result = catalog.session().query(&sql).expect("query");
        assert!(result.output.aggregate_value().unwrap() >= 0.0);
    }
}
