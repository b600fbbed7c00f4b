//! Property-based tests (proptest) on the core data structures and invariants.

use blazeit::core::stats::{normal_critical_value, normal_ppf};
use blazeit::detect::{count_classes, Detection};
use blazeit::frameql::parse_query;
use blazeit::nn::features::Standardizer;
use blazeit::nn::Matrix;
use blazeit::prelude::*;
use blazeit::videostore::datasets::occupancy_to_mean_concurrent;
use proptest::prelude::*;

fn arb_bbox() -> impl Strategy<Value = BoundingBox> {
    (0.0f32..1000.0, 0.0f32..1000.0, 1.0f32..500.0, 1.0f32..500.0)
        .prop_map(|(x, y, w, h)| BoundingBox::new(x, y, x + w, y + h))
}

proptest! {
    // ------------------------------------------------------------------ geometry ----
    #[test]
    fn iou_is_symmetric_and_bounded(a in arb_bbox(), b in arb_bbox()) {
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((ab - ba).abs() < 1e-5);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&ab));
    }

    #[test]
    fn iou_with_self_is_one(a in arb_bbox()) {
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn intersection_area_never_exceeds_either_box(a in arb_bbox(), b in arb_bbox()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(i.area() <= a.area() + 1e-3);
            prop_assert!(i.area() <= b.area() + 1e-3);
        }
    }

    #[test]
    fn clamping_keeps_boxes_inside_the_frame(a in arb_bbox()) {
        let clamped = a.clamp_to(1280.0, 720.0);
        prop_assert!(clamped.xmin >= 0.0 && clamped.xmax <= 1280.0);
        prop_assert!(clamped.ymin >= 0.0 && clamped.ymax <= 720.0);
        prop_assert!(clamped.area() <= a.area() + 1e-3);
    }

    // ------------------------------------------------------------------- parser -----
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC{0,120}") {
        // Any outcome is fine as long as it is a clean Result, not a panic.
        let _ = parse_query(&input);
    }

    #[test]
    fn parser_roundtrips_simple_aggregates(
        error in 0.01f64..0.5,
        conf in 50.0f64..99.0,
        class in prop::sample::select(vec!["car", "bus", "boat", "person"]),
    ) {
        let sql = format!(
            "SELECT FCOUNT(*) FROM taipei WHERE class = '{class}' ERROR WITHIN {error} AT CONFIDENCE {conf}%"
        );
        let q = parse_query(&sql).unwrap();
        prop_assert_eq!(q.from.as_single(), Some("taipei"));
        prop_assert!((q.accuracy.error_within.unwrap() - error).abs() < 1e-9);
        prop_assert!((q.accuracy.confidence.unwrap() - conf / 100.0).abs() < 1e-9);
    }

    #[test]
    fn parser_roundtrips_limit_and_gap(limit in 1u64..1000, gap in 0u64..10_000) {
        let sql = format!(
            "SELECT timestamp FROM amsterdam GROUP BY timestamp HAVING SUM(class='car')>=2 LIMIT {limit} GAP {gap}"
        );
        let q = parse_query(&sql).unwrap();
        prop_assert_eq!(q.limit, Some(limit));
        prop_assert_eq!(q.gap, Some(gap));
    }

    // ------------------------------------------------------------------ counting ----
    #[test]
    fn count_vector_totals_match_input(classes in prop::collection::vec(0usize..8, 0..40)) {
        let detections: Vec<Detection> = classes
            .iter()
            .map(|&i| Detection::new(ObjectClass::ALL[i], BoundingBox::new(0.0, 0.0, 10.0, 10.0), 0.9))
            .collect();
        let counts = count_classes(&detections);
        prop_assert_eq!(counts.total(), detections.len());
        for class in ObjectClass::ALL {
            let expected = classes.iter().filter(|&&i| ObjectClass::ALL[i] == class).count();
            prop_assert_eq!(counts.get(class), expected);
            prop_assert_eq!(counts.at_least(class, expected + 1), false);
            if expected > 0 {
                prop_assert!(counts.at_least(class, expected));
            }
        }
    }

    // ------------------------------------------------------------------ statistics --
    #[test]
    fn normal_ppf_is_monotone_and_symmetric(p in 0.001f64..0.499) {
        prop_assert!(normal_ppf(p) < normal_ppf(p + 0.5));
        prop_assert!((normal_ppf(p) + normal_ppf(1.0 - p)).abs() < 2e-3);
        prop_assert!(normal_critical_value(1.0 - p) > 0.0);
    }

    #[test]
    fn occupancy_conversion_is_monotone_and_invertible(occ in 0.01f64..0.98) {
        let mean = occupancy_to_mean_concurrent(occ);
        prop_assert!(mean > 0.0);
        let back = 1.0 - (-mean).exp();
        prop_assert!((back - occ).abs() < 1e-9);
        prop_assert!(occupancy_to_mean_concurrent(occ + 0.01) > mean);
    }

    // ---------------------------------------------------------------- standardizer --
    #[test]
    fn standardizer_output_has_zero_mean_unit_variance(
        rows in prop::collection::vec(prop::collection::vec(-50.0f32..50.0, 4), 8..60)
    ) {
        let mut flat = Matrix::from_rows(&rows).unwrap();
        let st = Standardizer::fit(&flat);
        st.transform_rows_in_place(&mut flat);
        let transformed: Vec<&[f32]> = flat.data().chunks_exact(4).collect();
        for d in 0..4 {
            let n = transformed.len() as f32;
            let mean: f32 = transformed.iter().map(|r| r[d]).sum::<f32>() / n;
            let var: f32 = transformed.iter().map(|r| r[d] * r[d]).sum::<f32>() / n;
            prop_assert!(mean.abs() < 1e-2, "dim {} mean {}", d, mean);
            // Either the dimension was (near-)constant and zeroed, or it has unit variance.
            prop_assert!(var < 1e-4 || (var - 1.0).abs() < 0.05, "dim {} var {}", d, var);
        }
    }
}

// Deterministic (non-proptest) cross-crate invariants that complement the properties.
#[test]
fn video_ground_truth_is_stable_under_repeated_access() {
    let video = DatasetPreset::GrandCanal.generate_with_frames(DAY_TEST, 1_000).unwrap();
    for f in (0..1_000).step_by(97) {
        assert_eq!(video.ground_truth(f).unwrap(), video.ground_truth(f).unwrap());
        assert_eq!(video.frame(f).unwrap(), video.frame(f).unwrap());
    }
}

#[test]
fn simulated_detection_is_idempotent_per_frame() {
    let engine = Catalog::new().register_preset(DatasetPreset::Rialto, 800).unwrap();
    for f in (0..800).step_by(53) {
        assert_eq!(
            engine.detector().detect(&engine.video(), f),
            engine.detector().detect(&engine.video(), f)
        );
    }
}

// ------------------------------------------------------------------ tracing -----
// `EXPLAIN ANALYZE` runs the whole query under a trace collector, so these
// properties execute real plans. The `proptest!` macro runs a fixed 64 cases —
// far too many for tests that each build a catalog and execute a query — so
// they drive the same deterministic generator directly over a few cases.

/// The exactness contract: the per-span simulated costs of an
/// `EXPLAIN ANALYZE` trace sum — bitwise, not within an epsilon — to the
/// clock's ledger delta, and `QueryResult::cost` is that same sum.
#[test]
fn explain_analyze_costs_sum_exactly_to_the_ledger() {
    use blazeit::detect::clock::CostCategory;
    let strategy = (0.2f64..0.5, prop::sample::select(vec!["car", "bus"]));
    for case in 0..4 {
        let mut rng = proptest::TestRng::deterministic("explain_analyze_costs", case);
        let (error, class) = Strategy::generate(&strategy, &mut rng);
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::Taipei, 300).unwrap();
        let sql = format!(
            "EXPLAIN ANALYZE SELECT FCOUNT(*) FROM taipei WHERE class = '{class}' \
             ERROR WITHIN {error} AT CONFIDENCE 90%"
        );
        let result = catalog.session().query(&sql).unwrap();
        let trace = result.output.analyze_trace().expect("analyze attaches a trace");
        let total = trace.total_cost();
        // The collector merged every span ledger back into the ambient tag, so
        // the clock's global breakdown is the identical fold.
        let ledger = catalog.clock().breakdown();
        for category in CostCategory::ALL {
            assert_eq!(
                total.get(category).to_bits(),
                ledger.get(category).to_bits(),
                "category {} diverged: trace {} vs ledger {}",
                category.label(),
                total.get(category),
                ledger.get(category)
            );
            assert_eq!(
                total.get(category).to_bits(),
                result.cost.get(category).to_bits(),
                "result.cost must be the trace total in category {}",
                category.label()
            );
        }
        assert!(
            catalog.clock().charged_tags().iter().all(|&t| t < 1 << 48),
            "no span tag may survive assembly: {:?}",
            catalog.clock().charged_tags()
        );
    }
}

/// The rendered `EXPLAIN ANALYZE` text is a faithful view of the attached
/// trace: one line per span (plus header and total), every label present,
/// and the total line quotes `QueryTrace::total_cost`.
#[test]
fn explain_analyze_rendering_matches_the_attached_trace() {
    let strategy = (1u64..4, 0.25f64..0.5);
    for case in 0..3 {
        let mut rng = proptest::TestRng::deterministic("explain_analyze_rendering", case);
        let (limit, error) = Strategy::generate(&strategy, &mut rng);
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::Amsterdam, 300).unwrap();
        let session = catalog.session();
        let sql = format!(
            "EXPLAIN ANALYZE SELECT timestamp FROM amsterdam GROUP BY timestamp \
             HAVING SUM(class='car')>=1 ERROR WITHIN {error} LIMIT {limit} GAP 50"
        );
        let result = session.query(&sql).unwrap();
        let trace = result.output.analyze_trace().expect("analyze attaches a trace");
        assert!(result.output.explain_plan().is_some(), "analyze keeps the plan");
        let rendered = trace.to_string();
        assert!(rendered.starts_with("EXPLAIN ANALYZE"));
        assert_eq!(
            rendered.lines().count(),
            trace.spans.len() + 2,
            "header + one line per span + total:\n{rendered}"
        );
        for span in &trace.spans {
            assert!(rendered.contains(&span.label), "span {:?} missing:\n{rendered}", span.label);
        }
        let total_line = rendered.lines().last().unwrap();
        assert!(
            total_line.contains(&format!(
                "{:.6} simulated seconds over {} spans",
                trace.total_cost().total(),
                trace.spans.len()
            )),
            "total line must quote total_cost: {total_line}"
        );
    }
}
