//! Cross-video FrameQL: fan-out aggregation, global-limit scrubbing, source-tagged
//! selection, and the statistical honesty of the merge math.
//!
//! The merge-math property test amortizes catalog construction: the catalogs are
//! built once and every proptest case re-queries them (repeat queries answer from
//! the per-video caches, so 64 randomized cases stay cheap).

use blazeit::core::sync::OnceLock;
use blazeit::prelude::*;
use proptest::prelude::*;

/// The three car-bearing Table 3 streams the cross-video tests span.
const PRESETS: [DatasetPreset; 3] =
    [DatasetPreset::Taipei, DatasetPreset::NightStreet, DatasetPreset::Amsterdam];

fn car_catalog(frames: u64) -> Catalog {
    let catalog = Catalog::new();
    for preset in PRESETS {
        catalog.register_preset(preset, frames).expect("register preset");
    }
    catalog
}

// ---------------------------------------------------------------------------------
// Merge math: catalog-wide FCOUNT == sum of per-video runs, CI never wider.
// ---------------------------------------------------------------------------------

proptest! {
    #[test]
    fn catalog_fcount_is_the_sum_of_per_video_runs_with_a_no_wider_ci(
        error in 0.08f64..0.35,
        confidence in prop::sample::select(vec![90u32, 95, 99]),
        pair in prop::sample::select(vec![(0usize, 1usize), (0, 2), (1, 2), (0, 0)]),
    ) {
        // Built once, reused by every case (`OnceLock` holds them across the 64
        // iterations of this single #[test]).
        static CATALOGS: OnceLock<(Catalog, Catalog)> = OnceLock::new();
        let (fanout_catalog, solo_catalog) =
            CATALOGS.get_or_init(|| (car_catalog(700), car_catalog(700)));

        // (0, 0) selects the full three-video catalog; the rest pick a pair.
        let names: Vec<String> = if pair == (0, 0) {
            fanout_catalog.video_names()
        } else {
            let all = fanout_catalog.video_names();
            vec![all[pair.0].clone(), all[pair.1].clone()]
        };
        let constraint =
            format!("WHERE class = 'car' ERROR WITHIN {error} AT CONFIDENCE {confidence}%");

        let fanout = fanout_catalog
            .session()
            .query(&format!("SELECT FCOUNT(*) FROM {} {constraint}", names.join(", ")))
            .expect("fan-out query");
        let QueryOutput::CatalogAggregate { value, standard_error, per_video, .. } =
            &fanout.output
        else {
            panic!("expected CatalogAggregate, got {:?}", fanout.output);
        };
        prop_assert_eq!(per_video.len(), names.len());

        // The catalog-wide total is the sum of independent per-video runs.
        let mut solo_sum = 0.0f64;
        let mut solo_se_sum = 0.0f64;
        let mut solo_se_squares = 0.0f64;
        let mut any_sampled = false;
        for name in &names {
            let solo = solo_catalog
                .session()
                .query(&format!("SELECT FCOUNT(*) FROM {name} {constraint}"))
                .expect("per-video query");
            solo_sum += solo.output.aggregate_value().expect("aggregate");
            if let Some(se) = solo.output.aggregate_standard_error() {
                any_sampled = true;
                solo_se_sum += se;
                solo_se_squares += se * se;
            }
        }
        prop_assert!(
            (value - solo_sum).abs() < 1e-9,
            "catalog total {} != sum of per-video runs {}",
            value,
            solo_sum
        );

        // Composed CI: the root-sum-square of independent standard errors — never
        // wider than the summed per-video intervals (same critical value on both
        // sides, so comparing standard errors compares interval widths).
        match standard_error {
            Some(composed) => {
                prop_assert!(any_sampled);
                prop_assert!(
                    (composed - solo_se_squares.sqrt()).abs() < 1e-9,
                    "composed SE {} != root-sum-square {}",
                    composed,
                    solo_se_squares.sqrt()
                );
                prop_assert!(
                    *composed <= solo_se_sum + 1e-12,
                    "composed SE {} wider than summed per-video SEs {}",
                    composed,
                    solo_se_sum
                );
            }
            None => prop_assert!(!any_sampled, "sampled sub-queries must compose an SE"),
        }

        // The per-video breakdown lists the videos in FROM order.
        let listed: Vec<&str> = per_video.iter().map(|v| v.video.as_str()).collect();
        let expected: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
        prop_assert_eq!(listed, expected);
    }
}

// ---------------------------------------------------------------------------------
// Global-limit scrubbing: early cancellation and the sequential-ordering bound.
// ---------------------------------------------------------------------------------

/// Runs the sequential baseline for one ordering of the catalog's videos: scrub each
/// video in turn with the still-unsatisfied remainder of the global limit, stopping
/// as soon as it is met. Returns total detector calls charged.
fn sequential_scrub_calls(catalog: &Catalog, ordering: &[&str], limit: u64, gap: u64) -> u64 {
    let session = catalog.session();
    let mut remaining = limit;
    let mut calls = 0u64;
    for name in ordering {
        if remaining == 0 {
            break;
        }
        let result = session
            .query(&format!(
                "SELECT timestamp FROM {name} GROUP BY timestamp \
                 HAVING SUM(class='car') >= 1 LIMIT {remaining} GAP {gap}"
            ))
            .expect("sequential scrub");
        calls += result.output.detection_calls();
        remaining -= result.output.frames().expect("frames").len() as u64;
    }
    calls
}

#[test]
fn global_limit_scrub_charges_no_more_than_the_best_sequential_ordering() {
    let catalog = car_catalog(900);
    let session = catalog.session();
    // A limit larger than any single video's cheap supply of events: a sequential
    // plan must dig into its first video's low-confidence tail (where precision
    // decays), while the global interleave keeps skimming the top of all three
    // rankings — this is exactly the regime where cross-video scrubbing pays.
    let (limit, gap) = (30u64, 30u64);

    let fanout = session
        .query(&format!(
            "SELECT timestamp FROM * GROUP BY timestamp \
             HAVING SUM(class='car') >= 1 LIMIT {limit} GAP {gap}"
        ))
        .expect("global scrub");
    let frames = fanout.output.sourced_frames().expect("sourced frames");
    assert_eq!(frames.len() as u64, limit, "cars are abundant in all three streams");
    let fanout_calls = fanout.output.detection_calls();

    // Every returned frame is detector-verified in its own video, and GAP binds
    // within a video only.
    for sf in frames {
        let ctx = catalog.context(&sf.video).unwrap();
        let detections = ctx.detector().detect(&ctx.video(), sf.frame);
        assert!(
            detections.iter().any(|d| d.class == ObjectClass::Car),
            "{}#{} fails the predicate",
            sf.video,
            sf.frame
        );
    }
    for a in frames {
        for b in frames {
            if a != b && a.video == b.video {
                assert!(a.frame.abs_diff(b.frame) >= gap, "{a:?} vs {b:?} violate GAP");
            }
        }
    }

    // The interleaved global ranking must beat (or tie) every sequential ordering,
    // including the best one.
    let names = catalog.video_names();
    let mut best = u64::MAX;
    for a in 0..names.len() {
        for b in 0..names.len() {
            for c in 0..names.len() {
                if a == b || b == c || a == c {
                    continue;
                }
                let ordering = [names[a].as_str(), names[b].as_str(), names[c].as_str()];
                best = best.min(sequential_scrub_calls(&catalog, &ordering, limit, gap));
            }
        }
    }
    assert!(
        fanout_calls <= best,
        "global interleave charged {fanout_calls} detector calls, best sequential \
         ordering charged {best}"
    );
}

#[test]
fn global_limit_stops_charging_every_video_once_satisfied() {
    // Rialto has no cars, so its sub-plan falls back to a sequential scan whose
    // candidates rank (at -inf confidence) behind every NN-ranked candidate of the
    // car streams. Once the global limit is met by those streams, early cancellation
    // must leave the whole rialto scan uncharged — the total call count stays far
    // below rialto's frame count, and no rialto frame is returned.
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, 800).unwrap();
    catalog.register_preset(DatasetPreset::Rialto, 800).unwrap();
    let session = catalog.session();

    let limit = 6u64;
    let result = session
        .query(&format!(
            "SELECT timestamp FROM * GROUP BY timestamp \
             HAVING SUM(class='car') >= 1 LIMIT {limit} GAP 20"
        ))
        .expect("global scrub");
    let frames = result.output.sourced_frames().expect("sourced frames");
    assert_eq!(frames.len() as u64, limit);
    assert!(frames.iter().all(|sf| sf.video == "taipei"), "{frames:?}");
    let rialto_len = catalog.context("rialto").unwrap().video().len();
    assert!(
        result.output.detection_calls() < rialto_len,
        "early cancellation failed: {} calls would mean rialto's scan ran",
        result.output.detection_calls()
    );
}

// ---------------------------------------------------------------------------------
// EXPLAIN: one sub-plan per video, each with its own cache warmth.
// ---------------------------------------------------------------------------------

#[test]
fn explain_from_star_renders_per_video_subplans_with_their_own_warmth() {
    let catalog = car_catalog(700);
    let session = catalog.session();
    let constraint = "WHERE class = 'car' ERROR WITHIN 0.15 AT CONFIDENCE 95%";

    // Warm exactly one video's caches.
    session.query(&format!("SELECT FCOUNT(*) FROM taipei {constraint}")).expect("warm taipei");
    let charged = catalog.clock().total();
    assert!(charged > 0.0);

    let explain =
        session.query(&format!("EXPLAIN SELECT FCOUNT(*) FROM * {constraint}")).expect("explain");
    let plan = explain.output.explain_plan().expect("plan");
    assert!(plan.is_fan_out());
    assert_eq!(plan.subplans.len(), 3);
    assert_eq!(plan.merge, MergeSemantics::SumEstimates);

    let warmth: Vec<(String, CacheWarmth)> =
        plan.subplans.iter().map(|sub| (sub.video.clone(), sub.specialized_cache)).collect();
    assert!(warmth.contains(&("taipei".to_string(), CacheWarmth::Memory)));
    assert!(warmth.contains(&("night-street".to_string(), CacheWarmth::Cold)));
    assert!(warmth.contains(&("amsterdam".to_string(), CacheWarmth::Cold)));

    // The rendering shows one sub-plan block per video, and EXPLAIN stays free.
    let rendered = plan.to_string();
    assert!(rendered.contains("QUERY PLAN over 3 videos"), "{rendered}");
    assert!(rendered.contains("merge:"), "{rendered}");
    for name in catalog.video_names() {
        assert!(rendered.contains(&format!("SUB-PLAN for '{name}'")), "{rendered}");
    }
    assert!(rendered.contains("caches:   specialized=warm"), "{rendered}");
    assert!(rendered.contains("caches:   specialized=cold"), "{rendered}");
    assert_eq!(catalog.clock().total(), charged, "EXPLAIN must stay free");
}

// ---------------------------------------------------------------------------------
// Selection: rows concatenate in FROM order, tagged with their source video.
// ---------------------------------------------------------------------------------

#[test]
fn multi_video_selection_concatenates_source_tagged_rows() {
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, 700).unwrap();
    catalog.register_preset(DatasetPreset::Amsterdam, 700).unwrap();
    let session = catalog.session();
    let predicate = "WHERE class = 'bus' AND area(mask) > 20000";

    let multi = session
        .query(&format!("SELECT * FROM amsterdam, taipei {predicate}"))
        .expect("multi-video selection");
    let rows = multi.output.sourced_rows().expect("sourced rows");

    // Per-video runs on a second, identical catalog reproduce the fan-out exactly.
    let solo_catalog = {
        let c = Catalog::new();
        c.register_preset(DatasetPreset::Taipei, 700).unwrap();
        c.register_preset(DatasetPreset::Amsterdam, 700).unwrap();
        c
    };
    let solo = solo_catalog.session();
    let amsterdam_rows = solo
        .query(&format!("SELECT * FROM amsterdam {predicate}"))
        .unwrap()
        .output
        .rows()
        .unwrap()
        .to_vec();
    let taipei_rows = solo
        .query(&format!("SELECT * FROM taipei {predicate}"))
        .unwrap()
        .output
        .rows()
        .unwrap()
        .to_vec();

    assert_eq!(rows.len(), amsterdam_rows.len() + taipei_rows.len());
    // FROM order: every amsterdam row precedes every taipei row.
    let (head, tail) = rows.split_at(amsterdam_rows.len());
    assert!(head.iter().all(|r| r.video == "amsterdam"));
    assert!(tail.iter().all(|r| r.video == "taipei"));
    assert_eq!(head.iter().map(|r| r.row.clone()).collect::<Vec<_>>(), amsterdam_rows);
    assert_eq!(tail.iter().map(|r| r.row.clone()).collect::<Vec<_>>(), taipei_rows);
}

// ---------------------------------------------------------------------------------
// Result-shape stability and plan-override consistency.
// ---------------------------------------------------------------------------------

#[test]
fn from_star_keeps_catalog_semantics_over_a_one_video_catalog() {
    // The result shape of `FROM *` must not depend on how many videos happen to be
    // registered: callers written against the catalog surface would otherwise break
    // the day their deployment shrinks to one stream.
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, 700).unwrap();
    let session = catalog.session();

    let aggregate = session
        .query("SELECT FCOUNT(*) FROM * WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%")
        .unwrap();
    let per_video = aggregate.output.per_video_aggregates().expect("CatalogAggregate shape");
    assert_eq!(per_video.len(), 1);
    assert_eq!(per_video[0].video, "taipei");

    let scrub = session
        .query(
            "SELECT timestamp FROM * GROUP BY timestamp HAVING SUM(class='car') >= 1 \
             LIMIT 3 GAP 30",
        )
        .unwrap();
    let frames = scrub.output.sourced_frames().expect("CatalogFrames shape");
    assert!(frames.iter().all(|sf| sf.video == "taipei"));

    let select = session.query("SELECT * FROM * WHERE class = 'bus'").unwrap();
    assert!(select.output.sourced_rows().is_some(), "CatalogRows shape");

    // EXPLAIN renders the fan-out form too (merge line + sub-plan block).
    let explain = session
        .query("EXPLAIN SELECT FCOUNT(*) FROM * WHERE class = 'car' ERROR WITHIN 0.2")
        .unwrap();
    let plan = explain.output.explain_plan().unwrap();
    assert!(plan.is_fan_out());
    let rendered = plan.to_string();
    assert!(rendered.contains("QUERY PLAN over 1 video"), "{rendered}");
    assert!(rendered.contains("SUB-PLAN for 'taipei'"), "{rendered}");

    // A single *named* video keeps the single-video shapes.
    let named =
        session.query("SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2").unwrap();
    assert!(named.output.per_video_aggregates().is_none());
    assert!(named.output.aggregate_value().is_some());
}

#[test]
fn divergent_per_subplan_scrub_overrides_are_rejected() {
    // The global-limit scrub runs one LIMIT/GAP/budget across all videos; a
    // plan_mut edit that makes sub-plans disagree must fail loudly instead of
    // silently running with sub-plan 0's values.
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, 700).unwrap();
    catalog.register_preset(DatasetPreset::Amsterdam, 700).unwrap();
    let session = catalog.session();
    let sql = "SELECT timestamp FROM * GROUP BY timestamp HAVING SUM(class='car') >= 1 \
               LIMIT 4 GAP 30";

    let mut prepared = session.prepare(sql).unwrap();
    prepared.plan_mut().subplans[1].detection_budget = Some(10);
    match prepared.run() {
        Err(BlazeItError::Unsupported(message)) => {
            assert!(message.contains("global LIMIT/GAP"), "{message}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }

    let mut prepared = session.prepare(sql).unwrap();
    if let Some(scrub) = &mut prepared.plan_mut().subplans[1].scrub {
        scrub.limit = 99;
    }
    assert!(matches!(prepared.run(), Err(BlazeItError::Unsupported(_))));

    // Uniform overrides (what with_budget applies) still run.
    let capped = session.prepare(sql).unwrap().with_budget(25).run().unwrap();
    assert!(capped.output.detection_calls() <= 25);
}

// ---------------------------------------------------------------------------------
// Routing errors.
// ---------------------------------------------------------------------------------

#[test]
fn from_star_on_an_empty_catalog_is_a_clear_error() {
    let catalog = Catalog::new();
    let err = catalog.session().query("SELECT FCOUNT(*) FROM * WHERE class = 'car'");
    match err {
        Err(BlazeItError::Unsupported(message)) => {
            assert!(message.contains("catalog is empty"), "{message}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn unknown_video_in_a_from_list_fails_with_a_hint() {
    let catalog = car_catalog(600);
    let err = catalog
        .session()
        .query("SELECT FCOUNT(*) FROM taipei, amstrdam WHERE class = 'car' ERROR WITHIN 0.2");
    match err {
        Err(BlazeItError::UnknownVideo { requested, hint, .. }) => {
            assert_eq!(requested, "amstrdam");
            assert_eq!(hint.as_deref(), Some("amsterdam"));
        }
        other => panic!("expected UnknownVideo, got {other:?}"),
    }
}
