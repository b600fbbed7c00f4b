//! One function per table / figure of the paper's evaluation (Section 10).
//!
//! Every function returns a formatted, human-readable report whose rows correspond to
//! the rows / series of the original table or figure. Runtimes are simulated GPU
//! seconds from the shared cost model (decode excluded), exactly the accounting the
//! paper uses; "samples" are object-detection invocations.

use crate::{catalog_for, context_of, ExperimentScale, AGGREGATION_PRESETS, ALL_PRESETS};
use blazeit_core::aggregate::{
    control_variate_fcount_with_scores, naive_aqp_fcount, specialized_scores, SamplingOptions,
};
use blazeit_core::baselines;
use blazeit_core::metrics::{format_speedup_table, RuntimeReport};
use blazeit_core::scrub::{
    blazeit_scrub, score_frames, specialized_for_requirements, verify_ranked, ScrubOptions,
};
use blazeit_core::select::{
    execute_with_options, ground_truth_tracks, red_bus_query, SelectionOptions,
};
use blazeit_core::VideoContext;
use blazeit_detect::clock::CostBreakdown;
use blazeit_frameql::parse_query;
use blazeit_frameql::query::analyze;
use blazeit_videostore::stats::VideoStats;
use blazeit_videostore::{DatasetPreset, ObjectClass};
use std::fmt::Write as _;

fn cost_since(ctx: &VideoContext, before: &CostBreakdown) -> CostBreakdown {
    ctx.clock().breakdown().since(before)
}

/// The red-bus selection query used for Figures 10 and 11, with thresholds adapted to
/// the synthetic streams (the structure matches Figure 3c of the paper exactly).
pub fn selection_query(video: &str) -> String {
    red_bus_query(video, 10.0, 20_000.0, 15)
}

// ---------------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------------

/// Table 3: dataset characteristics of the six synthetic streams (test day).
pub fn table3(scale: ExperimentScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<6} {:>9} {:>12} {:>10} {:>7} {:>10} {:>9}",
        "video", "object", "occupancy", "avg dur (s)", "distinct", "fps", "frames", "hours"
    );
    for preset in ALL_PRESETS {
        let video = preset
            .generate_with_frames(blazeit_videostore::DAY_TEST, scale.frames_per_day)
            .expect("video generation");
        let stats =
            VideoStats::compute_classes(&video, &[preset.primary_class(), ObjectClass::Bus]);
        let mut classes: Vec<ObjectClass> = vec![preset.primary_class()];
        if preset == DatasetPreset::Taipei {
            classes.push(ObjectClass::Bus);
        }
        for class in classes {
            if let Some(cs) = stats.class(class) {
                let _ = writeln!(
                    out,
                    "{:<14} {:<6} {:>8.1}% {:>12.2} {:>10} {:>7.0} {:>10} {:>9.2}",
                    preset.name(),
                    class.name(),
                    cs.occupancy * 100.0,
                    cs.avg_duration_secs,
                    cs.distinct_count,
                    video.fps(),
                    video.len(),
                    stats.length_hours,
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------------
// Figure 4 + Table 4
// ---------------------------------------------------------------------------------

/// One video's row of the Figure 4 aggregate-runtime comparison.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Video name.
    pub video: String,
    /// Per-method runtime reports (naive, noscope, aqp, blazeit, blazeit-no-train).
    pub reports: Vec<RuntimeReport>,
    /// The BlazeIt estimate's absolute error versus the detector ground truth.
    pub blazeit_error: f64,
    /// How BlazeIt answered (query rewriting vs control variates).
    pub method: String,
}

/// Figure 4: end-to-end runtime of aggregate queries (error 0.1, confidence 95%).
pub fn fig4(scale: ExperimentScale) -> (Vec<Fig4Row>, String) {
    let mut rows = Vec::new();
    for preset in AGGREGATION_PRESETS {
        let catalog = catalog_for(preset, scale);
        let engine = context_of(&catalog, preset);
        let engine = &*engine;
        let class = preset.primary_class();
        let (truth, _) = baselines::oracle_fcount(engine, Some(class));

        // Naive.
        let before = engine.clock().breakdown();
        let (_, naive_calls) = baselines::naive_fcount(engine, Some(class)).expect("naive");
        let naive = RuntimeReport::from_cost("naive", cost_since(engine, &before), naive_calls);

        // NoScope oracle.
        let before = engine.clock().breakdown();
        let (_, ns_calls) = baselines::noscope_fcount(engine, class).expect("noscope");
        let noscope =
            RuntimeReport::from_cost("noscope (oracle)", cost_since(engine, &before), ns_calls);

        // Naive AQP.
        let before = engine.clock().breakdown();
        let aqp_outcome = naive_aqp_fcount(
            engine,
            Some(class),
            SamplingOptions::new(0.1, 0.95, engine.config().sampling_seed),
        )
        .expect("aqp");
        let aqp = RuntimeReport::from_cost(
            "aqp (naive)",
            cost_since(engine, &before),
            aqp_outcome.samples,
        );

        // BlazeIt (Algorithm 1), including training time.
        let sql = format!(
            "SELECT FCOUNT(*) FROM {} WHERE class = '{}' ERROR WITHIN 0.1 AT CONFIDENCE 95%",
            preset.name().replace('-', "_"),
            class.name()
        );
        let result = catalog.session().query(&sql).expect("blazeit aggregate");
        let blazeit_value = result.output.aggregate_value().unwrap_or(0.0);
        let method = match &result.output {
            blazeit_core::QueryOutput::Aggregate { method, .. } => format!("{method:?}"),
            _ => "unknown".into(),
        };
        let blazeit =
            RuntimeReport::from_cost("blazeit", result.cost, result.output.detection_calls());
        let mut no_train = blazeit.clone();
        no_train.name = "blazeit (no train)".into();
        no_train.runtime_secs = blazeit.runtime_excluding_training();

        rows.push(Fig4Row {
            video: preset.name().to_string(),
            reports: vec![naive, noscope, aqp, blazeit, no_train],
            blazeit_error: (blazeit_value - truth).abs(),
            method,
        });
    }

    let mut out = String::new();
    for row in &rows {
        let _ = writeln!(
            out,
            "--- {} (BlazeIt plan: {}, |error| = {:.3}) ---",
            row.video, row.method, row.blazeit_error
        );
        out.push_str(&format_speedup_table(&row.reports));
        out.push('\n');
    }
    (rows, out)
}

/// Table 4: absolute error of specialized-NN query rewriting on the unseen day,
/// averaged over `scale.runs` independently-seeded trainings.
pub fn table4(scale: ExperimentScale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<14} {:>12} {:>8}", "video", "avg |error|", "runs");
    for preset in AGGREGATION_PRESETS {
        let class = preset.primary_class();
        let mut errors = Vec::new();
        for run in 0..scale.runs {
            let config =
                blazeit_core::BlazeItConfig::for_preset(preset).with_seed(0xB1A2_E175 + run * 7919);
            let catalog = crate::catalog_with_config(preset, scale, config);
            let engine = context_of(&catalog, preset);
            let engine = &*engine;
            let nn = engine
                .specialized_for(&[(class, engine.default_max_count(class, 1))])
                .expect("train specialized NN");
            let value =
                blazeit_core::aggregate::rewrite_fcount(engine, &nn, class).expect("rewrite");
            let (truth, _) = baselines::oracle_fcount(engine, Some(class));
            errors.push((value - truth).abs());
        }
        let avg = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        let _ = writeln!(out, "{:<14} {:>12.3} {:>8}", preset.name(), avg, errors.len());
    }
    out
}

/// Table 5: specialized NNs do not just learn the average — predicted vs actual counts
/// on two different days of video.
pub fn table5(scale: ExperimentScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "video", "pred (day 1)", "actual (day1)", "pred (day 2)", "actual (day2)"
    );
    for preset in [
        DatasetPreset::Taipei,
        DatasetPreset::NightStreet,
        DatasetPreset::Rialto,
        DatasetPreset::GrandCanal,
    ] {
        let catalog = catalog_for(preset, scale);
        let engine = context_of(&catalog, preset);
        let engine = &*engine;
        let class = preset.primary_class();
        let nn = engine
            .specialized_for(&[(class, engine.default_max_count(class, 1))])
            .expect("train specialized NN");

        // Day 1 = held-out day, Day 2 = test day (two genuinely different days).
        let calibration = engine.heldout_calibration(&nn).expect("held-out calibration");
        let heldout = &calibration.head(class).expect("head for the primary class").fcount_error;
        let (pred1, actual1) = (heldout.mean_predicted, heldout.mean_true);

        let pred2 = blazeit_core::aggregate::rewrite_fcount(engine, &nn, class).expect("rewrite");
        let (actual2, _) = baselines::oracle_fcount(engine, Some(class));

        let _ = writeln!(
            out,
            "{:<14} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            preset.name(),
            pred1,
            actual1,
            pred2,
            actual2
        );
    }
    out
}

// ---------------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------------

/// The error targets swept in Figure 5.
pub const FIG5_ERRORS: [f64; 6] = [0.01, 0.02, 0.03, 0.04, 0.05, 0.1];

/// Figure 5: sample complexity (detector calls) of naive AQP vs control variates.
pub fn fig5(scale: ExperimentScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>14} {:>16} {:>10}",
        "video", "error", "naive samples", "control variate", "reduction"
    );
    for preset in ALL_PRESETS {
        let catalog = catalog_for(preset, scale);
        let engine = context_of(&catalog, preset);
        let engine = &*engine;
        let class = preset.primary_class();
        let nn = engine
            .specialized_for(&[(class, engine.default_max_count(class, 1))])
            .expect("train specialized NN");
        let scores = specialized_scores(engine, &nn, class).expect("scores");
        for &error in &FIG5_ERRORS {
            let mut naive_total = 0u64;
            let mut cv_total = 0u64;
            for run in 0..scale.runs {
                let seed = engine.config().sampling_seed + run * 104_729;
                let naive =
                    naive_aqp_fcount(engine, Some(class), SamplingOptions::new(error, 0.95, seed))
                        .expect("naive aqp");
                let cv = control_variate_fcount_with_scores(
                    engine,
                    &scores,
                    class,
                    SamplingOptions::new(error, 0.95, seed),
                )
                .expect("control variates");
                naive_total += naive.samples;
                cv_total += cv.samples;
            }
            let naive_avg = naive_total as f64 / scale.runs.max(1) as f64;
            let cv_avg = cv_total as f64 / scale.runs.max(1) as f64;
            let _ = writeln!(
                out,
                "{:<14} {:>8.2} {:>14.0} {:>16.0} {:>9.2}x",
                preset.name(),
                error,
                naive_avg,
                cv_avg,
                naive_avg / cv_avg.max(1.0)
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------------
// Table 6 + Figures 6-9 (scrubbing)
// ---------------------------------------------------------------------------------

/// The scrubbing query chosen for one video: "at least N of the primary class", where N
/// is the largest threshold with at least `min_instances` event frames on the test day
/// (the paper's own selection rule for Table 6).
#[derive(Debug, Clone, Copy)]
pub struct ScrubQuerySpec {
    /// The dataset.
    pub preset: DatasetPreset,
    /// The object class.
    pub class: ObjectClass,
    /// The count threshold N.
    pub threshold: usize,
    /// Number of frames on the test day satisfying the predicate.
    pub instances: u64,
}

/// Chooses the Table 6 scrubbing query for each video.
pub fn table6_specs(scale: ExperimentScale) -> Vec<ScrubQuerySpec> {
    ALL_PRESETS
        .iter()
        .map(|&preset| {
            let catalog = catalog_for(preset, scale);
            let engine = context_of(&catalog, preset);
            let engine = &*engine;
            let class = preset.primary_class();
            let counts = baselines::oracle_counts(engine, &engine.video());
            let max = counts.iter().map(|c| c.get(class)).max().unwrap_or(0);
            let instances_of =
                |n: usize| counts.iter().filter(|c| c.get(class) >= n).count() as u64;
            let mut threshold = 1;
            for n in (1..=max.max(1)).rev() {
                if instances_of(n) >= 20 {
                    threshold = n;
                    break;
                }
            }
            ScrubQuerySpec { preset, class, threshold, instances: instances_of(threshold) }
        })
        .collect()
}

/// Table 6: the scrubbing query details (object, threshold N, number of instances).
pub fn table6(scale: ExperimentScale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<14} {:<7} {:>8} {:>10}", "video", "object", "N", "instances");
    for spec in table6_specs(scale) {
        let _ = writeln!(
            out,
            "{:<14} {:<7} {:>8} {:>10}",
            spec.preset.name(),
            spec.class.name(),
            spec.threshold,
            spec.instances
        );
    }
    out
}

/// Runs the four scrubbing variants of Figure 6 for one requirement set and returns the
/// runtime reports (naive, noscope, blazeit, blazeit-indexed).
pub fn scrub_variants(
    ctx: &VideoContext,
    requirements: &[(ObjectClass, usize)],
    opts: ScrubOptions,
) -> Vec<RuntimeReport> {
    // Naive sequential scan.
    let before = ctx.clock().breakdown();
    let (_, naive_calls) =
        baselines::naive_scrub(ctx, requirements, opts.limit, opts.gap).expect("naive scrub");
    let naive = RuntimeReport::from_cost("naive", cost_since(ctx, &before), naive_calls);

    // NoScope oracle.
    let before = ctx.clock().breakdown();
    let (_, ns_calls) =
        baselines::noscope_scrub(ctx, requirements, opts.limit, opts.gap).expect("noscope scrub");
    let noscope = RuntimeReport::from_cost("noscope (oracle)", cost_since(ctx, &before), ns_calls);

    // BlazeIt: training + scoring + verification.
    let before = ctx.clock().breakdown();
    let nn = specialized_for_requirements(ctx, requirements).expect("specialized NN");
    let ranked = score_frames(ctx, &nn, requirements).expect("scoring");
    let after_scoring = ctx.clock().breakdown();
    let outcome = verify_ranked(ctx, &ranked, requirements, opts);
    let total = cost_since(ctx, &before);
    let verification_only = ctx.clock().breakdown().since(&after_scoring);
    let blazeit = RuntimeReport::from_cost("blazeit", total, outcome.detection_calls);
    // Indexed: the specialized NN was trained and run ahead of time (e.g. by a previous
    // aggregate query), so only detector verification is charged.
    let indexed =
        RuntimeReport::from_cost("blazeit (indexed)", verification_only, outcome.detection_calls);
    vec![naive, noscope, blazeit, indexed]
}

/// Figure 6: end-to-end scrubbing runtime on each video's Table 6 query (LIMIT 10).
pub fn fig6(scale: ExperimentScale) -> String {
    let mut out = String::new();
    for spec in table6_specs(scale) {
        let catalog = catalog_for(spec.preset, scale);
        let engine = context_of(&catalog, spec.preset);
        let engine = &*engine;
        let requirements = [(spec.class, spec.threshold)];
        let reports = scrub_variants(engine, &requirements, ScrubOptions { limit: 10, gap: 300 });
        let _ = writeln!(
            out,
            "--- {} (>= {} {}, {} instances) ---",
            spec.preset.name(),
            spec.threshold,
            spec.class.name(),
            spec.instances
        );
        out.push_str(&format_speedup_table(&reports));
        out.push('\n');
    }
    out
}

/// Figure 7: sample complexity (detector calls) when searching for at least N cars in
/// taipei, N = 1..=6, LIMIT 10.
pub fn fig7(scale: ExperimentScale) -> String {
    let catalog = catalog_for(DatasetPreset::Taipei, scale);
    let engine = context_of(&catalog, DatasetPreset::Taipei);
    let engine = &*engine;
    let opts = ScrubOptions { limit: 10, gap: 300 };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>7} {:>14} {:>16} {:>14} {:>10}",
        "N cars", "naive samples", "noscope samples", "blazeit", "instances"
    );
    let counts = baselines::oracle_counts(engine, &engine.video());
    for n in 1..=6usize {
        let requirements = [(ObjectClass::Car, n)];
        let instances = counts.iter().filter(|c| c.get(ObjectClass::Car) >= n).count();
        let (_, naive_calls) =
            baselines::naive_scrub(engine, &requirements, opts.limit, opts.gap).expect("naive");
        let (_, ns_calls) =
            baselines::noscope_scrub(engine, &requirements, opts.limit, opts.gap).expect("noscope");
        let nn = specialized_for_requirements(engine, &requirements).expect("specialized NN");
        let outcome = blazeit_scrub(engine, &nn, &requirements, opts).expect("blazeit scrub");
        let _ = writeln!(
            out,
            "{:>7} {:>14} {:>16} {:>14} {:>10}",
            n, naive_calls, ns_calls, outcome.detection_calls, instances
        );
    }
    out
}

/// The multi-class scrubbing requirement used for Figures 8 and 9: at least one bus and
/// at least N cars in taipei, with N chosen so the conjunction has at least
/// `min_instances` event frames (the paper's query uses N = 5 on its much longer days).
pub fn multiclass_requirements(
    ctx: &VideoContext,
    min_instances: usize,
) -> (Vec<(ObjectClass, usize)>, u64) {
    let counts = baselines::oracle_counts(ctx, &ctx.video());
    let instances_of = |n: usize| {
        counts
            .iter()
            .filter(|c| c.get(ObjectClass::Bus) >= 1 && c.get(ObjectClass::Car) >= n)
            .count() as u64
    };
    let mut chosen = 1usize;
    for n in (1..=5usize).rev() {
        if instances_of(n) >= min_instances as u64 {
            chosen = n;
            break;
        }
    }
    (vec![(ObjectClass::Bus, 1), (ObjectClass::Car, chosen)], instances_of(chosen))
}

/// Figure 8: end-to-end runtime for the multi-class scrubbing query on taipei.
pub fn fig8(scale: ExperimentScale) -> String {
    let catalog = catalog_for(DatasetPreset::Taipei, scale);
    let engine = context_of(&catalog, DatasetPreset::Taipei);
    let engine = &*engine;
    let (requirements, instances) = multiclass_requirements(engine, 15);
    let reports = scrub_variants(engine, &requirements, ScrubOptions { limit: 10, gap: 300 });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "multi-class query on taipei: >=1 bus AND >={} cars ({} instances)",
        requirements[1].1, instances
    );
    out.push_str(&format_speedup_table(&reports));
    out
}

/// Figure 9: sample complexity as a function of the LIMIT for the multi-class query.
pub fn fig9(scale: ExperimentScale) -> String {
    let catalog = catalog_for(DatasetPreset::Taipei, scale);
    let engine = context_of(&catalog, DatasetPreset::Taipei);
    let engine = &*engine;
    let (requirements, _) = multiclass_requirements(engine, 15);
    let nn = specialized_for_requirements(engine, &requirements).expect("specialized NN");
    let ranked = score_frames(engine, &nn, &requirements).expect("scoring");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>16} {:>14}",
        "limit", "naive samples", "noscope samples", "blazeit"
    );
    for limit in [1u64, 5, 10, 15, 20, 25, 30] {
        let opts = ScrubOptions { limit, gap: 300 };
        let (_, naive_calls) =
            baselines::naive_scrub(engine, &requirements, limit, opts.gap).expect("naive");
        let (_, ns_calls) =
            baselines::noscope_scrub(engine, &requirements, limit, opts.gap).expect("noscope");
        let outcome = verify_ranked(engine, &ranked, &requirements, opts);
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>16} {:>14}",
            limit, naive_calls, ns_calls, outcome.detection_calls
        );
    }
    out
}

// ---------------------------------------------------------------------------------
// Figures 10 and 11 (content-based selection)
// ---------------------------------------------------------------------------------

/// Figure 10: end-to-end runtime of the red-bus content-based selection query.
pub fn fig10(scale: ExperimentScale) -> String {
    let catalog = catalog_for(DatasetPreset::Taipei, scale);
    let engine = context_of(&catalog, DatasetPreset::Taipei);
    let engine = &*engine;
    let sql = selection_query("taipei");
    let query = parse_query(&sql).expect("parse");
    let info = analyze(&query, &engine.udfs()).expect("analyze");

    // Naive: detection on every frame (the unfiltered plan).
    let before = engine.clock().breakdown();
    let naive_outcome =
        execute_with_options(engine, &query, &info, &SelectionOptions::none()).expect("naive");
    let naive = RuntimeReport::from_cost(
        "naive",
        cost_since(engine, &before),
        naive_outcome.detection_calls,
    );

    // NoScope oracle: detection on frames with any bus present.
    let before = engine.clock().breakdown();
    let (_, ns_calls) =
        baselines::noscope_selection_scan(engine, ObjectClass::Bus).expect("noscope");
    let noscope =
        RuntimeReport::from_cost("noscope (oracle)", cost_since(engine, &before), ns_calls);

    // BlazeIt with all inferred filters.
    let before = engine.clock().breakdown();
    let blazeit_outcome =
        execute_with_options(engine, &query, &info, &SelectionOptions::all()).expect("blazeit");
    let blazeit = RuntimeReport::from_cost(
        "blazeit",
        cost_since(engine, &before),
        blazeit_outcome.detection_calls,
    );

    // False-negative rate at the (ground-truth) track level versus the naive result
    // set. Tracker ids are scan-local, so result sets are compared through the scene's
    // ground-truth track identities.
    let naive_tracks = ground_truth_tracks(engine, &naive_outcome.rows);
    let blazeit_tracks = ground_truth_tracks(engine, &blazeit_outcome.rows);
    let found = naive_tracks.iter().filter(|t| blazeit_tracks.contains(t)).count();
    let fnr =
        if naive_tracks.is_empty() { 0.0 } else { 1.0 - found as f64 / naive_tracks.len() as f64 };

    let mut out = String::new();
    let _ = writeln!(out, "query: {sql}");
    out.push_str(&format_speedup_table(&[naive, noscope, blazeit]));
    let _ = writeln!(
        out,
        "blazeit false-negative rate vs naive (tracks): {:.3} ({} of {} tracks found)",
        fnr,
        found,
        naive_tracks.len()
    );
    out
}

/// Figure 11: factor analysis (adding filters one at a time) and lesion study (removing
/// each filter from the full plan) for the red-bus query.
pub fn fig11(scale: ExperimentScale) -> String {
    let catalog = catalog_for(DatasetPreset::Taipei, scale);
    let engine = context_of(&catalog, DatasetPreset::Taipei);
    let engine = &*engine;
    let sql = selection_query("taipei");
    let query = parse_query(&sql).expect("parse");
    let info = analyze(&query, &engine.udfs()).expect("analyze");
    let video_frames = engine.video().len() as f64;

    let run = |opts: &SelectionOptions| -> (f64, u64) {
        let before = engine.clock().breakdown();
        let outcome = execute_with_options(engine, &query, &info, opts).expect("selection");
        let cost = cost_since(engine, &before);
        (cost.total() - cost.decode, outcome.detection_calls)
    };

    let configs_factor: Vec<(&str, SelectionOptions)> = vec![
        ("naive", SelectionOptions::none()),
        ("+spatial", SelectionOptions { use_spatial_filter: true, ..SelectionOptions::none() }),
        (
            "+temporal",
            SelectionOptions {
                use_spatial_filter: true,
                use_temporal_filter: true,
                ..SelectionOptions::none()
            },
        ),
        (
            "+content",
            SelectionOptions {
                use_spatial_filter: true,
                use_temporal_filter: true,
                use_content_filter: true,
                ..SelectionOptions::none()
            },
        ),
        ("+label", SelectionOptions::all()),
    ];
    let configs_lesion: Vec<(&str, SelectionOptions)> = vec![
        ("combined", SelectionOptions::all()),
        ("-spatial", SelectionOptions { use_spatial_filter: false, ..SelectionOptions::all() }),
        ("-temporal", SelectionOptions { use_temporal_filter: false, ..SelectionOptions::all() }),
        ("-content", SelectionOptions { use_content_filter: false, ..SelectionOptions::all() }),
        ("-label", SelectionOptions { use_label_filter: false, ..SelectionOptions::all() }),
    ];

    let mut out = String::new();
    let mut naive_runtime = None;
    let _ = writeln!(out, "factor analysis (filters added one at a time):");
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>16} {:>10}",
        "config", "runtime (s)", "det. calls", "throughput (fps)", "speedup"
    );
    for (name, opts) in &configs_factor {
        let (runtime, calls) = run(opts);
        if naive_runtime.is_none() {
            naive_runtime = Some(runtime);
        }
        let speedup = naive_runtime.unwrap() / runtime.max(1e-9);
        let _ = writeln!(
            out,
            "{:<12} {:>14.1} {:>14} {:>16.1} {:>9.1}x",
            name,
            runtime,
            calls,
            video_frames / runtime.max(1e-9),
            speedup
        );
    }
    let _ = writeln!(out, "\nlesion study (filters removed one at a time from the full plan):");
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>16} {:>10}",
        "config", "runtime (s)", "det. calls", "throughput (fps)", "speedup"
    );
    for (name, opts) in &configs_lesion {
        let (runtime, calls) = run(opts);
        let speedup = naive_runtime.unwrap_or(runtime) / runtime.max(1e-9);
        let _ = writeln!(
            out,
            "{:<12} {:>14.1} {:>14} {:>16.1} {:>9.1}x",
            name,
            runtime,
            calls,
            video_frames / runtime.max(1e-9),
            speedup
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale { frames_per_day: 1_200, runs: 1 }
    }

    #[test]
    fn table3_lists_every_video() {
        let report = table3(tiny());
        for preset in ALL_PRESETS {
            assert!(report.contains(preset.name()), "missing {}", preset.name());
        }
    }

    #[test]
    fn table6_specs_have_enough_instances() {
        for spec in table6_specs(tiny()) {
            assert!(spec.threshold >= 1);
            // Either the chosen threshold has >= 20 instances or the class is so rare
            // that even N=1 falls short (acceptable for the tiny smoke scale).
            if spec.threshold > 1 {
                assert!(spec.instances >= 20);
            }
        }
    }

    #[test]
    fn fig7_and_fig9_headers_present() {
        let scale = tiny();
        let f7 = fig7(scale);
        assert!(f7.contains("N cars"));
        assert_eq!(f7.lines().count(), 7);
        let f9 = fig9(scale);
        assert!(f9.contains("limit"));
        assert_eq!(f9.lines().count(), 8);
    }

    #[test]
    fn fig10_reports_three_methods() {
        let report = fig10(tiny());
        assert!(report.contains("naive"));
        assert!(report.contains("noscope"));
        assert!(report.contains("blazeit"));
        assert!(report.contains("false-negative"));
    }
}
