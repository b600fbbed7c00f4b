//! One function per table / figure of the paper's evaluation (Section 10).
//!
//! Every function returns a formatted, human-readable report whose rows correspond to
//! the rows / series of the original table or figure. Runtimes are simulated GPU
//! seconds from the shared cost model (decode excluded), exactly the accounting the
//! paper uses; "samples" are object-detection invocations.

use crate::{
    catalog_for, context_of, fcount_sql, run_plan, scrub_sql, specialized_fcount, ExperimentScale,
    AGGREGATION_PRESETS, ALL_PRESETS,
};
use blazeit_core::baselines;
use blazeit_core::metrics::{format_speedup_table, RuntimeReport};
use blazeit_core::scrub::ScrubOptions;
use blazeit_core::select::{ground_truth_tracks, red_bus_query, SelectionOptions};
use blazeit_core::{
    Catalog, PlanStrategy, QueryOutput, QueryResult, RewriteDecision, VideoContext, VideoPlan,
};
use blazeit_detect::clock::CostBreakdown;
use blazeit_videostore::stats::VideoStats;
use blazeit_videostore::{DatasetPreset, ObjectClass};
use std::fmt::Write as _;

fn cost_since(ctx: &VideoContext, before: &CostBreakdown) -> CostBreakdown {
    ctx.clock().breakdown().since(before)
}

/// A query result as one bar of a figure.
fn report(name: &str, result: &QueryResult) -> RuntimeReport {
    RuntimeReport::from_cost(name, result.cost, result.output.detection_calls())
}

/// The rewrite's FCOUNT of the preset's primary class on its test day.
fn rewrite_fcount(catalog: &Catalog, preset: DatasetPreset) -> f64 {
    let class = preset.primary_class();
    let rewrite = specialized_fcount(&context_of(catalog, preset), class, RewriteDecision::Rewrite);
    let result = run_plan(catalog, &fcount_sql(preset, class, 0.1), rewrite);
    result.output.aggregate_value().expect("rewrite answers an FCOUNT")
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
        let sql = fcount_sql(preset, class, 0.1);

        // Naive: the exact plan, detector on every frame.
        let naive = report(
            "naive",
            &run_plan(&catalog, &sql, |sub| sub.strategy = PlanStrategy::ExactScan),
        );

        // NoScope oracle.
        let before = engine.clock().breakdown();
        let (_, ns_calls) = baselines::noscope_fcount(engine, class).expect("noscope");
        let noscope =
            RuntimeReport::from_cost("noscope (oracle)", cost_since(engine, &before), ns_calls);

        // Naive AQP: adaptive sampling without a specialized network.
        let aqp = run_plan(&catalog, &sql, |sub| sub.strategy = PlanStrategy::NaiveSampling);
        let aqp = report("aqp (naive)", &aqp);

        // BlazeIt (Algorithm 1), as planned, including training time.
        let result = run_plan(&catalog, &sql, |_| {});
        let blazeit_value = result.output.aggregate_value().unwrap_or(0.0);
        let method = match &result.output {
            QueryOutput::Aggregate { method, .. } => format!("{method:?}"),
            _ => "unknown".into(),
        };
        let blazeit = report("blazeit", &result);
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
            let value = rewrite_fcount(&catalog, preset);
            let (truth, _) = baselines::oracle_fcount(&context_of(&catalog, preset), Some(class));
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

        let pred2 = rewrite_fcount(&catalog, preset);
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
        let ctx = context_of(&catalog, preset);
        let first_seed = ctx.config().sampling_seed;
        let class = preset.primary_class();
        let naive = |sub: &mut VideoPlan| sub.strategy = PlanStrategy::NaiveSampling;
        let control_variates = specialized_fcount(&ctx, class, RewriteDecision::ControlVariates);
        for &error in &FIG5_ERRORS {
            let sql = fcount_sql(preset, class, error);
            // Detector samples of one sampling strategy under one seed.
            let samples = |strategy: &dyn Fn(&mut VideoPlan), seed: u64| {
                let result = run_plan(&catalog, &sql, |sub| {
                    strategy(sub);
                    if let Some(sampling) = &mut sub.sampling {
                        sampling.seed = seed;
                    }
                });
                result.output.detection_calls()
            };
            let mut naive_total = 0u64;
            let mut cv_total = 0u64;
            for run in 0..scale.runs {
                let seed = first_seed + run * 104_729;
                naive_total += samples(&naive, seed);
                cv_total += samples(&control_variates, seed);
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
    catalog: &Catalog,
    preset: DatasetPreset,
    requirements: &[(ObjectClass, usize)],
    opts: ScrubOptions,
) -> Vec<RuntimeReport> {
    let sql = scrub_sql(preset, requirements, opts);

    // Naive sequential scan.
    let naive = run_plan(catalog, &sql, |sub| sub.strategy = PlanStrategy::ScrubScan);
    let naive = report("naive", &naive);

    // NoScope oracle.
    let ctx = context_of(catalog, preset);
    let before = ctx.clock().breakdown();
    let (_, ns_calls) =
        baselines::noscope_scrub(&ctx, requirements, opts.limit, opts.gap).expect("noscope scrub");
    let noscope = RuntimeReport::from_cost("noscope (oracle)", cost_since(&ctx, &before), ns_calls);

    // BlazeIt: training + scoring + verification in the specialized network's order.
    // The heads are the planner's, named so that a requirement the labeled days never
    // show is still ranked rather than planned as the scan.
    let heads: Vec<(ObjectClass, usize)> =
        requirements.iter().map(|&(class, n)| (class, ctx.default_max_count(class, n))).collect();
    let result = run_plan(catalog, &sql, |sub| {
        sub.strategy = PlanStrategy::ScrubRanked;
        sub.heads = heads;
    });
    let blazeit = report("blazeit", &result);
    // Indexed: the specialized NN was trained and run ahead of time (e.g. by a previous
    // aggregate query), so only detector verification is charged.
    let verification_only =
        CostBreakdown { detection: result.cost.detection, ..Default::default() };
    let indexed = RuntimeReport::from_cost(
        "blazeit (indexed)",
        verification_only,
        result.output.detection_calls(),
    );
    vec![naive, noscope, blazeit, indexed]
}

/// Figure 6: end-to-end scrubbing runtime on each video's Table 6 query (LIMIT 10).
pub fn fig6(scale: ExperimentScale) -> String {
    let mut out = String::new();
    for spec in table6_specs(scale) {
        let catalog = catalog_for(spec.preset, scale);
        let requirements = [(spec.class, spec.threshold)];
        let opts = ScrubOptions { limit: 10, gap: 300 };
        let reports = scrub_variants(&catalog, spec.preset, &requirements, opts);
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
    let opts = ScrubOptions { limit: 10, gap: 300 };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>7} {:>14} {:>16} {:>14} {:>10}",
        "N cars", "naive samples", "noscope samples", "blazeit", "instances"
    );
    let counts = baselines::oracle_counts(&engine, &engine.video());
    for n in 1..=6usize {
        let requirements = [(ObjectClass::Car, n)];
        let instances = counts.iter().filter(|c| c.get(ObjectClass::Car) >= n).count();
        let [naive, noscope, blazeit] =
            scrub_calls(&catalog, DatasetPreset::Taipei, &requirements, opts);
        let _ = writeln!(
            out,
            "{:>7} {:>14} {:>16} {:>14} {:>10}",
            n, naive, noscope, blazeit, instances
        );
    }
    out
}

/// The detector calls of the naive scan, the NoScope oracle and BlazeIt for one scrub
/// (the sample complexity of Figures 7 and 9).
fn scrub_calls(
    catalog: &Catalog,
    preset: DatasetPreset,
    requirements: &[(ObjectClass, usize)],
    opts: ScrubOptions,
) -> [u64; 3] {
    let reports = scrub_variants(catalog, preset, requirements, opts);
    [0, 1, 2].map(|i| reports[i].detection_calls)
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
    let (requirements, instances) = multiclass_requirements(&engine, 15);
    let opts = ScrubOptions { limit: 10, gap: 300 };
    let reports = scrub_variants(&catalog, DatasetPreset::Taipei, &requirements, opts);
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
    let (requirements, _) =
        multiclass_requirements(&context_of(&catalog, DatasetPreset::Taipei), 15);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>16} {:>14}",
        "limit", "naive samples", "noscope samples", "blazeit"
    );
    for limit in [1u64, 5, 10, 15, 20, 25, 30] {
        let opts = ScrubOptions { limit, gap: 300 };
        let [naive, noscope, blazeit] =
            scrub_calls(&catalog, DatasetPreset::Taipei, &requirements, opts);
        let _ = writeln!(out, "{:>6} {:>14} {:>16} {:>14}", limit, naive, noscope, blazeit);
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

    // Naive: detection on every frame (the plan with every filter off).
    let naive_result = run_plan(&catalog, &sql, |sub| sub.selection = SelectionOptions::none());
    let naive = report("naive", &naive_result);

    // NoScope oracle: detection on frames with any bus present.
    let before = engine.clock().breakdown();
    let (_, ns_calls) =
        baselines::noscope_selection_scan(engine, ObjectClass::Bus).expect("noscope");
    let noscope =
        RuntimeReport::from_cost("noscope (oracle)", cost_since(engine, &before), ns_calls);

    // BlazeIt with all inferred filters.
    let blazeit_result = run_plan(&catalog, &sql, |sub| sub.selection = SelectionOptions::all());
    let blazeit = report("blazeit", &blazeit_result);

    // False-negative rate at the (ground-truth) track level versus the naive result
    // set. Tracker ids are scan-local, so result sets are compared through the scene's
    // ground-truth track identities.
    let tracks = |result: &QueryResult| {
        ground_truth_tracks(engine, result.output.rows().unwrap_or_default())
    };
    let naive_tracks = tracks(&naive_result);
    let blazeit_tracks = tracks(&blazeit_result);
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
    let sql = selection_query("taipei");
    let video_frames = context_of(&catalog, DatasetPreset::Taipei).video().len() as f64;

    let run = |opts: &SelectionOptions| -> (f64, u64) {
        let report = report("", &run_plan(&catalog, &sql, |sub| sub.selection = *opts));
        (report.runtime_secs, report.detection_calls)
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
