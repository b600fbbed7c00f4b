//! Diagnostic: how well does the specialized counting NN track the detector's
//! frame-averaged counts across days? Used to tune training hyperparameters; not part
//! of the paper's experiment suite.

use blazeit_bench::{fcount_sql, run_plan, specialized_fcount};
use blazeit_core::{baselines, BlazeItConfig, Catalog, RewriteDecision};
use blazeit_nn::train::TrainConfig;
use blazeit_videostore::{DatasetPreset, Video};

fn main() {
    let frames: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4_000);
    let epochs: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let lr: f32 = std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let hidden: usize = std::env::args().nth(4).and_then(|s| s.parse().ok()).unwrap_or(48);

    for preset in [DatasetPreset::Taipei, DatasetPreset::NightStreet, DatasetPreset::Rialto] {
        let class = preset.primary_class();
        let mut config = BlazeItConfig::for_preset(preset);
        config.train = TrainConfig { epochs, ..TrainConfig::default() };
        config.train.sgd.learning_rate = lr;
        config.specialized_hidden = vec![hidden];
        if let Ok(g) = std::env::var("GRID") {
            config.features.grid_side = g.parse().unwrap_or(12);
        }
        let catalog = Catalog::new();
        catalog.register_preset_with_config(preset, frames, config).expect("register");
        let engine = catalog.context(preset.name()).expect("registered");
        let engine = &*engine;

        let max_count = engine.default_max_count(class, 1);
        let nn = engine.specialized_for(&[(class, max_count)]).expect("train");

        // Held-out day error estimate.
        let calibration = engine.heldout_calibration(&nn).expect("held-out calibration");
        let est = &calibration.head(class).expect("head for the primary class").fcount_error;

        // Test-day rewrite (the plan forced to answer from the network alone) vs
        // detector ground truth.
        let force_rewrite = specialized_fcount(engine, class, RewriteDecision::Rewrite);
        let rewrite = run_plan(&catalog, &fcount_sql(preset, class, 0.1), force_rewrite)
            .output
            .aggregate_value()
            .expect("rewrite answers an FCOUNT");
        let (truth, _) = baselines::oracle_fcount(engine, Some(class));

        // Does the per-frame prediction vary at all, and does it correlate with truth?
        let head = nn.head_index(class).expect("head for the primary class");
        let sampled = |video: &Video| -> (Vec<f64>, Vec<f64>) {
            let frames: Vec<u64> = (0..video.len()).step_by(17).collect();
            let scores = nn.score_batch(video, &frames).expect("score");
            let preds = (0..frames.len()).map(|i| scores.expected_count(i, head)).collect();
            let truths = frames
                .iter()
                .map(|&f| video.ground_truth_count(f, class).unwrap() as f64)
                .collect();
            (preds, truths)
        };
        let (preds, truths) = sampled(&engine.video());
        let pstd = std(&preds);
        let corr = blazeit_core::stats::correlation(&preds, &truths);
        // Training-day correlation: distinguishes underfitting from day-to-day shift.
        let (tr_preds, tr_truths) = sampled(engine.labeled().train_video());
        let tr_corr = blazeit_core::stats::correlation(&tr_preds, &tr_truths);

        // Train-day means for reference.
        let train_mean = mean(&engine.labeled().train().class_counts(class));

        println!(
            "{:<14} class={:<5} K={} | train_mean={:.3} heldout: pred={:.3} true={:.3} err={:.3} | test: pred={:.3} true={:.3} err={:.3} | pred_std={:.3} corr={:.3} train_corr={:.3}",
            preset.name(),
            class.name(),
            max_count,
            train_mean,
            est.mean_predicted,
            est.mean_true,
            est.abs_error,
            rewrite,
            truth,
            (rewrite - truth).abs(),
            pstd,
            corr,
            tr_corr
        );
    }
}

fn mean(values: &[usize]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<usize>() as f64 / values.len() as f64
}

fn std(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = values.iter().sum::<f64>() / values.len() as f64;
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}
