//! Per-layer probes: each layer's public functions, timed from outside at
//! the shapes the workloads use (4000-frame presets, 256-frame batches).
//!
//! Layers are this repo's modules. Every timing is a quiet-slice median
//! over repeated calls; counts are computed from sizes and said so. Each
//! probe group runs in the traced run of the workloads on which that layer
//! does the work (`README.md` has the table of which metric should move
//! which end-to-end number); on the others the metric reads 0 — the layer
//! does nothing there, which is the prediction an optimisation is held to.

use crate::proc::TempDir;
use crate::queries::{Op, VIDEOS};
use crate::stats::{self, Better};
use blazeit::nn::{ForwardScratch, FrameFeaturizer, Matrix, Network, NetworkConfig};
use blazeit::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Measured per-layer values by metric name.
pub type Measured = BTreeMap<&'static str, f64>;

/// Frames per scoring batch on the streaming path (one ingest tick).
const BATCH: usize = 256;

/// Seconds one call of `f` takes.
pub fn secs(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// Seconds each of `n` calls of `f` takes, in call order.
pub fn sample(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n).map(|_| secs(&mut f)).collect()
}

/// Quiet-slice median of a series of timings (lowest slice): slices of up
/// to 5, single samples when the series is short (see [`stats::slice_bounds`]).
pub fn quiet(samples: &[f64]) -> f64 {
    stats::quiet_slice(&[samples], 5, Better::Lower, stats::median).map_or(f64::NAN, |s| s.best)
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The specialized-network heads every car query in the workloads plans.
type Heads = Vec<(ObjectClass, usize)>;

/// A fresh context over the taipei preset (nothing trained, nothing
/// scored) with the heads the workloads' queries plan on it.
fn fresh_taipei(frames: u64) -> Result<(Arc<VideoContext>, Heads), String> {
    let ctx = Catalog::new().register_preset(DatasetPreset::Taipei, frames).map_err(text)?;
    let heads = vec![(ObjectClass::Car, ctx.default_max_count(ObjectClass::Car, 1))];
    Ok((ctx, heads))
}

/// `frameql.parse_us`: `parse_query` over the workload's own query list.
pub fn frameql(ops: &[Op], out: &mut Measured) {
    let per_pass = sample(30, || {
        for op in ops {
            let _ = black_box(parse_query(black_box(&op.sql)));
        }
    });
    out.insert("frameql.parse_us", quiet(&per_pass) / ops.len().max(1) as f64 * 1e6);
}

/// The `nn` layer's training and full-video scoring path (what a cold query
/// and a stream's set-up pay): `nn.train_ms`, `nn.heldout_score_ms`,
/// `nn.score_video_frames_per_s`. Returns the last trained network with
/// its context for the kernel probes.
pub fn nn_cold(
    frames: u64,
    repeats: usize,
    out: &mut Measured,
) -> Result<(Arc<VideoContext>, Arc<SpecializedNN>), String> {
    let mut train = Vec::new();
    let mut heldout = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let (ctx, heads) = fresh_taipei(frames)?;
        let started = Instant::now();
        let nn = ctx.specialized_for(&heads).map_err(text)?;
        train.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        ctx.heldout_score_index(&nn).map_err(text)?;
        heldout.push(started.elapsed().as_secs_f64());
        last = Some((ctx, nn));
    }
    let (ctx, nn) = last.ok_or("no training repeat ran")?;
    out.insert("nn.train_ms", quiet(&train) * 1e3);
    out.insert("nn.heldout_score_ms", quiet(&heldout) * 1e3);
    let video = ctx.video();
    let score = sample(10, || {
        black_box(nn.score_video(&video)).ok();
    });
    out.insert("nn.score_video_frames_per_s", video.len() as f64 / quiet(&score));
    Ok((ctx, nn))
}

/// The `nn` kernels at the streaming shape, one 256-frame tail at a time:
/// `nn.score_batch256_frames_per_s`, `nn.featurize_us_per_frame`,
/// `nn.forward_us_per_frame`, `nn.matmul_gflops`, and the sampled render
/// underneath featurization, `videostore.render_sampled_us_per_frame`.
pub fn nn_kernels(
    ctx: &VideoContext,
    nn: &SpecializedNN,
    out: &mut Measured,
) -> Result<(), String> {
    let video = ctx.video();
    let batches = (video.len() as usize / BATCH).max(1);
    let batch_frames = |i: usize| -> Vec<u64> {
        (0..BATCH as u64).map(|f| ((i % batches) * BATCH) as u64 + f).collect()
    };
    let mut batch = 0;
    let score = sample(40, || {
        black_box(nn.score_batch(&video, &batch_frames(batch))).ok();
        batch += 1;
    });
    out.insert("nn.score_batch256_frames_per_s", BATCH as f64 / quiet(&score));

    let features = nn.config().features;
    let featurizer = FrameFeaturizer::new(features);
    let mut row = vec![0.0f32; featurizer.dim()];
    let mut batch = 0;
    let featurize = sample(20, || {
        for frame in batch_frames(batch) {
            featurizer.features_for_video_frame_into(&video, frame, &mut row).ok();
        }
        black_box(&row);
        batch += 1;
    });
    out.insert("nn.featurize_us_per_frame", quiet(&featurize) / BATCH as f64 * 1e6);
    let mut batch = 0;
    let render = sample(20, || {
        for frame in batch_frames(batch) {
            black_box(video.frame_sampled(frame, features.grid_side, features.grid_side)).ok();
        }
        batch += 1;
    });
    out.insert("videostore.render_sampled_us_per_frame", quiet(&render) / BATCH as f64 * 1e6);

    // The trained network's weights are private to `SpecializedNN`; a fresh
    // network of the same architecture costs the same per forward pass.
    let config = NetworkConfig {
        input_dim: featurizer.dim(),
        hidden: nn.config().hidden.clone(),
        heads: nn.head_sizes(),
        seed: nn.config().seed,
    };
    let network = Network::new(config.clone()).map_err(text)?;
    let mut input = Matrix::zeros(BATCH, config.input_dim);
    for (i, x) in input.data_mut().iter_mut().enumerate() {
        *x = (i % 17) as f32 * 0.05 - 0.4;
    }
    let mut scratch = ForwardScratch::default();
    let forward = sample(60, || {
        black_box(network.predict_scores(black_box(&input), &mut scratch)).ok();
    });
    out.insert("nn.forward_us_per_frame", quiet(&forward) / BATCH as f64 * 1e6);

    // The layer shapes of that forward pass; the operation count is computed
    // from the shapes (2·m·k·n per product), not measured.
    let mut widths = vec![config.input_dim];
    widths.extend(&config.hidden);
    widths.push(config.output_dim());
    let mut products = Vec::new();
    let mut flops = 0.0;
    let mut left = input;
    for pair in widths.windows(2) {
        let right = Matrix::zeros(pair[0], pair[1]);
        let product = Matrix::zeros(BATCH, pair[1]);
        flops += 2.0 * (BATCH * pair[0] * pair[1]) as f64;
        products.push((left, right, product.clone()));
        left = product;
    }
    let matmul = sample(60, || {
        for (left, right, product) in &mut products {
            left.matmul_into(right, product).ok();
        }
        black_box(&products);
    });
    out.insert("nn.matmul_gflops", flops / quiet(&matmul) * 1e-9);
    Ok(())
}

/// `videostore.generate_ms`: generating one 4000-frame preset day.
pub fn videostore_generate(frames: u64, out: &mut Measured) {
    let generate = sample(20, || {
        black_box(DatasetPreset::Taipei.generate_with_frames(DAY_TEST, frames)).ok();
    });
    out.insert("videostore.generate_ms", quiet(&generate) * 1e3);
}

/// What selection pays per frame it verifies: the full-frame render
/// (`videostore.render_full_us_per_frame`) and the simulated detector
/// (`detect.detect_us_per_frame`), over the first 1000 frames of amsterdam.
pub fn select_path(frames: u64, out: &mut Measured) -> Result<(), String> {
    let catalog = Catalog::new();
    let ctx = catalog.register_preset(DatasetPreset::Amsterdam, frames).map_err(text)?;
    let video = ctx.video();
    let span = video.len().min(1000);
    let chunk = 50u64;
    let mut at = 0u64;
    let render = sample((span / chunk) as usize, || {
        for frame in at..at + chunk {
            black_box(video.frame(frame)).ok();
        }
        at += chunk;
    });
    out.insert("videostore.render_full_us_per_frame", quiet(&render) / chunk as f64 * 1e6);
    let mut at = 0u64;
    let detect = sample((span / chunk) as usize, || {
        for frame in at..at + chunk {
            black_box(ctx.detector().detect(&video, frame));
        }
        at += chunk;
    });
    out.insert("detect.detect_us_per_frame", quiet(&detect) / chunk as f64 * 1e6);
    Ok(())
}

/// The `store` layer (`core::store` + `nn::persist`), on a temporary
/// directory: a store is populated once by running `ops` through a
/// store-backed catalog; then `store.disk_warm_ms` (open + three
/// registrations + the first aggregate, answered from disk),
/// `store.open_register_ms` (the part before the query), and direct
/// `IndexStore` calls on one network and one 4000-frame score matrix.
pub fn store(
    out_dir: &Path,
    frames: u64,
    ops: &[Op],
    nn: &SpecializedNN,
    video: &Video,
    out: &mut Measured,
) -> Result<(), String> {
    let dir = TempDir::create(out_dir, "store")?;
    let open = |path: &Path| -> Result<Catalog, String> {
        let catalog = Catalog::with_index_store(path).map_err(text)?;
        for preset in VIDEOS {
            catalog.register_preset(preset, frames).map_err(text)?;
        }
        Ok(catalog)
    };
    let populate = open(dir.path())?;
    for op in ops {
        populate.session().query(&op.sql).map_err(text)?;
    }
    drop(populate);

    let mut opened = Vec::new();
    let mut answered = Vec::new();
    let first = ops.first().ok_or("no query to answer from disk")?;
    for _ in 0..8 {
        let started = Instant::now();
        let catalog = open(dir.path())?;
        opened.push(started.elapsed().as_secs_f64());
        let result = catalog.session().query(&first.sql).map_err(text)?;
        answered.push(started.elapsed().as_secs_f64());
        if result.cost.training > 0.0 || result.cost.specialized > 0.0 {
            return Err("the disk-warm query trained or scored instead of loading".to_string());
        }
    }
    out.insert("store.open_register_ms", quiet(&opened) * 1e3);
    out.insert("store.disk_warm_ms", quiet(&answered) * 1e3);

    let index = IndexStore::open(dir.path().join("direct")).map_err(text)?;
    let scores = nn.score_video(video).map_err(text)?;
    let clock = SimClock::new();
    index.store_network("probe", "network", nn).map_err(text)?;
    let store_scores = sample(20, || {
        index.store_scores("probe", "scores", &scores).ok();
    });
    let load_scores = sample(20, || {
        black_box(index.load_scores("probe", "scores")).ok();
    });
    let load_network = sample(20, || {
        black_box(index.load_network("probe", "network", &clock)).ok();
    });
    out.insert("store.store_scores_ms", quiet(&store_scores) * 1e3);
    out.insert("store.load_scores_ms", quiet(&load_scores) * 1e3);
    out.insert("store.load_network_ms", quiet(&load_network) * 1e3);
    // A count, from the artifact's size on disk.
    let bytes = std::fs::metadata(index.scores_path("probe", "scores")).map_err(text)?.len();
    out.insert("store.bytes_per_frame", bytes as f64 / scores.num_frames() as f64);
    Ok(())
}
