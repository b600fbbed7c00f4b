//! The ε/δ contract, measured: seeded trials of every path that states an
//! error bound, against the uncharged oracle (`baselines::oracle_fcount` /
//! `oracle_counts`, which run the same detector on every frame without
//! charging the shared clock).
//!
//! An aggregate asked for `ERROR WITHIN ε AT CONFIDENCE 1 − δ` promises an
//! answer within ε of the detector's exact answer with probability at least
//! 1 − δ; a stream update promises that its `ci` holds the window's exact
//! answer at its confidence. Each path runs N seeded trials on small, warm,
//! shared catalogs and counts the misses:
//!
//! | path | what varies per trial | miss |
//! |------|-----------------------|------|
//! | naive adaptive sampling | the sub-plan's sampling seed | `|value − truth| > ε` |
//! | control variates | the sub-plan's sampling seed | `|value − truth| > ε` |
//! | the rewrite's held-out bound | the configuration seed (a freshly trained network and bootstrap) | `|value − truth| > ε`, counted only where the planner rewrote |
//! | the streaming window CI | the window (non-overlapping ticks of one stream) | truth outside `ci` |
//! | `FROM *`'s composition | every sub-plan's sampling seed | `|total − Σ truth| > ε` |
//!
//! A path that covers must have a miss count consistent with δ: the exact
//! binomial upper tail `P(Bin(N, δ) ≥ misses)` stays at or above 10⁻³. A path
//! that misses is pinned the same way from the other side — its tail is below
//! 10⁻³ — and names the change that is meant to flip it, which then moves the
//! path to the covering list. Every trial is seeded, so the counts are exact
//! and reproducible.
//!
//! The printed table also reports each path's mean samples (detector calls)
//! and its mean half-width over ε: an interval much narrower than ε that still
//! covers is charged samples the stopping rule did not need. It runs in a
//! release build (well under a minute on two cores), so it is `#[ignore]`d in
//! the debug tier:
//!
//! ```text
//! cargo test --release --test coverage -- --ignored --nocapture
//! ```

use blazeit::core::baselines::{oracle_counts, oracle_fcount};
use blazeit::core::stats::normal_critical_value;
use blazeit::prelude::*;
use std::sync::Arc;

/// Trials per path.
const TRIALS: usize = 200;

/// Frames per generated day of the shared catalog's videos.
const FRAMES: u64 = 2_000;

/// The error tolerance every sampled aggregate asks for.
const EPSILON: f64 = 0.1;

/// The rewrite path's tolerance: at `EPSILON` the held-out bootstrap licenses
/// no rewrite on any of the three videos.
const REWRITE_EPSILON: f64 = 0.2;

/// The confidence every query asks for; δ is its complement.
const CONFIDENCE: f64 = 0.95;

/// The significance of the binomial test each path is held to.
const ALPHA: f64 = 1e-3;

/// The streaming path's window, which is also its tick interval, so the
/// windows do not overlap.
const WINDOW: u64 = 50;

const CAR: ObjectClass = ObjectClass::Car;

/// The shared catalog's videos, queried for cars.
const PRESETS: [DatasetPreset; 3] =
    [DatasetPreset::Taipei, DatasetPreset::NightStreet, DatasetPreset::Amsterdam];

/// The seed of trial `i`: distinct from every configured default.
fn trial_seed(i: usize) -> u64 {
    0x00C0_FE7A_0000 + i as u64
}

/// `P(X ≥ k)` for `X ~ Binomial(n, p)`, summed exactly over the pmf.
fn upper_tail(n: usize, p: f64, k: usize) -> f64 {
    let mut pmf = (1.0 - p).powi(n as i32);
    let mut tail = 0.0;
    for i in 0..=n {
        if i >= k {
            tail += pmf;
        }
        pmf *= (n - i) as f64 / (i + 1) as f64 * p / (1.0 - p);
    }
    tail.min(1.0)
}

/// One path's trials.
struct Tally {
    path: &'static str,
    /// The tolerance the path was asked for; a stream update states an
    /// interval, not a tolerance.
    epsilon: Option<f64>,
    misses: usize,
    trials: usize,
    samples: u64,
    half_widths: f64,
}

impl Tally {
    fn new(path: &'static str, epsilon: Option<f64>) -> Tally {
        Tally { path, epsilon, misses: 0, trials: 0, samples: 0, half_widths: 0.0 }
    }

    fn record(&mut self, miss: bool, samples: u64, half_width: f64) {
        self.trials += 1;
        self.misses += usize::from(miss);
        self.samples += samples;
        self.half_widths += half_width;
    }

    /// The binomial tail of this miss count under δ.
    fn tail(&self) -> f64 {
        upper_tail(self.trials, 1.0 - CONFIDENCE, self.misses)
    }

    fn report(&self) -> String {
        let n = self.trials.max(1) as f64;
        let half_width = self.half_widths / n;
        let width = match self.epsilon {
            Some(epsilon) => format!("mean half-width/ε {:.3}", half_width / epsilon),
            None => format!("mean half-width {half_width:.3}"),
        };
        format!(
            "{:<24} N={:>3}  miss rate {:.3} (δ = {:.2}, P(Bin ≥ misses) = {:.1e})  \
             mean samples {:>5.1}  {width}",
            self.path,
            self.trials,
            self.misses as f64 / n,
            1.0 - CONFIDENCE,
            self.tail(),
            self.samples as f64 / n,
        )
    }

    /// The path keeps its stated confidence.
    fn assert_covers(&self) {
        assert!(self.trials >= TRIALS, "{}: only {} trials", self.path, self.trials);
        assert!(
            self.tail() >= ALPHA,
            "{} misses more often than δ allows: {}",
            self.path,
            self.report()
        );
    }

    /// The path is known to miss; `flipped_by` names the change that fixes it.
    fn assert_misses(&self, flipped_by: &str) {
        assert!(self.trials >= TRIALS, "{}: only {} trials", self.path, self.trials);
        assert!(
            self.tail() < ALPHA,
            "{} now covers — {flipped_by} landed? Move it to the covering paths: {}",
            self.path,
            self.report()
        );
    }
}

fn fcount_sql(from: &str, error: f64) -> String {
    format!(
        "SELECT FCOUNT(*) FROM {from} WHERE class = 'car' ERROR WITHIN {error} \
         AT CONFIDENCE {}%",
        CONFIDENCE * 100.0
    )
}

/// One sampled single-video FCOUNT, with `edit` applied to its sub-plan.
fn sampled_trial(
    catalog: &Catalog,
    truth: f64,
    z: f64,
    seed: u64,
    edit: impl FnOnce(&mut VideoPlan),
    tally: &mut Tally,
) {
    let mut prepared = catalog.session().prepare(&fcount_sql("taipei", EPSILON)).unwrap();
    let sub = prepared.plan_mut().only_mut();
    edit(sub);
    sub.sampling.as_mut().expect("an ERROR WITHIN aggregate samples").seed = seed;
    let QueryOutput::Aggregate { value, standard_error, detection_calls, .. } =
        prepared.run().unwrap().output
    else {
        panic!("expected a single-video aggregate");
    };
    let half_width = z * standard_error.expect("a sampled estimate has a standard error");
    tally.record((value - truth).abs() > EPSILON, detection_calls, half_width);
}

/// Naive sampling and control variates on taipei.
fn sampling_paths(catalog: &Catalog, z: f64) -> (Tally, Tally) {
    let ctx = catalog.context("taipei").unwrap();
    let (truth, _) = oracle_fcount(&ctx, Some(CAR));
    let heads = vec![(CAR, ctx.default_max_count(CAR, 1))];
    let mut naive = Tally::new("naive adaptive sampling", Some(EPSILON));
    let mut control = Tally::new("control variates", Some(EPSILON));
    for i in 0..TRIALS {
        let seed = trial_seed(i);
        let naive_plan = |sub: &mut VideoPlan| sub.strategy = PlanStrategy::NaiveSampling;
        sampled_trial(catalog, truth, z, seed, naive_plan, &mut naive);
        let control_plan = |sub: &mut VideoPlan| {
            sub.strategy =
                PlanStrategy::SpecializedAggregate { decision: RewriteDecision::ControlVariates };
            sub.heads = heads.clone();
        };
        sampled_trial(catalog, truth, z, seed, control_plan, &mut control);
    }
    (naive, control)
}

/// The rewrite's held-out bound: each trial registers one of the shared
/// catalog's videos, with its labeled days, under a fresh configuration seed,
/// so the planner trains a fresh network and bootstraps its own held-out
/// error. Only trials where the planner rewrote test the bound, so seeds run
/// over the videos until `TRIALS` of them did.
fn rewrite_path(catalog: &Catalog) -> Tally {
    let bases = catalog.contexts();
    let truths: Vec<f64> = bases.iter().map(|ctx| oracle_fcount(ctx, Some(CAR)).0).collect();
    let mut tally = Tally::new("rewrite held-out bound", Some(REWRITE_EPSILON));
    let mut per_video = vec![(0usize, 0usize, 0usize); bases.len()];
    let mut attempt = 0;
    while tally.trials < TRIALS {
        assert!(attempt < 4 * TRIALS, "the planner rewrote on {} of {attempt}", tally.trials);
        let v = attempt % bases.len();
        let (base, truth) = (&bases[v], truths[v]);
        let trial = Catalog::new();
        let config = base.config().with_seed(trial_seed(attempt / bases.len()));
        attempt += 1;
        let ctx =
            trial.register((*base.video()).clone(), Arc::clone(base.labeled()), config).unwrap();
        let name = ctx.video().name().to_string();
        let result = trial.session().query(&fcount_sql(&name, REWRITE_EPSILON)).unwrap();
        let QueryOutput::Aggregate { value, method, .. } = result.output else {
            panic!("expected a single-video aggregate");
        };
        per_video[v].0 += 1;
        if method != AggregateMethod::QueryRewriting {
            continue;
        }
        // The rewrite's interval is the bootstrap's error quantile at the
        // requested confidence: the bound the planner checked.
        let heads = vec![(CAR, ctx.default_max_count(CAR, 1))];
        let nn = ctx.specialized_for(&heads).unwrap();
        let calibration = ctx.heldout_calibration(&nn).unwrap();
        let mut errors = calibration.head(CAR).unwrap().fcount_error.bootstrap_errors.clone();
        errors.sort_by(f64::total_cmp);
        let at = ((CONFIDENCE * errors.len() as f64).ceil() as usize).clamp(1, errors.len());
        let miss = (value - truth).abs() > REWRITE_EPSILON;
        per_video[v].1 += 1;
        per_video[v].2 += usize::from(miss);
        tally.record(miss, 0, errors[at - 1]);
    }
    for (base, (attempts, rewrites, misses)) in bases.iter().zip(per_video) {
        println!(
            "  rewrite on {:<13} rewrote {rewrites:>3} of {attempts:>3} seeds, missed {misses:>3}",
            base.video().name()
        );
    }
    tally
}

/// Every non-overlapping window of one taipei stream, each checked against the
/// exact FCOUNT of its frames.
fn stream_path() -> Tally {
    let frames = WINDOW * (TRIALS as u64 + 1);
    let catalog = Catalog::new();
    catalog
        .register_stream_preset(DatasetPreset::Taipei, frames, WINDOW, DriftConfig::disabled())
        .unwrap();
    let mut sub = catalog
        .session()
        .subscribe(&format!(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' WINDOW {WINDOW} FRAMES \
             EVERY {WINDOW} FRAMES AT CONFIDENCE {}%",
            CONFIDENCE * 100.0
        ))
        .unwrap();
    let stream = catalog.stream("taipei").unwrap();
    stream.advance_to(frames).unwrap();
    let updates = sub.poll().unwrap();
    assert_eq!(updates.len(), TRIALS);
    let ctx = catalog.context("taipei").unwrap();
    let counts = oracle_counts(&ctx, &ctx.video());
    let mut tally = Tally::new("streaming window CI", None);
    for update in updates {
        let (lo, hi) = update.range;
        let window = &counts[lo as usize..hi as usize];
        let truth = window.iter().map(|c| c.get(CAR) as f64).sum::<f64>() / window.len() as f64;
        let miss = truth < update.ci.0 || truth > update.ci.1;
        tally.record(miss, 0, (update.ci.1 - update.ci.0) / 2.0);
    }
    tally
}

/// `FROM *` over the shared catalog: every sub-plan samples under its own
/// trial seed, and the total is checked against the sum of the per-video
/// truths.
fn catalog_path(catalog: &Catalog, z: f64) -> Tally {
    let truth: f64 = catalog.contexts().iter().map(|ctx| oracle_fcount(ctx, Some(CAR)).0).sum();
    let mut tally = Tally::new("FROM * composition", Some(EPSILON));
    for i in 0..TRIALS {
        let seed = trial_seed(i);
        let mut prepared = catalog.session().prepare(&fcount_sql("*", EPSILON)).unwrap();
        for (v, sub) in prepared.plan_mut().subplans.iter_mut().enumerate() {
            if let Some(sampling) = sub.sampling.as_mut() {
                sampling.seed = seed ^ ((v as u64) << 40);
            }
        }
        let QueryOutput::CatalogAggregate { value, standard_error, detection_calls, .. } =
            prepared.run().unwrap().output
        else {
            panic!("expected a catalog aggregate");
        };
        let half_width = z * standard_error.unwrap_or(0.0);
        tally.record((value - truth).abs() > EPSILON, detection_calls, half_width);
    }
    tally
}

#[test]
fn binomial_tail_is_exact_on_small_cases() {
    assert!((upper_tail(3, 0.5, 0) - 1.0).abs() < 1e-12);
    assert!((upper_tail(3, 0.5, 2) - 0.5).abs() < 1e-12);
    assert!((upper_tail(3, 0.5, 3) - 0.125).abs() < 1e-12);
    assert!((upper_tail(200, 0.05, 201)).abs() < 1e-12);
}

#[test]
#[ignore = "release-build statistics run: cargo test --release --test coverage -- --ignored"]
fn every_error_bound_is_measured_against_the_oracle() {
    let z = normal_critical_value(CONFIDENCE);
    let catalog = Catalog::new();
    for preset in PRESETS {
        catalog.register_preset(preset, FRAMES).unwrap();
    }
    let (naive, control) = sampling_paths(&catalog, z);
    let rewrite = rewrite_path(&catalog);
    let stream = stream_path();
    let from_star = catalog_path(&catalog, z);
    for tally in [&naive, &control, &rewrite, &stream, &from_star] {
        println!("{}", tally.report());
    }
    // Optional stopping (a fixed z re-checked after every batch) could
    // under-cover; at N = 200 neither sampler's miss rate tells it from δ.
    naive.assert_covers();
    control.assert_covers();
    // The bootstrap measures the network's error on the held-out day; the
    // test day's error differs by more, so a licensed rewrite still misses.
    rewrite.assert_misses("ROADMAP item 14(a), a rewrite bound that holds across days");
    // `Subscription::poll` treats per-frame residuals as independent, but
    // objects persist across frames, so the interval is too narrow.
    stream.assert_misses("ROADMAP item 14(b), a window CI for correlated frames");
    // Every sub-plan is handed the query's own ε, so the composed interval is
    // up to √k·ε wide for k videos.
    from_star.assert_misses("ROADMAP item 4, a stratified FROM * under one ε");
}
