//! The pinned charge and work table: what each query shape is charged and how
//! much host work it does, one row per (shape, preset, seed).
//!
//! Every row is recomputed in-process and diffed against `tests/charges.tsv`.
//! The columns are the simulated seconds per `CostCategory`, then the span
//! counters an `EXPLAIN ANALYZE` trace keeps. A sampled aggregate makes one
//! detector call per sample, so `detector_calls` is also its sample count;
//! training is pinned by its `training` seconds, which are charged per example.
//!
//! The rows run in table order on one catalog per seed, so a row sees the
//! caches the rows above it warmed: the first row that needs a network trains
//! it, and the rows after it reuse it. Seconds are printed to nine decimals,
//! because a fan-out folds its per-video charges in scheduling order.
//!
//! A change that moves a charge or a work count re-blesses the table in its
//! own diff and says why:
//!
//! ```text
//! BLESS=1 cargo test --test charges
//! ```

use blazeit::core::obs;
use blazeit::detect::clock::CostCategory;
use blazeit::prelude::*;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Frames per generated day: small enough for the debug build tier-1 runs.
const FRAMES: u64 = 600;

/// The ingest tick of the stream rows.
const TICK: u64 = 256;

/// Two sampling seeds: the configured default and one other.
const SEEDS: [u64; 2] = [0xB1A2_E175, 7];

/// Two presets, each queried for its own class.
const PRESETS: [(DatasetPreset, ObjectClass); 2] =
    [(DatasetPreset::Taipei, ObjectClass::Car), (DatasetPreset::NightStreet, ObjectClass::Car)];

/// The span counters the table pins, in column order.
const COUNTERS: [&str; 8] = [
    obs::COUNTER_DETECTOR_CALLS,
    obs::COUNTER_FRAMES_SCORED,
    obs::COUNTER_FRAMES_RANKED,
    obs::COUNTER_FRAMES_RENDERED,
    obs::COUNTER_FRAMES_CONSIDERED,
    obs::COUNTER_FRAMES_AFTER_CONTENT,
    obs::COUNTER_FRAMES_AFTER_LABEL,
    obs::COUNTER_CACHE_HITS,
];

fn header() -> String {
    let mut header = "shape\tvideo\tseed".to_string();
    for category in CostCategory::ALL {
        write!(header, "\t{}", category.label()).unwrap();
    }
    for counter in COUNTERS {
        write!(header, "\t{counter}").unwrap();
    }
    header
}

/// One table row from a trace.
fn row(shape: &str, video: &str, seed: u64, trace: &QueryTrace) -> String {
    let cost = trace.total_cost();
    let mut line = format!("{shape}\t{video}\t{seed}");
    for category in CostCategory::ALL {
        write!(line, "\t{:.9}", cost.get(category)).unwrap();
    }
    for counter in COUNTERS {
        write!(line, "\t{}", trace.counter_total(counter)).unwrap();
    }
    line
}

/// Runs `sql` under `EXPLAIN ANALYZE` after `edit` overrides its plan.
fn analyzed(catalog: &Catalog, sql: &str, edit: impl FnOnce(&mut QueryPlan)) -> QueryTrace {
    let mut prepared = catalog.session().prepare(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    edit(prepared.plan_mut());
    match prepared.run().unwrap().output {
        QueryOutput::ExplainAnalyze { trace, .. } => trace,
        other => panic!("EXPLAIN ANALYZE {sql} returned {other:?}"),
    }
}

/// Sets the one sub-plan's strategy to a specialized aggregate under `decision`,
/// naming the head the planner picks, so the network is trained even where the
/// planner would sample naively.
fn specialized(
    ctx: &VideoContext,
    class: ObjectClass,
    decision: RewriteDecision,
) -> impl FnOnce(&mut QueryPlan) {
    let heads = vec![(class, ctx.default_max_count(class, 1))];
    move |plan| {
        let sub = plan.only_mut();
        sub.strategy = PlanStrategy::SpecializedAggregate { decision };
        sub.heads = heads;
    }
}

fn keep(_: &mut QueryPlan) {}

/// A plan override applied before a row's query runs.
type Edit<'a> = Box<dyn FnOnce(&mut QueryPlan) + 'a>;

/// The rows of one seed: every one-video shape on each preset, then `FROM *`
/// for each class of query, then one stream tick.
fn seed_rows(seed: u64) -> Vec<String> {
    let mut table = Vec::new();
    let catalog = Catalog::new();
    for (preset, _) in PRESETS {
        let config = BlazeItConfig::for_preset(preset).with_seed(seed);
        catalog.register_preset_with_config(preset, FRAMES, config).unwrap();
    }
    for (preset, class) in PRESETS {
        let (video, name) = (preset.name(), class.name());
        let ctx = catalog.context(video).unwrap();
        let fcount = format!(
            "SELECT FCOUNT(*) FROM {video} WHERE class = '{name}' \
             ERROR WITHIN 0.1 AT CONFIDENCE 95%"
        );
        let scrub = format!(
            "SELECT timestamp FROM {video} GROUP BY timestamp \
             HAVING SUM(class='{name}') >= 2 LIMIT 5 GAP 30"
        );
        let select = format!("SELECT * FROM {video} WHERE class = '{name}' AND area(mask) > 20000");
        let content =
            format!("SELECT * FROM {video} WHERE class = '{name}' AND redness(content) >= 10");
        let shapes: Vec<(&str, &str, Edit)> = vec![
            (
                "fcount naive",
                &fcount,
                Box::new(|plan: &mut QueryPlan| {
                    plan.only_mut().strategy = PlanStrategy::NaiveSampling
                }),
            ),
            (
                "fcount rewrite",
                &fcount,
                Box::new(specialized(&ctx, class, RewriteDecision::Rewrite)),
            ),
            (
                "fcount control-variates",
                &fcount,
                Box::new(specialized(&ctx, class, RewriteDecision::ControlVariates)),
            ),
            ("scrub ranked", &scrub, Box::new(keep)),
            (
                "scrub scan",
                &scrub,
                Box::new(|plan: &mut QueryPlan| plan.only_mut().strategy = PlanStrategy::ScrubScan),
            ),
            ("select label", &select, Box::new(keep)),
            (
                "select unfiltered",
                &select,
                Box::new(|plan: &mut QueryPlan| {
                    plan.only_mut().selection = SelectionOptions::none()
                }),
            ),
            ("select content", &content, Box::new(keep)),
        ];
        for (shape, sql, edit) in shapes {
            table.push(row(shape, video, seed, &analyzed(&catalog, sql, edit)));
        }
    }
    let fan_out = [
        ("from-star fcount", "SELECT FCOUNT(*) FROM * WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%"),
        (
            "from-star scrub",
            "SELECT timestamp FROM * GROUP BY timestamp HAVING SUM(class='car') >= 2 LIMIT 5 GAP 30",
        ),
        ("from-star select", "SELECT * FROM * WHERE class = 'car' AND area(mask) > 20000"),
    ];
    for (shape, sql) in fan_out {
        table.push(row(shape, "*", seed, &analyzed(&catalog, sql, keep)));
    }
    let (preset, _) = PRESETS[0];
    stream_rows(seed, Arc::clone(catalog.context(preset.name()).unwrap().labeled()), &mut table);
    table
}

/// A stream's first query, one ingest tick (traced like a query), and the same
/// query over the grown stream. The stream reuses the first preset's labeled
/// days.
fn stream_rows(seed: u64, labeled: Arc<LabeledSet>, table: &mut Vec<String>) {
    let catalog = Catalog::new();
    let (preset, class) = PRESETS[0];
    let video = preset.name();
    let config = BlazeItConfig::for_preset(preset).with_seed(seed);
    let capacity = preset.generate_with_frames(DAY_TEST, FRAMES + TICK).unwrap();
    catalog.register_stream(capacity, labeled, config, FRAMES, DriftConfig::disabled()).unwrap();
    let fcount = format!(
        "SELECT FCOUNT(*) FROM {video} WHERE class = '{}' ERROR WITHIN 0.1 AT CONFIDENCE 95%",
        class.name()
    );
    table.push(row("stream fcount", video, seed, &analyzed(&catalog, &fcount, keep)));
    let collector = obs::install_collector(Arc::clone(catalog.clock()));
    {
        let _tick = obs::span("tick");
        catalog.stream(video).unwrap().advance(TICK).unwrap();
    }
    table.push(row("stream tick", video, seed, &collector.finish()));
    table.push(row("stream fcount after tick", video, seed, &analyzed(&catalog, &fcount, keep)));
}

#[test]
fn charges_and_work_match_the_pinned_table() {
    // The seeds share nothing, so they run side by side; rows keep seed order.
    let rows: Vec<String> = std::thread::scope(|scope| {
        let seeds = SEEDS.map(|seed| scope.spawn(move || seed_rows(seed)));
        seeds.into_iter().flat_map(|seed| seed.join().unwrap()).collect()
    });
    let table: Vec<String> = std::iter::once(header()).chain(rows).collect();
    let rendered: String = table.iter().map(|line| format!("{line}\n")).collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/charges.tsv");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap();
    let diff: Vec<String> = pinned
        .lines()
        .zip(rendered.lines())
        .filter(|(pinned, now)| pinned != now)
        .map(|(pinned, now)| format!("-{pinned}\n+{now}"))
        .collect();
    assert!(
        diff.is_empty() && pinned.lines().count() == rendered.lines().count(),
        "what is charged or done moved (re-bless with BLESS=1 if intentional):\n{}",
        diff.join("\n")
    );
}
