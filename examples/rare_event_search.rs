//! Rare-event scrubbing (the autonomous-vehicle analyst use case of Section 2): search
//! a long stream for a handful of frames containing an unusually busy moment, and
//! compare how many expensive detector calls each strategy needs.
//!
//! Run with `cargo run --release --example rare_event_search`.

use blazeit::core::baselines;
use blazeit::prelude::*;

fn main() {
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Amsterdam, 12_000).expect("register");
    let engine = catalog.context("amsterdam").expect("registered");
    let engine = &*engine;
    let class = ObjectClass::Car;

    let (limit, gap) = (10, 300);
    let scrub = |n: usize| {
        format!(
            "SELECT timestamp FROM amsterdam GROUP BY timestamp \
             HAVING SUM(class='car') >= {n} LIMIT {limit} GAP {gap}"
        )
    };
    let session = catalog.session();

    // Pick a genuinely rare event on this stream: the highest simultaneous car count
    // that still has at least 15 occurrences on the test day (the paper's Table 6 rule)
    // and that the planner will rank — with no example of the event in the labeled
    // day it falls back to the sequential scan (Section 7.1). Planning is free.
    let counts = baselines::oracle_counts(engine, &engine.video());
    let instances = |n: usize| counts.iter().filter(|c| c.get(class) >= n).count();
    let ranked = |n: usize| {
        let plan = session.prepare(&scrub(n)).expect("prepare");
        plan.plan().only().strategy == PlanStrategy::ScrubRanked
    };
    let max = counts.iter().map(|c| c.get(class)).max().unwrap_or(1);
    let threshold = (1..=max).rev().find(|&n| instances(n) >= 15 && ranked(n)).unwrap_or(1);
    println!(
        "searching amsterdam for frames with >= {threshold} cars ({} such frames out of {})",
        instances(threshold),
        engine.video().len()
    );
    let sql = scrub(threshold);

    // Naive sequential scan: the planner's fallback plan, forced.
    let mut scan = session.prepare(&sql).expect("prepare");
    scan.plan_mut().only_mut().strategy = PlanStrategy::ScrubScan;
    let naive = scan.run().expect("naive").output;
    // NoScope oracle: skips frames with no car at all, for free.
    let (_, noscope_calls) =
        baselines::noscope_scrub(engine, &[(class, threshold)], limit, gap).expect("noscope");
    // BlazeIt as planned: importance ordering by specialized-NN confidence.
    let blazeit = session.query(&sql).expect("blazeit").output;
    let (naive_frames, blazeit_frames) = (naive.frames().unwrap(), blazeit.frames().unwrap());

    println!("\n{:<20} {:>16} {:>12}", "method", "detector calls", "found");
    println!("{:<20} {:>16} {:>12}", "naive scan", naive.detection_calls(), naive_frames.len());
    println!("{:<20} {:>16} {:>12}", "noscope (oracle)", noscope_calls, naive_frames.len());
    println!("{:<20} {:>16} {:>12}", "blazeit", blazeit.detection_calls(), blazeit_frames.len());
    println!(
        "\nBlazeIt inspected {:.2}% of the frames the naive scan needed.",
        100.0 * blazeit.detection_calls() as f64 / naive.detection_calls().max(1) as f64
    );
    println!("frames found by BlazeIt (confidence order): {blazeit_frames:?}");
}
