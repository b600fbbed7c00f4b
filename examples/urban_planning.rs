//! Urban planning (Section 2 of the paper): traffic metering and transit analysis.
//!
//! An urban planner counts cars through an intersection to compare traffic volumes, and
//! then looks for moments where a bus and several cars share the intersection. This
//! example runs both workloads and compares BlazeIt against the naive and
//! NoScope-oracle baselines on simulated GPU time.
//!
//! Run with `cargo run --release --example urban_planning`.

use blazeit::core::baselines;
use blazeit::core::metrics::{format_speedup_table, RuntimeReport};
use blazeit::prelude::*;

fn main() {
    let frames_per_day = 9_000; // five simulated minutes per day at 30 fps
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, frames_per_day).expect("register");
    let session = catalog.session();
    let engine = catalog.context("taipei").expect("registered");
    let engine = &*engine;
    let class = ObjectClass::Car;

    println!("== traffic metering: average cars per frame ==");
    // Naive baseline: with no error tolerance the planner runs the exact plan,
    // the detector on every frame.
    let exact = session.query("SELECT FCOUNT(*) FROM taipei WHERE class = 'car'").expect("naive");
    let naive_value = exact.output.aggregate_value().unwrap_or(f64::NAN);
    let naive = RuntimeReport::from_cost("naive", exact.cost, exact.output.detection_calls());

    // NoScope oracle: detector only on frames that contain a car at all.
    let before = engine.clock().breakdown();
    let (_, ns_calls) = baselines::noscope_fcount(engine, class).expect("noscope");
    let noscope = RuntimeReport::from_cost(
        "noscope (oracle)",
        engine.clock().breakdown().since(&before),
        ns_calls,
    );

    // BlazeIt: Algorithm 1 picks query rewriting or control variates.
    let result = session
        .query(
            "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%",
        )
        .expect("blazeit");
    let blazeit = RuntimeReport::from_cost("blazeit", result.cost, result.output.detection_calls());

    println!(
        "exact FCOUNT = {naive_value:.3}, BlazeIt estimate = {:.3}",
        result.output.aggregate_value().unwrap_or(f64::NAN)
    );
    println!("{}", format_speedup_table(&[naive, noscope, blazeit]));

    println!("== transit interaction: frames with >= 1 bus and >= 2 cars ==");
    let scrub = session
        .query(
            "SELECT timestamp FROM taipei GROUP BY timestamp \
             HAVING SUM(class='bus')>=1 AND SUM(class='car')>=2 LIMIT 10 GAP 300",
        )
        .expect("scrub");
    if let QueryOutput::Frames { frames, detection_calls } = &scrub.output {
        println!(
            "found {} congestion moments with {} detector calls ({:.1} simulated s, vs {} frames total)",
            frames.len(),
            detection_calls,
            scrub.runtime_secs(),
            engine.video().len()
        );
        for &f in frames {
            println!("  frame {f} at t = {:.1} s", engine.video().timestamp(f));
        }
    }
}
