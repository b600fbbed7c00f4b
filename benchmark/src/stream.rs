//! Workload 4: writes beside reads, in-process.
//!
//! The wire protocol has no ingest command (a recorded gap), so this
//! workload links the engine: `Catalog::register_stream` with taipei's
//! labeled days, drift refresh off, one subscription `WINDOW 1024 FRAMES
//! EVERY 256 FRAMES`, and one thread looping `advance(256)` → `poll()`.
//! The tick timer stops when the update is in hand.
//!
//! Two kinds of stream are ticked. The *early* one starts nearly empty: its
//! ticks are the scoring kernels on 256-frame tails and little else. A *late*
//! one starts with 300k frames already ingested (an untimed pre-warm, like
//! the TCP workloads' pre-warm pass): its ticks add index append and
//! invalidation over a large index, and after every second tick a one-shot
//! query goes through a `Server` over the same catalog — each ingest bumps
//! the stream's data generation, so the aggregate, the scrub and the
//! `FROM *` fan-out are always recomputed over the grown prefix. Selection
//! scans every frame, so it is sent to a static video of the same catalog
//! with a fresh threshold every time — and only after every second group of
//! the other three: it adds ticks that grow the stream and nothing the live
//! classes do not show, and `warm_index_recompute` times the same
//! computation.
//!
//! What a class latency means here is the *refresh cycle* a user of a live
//! feed waits for: the two ticks that ingest the 512 frames which arrived
//! since the last answer, then the query over the result — the time from
//! the newest frame existing to an answer that reflects it. So a slower tick
//! shows in every class, most in the cheap ones. Two ticks, because a late
//! tick's cost alternates (every other index append finds its buffer already
//! mapped: 2.4 and 4.3 ms by turns) and a pair always holds one of each. Tick
//! cost also grows with the index, so the best cycles of a late stream are
//! among its first. Hence a run ticks three late streams one after another,
//! each from the same 300k frames through the same cycles, instead of one
//! for three times as long: every pass gives each class the same positions
//! again, a few seconds later. The passes are not alike, though. On the
//! first, every append asks the allocator for a buffer larger than any it
//! has seen and gets fresh pages (hence the alternation); the later ones
//! reuse what the first gave back, and their ticks neither alternate nor
//! grow much (2.2 ms throughout). The best cycles come from those.
//!
//! The work is fixed by `--seconds` (so many ticks per second asked for),
//! not cut off by the clock: the peak memory of a stream depends on how
//! many frames it holds, and must not depend on how fast the host was.

use crate::check::{Checker, CostTally, Outcome};
use crate::inproc;
use crate::proc;
use crate::queries::{Class, Op, QueryGen, LIVE_TARGETS, VIDEOS};
use crate::stats::{self, Better};
use crate::tcp::ConnLog;
use crate::workloads::{class_notes, class_samples, class_summary, slice_note, EndToEnd, Params};
use blazeit::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Frames per ingest tick, and the subscription's `EVERY`.
pub const TICK_FRAMES: u64 = 256;
/// The subscription every stream carries.
pub const SUBSCRIPTION: &str = "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' \
                                WINDOW 1024 FRAMES EVERY 256 FRAMES";
/// Late ticks per refresh cycle: a one-shot query follows every second tick.
const CYCLE_TICKS: usize = 2;
/// A selection follows every this-many-th group of the three live classes.
const SELECT_EVERY: usize = 2;
/// How many times set-up (build, register, subscribe: 60 ms) is repeated
/// before the early stream is ticked, and again before every late stream:
/// spread over the run, so that a host busy for a few seconds does not
/// decide `setup_s` (see [`stats::fastest`]).
const SETUP_REPEATS: usize = 8;
/// Late streams ticked one after another (see the module docs).
const LATE_PASSES: usize = 3;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Frames the early stream holds when it is subscribed.
    pub early_start: u64,
    /// Ticks on the early stream.
    pub early_ticks: usize,
    /// Frames a late stream holds when it is subscribed.
    pub late_start: u64,
    /// Late streams ticked one after another.
    pub late_passes: usize,
    /// Groups of refresh cycles on each late stream: one cycle for each of
    /// the three live classes, and a selection in every second group.
    pub late_groups: usize,
}

impl Sizes {
    /// The sizes for a run of `seconds` (or the smoke-test sizes).
    pub fn new(seconds: f64, quick: bool) -> Sizes {
        if quick {
            return Sizes {
                early_start: 1024,
                early_ticks: 8,
                late_start: 8192,
                late_passes: 1,
                late_groups: 2,
            };
        }
        Sizes {
            early_start: 4096,
            early_ticks: (8.0 * seconds) as usize,
            late_start: 300_032,
            late_passes: LATE_PASSES,
            late_groups: (1.72 * seconds) as usize,
        }
    }

    /// Selections among the late cycles.
    pub fn late_selections(&self) -> usize {
        self.late_groups.div_ceil(SELECT_EVERY)
    }

    /// Ticks on each late stream.
    pub fn late_ticks(&self) -> usize {
        CYCLE_TICKS * (3 * self.late_groups + self.late_selections())
    }
}

/// A catalog with a live taipei stream beside static night-street and
/// amsterdam, subscribed. Building one is the workload's set-up.
pub struct LiveCatalog {
    /// The catalog.
    pub catalog: Arc<Catalog>,
    /// The full day the stream will deliver.
    pub capacity: Video,
    /// The stream's labeled set (shared with the static check catalog).
    pub labeled: Arc<LabeledSet>,
    /// The stream's configuration.
    pub config: BlazeItConfig,
    /// The subscription.
    pub subscription: Subscription,
}

impl LiveCatalog {
    /// Builds the catalog, registers the three videos (`taipei` as a stream
    /// holding `initial` of `capacity` frames) and subscribes — which trains
    /// the specialized network and scores the initial prefix.
    pub fn build(frames: u64, initial: u64, capacity: u64) -> Result<LiveCatalog, String> {
        let text = |e: BlazeItError| e.to_string();
        let catalog = Arc::new(Catalog::new());
        let preset = DatasetPreset::Taipei;
        let config = BlazeItConfig::for_preset(preset);
        let day = |day| preset.generate_with_frames(day, frames).map_err(|e| e.to_string());
        let labeled =
            Arc::new(LabeledSet::build(day(DAY_TRAIN)?, day(DAY_HELDOUT)?, &config).map_err(text)?);
        let capacity =
            preset.generate_with_frames(DAY_TEST, capacity).map_err(|e| e.to_string())?;
        catalog
            .register_stream(
                capacity.clone(),
                Arc::clone(&labeled),
                config.clone(),
                initial,
                DriftConfig::disabled(),
            )
            .map_err(text)?;
        for preset in &VIDEOS[1..] {
            catalog.register_preset(*preset, frames).map_err(text)?;
        }
        let subscription = catalog.session().subscribe(SUBSCRIPTION).map_err(text)?;
        Ok(LiveCatalog { catalog, capacity, labeled, config, subscription })
    }

    /// One tick: ingest [`TICK_FRAMES`], poll until the update is in hand.
    /// Returns the seconds it took and how many updates arrived.
    pub fn tick(&mut self, stream: &StreamSource) -> Result<(f64, usize), String> {
        let started = Instant::now();
        stream.advance(TICK_FRAMES).map_err(|e| e.to_string())?;
        let updates = self.subscription.poll().map_err(|e| e.to_string())?;
        Ok((started.elapsed().as_secs_f64(), updates.len()))
    }
}

/// Ticks `live` `ticks` times, recording tick latencies (ms) and requiring
/// one update per tick; `between` runs after every tick, outside the timer,
/// and is told the tick's number and latency.
pub fn run_ticks(
    live: &mut LiveCatalog,
    ticks: usize,
    checker: &mut Checker,
    mut between: impl FnMut(usize, f64, &mut Checker),
) -> Result<Vec<f64>, String> {
    let stream = live.catalog.stream("taipei").map_err(|e| e.to_string())?;
    let mut latencies_ms = Vec::with_capacity(ticks);
    for tick in 0..ticks {
        checker.attempted += 1;
        let (secs, updates) = live.tick(&stream)?;
        if updates == 1 {
            latencies_ms.push(secs * 1e3);
        } else {
            checker.fail(|| format!("tick {tick} produced {updates} updates, expected 1"));
        }
        between(tick, secs * 1e3, checker);
    }
    Ok(latencies_ms)
}

/// The final check of the early stream: the one-shot aggregate over the
/// stream gives the same answer (value, standard error, detector calls) as
/// the same query on a non-stream catalog holding the same frames. The
/// simulated cost differs by design: the static catalog trains and scores
/// from scratch, the stream already has.
fn check_against_static_catalog(live: &LiveCatalog, op: &Op, checker: &mut Checker) {
    let answer = |catalog: &Catalog| {
        let output = catalog.session().query(&op.sql).map_err(|e| e.to_string())?.output;
        Ok::<_, String>((
            output.aggregate_value().map(f64::to_bits),
            output.aggregate_standard_error().map(f64::to_bits),
            output.detection_calls(),
        ))
    };
    let fixed = Catalog::new();
    let compared = live
        .catalog
        .stream("taipei")
        .and_then(|stream| Ok(live.capacity.prefix(stream.ingested())?))
        .and_then(|video| fixed.register(video, Arc::clone(&live.labeled), live.config.clone()))
        .map_err(|e| e.to_string())
        .and_then(|_| Ok((answer(&live.catalog)?, answer(&fixed)?)));
    checker.attempted += 2;
    match compared {
        Ok((streamed, cold)) if streamed == cold && streamed.0.is_some() => {}
        Ok((streamed, cold)) => {
            checker.fail(|| format!("stream answered {streamed:?}, static catalog {cold:?}"))
        }
        Err(error) => checker.fail(|| format!("static check catalog: {error}")),
    }
}

/// Ticks per slice. A tick's cost alternates (every other index append
/// finds its buffer already mapped), so a tick statistic needs a few
/// consecutive ticks; and it grows with the index, so only the first
/// slices of a run can be the best — which keeps the slice short.
const TICK_SLICE: usize = 8;

/// Quiet-slice tick rate: ticks per second inside the best slice.
fn tick_rate(latencies_ms: &[&[f64]]) -> Option<stats::SliceSummary> {
    stats::quiet_slice(latencies_ms, TICK_SLICE, Better::Higher, |slice| {
        slice.len() as f64 / (slice.iter().sum::<f64>() * 1e-3)
    })
}

/// Runs the workload.
pub fn stream_ingest_ticks(p: &Params) -> Result<Outcome, String> {
    let sizes = Sizes::new(p.seconds, p.quick);
    let mut checker = Checker::default();
    let mut gen = QueryGen::new(p.seed, LIVE_TARGETS);
    // One more query per class than there are cycles for it: the first of
    // each class warms the late stream's server before timing, and being
    // drawn with the rest it cannot repeat one of them (a repeated
    // selection on the static video would be a result-cache hit).
    let (groups, selections) = (sizes.late_groups, sizes.late_selections());
    let drawn =
        gen.distinct([groups + 1, groups + 1, selections + 1, groups + 1], &mut BTreeSet::new());
    let mut by_class = Class::ALL.map(|class| drawn.iter().filter(move |op| op.class == class));
    let warm: Vec<&Op> = by_class.iter_mut().filter_map(Iterator::next).collect();
    // Group after group, so every stretch of the run sees every class.
    let mut ops: Vec<&Op> = Vec::with_capacity(3 * groups + selections);
    for group in 0..groups {
        let classes = [Class::Aggregate, Class::Scrub, Class::Fanout, Class::Select];
        let live = if group % SELECT_EVERY == 0 { &classes[..] } else { &classes[..3] };
        ops.extend(live.iter().filter_map(|class| by_class[class.index()].next()));
    }

    // Set-up, repeated; the last early stream is the one that gets ticked.
    let early_capacity = sizes.early_start + sizes.early_ticks as u64 * TICK_FRAMES;
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let mut built = None;
        for _ in 0..p.setup_repeats(SETUP_REPEATS) {
            let started = Instant::now();
            built = Some(LiveCatalog::build(p.frames(), sizes.early_start, early_capacity)?);
            setups.push(started.elapsed().as_secs_f64());
        }
        built.ok_or_else(|| "no set-up repeat ran".to_string())
    };
    let mut early = timed_setup()?;
    let early_ms = run_ticks(&mut early, sizes.early_ticks, &mut checker, |_, _, _| {})?;
    check_against_static_catalog(&early, ops[0], &mut checker);
    drop(early);

    // The late streams: the large initial prefix is scored before timing.
    // Every pass sends the same queries at the same stream lengths, so the
    // checker also holds every pass to the first one's answers.
    let late_capacity = sizes.late_start + sizes.late_ticks() as u64 * TICK_FRAMES;
    let mut passes: Vec<ConnLog> = Vec::with_capacity(sizes.late_passes);
    let mut late_ms: Vec<Vec<f64>> = Vec::with_capacity(sizes.late_passes);
    let mut served = ServeStats::default();
    for _ in 0..sizes.late_passes {
        drop(timed_setup()?);
        let mut late = LiveCatalog::build(p.frames(), sizes.late_start, late_capacity)?;
        let server = Server::new(Arc::clone(&late.catalog));
        for op in &warm {
            inproc::timed_query(&server, op, &mut checker, &mut CostTally::default());
        }
        // A refresh cycle: the ticks since the last answer, then the query.
        let mut cycles = ConnLog::default();
        let mut next = ops.iter();
        let mut cycle_ms = 0.0;
        late_ms.push(run_ticks(
            &mut late,
            sizes.late_ticks(),
            &mut checker,
            |tick, tick_ms, checker| {
                cycle_ms += tick_ms;
                if (tick + 1) % CYCLE_TICKS != 0 {
                    return;
                }
                let ingest_ms = std::mem::take(&mut cycle_ms);
                let Some(op) = next.next() else { return };
                if let Some(secs) = inproc::timed_query(&server, op, checker, &mut cycles.tally) {
                    cycles.latencies_ms[op.class.index()].push(ingest_ms + secs * 1e3);
                }
            },
        )?);
        served = server.stats();
        checker.require(served.hits == 0, || {
            format!("every one-shot query must recompute, the server counted {served:?}")
        });
        passes.push(cycles);
    }

    let class_ms = Class::ALL.map(|class| class_summary(&passes, class, 1));
    let mut notes = class_notes(&passes, &class_ms);
    let late_series: Vec<&[f64]> = late_ms.iter().map(Vec::as_slice).collect();
    for (name, series) in [("tick_early_ms", &[&early_ms[..]][..]), ("tick_late_ms", &late_series)]
    {
        if let Some(s) = stats::quiet_slice(series, TICK_SLICE, Better::Lower, stats::median) {
            notes.push(slice_note(name, "ms", &series.concat(), &s));
        }
    }
    notes.push(format!(
        "early stream {}..{} frames, {} late streams {}..{} frames each; every class latency is \
         one refresh cycle: {CYCLE_TICKS} late ticks of {TICK_FRAMES} frames, then the query; \
         throughput_ops_s {:.1} late ticks per second of tick time in the best slice; \
         last pass {served:?}",
        sizes.early_start,
        early_capacity,
        sizes.late_passes,
        sizes.late_start,
        late_capacity,
        tick_rate(&late_series).map_or(f64::NAN, |s| s.best),
    ));
    let peak_rss_mib = proc::own_peak_rss_mib();
    checker.require(peak_rss_mib.is_some(), || "own VmHWM was unreadable".to_string());
    let e2e = EndToEnd {
        setup_s: stats::fastest(&setups),
        class_ms,
        peak_rss_mib: peak_rss_mib.unwrap_or(f64::NAN),
        // Every pass charged the same; the first one's tally stands for all.
        sim_gpu_s_per_query: passes
            .first()
            .map_or(f64::NAN, |pass| pass.tally.sim_gpu_s_per_query()),
    };
    let mut samples = class_samples(&passes);
    samples.push(("tick_early_ms".to_string(), early_ms));
    for (pass, series) in late_ms.into_iter().enumerate() {
        samples.push((format!("tick_late_ms.conn{pass}"), series));
    }
    samples.push(("setup_s".to_string(), setups));
    Ok(Outcome { metrics: e2e.metrics(), notes, checker, samples })
}
