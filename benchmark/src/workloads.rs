//! The three workloads that drive the real `blazeit-server` over TCP, and
//! the pieces every workload shares.
//!
//! All of them start `blazeit-server --port 0 --frames 4000 --videos
//! taipei,night-street,amsterdam` and are closed-loop (see [`crate::tcp`]).
//! Why each exists is recorded in `BENCHMARK.json` and `README.md`.

use crate::check::{Checker, CostTally, Metric, Outcome};
use crate::proc::{ServerProcess, ServerSpec};
use crate::queries::{result_cache_entries, Class, Op, QueryGen, COLD_TARGETS, SERVER_TARGETS};
use crate::stats::{self, Better, SliceSummary};
use crate::tcp::{self, ConnLog};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The four workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 4] =
    ["cold_first_query", "warm_cache_hits", "warm_index_recompute", "stream_ingest_ticks"];

/// Everything a run is parameterized by.
#[derive(Debug, Clone)]
pub struct Params {
    /// Drives every generated query list.
    pub seed: u64,
    /// How long the timed part of a run lasts.
    pub seconds: f64,
    /// Smoke-test sizes: output checks only, no numbers worth reading.
    pub quick: bool,
    /// How to start the server.
    pub server: ServerSpec,
    /// Where trace files and temporary index stores go.
    pub out_dir: PathBuf,
    /// Load-generating threads and connections (at most `nproc`).
    pub connections: usize,
}

impl Params {
    /// Frames per registered video.
    pub fn frames(&self) -> u64 {
        self.server.frames
    }

    /// How many times a set-up is repeated for `setup_s`: `full` times, once
    /// in a smoke test.
    pub fn setup_repeats(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// How many chunks a `warm_*` workload cuts its timed phase into.
    pub fn chunks(&self) -> usize {
        if self.quick {
            1
        } else {
            CHUNKS
        }
    }

    /// The timed part of a run.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Slice size for sub-millisecond operations that come in thousands.
const MICRO_SLICE: usize = 50;

/// Quiet-slice median of one latency class over every connection.
pub fn class_summary(logs: &[ConnLog], class: Class, slice: usize) -> Option<SliceSummary> {
    let series: Vec<&[f64]> = logs.iter().map(|log| &log.latencies_ms[class.index()][..]).collect();
    stats::quiet_slice(&series, slice, Better::Lower, stats::median)
}

/// The unguarded context printed beside a quiet-slice value.
pub fn slice_note(name: &str, unit: &str, all: &[f64], summary: &SliceSummary) -> String {
    let (percentile, tail) = stats::highest_supported_percentile(all);
    format!(
        "{name}: best slice {:.4} {unit} | all-sample p50 {:.4} p{percentile} {tail:.4} | \
         {} samples in {} slices, slice IQR {:.4}",
        summary.best, summary.overall, summary.samples, summary.slices, summary.slice_iqr
    )
}

/// The numbers every workload reports, under the names of `BENCHMARK.json`.
#[derive(Debug)]
pub struct EndToEnd {
    /// Set-up time: the fastest of the repeats.
    pub setup_s: f64,
    /// Quiet-slice summaries per class.
    pub class_ms: [Option<SliceSummary>; 4],
    /// Peak resident set of the system under test.
    pub peak_rss_mib: f64,
    /// Class-balanced mean simulated cost of a query.
    pub sim_gpu_s_per_query: f64,
}

/// Every end-to-end metric as `(name, unit, better)`, in `BENCHMARK.json`
/// order. Every workload reports all of them.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("aggregate_ms", "ms", "lower"),
    ("scrub_ms", "ms", "lower"),
    ("select_ms", "ms", "lower"),
    ("fanout_ms", "ms", "lower"),
    ("sim_gpu_s_per_query", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

impl EndToEnd {
    /// The metric list, in [`END_TO_END`] order. A class nobody measured
    /// reports `NaN`, which renders as `null` and fails the run.
    pub fn metrics(&self) -> Vec<Metric> {
        let class =
            |class: Class| self.class_ms[class.index()].as_ref().map_or(f64::NAN, |s| s.best);
        let values = [
            class(Class::Aggregate),
            class(Class::Scrub),
            class(Class::Select),
            class(Class::Fanout),
            self.sim_gpu_s_per_query,
            self.peak_rss_mib,
            self.setup_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _), value)| Metric::new(*name, unit, value))
            .collect()
    }
}

/// Folds connection logs into the run's checker; returns their wire bytes.
/// Their cost tallies are dropped: connections that ran side by side saw
/// each other's charges in `simulated_secs` (it is the shared clock's
/// movement), so the exact cost metric comes from sequential passes only.
fn fold(logs: Vec<ConnLog>, checker: &mut Checker) -> u64 {
    let mut wire_bytes = 0;
    for log in logs {
        checker.merge(log.checker);
        wire_bytes += log.wire_bytes;
    }
    wire_bytes
}

/// Notes for every class that has samples.
pub fn class_notes(logs: &[ConnLog], summaries: &[Option<SliceSummary>; 4]) -> Vec<String> {
    Class::ALL
        .iter()
        .filter_map(|class| {
            let summary = summaries[class.index()].as_ref()?;
            let all: Vec<f64> = logs
                .iter()
                .flat_map(|log| log.latencies_ms[class.index()].iter().copied())
                .collect();
            Some(slice_note(&format!("{}_ms", class.name()), "ms", &all, summary))
        })
        .collect()
}

/// The raw latency series of every connection and class, named
/// `<class>_ms.conn<i>`.
pub fn class_samples(logs: &[ConnLog]) -> Vec<(String, Vec<f64>)> {
    let mut samples = Vec::new();
    for (conn, log) in logs.iter().enumerate() {
        for class in Class::ALL {
            let series = &log.latencies_ms[class.index()];
            if !series.is_empty() {
                samples.push((format!("{}_ms.conn{conn}", class.name()), series.clone()));
            }
        }
    }
    samples
}

/// Peak RSS of a server, counted as a failed whole-run check when unreadable.
fn server_rss(server: &ServerProcess, checker: &mut Checker) -> f64 {
    let rss = server.peak_rss_mib();
    checker.require(rss.is_some(), || "the server's VmHWM was unreadable".to_string());
    rss.unwrap_or(f64::NAN)
}

/// Shuts a server down and requires a clean exit.
fn finish(server: ServerProcess, checker: &mut Checker) {
    let clean = server.shutdown();
    checker.require(clean, || "the server did not exit cleanly on SHUTDOWN".to_string());
}

/// Workload 1: first-touch queries against fresh servers.
///
/// Each round spawns a fresh server and sends three first-touch queries on
/// three different videos (aggregate on taipei, scrub on night-street,
/// selection on amsterdam), then a second fresh server for one `FROM *`
/// aggregate. Rounds repeat until the time is up; every round sends the
/// same four lines, so every round must give the same four answers. The
/// videos are short ([`crate::queries::SHORT_FRAMES`]) and `main` has pinned
/// everything to one CPU, which is what keeps the best slice of a run
/// within a few percent of the next run's. Every server started is a
/// set-up sample: `setup_s` is the fastest of them.
pub fn cold_first_query(p: &Params) -> Result<Outcome, String> {
    let mut gen = QueryGen::new(p.seed, COLD_TARGETS);
    let ops = Class::ALL.map(|class| gen.op(class));
    let mut log = ConnLog::default();

    let mut setups: Vec<f64> = Vec::new();
    let mut rss: Vec<f64> = Vec::new();
    let mut first_cost = None;
    let mut exact = None;
    let deadline = Instant::now() + p.duration();
    let min_rounds = if p.quick { 1 } else { 3 };
    while rss.len() < min_rounds || Instant::now() < deadline {
        let mut round = ConnLog::default();
        let mut round_rss: f64 = 0.0;
        let servers: [&[Op]; 2] = [&ops[..3], &ops[3..]];
        for (index, server_ops) in servers.into_iter().enumerate() {
            let (server, mut client, setup) = tcp::timed_setup(&p.server)?;
            setups.push(setup);
            round.absorb(tcp::drive(&mut client, server_ops, tcp::Stop::OnePass, Instant::now()));
            // The fan-out server has every index warm: ask it for the exact
            // answers once (detector on every frame, no training).
            if index == 1 && exact.is_none() {
                exact = Some(tcp::exact_answers(&mut client, &mut round.checker));
            }
            round_rss = round_rss.max(server_rss(&server, &mut round.checker));
            drop(client);
            finish(server, &mut round.checker);
        }
        rss.push(round_rss);
        // One connection per server, one query at a time: the replies' cost
        // fields are what each query charged, and every round must charge
        // the same — up to the order in which the fan-out's parallel
        // sub-queries added their shares to the shared clock's total.
        let cost = round.tally.sim_gpu_s_per_query();
        let first = *first_cost.get_or_insert(cost);
        round.checker.require((first - cost).abs() <= first.abs() * 1e-9, || {
            format!("a round charged {cost} simulated s per query, the first {first}")
        });
        log.absorb(round);
    }

    let rounds = rss.len();
    let class_ms = Class::ALL.map(|class| class_summary(std::slice::from_ref(&log), class, 1));
    let mut notes = class_notes(std::slice::from_ref(&log), &class_ms);
    let mut samples = class_samples(std::slice::from_ref(&log));
    samples.push(("round_peak_rss_mib".to_string(), rss.clone()));
    let setup_s = stats::fastest(&setups);
    samples.push(("setup_s".to_string(), setups));
    let ConnLog { mut checker, tally, wire_bytes, .. } = log;
    let within = checker.within_eps(&exact.unwrap_or_default());
    notes.push(format!(
        "{rounds} rounds of 2 fresh servers; within_eps_share {within}; \
         wire_bytes_per_query {:.1}; failed_share {}",
        wire_bytes as f64 / checker.attempted.max(1) as f64,
        checker.failed as f64 / checker.attempted.max(1) as f64
    ));
    let e2e = EndToEnd {
        setup_s,
        class_ms,
        peak_rss_mib: stats::median(&rss),
        sim_gpu_s_per_query: tally.sim_gpu_s_per_query(),
    };
    Ok(Outcome { metrics: e2e.metrics(), notes, checker, samples })
}

/// Completed operations per second, over all connections, in the best
/// whole second of a phase. Printed, not gated: with every connection and
/// the server sharing two cores it moved by a quarter from run to run on
/// the seed commit, whatever the window.
fn best_second(logs: &[ConnLog], phase: Duration) -> f64 {
    let completions: Vec<u64> =
        logs.iter().flat_map(|log| log.completions_ns.iter().copied()).collect();
    stats::best_window_rate(&completions, phase.as_nanos() as u64, 1_000_000_000)
        // A phase shorter than a second (`--quick`): the whole-phase rate.
        .unwrap_or(completions.len() as f64 / phase.as_secs_f64())
}

/// How many chunks the timed phase of a `warm_*` workload is cut into. What
/// a run has only dozens of — spare set-ups, selections — happens before,
/// between and after the chunks, a few at a time: this host is busy for
/// seconds to minutes on end, and a batch of them taken in one go is taken
/// in one state.
const CHUNKS: usize = 6;

/// Runs every connection through its list for `total`, in `chunks` chunks;
/// every connection resumes its list where the last chunk stopped it (a
/// list longer than the result cache keeps missing). `between` runs before
/// every chunk, and once more after the last. Returns one log per
/// connection and the operations per second of the best second.
fn chunked_phase(
    server: &ServerProcess,
    lists: &[Vec<Op>],
    total: Duration,
    chunks: usize,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<ConnLog>, f64), String> {
    let mut lists = lists.to_vec();
    let mut logs: Vec<ConnLog> = lists.iter().map(|_| ConnLog::default()).collect();
    let mut throughput_ops_s: f64 = 0.0;
    for _ in 0..chunks {
        between()?;
        let borrowed: Vec<&[Op]> = lists.iter().map(Vec::as_slice).collect();
        let (chunk_logs, phase) =
            tcp::run_connections(server, &borrowed, Some(total / chunks as u32))?;
        throughput_ops_s = throughput_ops_s.max(best_second(&chunk_logs, phase));
        for ((log, chunk_log), list) in logs.iter_mut().zip(chunk_logs).zip(&mut lists) {
            let stopped_at = chunk_log.checker.attempted as usize % list.len();
            list.rotate_left(stopped_at);
            log.absorb(chunk_log);
        }
    }
    between()?;
    Ok((logs, throughput_ops_s))
}

/// Workload 2: the dashboard path — every answer a result-cache hit.
///
/// One server; an untimed pre-warm pass sends every distinct query once;
/// then every connection cycles one shared pool of 24 distinct queries
/// (8 aggregate, 8 scrub, 6 selection, 2 `FROM *`), far below the cache's
/// 256 entries, each in its own seeded order.
pub fn warm_cache_hits(p: &Params) -> Result<Outcome, String> {
    let mut gen = QueryGen::new(p.seed, SERVER_TARGETS);
    let pool = gen.distinct([8, 8, 6, 2], &mut BTreeSet::new());
    let lists: Vec<Vec<Op>> = (0..p.connections)
        .map(|_| {
            let mut list = pool.clone();
            gen.rng().shuffle(&mut list);
            list
        })
        .collect();
    let mut checker = Checker::default();
    let mut tally = CostTally::default();

    let (server, mut client, setup) = tcp::timed_setup(&p.server)?;
    let mut setups = vec![setup];
    tcp::prewarm(&mut client, &pool, &mut checker, &mut tally);
    let before = tcp::stats(&mut client)?;
    let (logs, throughput_ops_s) =
        chunked_phase(&server, &lists, p.duration(), p.chunks(), || {
            let spares = p.setup_repeats(tcp::SPARE_SETUPS);
            setups.extend(tcp::spare_setups(&p.server, spares, &mut checker)?);
            Ok(())
        })?;
    let served = tcp::stats(&mut client)?.since(&before);

    let ops: u64 = logs.iter().map(|log| log.checker.attempted).sum();
    checker.require(served.hits == ops && served.misses == 0, || {
        format!("{ops} operations but STATS counted {served:?}")
    });
    let class_ms = Class::ALL.map(|class| class_summary(&logs, class, MICRO_SLICE));
    let mut notes = class_notes(&logs, &class_ms);
    let mut samples = class_samples(&logs);
    let setup_s = stats::fastest(&setups);
    samples.push(("setup_s".to_string(), setups));
    let wire_bytes = fold(logs, &mut checker);
    let exact = tcp::exact_answers(&mut client, &mut checker);
    let within = checker.within_eps(&exact);
    notes.push(format!(
        "{ops} operations on {} connections, all result-cache hits ({served:?}); \
         throughput_ops_s {throughput_ops_s:.0} in the best second; within_eps_share {within}; \
         wire_bytes_per_query {:.1}",
        p.connections,
        wire_bytes as f64 / ops.max(1) as f64
    ));
    let peak_rss_mib = server_rss(&server, &mut checker);
    drop(client);
    finish(server, &mut checker);
    let e2e = EndToEnd {
        setup_s,
        class_ms,
        peak_rss_mib,
        sim_gpu_s_per_query: tally.sim_gpu_s_per_query(),
    };
    Ok(Outcome { metrics: e2e.metrics(), notes, checker, samples })
}

/// Share of the timed part that phase A of workload 3 takes; the rest is
/// left for the fixed-size selection phase.
const RECOMPUTE_PHASE_A_SHARE: f64 = 0.8;

/// Workload 3: every index warm, yet the result cache cannot help.
///
/// Phase A: every connection cycles its own disjoint list of 512 distinct
/// aggregate / scrub / `FROM *` queries (60/35/5 %), so with the cache's
/// FIFO capacity of 256 every operation is a miss and an eviction. Phase
/// B: one connection sends 48 distinct selection queries once, seven at a
/// time before, between and after the chunks of phase A. Selection is kept
/// apart because a ~90 ms selection between sub-millisecond queries would
/// make their neighbours' latency a function of where it landed; it runs on
/// one connection because a selection renders thousands of full frames and
/// two of them side by side time the host's memory system, not the engine;
/// and phase B has a fixed size so that the server's memory, which grows
/// with every cached selection, does not depend on how fast the host was.
pub fn warm_index_recompute(p: &Params) -> Result<Outcome, String> {
    let mut gen = QueryGen::new(p.seed, SERVER_TARGETS);
    let (per_list, selections) =
        if p.quick { ([40, 24, 0, 4], 3) } else { ([307, 179, 0, 26], 48) };
    let mut taken = BTreeSet::new();
    let lists: Vec<Vec<Op>> =
        (0..p.connections).map(|_| gen.distinct(per_list, &mut taken)).collect();
    let selection_list = gen.distinct([0, 0, selections, 0], &mut taken);
    let mut checker = Checker::default();
    let mut tally = CostTally::default();

    let (server, mut client, setup) = tcp::timed_setup(&p.server)?;
    let mut setups = vec![setup];
    // Every selection shares one specialized head and one index, so one
    // selection warms them; the phase-A lists are sent in full.
    let warm: Vec<Op> = selection_list[..1].iter().chain(lists.iter().flatten()).cloned().collect();
    tcp::prewarm(&mut client, &warm, &mut checker, &mut tally);
    // The pre-warm pass left its last 256 answers in the result cache; push
    // them out with 256 queries nobody asks again, so phase A starts on a
    // cache that holds nothing it will ask for.
    let evictors = gen.distinct([result_cache_entries(), 0, 0, 0], &mut taken);
    tcp::prewarm(&mut client, &evictors, &mut checker, &mut CostTally::default());

    let before = tcp::stats(&mut client)?;
    let phase_a = p.duration().mul_f64(RECOMPUTE_PHASE_A_SHARE);
    let mut log_b = ConnLog::default();
    let mut selection_chunks = selection_list.chunks(selections.div_ceil(p.chunks() + 1));
    let (logs_a, throughput_ops_s) = chunked_phase(&server, &lists, phase_a, p.chunks(), || {
        let spares = p.setup_repeats(tcp::SPARE_SETUPS);
        setups.extend(tcp::spare_setups(&p.server, spares, &mut checker)?);
        if let Some(chunk) = selection_chunks.next() {
            let (logs, _) = tcp::run_connections(&server, &[chunk], None)?;
            logs.into_iter().for_each(|log| log_b.absorb(log));
        }
        Ok(())
    })?;
    // The selections between its chunks are misses of their own: phase A
    // and they together must never hit.
    let served = tcp::stats(&mut client)?.since(&before);
    checker.require(p.quick || (served.hits == 0 && served.evicted > 0), || {
        format!("phase A must miss and evict every time, STATS counted {served:?}")
    });
    let logs_b = [log_b];

    let class_ms = [
        class_summary(&logs_a, Class::Aggregate, MICRO_SLICE),
        class_summary(&logs_a, Class::Scrub, MICRO_SLICE),
        class_summary(&logs_b, Class::Select, 1),
        class_summary(&logs_a, Class::Fanout, MICRO_SLICE),
    ];
    let ops_a: u64 = logs_a.iter().map(|log| log.checker.attempted).sum();
    let logs: Vec<ConnLog> = logs_a.into_iter().chain(logs_b).collect();
    let mut notes = class_notes(&logs, &class_ms);
    let mut samples = class_samples(&logs);
    let setup_s = stats::fastest(&setups);
    samples.push(("setup_s".to_string(), setups));
    let wire_bytes = fold(logs, &mut checker);
    let exact = tcp::exact_answers(&mut client, &mut checker);
    let within = checker.within_eps(&exact);
    notes.push(format!(
        "phase A: {ops_a} operations on {} connections ({served:?}), throughput_ops_s \
         {throughput_ops_s:.0} in the best second; within_eps_share {within}; \
         wire_bytes_per_query {:.1}",
        p.connections,
        wire_bytes as f64 / checker.attempted.max(1) as f64
    ));
    let peak_rss_mib = server_rss(&server, &mut checker);
    drop(client);
    finish(server, &mut checker);
    let e2e = EndToEnd {
        setup_s,
        class_ms,
        peak_rss_mib,
        sim_gpu_s_per_query: tally.sim_gpu_s_per_query(),
    };
    Ok(Outcome { metrics: e2e.metrics(), notes, checker, samples })
}
