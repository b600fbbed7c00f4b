//! The traced run: per-layer metrics, by timing calls into each layer's
//! public functions from the benchmark's own files.
//!
//! `--trace 1` replays a reduced operation list of the workload in-process
//! (fresh `Catalog`/`Server` per cold sample, same seed), recording one span
//! per layer boundary — `{name, op_id, parent, start_ns, end_ns}` plus the
//! counts taken at the same boundary — in memory, and writes them when the
//! run ends to `benchmark/out/trace-<workload>.json`, with the per-layer
//! table (self time = span − covered children) in `benchmark/out/layers.json`.
//! The engine's own `EXPLAIN ANALYZE` tree is read, not extended; spans
//! *inside* the server binary are a later issue. End-to-end numbers never
//! come from this run.

use crate::check::{Checker, CostTally, Metric, Outcome};
use crate::inproc;
use crate::json::{self, Reply};
use crate::layers::{self, Measured};
use crate::queries::{
    result_cache_entries, Class, Op, QueryGen, COLD_TARGETS, LIVE_TARGETS, SERVER_TARGETS, VIDEOS,
};
use crate::spans::{SpanId, SpanLog};
use crate::stats;
use crate::stream::{LiveCatalog, Sizes, TICK_FRAMES};
use crate::tcp;
use crate::workloads::Params;
use blazeit::nn::parallel::pool_stats;
use blazeit::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric as `(name, unit, better)`, in `BENCHMARK.json`
/// order. A traced run reports all of them; the ones whose layer does no
/// work on the workload read 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("wire.ping_rtt_us", "us", "lower"),
    ("wire.overhead_us", "us", "lower"),
    ("wire.rtt_p99_us", "us", "lower"),
    ("wire.replay_ops_s", "1/s", "higher"),
    ("wire.bytes_per_query", "bytes", "lower"),
    ("frameql.parse_us", "us", "lower"),
    ("plan.prepare_cold_us", "us", "lower"),
    ("plan.prepare_warm_us", "us", "lower"),
    ("serve.hit_us", "us", "lower"),
    ("serve.miss_overhead_us", "us", "lower"),
    ("serve.admission_wait_us", "us", "lower"),
    ("serve.hits", "count", "higher"),
    ("serve.misses", "count", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("serve.evicted", "count", "lower"),
    ("serve.invalidated", "count", "lower"),
    ("serve.hit_ratio", "share", "higher"),
    ("nn.train_ms", "ms", "lower"),
    ("nn.heldout_score_ms", "ms", "lower"),
    ("nn.score_video_frames_per_s", "1/s", "higher"),
    ("nn.score_batch256_frames_per_s", "1/s", "higher"),
    ("nn.featurize_us_per_frame", "us", "lower"),
    ("nn.forward_us_per_frame", "us", "lower"),
    ("nn.matmul_gflops", "GFLOP/s", "higher"),
    ("pool.submitted", "count", "lower"),
    ("pool.executed", "count", "higher"),
    ("pool.stolen", "count", "lower"),
    ("pool.stolen_share", "share", "lower"),
    ("pool.fanout_speedup", "ratio", "higher"),
    ("detect.detect_us_per_frame", "us", "lower"),
    ("detect.calls_aggregate", "count", "lower"),
    ("detect.calls_scrub", "count", "lower"),
    ("detect.calls_select", "count", "lower"),
    ("detect.calls_fanout", "count", "lower"),
    ("videostore.render_full_us_per_frame", "us", "lower"),
    ("videostore.render_sampled_us_per_frame", "us", "lower"),
    ("videostore.generate_ms", "ms", "lower"),
    ("span.train_specialized_ms", "ms", "lower"),
    ("span.heldout_score_ms", "ms", "lower"),
    ("span.specialized_score_ms", "ms", "lower"),
    ("span.query_rewrite_ms", "ms", "lower"),
    ("span.sample_verify_ms", "ms", "lower"),
    ("span.detect_verify_ms", "ms", "lower"),
    ("span.calibrate_filters_ms", "ms", "lower"),
    ("span.filter_detect_ms", "ms", "lower"),
    ("span.merge_ms", "ms", "lower"),
    ("span.parse_ms", "ms", "lower"),
    ("span.plan_ms", "ms", "lower"),
    ("span.admission_wait_ms", "ms", "lower"),
    ("span.unattributed_ms", "ms", "lower"),
    ("store.open_register_ms", "ms", "lower"),
    ("store.disk_warm_ms", "ms", "lower"),
    ("store.load_network_ms", "ms", "lower"),
    ("store.load_scores_ms", "ms", "lower"),
    ("store.store_scores_ms", "ms", "lower"),
    ("store.bytes_per_frame", "bytes", "lower"),
    ("stream.tick_early_ms", "ms", "lower"),
    ("stream.tick_late_ms", "ms", "lower"),
    ("stream.advance_early_ms", "ms", "lower"),
    ("stream.advance_late_ms", "ms", "lower"),
    ("stream.poll_us", "us", "lower"),
    ("stream.updates_per_tick", "count", "higher"),
    ("stream.index_bytes_copied_per_tick", "bytes", "lower"),
    ("obs.analyze_overhead_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("answers.within_eps_share", "share", "higher"),
];

/// The engine span labels behind the `span.*` metrics (the rest of the
/// tree — the `query` root and the per-video wrappers — is "unattributed").
const STAGES: [&str; 12] = [
    "train_specialized",
    "heldout_score",
    "specialized_score",
    "query_rewrite",
    "sample_verify",
    "detect_verify",
    "calibrate_filters",
    "filter_detect",
    "merge",
    "parse",
    "plan",
    "admission_wait",
];

const OP_SPANS: [&str; 4] = ["op.aggregate", "op.scrub", "op.select", "op.fanout"];

/// Operation ids of the in-process replay start here; `EXPLAIN ANALYZE`
/// passes, ticks and one-off operations count up from 1.
const REPLAY_IDS: u64 = 1_000_000;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn server_catalog(frames: u64) -> Result<Arc<Catalog>, String> {
    let catalog = Arc::new(Catalog::new());
    for preset in VIDEOS {
        catalog.register_preset(preset, frames).map_err(text)?;
    }
    Ok(catalog)
}

/// Durations (seconds, recording order) of the spans called `name`.
fn durations(log: &SpanLog, name: &str) -> Vec<f64> {
    log.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect()
}

/// One traced run's state.
struct Run<'a> {
    p: &'a Params,
    log: SpanLog,
    checker: Checker,
    out: Measured,
    notes: Vec<String>,
    next_op: u64,
}

impl<'a> Run<'a> {
    fn new(p: &'a Params) -> Run<'a> {
        Run {
            p,
            log: SpanLog::new(true),
            checker: Checker::default(),
            out: Measured::new(),
            notes: Vec::new(),
            next_op: 0,
        }
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// A slice of the run's time budget.
    fn budget(&self, share: f64) -> Duration {
        self.p.duration().mul_f64(share)
    }

    /// Replays `count` operations of `ops` (cycled from position `from`)
    /// through the layers, one span per boundary: parse, prepare,
    /// (optionally) the engine without the serving layer, then the serving
    /// layer. Returns the seconds the replay took.
    fn replay(
        log: &mut SpanLog,
        server: &Server,
        ops: &[Op],
        engine_too: bool,
        (from, count): (usize, usize),
        checker: &mut Checker,
    ) -> f64 {
        let catalog = Arc::clone(server.catalog());
        let started = Instant::now();
        for (done, op) in ops.iter().cycle().skip(from % ops.len()).take(count).enumerate() {
            let id = REPLAY_IDS + (from + done) as u64;
            let root = log.open(OP_SPANS[op.class.index()], id, SpanId::NONE);
            log.time("frameql.parse", id, root, || {
                let _ = std::hint::black_box(parse_query(&op.sql));
            });
            log.time("plan.prepare", id, root, || {
                let _ = std::hint::black_box(catalog.session().prepare(&op.sql));
            });
            if engine_too {
                log.time("core.session_query", id, root, || {
                    let _ = std::hint::black_box(catalog.session().query(&op.sql));
                });
            }
            let serve = log.open("serve.query", id, root);
            let outcome = server.query(&op.sql);
            log.close(serve);
            log.close(root);
            inproc::check(&outcome, op, checker, &mut CostTally::default());
        }
        started.elapsed().as_secs_f64()
    }

    /// Replays in chunks, alternately traced and untraced (side by side in
    /// time, so that a slow stretch of the host hits both), and reports the
    /// tracing overhead as the ratio of the two quiet chunk times.
    ///
    /// A chunk is a whole number of passes over `ops`, about a hundred
    /// operations: both sides then replay the same queries, and a list
    /// longer than the result cache still misses on its immediate repeat.
    fn replay_both(&mut self, server: &Server, ops: &[Op], engine_too: bool) {
        let chunk = ops.len() * 100usize.div_ceil(ops.len());
        let budget = self.budget(0.24);
        let started = Instant::now();
        let mut off = SpanLog::new(false);
        let (mut traced, mut plain) = (Vec::new(), Vec::new());
        while started.elapsed() < budget && traced.len() * chunk < 4000 {
            let at = (traced.len() * chunk, chunk);
            traced.push(Run::replay(&mut self.log, server, ops, engine_too, at, &mut self.checker));
            plain.push(Run::replay(&mut off, server, ops, engine_too, at, &mut self.checker));
        }
        let (traced_secs, plain_secs) = (layers::quiet(&traced), layers::quiet(&plain));
        self.out.insert("bench.trace_overhead_pct", (traced_secs / plain_secs - 1.0) * 100.0);
        self.notes.push(format!(
            "in-process replay: {} chunks of {chunk} operations each way; quiet chunk {:.3} ms \
             traced, {:.3} ms untraced",
            traced.len(),
            traced_secs * 1e3,
            plain_secs * 1e3
        ));
    }

    /// Answers `op` through `server` — under an operation span when
    /// `traced` — checks the reply and tallies its cost fields.
    fn answer(&mut self, server: &Server, op: &Op, traced: bool, tally: &mut CostTally) {
        let outcome = if traced {
            let id = self.op_id();
            let root = self.log.open(OP_SPANS[op.class.index()], id, SpanId::NONE);
            let outcome = self.log.time("serve.query", id, root, || server.query(&op.sql));
            self.log.close(root);
            outcome
        } else {
            server.query(&op.sql)
        };
        inproc::check(&outcome, op, &mut self.checker, tally);
    }

    /// The `serve.*` counts.
    fn serve_counts(&mut self, [hits, misses, coalesced, evicted, invalidated]: [u64; 5]) {
        let lookups = hits + misses + coalesced;
        self.out.insert("serve.hits", hits as f64);
        self.out.insert("serve.misses", misses as f64);
        self.out.insert("serve.coalesced", coalesced as f64);
        self.out.insert("serve.evicted", evicted as f64);
        self.out.insert("serve.invalidated", invalidated as f64);
        self.out.insert("serve.hit_ratio", hits as f64 / lookups.max(1) as f64);
    }

    /// Runs `EXPLAIN ANALYZE` on each of `ops` through `server` and imports
    /// the engine's span tree under the harness span that ran it. Returns
    /// the operation ids used, in `ops` order.
    fn analyze(&mut self, server: &Server, ops: &[Op]) -> Vec<u64> {
        let mut ids = Vec::with_capacity(ops.len());
        for op in ops {
            let id = self.op_id();
            ids.push(id);
            let root = self.log.open(OP_SPANS[op.class.index()], id, SpanId::NONE);
            let serve = self.log.open("serve.query", id, root);
            let outcome = server.query(&format!("EXPLAIN ANALYZE {}", op.sql));
            self.log.close(serve);
            self.log.close(root);
            self.checker.attempted += 1;
            match outcome.as_ref().ok().and_then(|result| result.output.analyze_trace()) {
                Some(trace) => {
                    self.log.import_engine_trace(trace, id, serve);
                    self.log.count(
                        "engine.detector_calls",
                        id,
                        trace.counter_total("detector_calls") as f64,
                    );
                }
                None => self.checker.fail(|| format!("no trace for `{}`: {outcome:?}", op.sql)),
            }
        }
        ids
    }

    /// `span.*`: per stage, the self time summed over one pass of the class
    /// queries, as the median over `passes` (each a list of operation ids).
    fn span_metrics(&mut self, passes: &[Vec<u64>]) {
        let per_pass: Vec<_> =
            passes.iter().map(|ids| self.log.self_secs_by_name(|op| ids.contains(&op))).collect();
        let median_ms = |name: &str| {
            let sums: Vec<f64> =
                per_pass.iter().map(|by| by.get(name).copied().unwrap_or(0.0)).collect();
            stats::median(&sums) * 1e3
        };
        for (stage, (metric, _, _)) in
            STAGES.iter().zip(PER_LAYER.iter().filter(|m| m.0.starts_with("span.")))
        {
            self.out.insert(metric, median_ms(&format!("engine.{stage}")));
        }
        self.out
            .insert("span.unattributed_ms", median_ms("engine.query") + median_ms("engine.video"));
    }

    /// The TCP side of a warm workload, on one connection: `PING` round
    /// trips, then the replay of `ops` with `STATS` deltas around it and the
    /// admission-wait histogram from `METRICS` after it.
    ///
    /// The replay alternates, chunk by chunk, with the same queries answered
    /// in-process by `Server::query` on `twin` (a server in the same cache
    /// state, called in a loop as tight as the server's own), so that a
    /// slow stretch of the host hits both: `wire.overhead_us` is, per class,
    /// the quiet TCP round trip less the quiet in-process call, averaged
    /// over the classes. It includes the binary's private JSON render.
    fn tcp_replay(&mut self, twin: &Server, prewarm: &[&[Op]], ops: &[Op]) -> Result<(), String> {
        let (server, mut client, _) = tcp::timed_setup(&self.p.server)?;
        let mut tally = CostTally::default();
        for list in prewarm {
            tcp::prewarm(&mut client, list, &mut self.checker, &mut tally);
        }
        let mut pings = Vec::with_capacity(2000);
        for _ in 0..2000 {
            let sent = Instant::now();
            client.roundtrip("PING")?;
            pings.push(sent.elapsed().as_secs_f64());
        }
        self.out.insert("wire.ping_rtt_us", layers::quiet(&pings) * 1e6);

        let before = tcp::stats(&mut client)?;
        let started = Instant::now();
        let budget = self.budget(0.25);
        let mut over_tcp = tcp::ConnLog::default();
        let mut direct: [Vec<f64>; 4] = Default::default();
        let mut tcp_secs = 0.0;
        for chunk in ops.chunks(64).cycle() {
            if started.elapsed() >= budget {
                break;
            }
            let chunk_started = Instant::now();
            over_tcp.absorb(tcp::drive(&mut client, chunk, tcp::Stop::OnePass, chunk_started));
            tcp_secs += chunk_started.elapsed().as_secs_f64();
            for op in chunk {
                let secs = layers::secs(|| {
                    let _ = std::hint::black_box(twin.query(&op.sql));
                });
                direct[op.class.index()].push(secs * 1e3);
            }
        }
        let served = tcp::stats(&mut client)?.since(&before);
        let tcp::ConnLog { latencies_ms: over_tcp, checker, wire_bytes, .. } = over_tcp;
        self.checker.merge(checker);
        let all: Vec<f64> = over_tcp.iter().flatten().copied().collect();
        let gaps: Vec<f64> = over_tcp
            .iter()
            .zip(&direct)
            .filter(|(tcp, _)| !tcp.is_empty())
            .map(|(tcp, direct)| (layers::quiet(tcp) - layers::quiet(direct)) * 1e3)
            .collect();
        self.out.insert("wire.overhead_us", stats::mean(&gaps));
        self.out.insert("wire.replay_ops_s", all.len() as f64 / tcp_secs);
        self.out.insert("wire.rtt_p99_us", stats::quantile(&all, 0.99) * 1e3);
        self.out.insert("wire.bytes_per_query", wire_bytes as f64 / all.len().max(1) as f64);
        self.serve_counts([
            served.hits,
            served.misses,
            served.coalesced,
            served.evicted,
            served.invalidated,
        ]);

        let metrics = client.roundtrip("METRICS")?.to_string();
        let exposition = Reply::parse(&metrics).and_then(|r| r.string("exposition"));
        let sample = |name: &str| -> Option<f64> {
            let line = exposition.as_ref()?.lines().find(|l| l.starts_with(name))?;
            line.rsplit(' ').next()?.parse().ok()
        };
        let wait = sample("blazeit_serving_admission_wait_seconds_sum")
            .zip(sample("blazeit_serving_admission_wait_seconds_count"));
        self.checker.require(wait.is_some(), || "no admission-wait histogram in METRICS".into());
        if let Some((sum, count)) = wait {
            self.out.insert("serve.admission_wait_us", sum / count.max(1.0) * 1e6);
        }
        drop(client);
        let clean = server.shutdown();
        self.checker.require(clean, || "the server did not exit cleanly".to_string());
        self.notes
            .push(format!("TCP replay on one connection: {} operations, {served:?}", all.len()));
        Ok(())
    }

    /// Quiet duration (µs) of the replay's spans called `name`: per query
    /// class (a class's spans are alike, a mixed series is not), then the
    /// mean over the classes replayed.
    fn replay_us(&self, name: &str) -> f64 {
        let spans = self.log.spans();
        let per_class: Vec<f64> = OP_SPANS
            .iter()
            .map(|class| {
                spans
                    .iter()
                    .filter(|s| s.name == name && s.op_id >= REPLAY_IDS)
                    .filter(|s| s.parent.is_some_and(|p| spans[p].name == *class))
                    .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
                    .collect::<Vec<f64>>()
            })
            .filter(|series| !series.is_empty())
            .map(|series| layers::quiet(&series) * 1e6)
            .collect();
        stats::mean(&per_class)
    }

    /// Layer timings that fall out of the replay's spans.
    fn replay_metrics(&mut self, engine_too: bool) {
        let parse = self.replay_us("frameql.parse");
        let prepare = self.replay_us("plan.prepare");
        let serve = self.replay_us("serve.query");
        self.out.insert("plan.prepare_warm_us", prepare - parse);
        if engine_too {
            let engine = self.replay_us("core.session_query");
            self.out.insert("serve.miss_overhead_us", serve - engine);
        } else {
            self.out.insert("serve.hit_us", serve - prepare);
        }
    }

    /// `plan.prepare_cold_us`: `Session::prepare` less parse on a catalog
    /// that has answered nothing yet.
    fn prepare_cold(&mut self, catalog: &Catalog, ops: &[Op]) {
        let prepare: Vec<f64> = ops
            .iter()
            .map(|op| {
                layers::secs(|| {
                    let _ = std::hint::black_box(catalog.session().prepare(&op.sql));
                })
            })
            .collect();
        let parse: Vec<f64> = ops
            .iter()
            .map(|op| {
                layers::secs(|| {
                    let _ = std::hint::black_box(parse_query(&op.sql));
                })
            })
            .collect();
        self.out.insert(
            "plan.prepare_cold_us",
            (stats::median(&prepare) - stats::median(&parse)) * 1e6,
        );
    }

    fn detection_calls(&mut self, tally: &CostTally) {
        for (class, metric) in Class::ALL.iter().zip([
            "detect.calls_aggregate",
            "detect.calls_scrub",
            "detect.calls_select",
            "detect.calls_fanout",
        ]) {
            self.out.insert(metric, tally.mean_detection_calls(*class));
        }
    }

    /// `obs.analyze_overhead_pct`: `EXPLAIN ANALYZE q` against `q`, straight
    /// on the engine (no result cache in the way), every index warm; passes
    /// alternate so that a slow stretch of the host hits both.
    fn analyze_overhead(&mut self, catalog: &Catalog, ops: &[Op]) {
        let session = catalog.session();
        let pass = |prefix: &str| {
            layers::secs(|| {
                for op in ops {
                    let _ = std::hint::black_box(session.query(&format!("{prefix}{}", op.sql)));
                }
            })
        };
        let (plain, analyzed): (Vec<f64>, Vec<f64>) =
            (0..20).map(|_| (pass(""), pass("EXPLAIN ANALYZE "))).unzip();
        self.out.insert(
            "obs.analyze_overhead_pct",
            (layers::quiet(&analyzed) / layers::quiet(&plain) - 1.0) * 100.0,
        );
    }

    /// Ticks `live` `count` times with `advance` and `poll` as separate
    /// spans (`names` = the tick span and the advance span; recording into
    /// the run's log only when `traced`). Returns tick and advance
    /// latencies in ms and the mean number of updates per tick.
    fn ticks(
        &mut self,
        live: &mut LiveCatalog,
        traced: bool,
        count: usize,
        names: (&str, &str),
    ) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
        let source = live.catalog.stream("taipei").map_err(text)?;
        let mut off = SpanLog::new(false);
        let (mut tick_ms, mut advance_ms, mut updates) = (Vec::new(), Vec::new(), 0usize);
        for _ in 0..count {
            let id = self.op_id();
            let log = if traced { &mut self.log } else { &mut off };
            let started = Instant::now();
            let root = log.open(names.0, id, SpanId::NONE);
            let advance = log.open(names.1, id, root);
            source.advance(TICK_FRAMES).map_err(text)?;
            let advance_secs = log.close(advance);
            let poll = log.open("stream.poll", id, root);
            let got = live.subscription.poll().map_err(text)?.len();
            log.close(poll);
            log.close(root);
            tick_ms.push(started.elapsed().as_secs_f64() * 1e3);
            advance_ms.push(advance_secs * 1e3);
            log.count("stream.updates", id, got as f64);
            updates += got;
            self.checker.attempted += 1;
            if got != 1 {
                self.checker.fail(|| format!("a tick produced {got} updates, expected 1"));
            }
        }
        Ok((tick_ms, advance_ms, updates as f64 / count.max(1) as f64))
    }

    /// Writes the trace files and assembles the outcome.
    fn finish(self, workload: &str) -> Result<Outcome, String> {
        let Run { p, log, checker, out, mut notes, .. } = self;
        std::fs::create_dir_all(&p.out_dir).map_err(text)?;
        let trace_path = p.out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&trace_path, log.to_json(workload)).map_err(text)?;
        // layers.json holds one table per workload; keep the other
        // workloads' tables from earlier runs.
        let layers_path = p.out_dir.join("layers.json");
        let previous = std::fs::read_to_string(&layers_path).unwrap_or_default();
        let mut tables: Vec<(String, String)> = Reply::parse(&previous)
            .map(|tables| {
                crate::workloads::WORKLOADS
                    .iter()
                    .filter(|w| **w != workload)
                    .filter_map(|w| Some((w.to_string(), tables.raw(w)?.to_string())))
                    .collect()
            })
            .unwrap_or_default();
        tables.push((workload.to_string(), log.layer_table_json()));
        tables.sort();
        let rendered = json::object(tables.iter().map(|(w, table)| (w.as_str(), table.clone())));
        std::fs::write(&layers_path, rendered).map_err(text)?;
        notes.push(format!(
            "{} spans written to {}, layer table to {}",
            log.spans().len(),
            trace_path.display(),
            layers_path.display()
        ));
        let metrics = PER_LAYER
            .iter()
            .map(|(name, unit, _)| Metric::new(*name, unit, out.get(name).copied().unwrap_or(0.0)))
            .collect();
        Ok(Outcome { metrics, notes, checker, samples: Vec::new() })
    }
}

/// The traced run of `workload`.
pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    let mut run = Run::new(p);
    match workload {
        "cold_first_query" => cold(&mut run)?,
        "warm_cache_hits" => hits(&mut run)?,
        "warm_index_recompute" => recompute(&mut run)?,
        "stream_ingest_ticks" => stream_ticks(&mut run)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    run.finish(workload)
}

/// Cold path: fresh catalogs, the engine's own span tree per class, the
/// fan-out's worker-pool counters, and the `nn`, `store` and `videostore`
/// probes at the cold path's shapes.
fn cold(run: &mut Run<'_>) -> Result<(), String> {
    let p = run.p;
    let mut gen = QueryGen::new(p.seed, COLD_TARGETS);
    let ops = Class::ALL.map(|class| gen.op(class));
    layers::frameql(&ops, &mut run.out);
    run.prepare_cold(&*server_catalog(p.frames())?, &ops);

    let passes = if p.quick { 1 } else { 3 };
    let mut cold_passes = Vec::new();
    let mut fanout_secs = Vec::new();
    let mut single_secs = Vec::new();
    let mut pool = Vec::new();
    let mut tally = CostTally::default();
    let mut warm_server = None;
    for _ in 0..passes {
        // Three first-touch queries on three videos, as over the wire.
        let server = Server::new(server_catalog(p.frames())?);
        let mut ids = run.analyze(&server, &ops[..3]);
        // The fan-out on its own fresh catalog, with the pool's counters
        // read around it.
        let server = Server::new(server_catalog(p.frames())?);
        let before = pool_stats();
        ids.extend(run.analyze(&server, &ops[3..]));
        let after = pool_stats();
        pool.push([
            (after.submitted - before.submitted) as f64,
            (after.executed - before.executed) as f64,
            (after.stolen - before.stolen) as f64,
        ]);
        let fanout_id = ids[3];
        fanout_secs.push(
            run.log
                .spans()
                .iter()
                .find(|s| s.op_id == fanout_id && s.name == "serve.query")
                .map_or(f64::NAN, |s| (s.end_ns - s.start_ns) as f64 * 1e-9),
        );
        cold_passes.push(ids);
        // The same aggregate on each video alone, each cold: what the
        // fan-out would cost one after another.
        let server = Server::new(server_catalog(p.frames())?);
        let exact = ops[0].sql.replace("FROM taipei", "FROM {}");
        single_secs.push(
            ["taipei", "night-street", "amsterdam"]
                .iter()
                .map(|video| {
                    layers::secs(|| {
                        let _ = server.query(&exact.replace("{}", video));
                    })
                })
                .sum::<f64>(),
        );
        // Plain answers to the same four queries on that server (every
        // index warm by now), for the reply checks and the detector-call
        // counts, which EXPLAIN ANALYZE replies do not carry the same way.
        for op in &ops {
            run.answer(&server, op, false, &mut tally);
        }
        warm_server = Some(server);
    }
    run.span_metrics(&cold_passes);
    run.detection_calls(&tally);
    let column = |i: usize| stats::median(&pool.iter().map(|row| row[i]).collect::<Vec<_>>());
    run.out.insert("pool.submitted", column(0));
    run.out.insert("pool.executed", column(1));
    run.out.insert("pool.stolen", column(2));
    run.out.insert("pool.stolen_share", column(2) / column(0).max(1.0));
    run.out
        .insert("pool.fanout_speedup", stats::median(&single_secs) / stats::median(&fanout_secs));

    // Acceptance: on the cold aggregate the span self times sum to the
    // root within 2 %, and training is the largest cold share.
    let aggregate_id = cold_passes[0][0];
    let selfs = run.log.self_secs_by_name(|op| op == aggregate_id);
    let engine: f64 = selfs.iter().filter(|(n, _)| n.starts_with("engine.")).map(|(_, s)| s).sum();
    let root = run
        .log
        .spans()
        .iter()
        .find(|s| s.op_id == aggregate_id && s.name == "engine.query")
        .map_or(f64::NAN, |s| (s.end_ns - s.start_ns) as f64 * 1e-9);
    run.checker.require((engine - root).abs() <= 0.02 * root, || {
        format!("cold aggregate: span self times sum to {engine} s, the root took {root} s")
    });
    let train = run.out.get("span.train_specialized_ms").copied().unwrap_or(0.0);
    let largest = STAGES
        .iter()
        .filter_map(|stage| run.out.get(format!("span.{stage}_ms").as_str()))
        .all(|ms| *ms <= train);
    run.checker.require(largest, || "training is not the largest cold stage".to_string());
    run.notes.push(format!(
        "cold aggregate: engine self times sum to {:.3} ms of a {:.3} ms root",
        engine * 1e3,
        root * 1e3
    ));

    // Tracing overhead, on the last pass's (now warm) server.
    let server = warm_server.ok_or("no cold pass ran")?;
    run.replay_both(&server, &ops, false);

    let (ctx, nn) = layers::nn_cold(p.frames(), if p.quick { 2 } else { 6 }, &mut run.out)?;
    layers::nn_kernels(&ctx, &nn, &mut run.out)?;
    layers::videostore_generate(p.frames(), &mut run.out);
    layers::store(&p.out_dir, p.frames(), &ops, &nn, &ctx.video(), &mut run.out)?;
    Ok(())
}

/// Result-cache hits: `wire`, `frameql`, `plan` and `serve` do all the work.
fn hits(run: &mut Run<'_>) -> Result<(), String> {
    let p = run.p;
    let mut gen = QueryGen::new(p.seed, SERVER_TARGETS);
    let pool = gen.distinct([8, 8, 6, 2], &mut BTreeSet::new());
    layers::frameql(&pool, &mut run.out);
    let catalog = server_catalog(p.frames())?;
    run.prepare_cold(&catalog, &pool);
    let server = Server::new(catalog);
    let mut tally = CostTally::default();
    for op in &pool {
        run.answer(&server, op, false, &mut tally);
    }
    run.detection_calls(&tally);
    run.replay_both(&server, &pool, false);
    run.replay_metrics(false);
    run.tcp_replay(&server, &[&pool], &pool)?;
    Ok(())
}

/// Index-warm recompute: `serve` used the other way, the executors'
/// sampling and verify loops, the simulated detector and full-frame
/// rendering.
fn recompute(run: &mut Run<'_>) -> Result<(), String> {
    let p = run.p;
    let mut gen = QueryGen::new(p.seed, SERVER_TARGETS);
    let mut taken = BTreeSet::new();
    let per_list = if p.quick { [40, 24, 0, 4] } else { [307, 179, 0, 26] };
    let list = gen.distinct(per_list, &mut taken);
    let selections = gen.distinct([0, 0, if p.quick { 2 } else { 6 }, 0], &mut taken);
    // What pushes the pre-warm pass's answers out of the result cache
    // before the replay over the wire begins.
    let evictors = gen.distinct([result_cache_entries(), 0, 0, 0], &mut taken);
    layers::frameql(&list, &mut run.out);
    let catalog = server_catalog(p.frames())?;
    run.prepare_cold(&catalog, &list[..list.len().min(64)]);
    let server = Server::new(Arc::clone(&catalog));
    let mut tally = CostTally::default();
    for op in selections[..1].iter().chain(&list) {
        run.answer(&server, op, false, &mut tally);
    }
    // The list is longer than the result cache, so cycling it misses every
    // time; the engine is also called without the serving layer.
    run.replay_both(&server, &list, true);
    run.replay_metrics(true);
    let served = server.stats();
    run.checker.require(p.quick || served.hits == 0, || {
        format!("the in-process replay must miss every time, the server counted {served:?}")
    });

    // One index-warm pass per class under EXPLAIN ANALYZE, a few times.
    let one_of_each: Vec<Op> = Class::ALL
        .iter()
        .filter_map(|class| list.iter().chain(&selections).find(|op| op.class == *class).cloned())
        .collect();
    let passes: Vec<Vec<u64>> =
        (0..if p.quick { 1 } else { 5 }).map(|_| run.analyze(&server, &one_of_each)).collect();
    run.span_metrics(&passes);
    run.analyze_overhead(&catalog, &list[..list.len().min(48)]);

    // Selection on its own: a few traced operations.
    for op in &selections {
        run.answer(&server, op, true, &mut tally);
    }
    run.detection_calls(&tally);
    layers::select_path(p.frames(), &mut run.out)?;

    run.tcp_replay(&server, &[&selections[..1], &list, &evictors], &list)?;
    let mut client_exact = std::collections::BTreeMap::new();
    for sql in run.checker.exact_queries() {
        if let Some(value) =
            catalog.session().query(&sql).ok().and_then(|r| r.output.aggregate_value())
        {
            client_exact.insert(sql, value);
        }
    }
    let within = run.checker.within_eps(&client_exact);
    run.out.insert("answers.within_eps_share", within);
    Ok(())
}

/// Streaming: `advance` and `poll` apart, early and late, with the bytes of
/// index each late tick copies computed from the index's size.
fn stream_ticks(run: &mut Run<'_>) -> Result<(), String> {
    let p = run.p;
    let sizes = Sizes::new(p.seconds, p.quick);
    // Half the end-to-end run's late ticks, and no query between them.
    let late_ticks = sizes.late_ticks() / 2;
    let mut gen = QueryGen::new(p.seed, LIVE_TARGETS);
    let ops = Class::ALL.map(|class| gen.op(class));
    layers::frameql(&ops, &mut run.out);

    // Two early streams of one size: one ticked traced, one untraced.
    let early_capacity = sizes.early_start + sizes.early_ticks as u64 * TICK_FRAMES;
    let names = ("tick.early", "stream.advance_early");
    let mut early = LiveCatalog::build(p.frames(), sizes.early_start, early_capacity)?;
    let (traced_ms, advance_ms, per_tick) =
        run.ticks(&mut early, true, sizes.early_ticks, names)?;
    let mut early = LiveCatalog::build(p.frames(), sizes.early_start, early_capacity)?;
    let (plain_ms, _, _) = run.ticks(&mut early, false, sizes.early_ticks, names)?;
    drop(early);
    run.out.insert("stream.tick_early_ms", layers::quiet(&traced_ms));
    run.out.insert("stream.advance_early_ms", layers::quiet(&advance_ms));
    run.out.insert("stream.updates_per_tick", per_tick);
    run.out.insert("stream.poll_us", layers::quiet(&durations(&run.log, "stream.poll")) * 1e6);
    run.out.insert(
        "bench.trace_overhead_pct",
        (layers::quiet(&traced_ms) / layers::quiet(&plain_ms) - 1.0) * 100.0,
    );

    // What set-up trains and scores, and the kernels an early tick is made of.
    let (ctx, nn) = layers::nn_cold(p.frames(), if p.quick { 2 } else { 4 }, &mut run.out)?;
    layers::nn_kernels(&ctx, &nn, &mut run.out)?;
    layers::videostore_generate(p.frames(), &mut run.out);

    // The late stream: its prefix is scored before anything is recorded.
    let late_capacity = sizes.late_start + late_ticks as u64 * TICK_FRAMES;
    let mut late = LiveCatalog::build(p.frames(), sizes.late_start, late_capacity)?;
    let server = Server::new(Arc::clone(&late.catalog));
    for class in Class::ALL {
        run.answer(&server, &gen.op(class), false, &mut CostTally::default());
    }
    let names = ("tick.late", "stream.advance_late");
    let (tick_ms, advance_ms, _) = run.ticks(&mut late, true, late_ticks, names)?;
    run.out.insert("stream.tick_late_ms", layers::quiet(&tick_ms));
    run.out.insert("stream.advance_late_ms", layers::quiet(&advance_ms));
    // Every append copies the whole index: rows × stride × 4 bytes at the
    // index's size half-way through the late ticks. Computed from sizes.
    let live_ctx = late.catalog.context("taipei").map_err(text)?;
    let heads = vec![(ObjectClass::Car, live_ctx.default_max_count(ObjectClass::Car, 1))];
    let live_nn = live_ctx.specialized_for(&heads).map_err(text)?;
    let stride = live_ctx.score_index(&live_nn).map_err(text)?.stride();
    let rows_mid = sizes.late_start + late_ticks as u64 * TICK_FRAMES / 2;
    run.out.insert("stream.index_bytes_copied_per_tick", (rows_mid as usize * stride * 4) as f64);

    // One-shot queries over the grown stream: every one a recompute.
    let mut tally = CostTally::default();
    for op in &ops {
        run.answer(&server, op, true, &mut tally);
    }
    run.detection_calls(&tally);
    let served = server.stats();
    run.serve_counts([
        served.hits,
        served.misses,
        served.coalesced,
        served.evicted,
        served.invalidated,
    ]);
    run.notes.push(format!("late stream one-shot queries: {served:?}"));
    Ok(())
}
