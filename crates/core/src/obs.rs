//! Observability: hierarchical query tracing and the process-wide metrics
//! registry.
//!
//! Two subsystems live here, both routed through the [`crate::sync`] shim so
//! the model checker and the `sync-primitive` lint stay valid:
//!
//! * **Query tracing** — a per-query [`TraceCollector`] assembles a
//!   [`QueryTrace`]: a tree of [`TraceSpan`]s (parse → plan → per-video
//!   sub-plan → train / score / detect-verify / merge, plus the serving
//!   layer's admission wait), each recording wall time, the simulated-cost
//!   delta by [`CostCategory`], and counters (frames scored, detector calls,
//!   cache hits). Spans are RAII guards ([`span`]): opening one gives the
//!   thread a *private* [`SimClock`] charge tag, so everything charged inside
//!   the span lands on the span's own ledger; closing it restores the previous
//!   tag. At assembly time ([`CollectorGuard::finish`]) every span ledger is
//!   snapshotted and merged back into the ambient tag in span order — the same
//!   fold [`SimClock::breakdown`] performs — so the trace's per-span costs sum
//!   to the session's ledger delta **exactly** (bitwise, not within an
//!   epsilon). `EXPLAIN ANALYZE` is the user-facing surface: it executes the
//!   query under a collector and renders the span tree.
//!
//!   **Overhead policy:** with no collector installed on the thread, [`span`]
//!   reads one thread-local `Option`, finds `None`, and returns an inert guard
//!   — no allocation, no lock, no clock traffic (the label closure is never
//!   evaluated). A release-only unit test pins this under a budget in CI.
//!
//! * **Metrics registry** — process-wide [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed latency [`Histogram`]s ([`metrics`]) instrumenting serving
//!   (admission queue depth and wait, cache hits/misses/coalesced/evicted/
//!   invalidated), streaming (frames ingested, drift score, retrain
//!   outcomes), the index store (reads/writes/evictions/heals), and — read
//!   from `blazeit_nn::parallel` — the worker pool. [`prometheus_exposition`]
//!   renders everything in Prometheus text exposition format, served by the
//!   `blazeit-server` `METRICS` command.
//!
//! The collector's internal lock is enrolled in the ranked hierarchy as
//! `obs_trace`, the **highest** rank: spans open and close while engine locks
//! are held, so the collector lock must always be acquirable and is never held
//! across any other acquisition.

use crate::lockorder::{lock_ordered, RANK_OBS_TRACE};
use crate::sync::{AtomicU64, Mutex, OnceLock, Ordering};
use blazeit_detect::clock::{CostBreakdown, CostCategory};
use blazeit_detect::SimClock;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------------
// Query tracing.
// ---------------------------------------------------------------------------------

/// Span counter name: frames scored by a specialized network.
pub const COUNTER_FRAMES_SCORED: &str = "frames_scored";
/// Span counter name: full object-detector invocations.
pub const COUNTER_DETECTOR_CALLS: &str = "detector_calls";
/// Span counter name: engine-level cache hits (specialized NN / score index).
pub const COUNTER_CACHE_HITS: &str = "cache_hits";
/// Span counter name: full frames rendered on the host (selection's content-filter
/// scan, its calibration, and row evaluations that reached a content UDF).
pub const COUNTER_FRAMES_RENDERED: &str = "frames_rendered";
/// Span counter name: scrub candidates put in visit order (counted on
/// `detect-verify`; the whole video only when verification walks all of it).
pub const COUNTER_FRAMES_RANKED: &str = "frames_ranked";

/// Span tags live far above the serving layer's session tags (which count up
/// from 1), so a span's private ledger can never collide with a session's.
const SPAN_TAG_BASE: u64 = 1 << 48;

/// The next unused span charge tag, global so concurrently traced queries
/// (several `EXPLAIN ANALYZE` through one server) never share a ledger.
static NEXT_SPAN_TAG: AtomicU64 = AtomicU64::new(SPAN_TAG_BASE);

/// One node of a [`QueryTrace`]: a lifecycle stage with its wall time,
/// simulated-cost delta, and counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// The span's index in [`QueryTrace::spans`] (creation order; a parent is
    /// always created before its children, so `parent < id`).
    pub id: u32,
    /// The enclosing span, or `None` for a root.
    pub parent: Option<u32>,
    /// The stage label (`"parse"`, `"video 'taipei'"`, `"detect-verify"`, …).
    pub label: String,
    /// Wall-clock seconds between the span's open and close.
    pub wall_secs: f64,
    /// Simulated cost charged while this span's tag was active, *exclusive* of
    /// child spans (each child charges its own tag).
    pub cost: CostBreakdown,
    /// Call counters recorded inside this span (see the `COUNTER_*` names).
    pub counters: Vec<(String, u64)>,
}

/// The assembled trace of one executed query: every span in creation order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// All spans; `spans[i].id == i`.
    pub spans: Vec<TraceSpan>,
}

impl QueryTrace {
    /// The sum of every span's simulated-cost delta, folded in span order with
    /// [`CostBreakdown::plus`] — by construction bitwise equal to what the
    /// collector merged back into the session's ledger.
    pub fn total_cost(&self) -> CostBreakdown {
        self.spans.iter().fold(CostBreakdown::default(), |acc, s| acc.plus(&s.cost))
    }

    /// The sum of every span's `counter` entries.
    pub fn counter_total(&self, counter: &str) -> u64 {
        self.spans
            .iter()
            .flat_map(|s| s.counters.iter())
            .filter(|(name, _)| name == counter)
            .map(|&(_, n)| n)
            .sum()
    }

    /// Children of `id` in creation order (`None` = roots).
    fn children(&self, id: Option<u32>) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter().filter(move |s| s.parent == id)
    }

    fn render_span(&self, span: &TraceSpan, depth: usize, width: usize, out: &mut String) {
        let indent = "  ".repeat(depth + 1);
        let mut line = format!("{indent}{label:<w$}", label = span.label, w = width - indent.len());
        line.push_str(&format!("  wall {:>9.3}ms", span.wall_secs * 1e3));
        line.push_str(&format!("  sim {:>11.6}s", span.cost.total()));
        let mut notes: Vec<String> = CostCategory::ALL
            .iter()
            .filter(|&&c| span.cost.get(c) > 0.0)
            .map(|&c| format!("{} {:.6}s", c.label(), span.cost.get(c)))
            .collect();
        notes.extend(span.counters.iter().map(|(name, n)| format!("{name}={n}")));
        if !notes.is_empty() {
            line.push_str(&format!("  [{}]", notes.join(", ")));
        }
        out.push_str(&line);
        out.push('\n');
        for child in self.children(Some(span.id)) {
            self.render_span(child, depth + 1, width, out);
        }
    }

    fn depth_of(&self, span: &TraceSpan) -> usize {
        let mut depth = 0usize;
        let mut parent = span.parent;
        while let Some(p) = parent {
            depth += 1;
            parent = self.spans.get(p as usize).and_then(|s| s.parent);
        }
        depth
    }
}

/// Renders the span tree, mirroring the `EXPLAIN` sub-plan layout: two-space
/// indentation per tree level under an `EXPLAIN ANALYZE` header, one line per
/// span with wall time, simulated cost (total plus nonzero categories), and
/// counters. The grand total line repeats [`QueryTrace::total_cost`], which is
/// bitwise equal to the query's ledger charge.
impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .spans
            .iter()
            .map(|s| 2 * (self.depth_of(s) + 1) + s.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let mut out = String::from("EXPLAIN ANALYZE\n");
        for root in self.children(None) {
            self.render_span(root, 0, width, &mut out);
        }
        let total = self.total_cost();
        out.push_str(&format!(
            "  total: {:.6} simulated seconds over {} spans\n",
            total.total(),
            self.spans.len()
        ));
        f.write_str(out.trim_end_matches('\n'))
    }
}

/// An in-flight span record, completed in place when its guard drops.
struct SpanRecord {
    parent: Option<u32>,
    label: String,
    tag: u64,
    wall_secs: f64,
    counters: Vec<(String, u64)>,
}

/// Collects the spans of one traced query. Created by [`install_collector`];
/// its lock ranks `obs_trace` (highest) so spans can record themselves while
/// any engine lock is held.
pub struct TraceCollector {
    clock: Arc<SimClock>,
    state: Mutex<Vec<SpanRecord>>,
}

impl TraceCollector {
    fn open_span(&self, label: String, parent: Option<u32>) -> (u32, u64) {
        let tag = NEXT_SPAN_TAG.fetch_add(1, Ordering::Relaxed);
        let mut spans = lock_ordered(RANK_OBS_TRACE, "obs_trace", &self.state);
        let id = spans.len() as u32;
        spans.push(SpanRecord { parent, label, tag, wall_secs: 0.0, counters: Vec::new() });
        (id, tag)
    }

    fn close_span(&self, id: u32, wall_secs: f64) {
        let mut spans = lock_ordered(RANK_OBS_TRACE, "obs_trace", &self.state);
        if let Some(record) = spans.get_mut(id as usize) {
            record.wall_secs = wall_secs;
        }
    }

    fn add_count(&self, id: u32, counter: &'static str, n: u64) {
        let mut spans = lock_ordered(RANK_OBS_TRACE, "obs_trace", &self.state);
        let Some(record) = spans.get_mut(id as usize) else { return };
        match record.counters.iter_mut().find(|(name, _)| name == counter) {
            Some(slot) => slot.1 += n,
            None => record.counters.push((counter.to_string(), n)),
        }
    }

    /// Snapshots every span ledger, merges each back into `ambient_tag` in
    /// span order (the exactness-preserving fold), and returns the trace.
    fn assemble(&self, ambient_tag: u64) -> QueryTrace {
        let records: Vec<SpanRecord> = {
            let mut spans = lock_ordered(RANK_OBS_TRACE, "obs_trace", &self.state);
            std::mem::take(&mut *spans)
        };
        let spans = records
            .into_iter()
            .enumerate()
            .map(|(id, record)| {
                let cost = self.clock.breakdown_for(record.tag);
                self.clock.merge_tag(record.tag, ambient_tag);
                TraceSpan {
                    id: id as u32,
                    parent: record.parent,
                    label: record.label,
                    wall_secs: record.wall_secs,
                    cost,
                    counters: record.counters,
                }
            })
            .collect();
        QueryTrace { spans }
    }
}

/// The thread's tracing state: which collector is installed and which span is
/// innermost. A plain `RefCell` — thread-local by construction; it crosses
/// threads only by value, via [`TraceContext`].
struct ActiveTrace {
    collector: Arc<TraceCollector>,
    current: Option<u32>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Keeps a [`TraceCollector`] installed on this thread; dropping (or
/// [`finish`](CollectorGuard::finish)ing) it restores the previous state.
pub struct CollectorGuard {
    collector: Arc<TraceCollector>,
    /// `Some(previous)` until restored; `None` after (drop must not restore
    /// twice when `finish` already has).
    saved: Option<Option<ActiveTrace>>,
}

/// Installs a fresh trace collector on this thread: every [`span`] opened
/// until the guard is finished (or dropped) records into it, on this thread
/// and — via [`TraceContext`] — on worker threads. `clock` is the clock whose
/// per-tag ledgers the spans charge; assembly merges them back into the tag
/// that is ambient when [`CollectorGuard::finish`] runs.
pub fn install_collector(clock: Arc<SimClock>) -> CollectorGuard {
    let collector = Arc::new(TraceCollector {
        clock,
        state: Mutex::ranked(RANK_OBS_TRACE, "obs_trace", Vec::new()),
    });
    let previous = ACTIVE.with(|slot| {
        slot.borrow_mut().replace(ActiveTrace { collector: Arc::clone(&collector), current: None })
    });
    CollectorGuard { collector, saved: Some(previous) }
}

impl CollectorGuard {
    fn restore(&mut self) {
        if let Some(previous) = self.saved.take() {
            ACTIVE.with(|slot| *slot.borrow_mut() = previous);
        }
    }

    /// Uninstalls the collector and assembles the [`QueryTrace`]: every span's
    /// private ledger is snapshotted (that snapshot is the span's `cost`) and
    /// merged into this thread's ambient charge tag in span order, so the
    /// trace total and the ambient ledger delta are the identical fold.
    pub fn finish(mut self) -> QueryTrace {
        self.restore();
        self.collector.assemble(SimClock::charge_tag())
    }
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        // An abandoned guard (error path) still restores the thread state and
        // re-attributes span charges, so no ledger is stranded on a dead tag.
        if self.saved.is_some() {
            self.restore();
            let _ = self.collector.assemble(SimClock::charge_tag());
        }
    }
}

/// An RAII span: created by [`span`], records itself into the installed
/// collector when dropped. Inert (a no-op wrapper) when no collector is
/// installed.
pub struct SpanGuard {
    armed: Option<ArmedSpan>,
}

struct ArmedSpan {
    collector: Arc<TraceCollector>,
    id: u32,
    parent: Option<u32>,
    prev_tag: u64,
    started: Instant,
}

/// Opens a span labeled `label` if a collector is installed on this thread;
/// otherwise returns an inert guard after a single thread-local read (the
/// near-zero-overhead contract — see the module docs). Use [`span_with`] when
/// building the label costs something.
pub fn span(label: &'static str) -> SpanGuard {
    span_with(|| label.to_string())
}

/// Like [`span`], but the label closure is only evaluated when a collector is
/// actually installed — dynamic labels (`format!("video '{name}'")`) cost
/// nothing on untraced queries.
pub fn span_with(label: impl FnOnce() -> String) -> SpanGuard {
    let opened = ACTIVE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let active = slot.as_mut()?;
        let collector = Arc::clone(&active.collector);
        let parent = active.current;
        let (id, tag) = collector.open_span(label(), parent);
        active.current = Some(id);
        Some((collector, id, parent, tag))
    });
    let Some((collector, id, parent, tag)) = opened else { return SpanGuard { armed: None } };
    SpanGuard {
        armed: Some(ArmedSpan {
            collector,
            id,
            parent,
            prev_tag: SimClock::swap_charge_tag(tag),
            started: Instant::now(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(armed) = self.armed.take() else { return };
        SimClock::swap_charge_tag(armed.prev_tag);
        ACTIVE.with(|slot| {
            if let Some(active) = slot.borrow_mut().as_mut() {
                active.current = armed.parent;
            }
        });
        armed.collector.close_span(armed.id, armed.started.elapsed().as_secs_f64());
    }
}

/// Records an already-measured stage as an immediately-closed child of the
/// current span: `wall_secs` was captured elsewhere (parse and plan run at
/// prepare time, before any collector exists) and the span charges nothing to
/// the clock. A no-op when nothing is being traced.
pub fn record_span(label: &'static str, wall_secs: f64) {
    let target = ACTIVE.with(|slot| {
        let slot = slot.borrow();
        let active = slot.as_ref()?;
        Some((Arc::clone(&active.collector), active.current))
    });
    if let Some((collector, parent)) = target {
        let (id, _tag) = collector.open_span(label.to_string(), parent);
        collector.close_span(id, wall_secs);
    }
}

/// Adds `n` to `counter` on the innermost open span of this thread's trace
/// (a no-op when nothing is being traced).
pub fn count(counter: &'static str, n: u64) {
    let target = ACTIVE.with(|slot| {
        let slot = slot.borrow();
        let active = slot.as_ref()?;
        Some((Arc::clone(&active.collector), active.current?))
    });
    if let Some((collector, id)) = target {
        collector.add_count(id, counter, n);
    }
}

/// A clonable handle to this thread's tracing state, for carrying a trace
/// across a thread boundary (the session fan-out captures one per task, just
/// as the worker pool carries the submitter's charge tag).
#[derive(Clone)]
pub struct TraceContext {
    collector: Arc<TraceCollector>,
    current: Option<u32>,
}

/// This thread's tracing state, or `None` when nothing is being traced.
pub fn trace_context() -> Option<TraceContext> {
    ACTIVE.with(|slot| {
        let slot = slot.borrow();
        let active = slot.as_ref()?;
        Some(TraceContext { collector: Arc::clone(&active.collector), current: active.current })
    })
}

impl TraceContext {
    /// Runs `f` with this context installed as the thread's tracing state
    /// (spans opened inside attach under the captured span), restoring the
    /// previous state afterwards — including on unwind.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Option<ActiveTrace>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                if let Some(previous) = self.0.take() {
                    ACTIVE.with(|slot| *slot.borrow_mut() = previous);
                }
            }
        }
        let previous = ACTIVE.with(|slot| {
            slot.borrow_mut().replace(ActiveTrace {
                collector: Arc::clone(&self.collector),
                current: self.current,
            })
        });
        let _restore = Restore(Some(previous));
        f()
    }
}

// ---------------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as its bit pattern in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Log-bucketed latency histogram bucket count: upper bounds double from 1µs,
/// covering `1µs … ~8.4s` plus the implicit `+Inf` overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// A latency histogram with logarithmic buckets (powers of two from 1µs).
/// The sum is accumulated in integer microseconds, so it stays a single
/// atomic; exposition renders it back as seconds with µs resolution.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The upper bound (seconds, inclusive) of bucket `i`.
    pub fn le_bound(i: usize) -> f64 {
        1e-6 * (1u64 << i.min(63)) as f64
    }

    /// Records one observation of `seconds` (ignored when negative or
    /// non-finite, mirroring [`SimClock::charge`]).
    pub fn observe(&self, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        for (i, bucket) in self.buckets.iter().enumerate() {
            if seconds <= Self::le_bound(i) {
                bucket.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        // An observation above every bound lands only in the +Inf bucket,
        // which exposition derives from `count`.
        self.sum_micros.fetch_add((seconds * 1e6).round() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in seconds (µs resolution).
    pub fn sum_secs(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 * 1e-6
    }

    /// Cumulative count at or below bucket `i`'s bound, Prometheus-style.
    pub fn cumulative(&self, i: usize) -> u64 {
        self.buckets.iter().take(i + 1).map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// The process-wide metrics registry: one static family per instrumented
/// subsystem (worker-pool counters live in `blazeit_nn::parallel` — the pool
/// cannot depend on this crate — and are read by [`prometheus_exposition`]).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Served queries answered from the result cache.
    pub serving_hits: Counter,
    /// Served queries that computed (cache miss).
    pub serving_misses: Counter,
    /// Served queries that attached to an in-flight identical computation.
    pub serving_coalesced: Counter,
    /// Result-cache entries evicted by the FIFO bound.
    pub serving_evicted: Counter,
    /// Result-cache entries dropped because their data generation moved.
    pub serving_invalidated: Counter,
    /// Every query accepted by a `ServerSession` (hits + misses + coalesced +
    /// EXPLAIN probes + EXPLAIN ANALYZE runs).
    pub serving_queries: Counter,
    /// Wall-clock seconds queries spent waiting for an admission permit.
    pub serving_admission_wait: Histogram,
    /// Tickets currently waiting for (or holding) admission, per the most
    /// recent acquire/release.
    pub serving_admission_queue_depth: Gauge,
    /// Frames ingested across every stream.
    pub stream_frames_ingested: Counter,
    /// Drift-monitor two-sample checks run.
    pub stream_drift_checks: Counter,
    /// The most recent drift score observed by any monitor.
    pub stream_drift_score: Gauge,
    /// Background retrains that completed and swapped a generation in.
    pub stream_retrain_completed: Counter,
    /// Background retrains that failed (error or panic) and kept the pinned
    /// generation.
    pub stream_retrain_failed: Counter,
    /// Index-store artifact reads that found and decoded an artifact.
    pub store_reads: Counter,
    /// Index-store artifact writes.
    pub store_writes: Counter,
    /// Artifacts evicted by the store's LRU budget.
    pub store_evictions: Counter,
    /// Degraded contexts healed back to store-backed mode by a probe success.
    pub store_heals: Counter,
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

/// The process-wide metrics registry.
pub fn metrics() -> &'static Metrics {
    METRICS.get_or_init(Metrics::default)
}

fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
}

fn render_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
}

fn render_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for i in 0..HISTOGRAM_BUCKETS {
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {}\n",
            Histogram::le_bound(i),
            h.cumulative(i)
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum {}\n", h.sum_secs()));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

/// Renders every registered family — serving, streaming, store, and the
/// worker pool — in Prometheus text exposition format.
pub fn prometheus_exposition() -> String {
    let m = metrics();
    let mut out = String::new();
    render_counter(
        &mut out,
        "blazeit_serving_cache_hits_total",
        "Served queries answered from the result cache.",
        m.serving_hits.get(),
    );
    render_counter(
        &mut out,
        "blazeit_serving_cache_misses_total",
        "Served queries that computed (cache miss).",
        m.serving_misses.get(),
    );
    render_counter(
        &mut out,
        "blazeit_serving_coalesced_total",
        "Served queries that attached to an in-flight identical computation.",
        m.serving_coalesced.get(),
    );
    render_counter(
        &mut out,
        "blazeit_serving_evicted_total",
        "Result-cache entries evicted by the FIFO bound.",
        m.serving_evicted.get(),
    );
    render_counter(
        &mut out,
        "blazeit_serving_invalidated_total",
        "Result-cache entries dropped because their data generation moved.",
        m.serving_invalidated.get(),
    );
    render_counter(
        &mut out,
        "blazeit_serving_queries_total",
        "Queries accepted by serving sessions (all dispositions).",
        m.serving_queries.get(),
    );
    render_histogram(
        &mut out,
        "blazeit_serving_admission_wait_seconds",
        "Wall-clock seconds spent waiting for an admission permit.",
        &m.serving_admission_wait,
    );
    render_gauge(
        &mut out,
        "blazeit_serving_admission_queue_depth",
        "Tickets currently waiting for or holding admission.",
        m.serving_admission_queue_depth.get(),
    );
    render_counter(
        &mut out,
        "blazeit_stream_frames_ingested_total",
        "Frames ingested across every registered stream.",
        m.stream_frames_ingested.get(),
    );
    render_counter(
        &mut out,
        "blazeit_stream_drift_checks_total",
        "Drift-monitor two-sample checks run.",
        m.stream_drift_checks.get(),
    );
    render_gauge(
        &mut out,
        "blazeit_stream_drift_score",
        "Most recent drift score observed by any monitor.",
        m.stream_drift_score.get(),
    );
    render_counter(
        &mut out,
        "blazeit_stream_retrain_completed_total",
        "Background retrains that swapped a new model generation in.",
        m.stream_retrain_completed.get(),
    );
    render_counter(
        &mut out,
        "blazeit_stream_retrain_failed_total",
        "Background retrains that failed and kept the pinned generation.",
        m.stream_retrain_failed.get(),
    );
    render_counter(
        &mut out,
        "blazeit_store_reads_total",
        "Index-store artifact reads that found an artifact.",
        m.store_reads.get(),
    );
    render_counter(
        &mut out,
        "blazeit_store_writes_total",
        "Index-store artifact writes.",
        m.store_writes.get(),
    );
    render_counter(
        &mut out,
        "blazeit_store_evictions_total",
        "Artifacts evicted by the store's LRU budget.",
        m.store_evictions.get(),
    );
    render_counter(
        &mut out,
        "blazeit_store_heals_total",
        "Degraded contexts healed back to store-backed mode.",
        m.store_heals.get(),
    );
    let pool = blazeit_nn::parallel::pool_stats();
    render_gauge(
        &mut out,
        "blazeit_pool_workers",
        "Worker threads in the shared scoring pool.",
        pool.workers as f64,
    );
    render_counter(
        &mut out,
        "blazeit_pool_jobs_submitted_total",
        "Jobs queued onto the shared worker pool.",
        pool.submitted,
    );
    render_counter(
        &mut out,
        "blazeit_pool_jobs_executed_total",
        "Jobs executed by pool worker threads.",
        pool.executed,
    );
    render_counter(
        &mut out,
        "blazeit_pool_jobs_stolen_total",
        "Queued jobs stolen and run inline by waiting submitters.",
        pool.stolen,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazeit_detect::clock::CostCategory;

    #[test]
    fn spans_without_a_collector_are_inert() {
        assert!(trace_context().is_none());
        let before = SimClock::charge_tag();
        {
            let _outer = span("outer");
            let _inner = span_with(|| unreachable!("label must not be evaluated untraced"));
            assert_eq!(SimClock::charge_tag(), before, "no tag swap without a collector");
            count(COUNTER_DETECTOR_CALLS, 3);
        }
        assert_eq!(SimClock::charge_tag(), before);
    }

    /// The zero-overhead tracing contract, pinned in release builds (CI's
    /// zero-overhead step): with no collector installed a span is one
    /// thread-local read returning an inert guard — a handful of nanoseconds.
    /// The bound is two orders of magnitude looser so loaded CI machines never
    /// flake, while still catching a lock or an allocation on the untraced path.
    #[cfg(not(debug_assertions))]
    #[test]
    fn disarmed_span_stays_under_its_bound() {
        const DISARMED_NS_BOUND: f64 = 200.0;
        const SPAN_ITERS: u32 = 1_000_000;
        assert!(trace_context().is_none(), "must start untraced");
        // Minimum, not mean: scheduler noise only ever adds time.
        let disarmed_ns = (0..5)
            .map(|_| {
                let started = std::time::Instant::now();
                for _ in 0..SPAN_ITERS {
                    std::hint::black_box(span("bench"));
                }
                started.elapsed().as_secs_f64() * 1e9 / f64::from(SPAN_ITERS)
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            disarmed_ns < DISARMED_NS_BOUND,
            "disarmed span cost regressed: {disarmed_ns:.1}ns/span exceeds the \
             {DISARMED_NS_BOUND}ns bound — something heavy crept onto the untraced path"
        );
    }

    #[test]
    fn collector_assembles_a_tree_and_merges_costs_exactly() {
        let clock = SimClock::new();
        let guard = install_collector(Arc::clone(&clock));
        {
            let _root = span("query");
            clock.charge(CostCategory::Other, 0.125);
            {
                let _child = span_with(|| "video 'x'".to_string());
                clock.charge(CostCategory::SpecializedInference, 0.1 + 1e-7);
                count(COUNTER_FRAMES_SCORED, 100);
                count(COUNTER_FRAMES_SCORED, 50);
                count(COUNTER_CACHE_HITS, 1);
            }
            clock.charge(CostCategory::Detection, 0.375);
        }
        let trace = guard.finish();
        assert_eq!(trace.spans.len(), 2);
        let root = &trace.spans[0];
        let child = &trace.spans[1];
        assert_eq!((root.label.as_str(), root.parent), ("query", None));
        assert_eq!((child.label.as_str(), child.parent), ("video 'x'", Some(0)));
        assert_eq!(root.cost.other, 0.125);
        assert_eq!(root.cost.detection, 0.375, "parent cost excludes the child's");
        assert_eq!(child.cost.specialized, 0.1 + 1e-7);
        assert_eq!(
            child.counters,
            vec![("frames_scored".to_string(), 150), ("cache_hits".to_string(), 1)]
        );
        assert_eq!(trace.counter_total(COUNTER_FRAMES_SCORED), 150);

        // Exactness: spans charged private tags, assembly merged them into the
        // ambient tag (0 here) in span order — the global ledger now equals the
        // trace total bitwise, and no span tag survives.
        let total = trace.total_cost();
        let global = clock.breakdown();
        for category in CostCategory::ALL {
            assert_eq!(total.get(category), global.get(category), "{}", category.label());
        }
        assert_eq!(clock.charged_tags(), vec![0]);
        assert!(trace_context().is_none(), "finish restores the thread state");

        let rendered = trace.to_string();
        assert!(rendered.starts_with("EXPLAIN ANALYZE"), "got: {rendered}");
        assert!(rendered.contains("query") && rendered.contains("video 'x'"));
        assert!(rendered.contains("frames_scored=150"), "got: {rendered}");
    }

    #[test]
    fn trace_context_carries_spans_across_threads() {
        let clock = SimClock::new();
        let guard = install_collector(Arc::clone(&clock));
        {
            let _root = span("query");
            let ctx = trace_context().expect("traced thread has a context");
            std::thread::scope(|s| {
                s.spawn(move || {
                    ctx.enter(|| {
                        let _task = span("video 'remote'");
                        clock.charge(CostCategory::Filter, 0.25);
                    });
                    assert!(trace_context().is_none(), "enter restores on exit");
                });
            });
        }
        let trace = guard.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(0), "remote span attaches under the captured span");
        assert_eq!(trace.spans[1].cost.filter, 0.25);
    }

    #[test]
    fn dropped_guard_still_restores_and_reattributes() {
        let clock = SimClock::new();
        let guard = install_collector(Arc::clone(&clock));
        {
            let _s = span("doomed");
            clock.charge(CostCategory::Other, 1.0);
        }
        drop(guard);
        assert!(trace_context().is_none());
        assert_eq!(clock.charged_tags(), vec![0], "span ledger merged back on drop");
        assert_eq!(clock.breakdown_for(0).other, 1.0);
    }

    #[test]
    fn histogram_buckets_are_logarithmic_and_cumulative() {
        let h = Histogram::default();
        assert_eq!(Histogram::le_bound(0), 1e-6);
        assert_eq!(Histogram::le_bound(1), 2e-6);
        h.observe(0.5e-6); // bucket 0
        h.observe(3e-6); // bucket 2 (le 4µs)
        h.observe(1e9); // beyond every bound: +Inf only
        h.observe(-1.0); // ignored
        h.observe(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
        assert_eq!(h.cumulative(0), 1);
        assert_eq!(h.cumulative(1), 1);
        assert_eq!(h.cumulative(2), 2);
        assert_eq!(h.cumulative(HISTOGRAM_BUCKETS - 1), 2, "+Inf overflow is count - this");
        assert!((h.sum_secs() - 1e9).abs() / 1e9 < 1e-6);
    }

    #[test]
    fn exposition_covers_every_family_and_is_well_formed() {
        metrics().serving_hits.inc();
        metrics().serving_admission_wait.observe(0.001);
        metrics().stream_drift_score.set(0.125);
        let text = prometheus_exposition();
        for family in [
            "blazeit_serving_cache_hits_total",
            "blazeit_serving_cache_misses_total",
            "blazeit_serving_coalesced_total",
            "blazeit_serving_evicted_total",
            "blazeit_serving_invalidated_total",
            "blazeit_serving_queries_total",
            "blazeit_serving_admission_wait_seconds",
            "blazeit_serving_admission_queue_depth",
            "blazeit_stream_frames_ingested_total",
            "blazeit_stream_drift_checks_total",
            "blazeit_stream_drift_score",
            "blazeit_stream_retrain_completed_total",
            "blazeit_stream_retrain_failed_total",
            "blazeit_store_reads_total",
            "blazeit_store_writes_total",
            "blazeit_store_evictions_total",
            "blazeit_store_heals_total",
            "blazeit_pool_workers",
            "blazeit_pool_jobs_submitted_total",
            "blazeit_pool_jobs_executed_total",
            "blazeit_pool_jobs_stolen_total",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")), "missing HELP for {family}");
            assert!(text.contains(&format!("# TYPE {family} ")), "missing TYPE for {family}");
        }
        assert!(text.contains("blazeit_serving_admission_wait_seconds_bucket{le=\"+Inf\"}"));
        assert!(text.contains("blazeit_serving_admission_wait_seconds_sum"));
        assert!(text.contains("blazeit_serving_admission_wait_seconds_count"));
        // Every non-comment line is `name[{labels}] value` with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric lines have a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value in line: {line}");
        }
    }
}
