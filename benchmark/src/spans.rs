//! The traced run's span log.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions: `{name, op_id, parent, start_ns, end_ns}`.
//! They stay in memory and are written out when the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover. The engine's own `EXPLAIN ANALYZE` tree (durations
//! and parent links, no timestamps) is imported under the harness span
//! that ran the query, so one file shows both.

use crate::json;
use blazeit::prelude::QueryTrace;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name (`frameql.parse`, `serve.query`, `engine.plan`, …).
    pub name: String,
    /// Spans of one operation share an identifier.
    pub op_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Nanoseconds since the log's origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle to an open span; inert when the log is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle that parents nothing (a root's parent).
    pub const NONE: SpanId = SpanId(None);
}

/// The in-memory span and count log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    counts: Vec<(String, u64, f64)>,
}

impl SpanLog {
    /// A log that records (`enabled`) or ignores every call — the disabled
    /// log is what the untraced replay runs against, so the difference
    /// between the two replays is the tracing overhead.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog { origin: Instant::now(), enabled, spans: Vec::new(), counts: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, op_id: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            op_id,
            parent: parent.0,
            start_ns: now,
            end_ns: now,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span now and returns its duration in seconds (0 when the
    /// log is disabled).
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        match id.0.and_then(|index| self.spans.get_mut(index)) {
            Some(span) => {
                span.end_ns = now;
                span.duration_ns() as f64 * 1e-9
            }
            None => 0.0,
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &str, op_id: u64, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, op_id, parent);
        let result = f();
        self.close(id);
        result
    }

    /// Records a count taken at a span boundary.
    pub fn count(&mut self, name: &str, op_id: u64, value: f64) {
        if self.enabled {
            self.counts.push((name.to_string(), op_id, value));
        }
    }

    /// Imports an engine `EXPLAIN ANALYZE` tree under `parent`, the harness
    /// span that ran the query. The engine records durations and parent
    /// links only, so intervals are laid out: the root ends where `parent`
    /// ends (execution is the last thing a served query does); the stages
    /// the engine measured *before* it opened the root — `parse`, `plan`,
    /// `admission wait` — go immediately before the root, as its siblings;
    /// every other child follows its siblings from its parent's start in
    /// creation order, clipped to its parent's end (fan-out children really
    /// overlap; laid end to end they simply fill their parent, whose self
    /// time is then zero).
    pub fn import_engine_trace(&mut self, trace: &QueryTrace, op_id: u64, parent: SpanId) {
        let Some(harness) = parent.0 else { return };
        let Some(&Span { start_ns: floor, end_ns: ceiling, .. }) = self.spans.get(harness) else {
            return;
        };
        let ns = |secs: f64| (secs * 1e9).round() as u64;
        let before_root = |span: &blazeit::prelude::TraceSpan| {
            span.parent.is_some_and(|p| trace.spans[p as usize].parent.is_none())
                && matches!(span.label.as_str(), "parse" | "plan" | "admission wait")
        };
        let offset = self.spans.len();
        // Per imported span: where its next child starts.
        let mut cursors: Vec<u64> = Vec::with_capacity(trace.spans.len());
        for span in &trace.spans {
            let (start, end, parent) = match span.parent {
                None => {
                    let start = ceiling.saturating_sub(ns(span.wall_secs)).max(floor);
                    // The stages measured before the root end where it starts.
                    let early: u64 = trace
                        .spans
                        .iter()
                        .filter(|s| before_root(s))
                        .map(|s| ns(s.wall_secs))
                        .sum();
                    cursors.push(start.saturating_sub(early).max(floor));
                    (start, ceiling, harness)
                }
                Some(p) if before_root(span) => {
                    let p = p as usize;
                    let start = cursors[p];
                    let end = (start + ns(span.wall_secs)).min(self.spans[offset + p].start_ns);
                    cursors[p] = end;
                    cursors.push(start);
                    (start, end, harness)
                }
                Some(p) => {
                    let p = p as usize;
                    // A root's cursor served the early stages; its real
                    // children start where it does.
                    let from = cursors[p].max(self.spans[offset + p].start_ns);
                    let end = (from + ns(span.wall_secs)).min(self.spans[offset + p].end_ns);
                    cursors[p] = end;
                    cursors.push(from);
                    (from, end.max(from), offset + p)
                }
            };
            self.spans.push(Span {
                name: format!("engine.{}", engine_label(&span.label)),
                op_id,
                parent: Some(parent),
                start_ns: start,
                end_ns: end,
            });
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time in seconds per span name, over spans whose
    /// operation id satisfies `keep`.
    pub fn self_secs_by_name(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<String, f64> {
        let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            if keep(span.op_id) {
                *by_name.entry(span.name.clone()).or_default() += self_ns as f64 * 1e-9;
            }
        }
        by_name
    }

    /// The log as JSON: `{"workload":…, "spans":[…], "counts":[…]}`.
    pub fn to_json(&self, workload: &str) -> String {
        let spans = self.spans.iter().map(|s| {
            json::object([
                ("name", json::string(&s.name)),
                ("op_id", s.op_id.to_string()),
                ("parent", s.parent.map_or("null".to_string(), |p| p.to_string())),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
            ])
        });
        let counts = self.counts.iter().map(|(name, op_id, value)| {
            json::object([
                ("name", json::string(name)),
                ("op_id", op_id.to_string()),
                ("value", json::number(*value)),
            ])
        });
        json::object([
            ("workload", json::string(workload)),
            ("spans", json::array(spans)),
            ("counts", json::array(counts)),
        ])
    }

    /// The per-layer table as JSON rows: per span name, how many spans,
    /// their total time and their total self time.
    pub fn layer_table_json(&self) -> String {
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            let row = rows.entry(&span.name).or_default();
            row.0 += 1;
            row.1 += span.duration_ns();
            row.2 += self_ns;
        }
        json::array(rows.into_iter().map(|(name, (spans, total_ns, self_ns))| {
            json::object([
                ("layer", json::string(name)),
                ("spans", spans.to_string()),
                ("total_ms", json::number(total_ns as f64 * 1e-6)),
                ("self_ms", json::number(self_ns as f64 * 1e-6)),
            ])
        }))
    }
}

/// An engine span label as a metric-name fragment: `train specialized` →
/// `train_specialized`, `held-out score` → `heldout_score`, `video 'x'` →
/// `video`.
pub fn engine_label(label: &str) -> String {
    if label.starts_with("video '") {
        return "video".to_string();
    }
    label.replace("held-out", "heldout").replace([' ', '-'], "_")
}

/// Each span's self time: its duration minus the part of its interval that
/// its direct children cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        let Some((index, parent)) = span.parent.and_then(|p| Some((p, spans.get(p)?))) else {
            continue;
        };
        let start = span.start_ns.max(parent.start_ns);
        let end = span.end_ns.min(parent.end_ns);
        if end > start {
            children[index].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazeit::prelude::TraceSpan;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: name.to_string(), op_id: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span("op", None, 0, 100),
            span("serve", Some(0), 10, 90),
            span("engine", Some(1), 20, 70),
            span("render", Some(0), 90, 95),
        ];
        // op: 100 - (80 + 5); serve: 80 - 50; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![15, 30, 50, 5]);
        // Self times telescope back to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span("fanout", None, 0, 100),
            span("video", Some(0), 10, 60),
            span("video", Some(0), 40, 80),
            // Contained in the first child: adds no coverage.
            span("video", Some(0), 20, 30),
            // Sticks out past the parent: only 90..100 counts.
            span("merge", Some(0), 90, 130),
            // Entirely outside the parent: ignored.
            span("late", Some(0), 150, 160),
        ];
        // Union of children inside the parent: 10..80 and 90..100.
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
        // Children covering more than the parent leave zero, never negative.
        let crowded =
            [span("p", None, 0, 10), span("a", Some(0), 0, 10), span("b", Some(0), 0, 10)];
        assert_eq!(self_times_ns(&crowded)[0], 0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let root = log.open("op", 1, SpanId::NONE);
        assert_eq!(root, SpanId::NONE);
        assert_eq!(log.time("inner", 1, root, || 7), 7);
        log.count("hits", 1, 3.0);
        assert_eq!(log.close(root), 0.0);
        assert!(log.spans().is_empty());
        assert!(log.to_json("w").contains("\"spans\":[]"));
    }

    #[test]
    fn enabled_log_links_children_to_parents_and_serializes() {
        let mut log = SpanLog::new(true);
        let root = log.open("op", 9, SpanId::NONE);
        log.time("frameql.parse", 9, root, || std::hint::black_box(1 + 1));
        log.count("serve.hits", 9, 2.0);
        log.close(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let rendered = log.to_json("warm_cache_hits");
        assert!(rendered.contains("\"name\":\"frameql.parse\",\"op_id\":9,\"parent\":0"));
        assert!(rendered.contains("\"name\":\"serve.hits\",\"op_id\":9,\"value\":2"));
        assert!(json::Reply::parse(&rendered).is_some(), "{rendered}");
        assert!(log.layer_table_json().contains("\"layer\":\"frameql.parse\",\"spans\":1"));
    }

    #[test]
    fn engine_trace_is_laid_out_inside_the_span_that_ran_it() {
        let engine = |id: u32, parent: Option<u32>, label: &str, wall_secs: f64| TraceSpan {
            id,
            parent,
            label: label.to_string(),
            wall_secs,
            cost: Default::default(),
            counters: Vec::new(),
        };
        // The engine measures parse and plan before it opens the root, and
        // reports them as the root's children all the same.
        let trace = QueryTrace {
            spans: vec![
                engine(0, None, "query", 100e-9),
                engine(1, Some(0), "parse", 10e-9),
                engine(2, Some(0), "plan", 30e-9),
                engine(3, Some(0), "video 'taipei'", 90e-9),
                engine(4, Some(3), "train specialized", 60e-9),
                engine(5, Some(3), "held-out score", 15e-9),
            ],
        };
        let mut log = SpanLog::new(true);
        log.spans.push(span("serve.query", None, 1000, 1150));
        log.import_engine_trace(&trace, 1, SpanId(Some(0)));
        let names: Vec<&str> = log.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "serve.query",
                "engine.query",
                "engine.parse",
                "engine.plan",
                "engine.video",
                "engine.train_specialized",
                "engine.heldout_score"
            ]
        );
        let at = |i: usize| (log.spans()[i].start_ns, log.spans()[i].end_ns, log.spans()[i].parent);
        // The root is end-aligned in the span that ran it; parse and plan
        // sit right before it, as its siblings.
        assert_eq!(at(1), (1050, 1150, Some(0)));
        assert_eq!(at(2), (1010, 1020, Some(0)));
        assert_eq!(at(3), (1020, 1050, Some(0)));
        assert_eq!(at(4), (1050, 1140, Some(1)));
        assert_eq!(at(5), (1050, 1110, Some(4)));
        assert_eq!(at(6), (1110, 1125, Some(4)));
        // serve.query: 150 - (100 + 10 + 30); query: 100 - 90; video: 90 - 75.
        let selfs = self_times_ns(log.spans());
        assert_eq!(selfs, vec![10, 10, 10, 30, 15, 60, 15]);
        assert_eq!(
            selfs[1] + selfs[4..].iter().sum::<u64>(),
            100,
            "self times inside the root telescope to the root"
        );
        let by_name = log.self_secs_by_name(|op| op == 1);
        assert!((by_name["engine.train_specialized"] - 60e-9).abs() < 1e-15);

        // A plan that took longer than the whole run (a warm query) is
        // clipped to the harness span, and steals nothing from the stages.
        let warm = QueryTrace {
            spans: vec![
                engine(0, None, "query", 40e-9),
                engine(1, Some(0), "plan", 500e-9),
                engine(2, Some(0), "sample-verify", 30e-9),
            ],
        };
        let mut log = SpanLog::new(true);
        log.spans.push(span("serve.query", None, 1000, 1100));
        log.import_engine_trace(&warm, 2, SpanId(Some(0)));
        let at = |i: usize| (log.spans()[i].start_ns, log.spans()[i].end_ns);
        assert_eq!(at(1), (1060, 1100));
        assert_eq!(at(2), (1000, 1060));
        assert_eq!(at(3), (1060, 1090));
    }
}
