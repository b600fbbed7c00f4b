//! Output checks and the run's outcome.
//!
//! Every reply is checked while the workload runs: well-formed and
//! `"ok":true`, the right shape for its query, and — whenever the same
//! query text is answered again, on any round, connection or slice —
//! byte-identical answer fields. A failed check counts the operation as
//! failed, marks the run incorrect and makes the process exit non-zero.

use crate::json::{self, Reply};
use crate::queries::{Class, Expect, Op, CONFIDENCE_PCT};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }
}

/// Why a reply is wrong for its operation, if it is. Checks everything that
/// depends only on this one reply.
pub fn shape_error(op: &Op, reply: &Reply<'_>) -> Option<String> {
    if !reply.ok() {
        return Some(format!(
            "not ok: {}",
            reply.string("error").unwrap_or_else(|| "no error field".to_string())
        ));
    }
    let Some(kind) = reply.string("kind") else {
        return Some("missing kind".to_string());
    };
    let need = |field: &str| reply.number(field).is_none().then(|| format!("missing {field}"));
    if let Some(missing) = need("simulated_secs").or_else(|| need("detection_calls")) {
        return Some(missing);
    }
    match &op.expect {
        Expect::Aggregate { .. } => {
            if kind != "aggregate" {
                return Some(format!("kind {kind}, expected aggregate"));
            }
            need("value")
        }
        Expect::Rows => {
            if kind != "rows" {
                return Some(format!("kind {kind}, expected rows"));
            }
            need("count")
        }
        Expect::Frames { limit, gap } => {
            if kind != "frames" {
                return Some(format!("kind {kind}, expected frames"));
            }
            let Some(mut frames) = reply.frames() else {
                return Some("missing frame list".to_string());
            };
            if frames.len() != *limit {
                return Some(format!("{} frames for LIMIT {limit}", frames.len()));
            }
            // GAP binds within one video.
            frames.sort();
            frames
                .windows(2)
                .find(|pair| pair[0].0 == pair[1].0 && pair[1].1 - pair[0].1 < *gap)
                .map(|pair| format!("frames {} and {} closer than GAP {gap}", pair[0].1, pair[1].1))
        }
    }
}

/// Fewest distinct approximate answers for the within-ε share to be a check.
pub const WITHIN_EPS_MIN_ANSWERS: u64 = 20;

/// Accumulates attempts, failures and first-seen answers over a run.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, answered `"ok":false`, failed a check or
    /// timed out.
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub messages: Vec<String>,
    /// Whole-run checks that failed (no single operation to blame).
    pub run_failures: Vec<String>,
    /// First answer seen per query text.
    answers: BTreeMap<String, String>,
    /// `(ε, value)` of every distinct approximate aggregate, by exact form.
    approximate: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Checker {
    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(what());
        }
    }

    /// Records a whole-run check.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.run_failures.push(what());
        }
    }

    /// Checks one reply to `op` in full: shape, and identity with any
    /// earlier answer to the same text. Counts the attempt. Returns whether
    /// the reply passed.
    pub fn reply(&mut self, op: &Op, line: &str) -> bool {
        self.attempted += 1;
        let Some(reply) = Reply::parse(line) else {
            self.fail(|| format!("malformed reply to `{}`: {line}", op.sql));
            return false;
        };
        if let Some(error) = shape_error(op, &reply) {
            self.fail(|| format!("`{}`: {error}", op.sql));
            return false;
        }
        let same = self.same_answer(&op.sql, json::answer_part(line));
        if same {
            self.note_aggregate(op, &reply);
        }
        same
    }

    /// Checks `answer` against the first answer recorded for `sql`
    /// (recording it when there is none). Does not count an attempt.
    pub fn same_answer(&mut self, sql: &str, answer: &str) -> bool {
        match self.answers.get(sql) {
            None => {
                self.answers.insert(sql.to_string(), answer.to_string());
                true
            }
            Some(first) if first == answer => true,
            Some(first) => {
                let first = first.clone();
                self.fail(|| format!("`{sql}` answered `{answer}` after `{first}`"));
                false
            }
        }
    }

    /// Remembers an approximate aggregate's value for [`Checker::within_eps`].
    pub fn note_aggregate(&mut self, op: &Op, reply: &Reply<'_>) {
        if let (Expect::Aggregate { eps, exact_sql }, Some(value)) =
            (&op.expect, reply.number("value"))
        {
            let seen = self.approximate.entry(exact_sql.clone()).or_default();
            if !seen.contains(&(*eps, value)) {
                seen.push((*eps, value));
            }
        }
    }

    /// The exact forms of every approximate aggregate seen so far.
    pub fn exact_queries(&self) -> Vec<String> {
        self.approximate.keys().cloned().collect()
    }

    /// Share of distinct approximate aggregates within their ε of the exact
    /// answers in `exact` (exact form → value). With at least
    /// [`WITHIN_EPS_MIN_ANSWERS`] answers the share must reach the requested
    /// confidence less ten points; with fewer it is only reported (two
    /// answers at 95 % confidence miss that floor one time in ten by chance).
    pub fn within_eps(&mut self, exact: &BTreeMap<String, f64>) -> f64 {
        let mut total = 0u64;
        let mut within = 0u64;
        for (exact_sql, seen) in &self.approximate {
            let Some(truth) = exact.get(exact_sql) else { continue };
            total += seen.len() as u64;
            within +=
                seen.iter().filter(|(eps, value)| (value - truth).abs() <= *eps).count() as u64;
        }
        let share = if total == 0 { f64::NAN } else { within as f64 / total as f64 };
        let floor = CONFIDENCE_PCT as f64 / 100.0 - 0.10;
        self.require(total < WITHIN_EPS_MIN_ANSWERS || share >= floor, || {
            format!("only {within} of {total} aggregate answers within their error bound")
        });
        share
    }

    /// Folds another connection's checker into this one, cross-checking the
    /// answers both saw.
    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
        self.run_failures.extend(other.run_failures);
        for (sql, answer) in other.answers {
            self.same_answer(&sql, &answer);
        }
        for (exact_sql, seen) in other.approximate {
            let mine = self.approximate.entry(exact_sql).or_default();
            for pair in seen {
                if !mine.contains(&pair) {
                    mine.push(pair);
                }
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_failures.is_empty()
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Unguarded context printed beside them: all-sample medians, tails,
    /// sample counts, slice spreads.
    pub notes: Vec<String>,
    /// The run's checks.
    pub checker: Checker,
    /// Every raw sample series behind the metrics, in arrival order, for
    /// `benchmark/out/samples-<workload>.json`.
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.as_str(),
                json::object([("value", json::number(m.value)), ("unit", json::string(m.unit))]),
            )
        });
        json::object([
            ("correct", self.correct().to_string()),
            ("attempted", self.checker.attempted.max(1).to_string()),
            ("failed", self.checker.failed.to_string()),
            ("metrics", json::object(metrics)),
        ])
    }

    /// A run is correct when every check passed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.checker.correct() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The process exit code this outcome asks for.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }
}

/// Per-class sums taken from replies, for the exact cost metrics.
#[derive(Debug, Default, Clone)]
pub struct CostTally {
    replies: [u64; 4],
    simulated_secs: [f64; 4],
    detection_calls: [u64; 4],
}

impl CostTally {
    /// Adds one reply's cost fields.
    pub fn add(&mut self, class: Class, simulated_secs: f64, detection_calls: u64) {
        self.replies[class.index()] += 1;
        self.simulated_secs[class.index()] += simulated_secs;
        self.detection_calls[class.index()] += detection_calls;
    }

    /// Adds the cost fields of a parsed reply, if present.
    pub fn add_reply(&mut self, class: Class, reply: &Reply<'_>) {
        if let (Some(secs), Some(calls)) =
            (reply.number("simulated_secs"), reply.integer("detection_calls"))
        {
            self.add(class, secs, calls);
        }
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: &CostTally) {
        for i in 0..4 {
            self.replies[i] += other.replies[i];
            self.simulated_secs[i] += other.simulated_secs[i];
            self.detection_calls[i] += other.detection_calls[i];
        }
    }

    /// Mean simulated GPU-seconds of a query: the mean within each class
    /// that was asked, then the mean of those — so the figure does not
    /// depend on how many operations of each class a timed phase fitted in.
    pub fn sim_gpu_s_per_query(&self) -> f64 {
        let per_class: Vec<f64> = (0..4)
            .filter(|&i| self.replies[i] > 0)
            .map(|i| self.simulated_secs[i] / self.replies[i] as f64)
            .collect();
        crate::stats::mean(&per_class)
    }

    /// Mean detector calls per reply of `class` (0 when none was asked).
    pub fn mean_detection_calls(&self, class: Class) -> f64 {
        match self.replies[class.index()] {
            0 => 0.0,
            n => self.detection_calls[class.index()] as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{QueryGen, SERVER_TARGETS};

    fn op(class: Class) -> Op {
        QueryGen::new(5, SERVER_TARGETS).op(class)
    }

    fn frames_line(frames: &[u64]) -> String {
        let list: Vec<String> = frames.iter().map(u64::to_string).collect();
        format!(
            r#"{{"ok":true,"kind":"frames","frames":[{}],"detection_calls":39,"simulated_secs":17.5,"wall_secs":0.001}}"#,
            list.join(",")
        )
    }

    fn aggregate_line(value: f64) -> String {
        format!(
            r#"{{"ok":true,"kind":"aggregate","value":{value},"standard_error":0.01,"detection_calls":375,"simulated_secs":192.2,"wall_secs":0.3}}"#
        )
    }

    #[test]
    fn a_reply_with_a_wrong_answer_field_fails_the_run_and_the_exit_code() {
        let scrub = op(Class::Scrub);
        let Expect::Frames { limit, gap } = scrub.expect.clone() else { panic!("scrub op") };
        let good: Vec<u64> = (0..limit as u64).map(|i| i * gap).collect();

        let mut checker = Checker::default();
        assert!(checker.reply(&scrub, &frames_line(&good)));
        // The same text answered with another frame list: identity fails.
        let other: Vec<u64> = good.iter().map(|frame| frame + 1).collect();
        assert!(!checker.reply(&scrub, &frames_line(&other)));
        assert_eq!((checker.attempted, checker.failed), (2, 1));
        assert!(checker.messages[0].contains("after"), "{:?}", checker.messages);

        let outcome =
            Outcome { metrics: Vec::new(), notes: Vec::new(), checker, samples: Vec::new() };
        assert!(!outcome.correct());
        assert_eq!(outcome.exit_code(), 1);
        let line = outcome.result_line();
        let parsed = Reply::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.raw("correct"), Some("false"));
        assert_eq!(parsed.integer("attempted"), Some(2));
        assert_eq!(parsed.integer("failed"), Some(1));
    }

    #[test]
    fn scrub_replies_must_hold_exactly_limit_frames_respecting_gap() {
        let scrub = op(Class::Scrub);
        let Expect::Frames { limit, gap } = scrub.expect.clone() else { panic!("scrub op") };
        let good: Vec<u64> = (0..limit as u64).map(|i| 7 + i * gap).collect();
        let check = |frames: &[u64]| {
            let line = frames_line(frames);
            shape_error(&scrub, &Reply::parse(&line).expect("json"))
        };
        assert_eq!(check(&good), None);
        // Order on the wire is by confidence, not by frame: still fine.
        let mut reversed = good.clone();
        reversed.reverse();
        assert_eq!(check(&reversed), None);
        assert!(check(&good[1..]).expect("short").contains("LIMIT"));
        let mut close = good.clone();
        close[1] = close[0] + gap - 1;
        assert!(check(&close).expect("close").contains("GAP"));
    }

    #[test]
    fn shape_checks_cover_kind_ok_and_missing_fields() {
        let aggregate = op(Class::Aggregate);
        let parse = |line: &str| shape_error(&aggregate, &Reply::parse(line).expect("json"));
        assert_eq!(parse(&aggregate_line(1.1)), None);
        assert!(parse(&frames_line(&[1])).expect("kind").contains("expected aggregate"));
        let error = r#"{"ok":false,"kind":"unknown_video","error":"unknown video 'x'"}"#;
        assert!(parse(error).expect("error").contains("unknown video"));
        let no_cost = r#"{"ok":true,"kind":"aggregate","value":1.0}"#;
        assert!(parse(no_cost).expect("missing").contains("simulated_secs"));
        let mut checker = Checker::default();
        assert!(!checker.reply(&aggregate, "listening on 127.0.0.1:1"));
        assert!(checker.messages[0].contains("malformed"));
    }

    #[test]
    fn within_eps_share_is_checked_against_the_confidence() {
        let mut gen = QueryGen::new(11, SERVER_TARGETS);
        let ops: Vec<Op> = (0..20).map(|_| gen.op(Class::Aggregate)).collect();
        let exact_sql = ops[0].clone().expect;
        let Expect::Aggregate { exact_sql, .. } = exact_sql else { panic!("aggregate op") };
        let exact = BTreeMap::from([(exact_sql.clone(), 1.0)]);

        // Eighteen of twenty inside their bound: 0.9 >= 0.95 - 0.10 passes.
        let mut checker = Checker::default();
        for (i, op) in ops.iter().enumerate() {
            let value = if i < 2 { 1.5 } else { 1.05 };
            assert!(checker.reply(op, &aggregate_line(value)));
        }
        assert_eq!(checker.exact_queries(), vec![exact_sql]);
        assert_eq!(checker.within_eps(&exact), 0.9);
        assert!(checker.correct());

        // Fourteen of twenty: the run is incorrect though every reply was
        // well-formed.
        let mut checker = Checker::default();
        for (i, op) in ops.iter().enumerate() {
            let value = if i < 6 { 1.5 } else { 1.05 };
            checker.reply(op, &aggregate_line(value));
        }
        assert_eq!(checker.within_eps(&exact), 0.7);
        assert_eq!(checker.failed, 0);
        assert!(!checker.correct());

        // Two answers are too few to judge a 95 % promise: reported only.
        let mut checker = Checker::default();
        checker.reply(&ops[0], &aggregate_line(1.5));
        checker.reply(&ops[1], &aggregate_line(1.05));
        assert_eq!(checker.within_eps(&exact), 0.5);
        assert!(checker.correct());
    }

    #[test]
    fn merging_connections_cross_checks_their_answers() {
        let aggregate = op(Class::Aggregate);
        let mut a = Checker::default();
        let mut b = Checker::default();
        assert!(a.reply(&aggregate, &aggregate_line(1.1)));
        assert!(b.reply(&aggregate, &aggregate_line(1.2)));
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (2, 1));
        assert!(!a.correct());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_nulls_make_it_incorrect() {
        let outcome = Outcome {
            metrics: vec![
                Metric::new("aggregate_ms", "ms", 0.25),
                Metric::new("setup_s", "s", 0.07),
            ],
            notes: Vec::new(),
            checker: Checker { attempted: 10, ..Checker::default() },
            samples: Vec::new(),
        };
        assert_eq!(
            outcome.result_line(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"aggregate_ms":{"value":0.25,"unit":"ms"},"setup_s":{"value":0.07,"unit":"s"}}}"#
        );
        assert_eq!(outcome.exit_code(), 0);
        let missing = Outcome {
            metrics: vec![Metric::new("scrub_ms", "ms", f64::NAN)],
            notes: Vec::new(),
            checker: Checker::default(),
            samples: Vec::new(),
        };
        assert!(missing.result_line().contains(r#""scrub_ms":{"value":null"#));
        assert_eq!(missing.exit_code(), 1);
    }

    #[test]
    fn cost_tally_is_balanced_per_class() {
        let mut tally = CostTally::default();
        // A thousand cheap scrubs must not drown three expensive selections.
        for _ in 0..1000 {
            tally.add(Class::Scrub, 10.0, 40);
        }
        for _ in 0..3 {
            tally.add(Class::Select, 1000.0, 3400);
        }
        assert_eq!(tally.sim_gpu_s_per_query(), 505.0);
        assert_eq!(tally.mean_detection_calls(Class::Select), 3400.0);
        assert_eq!(tally.mean_detection_calls(Class::Fanout), 0.0);
        let mut other = CostTally::default();
        other.add(Class::Fanout, 200.0, 400);
        tally.merge(&other);
        assert_eq!(tally.sim_gpu_s_per_query(), (10.0 + 1000.0 + 200.0) / 3.0);
    }
}
