//! In-process access to the engine, for the streaming workload (the wire
//! protocol has no ingest command) and for the traced replays.
//!
//! Answers are rendered to the same one-line JSON shape the server sends,
//! so the same checker judges replies from both paths. The server binary's
//! renderer is private to it; this one covers the three answer kinds the
//! workloads produce and nothing else.

use crate::check::{Checker, CostTally};
use crate::json::{self, Reply};
use crate::queries::Op;
use blazeit::prelude::{BlazeItError, QueryOutput, QueryResult, Server};
use std::time::Instant;

/// One query result as a reply line.
pub fn render(outcome: &Result<QueryResult, BlazeItError>) -> String {
    let result = match outcome {
        Ok(result) => result,
        Err(error) => {
            return json::object([
                ("ok", "false".to_string()),
                ("kind", json::string("error")),
                ("error", json::string(&error.to_string())),
            ])
        }
    };
    let mut members: Vec<(&str, String)> = vec![("ok", "true".to_string())];
    match &result.output {
        QueryOutput::Aggregate { value, standard_error, .. }
        | QueryOutput::CatalogAggregate { value, standard_error, .. } => {
            members.push(("kind", json::string("aggregate")));
            members.push(("value", json::number(*value)));
            members.push(("standard_error", json::number(standard_error.unwrap_or(f64::NAN))));
        }
        QueryOutput::Frames { frames, .. } => {
            members.push(("kind", json::string("frames")));
            members.push(("frames", json::array(frames.iter().map(u64::to_string))));
        }
        QueryOutput::CatalogFrames { frames, .. } => {
            members.push(("kind", json::string("frames")));
            let pairs =
                frames.iter().map(|f| json::array([json::string(&f.video), f.frame.to_string()]));
            members.push(("sourced_frames", json::array(pairs)));
        }
        QueryOutput::Rows { rows, .. } => {
            members.push(("kind", json::string("rows")));
            members.push(("count", rows.len().to_string()));
        }
        QueryOutput::CatalogRows { rows, .. } => {
            members.push(("kind", json::string("rows")));
            members.push(("count", rows.len().to_string()));
        }
        QueryOutput::Explain { .. } | QueryOutput::ExplainAnalyze { .. } => {
            members.push(("kind", json::string("explain")));
        }
    }
    members.push(("detection_calls", result.output.detection_calls().to_string()));
    members.push(("simulated_secs", json::number(result.runtime_secs())));
    members.push(("wall_secs", json::number(result.wall_secs)));
    json::object(members)
}

/// Checks the answer to `op` like a reply off the wire and, when it passes,
/// tallies its cost fields. Returns whether it passed.
pub fn check(
    outcome: &Result<QueryResult, BlazeItError>,
    op: &Op,
    checker: &mut Checker,
    tally: &mut CostTally,
) -> bool {
    let line = render(outcome);
    let passed = checker.reply(op, &line);
    if let (true, Some(reply)) = (passed, Reply::parse(&line)) {
        tally.add_reply(op.class, &reply);
    }
    passed
}

/// Runs `op` through `server` and checks the answer; the seconds the query
/// call took, or `None` when the answer failed a check.
pub fn timed_query(
    server: &Server,
    op: &Op,
    checker: &mut Checker,
    tally: &mut CostTally,
) -> Option<f64> {
    let started = Instant::now();
    let outcome = server.query(&op.sql);
    let secs = started.elapsed().as_secs_f64();
    check(&outcome, op, checker, tally).then_some(secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_as_not_ok_replies() {
        let error = BlazeItError::Unsupported("nope".to_string());
        let line = render(&Err(error));
        let reply = Reply::parse(&line).expect("json");
        assert!(!reply.ok());
        assert!(reply.string("error").expect("message").contains("nope"));
    }
}
