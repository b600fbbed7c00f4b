//! Closed-loop load generation over the wire.
//!
//! FrameQL clients are analysts and dashboards that wait for each reply, so
//! every connection sends its next line only after parsing the previous
//! answer. An operation's latency runs from the line being written to the
//! JSON line being parsed; checks and bookkeeping happen outside the timer.

use crate::check::{Checker, CostTally};
use crate::json::{self, Reply};
use crate::proc::{Client, CpuPin, ServerProcess, ServerSpec};
use crate::queries::Op;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How many servers are started and stopped again for nothing but their
/// set-up time, before, between and after the chunks of a timed phase.
/// Starting a server takes milliseconds, most of them process start-up,
/// which is a deterministic computation like any other: 2.8 ms while the
/// host is quiet, 4.1 ms while it is not, whole batches at a time. `setup_s`
/// is the fastest of a run's (see [`crate::stats::fastest`]).
pub const SPARE_SETUPS: usize = 6;

/// Starts the system under test and brings it to the point where the first
/// operation can be sent: spawn → banner → connect → `PING`. Returns the
/// seconds that took.
pub fn timed_setup(spec: &ServerSpec) -> Result<(ServerProcess, Client, f64), String> {
    let started = Instant::now();
    let server = ServerProcess::spawn(spec)?;
    let mut client = server.connect()?;
    let pong = client.roundtrip("PING")?;
    if pong != r#"{"ok":true,"kind":"pong"}"# {
        return Err(format!("unexpected PING reply: {pong}"));
    }
    Ok((server, client, started.elapsed().as_secs_f64()))
}

/// Sets `repeats` servers up and shuts each down again; the seconds every
/// set-up took. They are started on one CPU (the calling thread is pinned
/// meanwhile): left to land on either, a fresh process takes a fifth longer
/// to start on this host, and less evenly.
pub fn spare_setups(
    spec: &ServerSpec,
    repeats: usize,
    checker: &mut Checker,
) -> Result<Vec<f64>, String> {
    let _pin = CpuPin::one_cpu();
    let mut secs = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let (server, client, took) = timed_setup(spec)?;
        secs.push(took);
        drop(client);
        let clean = server.shutdown();
        checker.require(clean, || "a set-up server did not exit cleanly".to_string());
    }
    Ok(secs)
}

/// When a connection stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At a wall-clock deadline (the list is cycled until then).
    At(Instant),
    /// After one pass over the list.
    OnePass,
}

/// What one connection measured.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Latency samples in arrival order, per class.
    pub latencies_ms: [Vec<f64>; 4],
    /// Completion time of every operation, ns since the phase began.
    pub completions_ns: Vec<u64>,
    /// Cost fields of the first answer to every distinct query.
    pub tally: CostTally,
    /// Attempts, failures, first answers.
    pub checker: Checker,
    /// Request plus response bytes.
    pub wire_bytes: u64,
}

impl ConnLog {
    /// Appends what another connection (or a later pass of this one)
    /// measured, cross-checking the answers both saw.
    pub fn absorb(&mut self, other: ConnLog) {
        for (mine, theirs) in self.latencies_ms.iter_mut().zip(other.latencies_ms) {
            mine.extend(theirs);
        }
        self.completions_ns.extend(other.completions_ns);
        self.tally.merge(&other.tally);
        self.checker.merge(other.checker);
        self.wire_bytes += other.wire_bytes;
    }
}

/// Drives one connection through `ops` in list order until `stop`.
pub fn drive(client: &mut Client, ops: &[Op], stop: Stop, phase_start: Instant) -> ConnLog {
    let mut log = ConnLog::default();
    // Per list position: the first answer. A repeat is compared against it
    // byte for byte, which is cheaper than checking it all over again.
    let mut first: Vec<Option<Box<str>>> = vec![None; ops.len()];
    let bytes_before = client.wire_bytes;
    'phase: loop {
        for (op, first) in ops.iter().zip(&mut first) {
            if matches!(stop, Stop::At(deadline) if Instant::now() >= deadline) {
                break 'phase;
            }
            let sent = Instant::now();
            let line = match client.roundtrip(&op.sql) {
                Ok(line) => line,
                Err(error) => {
                    log.checker.attempted += 1;
                    log.checker.fail(|| format!("`{}`: {error}", op.sql));
                    break 'phase;
                }
            };
            let reply = Reply::parse(line);
            let done = Instant::now();
            let passed = match first {
                Some(answer) => {
                    log.checker.attempted += 1;
                    let same = **answer == *json::answer_part(line);
                    if !same {
                        log.checker
                            .fail(|| format!("`{}` answered `{line}` after `{answer}`", op.sql));
                    }
                    same
                }
                None => {
                    let passed = log.checker.reply(op, line);
                    if let (true, Some(reply)) = (passed, &reply) {
                        log.tally.add_reply(op.class, reply);
                        *first = Some(json::answer_part(line).into());
                    }
                    passed
                }
            };
            if passed {
                log.latencies_ms[op.class.index()].push((done - sent).as_secs_f64() * 1e3);
                log.completions_ns.push((done - phase_start).as_nanos() as u64);
            }
        }
        if matches!(stop, Stop::OnePass) {
            break;
        }
    }
    log.wire_bytes = client.wire_bytes - bytes_before;
    log
}

/// Runs one closed-loop connection per list concurrently (each on its own
/// thread and socket) and returns their logs with the phase length.
pub fn run_connections(
    server: &ServerProcess,
    lists: &[&[Op]],
    stop_after: Option<Duration>,
) -> Result<(Vec<ConnLog>, Duration), String> {
    let mut clients =
        lists.iter().map(|_| server.connect()).collect::<Result<Vec<Client>, String>>()?;
    let phase_start = Instant::now();
    let stop = stop_after.map_or(Stop::OnePass, |d| Stop::At(phase_start + d));
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lists)
            .map(|(client, ops)| scope.spawn(move || drive(client, ops, stop, phase_start)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().map_err(|_| "a load-generating thread panicked"))
            .collect::<Result<Vec<ConnLog>, _>>()
    })?;
    Ok((logs, phase_start.elapsed()))
}

/// Sends every operation once, untimed, so that every head is trained and
/// every index scored before timing begins. Replies are checked in full,
/// and — this being one connection sending one query at a time — their
/// cost fields are exactly what each query charged, so they are tallied.
///
/// Operations go out class by class, the cross-video fan-out last: the
/// first touch of a video trains its network, and whether three networks
/// train one after another or side by side (a fan-out arriving first)
/// decides the server's peak memory — which must not depend on how a seed
/// happened to shuffle the list.
pub fn prewarm(client: &mut Client, ops: &[Op], checker: &mut Checker, tally: &mut CostTally) {
    let mut ordered: Vec<&Op> = ops.iter().collect();
    ordered.sort_by_key(|op| op.class);
    for op in ordered {
        match client.roundtrip(&op.sql) {
            Ok(line) => {
                if let (true, Some(reply)) = (checker.reply(op, line), Reply::parse(line)) {
                    tally.add_reply(op.class, &reply);
                }
            }
            Err(error) => {
                checker.attempted += 1;
                checker.fail(|| format!("pre-warm `{}`: {error}", op.sql));
                return;
            }
        }
    }
}

/// The `STATS` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Result-cache hits.
    pub hits: u64,
    /// Computations started.
    pub misses: u64,
    /// Queries that attached to an in-flight computation.
    pub coalesced: u64,
    /// FIFO evictions.
    pub evicted: u64,
    /// Entries dropped because the data generation moved.
    pub invalidated: u64,
}

impl Stats {
    /// Counter-wise difference since `earlier`.
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
            evicted: self.evicted - earlier.evicted,
            invalidated: self.invalidated - earlier.invalidated,
        }
    }

    /// Parses a `STATS` reply line.
    pub fn parse(line: &str) -> Option<Stats> {
        let reply = Reply::parse(line)?;
        Some(Stats {
            hits: reply.integer("hits")?,
            misses: reply.integer("misses")?,
            coalesced: reply.integer("coalesced")?,
            evicted: reply.integer("evicted")?,
            invalidated: reply.integer("invalidated")?,
        })
    }
}

/// Reads `STATS` over the wire.
pub fn stats(client: &mut Client) -> Result<Stats, String> {
    let line = client.roundtrip("STATS")?;
    Stats::parse(line).ok_or_else(|| format!("unparseable STATS reply: {line}"))
}

/// Asks for the exact answer (the same query without its error clause:
/// detector on every frame) of every approximate aggregate the checker has
/// seen, once per exact form.
pub fn exact_answers(client: &mut Client, checker: &mut Checker) -> BTreeMap<String, f64> {
    let mut exact = BTreeMap::new();
    for sql in checker.exact_queries() {
        checker.attempted += 1;
        let value = client
            .roundtrip(&sql)
            .ok()
            .and_then(|line| Reply::parse(line).filter(Reply::ok)?.number("value"));
        match value {
            Some(value) => {
                exact.insert(sql, value);
            }
            None => checker.fail(|| format!("no exact answer to `{sql}`")),
        }
    }
    exact
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_parse_and_subtract() {
        let before = Stats::parse(
            r#"{"ok":true,"kind":"stats","hits":7,"misses":1,"coalesced":3,"evicted":0,"invalidated":0,"queued":0}"#,
        )
        .expect("stats");
        let after = Stats { hits: 107, misses: 1, coalesced: 3, evicted: 2, invalidated: 0 };
        assert_eq!(
            after.since(&before),
            Stats { hits: 100, misses: 0, coalesced: 0, evicted: 2, invalidated: 0 }
        );
        assert_eq!(Stats::parse(r#"{"ok":true,"kind":"pong"}"#), None);
    }
}
