//! Concurrency equivalence of the serving layer: a randomized mixed workload
//! (aggregation / scrubbing / selection / EXPLAIN over warm and cold videos,
//! including duplicate queries issued concurrently) pushed through N server
//! sessions must return **bit-identical** answers to a serial run of the
//! deduplicated query set, at a total simulated cost no greater than that
//! serial run.
//!
//! The catalogs are built once and shared by every proptest case
//! (`OnceLock`), so later cases exercise the warm-cache paths — the server's
//! result cache answers repeats while the serial catalog re-executes, which
//! is exactly the cost inequality under test.

use blazeit::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The mixed query pool: FCOUNT / scrub / selection / EXPLAIN over both
/// registered videos. Every case draws a workload (with duplicates) from it.
const POOL: [&str; 7] = [
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%",
    "SELECT FCOUNT(*) FROM rialto WHERE class = 'boat' ERROR WITHIN 0.25 AT CONFIDENCE 90%",
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.3 AT CONFIDENCE 90%",
    "SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 1 LIMIT 2 GAP 30",
    "SELECT * FROM taipei WHERE class = 'bus' AND area(mask) > 20000",
    "EXPLAIN SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%",
    "EXPLAIN SELECT timestamp FROM rialto GROUP BY timestamp HAVING SUM(class='boat') >= 1 LIMIT 1",
];

const FRAMES: u64 = 400;

fn build_catalog() -> Catalog {
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, FRAMES).expect("register taipei");
    catalog.register_preset(DatasetPreset::Rialto, FRAMES).expect("register rialto");
    catalog
}

/// The shared fixture: a served catalog and an identically-constructed serial
/// twin. Both see the same deduplicated query multiset over the whole run, so
/// their engine-level caches (specialized NNs, score indexes) stay in
/// lockstep and answers are comparable bit-for-bit.
fn fixture() -> &'static (Server, Catalog) {
    static FIXTURE: OnceLock<(Server, Catalog)> = OnceLock::new();
    FIXTURE.get_or_init(|| (Server::new(Arc::new(build_catalog())), build_catalog()))
}

/// Strips the serving-layer annotation from an `EXPLAIN` output so plans can
/// be compared across the served / serial divide (only the server stamps a
/// `cache:` disposition; the plan itself must agree).
fn comparable_output(output: &QueryOutput) -> QueryOutput {
    match output {
        QueryOutput::Explain { plan } => {
            let mut plan = plan.clone();
            plan.cache = None;
            // Cache-warmth fields describe *when* the plan was rendered, not
            // what the query answers; under concurrency an EXPLAIN can
            // legitimately observe a sibling query's warming. Normalize them.
            for sub in &mut plan.subplans {
                sub.specialized_cache = CacheWarmth::Cold;
                sub.score_index_cache = CacheWarmth::Cold;
            }
            QueryOutput::Explain { plan }
        }
        other => other.clone(),
    }
}

proptest! {
    #[test]
    fn concurrent_sessions_match_the_serial_run_bit_for_bit(
        workload in prop::collection::vec(0usize..POOL.len(), 4..10),
        sessions in 2usize..5,
    ) {
        let (server, serial_catalog) = fixture();
        let clock = server.catalog().clock();
        let serial_clock = serial_catalog.clock();

        // --- concurrent run: the workload round-robins over N sessions ----
        let served_before = clock.total();
        let mut served: Vec<(usize, QueryResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|s| {
                    let session = server.session();
                    let lane: Vec<usize> =
                        workload.iter().copied().skip(s).step_by(sessions).collect();
                    scope.spawn(move || {
                        lane.into_iter()
                            .map(|q| (q, session.query(POOL[q]).expect("served query")))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("session thread")).collect()
        });
        served.sort_by_key(|(q, _)| *q);
        let served_cost = clock.total() - served_before;

        // --- serial run of the deduplicated query set ---------------------
        let mut unique: Vec<usize> = workload.clone();
        unique.sort_unstable();
        unique.dedup();
        let serial_before = serial_clock.total();
        let serial: Vec<(usize, QueryResult)> = unique
            .iter()
            .map(|&q| (q, serial_catalog.session().query(POOL[q]).expect("serial query")))
            .collect();
        let serial_cost = serial_clock.total() - serial_before;

        // Bit-identical answers: every served result equals the serial run's
        // answer for the same query (f64s compared exactly — the engine is
        // deterministic given identical data and cache evolution).
        for (q, result) in &served {
            let (_, serial_result) =
                serial.iter().find(|(sq, _)| sq == q).expect("dedup covers the workload");
            prop_assert_eq!(
                comparable_output(&result.output),
                comparable_output(&serial_result.output),
                "query {} diverged between served and serial runs",
                POOL[*q]
            );
        }

        // Total simulated cost: coalescing + the result cache mean the served
        // run never exceeds the serial run of the deduplicated set (EXPLAIN
        // is free on both sides; repeats are free only on the served side).
        prop_assert!(
            served_cost <= serial_cost + 1e-9,
            "served cost {served_cost} exceeded serial dedup cost {serial_cost}"
        );

        // Per-session attribution stays exact under sharing: the per-tag
        // ledgers of the served catalog's clock sum to the global clock.
        let summed: f64 =
            clock.charged_tags().iter().map(|&t| clock.breakdown_for(t).total()).sum();
        prop_assert_eq!(summed, clock.total(), "per-tag ledgers must sum to the global clock");
    }
}

/// Duplicate queries issued concurrently resolve as one computation plus
/// hits/waiters — never as independent recomputations (the deterministic
/// complement to the randomized cases above).
#[test]
fn duplicate_storm_computes_once() {
    let server = Server::new(Arc::new(build_catalog()));
    let sql = POOL[0];
    let outputs: Vec<QueryOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let session = server.session();
                scope.spawn(move || session.query(sql).expect("query").output)
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).collect()
    });
    for output in &outputs[1..] {
        assert_eq!(output, &outputs[0], "all duplicates must share one answer");
    }
    let stats = server.stats();
    assert_eq!(stats.misses, 1, "exactly one computation: {stats:?}");
    assert_eq!(stats.hits + stats.coalesced, 7, "everyone else attached or hit: {stats:?}");
}

/// Two sessions computing different cold queries at the same time each report
/// their own cost: an answer's `cost` is what its session's ledger was charged
/// (each ledger starts at zero and sees one query), category by category — not
/// the shared clock's movement meanwhile, which includes the other session's.
/// Both queries train a network, so whichever finishes last spans the other's
/// charges.
#[test]
fn concurrent_answers_report_their_own_sessions_cost() {
    let catalog = Catalog::new();
    catalog.register_preset(DatasetPreset::Taipei, 600).expect("register taipei");
    catalog.register_preset(DatasetPreset::Rialto, 600).expect("register rialto");
    let server = Server::new(Arc::new(catalog));
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for (video, class) in [("taipei", "car"), ("rialto", "boat")] {
            let (server, start) = (&server, &start);
            scope.spawn(move || {
                let session = server.session();
                let sql = format!(
                    "SELECT FCOUNT(*) FROM {video} WHERE class = '{class}' ERROR WITHIN 0.1"
                );
                start.wait();
                let result = session.query(&sql).expect("served query");
                assert!(result.cost.training > 0.0, "{video}: a cold query trains");
                assert_eq!(result.cost, session.cost(), "{video}: not the session's own cost");
            });
        }
    });
}

/// Three clients race cold scrubs on one fresh server: two single-video `LIMIT`
/// scrubs and a `FROM *` scrub whose fan-out queues ranking jobs on the pool
/// while the other two score their videos under their `live_index` locks.
///
/// A thread waiting on its own scoring chunks used to run *any* queued pool job,
/// so it would start another video's ranking job inside its critical section:
/// re-locking a mutex it already held, or two such threads holding A/B and
/// wanting B/A. Release builds hung a few rounds in a hundred; debug builds
/// fail fast, because the lock-order tracker turns the re-entry into a
/// `TaskPanicked`. Every round must finish inside its watchdog with the answers
/// of a serial run.
#[test]
fn cold_scrubs_racing_a_fan_out_finish_with_the_serial_answers() {
    use std::sync::{mpsc, Barrier};
    const ROUNDS: usize = 3;
    const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(20);
    const RACE: [&str; 3] = [
        "SELECT timestamp FROM amsterdam GROUP BY timestamp HAVING SUM(class='car') >= 1 LIMIT 5 GAP 30",
        "SELECT timestamp FROM night-street GROUP BY timestamp HAVING SUM(class='car') >= 1 LIMIT 5 GAP 30",
        "SELECT timestamp FROM * GROUP BY timestamp HAVING SUM(class='car') >= 1 LIMIT 5 GAP 30",
    ];

    // Generated and labeled once; every round re-registers the same videos in
    // a fresh catalog, so every round starts cold.
    let template = Catalog::new();
    for preset in [DatasetPreset::Taipei, DatasetPreset::NightStreet, DatasetPreset::Amsterdam] {
        template.register_preset(preset, 600).expect("register preset");
    }
    let serial: Vec<QueryOutput> = RACE
        .iter()
        .map(|sql| template.session().query(sql).expect("serial query").output)
        .collect();

    for round in 0..ROUNDS {
        let catalog = Catalog::new();
        for ctx in template.contexts() {
            catalog
                .register(
                    Video::clone(&ctx.video()),
                    Arc::clone(ctx.labeled()),
                    ctx.config().clone(),
                )
                .expect("register copy");
        }
        let server = Arc::new(Server::new(Arc::new(catalog)));
        let start = Arc::new(Barrier::new(RACE.len()));
        let (tx, rx) = mpsc::channel();
        let clients: Vec<_> = RACE
            .iter()
            .enumerate()
            .map(|(i, sql)| {
                let (server, start, tx) = (Arc::clone(&server), Arc::clone(&start), tx.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let _ = tx.send((i, server.session().query(sql)));
                })
            })
            .collect();
        for _ in RACE {
            // A stuck client never reports; its thread is leaked with the failure.
            let (i, result) = rx
                .recv_timeout(WATCHDOG)
                .unwrap_or_else(|_| panic!("round {round}: a client is stuck (deadlock)"));
            let output =
                result.unwrap_or_else(|e| panic!("round {round}: {}: {e}", RACE[i])).output;
            assert_eq!(
                output, serial[i],
                "round {round}: {} diverged from the serial run",
                RACE[i]
            );
        }
        for client in clients {
            client.join().expect("client thread");
        }
    }
}
