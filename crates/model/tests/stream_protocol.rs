//! Exhaustive model check of a hand-written model of the stream publication
//! protocol: `advance`, `Subscription` poll and the background retrain's
//! publication.
//!
//! The model is a copy, not the production code: `Protocol` below builds its
//! own three shim mutexes, ranked like the production
//! `monitor → live_index → nn_cache` locks, and each thread replays by hand
//! the lock sequence and the one-generation swap rule that `stream.rs` and
//! `context.rs` follow. Under **every** schedule up to the preemption bound it
//! checks that the protocol as modelled is sound:
//!
//! * no poll ever observes a `LiveIndex` whose NN and score index come from
//!   different generations;
//! * every path respects the documented lock order (the ranked-mutex oracle
//!   fails the run otherwise);
//! * no schedule deadlocks.
//!
//! An edit to `stream.rs` cannot make this test fail. The gate on `stream.rs`
//! itself is the workspace's `tests/streaming.rs`: run in a debug build, every
//! ranked lock it takes goes through `lockorder`'s runtime tracker, which
//! panics with "lock-order violation" on an inversion.
//!
//! The `canary_*` test is the seeded race: a deliberately broken two-thread
//! swap protocol the checker **must** flag, wired into CI next to the lint
//! canary so a regression that stops the checker from finding races fails the
//! build.

use blazeit_core::lockorder::Lock;
use blazeit_core::sync::Mutex;
use blazeit_model::{thread, Builder, FailureKind};
use std::sync::Arc;

/// The published index state, mirroring `context::LiveIndex`: the specialized
/// NN and the score index it produced must always swap as one generation.
#[derive(Clone, Copy)]
struct LiveIndex {
    nn_generation: u64,
    score_generation: u64,
    frames: u64,
}

/// The shared state of the streaming protocol, with the same ranked locks the
/// production `VideoContext` / `StreamState` construct (`Mutex::ranked` enrolls
/// them in the model checker's hierarchy oracle exactly as `with_parts` does).
struct Protocol {
    /// Drift monitor: frames seen since the last drift check.
    monitor: Mutex<u64>,
    /// The live index: swapped atomically, one generation at a time.
    live_index: Mutex<LiveIndex>,
    /// Specialized-NN cache: generation of the cached network.
    nn_cache: Mutex<u64>,
}

/// A shim mutex ranked as `lock`, as `lockorder::RankedMutex::new` builds it.
fn ranked<T>(lock: Lock, value: T) -> Mutex<T> {
    Mutex::ranked(lock.rank(), lock.name(), value)
}

fn protocol() -> Arc<Protocol> {
    Arc::new(Protocol {
        monitor: ranked(Lock::Monitor, 0),
        live_index: ranked(
            Lock::LiveIndex,
            LiveIndex { nn_generation: 0, score_generation: 0, frames: 0 },
        ),
        nn_cache: ranked(Lock::NnCache, 0),
    })
}

/// Three protocol threads (plus the main thread), preemption bound 2: ingest
/// appends under monitor→live_index, the subscription polls the live index,
/// and the retrain publishes a new generation under monitor→live_index before
/// refreshing the NN cache. Exhaustively explored: generation coherence on
/// every poll and every tick, lock-order compliance on every path, no
/// deadlock in any schedule.
#[test]
fn advance_poll_and_retrain_publish_hold_under_every_schedule() {
    let report = Builder::new().preemption_bound(2).check(|| {
        let p = protocol();

        let ingest = {
            let p = Arc::clone(&p);
            thread::spawn_named("ingest", move || {
                for _ in 0..2 {
                    // stream.rs order: the drift monitor is acquired before
                    // the live index on the advance path.
                    let mut seen = p.monitor.lock();
                    *seen += 1;
                    let mut idx = p.live_index.lock();
                    idx.frames += 1;
                    assert_eq!(
                        idx.nn_generation, idx.score_generation,
                        "ingest appended into a mixed-generation index"
                    );
                }
            })
        };

        let poll = {
            let p = Arc::clone(&p);
            thread::spawn_named("poll", move || {
                for _ in 0..2 {
                    let idx = p.live_index.lock();
                    assert_eq!(
                        idx.nn_generation, idx.score_generation,
                        "tick answered from a mixed generation"
                    );
                }
            })
        };

        let publish = {
            let p = Arc::clone(&p);
            thread::spawn_named("publish", move || {
                // The retrain trains offline (no locks), then publishes:
                // monitor (re-arm) → live_index (one-shot generation swap) →
                // nn_cache (install the new specialized NN).
                let mut seen = p.monitor.lock();
                *seen = 0;
                {
                    let mut idx = p.live_index.lock();
                    idx.nn_generation += 1;
                    idx.score_generation += 1;
                }
                *p.nn_cache.lock() += 1;
            })
        };

        ingest.join();
        poll.join();
        publish.join();

        let idx = p.live_index.lock();
        assert_eq!(idx.frames, 2, "every tick was ingested exactly once");
        assert_eq!(idx.nn_generation, 1, "the retrain published exactly once");
        assert_eq!(*p.nn_cache.lock(), 1);
    });
    assert!(
        report.schedules >= 100,
        "three racing threads at bound 2 must explore many schedules, got {}",
        report.schedules
    );
}

/// The seeded-race canary: a deliberately broken swap protocol that releases
/// the live-index lock between the NN bump and the score bump. The checker
/// must flag it with a replayable `file:line` counterexample — if this test
/// fails, the model checker has lost the ability to find real races.
#[test]
fn canary_broken_two_thread_swap_is_flagged() {
    let report = Builder::new().check_report(|| {
        let idx =
            Arc::new(Mutex::new(LiveIndex { nn_generation: 0, score_generation: 0, frames: 0 }));

        let publisher = {
            let idx = Arc::clone(&idx);
            thread::spawn_named("publish", move || {
                idx.lock().nn_generation += 1;
                // BROKEN on purpose: the lock is dropped between the two
                // halves of the swap, exposing a mixed generation.
                idx.lock().score_generation += 1;
            })
        };
        let poller = {
            let idx = Arc::clone(&idx);
            thread::spawn_named("poll", move || {
                let g = idx.lock();
                assert_eq!(
                    g.nn_generation, g.score_generation,
                    "tick answered from a mixed generation"
                );
            })
        };
        publisher.join();
        poller.join();
    });

    let failure = report.failure.expect("the checker must catch the torn swap");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("mixed generation"), "{}", failure.message);
    assert!(failure.schedules_to_find >= 1);
    // The counterexample is a concrete interleaving with resolved call sites.
    assert!(
        failure.trace.iter().any(|l| l.file.ends_with("stream_protocol.rs") && l.line > 0),
        "trace must point at this file: {failure}"
    );
    let rendered = failure.to_string();
    assert!(rendered.contains("concurrency model check FAILED"), "{rendered}");
    assert!(rendered.contains("counterexample schedule"), "{rendered}");
    assert!(rendered.contains("deterministic"), "{rendered}");
}

/// An inverted acquisition (live_index before monitor) anywhere in the
/// protocol is caught by the ranked-lock oracle on the schedule that triggers
/// it — the static lint and the debug tracker share the same table, so all
/// three layers agree on what a violation is.
#[test]
fn canary_lock_order_inversion_is_flagged() {
    let report = Builder::new().check_report(|| {
        let p = protocol();
        let t = {
            let p = Arc::clone(&p);
            thread::spawn_named("backwards", move || {
                let _idx = p.live_index.lock();
                let _mon = p.monitor.lock();
            })
        };
        t.join();
    });
    let failure = report.failure.expect("the rank oracle must fire");
    assert_eq!(failure.kind, FailureKind::LockOrder);
    assert!(
        [Lock::Monitor, Lock::LiveIndex].iter().all(|lock| {
            failure.message.contains(&format!("'{}' (rank {})", lock.name(), lock.rank()))
        }),
        "{}",
        failure.message
    );
}
