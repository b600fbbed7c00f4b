//! Exhaustive model check of the compute-once cell behind every cache:
//! `blazeit_core::single_flight::Flight`, driven through its public API
//! exactly as the serving layer drives it.
//!
//! Sessions key a cache by the video's data generation. Under the ranked
//! `serve_cache` map lock, `Flight::join` makes exactly one session the
//! computer of a vacant key; later sessions with the same key wait on the
//! cell, and the computer publishes `(result, generation)` as one state change
//! before waking them. A concurrent generation bump (the model's stand-in for
//! stream ingest / UDF registration / drift refresh) invalidates by making the
//! old key unreachable, and the computer vacates an entry whose generation
//! moved. Explored under **every** schedule up to the preemption bound, the
//! protocol must guarantee:
//!
//! * no session ever receives a result computed for a different generation
//!   than the one its cache key was built from (no stale reads);
//! * no waiter is lost: every attached session is woken by the publish (a
//!   missed wakeup blocks a thread forever, which the checker reports as a
//!   deadlock);
//! * a computer's error reaches every waiter, the failed key is vacant
//!   afterwards, and the next join computes it again;
//! * no schedule deadlocks, and every path respects the lock order of
//!   `blazeit_core::lockorder` (the ranked-mutex oracle fails the run
//!   otherwise).
//!
//! The `canary_*` tests are seeded races the checker **must** flag — a torn
//! publish, and a cell-before-map lock inversion; they run in CI beside the
//! lint and stream canaries so a regression that blinds the checker fails the
//! build.

use blazeit_core::lockorder::Lock;
use blazeit_core::single_flight::{Flight, FlightMap, Role};
use blazeit_core::sync::{AtomicU64, Mutex, Ordering};
use blazeit_core::{BlazeItError, Result};
use blazeit_model::{thread, Builder, FailureKind};
use std::collections::HashMap;
use std::sync::Arc;

/// A published answer and the generation it was computed for.
type Answer = (u64, u64);

/// The serving cache: generation → cell under the ranked `serve_cache` lock.
struct Protocol {
    cache: Mutex<FlightMap<u64, Answer>>,
    generation: AtomicU64,
}

fn protocol() -> Arc<Protocol> {
    Arc::new(Protocol {
        cache: Mutex::ranked(Lock::ServeCache.rank(), Lock::ServeCache.name(), HashMap::new()),
        generation: AtomicU64::new(0),
    })
}

/// What the engine would answer for generation `g` (any pure function of the
/// key works; sessions verify the result matches their key's generation).
fn answer_for(generation: u64) -> u64 {
    100 + generation
}

/// One session's trip through the serving layer: snapshot the generation
/// (key time), join the cache under `serve_cache`, then hit / wait / compute.
/// A computer runs `compute` with no lock held, publishes it, and vacates
/// the entry if it failed or the generation moved meanwhile — what
/// `serve::ServerSession::compute` does. Returns the session's key with
/// what it received.
fn run_session(p: &Protocol, compute: impl FnOnce(u64) -> Result<Answer>) -> (u64, Result<Answer>) {
    let key = p.generation.load(Ordering::SeqCst);
    let role = Flight::join(&mut p.cache.lock(), &key);
    let result = match role {
        Role::Hit(result) => result,
        Role::Wait(flight) => flight.wait(),
        Role::Compute(flight) => {
            let result =
                flight.run(|| unreachable!("the model computation never panics"), || compute(key));
            if result.is_err() || p.generation.load(Ordering::SeqCst) != key {
                Flight::vacate(&mut p.cache.lock(), &key, &flight);
            }
            result
        }
    };
    (key, result)
}

/// Three sessions race an invalidating generation bump, preemption bound 2:
/// whichever session wins the vacancy check computes, same-key sessions
/// coalesce as waiters, sessions that key after the bump compute the new
/// generation. Exhaustively explored: every session's answer matches its
/// key's generation, every waiter wakes, no deadlock, lock order holds.
#[test]
fn coalescing_and_invalidation_hold_under_every_schedule() {
    let report = Builder::new().preemption_bound(2).check(|| {
        let p = protocol();

        let sessions: Vec<_> = (0..3)
            .map(|i| {
                let p = Arc::clone(&p);
                thread::spawn_named(format!("session-{i}"), move || {
                    let (key, result) = run_session(&p, |g| Ok((answer_for(g), g)));
                    let (value, generation) = result.expect("no computation fails");
                    // The stale-read invariant: the answer a session receives
                    // was computed for exactly the generation its key named.
                    assert_eq!(
                        generation, key,
                        "session keyed at generation {key} received a result for {generation}"
                    );
                    assert_eq!(
                        value,
                        answer_for(generation),
                        "published result inconsistent with its generation"
                    );
                })
            })
            .collect();

        let bump = {
            let p = Arc::clone(&p);
            thread::spawn_named("bump", move || {
                // Stream ingest / UDF registration / drift refresh: the data
                // generation moves, invalidating generation-0 cache keys.
                p.generation.store(1, Ordering::SeqCst);
            })
        };

        for session in sessions {
            session.join();
        }
        bump.join();

        // Post-conditions on the final cache: any surviving entry is
        // published (no computation was abandoned mid-flight) and answers
        // for its own key.
        let cache = p.cache.lock();
        for (&key, flight) in cache.iter() {
            assert_eq!(flight.waiters(), None, "an entry was left computing");
            assert_eq!(flight.peek(), Some((answer_for(key), key)));
        }
    });
    assert!(
        report.schedules >= 100,
        "three sessions racing a bump at preemption bound 2 must explore \
         at least 100 schedules, got {}",
        report.schedules
    );
}

/// Every computation fails. Whichever session computes publishes the error:
/// each session that joined as a waiter (or hit the failed entry before it
/// was vacated) receives that same typed error, no session hangs, the key is
/// vacant once everyone returns, and a later join computes it again.
#[test]
fn a_published_error_reaches_every_waiter_and_vacates_the_key() {
    fn failure() -> BlazeItError {
        BlazeItError::Internal("injected computation failure".into())
    }
    let report = Builder::new().preemption_bound(2).check(|| {
        let p = protocol();
        let sessions: Vec<_> = (0..3)
            .map(|i| {
                let p = Arc::clone(&p);
                thread::spawn_named(format!("session-{i}"), move || {
                    let (_, result) = run_session(&p, |_| Err(failure()));
                    assert_eq!(result, Err(failure()), "every session receives the error");
                })
            })
            .collect();
        for session in sessions {
            session.join();
        }
        let mut cache = p.cache.lock();
        assert!(cache.is_empty(), "a failed key must be vacant afterwards");
        assert!(
            matches!(Flight::join(&mut cache, &0), Role::Compute(_)),
            "the next join after a failure computes"
        );
    });
    assert!(report.schedules >= 10, "got {}", report.schedules);
}

/// The seeded-race canary: a torn publish that installs the result value and
/// its generation under two separate acquisitions of the cell lock. An
/// observer between the halves sees a result inconsistent with its
/// generation — the checker must find that interleaving and report a
/// replayable counterexample, or it has lost the ability to catch real
/// cache races.
#[test]
fn canary_torn_result_generation_publish_is_flagged() {
    struct TornSlot {
        value: u64,
        generation: u64,
    }

    let report = Builder::new().check_report(|| {
        let slot = Arc::new(Mutex::new(TornSlot { value: answer_for(0), generation: 0 }));

        let publisher = {
            let slot = Arc::clone(&slot);
            thread::spawn_named("publish", move || {
                slot.lock().value = answer_for(1);
                // BROKEN on purpose: the lock is dropped between the result
                // and the generation, exposing a torn (value, generation)
                // pair exactly like a non-atomic publish in `Flight::run` would.
                slot.lock().generation = 1;
            })
        };
        let observer = {
            let slot = Arc::clone(&slot);
            thread::spawn_named("observe", move || {
                let s = slot.lock();
                assert_eq!(
                    s.value,
                    answer_for(s.generation),
                    "observed a torn (result, generation) publish"
                );
            })
        };
        publisher.join();
        observer.join();
    });

    let failure = report.failure.expect("the checker must catch the torn publish");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("torn (result, generation)"), "{}", failure.message);
    assert!(failure.schedules_to_find >= 1);
    assert!(
        failure.trace.iter().any(|l| l.file.ends_with("coalesce_protocol.rs") && l.line > 0),
        "trace must point at this file: {failure}"
    );
}

/// Acquiring a cache's map lock while holding a lock of the cell's rank is an
/// inversion of the documented order; the ranked-lock oracle (reading the
/// same `Lock` ranks as the debug tracker) must flag it.
#[test]
fn canary_serve_lock_inversion_is_flagged() {
    let report = Builder::new().check_report(|| {
        let p = protocol();
        let cell = Arc::new(Mutex::ranked(Lock::Flight.rank(), Lock::Flight.name(), ()));
        let t = {
            let p = Arc::clone(&p);
            let cell = Arc::clone(&cell);
            thread::spawn_named("backwards", move || {
                let _state = cell.lock();
                let _cache = p.cache.lock();
            })
        };
        t.join();
    });
    let failure = report.failure.expect("the rank oracle must fire");
    assert_eq!(failure.kind, FailureKind::LockOrder);
    assert!(
        [Lock::ServeCache, Lock::Flight].iter().all(|lock| {
            failure.message.contains(&format!("'{}' (rank {})", lock.name(), lock.rank()))
        }),
        "{}",
        failure.message
    );
}
