//! `blazeit-model` — a schedule-exploring concurrency checker (a vendored
//! mini-loom) for the BlazeIt sync shim.
//!
//! The engine's `(nn, index, generation)` swap protocol (stream `advance` vs
//! `Subscription` poll vs background drift-retrain publication) is only
//! correct if it holds under **every** interleaving, not just the one schedule
//! a wall-clock test happens to exercise. This crate runs a closure many times
//! under a controlled scheduler, enumerating all interleavings at
//! synchronization points up to a configurable preemption bound, and reports:
//!
//! * **deadlocks** — every unfinished thread blocked (also how lost wakeups
//!   present, since model condvar waits never time out);
//! * **lock-order violations** — ranked mutexes checked against the lock
//!   hierarchy stated as `blazeit_core::lockorder::Lock`;
//! * **invariant failures** — any panic (e.g. a failed `assert!`) on a model
//!   thread.
//!
//! On failure the exact schedule is minimized and printed as a `file:line`
//! interleaving trace; because every decision is recorded, re-running the test
//! reproduces the same counterexample deterministically.
//!
//! Threads and sync objects come from [`thread`] and [`sync`] — the same API
//! the production shim (`blazeit_videostore::sync`) re-exports under the
//! `model` cargo feature, so production types compiled in model mode explore
//! here and run at full speed everywhere else.
//!
//! ```
//! use blazeit_model::{sync, thread, Builder};
//! use std::sync::Arc;
//!
//! let report = Builder::new().check(|| {
//!     let total = Arc::new(sync::Mutex::new(0u32));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let total = Arc::clone(&total);
//!             thread::spawn(move || *total.lock() += 1)
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join();
//!     }
//!     assert_eq!(*total.lock(), 2);
//! });
//! assert!(report.failure.is_none());
//! ```
//!
//! # Exploration model
//!
//! Scheduling is decision-after-each-operation: after every visible operation
//! the scheduler picks which runnable thread performs the next one. Continuing
//! the current thread is free; switching away from a still-runnable thread
//! costs one *preemption*, and schedules are enumerated depth-first up to
//! [`Builder::preemption_bound`] preemptions (switches away from blocked or
//! finished threads are always free). Small bounds find almost all real bugs
//! (CHESS's empirical result) while keeping the schedule count tractable.
//!
//! The memory model is **sequential consistency**: every atomic access is a
//! serialized scheduling point. Weak-ordering reorderings are not explored.
//!
//! Closures under test must be deterministic apart from scheduling: no clocks,
//! no RNG, no real I/O — all cross-thread state through [`sync`].

// The checker is what the sync shim routes to under `model`: its scheduler and
// instrumented primitives are built on the raw std ones.
#![expect(
    clippy::disallowed_types,
    reason = "the model checker implements the shim's primitives on the raw std ones"
)]

mod sched;
pub mod sync;
pub mod thread;

pub use sched::FailureKind;

use sched::{Choice, Failure, Scheduler, TraceEvent};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Result of one run: did it fail, and which decisions did it make?
struct Outcome {
    failure: Option<Failure>,
    choices: Vec<Choice>,
    trace: Vec<TraceEvent>,
    preemptions: usize,
}

/// One operation of a counterexample schedule.
#[derive(Debug, Clone)]
pub struct TraceLine {
    /// Name of the model thread that performed the operation.
    pub thread: String,
    /// What it did (`lock "monitor"`, `atomic store 3`, `blocked: …`, …).
    pub op: String,
    /// Source file of the call site (via `#[track_caller]`).
    pub file: String,
    /// Source line of the call site.
    pub line: u32,
}

/// A failing schedule, minimized and rendered for humans via [`fmt::Display`].
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// What went wrong.
    pub kind: FailureKind,
    /// The failure message (deadlock wait-for sets, the lock-order violation,
    /// or the panic message of a failed invariant).
    pub message: String,
    /// The full interleaving that reaches the failure, in execution order.
    pub trace: Vec<TraceLine>,
    /// Preemptions the counterexample needed (≤ the configured bound).
    pub preemptions: usize,
    /// How many schedules were explored before this one failed.
    pub schedules_to_find: usize,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "concurrency model check FAILED: {}", self.message)?;
        writeln!(
            f,
            "counterexample schedule ({} ops, {} preemption{}, found on schedule #{}):",
            self.trace.len(),
            self.preemptions,
            if self.preemptions == 1 { "" } else { "s" },
            self.schedules_to_find,
        )?;
        let thread_w = self.trace.iter().map(|l| l.thread.len()).max().unwrap_or(0);
        let op_w = self.trace.iter().map(|l| l.op.len()).max().unwrap_or(0);
        for l in &self.trace {
            writeln!(f, "  [{:<thread_w$}] {:<op_w$}  {}:{}", l.thread, l.op, l.file, l.line)?;
        }
        write!(f, "the schedule is deterministic: re-running the test replays it exactly")
    }
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Total schedules executed (including the failing one, when any).
    pub schedules: usize,
    /// The minimized counterexample, or `None` if every schedule passed.
    pub failure: Option<FailureReport>,
}

/// Configures and runs an exploration.
///
/// The defaults (preemption bound 2, 200 000 schedules, 5 000 ops per
/// schedule) fit protocol-sized tests: a handful of threads doing tens of
/// operations each.
#[derive(Debug, Clone)]
pub struct Builder {
    preemption_bound: usize,
    max_schedules: usize,
    max_steps: usize,
    minimize_budget: usize,
}

impl Default for Builder {
    fn default() -> Builder {
        Builder {
            preemption_bound: 2,
            max_schedules: 200_000,
            max_steps: 5_000,
            minimize_budget: 400,
        }
    }
}

impl Builder {
    /// A builder with the default budgets.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Maximum preemptions (forced switches away from a runnable thread) per
    /// schedule. Exploration is exhaustive *within* this bound.
    pub fn preemption_bound(mut self, bound: usize) -> Builder {
        self.preemption_bound = bound;
        self
    }

    /// Hard cap on schedules; exceeding it panics (the test is too big for
    /// exhaustive exploration — shrink it or lower the bound).
    pub fn max_schedules(mut self, max: usize) -> Builder {
        self.max_schedules = max;
        self
    }

    /// Hard cap on visible operations within one schedule; exceeding it fails
    /// the run as a suspected livelock.
    pub fn max_steps(mut self, max: usize) -> Builder {
        self.max_steps = max;
        self
    }

    /// Extra replays spent shrinking a counterexample before reporting it.
    pub fn minimize_budget(mut self, budget: usize) -> Builder {
        self.minimize_budget = budget;
        self
    }

    /// Explores `f` under every schedule within the preemption bound and
    /// **panics** with the rendered [`FailureReport`] if any schedule fails.
    /// Returns the (passing) [`Report`] so callers can assert on coverage.
    pub fn check<F: Fn()>(&self, f: F) -> Report {
        let report = self.check_report(f);
        if let Some(failure) = &report.failure {
            panic!("{failure}");
        }
        report
    }

    /// Like [`check`](Self::check) but returns the failure instead of
    /// panicking — for canary tests that assert the checker *does* flag a
    /// seeded race.
    pub fn check_report<F: Fn()>(&self, f: F) -> Report {
        let mut prefix: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        loop {
            schedules += 1;
            assert!(
                schedules <= self.max_schedules,
                "exploration exceeded the {}-schedule budget; \
                 shrink the test, lower the preemption bound, or raise Builder::max_schedules",
                self.max_schedules
            );
            let out = run_once(&f, prefix, self.preemption_bound, self.max_steps);
            if out.failure.is_some() {
                let best = self.minimize(&f, out);
                let failure = best.failure.clone().expect("minimize keeps a failing outcome");
                return Report {
                    schedules,
                    failure: Some(FailureReport {
                        kind: failure.kind,
                        message: failure.message,
                        trace: best
                            .trace
                            .iter()
                            .map(|e| TraceLine {
                                thread: e.thread.clone(),
                                op: e.desc.clone(),
                                file: e.file.to_string(),
                                line: e.line,
                            })
                            .collect(),
                        preemptions: best.preemptions,
                        schedules_to_find: schedules,
                    }),
                };
            }
            match next_prefix(&out.choices, self.preemption_bound) {
                Some(p) => prefix = p,
                None => return Report { schedules, failure: None },
            }
        }
    }

    /// Best-effort counterexample shrinking: first the shortest failing
    /// decision prefix, then each decision greedily lowered toward the
    /// non-preempting default. Every candidate is a full replay; any failing
    /// candidate is a valid counterexample (not necessarily the same failure).
    fn minimize<F: Fn()>(&self, f: &F, first: Outcome) -> Outcome {
        let mut best = first;
        let mut budget = self.minimize_budget;
        let full = prefix_of(&best.choices);
        for k in 0..full.len() {
            if budget == 0 {
                return best;
            }
            budget -= 1;
            let out = run_once(f, full[..k].to_vec(), self.preemption_bound, self.max_steps);
            if out.failure.is_some() {
                best = out;
                break;
            }
        }
        let mut i = 0;
        loop {
            let cur = prefix_of(&best.choices);
            if i >= cur.len() {
                break;
            }
            for v in 0..cur[i] {
                if budget == 0 {
                    return best;
                }
                budget -= 1;
                let mut cand = cur.clone();
                cand[i] = v;
                let out = run_once(f, cand, self.preemption_bound, self.max_steps);
                if out.failure.is_some() {
                    best = out;
                    break;
                }
            }
            i += 1;
        }
        best
    }
}

fn prefix_of(choices: &[Choice]) -> Vec<usize> {
    choices.iter().map(|c| c.picked).collect()
}

/// Runs `f` once under a fresh scheduler, replaying `prefix` at the recorded
/// choice points and defaulting (continue the current thread) beyond it.
fn run_once<F: Fn()>(f: &F, prefix: Vec<usize>, bound: usize, max_steps: usize) -> Outcome {
    let scheduler = Arc::new(Scheduler::new(prefix, bound, max_steps));
    sched::set_current(Some((scheduler.clone(), 0)));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    sched::set_current(None);
    match outcome {
        // Finishing can itself detect a deadlock (main exits while others are
        // blocked) and unwind with ModelAbort; the failure is already recorded.
        Ok(()) => {
            let _ = catch_unwind(AssertUnwindSafe(|| scheduler.finish_thread(0)));
        }
        Err(payload) if payload.is::<sched::ModelAbort>() => scheduler.finish_quiet(0),
        Err(payload) => scheduler.record_panic(0, thread::panic_message(payload.as_ref())),
    }
    let (failure, choices, trace, preemptions) = scheduler.wait_all_done();
    Outcome { failure, choices, trace, preemptions }
}

/// Depth-first successor: backtracks to the deepest choice with an untried
/// alternative that stays within the preemption bound, and returns the
/// decision prefix that takes it. `None` when the (bounded) tree is exhausted.
fn next_prefix(choices: &[Choice], bound: usize) -> Option<Vec<usize>> {
    let mut prefix = prefix_of(choices);
    for i in (0..choices.len()).rev() {
        let c = &choices[i];
        for cand in (c.picked + 1)..c.options.len() {
            let cost = usize::from(c.preemptive[cand]);
            if c.preemptions_before + cost <= bound {
                prefix.truncate(i);
                prefix.push(cand);
                return Some(prefix);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Ordering::SeqCst;
    use std::sync::Arc;

    #[test]
    fn mutex_counter_is_coherent_in_every_schedule() {
        let report = Builder::new().check(|| {
            let total = Arc::new(sync::Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let total = Arc::clone(&total);
                    thread::spawn(move || *total.lock() += 1)
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*total.lock(), 2);
        });
        assert!(report.schedules >= 2, "two threads must yield multiple schedules");
    }

    #[test]
    fn racy_read_modify_write_is_caught() {
        let racy = || {
            let v = Arc::new(sync::AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let v = Arc::clone(&v);
                    thread::spawn(move || {
                        let seen = v.load(SeqCst);
                        v.store(seen + 1, SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(v.load(SeqCst), 2, "an increment was lost");
        };

        // One preemption (mid read-modify-write) is required and sufficient.
        let clean = Builder::new().preemption_bound(0).check_report(racy);
        assert!(clean.failure.is_none(), "bound 0 cannot interleave mid-RMW");

        let report = Builder::new().preemption_bound(1).check_report(racy);
        let failure = report.failure.expect("bound 1 must find the lost increment");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.message.contains("an increment was lost"), "{}", failure.message);
        assert!(failure.schedules_to_find > 1, "the default schedule passes");
        assert!(!failure.trace.is_empty());
        for line in &failure.trace {
            assert!(line.file.ends_with("lib.rs"), "call sites resolve here: {}", line.file);
            assert!(line.line > 0);
        }
    }

    #[test]
    fn ab_ba_deadlock_is_caught() {
        let report = Builder::new().check_report(|| {
            let a = Arc::new(sync::Mutex::new(()));
            let b = Arc::new(sync::Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t1 = thread::spawn_named("ab", move || {
                let _a = a2.lock();
                let _b = b2.lock();
            });
            let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
            let t2 = thread::spawn_named("ba", move || {
                let _b = b3.lock();
                let _a = a3.lock();
            });
            t1.join();
            t2.join();
        });
        let failure = report.failure.expect("AB-BA must deadlock under some schedule");
        assert_eq!(failure.kind, FailureKind::Deadlock);
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
        assert!(failure.message.contains("'ab'") && failure.message.contains("'ba'"));
    }

    #[test]
    fn lock_order_oracle_fires_on_inverted_ranked_acquisition() {
        let report = Builder::new().check_report(|| {
            let live = sync::Mutex::ranked(1, "live_index", ());
            let monitor = sync::Mutex::ranked(0, "monitor", ());
            let _l = live.lock();
            let _m = monitor.lock();
        });
        let failure = report.failure.expect("rank inversion must be flagged");
        assert_eq!(failure.kind, FailureKind::LockOrder);
        assert!(
            failure.message.contains("lock-order violation")
                && failure.message.contains("'monitor' (rank 0)")
                && failure.message.contains("'live_index' (rank 1)"),
            "{}",
            failure.message
        );
    }

    #[test]
    fn condvar_handoff_is_clean() {
        let report = Builder::new().check(|| {
            let pair = Arc::new((sync::Mutex::new(false), sync::Condvar::new()));
            let p2 = Arc::clone(&pair);
            let waiter = thread::spawn_named("waiter", move || {
                let (m, cv) = &*p2;
                let mut ready = m.lock();
                while !*ready {
                    ready = cv.wait(ready);
                }
            });
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
            waiter.join();
        });
        assert!(report.schedules >= 2);
    }

    #[test]
    fn lost_wakeup_is_reported_as_deadlock() {
        let report = Builder::new().check_report(|| {
            let pair = Arc::new((sync::Mutex::new(false), sync::Condvar::new()));
            let p2 = Arc::clone(&pair);
            let waiter = thread::spawn_named("waiter", move || {
                let (m, cv) = &*p2;
                // Broken protocol: the flag check and the wait are separate
                // critical sections, so a notify can slip between them.
                let ready = *m.lock();
                if !ready {
                    let guard = m.lock();
                    let _guard = cv.wait(guard);
                }
            });
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
            waiter.join();
        });
        let failure = report.failure.expect("the lost wakeup must surface as a deadlock");
        assert_eq!(failure.kind, FailureKind::Deadlock);
        assert!(failure.message.contains("parked on"), "{}", failure.message);
    }

    #[test]
    fn once_lock_initializes_exactly_once() {
        Builder::new().check(|| {
            let cell = Arc::new(sync::OnceLock::new());
            let inits = Arc::new(sync::AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    let inits = Arc::clone(&inits);
                    thread::spawn(move || {
                        let v = *cell.get_or_init(|| {
                            inits.fetch_add(1, SeqCst);
                            7u64
                        });
                        assert_eq!(v, 7);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(inits.load(SeqCst), 1, "init closure must run exactly once");
        });
    }

    #[test]
    fn rwlock_writers_are_never_observed_mid_update() {
        Builder::new().check(|| {
            let l = Arc::new(sync::RwLock::new(0u64));
            let l2 = Arc::clone(&l);
            let writer = thread::spawn_named("writer", move || {
                let mut g = l2.write();
                *g += 1;
                *g += 1;
            });
            let l3 = Arc::clone(&l);
            let reader = thread::spawn_named("reader", move || {
                let v = *l3.read();
                assert!(v == 0 || v == 2, "read a torn update: {v}");
            });
            writer.join();
            reader.join();
        });
    }

    #[test]
    fn primitives_pass_through_outside_explorations() {
        let m = sync::Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);

        let cv = sync::Condvar::new();
        let guard = m.lock();
        let (guard, timed_out) = cv.wait_timeout(guard, std::time::Duration::from_millis(1));
        assert!(timed_out, "nobody notifies: the real timeout must fire");
        drop(guard);

        let a = sync::AtomicU64::new(5);
        assert_eq!(a.fetch_add(2, SeqCst), 5);
        assert_eq!(a.load(SeqCst), 7);

        let cell: sync::OnceLock<u32> = sync::OnceLock::new();
        assert_eq!(*cell.get_or_init(|| 3), 3);
        assert_eq!(cell.set(9), Err(9));

        let rw = sync::RwLock::new(4u8);
        assert_eq!(*rw.read(), 4);
        *rw.write() = 5;
        assert_eq!(*rw.read(), 5);
    }

    #[test]
    fn self_deadlock_is_reported() {
        let report = Builder::new().check_report(|| {
            let m = sync::Mutex::new(());
            let _a = m.lock();
            let _b = m.lock();
        });
        let failure = report.failure.expect("re-locking on one thread must be flagged");
        assert_eq!(failure.kind, FailureKind::Deadlock);
        assert!(failure.message.contains("self-deadlock"), "{}", failure.message);
    }
}
