//! Data-parallel helpers built on one process-wide persistent worker pool.
//!
//! The build environment has no `rayon`, so this module provides the two primitives
//! the engine needs:
//!
//! * [`par_fill_chunks`] — split a flat output buffer into contiguous chunks and fill
//!   them from worker threads (what batched featurization uses).
//! * [`par_run`] — run a set of heterogeneous scoped tasks to completion and collect
//!   their results in submission order (what the catalog's cross-video query fan-out
//!   uses to execute per-video sub-queries concurrently).
//!
//! Workers live in a process-wide persistent pool (spawned once, on first use)
//! instead of being re-spawned per call. On a single-core host (or for small inputs)
//! the work runs inline with zero threading overhead.
//!
//! **Nesting is safe.** A task running on the pool may itself call back into
//! [`par_fill_chunks`] or [`par_run`] (a fanned-out sub-query scores its video through
//! the same pool). Blocking a worker on a latch while its sub-jobs sit in a queue
//! would deadlock once every worker waits, so latch waits are *cooperative*: each call
//! keeps its jobs in a batch queue of its own, the pool channel only carries "pop one
//! job from that batch" tickets, and a waiting submitter pops and runs the jobs of its
//! **own** batch until all of them have finished.
//!
//! **A waiter never runs a foreign job.** Callers hold locks across pool calls (the
//! engine scores a video under its `live_index` lock), so a waiter that ran another
//! call's queued job would run arbitrary lock-taking code inside the caller's
//! critical section: a self-deadlock on a non-reentrant mutex, or an A/B–B/A
//! deadlock between two waiters. Its own batch's jobs are what the caller asked to
//! have run there anyway.

use blazeit_detect::SimClock;
use blazeit_videostore::sync::{AtomicU64, Condvar, Mutex, MutexGuard, OnceLock, Ordering};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Worker threads in the pool (0 until the pool has spawned on first use;
/// reading this never forces the spawn).
static POOL_WORKERS: AtomicU64 = AtomicU64::new(0);
/// Jobs queued for the pool by `run_scoped` (every task but a call's first).
static JOBS_SUBMITTED: AtomicU64 = AtomicU64::new(0);
/// Jobs dequeued and run by dedicated worker threads.
static JOBS_EXECUTED: AtomicU64 = AtomicU64::new(0);
/// Jobs popped off its own batch and run inline by a cooperatively waiting
/// submitter.
static JOBS_STOLEN: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the pool's lifetime counters, for the metrics registry.
///
/// `submitted` counts queued jobs only — each `run_scoped` call's first task
/// runs inline on the caller and is deliberately not counted. A submitted job
/// ends up either `executed` (by a dedicated worker) or `stolen` (taken back by
/// its own waiting submitter); the difference `submitted - executed - stolen`
/// is the batches' instantaneous depth plus jobs mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Dedicated worker threads (0 before first pool use).
    pub workers: u64,
    /// Jobs queued for the pool.
    pub submitted: u64,
    /// Jobs run by dedicated worker threads.
    pub executed: u64,
    /// Jobs a waiting submitter took back from its own batch and ran inline.
    pub stolen: u64,
}

/// Reads the pool's lifetime counters without forcing the pool to spawn.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        workers: POOL_WORKERS.load(Ordering::Relaxed),
        submitted: JOBS_SUBMITTED.load(Ordering::Relaxed),
        executed: JOBS_EXECUTED.load(Ordering::Relaxed),
        stolen: JOBS_STOLEN.load(Ordering::Relaxed),
    }
}

/// A unit of work shipped to the pool. The `'static` bound is produced by an unsafe
/// lifetime extension in the private `run_scoped` entry point, which is sound
/// because the submitting call blocks until every one of its jobs has finished.
///
/// Public so the model-checker test suite (`blazeit-model`) can drive
/// [`Latch::wait_with_steal`] with synthetic jobs.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queued jobs of one `run_scoped` call. `Arc`-owned because a ticket for it
/// can still sit in the pool channel after the call returned (its waiter ran the
/// job itself); by then the queue is empty, so no lifetime-extended job outlives
/// its call.
type Batch = Arc<Mutex<VecDeque<Job>>>;

/// The process-wide worker pool: `available_parallelism() - 1` detached workers
/// pulling tickets off one shared channel (the submitting thread works too, so the
/// total concurrency matches the core count). A ticket names a batch; redeeming it
/// pops and runs one of that batch's jobs, if its waiter has not taken it first.
struct WorkerPool {
    sender: Mutex<Sender<Batch>>,
    workers: usize,
}

impl WorkerPool {
    fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let workers = threads.saturating_sub(1);
            let (sender, receiver) = channel::<Batch>();
            let receiver = Arc::new(Mutex::new(receiver));
            for i in 0..workers {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("blazeit-score-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    // blazeit-lint: allow(panic-site) -- pool bootstrap inside
                    // OnceLock::get_or_init has no error channel; a failed spawn is
                    // unrecoverable resource exhaustion at first use.
                    .expect("spawning a pool worker");
            }
            POOL_WORKERS.store(workers as u64, Ordering::Relaxed);
            WorkerPool { sender: Mutex::new(sender), workers }
        })
    }

    /// Queues `job` on `batch` and, when there are workers to redeem it, sends
    /// the pool one ticket for it.
    fn submit(&self, batch: &Batch, job: Job) {
        JOBS_SUBMITTED.fetch_add(1, Ordering::Relaxed);
        batch.lock().push_back(job);
        if self.workers == 0 {
            return;
        }
        // The sync-shim lock ignores poisoning: a panic inside `send` does not
        // leave the channel in a broken state, so future submissions keep going.
        let sender = self.sender.lock();
        // blazeit-lint: allow(panic-site) -- the global pool's workers hold the
        // receiver for the process lifetime, so send cannot observe a closed channel.
        sender.send(Arc::clone(batch)).expect("pool workers never hang up");
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Batch>>) {
    loop {
        // Hold the locks only while dequeuing, never while running a job.
        let ticket = receiver.lock().recv();
        let Ok(batch) = ticket else { return }; // Channel closed: process is shutting down.
        let job = batch.lock().pop_front();
        if let Some(job) = job {
            job();
            JOBS_EXECUTED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counts outstanding jobs of one `run_scoped` call and wakes the submitter when the
/// last one finishes (normally or by panic).
///
/// Public (though not part of the stable API) so the `blazeit-model` schedule
/// explorer can exhaustively check the wait/complete protocol for lost wakeups:
/// under the `model` feature the condvar wait never times out, so the protocol
/// must be correct on notify placement alone — the timeout below is only a
/// queue-recheck heartbeat, never a correctness crutch.
#[doc(hidden)]
pub struct Latch {
    state: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    /// A latch counting down from `count` outstanding jobs.
    pub fn new(count: usize) -> Latch {
        Latch { state: Mutex::new(count), done: Condvar::new() }
    }

    /// Locks the counter. The sync-shim lock ignores poisoning, which is the
    /// behavior this protocol needs: a `usize` has no invariant a panic can
    /// break mid-update, and refusing to decrement would hang the submitter's
    /// latch wait forever — the one failure mode this module must never have.
    fn state(&self) -> MutexGuard<'_, usize> {
        self.state.lock()
    }

    /// Marks one counted job finished, waking waiters when the count hits zero.
    pub fn complete_one(&self) {
        let mut remaining = self.state();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Whether every counted job has finished.
    pub fn is_done(&self) -> bool {
        *self.state() == 0
    }

    /// Waits for every counted job, *cooperatively*: while the latch is open,
    /// `steal()` is polled for queued jobs, which run on the waiting thread.
    /// `run_scoped` passes a `steal` that pops the waiter's own batch, which is what
    /// makes nested pool use deadlock-free — a pool worker blocked here still drains
    /// the sub-jobs it submitted, so they make progress even when every dedicated
    /// worker is occupied — without ever running another call's job under whatever
    /// locks this call's caller holds.
    ///
    /// Lost-wakeup freedom: the final `remaining == 0` check and the condvar wait
    /// happen under the same lock [`complete_one`] holds while decrementing and
    /// notifying, so a completion can never slip between the check and the block.
    /// The `blazeit-model` suite proves this across every interleaving.
    pub fn wait_with_steal(&self, mut steal: impl FnMut() -> Option<Job>) {
        loop {
            if self.is_done() {
                return;
            }
            if let Some(job) = steal() {
                job();
                JOBS_STOLEN.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Nothing to steal right now: block briefly on the condvar. The timeout
            // re-polls `steal`, since queueing a job does not signal this latch.
            let remaining = self.state();
            if *remaining == 0 {
                return;
            }
            let _ = self.done.wait_timeout(remaining, Duration::from_micros(200));
        }
    }
}

/// Runs `tasks` on the persistent pool (all but the first, which runs on the calling
/// thread) and blocks until every task has completed. Panics from workers are
/// captured and re-raised on the caller.
///
/// # Safety
///
/// Task closures may borrow caller-local data: they are lifetime-extended to
/// `'static` before entering the pool, which is sound because this function does not
/// return until the latch confirms every task has run to completion (panicking tasks
/// included), so no closure can outlive the borrows it captured.
fn run_scoped<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    if tasks.is_empty() {
        return;
    }
    let pool = WorkerPool::global();
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let latch = Latch::new(tasks.len());

    // Cost attribution: jobs run on whichever thread dequeues them (a pool
    // worker, or this call's own cooperative latch wait), so the
    // submitter's simulated-clock charge tag is captured here and
    // re-established around the job body — charges land in the submitting
    // session's ledger no matter where the work physically executes.
    let tag = SimClock::charge_tag();
    let batch: Batch = Arc::new(Mutex::new(VecDeque::new()));
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else { return };
    for task in tasks {
        let latch_ref = &latch;
        let panic_ref = &panic_slot;
        let wrapped: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            SimClock::with_charge_tag(tag, || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    panic_ref.lock().get_or_insert(payload);
                }
            });
            latch_ref.complete_one();
        });
        // SAFETY: see the function-level safety comment — the latch wait below keeps
        // every borrow captured by `wrapped` alive until the job has finished. The
        // `Arc`-owned batch may outlive this call, but only empty: the latch opens
        // after every job has run, and a job runs only after it was popped.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(wrapped) };
        pool.submit(&batch, job);
    }

    // The caller is a worker too: run the first task inline.
    let inline_result = catch_unwind(AssertUnwindSafe(first));
    latch.complete_one();
    latch.wait_with_steal(|| batch.lock().pop_front());

    if let Err(payload) = inline_result {
        resume_unwind(payload);
    }
    let payload = panic_slot.lock().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Runs every task to completion — concurrently on the persistent worker pool when
/// more than one core is available, inline otherwise — and returns their results in
/// submission order.
///
/// This is the fan-out primitive for heterogeneous scoped work (e.g. executing one
/// sub-query per video of a multi-video FrameQL query): tasks may borrow from the
/// caller's stack, the call blocks until all of them have finished, and a panicking
/// task re-raises its payload on the caller after the others complete. Tasks may
/// themselves use the pool ([`par_fill_chunks`] or a nested `par_run`); a waiting
/// submitter runs its own queued jobs, so nesting cannot deadlock.
pub fn par_run<'scope, T: Send + 'scope>(
    tasks: Vec<Box<dyn FnOnce() -> T + Send + 'scope>>,
) -> Vec<T> {
    if tasks.is_empty() {
        return Vec::new();
    }
    let slots: Vec<Mutex<Option<T>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let wrapped: Vec<Box<dyn FnOnce() + Send + '_>> = tasks
        .into_iter()
        .zip(&slots)
        .map(|(task, slot)| {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let value = task();
                *slot.lock() = Some(value);
            });
            job
        })
        .collect();
    run_scoped(wrapped);
    slots
        .into_iter()
        .map(|slot| {
            // blazeit-lint: allow(panic-site) -- run_scoped returns only after the
            // latch counts every task (worker panics are re-thrown before this), so
            // every slot has been filled.
            slot.lock().take().expect("run_scoped ran every task to completion")
        })
        .collect()
}

/// A panic captured at a [`par_run_caught`] task boundary, carrying the stringified
/// panic payload. Converting panics into values here keeps a single exploding task
/// from aborting its siblings or re-raising on the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic message (`&str` / `String` payloads verbatim; a placeholder for
    /// anything else).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// The message of a caught panic payload: `&str` / `String` payloads verbatim, a
/// placeholder for anything else.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`par_run`], but a panicking task yields `Err(TaskPanic)` in its slot
/// instead of re-raising on the caller once the batch drains.
///
/// Every panic is caught *inside* the task before it reaches the pool machinery, so
/// the worker thread, the shared queue, and sibling tasks are untouched — the pool
/// cannot be poisoned or deadlocked by one bad task, and callers get a typed,
/// per-task verdict they can surface as an error value.
pub fn par_run_caught<'scope, T: Send + 'scope>(
    tasks: Vec<Box<dyn FnOnce() -> T + Send + 'scope>>,
) -> Vec<Result<T, TaskPanic>> {
    let caught: Vec<Box<dyn FnOnce() -> Result<T, TaskPanic> + Send + 'scope>> = tasks
        .into_iter()
        .map(|task| {
            let wrapped: Box<dyn FnOnce() -> Result<T, TaskPanic> + Send + 'scope> =
                Box::new(move || {
                    catch_unwind(AssertUnwindSafe(task))
                        .map_err(|payload| TaskPanic { message: panic_message(payload.as_ref()) })
                });
            wrapped
        })
        .collect();
    par_run(caught)
}

/// Splits `data` into at most `available_parallelism()` contiguous chunks whose
/// lengths are multiples of `align` and runs `f(start_offset, chunk)` for each, on
/// the persistent worker pool when more than one core is available.
///
/// `align` is the row width of the flattened 2-D buffer, so chunk boundaries
/// always fall between rows. The first error (by chunk order) is returned;
/// panics in workers propagate.
pub fn par_fill_chunks<T, E, F>(data: &mut [T], align: usize, f: F) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &mut [T]) -> Result<(), E> + Sync,
{
    assert!(align > 0 && data.len().is_multiple_of(align), "buffer is not row-aligned");
    let rows = data.len() / align;
    let threads = WorkerPool::global().workers + 1;
    let rows_per_chunk = rows.div_ceil(threads.max(1)).max(1);
    let chunk_len = rows_per_chunk * align;

    if threads <= 1 || rows <= rows_per_chunk {
        let mut start = 0usize;
        for chunk in data.chunks_mut(chunk_len) {
            let len = chunk.len();
            f(start, chunk)?;
            start += len;
        }
        return Ok(());
    }

    let f = &f;
    let num_chunks = rows.div_ceil(rows_per_chunk);
    let results: Vec<Mutex<Option<Result<(), E>>>> =
        (0..num_chunks).map(|_| Mutex::new(None)).collect();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(num_chunks);
    let mut start = 0usize;
    for (chunk, slot) in data.chunks_mut(chunk_len).zip(&results) {
        let offset = start;
        start += chunk.len();
        tasks.push(Box::new(move || {
            let outcome = f(offset, chunk);
            *slot.lock() = Some(outcome);
        }));
    }
    run_scoped(tasks);

    for slot in &results {
        if let Some(Err(e)) = slot.lock().take() {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_every_row_exactly_once() {
        let mut data = vec![0u32; 7 * 3];
        par_fill_chunks(&mut data, 3, |start, chunk| -> Result<(), ()> {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (start + i) as u32;
            }
            Ok(())
        })
        .unwrap();
        let expected: Vec<u32> = (0..21).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn propagates_errors() {
        let mut data = vec![0u8; 8];
        let err =
            par_fill_chunks(&mut data, 2, |start, _| if start == 0 { Err("boom") } else { Ok(()) });
        assert_eq!(err, Err("boom"));
    }

    #[test]
    fn empty_buffer_is_a_noop() {
        let mut data: Vec<u8> = Vec::new();
        par_fill_chunks(&mut data, 4, |_, _| -> Result<(), ()> { panic!("should not run") })
            .unwrap();
    }

    #[test]
    fn pool_is_reused_across_many_calls() {
        // Large enough rows to engage the pool path on multi-core hosts; repeated
        // calls must neither deadlock nor leak (workers are persistent).
        for round in 0..50u32 {
            let rows = 512usize;
            let mut data = vec![0u64; rows * 4];
            par_fill_chunks(&mut data, 4, |start, chunk| -> Result<(), ()> {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (start + i) as u64 + u64::from(round);
                }
                Ok(())
            })
            .unwrap();
            assert_eq!(data[0], u64::from(round));
            assert_eq!(*data.last().unwrap(), (rows * 4 - 1) as u64 + u64::from(round));
        }
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut data = vec![0u32; 64 * 8];
                    par_fill_chunks(&mut data, 8, |start, chunk| -> Result<(), ()> {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v = (start + i) as u32;
                        }
                        Ok(())
                    })
                    .unwrap();
                    assert_eq!(data[511], 511);
                });
            }
        });
    }

    #[test]
    fn par_run_returns_results_in_submission_order() {
        let inputs: Vec<u64> = (0..23).collect();
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = inputs
            .iter()
            .map(|&i| {
                let task: Box<dyn FnOnce() -> u64 + Send + '_> = Box::new(move || i * i);
                task
            })
            .collect();
        let results = par_run(tasks);
        let expected: Vec<u64> = inputs.iter().map(|&i| i * i).collect();
        assert_eq!(results, expected);
        assert!(par_run::<u8>(Vec::new()).is_empty());
    }

    #[test]
    fn par_run_tasks_may_borrow_caller_state() {
        let words = ["alpha".to_string(), "beta".to_string(), "gamma".to_string()];
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = words
            .iter()
            .map(|w| {
                let task: Box<dyn FnOnce() -> usize + Send + '_> = Box::new(move || w.len());
                task
            })
            .collect();
        assert_eq!(par_run(tasks), vec![5, 4, 5]);
    }

    #[test]
    fn nested_pool_use_does_not_deadlock() {
        // Each outer task occupies the pool AND fans out again through it — both via
        // par_fill_chunks and a nested par_run. With naive (non-cooperative) latch
        // waits this configuration deadlocks as soon as outer tasks outnumber the
        // workers; the cooperative wait steals the queued inner jobs instead.
        let outer: Vec<Box<dyn FnOnce() -> u64 + Send + 'static>> = (0..16)
            .map(|round| {
                let task: Box<dyn FnOnce() -> u64 + Send + 'static> = Box::new(move || {
                    let mut data = vec![0u64; 256 * 4];
                    par_fill_chunks(&mut data, 4, |start, chunk| -> Result<(), ()> {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v = (start + i) as u64 + round;
                        }
                        Ok(())
                    })
                    .unwrap();
                    let data_ref = &data;
                    let inner: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = (0..4)
                        .map(|k| {
                            let t: Box<dyn FnOnce() -> u64 + Send + '_> =
                                Box::new(move || data_ref[k] + 1);
                            t
                        })
                        .collect();
                    par_run(inner).into_iter().sum()
                });
                task
            })
            .collect();
        let sums = par_run(outer);
        for (round, sum) in sums.iter().enumerate() {
            // data[k] = k + round for k in 0..4, +1 each: sum = (0+1+2+3) + 4*round + 4.
            assert_eq!(*sum, 6 + 4 * round as u64 + 4);
        }
    }

    #[test]
    fn a_waiting_submitter_never_runs_another_calls_job() {
        use std::cell::Cell;
        thread_local! {
            /// Set while this thread is inside the critical section its caller
            /// holds across a pool call (in the engine: the `live_index` lock).
            static IN_CRITICAL: Cell<bool> = const { Cell::new(false) };
        }
        if WorkerPool::global().workers == 0 {
            return; // One core: every task runs inline, nobody ever waits.
        }
        let (started_tx, started_rx) = channel::<()>();
        let (parked_tx, parked_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let ran_inside = AtomicU64::new(0);
        std::thread::scope(|scope| {
            // The holder: enters its critical section, fans out two tasks, and
            // ends up waiting on the second while a worker is still inside it.
            scope.spawn(move || {
                IN_CRITICAL.with(|c| c.set(true));
                let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                    // Runs inline on the holder; returns once the other task is
                    // mid-run elsewhere, so the holder's wait finds nothing of
                    // its own left to run.
                    Box::new(move || {
                        started_rx.recv().unwrap();
                        parked_tx.send(()).unwrap();
                    }),
                    Box::new(move || {
                        started_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                    }),
                ];
                par_run(tasks);
                IN_CRITICAL.with(|c| c.set(false));
            });
            // The flood: once the holder is about to wait, queue jobs that record
            // whether the thread running them is inside a critical section.
            parked_rx.recv().unwrap();
            let ran_inside = &ran_inside;
            let flood: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
                .map(|_| {
                    let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        if IN_CRITICAL.with(|c| c.get()) {
                            ran_inside.fetch_add(1, Ordering::SeqCst);
                        }
                        // Long enough for the holder's 200 µs wait heartbeat
                        // to come round while jobs are still queued.
                        std::thread::sleep(Duration::from_micros(500));
                    });
                    job
                })
                .collect();
            par_run(flood);
            release_tx.send(()).unwrap();
        });
        assert_eq!(
            ran_inside.load(Ordering::SeqCst),
            0,
            "foreign jobs ran on a thread that was waiting inside its caller's critical section"
        );
    }

    #[test]
    fn par_run_caught_converts_panics_to_typed_errors() {
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send + 'static>> = (0..8)
            .map(|i| {
                let task: Box<dyn FnOnce() -> u32 + Send + 'static> = Box::new(move || {
                    if i % 3 == 0 {
                        panic!("task {i} exploded");
                    }
                    i * 10
                });
                task
            })
            .collect();
        let results = par_run_caught(tasks);
        assert_eq!(results.len(), 8);
        for (i, result) in results.iter().enumerate() {
            if i % 3 == 0 {
                let panic = result.as_ref().unwrap_err();
                assert_eq!(panic.message, format!("task {i} exploded"));
            } else {
                assert_eq!(*result.as_ref().unwrap(), i as u32 * 10);
            }
        }
    }

    #[test]
    fn pool_survives_caught_panics() {
        // A batch where every task panics must leave the pool fully functional.
        let bad: Vec<Box<dyn FnOnce() -> u8 + Send + 'static>> = (0..16)
            .map(|_| {
                let task: Box<dyn FnOnce() -> u8 + Send + 'static> = Box::new(|| panic!("chaos"));
                task
            })
            .collect();
        for result in par_run_caught(bad) {
            assert!(result.is_err());
        }
        let good: Vec<Box<dyn FnOnce() -> u64 + Send + 'static>> = (0..16)
            .map(|i| {
                let task: Box<dyn FnOnce() -> u64 + Send + 'static> = Box::new(move || i + 1);
                task
            })
            .collect();
        let sums: u64 = par_run_caught(good).into_iter().map(|r| r.unwrap()).sum();
        assert_eq!(sums, (1..=16).sum::<u64>());
    }

    #[test]
    fn pool_stats_accounts_for_queued_work() {
        let before = pool_stats();
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + 'static>> = (0..32u64)
            .map(|i| Box::new(move || i) as Box<dyn FnOnce() -> u64 + Send + 'static>)
            .collect();
        let results = par_run(tasks);
        assert_eq!(results.len(), 32);
        let after = pool_stats();
        // The first task ran inline (never counted); the other 31 were queued.
        // Executed/stolen tallies land just after each job body, so they can
        // lag the latch — only the submission count is exact here.
        assert!(after.submitted >= before.submitted + 31);
        assert_eq!(after.workers as usize, WorkerPool::global().workers);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        // The first chunk (start == 0) exists on every host, whether it runs inline,
        // on the caller-as-worker path, or in a single serial chunk — so the panic
        // must always surface (and never hang the latch).
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut data = vec![0u8; 1024 * 2];
            let _ = par_fill_chunks(&mut data, 2, |start, _| -> Result<(), ()> {
                if start == 0 {
                    panic!("worker exploded");
                }
                Ok(())
            });
        }));
        assert!(outcome.is_err());
    }
}
