//! The controlled scheduler at the heart of the model checker.
//!
//! During an exploration every model thread is a real OS thread, but only one
//! is ever *scheduled*: each visible operation (lock, unlock, condvar wait,
//! atomic access, spawn, join) first waits for its turn, then mutates the
//! shared [`State`] under one global lock, then picks which thread runs next.
//! Wherever more than one thread could be picked, the decision is recorded as a
//! [`Choice`]; the explorer in `lib.rs` drives depth-first over those choice
//! points by replaying a decision prefix on each run.
//!
//! Two failure detectors live here rather than in user assertions:
//!
//! * **Deadlock** — a thread about to block observes that no other thread is
//!   runnable and at least one is blocked: every schedule extension is stuck.
//! * **Lock-order violations** — mutexes constructed with
//!   [`Mutex::ranked`](crate::sync::Mutex::ranked) carry a `(rank, name)` from
//!   `blazeit_core::lockorder::RANKED_LOCKS`; acquiring one while holding an
//!   equal or higher rank fails the run immediately, on the exact interleaving
//!   that reached it.
//!
//! When a run fails, every other model thread is unwound with the private
//! [`ModelAbort`] panic payload so its guards release cleanly, and the run's
//! decision trace becomes the counterexample the explorer minimizes.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::Location;
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard, Once, PoisonError,
};

/// Panic payload used to unwind model threads once a run has failed. It is
/// never user-visible: thread wrappers catch it, mark the thread finished, and
/// swallow it (the failure itself is reported through the run outcome).
pub(crate) struct ModelAbort;

thread_local! {
    /// The exploration this OS thread is participating in, if any. `None`
    /// means every shim operation falls through to its real `std::sync`
    /// implementation (pass-through mode).
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// The scheduler + thread id of the calling OS thread, if it is a model thread.
pub(crate) fn current() -> Option<(Arc<Scheduler>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs (or clears) the calling OS thread's exploration context.
pub(crate) fn set_current(ctx: Option<(Arc<Scheduler>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = ctx);
}

/// Suppresses the default "thread panicked" stderr noise for panics raised on
/// model threads (both [`ModelAbort`] unwinds and user invariant failures —
/// the latter are reported through the rendered counterexample instead).
/// Panics on non-model threads keep the previous hook's behavior.
pub(crate) fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_model_thread = current().is_some();
            if !on_model_thread && !info.payload().is::<ModelAbort>() {
                previous(info);
            }
        }));
    });
}

/// Why a blocked model thread cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Waiting to acquire the mutex at this address.
    Mutex(usize),
    /// Waiting for read access to the rwlock at this address.
    RwRead(usize),
    /// Waiting for write access to the rwlock at this address.
    RwWrite(usize),
    /// Parked on the condvar at this address until a notify.
    Condvar(usize),
    /// Waiting for another thread to finish initializing the `OnceLock`.
    Once(usize),
    /// Waiting for the thread with this id to finish.
    Join(usize),
}

/// Run state of one model thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Run {
    Runnable,
    Blocked(Wait),
    Finished,
}

/// One model thread.
pub(crate) struct ThreadInfo {
    pub name: String,
    pub run: Run,
    /// Ranked locks currently held, in acquisition order.
    pub held: Vec<(u8, &'static str)>,
}

/// `OnceLock` lifecycle as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnceState {
    Busy,
    Done,
}

/// Lock-object bookkeeping, keyed by object address (objects are created fresh
/// on every run, so addresses are only meaningful within one run).
#[derive(Default)]
pub(crate) struct Objects {
    pub mutex_owner: HashMap<usize, usize>,
    /// rwlock address → (writer, readers).
    pub rw: HashMap<usize, (Option<usize>, Vec<usize>)>,
    pub once: HashMap<usize, OnceState>,
    /// Display names for unranked objects (`mutex#1`, `rwlock#2`, …).
    names: HashMap<usize, String>,
    next_name: usize,
}

/// One recorded scheduling decision: which threads could have been picked, and
/// which one was. `preemptions_before` + `preemptive` let the explorer respect
/// the preemption bound when enumerating the untaken alternatives.
#[derive(Debug, Clone)]
pub(crate) struct Choice {
    pub options: Vec<usize>,
    pub picked: usize,
    pub preemptive: Vec<bool>,
    pub preemptions_before: usize,
}

/// How a run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Every unfinished thread was blocked: no schedule extension can make
    /// progress (this is also how a lost wakeup presents, since model condvar
    /// waits never time out).
    Deadlock,
    /// A ranked mutex was acquired out of hierarchy order.
    LockOrder,
    /// A model thread panicked — a user-asserted invariant failed.
    Panic,
    /// A single schedule exceeded the per-run step budget (livelock guard).
    StepBudget,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::Deadlock => "deadlock",
            FailureKind::LockOrder => "lock-order violation",
            FailureKind::Panic => "invariant failure (panic)",
            FailureKind::StepBudget => "step budget exceeded (livelock?)",
        })
    }
}

/// A failure recorded by the scheduler for the current run.
#[derive(Debug, Clone)]
pub(crate) struct Failure {
    pub kind: FailureKind,
    pub message: String,
}

/// One visible operation in the executed schedule.
#[derive(Debug, Clone)]
pub(crate) struct TraceEvent {
    pub thread: String,
    pub desc: String,
    pub file: &'static str,
    pub line: u32,
}

/// Shared exploration state for one run.
pub(crate) struct State {
    pub threads: Vec<ThreadInfo>,
    pub active: usize,
    pub objs: Objects,
    /// Decision prefix to replay (picked-option indices, in decision order).
    pub prefix: Vec<usize>,
    /// Decisions recorded this run (replayed prefix included).
    pub choices: Vec<Choice>,
    pub preemptions: usize,
    pub bound: usize,
    pub steps_left: usize,
    pub trace: Vec<TraceEvent>,
    pub failure: Option<Failure>,
}

/// The per-run controlled scheduler. One instance per explored schedule.
pub(crate) struct Scheduler {
    mutex: StdMutex<State>,
    cv: StdCondvar,
}

/// Outcome of a lock-acquisition attempt made under the state lock.
enum Attempt {
    Ready,
    Block(Wait),
}

impl Scheduler {
    pub(crate) fn new(prefix: Vec<usize>, bound: usize, max_steps: usize) -> Scheduler {
        install_quiet_panic_hook();
        Scheduler {
            mutex: StdMutex::new(State {
                threads: vec![ThreadInfo {
                    name: "main".to_string(),
                    run: Run::Runnable,
                    held: Vec::new(),
                }],
                active: 0,
                objs: Objects::default(),
                prefix,
                choices: Vec::new(),
                preemptions: 0,
                bound,
                steps_left: max_steps,
                trace: Vec::new(),
                failure: None,
            }),
            cv: StdCondvar::new(),
        }
    }

    fn state(&self) -> StdGuard<'_, State> {
        self.mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `me` is scheduled. Panics [`ModelAbort`] once the run fails.
    fn turn<'a>(&'a self, mut st: StdGuard<'a, State>, me: usize) -> StdGuard<'a, State> {
        loop {
            if st.failure.is_some() {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.active == me && st.threads[me].run == Run::Runnable {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Release-path variant of [`turn`](Self::turn): never panics. Returns
    /// `None` when the run has failed, in which case the caller should do
    /// bookkeeping-only cleanup (it may be running inside a `Drop` during an
    /// abort unwind, where a second panic would abort the process).
    fn turn_quiet<'a>(
        &'a self,
        mut st: StdGuard<'a, State>,
        me: usize,
    ) -> Option<StdGuard<'a, State>> {
        loop {
            if st.failure.is_some() {
                return None;
            }
            if st.active == me && st.threads[me].run == Run::Runnable {
                return Some(st);
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records `failure` (first failure wins), wakes everyone, and unwinds the
    /// calling thread.
    fn fail(&self, st: &mut State, kind: FailureKind, message: String) -> ! {
        if st.failure.is_none() {
            st.failure = Some(Failure { kind, message });
        }
        self.cv.notify_all();
        std::panic::panic_any(ModelAbort);
    }

    /// Makes a (recorded, explorable) choice among `options`; `preemptive[i]`
    /// marks options that would preempt a still-runnable current thread.
    fn choose(&self, st: &mut State, options: &[usize], preemptive: &[bool]) -> usize {
        if options.len() == 1 {
            return options[0];
        }
        let idx = st.choices.len();
        // Out-of-range replay indices are clamped: minimization deliberately
        // perturbs prefixes and only keeps candidates that still fail.
        let picked = if idx < st.prefix.len() { st.prefix[idx].min(options.len() - 1) } else { 0 };
        st.choices.push(Choice {
            options: options.to_vec(),
            picked,
            preemptive: preemptive.to_vec(),
            preemptions_before: st.preemptions,
        });
        options[picked]
    }

    /// The scheduling decision: picks which runnable thread executes its next
    /// operation. Detects deadlock when nothing is runnable but something is
    /// blocked. Called after every visible operation (and whenever a thread
    /// blocks or finishes).
    fn pick_next(&self, st: &mut State, me: usize) {
        let runnable: Vec<usize> =
            (0..st.threads.len()).filter(|&t| st.threads[t].run == Run::Runnable).collect();
        if runnable.is_empty() {
            let blocked: Vec<String> = st
                .threads
                .iter()
                .filter(|t| matches!(t.run, Run::Blocked(_)))
                .map(|t| {
                    let Run::Blocked(wait) = &t.run else { unreachable!() };
                    format!("'{}' {}", t.name, describe_wait(&st.objs, wait, &st.threads))
                })
                .collect();
            if blocked.is_empty() {
                // Every thread finished: nothing left to schedule.
                self.cv.notify_all();
                return;
            }
            let message =
                format!("deadlock: every unfinished thread is blocked — {}", blocked.join("; "));
            self.fail(st, FailureKind::Deadlock, message);
        }
        let me_runnable = runnable.contains(&me);
        // Canonical order: continuing the current thread first (the free,
        // non-preempting default), then the others by id.
        let mut options: Vec<usize> = Vec::with_capacity(runnable.len());
        if me_runnable {
            options.push(me);
        }
        options.extend(runnable.iter().copied().filter(|&t| t != me));
        if me_runnable && st.preemptions >= st.bound {
            // At the bound: switching away from a runnable thread is no longer
            // offered, so the alternatives never enter the decision tree.
            options.truncate(1);
        }
        let preemptive: Vec<bool> = options.iter().map(|&t| me_runnable && t != me).collect();
        let next = self.choose(st, &options, &preemptive);
        if me_runnable && next != me {
            st.preemptions += 1;
        }
        st.active = next;
        self.cv.notify_all();
    }

    /// Records one executed operation in the trace, charges the step budget,
    /// and yields to the next scheduling decision.
    fn step(&self, st: &mut State, me: usize, desc: String, loc: &'static Location<'static>) {
        st.trace.push(TraceEvent {
            thread: st.threads[me].name.clone(),
            desc,
            file: loc.file(),
            line: loc.line(),
        });
        if st.steps_left == 0 {
            self.fail(
                st,
                FailureKind::StepBudget,
                "a single schedule exceeded the per-run step budget; \
                 the protocol under test may livelock (or raise Builder::max_steps)"
                    .to_string(),
            );
        }
        st.steps_left -= 1;
        self.pick_next(st, me);
    }

    /// Display name for the object at `addr` (the ranked name when known).
    fn obj_name(st: &mut State, addr: usize, kind: &str, ranked: Option<&'static str>) -> String {
        if let Some(name) = ranked {
            return format!("\"{name}\"");
        }
        if let Some(name) = st.objs.names.get(&addr) {
            return name.clone();
        }
        st.objs.next_name += 1;
        let name = format!("{kind}#{}", st.objs.next_name);
        st.objs.names.insert(addr, name.clone());
        name
    }

    /// Blocking-acquire loop shared by mutex / rwlock / once acquisition:
    /// waits for a turn, runs `attempt` under the state lock, and either
    /// commits (trace + yield) or blocks and retries when woken.
    fn acquire(
        &self,
        me: usize,
        loc: &'static Location<'static>,
        desc: impl Fn(&mut State) -> String,
        mut attempt: impl FnMut(&mut State, usize) -> Attempt,
    ) {
        let mut st = self.turn(self.state(), me);
        loop {
            match attempt(&mut st, me) {
                Attempt::Ready => {
                    let d = desc(&mut st);
                    self.step(&mut st, me, d, loc);
                    return;
                }
                Attempt::Block(wait) => {
                    let d = format!("blocked: {}", describe_wait(&st.objs, &wait, &st.threads));
                    let thread = st.threads[me].name.clone();
                    st.trace.push(TraceEvent {
                        thread,
                        desc: d,
                        file: loc.file(),
                        line: loc.line(),
                    });
                    st.threads[me].run = Run::Blocked(wait);
                    self.pick_next(&mut st, me);
                    st = self.turn(st, me);
                }
            }
        }
    }

    /// Wakes every thread blocked on `wait` (they re-attempt when scheduled).
    fn wake(st: &mut State, wait: &Wait) {
        for t in &mut st.threads {
            if t.run == Run::Blocked(wait.clone()) {
                t.run = Run::Runnable;
            }
        }
    }

    // ---- mutex ----------------------------------------------------------

    pub(crate) fn mutex_lock(
        self: &Arc<Self>,
        addr: usize,
        rank: Option<(u8, &'static str)>,
        me: usize,
        loc: &'static Location<'static>,
    ) {
        self.acquire(
            me,
            loc,
            |st| {
                let name = Self::obj_name(st, addr, "mutex", rank.map(|(_, n)| n));
                format!("lock {name}")
            },
            |st, me| {
                if let Some(&owner) = st.objs.mutex_owner.get(&addr) {
                    if owner == me {
                        let name = Self::obj_name(st, addr, "mutex", rank.map(|(_, n)| n));
                        self.fail(
                            st,
                            FailureKind::Deadlock,
                            format!(
                                "self-deadlock: thread '{}' re-locking {name} it already holds",
                                st.threads[me].name
                            ),
                        );
                    }
                    return Attempt::Block(Wait::Mutex(addr));
                }
                if let Some((rank, name)) = rank {
                    if let Some(&(held_rank, held_name)) =
                        st.threads[me].held.iter().find(|&&(r, _)| r >= rank)
                    {
                        let thread = st.threads[me].name.clone();
                        self.fail(
                            st,
                            FailureKind::LockOrder,
                            format!(
                                "lock-order violation: thread '{thread}' acquiring '{name}' \
                                 (rank {rank}) while holding '{held_name}' (rank {held_rank}); \
                                 the documented order is monitor → live_index → nn_cache → video"
                            ),
                        );
                    }
                    st.threads[me].held.push((rank, name));
                }
                st.objs.mutex_owner.insert(addr, me);
                Attempt::Ready
            },
        );
    }

    /// Releases the mutex at `addr`. Never panics: runs in guard `Drop`s,
    /// including during abort unwinds (where it degrades to bookkeeping only).
    pub(crate) fn mutex_unlock(
        self: &Arc<Self>,
        addr: usize,
        rank: Option<(u8, &'static str)>,
        me: usize,
        loc: &'static Location<'static>,
    ) {
        let st = self.state();
        let Some(mut st) = self.turn_quiet(st, me) else {
            let mut st = self.state();
            st.objs.mutex_owner.remove(&addr);
            Self::unhold(&mut st, me, rank);
            return;
        };
        st.objs.mutex_owner.remove(&addr);
        Self::unhold(&mut st, me, rank);
        Self::wake(&mut st, &Wait::Mutex(addr));
        let name = Self::obj_name(&mut st, addr, "mutex", rank.map(|(_, n)| n));
        let thread = st.threads[me].name.clone();
        st.trace.push(TraceEvent {
            thread,
            desc: format!("unlock {name}"),
            file: loc.file(),
            line: loc.line(),
        });
        self.pick_next(&mut st, me);
    }

    fn unhold(st: &mut State, me: usize, rank: Option<(u8, &'static str)>) {
        if let Some((r, n)) = rank {
            if let Some(pos) = st.threads[me].held.iter().rposition(|&h| h == (r, n)) {
                st.threads[me].held.remove(pos);
            }
        }
    }

    // ---- rwlock ---------------------------------------------------------

    pub(crate) fn rw_lock(
        self: &Arc<Self>,
        addr: usize,
        write: bool,
        me: usize,
        loc: &'static Location<'static>,
    ) {
        self.acquire(
            me,
            loc,
            |st| {
                let name = Self::obj_name(st, addr, "rwlock", None);
                format!("{} {name}", if write { "write" } else { "read" })
            },
            |st, me| {
                let entry = st.objs.rw.entry(addr).or_default();
                match (write, &entry) {
                    (true, (None, readers)) if readers.is_empty() => {
                        entry.0 = Some(me);
                        Attempt::Ready
                    }
                    (true, _) => Attempt::Block(Wait::RwWrite(addr)),
                    (false, (None, _)) => {
                        entry.1.push(me);
                        Attempt::Ready
                    }
                    (false, _) => Attempt::Block(Wait::RwRead(addr)),
                }
            },
        );
    }

    pub(crate) fn rw_unlock(
        self: &Arc<Self>,
        addr: usize,
        write: bool,
        me: usize,
        loc: &'static Location<'static>,
    ) {
        let st = self.state();
        let Some(mut st) = self.turn_quiet(st, me) else {
            let mut st = self.state();
            Self::rw_release(&mut st, addr, write, me);
            return;
        };
        Self::rw_release(&mut st, addr, write, me);
        Self::wake(&mut st, &Wait::RwWrite(addr));
        Self::wake(&mut st, &Wait::RwRead(addr));
        let name = Self::obj_name(&mut st, addr, "rwlock", None);
        let thread = st.threads[me].name.clone();
        st.trace.push(TraceEvent {
            thread,
            desc: format!("{} {name}", if write { "unwrite" } else { "unread" }),
            file: loc.file(),
            line: loc.line(),
        });
        self.pick_next(&mut st, me);
    }

    fn rw_release(st: &mut State, addr: usize, write: bool, me: usize) {
        let entry = st.objs.rw.entry(addr).or_default();
        if write {
            entry.0 = None;
        } else if let Some(pos) = entry.1.iter().position(|&t| t == me) {
            entry.1.remove(pos);
        }
    }

    // ---- condvar --------------------------------------------------------

    /// Atomically releases the mutex at `m_addr` and parks on the condvar at
    /// `cv_addr`; after a notify, reacquires the mutex before returning. This
    /// is exactly `Condvar::wait` — with no timeout and no spurious wakeups,
    /// so a protocol that only terminates thanks to a timeout shows up as a
    /// deadlock (a lost wakeup).
    pub(crate) fn condvar_wait(
        self: &Arc<Self>,
        cv_addr: usize,
        m_addr: usize,
        rank: Option<(u8, &'static str)>,
        me: usize,
        loc: &'static Location<'static>,
    ) {
        {
            let st = self.state();
            let mut st = self.turn(st, me);
            st.objs.mutex_owner.remove(&m_addr);
            Self::unhold(&mut st, me, rank);
            Self::wake(&mut st, &Wait::Mutex(m_addr));
            let cv = Self::obj_name(&mut st, cv_addr, "condvar", None);
            let m = Self::obj_name(&mut st, m_addr, "mutex", rank.map(|(_, n)| n));
            let thread = st.threads[me].name.clone();
            st.trace.push(TraceEvent {
                thread,
                desc: format!("wait {cv} (releases {m})"),
                file: loc.file(),
                line: loc.line(),
            });
            st.threads[me].run = Run::Blocked(Wait::Condvar(cv_addr));
            self.pick_next(&mut st, me);
            drop(self.turn(st, me));
        }
        // Notified and scheduled: reacquire the mutex (may block again).
        self.mutex_lock(m_addr, rank, me, loc);
    }

    /// Wakes one parked waiter (an explorable choice when several are parked),
    /// or no-ops if none are parked — which is how wakeups get lost when a
    /// notify races ahead of the corresponding wait.
    pub(crate) fn condvar_notify(
        self: &Arc<Self>,
        cv_addr: usize,
        all: bool,
        me: usize,
        loc: &'static Location<'static>,
    ) {
        let mut st = self.turn(self.state(), me);
        let waiters: Vec<usize> = (0..st.threads.len())
            .filter(|&t| st.threads[t].run == Run::Blocked(Wait::Condvar(cv_addr)))
            .collect();
        let woken = if all {
            for &t in &waiters {
                st.threads[t].run = Run::Runnable;
            }
            waiters.len()
        } else if waiters.is_empty() {
            0
        } else {
            let preemptive = vec![false; waiters.len()];
            let target = self.choose(&mut st, &waiters, &preemptive);
            st.threads[target].run = Run::Runnable;
            1
        };
        let cv = Self::obj_name(&mut st, cv_addr, "condvar", None);
        let which = if all { "notify_all" } else { "notify_one" };
        self.step(&mut st, me, format!("{which} {cv} ({woken} woken)"), loc);
    }

    // ---- atomics & once -------------------------------------------------

    /// Runs `op` (a read/write of a real atomic) as one scheduled visible
    /// operation and returns its result.
    pub(crate) fn atomic_op<R>(
        self: &Arc<Self>,
        me: usize,
        loc: &'static Location<'static>,
        desc: impl FnOnce(&R) -> String,
        op: impl FnOnce() -> R,
    ) -> R {
        let mut st = self.turn(self.state(), me);
        let out = op();
        let d = desc(&out);
        self.step(&mut st, me, d, loc);
        out
    }

    /// First half of `OnceLock::get_or_init`: returns `true` when the caller
    /// must run the init closure (it won the claim); waits while another
    /// thread is initializing.
    pub(crate) fn once_begin(
        self: &Arc<Self>,
        addr: usize,
        me: usize,
        loc: &'static Location<'static>,
    ) -> bool {
        let must_init = Cell::new(false);
        self.acquire(
            me,
            loc,
            |st| {
                let name = Self::obj_name(st, addr, "once", None);
                format!("once {name} ({})", if must_init.get() { "claimed init" } else { "ready" })
            },
            |st, _me| match st.objs.once.get(&addr) {
                None => {
                    st.objs.once.insert(addr, OnceState::Busy);
                    must_init.set(true);
                    Attempt::Ready
                }
                Some(OnceState::Busy) => Attempt::Block(Wait::Once(addr)),
                Some(OnceState::Done) => {
                    must_init.set(false);
                    Attempt::Ready
                }
            },
        );
        must_init.get()
    }

    /// Second half of `get_or_init`: publishes the initialized value and wakes
    /// blocked readers.
    pub(crate) fn once_complete(
        self: &Arc<Self>,
        addr: usize,
        me: usize,
        loc: &'static Location<'static>,
    ) {
        let mut st = self.turn(self.state(), me);
        st.objs.once.insert(addr, OnceState::Done);
        Self::wake(&mut st, &Wait::Once(addr));
        let name = Self::obj_name(&mut st, addr, "once", None);
        self.step(&mut st, me, format!("once {name} initialized"), loc);
    }

    // ---- threads --------------------------------------------------------

    /// Registers a new model thread (runnable immediately) and returns its id.
    /// The spawn itself is a visible operation of the parent. Unnamed threads
    /// get `t<id>`.
    pub(crate) fn register_thread(
        self: &Arc<Self>,
        name: Option<String>,
        me: usize,
        loc: &'static Location<'static>,
    ) -> (usize, String) {
        let mut st = self.turn(self.state(), me);
        let tid = st.threads.len();
        let name = name.unwrap_or_else(|| format!("t{tid}"));
        st.threads.push(ThreadInfo { name: name.clone(), run: Run::Runnable, held: Vec::new() });
        self.step(&mut st, me, format!("spawn '{name}'"), loc);
        (tid, name)
    }

    /// Marks `me` finished, wakes joiners, and schedules whoever is next.
    /// Quiet on failed runs (the thread may be unwinding).
    pub(crate) fn finish_thread(self: &Arc<Self>, me: usize) {
        let st = self.state();
        match self.turn_quiet(st, me) {
            Some(mut st) => {
                st.threads[me].run = Run::Finished;
                Self::wake(&mut st, &Wait::Join(me));
                self.pick_next(&mut st, me);
            }
            None => self.finish_quiet(me),
        }
    }

    /// Bookkeeping-only finish for aborting threads.
    pub(crate) fn finish_quiet(self: &Arc<Self>, me: usize) {
        let mut st = self.state();
        st.threads[me].run = Run::Finished;
        self.cv.notify_all();
    }

    /// Records a user panic on thread `me` as the run's failure and finishes
    /// the thread.
    pub(crate) fn record_panic(self: &Arc<Self>, me: usize, message: String) {
        let mut st = self.state();
        if st.failure.is_none() {
            let thread = st.threads[me].name.clone();
            st.failure = Some(Failure {
                kind: FailureKind::Panic,
                message: format!("thread '{thread}' panicked: {message}"),
            });
        }
        st.threads[me].run = Run::Finished;
        self.cv.notify_all();
    }

    /// Blocks until the thread with id `target` has finished.
    pub(crate) fn join_thread(
        self: &Arc<Self>,
        target: usize,
        me: usize,
        loc: &'static Location<'static>,
    ) {
        self.acquire(
            me,
            loc,
            |st| format!("join '{}'", st.threads[target].name),
            |st, _me| {
                if st.threads[target].run == Run::Finished {
                    Attempt::Ready
                } else {
                    Attempt::Block(Wait::Join(target))
                }
            },
        );
    }

    /// Blocks the *host* (non-model) caller until every model thread has
    /// finished — on failed runs, until every thread has observed the failure
    /// and unwound (so no OS thread is left parked on this scheduler).
    /// Returns the run outcome pieces.
    pub(crate) fn wait_all_done(&self) -> (Option<Failure>, Vec<Choice>, Vec<TraceEvent>, usize) {
        let mut st = self.state();
        while !st.threads.iter().all(|t| t.run == Run::Finished) {
            // Re-notify each round: aborting threads may be between their
            // failure check and their cv re-park.
            self.cv.notify_all();
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        (
            st.failure.clone(),
            std::mem::take(&mut st.choices),
            std::mem::take(&mut st.trace),
            st.preemptions,
        )
    }
}

/// Human-readable description of a wait reason, for deadlock reports and
/// `blocked:` trace lines.
fn describe_wait(objs: &Objects, wait: &Wait, threads: &[ThreadInfo]) -> String {
    let named = |addr: &usize, kind: &str| {
        objs.names.get(addr).cloned().unwrap_or_else(|| format!("{kind}@{addr:#x}"))
    };
    match wait {
        Wait::Mutex(a) => format!("waiting to lock {}", named(a, "mutex")),
        Wait::RwRead(a) => format!("waiting to read {}", named(a, "rwlock")),
        Wait::RwWrite(a) => format!("waiting to write {}", named(a, "rwlock")),
        Wait::Condvar(a) => format!("parked on {}", named(a, "condvar")),
        Wait::Once(a) => format!("waiting on {}", named(a, "once")),
        Wait::Join(t) => {
            format!("joining '{}'", threads.get(*t).map(|t| t.name.as_str()).unwrap_or("?"))
        }
    }
}
