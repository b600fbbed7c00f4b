//! Compute once per key: the single-flight cell behind the serving result
//! cache, `nn_cache` and `heldout_cache`. Under a cache's map lock,
//! [`Flight::join`] makes the caller of a vacant key its one computer; later
//! callers wait for its published value or error. A failed key is
//! [vacated](Flight::vacate) so the next caller recomputes, and
//! [`Flight::peek`] never blocks. `crates/model/tests/coalesce_protocol.rs`
//! model-checks this type.

use crate::lockorder::{Lock, OrderedGuard, RankedMutex};
use crate::obs;
use crate::sync::Condvar;
use crate::{BlazeItError, Result};
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A cache's key → cell map.
pub type FlightMap<K, V> = HashMap<K, Arc<Flight<V>>>;

/// One key's computation: in flight, or published.
pub struct Flight<V> {
    state: RankedMutex<State<V>>,
    ready: Condvar,
}

enum State<V> {
    Computing { waiters: usize },
    Done(Result<V>),
}

/// How [`Flight::join`] disposed of one lookup.
pub enum Role<V> {
    /// A published entry: its value, or the error its computer published.
    Hit(Result<V>),
    /// The key is in flight: [`Flight::wait`] for it.
    Wait(Arc<Flight<V>>),
    /// This caller computes the key and must [`Flight::run`] it in this cell.
    Compute(Arc<Flight<V>>),
}

impl<V: Clone> Flight<V> {
    /// A cell already published with `value`.
    pub fn done(value: V) -> Arc<Flight<V>> {
        Flight::new(State::Done(Ok(value)))
    }

    fn new(state: State<V>) -> Arc<Flight<V>> {
        Arc::new(Flight { state: RankedMutex::new(Lock::Flight, state), ready: Condvar::new() })
    }

    /// Joins `key`'s computation; the caller holds `map`'s lock.
    pub fn join<K: Eq + Hash + Clone>(map: &mut FlightMap<K, V>, key: &K) -> Role<V> {
        if let Some(flight) = map.get(key) {
            return match &mut *flight.state.lock() {
                State::Done(result) => Role::Hit(result.clone()),
                State::Computing { waiters } => {
                    *waiters += 1;
                    Role::Wait(Arc::clone(flight))
                }
            };
        }
        let flight = Flight::new(State::Computing { waiters: 0 });
        map.insert(key.clone(), Arc::clone(&flight));
        Role::Compute(flight)
    }

    /// The computer's arm: runs `f` (a panic becomes
    /// [`BlazeItError::TaskPanicked`] for `task`), publishes the outcome to
    /// every waiter and returns it.
    pub fn run(&self, task: impl FnOnce() -> String, f: impl FnOnce() -> Result<V>) -> Result<V> {
        let result = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            let message = blazeit_nn::parallel::panic_message(payload.as_ref());
            Err(BlazeItError::TaskPanicked { task: task(), message })
        });
        *self.state.lock() = State::Done(result.clone());
        self.ready.notify_all();
        result
    }

    /// Blocks until the computer publishes, then returns its outcome.
    pub fn wait(&self) -> Result<V> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                State::Done(result) => return result.clone(),
                State::Computing { .. } => state = state.wait(&self.ready),
            }
        }
    }

    /// The published value: `None` while in flight or after an error.
    pub fn peek(&self) -> Option<V> {
        match &*self.state.lock() {
            State::Done(Ok(value)) => Some(value.clone()),
            _ => None,
        }
    }

    /// How many callers wait on this cell, or `None` once it is published.
    pub fn waiters(&self) -> Option<usize> {
        match *self.state.lock() {
            State::Computing { waiters } => Some(waiters),
            State::Done(_) => None,
        }
    }

    /// Removes `key` from `map` if it still holds `flight`; returns whether it did.
    pub fn vacate<K: Eq + Hash>(map: &mut FlightMap<K, V>, key: &K, flight: &Arc<Self>) -> bool {
        map.get(key).is_some_and(|current| Arc::ptr_eq(current, flight))
            && map.remove(key).is_some()
    }
}

/// `key`'s value from the map behind `lock`, computed at most once: a hit or a
/// wait counts as a cache hit, and a failed computation is vacated.
pub(crate) fn compute_once<'a, K: Eq + Hash + Clone + 'a, V: Clone + 'a>(
    lock: impl Fn() -> OrderedGuard<'a, FlightMap<K, V>>,
    key: K,
    task: &str,
    compute: impl FnOnce() -> Result<V>,
) -> Result<V> {
    let role = Flight::join(&mut lock(), &key);
    let Role::Compute(flight) = role else {
        obs::count(obs::COUNTER_CACHE_HITS, 1);
        return match role {
            Role::Hit(result) => result,
            Role::Wait(flight) | Role::Compute(flight) => flight.wait(), // Compute: taken above
        };
    };
    let result = flight.run(|| task.to_string(), compute);
    if result.is_err() {
        Flight::vacate(&mut lock(), &key, &flight);
    }
    result
}

/// `key`'s published value, or else a free `load` from the disk tier
/// (installed if the key is still vacant). Never waits: an entry in flight
/// reads as absent.
pub(crate) fn peek_or_load<'a, K: Eq + Hash + 'a, V: Clone + 'a>(
    lock: impl Fn() -> OrderedGuard<'a, FlightMap<K, V>>,
    key: K,
    load: impl FnOnce() -> Option<V>,
) -> Option<V> {
    if let Some(flight) = lock().get(&key) {
        return flight.peek();
    }
    let value = load()?;
    lock().entry(key).or_insert_with(|| Flight::done(value.clone()));
    Some(value)
}
