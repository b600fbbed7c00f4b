//! Deterministic fault injection, retry/backoff, and per-context health.
//!
//! A system meant to run continuously over live streams (PR 5) cannot treat an
//! I/O error, a failed retrain, or a worker panic as fatal. This module holds the
//! three pieces that make faults survivable:
//!
//! * **Failpoints** ([`inject`]) — named fault sites compiled into every fallible
//!   boundary (store reads/writes, stream ingest, background retrains, parallel
//!   task execution). They are inert unless the `fault-injection` feature is
//!   enabled *and* a `FaultPlan` is installed; without the feature the function
//!   body is a constant `None` the optimizer deletes, so default builds carry
//!   zero overhead ([`COMPILED_IN`] is the compile-time witness). With the
//!   feature, faults are scheduled by a seeded hash of `(seed, site, hit-count)`,
//!   so a chaos run is exactly reproducible from its seed.
//!
//! * **Retry with exponential backoff** ([`RetryPolicy`]) — transient store
//!   errors ([`StoreError::Transient`], the `WouldBlock`-shaped failures) are
//!   retried up to a capped attempt count, with each backoff charged to the
//!   [`SimClock`] cost model and jittered from the seeded RNG so retry storms
//!   stay deterministic in tests.
//!
//! * **Health tracking** ([`HealthState`]) — every store error, retry, and
//!   retrain failure is recorded per context: consecutive store failures flip
//!   the context into *memory-only* degraded mode (writes and reads skip the
//!   store until a probation counter elapses and a probe succeeds), and a failed
//!   drift retrain is recorded with its backoff window. EXPLAIN renders the
//!   resulting [`HealthReport`] (`health: degraded (store unavailable, 3
//!   retries)`; `retrain: failed@gen 2, backoff 512 frames`), so degradation is
//!   always visible, never silent.
//!
//! The invariant the chaos suite (`tests/fault_injection.rs`) enforces: under
//! any injected fault schedule, every query returns either a bit-exact answer or
//! a typed error — never a panic, never a silently wrong result.

#![cfg_attr(
    feature = "fault-injection",
    expect(
        clippy::indexing_slicing,
        reason = "per-site arrays are [_; FaultSite::ALL.len()] and site.index() is the variant's \
                  position in ALL"
    )
)]

use crate::store::{StoreError, StoreResult};
use crate::sync::Mutex;
use blazeit_detect::clock::CostCategory;
use blazeit_detect::SimClock;
use rand::{Rng, SeedableRng, StdRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// `true` when the crate was compiled with the `fault-injection` feature, i.e.
/// when the failpoints below are live code. Release builds with default features
/// see `false`, and every `inject` call folds to `None` at compile time — the
/// unit test `failpoints_compile_out_by_default` pins this.
pub const COMPILED_IN: bool = cfg!(feature = "fault-injection");

/// The named fault sites wired into the engine. Each site is one fallible
/// boundary; the injector schedules faults per site independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSite {
    /// An [`IndexStore`](crate::IndexStore) artifact read.
    StoreRead,
    /// An [`IndexStore`](crate::IndexStore) artifact write (including the torn
    /// partial-write case).
    StoreWrite,
    /// An [`IndexStore`](crate::IndexStore) artifact removal.
    StoreRemove,
    /// Stream frame ingestion (`StreamSource::advance` / `Video::prefix` growth).
    StreamIngest,
    /// A background drift-triggered retrain task.
    Retrain,
    /// A fanned-out parallel sub-query task (`nn::parallel::par_run`).
    ParTask,
}

impl FaultSite {
    /// All sites, in declaration order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::StoreRead,
        FaultSite::StoreWrite,
        FaultSite::StoreRemove,
        FaultSite::StreamIngest,
        FaultSite::Retrain,
        FaultSite::ParTask,
    ];

    /// Stable index of this site into per-site tables.
    pub fn index(self) -> usize {
        match self {
            FaultSite::StoreRead => 0,
            FaultSite::StoreWrite => 1,
            FaultSite::StoreRemove => 2,
            FaultSite::StreamIngest => 3,
            FaultSite::Retrain => 4,
            FaultSite::ParTask => 5,
        }
    }

    /// A short label for reports and error messages.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::StoreRead => "store-read",
            FaultSite::StoreWrite => "store-write",
            FaultSite::StoreRemove => "store-remove",
            FaultSite::StreamIngest => "stream-ingest",
            FaultSite::Retrain => "retrain",
            FaultSite::ParTask => "par-task",
        }
    }
}

/// The fault kinds a failpoint can be asked to simulate. Which kinds a site can
/// draw depends on the site (a store read never tears a write, a parallel task
/// only panics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A transient, retryable I/O failure (`WouldBlock`-shaped): surfaces as
    /// [`StoreError::Transient`] and is eligible for retry/backoff.
    TransientIo,
    /// A hard I/O failure: surfaces as [`StoreError::Io`] and counts toward
    /// store degradation.
    Io,
    /// A torn write: the artifact file is left truncated on disk while the
    /// write *reports success* — the checksummed persist envelope must catch it
    /// on the next read.
    TornWrite,
    /// A typed, non-I/O failure (e.g. a retrain task returning an error).
    Error,
    /// A panic inside the fault site (e.g. a parallel task exploding), which the
    /// surrounding boundary must catch and convert to a typed error.
    Panic,
}

/// The failpoint hook. Returns the fault the installed plan schedules for this
/// hit of `site`, or `None` (always `None` without the `fault-injection`
/// feature, or with the feature but no plan installed).
#[inline(always)]
pub fn inject(site: FaultSite) -> Option<InjectedFault> {
    #[cfg(feature = "fault-injection")]
    {
        injector::decide(site)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        None
    }
}

#[cfg(feature = "fault-injection")]
pub use injector::{install, FaultGuard, FaultPlan};

#[cfg(feature = "fault-injection")]
mod injector {
    use super::{FaultSite, InjectedFault};
    use crate::sync::{AtomicU64, Mutex, MutexGuard, OnceLock, Ordering};
    use std::sync::Arc;

    /// A reproducible fault schedule: a seed plus a per-site fault probability.
    /// Two runs with the same plan inject the same faults at the same hits.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultPlan {
        seed: u64,
        probability: [f64; FaultSite::ALL.len()],
    }

    impl FaultPlan {
        /// Every site faults independently with probability `p` per hit.
        pub fn uniform(seed: u64, p: f64) -> FaultPlan {
            FaultPlan { seed, probability: [p.clamp(0.0, 1.0); FaultSite::ALL.len()] }
        }

        /// Only `site` faults (with probability `p`); every other site is clean.
        pub fn only(seed: u64, site: FaultSite, p: f64) -> FaultPlan {
            FaultPlan::uniform(seed, 0.0).with_site(site, p)
        }

        /// Overrides one site's fault probability.
        pub fn with_site(mut self, site: FaultSite, p: f64) -> FaultPlan {
            self.probability[site.index()] = p.clamp(0.0, 1.0);
            self
        }
    }

    struct FaultInjector {
        plan: FaultPlan,
        // Independent per-site event counters: no other memory is published on
        // the strength of these loads/stores, so `Relaxed` is sufficient (the
        // model checker explores them as plain serialized operations; nothing
        // orders *through* them). Totals read while a plan is installed may lag
        // in-flight hits by design.
        hits: [AtomicU64; FaultSite::ALL.len()],
        injected: [AtomicU64; FaultSite::ALL.len()],
    }

    fn install_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    fn active() -> &'static Mutex<Option<Arc<FaultInjector>>> {
        static ACTIVE: OnceLock<Mutex<Option<Arc<FaultInjector>>>> = OnceLock::new();
        ACTIVE.get_or_init(|| Mutex::new(None))
    }

    /// Installs `plan` as the process-wide fault schedule and returns a guard
    /// that uninstalls it on drop. Concurrent installers serialize on an
    /// internal lock (held for the guard's lifetime), so chaos tests running in
    /// parallel cannot interleave their schedules.
    pub fn install(plan: FaultPlan) -> FaultGuard {
        let lock = install_lock().lock();
        let injector = Arc::new(FaultInjector {
            plan,
            hits: Default::default(),
            injected: Default::default(),
        });
        *active().lock() = Some(Arc::clone(&injector));
        FaultGuard { injector, _lock: lock }
    }

    /// Keeps a [`FaultPlan`] installed; dropping it uninstalls the plan and
    /// releases the injector serialization lock. Stats remain readable after
    /// drop via the retained handle.
    pub struct FaultGuard {
        injector: Arc<FaultInjector>,
        _lock: MutexGuard<'static, ()>,
    }

    impl FaultGuard {
        /// How many faults have been injected at `site` so far.
        pub fn injected_at(&self, site: FaultSite) -> u64 {
            self.injector.injected[site.index()].load(Ordering::Relaxed)
        }

        /// Total faults injected across all sites.
        pub fn injected_total(&self) -> u64 {
            FaultSite::ALL.iter().map(|&s| self.injected_at(s)).sum()
        }

        /// Total failpoint hits (faulted or not) across all sites.
        pub fn hits_total(&self) -> u64 {
            self.injector.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
        }
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *active().lock() = None;
        }
    }

    /// SplitMix64 finalizer — decorrelates the (seed, site, hit) triple.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(super) fn decide(site: FaultSite) -> Option<InjectedFault> {
        let injector = active().lock().clone()?;
        let hit = injector.hits[site.index()].fetch_add(1, Ordering::Relaxed);
        let p = injector.plan.probability[site.index()];
        if p <= 0.0 {
            return None;
        }
        let h = mix(injector.plan.seed ^ mix(site.index() as u64) ^ mix(hit));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit >= p {
            return None;
        }
        injector.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        let kind = mix(h);
        Some(match site {
            FaultSite::StoreRead | FaultSite::StoreRemove | FaultSite::StreamIngest => {
                if kind.is_multiple_of(2) {
                    InjectedFault::TransientIo
                } else {
                    InjectedFault::Io
                }
            }
            FaultSite::StoreWrite => match kind % 3 {
                0 => InjectedFault::TransientIo,
                1 => InjectedFault::Io,
                _ => InjectedFault::TornWrite,
            },
            FaultSite::Retrain => {
                if kind.is_multiple_of(2) {
                    InjectedFault::Error
                } else {
                    InjectedFault::Panic
                }
            }
            FaultSite::ParTask => InjectedFault::Panic,
        })
    }
}

/// Retry policy for transient store errors: capped attempts with exponential,
/// jittered backoff charged to the [`SimClock`] (category `Other`), mirroring
/// how a real serving layer would pay wall-clock for each retry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated seconds; doubles per retry.
    pub base_backoff_secs: f64,
    /// Upper bound on a single backoff, in simulated seconds.
    pub max_backoff_secs: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a factor drawn
    /// uniformly from `[1 - jitter, 1 + jitter]` using the seeded RNG.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_secs: 0.002,
            max_backoff_secs: 0.25,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no backoff).
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, base_backoff_secs: 0.0, max_backoff_secs: 0.0, jitter: 0.0 }
    }

    /// The backoff before retry number `retry` (0-based), jittered from `rng`.
    pub fn backoff_secs(&self, retry: u32, rng: &mut StdRng) -> f64 {
        let exp = self.base_backoff_secs * f64::from(2u32.saturating_pow(retry.min(30)));
        let capped = exp.min(self.max_backoff_secs);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let scale = 1.0 + jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        (capped * scale).max(0.0)
    }

    /// Runs `op`, retrying transient failures up to the attempt cap; every
    /// backoff is charged to `clock`. Returns the final outcome plus how many
    /// retries were spent.
    pub fn run<T>(
        &self,
        clock: &SimClock,
        rng: &mut StdRng,
        mut op: impl FnMut() -> StoreResult<T>,
    ) -> (StoreResult<T>, u32) {
        let mut retries = 0u32;
        loop {
            match op() {
                Err(error) if error.is_transient() && retries + 1 < self.max_attempts.max(1) => {
                    clock.charge(CostCategory::Other, self.backoff_secs(retries, rng));
                    retries += 1;
                }
                outcome => return (outcome, retries),
            }
        }
    }
}

/// How many consecutive hard store failures flip a context into memory-only
/// degraded mode.
const DEGRADE_AFTER: u32 = 3;
/// Store operations skipped after degrading, before the first probe.
const INITIAL_PROBE_BACKOFF: u32 = 4;
/// Cap on the probe backoff (it doubles after every failed probe).
const MAX_PROBE_BACKOFF: u32 = 64;
/// Capacity of the last-error ring buffer.
const ERROR_RING: usize = 8;

/// Memory-ordering note: the probation counters (`probe_in`, `probe_backoff`,
/// `store_consecutive_failures`) are deliberately plain integers behind the
/// [`HealthState`] mutex rather than atomics — the degrade/probe/heal protocol
/// reads *and then conditionally writes* several of them together, and that
/// read-modify-write group must be one critical section. The mutex provides
/// all the ordering required; the model checker explores every interleaving of
/// the lock acquisitions and finds no torn protocol state.
#[derive(Debug)]
struct HealthInner {
    store_consecutive_failures: u32,
    store_degraded: bool,
    /// While degraded: store operations to skip before the next probe.
    probe_in: u32,
    /// The skip count armed after the *next* failed probe (doubles, capped).
    probe_backoff: u32,
    store_retries: u64,
    store_errors: u64,
    recent: VecDeque<String>,
    retrain: Option<RetrainHealth>,
    rng: StdRng,
}

/// Per-context health: store degradation state, retry counters, a bounded
/// ring buffer of recent errors, and the last retrain failure. Everything the
/// engine degrades on is recorded here, and EXPLAIN renders the snapshot
/// ([`HealthReport`]) so no failure is silent.
#[derive(Debug)]
pub struct HealthState {
    inner: Mutex<HealthInner>,
}

impl HealthState {
    /// A fresh, healthy state; `seed` feeds the backoff-jitter RNG.
    pub fn new(seed: u64) -> HealthState {
        HealthState {
            inner: Mutex::new(HealthInner {
                store_consecutive_failures: 0,
                store_degraded: false,
                probe_in: 0,
                probe_backoff: INITIAL_PROBE_BACKOFF,
                store_retries: 0,
                store_errors: 0,
                recent: VecDeque::with_capacity(ERROR_RING),
                retrain: None,
                rng: StdRng::seed_from_u64(seed ^ 0xFA17_0BAC_0FF5_EED5),
            }),
        }
    }

    /// Whether the store side is currently usable (not degraded). Read-only:
    /// warmth probes use this without consuming a probation slot.
    pub fn store_usable(&self) -> bool {
        !self.inner.lock().store_degraded
    }

    /// Gate for an actual store operation. Healthy → `true`. Degraded → counts
    /// down the probation window, returning `false` (skip the store, stay
    /// memory-only) until it elapses, then `true` exactly once as a probe; the
    /// probe's outcome (via [`record_store_success`](Self::record_store_success)
    /// / [`record_store_error`](Self::record_store_error)) decides whether the
    /// context heals or re-arms a doubled window.
    pub fn store_attempt_allowed(&self) -> bool {
        let mut inner = self.inner.lock();
        if !inner.store_degraded {
            return true;
        }
        if inner.probe_in == 0 {
            return true;
        }
        inner.probe_in -= 1;
        false
    }

    /// Records a successful store operation: clears the consecutive-failure
    /// streak and, if degraded, heals the context back to store-backed mode.
    pub fn record_store_success(&self) {
        let mut inner = self.inner.lock();
        inner.store_consecutive_failures = 0;
        if inner.store_degraded {
            inner.store_degraded = false;
            inner.probe_backoff = INITIAL_PROBE_BACKOFF;
            inner.probe_in = 0;
            crate::obs::metrics().store_heals.inc();
        }
    }

    /// Records a failed store operation (`op` is a short label like
    /// `"store specialized nn"`). Hard I/O and exhausted-transient failures
    /// count toward degradation; [`StoreError::Invalid`] (a corrupt artifact —
    /// the store itself works, and the read-through path heals it by
    /// recomputing) and [`StoreError::BudgetExceeded`] (a deliberate per-
    /// artifact refusal) are recorded but do not trip memory-only mode.
    pub fn record_store_error(&self, op: &str, error: &StoreError) {
        let mut inner = self.inner.lock();
        inner.store_errors += 1;
        if inner.recent.len() == ERROR_RING {
            inner.recent.pop_front();
        }
        inner.recent.push_back(format!("{op}: {error}"));
        let counts_toward_degradation =
            matches!(error, StoreError::Io { .. } | StoreError::Transient { .. });
        if !counts_toward_degradation {
            return;
        }
        inner.store_consecutive_failures += 1;
        if inner.store_degraded || inner.store_consecutive_failures >= DEGRADE_AFTER {
            inner.store_degraded = true;
            inner.probe_in = inner.probe_backoff;
            inner.probe_backoff = (inner.probe_backoff * 2).min(MAX_PROBE_BACKOFF);
        }
    }

    /// Adds `n` spent retries to the running total.
    pub fn add_store_retries(&self, n: u32) {
        self.inner.lock().store_retries += u64::from(n);
    }

    /// Runs `op` under `policy` using this state's jitter RNG, recording spent
    /// retries. The *outcome* is not recorded here — callers decide between
    /// [`record_store_success`](Self::record_store_success) and
    /// [`record_store_error`](Self::record_store_error) since some errors (e.g.
    /// a missing artifact) are not failures at all.
    pub fn run_with_retry<T>(
        &self,
        policy: &RetryPolicy,
        clock: &SimClock,
        op: impl FnMut() -> StoreResult<T>,
    ) -> StoreResult<T> {
        // Draw the jitter stream under the lock, then run unlocked.
        let mut rng = {
            let mut inner = self.inner.lock();
            let reseed = inner.rng.next_u64();
            StdRng::seed_from_u64(reseed)
        };
        let (outcome, retries) = policy.run(clock, &mut rng, op);
        if retries > 0 {
            self.add_store_retries(retries);
        }
        outcome
    }

    /// Records a failed background retrain: the context keeps its current
    /// `(nn, index, generation)` and the drift monitor re-arms after
    /// `backoff_frames`.
    pub fn record_retrain_failure(&self, retrain: RetrainHealth) {
        self.inner.lock().retrain = Some(retrain);
    }

    /// Clears the retrain-failure record (a later retrain succeeded).
    pub fn clear_retrain_failure(&self) {
        self.inner.lock().retrain = None;
    }

    /// A snapshot for EXPLAIN and monitoring.
    pub fn report(&self) -> HealthReport {
        let inner = self.inner.lock();
        HealthReport {
            store_degraded: inner.store_degraded,
            store_consecutive_failures: inner.store_consecutive_failures,
            store_retries: inner.store_retries,
            store_errors: inner.store_errors,
            recent_errors: inner.recent.iter().cloned().collect(),
            retrain: inner.retrain.clone(),
        }
    }
}

/// The last recorded background-retrain failure of a streaming context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrainHealth {
    /// The generation the context is pinned at (the retrain that failed would
    /// have produced `generation + 1`).
    pub generation: u64,
    /// Consecutive retrain failures for this head set.
    pub failures: u32,
    /// The backoff window armed by the last failure, in frames.
    pub backoff_frames: u64,
    /// The ingested-frame count at which the monitor re-arms.
    pub resume_at: u64,
    /// The failure, rendered.
    pub last_error: String,
}

/// A point-in-time snapshot of a context's [`HealthState`], rendered by EXPLAIN
/// and serializable for monitoring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Whether the context is in memory-only degraded mode (store unavailable).
    pub store_degraded: bool,
    /// Consecutive hard store failures (resets on success).
    pub store_consecutive_failures: u32,
    /// Total transient-error retries spent.
    pub store_retries: u64,
    /// Total store errors recorded (all kinds).
    pub store_errors: u64,
    /// The most recent errors, oldest first (bounded ring).
    pub recent_errors: Vec<String>,
    /// The last background-retrain failure, if one is pending backoff.
    pub retrain: Option<RetrainHealth>,
}

impl HealthReport {
    /// Whether there is anything worth rendering: a fully healthy context
    /// yields `false` and EXPLAIN omits the health lines entirely (keeping
    /// fault-free plans byte-identical to earlier releases).
    pub fn is_notable(&self) -> bool {
        self.store_degraded
            || self.store_errors > 0
            || self.store_retries > 0
            || self.retrain.is_some()
    }

    /// The EXPLAIN `health:` line body.
    pub fn health_line(&self) -> String {
        if self.store_degraded {
            format!("degraded (store unavailable, {} retries)", self.store_retries)
        } else {
            format!(
                "ok ({} store error{} recorded, {} retries)",
                self.store_errors,
                if self.store_errors == 1 { "" } else { "s" },
                self.store_retries
            )
        }
    }

    /// The EXPLAIN `retrain:` line body, when a retrain failure is pending.
    pub fn retrain_line(&self) -> Option<String> {
        self.retrain.as_ref().map(|r| {
            format!(
                "failed@gen {}, backoff {} frames (resume at frame {}, {} failure{})",
                r.generation,
                r.backoff_frames,
                r.resume_at,
                r.failures,
                if r.failures == 1 { "" } else { "s" }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn transient() -> StoreError {
        StoreError::Transient { path: PathBuf::from("/x"), message: "would block".into() }
    }

    fn hard_io() -> StoreError {
        StoreError::Io { path: PathBuf::from("/x"), message: "disk on fire".into() }
    }

    #[test]
    fn failpoints_compile_out_by_default() {
        // The chaos CI job builds with `--features fault-injection`; the default
        // build must witness, at compile time, that every failpoint is inert.
        #[cfg(not(feature = "fault-injection"))]
        {
            const { assert!(!COMPILED_IN) };
            assert_eq!(inject(FaultSite::StoreRead), None);
        }
        #[cfg(feature = "fault-injection")]
        const {
            assert!(COMPILED_IN)
        };
    }

    #[test]
    fn retry_policy_retries_transients_and_charges_backoff() {
        let clock = SimClock::new();
        let mut rng = StdRng::seed_from_u64(7);
        let policy = RetryPolicy::default();
        let mut calls = 0u32;
        let (outcome, retries) = policy.run(&clock, &mut rng, || {
            calls += 1;
            if calls < 3 {
                Err(transient())
            } else {
                Ok(42u8)
            }
        });
        assert_eq!(outcome, Ok(42));
        assert_eq!(retries, 2);
        assert_eq!(calls, 3);
        assert!(clock.breakdown().other > 0.0, "backoff must be charged to the clock");
    }

    #[test]
    fn retry_policy_gives_up_after_cap_and_skips_hard_errors() {
        let clock = SimClock::new();
        let mut rng = StdRng::seed_from_u64(7);
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let mut calls = 0u32;
        let (outcome, retries) = policy.run(&clock, &mut rng, || -> StoreResult<()> {
            calls += 1;
            Err(transient())
        });
        assert!(matches!(outcome, Err(StoreError::Transient { .. })));
        assert_eq!((calls, retries), (3, 2));

        let mut calls = 0u32;
        let (outcome, retries) = policy.run(&clock, &mut rng, || -> StoreResult<()> {
            calls += 1;
            Err(hard_io())
        });
        assert!(matches!(outcome, Err(StoreError::Io { .. })));
        assert_eq!((calls, retries), (1, 0), "hard errors are not retried");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_secs: 0.01,
            max_backoff_secs: 0.05,
            jitter: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert!((policy.backoff_secs(0, &mut rng) - 0.01).abs() < 1e-12);
        assert!((policy.backoff_secs(1, &mut rng) - 0.02).abs() < 1e-12);
        assert!((policy.backoff_secs(2, &mut rng) - 0.04).abs() < 1e-12);
        assert!((policy.backoff_secs(3, &mut rng) - 0.05).abs() < 1e-12, "capped");
        assert!((policy.backoff_secs(20, &mut rng) - 0.05).abs() < 1e-12, "capped");
    }

    #[test]
    fn health_degrades_after_consecutive_hard_failures_then_probes_back() {
        let health = HealthState::new(11);
        assert!(health.store_usable());
        for _ in 0..DEGRADE_AFTER {
            assert!(health.store_attempt_allowed());
            health.record_store_error("store scores", &hard_io());
        }
        assert!(!health.store_usable(), "3 consecutive hard failures degrade");
        assert!(health.report().store_degraded);

        // Probation: the next INITIAL_PROBE_BACKOFF attempts are skipped.
        for _ in 0..INITIAL_PROBE_BACKOFF {
            assert!(!health.store_attempt_allowed());
        }
        // Then exactly one probe is let through; success heals.
        assert!(health.store_attempt_allowed());
        health.record_store_success();
        assert!(health.store_usable());
        assert_eq!(health.report().store_consecutive_failures, 0);
    }

    #[test]
    fn failed_probe_doubles_the_probation_window() {
        let health = HealthState::new(11);
        for _ in 0..DEGRADE_AFTER {
            health.record_store_error("op", &hard_io());
        }
        for _ in 0..INITIAL_PROBE_BACKOFF {
            assert!(!health.store_attempt_allowed());
        }
        assert!(health.store_attempt_allowed(), "probe slot");
        health.record_store_error("op", &hard_io());
        // The failed probe re-arms a doubled window.
        for _ in 0..(INITIAL_PROBE_BACKOFF * 2) {
            assert!(!health.store_attempt_allowed());
        }
        assert!(health.store_attempt_allowed());
    }

    #[test]
    fn invalid_and_budget_errors_do_not_degrade() {
        let health = HealthState::new(3);
        let budget =
            StoreError::BudgetExceeded { path: PathBuf::from("/x"), needed: 10, budget: 1 };
        for _ in 0..10 {
            health.record_store_error("store scores", &budget);
        }
        assert!(health.store_usable());
        let report = health.report();
        assert!(!report.store_degraded);
        assert_eq!(report.store_errors, 10);
        assert_eq!(report.recent_errors.len(), ERROR_RING, "ring buffer is bounded");
    }

    #[test]
    fn report_renders_explain_lines() {
        let health = HealthState::new(5);
        assert!(!health.report().is_notable(), "healthy contexts render nothing");
        for _ in 0..DEGRADE_AFTER {
            health.record_store_error("load scores", &hard_io());
        }
        health.add_store_retries(3);
        let report = health.report();
        assert!(report.is_notable());
        assert_eq!(report.health_line(), "degraded (store unavailable, 3 retries)");

        health.record_retrain_failure(RetrainHealth {
            generation: 2,
            failures: 1,
            backoff_frames: 512,
            resume_at: 18_512,
            last_error: "injected".into(),
        });
        let line = health.report().retrain_line().expect("retrain line");
        assert!(line.starts_with("failed@gen 2, backoff 512 frames"), "got: {line}");
        health.clear_retrain_failure();
        assert!(health.report().retrain_line().is_none());
    }

    #[test]
    fn run_with_retry_records_spent_retries() {
        let health = HealthState::new(9);
        let clock = SimClock::new();
        let mut calls = 0u32;
        let outcome = health.run_with_retry(&RetryPolicy::default(), &clock, || {
            calls += 1;
            if calls < 2 {
                Err(transient())
            } else {
                Ok(())
            }
        });
        assert_eq!(outcome, Ok(()));
        assert_eq!(health.report().store_retries, 1);
    }

    #[cfg(feature = "fault-injection")]
    mod injected {
        use super::*;

        #[test]
        fn schedules_are_deterministic_per_seed() {
            let observe = |seed: u64| -> Vec<Option<InjectedFault>> {
                let _guard = install(FaultPlan::uniform(seed, 0.5));
                (0..64).map(|_| inject(FaultSite::StoreWrite)).collect()
            };
            let a = observe(42);
            let b = observe(42);
            let c = observe(43);
            assert_eq!(a, b, "same seed, same schedule");
            assert_ne!(a, c, "different seeds diverge");
            assert!(a.iter().any(|f| f.is_some()), "p=0.5 over 64 hits injects");
            assert!(a.iter().any(|f| f.is_none()), "p=0.5 over 64 hits passes some");
        }

        #[test]
        fn uninstalled_injector_is_silent() {
            {
                let _guard = install(FaultPlan::uniform(1, 1.0));
                assert!(inject(FaultSite::Retrain).is_some());
            }
            assert_eq!(inject(FaultSite::Retrain), None, "guard drop uninstalls");
        }

        #[test]
        fn only_targets_one_site() {
            let guard = install(FaultPlan::only(7, FaultSite::ParTask, 1.0));
            assert_eq!(inject(FaultSite::ParTask), Some(InjectedFault::Panic));
            assert_eq!(inject(FaultSite::StoreRead), None);
            assert_eq!(guard.injected_at(FaultSite::ParTask), 1);
            assert_eq!(guard.injected_at(FaultSite::StoreRead), 0);
            assert_eq!(guard.injected_total(), 1);
            assert_eq!(guard.hits_total(), 2);
        }
    }
}
