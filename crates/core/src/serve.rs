//! The concurrent query-serving layer: shared-catalog sessions, a coalescing
//! result cache, and plan-cost admission control.
//!
//! A [`Server`] wraps an `Arc<Catalog>` and hands out lightweight
//! [`ServerSession`]s, any number of which may plan and execute FrameQL
//! queries **simultaneously** — the catalog's contexts are `Arc` snapshots
//! behind the sync shim's locks, so no `&mut` appears anywhere on the hot
//! path. Three mechanisms sit between a session and the engine:
//!
//! 1. **Result cache** (`QueryCache`) — completed answers are published
//!    behind an `Arc` under a [`CacheKey`] combining the *normalized* query
//!    text with each spanned video's `(name, data generation, config
//!    fingerprint)`. The key needs only the parsed statement and its `FROM`
//!    resolution, so a cache in front of the planner answers a hit with a
//!    parse, a lookup and a refcount bump: only a miss, `EXPLAIN` and
//!    `EXPLAIN ANALYZE` plan. Stream ingestion, drift-refresh publication, and
//!    UDF registration bump the generation, so stale entries become
//!    unreachable the instant the data changes — invalidation is precise per
//!    video, with no global flush.
//! 2. **Query coalescing** — when an identical query (same cache key) is
//!    already executing, later sessions attach as *waiters* to the one
//!    in-flight computation instead of re-executing it; the computer fans the
//!    answer out to every waiter on publish. `EXPLAIN` reports the
//!    disposition as `cache: hit | miss | coalesced(n waiters)`.
//! 3. **Admission control** (`Admission`) — each cache miss is admitted
//!    against a plan-cost budget in strict FIFO ticket order, bounding how
//!    much estimated simulated cost executes at once while staying fair
//!    (no query can be overtaken, and a query too big for the budget runs
//!    alone rather than starving).
//!
//! No serving lock is held while calling into the engine ([`crate::lockorder`]).
//! Coalescing is the [`Flight`] cell every compute-once cache shares; this
//! module keeps the cache's FIFO eviction order and the generation re-check.
//!
//! Per-session cost attribution rides on [`SimClock`] charge tags: each
//! session executes under its own tag, worker-pool jobs inherit the
//! submitter's tag, and the per-tag ledgers sum exactly to the global clock.

use crate::catalog::Catalog;
use crate::context::{CacheWarmth, VideoContext};
use crate::lockorder::{Lock, RankedMutex};
use crate::obs;
use crate::plan::{CacheStatus, PlanStrategy, QueryPlan};
use crate::result::QueryResult;
use crate::session::ResolvedQuery;
use crate::single_flight::{Flight, FlightMap, Role};
use crate::sync::{AtomicU64, Condvar, Ordering};
use crate::Result;
use blazeit_detect::SimClock;
use blazeit_frameql::Query;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Tunables of the serving layer. The defaults suit tests and the bundled
/// `blazeit-server` binary; saturation benches override them via
/// [`Server::with_config`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Admission budget: the maximum summed plan-cost estimate (unitless,
    /// roughly "simulated seconds") allowed to execute concurrently. A query
    /// whose own estimate exceeds the budget is still admitted — alone — once
    /// it reaches the head of the FIFO queue.
    pub admission_capacity: f64,
    /// Cap on published (completed) cache entries; the oldest completed
    /// entries are evicted first. In-flight computations are never evicted.
    pub max_cached_results: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { admission_capacity: 64.0, max_cached_results: 256 }
    }
}

/// The identity of a cacheable query: the normalized FrameQL text (the parsed
/// AST's canonical debug form, with `EXPLAIN` stripped) plus, for every video
/// the `FROM` clause spans, `(normalized name, data generation, config
/// fingerprint)`. Two queries share a key exactly when they would compute the
/// same answer from the same data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonicalized query (AST debug form with `explain` forced off, so
    /// `EXPLAIN q` probes the entry `q` would populate).
    sql: String,
    /// Per-video `(name, data_generation, config_fingerprint)` triples in
    /// `FROM`-clause order.
    videos: Vec<(String, u64, u64)>,
}

impl CacheKey {
    /// Builds the key for a parsed query against the contexts its `FROM` clause
    /// resolved to. Generations are read here, at resolution, before anything
    /// plans: a later bump makes this key unreachable for new queries, which is
    /// the invalidation.
    fn for_query(query: &Query, contexts: &[Arc<VideoContext>]) -> CacheKey {
        let mut normalized = query.clone();
        normalized.explain = false;
        normalized.analyze = false;
        let videos = contexts
            .iter()
            .map(|ctx| {
                (ctx.video().name().to_string(), ctx.data_generation(), ctx.config_fingerprint())
            })
            .collect();
        CacheKey { sql: format!("{normalized:?}"), videos }
    }
}

/// Key → cell map plus FIFO insertion order for eviction.
struct CacheMap {
    map: FlightMap<CacheKey, Arc<QueryResult>>,
    order: VecDeque<CacheKey>,
}

/// The coalescing result cache.
struct QueryCache {
    slots: RankedMutex<CacheMap>,
    max_entries: usize,
}

impl QueryCache {
    fn new(max_entries: usize) -> QueryCache {
        QueryCache {
            slots: RankedMutex::new(
                Lock::ServeCache,
                CacheMap { map: HashMap::new(), order: VecDeque::new() },
            ),
            max_entries: max_entries.max(1),
        }
    }

    /// Joins the computation for `key` ([`Flight::join`]). Besides the role,
    /// returns how many completed entries a new entry evicted (0 for hits and
    /// waits), so the caller can count them.
    fn join_query(&self, key: &CacheKey) -> (Role<Arc<QueryResult>>, usize) {
        let mut slots = self.slots.lock();
        let role = Flight::join(&mut slots.map, key);
        if !matches!(role, Role::Compute(_)) {
            return (role, 0);
        }
        slots.order.push_back(key.clone());
        let evicted = self.evict_excess(&mut slots);
        (role, evicted)
    }

    /// Evicts oldest *completed* entries past the configured cap. In-flight
    /// computations are skipped (re-queued), so coalescing never breaks.
    fn evict_excess(&self, slots: &mut CacheMap) -> usize {
        let mut evicted = 0;
        let mut in_flight = Vec::new();
        while slots.map.len() - in_flight.len() > self.max_entries {
            let Some(key) = slots.order.pop_front() else { break };
            let Some(slot) = slots.map.get(&key) else { continue }; // vacated: a stale entry
            if slot.waiters().is_some() {
                in_flight.push(key);
            } else {
                slots.map.remove(&key);
                evicted += 1;
            }
        }
        slots.order.extend(in_flight);
        evicted
    }

    /// Vacates `key` if it still holds `slot` (a computation that errored, or
    /// whose data generation moved mid-execution) so future sessions recompute
    /// instead of hitting it.
    fn drop_entry(&self, key: &CacheKey, slot: &Arc<Flight<Arc<QueryResult>>>) {
        let mut slots = self.slots.lock();
        if Flight::vacate(&mut slots.map, key, slot) {
            slots.order.retain(|k| k != key);
        }
    }

    /// The disposition a non-`EXPLAIN` run of this key would see *right now*
    /// (what `EXPLAIN` renders as its `cache:` line). Does not attach, insert,
    /// or evict.
    fn probe_status(&self, key: &CacheKey) -> CacheStatus {
        let slots = self.slots.lock();
        match slots.map.get(key) {
            None => CacheStatus::Miss,
            Some(slot) => match slot.waiters() {
                None => CacheStatus::Hit,
                Some(waiters) => CacheStatus::Coalesced(waiters + 1),
            },
        }
    }
}

/// FIFO plan-cost admission control over the shared execution resources
/// (worker pool, simulated GPU).
struct Admission {
    /// Ticket/budget state, paired with `turn`.
    state: RankedMutex<AdmissionState>,
    /// Signaled whenever the queue may advance (an admit or a release).
    turn: Condvar,
    capacity: f64,
}

struct AdmissionState {
    next_ticket: u64,
    serving: u64,
    in_flight_cost: f64,
}

impl Admission {
    fn new(capacity: f64) -> Admission {
        Admission {
            state: RankedMutex::new(
                Lock::Admission,
                AdmissionState { next_ticket: 0, serving: 0, in_flight_cost: 0.0 },
            ),
            turn: Condvar::new(),
            capacity: if capacity.is_finite() && capacity > 0.0 { capacity } else { f64::INFINITY },
        }
    }

    /// Blocks until this caller's FIFO turn comes up *and* `cost` fits the
    /// remaining budget (a query bigger than the whole budget is admitted
    /// alone). Returns a permit that releases the budget on drop. The time
    /// spent waiting lands in the `blazeit_serving_admission_wait_seconds`
    /// histogram, and the queue depth gauge tracks every enqueue/admit.
    fn acquire(&self, cost: f64) -> AdmissionPermit<'_> {
        let cost = if cost.is_finite() && cost > 0.0 { cost } else { 1.0 };
        let waited = std::time::Instant::now();
        let mut state = self.state.lock();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        obs::metrics()
            .serving_admission_queue_depth
            .set((state.next_ticket - state.serving) as f64);
        loop {
            let my_turn = state.serving == ticket;
            let fits = state.in_flight_cost == 0.0 || state.in_flight_cost + cost <= self.capacity;
            if my_turn && fits {
                state.serving += 1;
                state.in_flight_cost += cost;
                obs::metrics()
                    .serving_admission_queue_depth
                    .set((state.next_ticket - state.serving) as f64);
                drop(state);
                obs::metrics().serving_admission_wait.observe(waited.elapsed().as_secs_f64());
                // The next ticket may also fit: let it check.
                self.turn.notify_all();
                return AdmissionPermit { admission: self, cost };
            }
            state = state.wait(&self.turn);
        }
    }

    /// Sessions currently queued: tickets issued but not yet admitted.
    fn queue_depth(&self) -> u64 {
        let state = self.state.lock();
        state.next_ticket - state.serving
    }

    fn release(&self, cost: f64) {
        let mut state = self.state.lock();
        state.in_flight_cost = (state.in_flight_cost - cost).max(0.0);
        drop(state);
        self.turn.notify_all();
    }
}

/// RAII admission grant: dropping it returns the plan-cost estimate to the
/// budget and wakes queued sessions (panic-safe — an unwinding computation
/// still releases its budget).
struct AdmissionPermit<'a> {
    admission: &'a Admission,
    cost: f64,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.admission.release(self.cost);
    }
}

/// A snapshot of the serving layer's counters (see [`Server::stats`]). Every
/// field is monotonic except `queued`, which is the instantaneous admission
/// queue depth at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Lookups answered from a published cache entry.
    pub hits: u64,
    /// Lookups that claimed computership (executed the engine).
    pub misses: u64,
    /// Sessions that attached to an identical in-flight computation.
    pub coalesced: u64,
    /// Completed entries evicted by the size cap.
    pub evicted: u64,
    /// Entries dropped because they errored or their data generation moved
    /// while they executed.
    pub invalidated: u64,
    /// Sessions waiting in the admission queue *right now* (instantaneous
    /// gauge, not a monotonic counter).
    pub queued: u64,
}

#[derive(Default)]
struct StatCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evicted: AtomicU64,
    invalidated: AtomicU64,
}

/// Plan-cost estimate for admission control, from information the planner
/// already computed for free: colder caches and heavier strategies cost more.
/// Unitless, comparable only against [`ServeConfig::admission_capacity`].
fn estimated_cost(plan: &QueryPlan) -> f64 {
    plan.subplans
        .iter()
        .map(|sub| {
            let warmth = |w: CacheWarmth, cold: f64, disk: f64| match w {
                CacheWarmth::Cold => cold,
                CacheWarmth::Disk => disk,
                CacheWarmth::Memory => 0.0,
            };
            let strategy = match sub.strategy {
                PlanStrategy::ExactScan | PlanStrategy::ExactDistinct => 16.0,
                PlanStrategy::ScrubScan => 12.0,
                PlanStrategy::Selection => 6.0,
                PlanStrategy::NaiveSampling => 4.0,
                PlanStrategy::ScrubRanked => 3.0,
                PlanStrategy::SpecializedAggregate { .. } => 2.0,
                PlanStrategy::ContinuousAggregate => 1.0,
            };
            1.0 + strategy
                + warmth(sub.specialized_cache, 8.0, 1.0)
                + warmth(sub.score_index_cache, 4.0, 0.5)
        })
        .sum()
}

/// The concurrent query server: N sessions over one shared catalog, with
/// result caching, query coalescing, and admission control between them and
/// the engine. See the [module docs](self) for the architecture.
pub struct Server {
    catalog: Arc<Catalog>,
    cache: QueryCache,
    admission: Admission,
    stats: StatCounters,
    next_session: AtomicU64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("videos", &self.catalog.video_names())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Server {
    /// A server over `catalog` with the default [`ServeConfig`].
    pub fn new(catalog: Arc<Catalog>) -> Server {
        Server::with_config(catalog, ServeConfig::default())
    }

    /// A server over `catalog` with explicit serving tunables.
    pub fn with_config(catalog: Arc<Catalog>, config: ServeConfig) -> Server {
        Server {
            catalog,
            cache: QueryCache::new(config.max_cached_results),
            admission: Admission::new(config.admission_capacity),
            stats: StatCounters::default(),
            next_session: AtomicU64::new(1),
        }
    }

    /// The shared catalog behind this server.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Opens a session: an independent query handle with its own simulated-
    /// cost ledger (charge tag). Sessions are cheap; open one per client.
    pub fn session(&self) -> ServerSession<'_> {
        ServerSession { server: self, tag: self.next_session.fetch_add(1, Ordering::SeqCst) }
    }

    /// Convenience: run one query on a throwaway session.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.session().query(sql)
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            hits: self.stats.hits.load(Ordering::SeqCst),
            misses: self.stats.misses.load(Ordering::SeqCst),
            coalesced: self.stats.coalesced.load(Ordering::SeqCst),
            evicted: self.stats.evicted.load(Ordering::SeqCst),
            invalidated: self.stats.invalidated.load(Ordering::SeqCst),
            queued: self.admission.queue_depth(),
        }
    }
}

/// One client's query handle over a [`Server`]. Obtained from
/// [`Server::session`]; holds the session's [`SimClock`] charge tag so every
/// simulated second this session's queries spend — including work fanned out
/// to the worker pool — lands in its own ledger.
#[derive(Debug, Clone, Copy)]
pub struct ServerSession<'a> {
    server: &'a Server,
    tag: u64,
}

impl ServerSession<'_> {
    /// This session's charge tag (ledger id on the shared [`SimClock`]).
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The simulated cost this session has been charged so far.
    pub fn cost(&self) -> blazeit_detect::clock::CostBreakdown {
        self.server.catalog.clock().breakdown_for(self.tag)
    }

    /// Answers a FrameQL query through the serving layer: cache hit, coalesced
    /// wait, or admitted computation. A copy of [`ServerSession::query_shared`]'s
    /// answer (free when no cache entry shares it).
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_shared(sql).map(Arc::unwrap_or_clone)
    }

    /// Parses a FrameQL query and resolves its `FROM` clause, then keys the
    /// result cache from those alone: a hit returns the published answer
    /// without planning or copying it. A miss plans and executes the query
    /// once for every session that asks meanwhile. `EXPLAIN` plans, runs free
    /// and reports the cache disposition its query would see; `EXPLAIN
    /// ANALYZE` executes under a trace collector — admitted like a miss, but
    /// never cached, counted, or coalesced, so tracing a query cannot perturb
    /// the plain query's cache entry or the serving counters.
    pub fn query_shared(&self, sql: &str) -> Result<Arc<QueryResult>> {
        obs::metrics().serving_queries.inc();
        let resolved = self.server.catalog.session().resolve(sql)?;
        let key = CacheKey::for_query(resolved.query(), resolved.contexts());

        if resolved.query().explain {
            let mut prepared = resolved.plan()?;
            prepared.plan_mut().cache = Some(self.server.cache.probe_status(&key));
            if !prepared.is_analyze() {
                return prepared.run().map(Arc::new);
            }
            let estimate = estimated_cost(prepared.plan());
            let waited = std::time::Instant::now();
            let _permit = self.server.admission.acquire(estimate);
            prepared.set_admission_wait(waited.elapsed().as_secs_f64());
            let tag = self.tag;
            return SimClock::with_charge_tag(tag, || prepared.run()).map(Arc::new);
        }

        let (role, evicted) = self.server.cache.join_query(&key);
        if evicted > 0 {
            self.server.stats.evicted.fetch_add(evicted as u64, Ordering::SeqCst);
            obs::metrics().serving_evicted.add(evicted as u64);
        }
        match role {
            Role::Hit(result) => {
                self.server.stats.hits.fetch_add(1, Ordering::SeqCst);
                obs::metrics().serving_hits.inc();
                result
            }
            Role::Wait(slot) => {
                self.server.stats.coalesced.fetch_add(1, Ordering::SeqCst);
                obs::metrics().serving_coalesced.inc();
                slot.wait()
            }
            Role::Compute(slot) => {
                self.server.stats.misses.fetch_add(1, Ordering::SeqCst);
                obs::metrics().serving_misses.inc();
                self.compute(resolved, &key, &slot)
            }
        }
    }

    /// The computer path: plan, admit against the plan-cost budget, execute
    /// under this session's charge tag, publish to every coalesced waiter, and
    /// keep (or drop) the entry for future hits. A planning error is published
    /// like an execution error.
    fn compute(
        &self,
        resolved: ResolvedQuery,
        key: &CacheKey,
        slot: &Arc<Flight<Arc<QueryResult>>>,
    ) -> Result<Arc<QueryResult>> {
        let contexts = resolved.contexts().to_vec();
        // Admission is held only across the execution — never while any
        // serving lock is held, and released (by drop) even on unwind.
        let execute = || {
            let prepared = resolved.plan()?;
            let _permit = self.server.admission.acquire(estimated_cost(prepared.plan()));
            SimClock::with_charge_tag(self.tag, || prepared.run()).map(Arc::new)
        };
        let task = || format!("serving computation for {}", key.sql);
        // Publishes before any map maintenance, so waiters are never delayed
        // by (or ordered after) cache bookkeeping.
        let result = slot.run(task, execute);
        // A failed computation must not be served as a hit; and if the data
        // generation moved while we executed, the entry answers for a key no
        // new session will compute — drop it so memory is not pinned.
        let generation_moved = contexts
            .iter()
            .zip(&key.videos)
            .any(|(ctx, (_, generation, _))| ctx.data_generation() != *generation);
        if result.is_err() || generation_moved {
            self.server.stats.invalidated.fetch_add(1, Ordering::SeqCst);
            obs::metrics().serving_invalidated.inc();
            self.server.cache.drop_entry(key, slot);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::QueryOutput;
    use crate::BlazeItError;
    use blazeit_videostore::DatasetPreset;

    fn server() -> Server {
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::Taipei, 900).unwrap();
        Server::new(Arc::new(catalog))
    }

    const FCOUNT: &str =
        "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 AT CONFIDENCE 95%";

    #[test]
    fn identical_queries_hit_the_result_cache() {
        let server = server();
        let first = server.query(FCOUNT).unwrap();
        let second = server.query(FCOUNT).unwrap();
        assert_eq!(first.output, second.output);
        let stats = server.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn explain_reports_the_cache_disposition() {
        let server = server();
        let explain = |s: &Server| {
            let result = s.query(&format!("EXPLAIN {FCOUNT}")).unwrap();
            result.output.explain_plan().unwrap().to_string()
        };
        assert!(explain(&server).contains("cache:    miss"), "cold cache must explain as miss");
        server.query(FCOUNT).unwrap();
        assert!(explain(&server).contains("cache:    hit"), "published entry must explain as hit");
        // EXPLAIN itself stays free, uncached, and uncounted.
        let stats = server.stats();
        assert_eq!(
            stats,
            ServeStats { misses: 1, ..ServeStats::default() },
            "probes must not count: {stats:?}"
        );
    }

    #[test]
    fn hits_share_one_published_answer() {
        let server = server();
        let session = server.session();
        let computed = session.query_shared(FCOUNT).unwrap();
        let first = session.query_shared(FCOUNT).unwrap();
        let second = session.query_shared(&format!("  {FCOUNT}")).unwrap();
        assert!(Arc::ptr_eq(&computed, &first), "a hit must return the published answer");
        assert!(Arc::ptr_eq(&first, &second), "two hits of one key must share one answer");
        let stats = server.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2), "{stats:?}");
    }

    #[test]
    fn a_statement_that_fails_analysis_is_published_as_an_error_and_vacated() {
        let server = server();
        // Parses and resolves (taipei is registered), but names no known UDF.
        let bad = "SELECT * FROM taipei WHERE shininess(content) > 3";
        let first = server.query(bad).unwrap_err();
        let second = server.query(bad).unwrap_err();
        assert!(
            matches!(first, BlazeItError::FrameQl(blazeit_frameql::FrameQlError::UnknownUdf(_))),
            "{first:?}"
        );
        assert_eq!(first, second, "every call must see the same typed error");
        let resolved = server.catalog().session().resolve(bad).unwrap();
        let key = CacheKey::for_query(resolved.query(), resolved.contexts());
        assert_eq!(server.cache.probe_status(&key), CacheStatus::Miss, "the key must be vacant");
        let stats = server.stats();
        assert_eq!(
            stats,
            ServeStats { misses: 2, invalidated: 2, ..ServeStats::default() },
            "a planning error counts as a miss and an invalidation, never a hit: {stats:?}"
        );
    }

    #[test]
    fn explain_analyze_traces_parse_plan_and_admission_wait() {
        let server = server();
        let result = server.query(&format!("EXPLAIN ANALYZE {FCOUNT}")).unwrap();
        let QueryOutput::ExplainAnalyze { trace, .. } = &result.output else {
            panic!("EXPLAIN ANALYZE returned {:?}", result.output);
        };
        for label in ["parse", "plan", "admission wait"] {
            assert!(
                trace.spans.iter().any(|span| span.label == label),
                "the trace must keep its {label:?} span: {trace}"
            );
        }
        assert_eq!(server.stats(), ServeStats::default(), "EXPLAIN ANALYZE is never counted");
    }

    #[test]
    fn generation_bump_invalidates_precisely() {
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::Taipei, 900).unwrap();
        catalog.register_preset(DatasetPreset::Rialto, 900).unwrap();
        let server = Server::new(Arc::new(catalog));
        let rialto =
            "SELECT FCOUNT(*) FROM rialto WHERE class = 'boat' ERROR WITHIN 0.2 AT CONFIDENCE 95%";
        server.query(FCOUNT).unwrap();
        server.query(rialto).unwrap();
        assert_eq!(server.stats().misses, 2);
        // Bump taipei only (UDF registration bumps the data generation).
        server
            .catalog()
            .context("taipei")
            .unwrap()
            .register_udf("tick", false, |_, _| blazeit_frameql::Value::Number(1.0));
        server.query(FCOUNT).unwrap(); // new key → recompute
        server.query(rialto).unwrap(); // untouched video → still a hit
        let stats = server.stats();
        assert_eq!(stats.misses, 3, "bumped video must recompute");
        assert_eq!(stats.hits, 1, "untouched video must keep hitting");
    }

    #[test]
    fn concurrent_identical_queries_coalesce() {
        let server = server();
        let results: Vec<QueryResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let session = server.session();
                    scope.spawn(move || session.query(FCOUNT).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in results.windows(2) {
            assert_eq!(pair[0].output, pair[1].output, "all sessions must share one answer");
        }
        let stats = server.stats();
        assert_eq!(
            stats.misses + stats.hits + stats.coalesced,
            6,
            "every session is exactly one of computer/hit/waiter: {stats:?}"
        );
        assert!(stats.misses >= 1);
    }

    #[test]
    fn failed_queries_are_not_cached() {
        let server = server();
        let bad = "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2 \
                   AT CONFIDENCE 95% LIMIT 0 GAP 1";
        // Whatever the error shape, two runs must both reach the engine.
        let first = server.query(bad);
        let second = server.query(bad);
        assert_eq!(first.is_err(), second.is_err());
        if first.is_err() {
            assert_eq!(server.stats().hits, 0, "errors must never be served as hits");
        }
    }

    #[test]
    fn sessions_charge_their_own_ledgers() {
        let server = server();
        let a = server.session();
        let b = server.session();
        assert_ne!(a.tag(), b.tag());
        a.query(FCOUNT).unwrap();
        b.query(FCOUNT).unwrap(); // hit: no cost charged to b
        let clock = server.catalog().clock();
        let total = clock.breakdown();
        assert!(a.cost().total() > 0.0, "the computing session pays");
        assert_eq!(b.cost().total(), 0.0, "a cache hit charges the hitting session nothing");
        let summed: f64 =
            clock.charged_tags().iter().map(|&t| clock.breakdown_for(t).total()).sum();
        assert_eq!(summed, total.total(), "per-tag ledgers must sum to the global clock");
    }

    #[test]
    fn admission_is_fifo_and_bounded() {
        let admission = Admission::new(10.0);
        let p1 = admission.acquire(6.0);
        // 6 + 6 > 10: the second acquire must wait until p1 releases.
        let waited = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _p2 = admission.acquire(6.0);
                true
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(p1);
            handle.join().unwrap()
        });
        assert!(waited);
        // A query bigger than the whole budget still runs (alone).
        let _huge = admission.acquire(1000.0);
    }
}
