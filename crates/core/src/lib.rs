//! # blazeit-core
//!
//! The BlazeIt query optimizer and execution engine (the paper's primary contribution).
//!
//! The public query surface is a [`Catalog`] of registered videos
//! (each a [`VideoContext`] with its own labeled set and
//! per-video caches). A [`Session`] routes FrameQL queries by their
//! `FROM` clause, classifies them with the rule-based optimizer, and plans them into
//! an inspectable [`QueryPlan`] —
//! [`Session::prepare`](session::Session::prepare) returns a
//! [`PreparedQuery`] whose plan can be overridden before
//! `.run()`, and `EXPLAIN <query>` renders the plan without charging the simulated
//! clock. Execution picks the cheapest strategy that meets the requested accuracy:
//!
//! * **Aggregation** ([`aggregate`]) — adaptive sampling with a CLT stopping rule
//!   (Section 6.1), query rewriting with specialized NNs when their held-out error is
//!   good enough (Section 6.2, Algorithm 1), and control variates otherwise
//!   (Section 6.3).
//! * **Scrubbing** ([`scrub`]) — importance ordering of frames by specialized-NN
//!   confidence for cardinality-limited (LIMIT/GAP) queries (Section 7).
//! * **Content-based selection** ([`select`]) — automatically inferred label / content
//!   / temporal / spatial filters applied before object detection (Section 8).
//! * **Baselines** ([`baselines`]) — the naive full scan and the NoScope oracle,
//!   against which every experiment in the paper compares. The naive plans BlazeIt
//!   itself can run (exact scan, naive AQP, the sequential scan scrub, selection with
//!   filters off) are plan strategies: the experiments override a prepared query's
//!   sub-plan ([`PreparedQuery::plan_mut`]) rather than call an executor directly —
//!   every executor is entered through [`PreparedQuery::run`].
//! * **Durable indexes** ([`store`]) — [`Catalog::with_index_store`](catalog::Catalog::with_index_store)
//!   persists trained specialized networks and score indexes on disk
//!   (read-through / write-behind under the per-video caches), so the
//!   "BlazeIt (indexed)" scenario survives across catalog instances with zero
//!   specialized-inference cost on warm loads.
//! * **Cross-video queries** — `FROM a, b, c` and `FROM *` fan a query out over
//!   many registered videos: per-video sub-queries run in parallel and results
//!   merge honestly (summed estimates with composed confidence intervals, one
//!   global scrubbing `LIMIT` with early cancellation, source-tagged selection
//!   rows); see [`plan::MergeSemantics`].
//! * **Streaming ingestion and continuous queries** ([`stream`]) —
//!   [`Catalog::register_stream`](catalog::Catalog::register_stream) turns a
//!   registration into a live feed: ingestion extends cached score indexes
//!   incrementally (bit-identical to a cold re-score, charging only the new
//!   frames), a drift monitor schedules background retrains that swap the
//!   specialized network atomically, and
//!   [`Session::subscribe`](session::Session::subscribe) yields per-tick
//!   aggregate updates with honest confidence intervals.
//!
//! * **Concurrent serving** ([`serve`]) — a [`Server`] shares one catalog across
//!   N concurrent sessions: identical queries coalesce onto one computation, a
//!   result cache keyed on the normalized query × per-video
//!   `(name, data generation, config fingerprint)` serves repeats instantly and
//!   invalidates precisely when data changes, and plan-cost FIFO admission
//!   control bounds concurrent load fairly. The `blazeit-server` binary exposes
//!   the layer over a line/JSON TCP protocol.
//!
//! * **Robustness** ([`fault`]) — deterministic fault injection (failpoints
//!   compiled in under the `fault-injection` feature, scheduled by a seeded
//!   RNG), retry with exponential backoff for transient store errors, and
//!   graceful degradation: persistent store failure flips a context to
//!   memory-only mode, failed drift retrains keep the current generation and
//!   re-arm with backoff, and a panicking parallel task becomes a typed
//!   [`BlazeItError::TaskPanicked`] instead of poisoning the pool. Every
//!   degradation is recorded in a per-context [`fault::HealthState`] rendered
//!   by EXPLAIN.
//!
//! All expensive work charges the shared [`SimClock`](blazeit_detect::SimClock), so
//! end-to-end runtimes are deterministic and comparable across plans.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod baselines;
pub mod catalog;
pub mod config;
pub mod context;
pub mod fault;
pub mod labeled;
pub mod lockorder;
pub mod metrics;
pub mod obs;
pub mod plan;
pub mod relation;
pub mod result;
pub mod scrub;
pub mod select;
pub mod serve;
pub mod session;
pub mod single_flight;
pub mod stats;
pub mod store;
pub mod stream;
pub mod sync;

pub use catalog::Catalog;
pub use config::BlazeItConfig;
pub use context::{CacheWarmth, VideoContext};
pub use fault::{HealthReport, HealthState, RetrainHealth, RetryPolicy};
pub use labeled::LabeledSet;
pub use metrics::RuntimeReport;
pub use obs::{QueryTrace, TraceSpan};
pub use plan::{CacheStatus, MergeSemantics, PlanStrategy, QueryPlan, RewriteDecision, VideoPlan};
pub use result::{
    AggregateMethod, QueryOutput, QueryResult, SourcedFrame, SourcedRow, VideoAggregate,
};
pub use serve::{ServeConfig, ServeStats, Server, ServerSession};
pub use session::{PreparedQuery, Session};
pub use store::{IndexStore, StoreError};
pub use stream::{
    DriftConfig, IngestReport, RefreshReport, RefreshState, StreamSource, StreamStatus,
    StreamUpdate, Subscription,
};

use blazeit_frameql::FrameQlError;
use blazeit_nn::NnError;
use blazeit_videostore::VideoError;

/// Errors produced by the BlazeIt engine.
#[derive(Debug, Clone, PartialEq)]
pub enum BlazeItError {
    /// Error from the FrameQL front-end.
    FrameQl(FrameQlError),
    /// Error from the video substrate.
    Video(VideoError),
    /// Error from the NN substrate.
    Nn(NnError),
    /// The query references a video that is not registered in the catalog.
    UnknownVideo {
        /// The video named in the query.
        requested: String,
        /// The videos the catalog has registered, in registration order.
        available: Vec<String>,
        /// The registered name closest to the request (by edit distance over
        /// normalized names), when one is plausibly a typo.
        hint: Option<String>,
    },
    /// The durable index store failed (I/O, or an invalid artifact file).
    Store(store::StoreError),
    /// Live stream ingestion failed before any state changed; the stream is
    /// unchanged and `advance` can simply be retried.
    Ingest {
        /// The stream's registered video name.
        video: String,
        /// What went wrong, rendered.
        message: String,
    },
    /// A fanned-out parallel task panicked; the panic was caught at the task
    /// boundary (the worker pool and sibling tasks are unaffected) and
    /// converted to this typed error.
    TaskPanicked {
        /// Which task panicked (e.g. the sub-query's video).
        task: String,
        /// The panic message.
        message: String,
    },
    /// The query is valid FrameQL but not executable by this engine.
    Unsupported(String),
    /// An invariant was violated during planning or execution.
    Internal(String),
}

impl std::fmt::Display for BlazeItError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlazeItError::FrameQl(e) => write!(f, "FrameQL error: {e}"),
            BlazeItError::Video(e) => write!(f, "video error: {e}"),
            BlazeItError::Nn(e) => write!(f, "model error: {e}"),
            BlazeItError::UnknownVideo { requested, available, hint } => {
                if available.is_empty() {
                    write!(f, "query references video '{requested}' but the catalog is empty")
                } else {
                    write!(
                        f,
                        "query references unknown video '{requested}' (registered: {})",
                        available.join(", ")
                    )?;
                    if let Some(hint) = hint {
                        write!(f, "; did you mean '{hint}'?")?;
                    }
                    write!(f, " — FROM * queries every registered video")
                }
            }
            BlazeItError::Store(e) => write!(f, "index store error: {e}"),
            BlazeItError::Ingest { video, message } => {
                write!(f, "stream ingest error on '{video}': {message} (stream unchanged)")
            }
            BlazeItError::TaskPanicked { task, message } => {
                write!(f, "parallel task panicked ({task}): {message}")
            }
            BlazeItError::Unsupported(msg) => write!(f, "unsupported query: {msg}"),
            BlazeItError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for BlazeItError {}

impl From<FrameQlError> for BlazeItError {
    fn from(e: FrameQlError) -> Self {
        BlazeItError::FrameQl(e)
    }
}

impl From<VideoError> for BlazeItError {
    fn from(e: VideoError) -> Self {
        BlazeItError::Video(e)
    }
}

impl From<NnError> for BlazeItError {
    fn from(e: NnError) -> Self {
        BlazeItError::Nn(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, BlazeItError>;
