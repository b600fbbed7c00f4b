//! # BlazeIt (Rust reproduction)
//!
//! A from-scratch Rust implementation of **BlazeIt** (Kang, Bailis, Zaharia — VLDB
//! 2019): a declarative video analytics system that optimizes aggregation,
//! cardinality-limited "scrubbing", and content-based selection queries over video by
//! replacing most object-detector invocations with specialized neural networks,
//! control variates, importance sampling, and inferred filters.
//!
//! This crate is a facade re-exporting the public API of the workspace crates:
//!
//! * [`videostore`] — synthetic video substrate (scenes, rendering, Table 3 datasets).
//! * [`detect`] — simulated object detection, tracking, and the simulated-time cost model.
//! * [`nn`] — the from-scratch NN library and BlazeIt's specialized networks.
//! * [`frameql`] — the FrameQL declarative query language.
//! * [`core`] — the BlazeIt engine: optimizer, executors, baselines, the durable
//!   index store, and the streaming layer ([`core::stream`]: live ingestion with
//!   incremental score indexes, drift-triggered background refresh, and
//!   continuous queries via `Session::subscribe`).
//!
//! ## Quickstart
//!
//! ```no_run
//! use blazeit::prelude::*;
//!
//! // Register two of the Table 3 streams in one catalog (each gets 3 synthetic days;
//! // the first two are labeled offline, exactly the paper's setup).
//! let catalog = Catalog::new();
//! catalog.register_preset(DatasetPreset::Taipei, 18_000).unwrap();
//! catalog.register_preset(DatasetPreset::Amsterdam, 18_000).unwrap();
//!
//! // Queries route by their FROM clause; EXPLAIN renders the chosen plan for free.
//! let session = catalog.session();
//! let plan = session
//!     .query("EXPLAIN SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1")
//!     .unwrap();
//! println!("{}", plan.output.explain_plan().unwrap());
//!
//! // Prepare → inspect / override → run.
//! let result = session
//!     .prepare("SELECT FCOUNT(*) FROM amsterdam WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%")
//!     .unwrap()
//!     .with_budget(5_000)
//!     .run()
//!     .unwrap();
//! println!("{:?} in {:.1} simulated GPU-seconds", result.output, result.runtime_secs());
//! ```

#![warn(missing_docs)]

pub use blazeit_core as core;
pub use blazeit_detect as detect;
pub use blazeit_frameql as frameql;
pub use blazeit_nn as nn;
pub use blazeit_videostore as videostore;

/// The most commonly used types, importable with `use blazeit::prelude::*`.
pub mod prelude {
    pub use blazeit_core::aggregate::SamplingOptions;
    pub use blazeit_core::scrub::ScrubOptions;
    pub use blazeit_core::select::SelectionOptions;
    pub use blazeit_core::{
        baselines, AggregateMethod, BlazeItConfig, BlazeItError, CacheStatus, CacheWarmth, Catalog,
        DriftConfig, HealthReport, HealthState, IndexStore, IngestReport, LabeledSet,
        MergeSemantics, PlanStrategy, PreparedQuery, QueryOutput, QueryPlan, QueryResult,
        QueryTrace, RefreshReport, RefreshState, RetrainHealth, RetryPolicy, RewriteDecision,
        ServeConfig, ServeStats, Server, ServerSession, Session, SourcedFrame, SourcedRow,
        StoreError, StreamSource, StreamStatus, StreamUpdate, Subscription, TraceSpan,
        VideoAggregate, VideoContext, VideoPlan,
    };
    pub use blazeit_detect::{DetectionMethod, ObjectDetector, SimClock, SimulatedDetector};
    pub use blazeit_frameql::{parse_query, Query, Value};
    pub use blazeit_nn::parallel::TaskPanic;
    pub use blazeit_nn::specialized::{SpecializedHead, SpecializedNN};
    pub use blazeit_videostore::{
        BoundingBox, DatasetPreset, Frame, ObjectClass, Video, VideoConfig, DAY_HELDOUT, DAY_TEST,
        DAY_TRAIN,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let catalog = Catalog::new();
        catalog.register_preset(DatasetPreset::NightStreet, 600).unwrap();
        let result = catalog
            .session()
            .query("SELECT FCOUNT(*) FROM night-street WHERE class = 'car' ERROR WITHIN 0.5 AT CONFIDENCE 90%")
            .unwrap();
        assert!(result.output.aggregate_value().unwrap_or(-1.0) >= 0.0);
    }
}
