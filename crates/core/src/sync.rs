//! Engine-level alias for the workspace sync shim.
//!
//! The shim itself lives in `blazeit_videostore::sync` (the bottom crate of
//! the dependency stack, so `blazeit-detect` and `blazeit-nn` can use the same
//! primitives), and this module re-exports it under the path the rest of the
//! engine and its docs use. See the shim module for the full primitive table
//! and the `model`-feature contract; in short:
//!
//! * normal builds: zero-cost poison-ignoring newtypes over `std::sync`;
//! * `--features model`: every acquire/release/load/store/wait becomes a
//!   scheduling point of the `blazeit-model` exhaustive interleaving explorer.
//!
//! Production code constructs all locks and atomics through this module (or
//! the `videostore` original) — enforced statically by the `disallowed-types`
//! list in the workspace `clippy.toml` — and the ranked locks of the hierarchy
//! stated in [`crate::lockorder`] are `RankedMutex`es built from its `Lock`
//! enum over [`Mutex::ranked`], which makes the hierarchy an oracle for the
//! debug-build assertions and the model checker at once.

pub use blazeit_videostore::sync::{
    AtomicU64, Condvar, Mutex, MutexGuard, OnceLock, Ordering, RwLock, RwLockReadGuard,
    RwLockWriteGuard, MODEL_COMPILED_IN,
};
