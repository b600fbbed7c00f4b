//! # blazeit-bench
//!
//! Experiment harnesses reproducing every table and figure of the BlazeIt paper's
//! evaluation (Section 10) against the synthetic substrate.
//!
//! Each experiment is a function in [`experiments`] returning a structured result and a
//! formatted table; one thin binary per table/figure (`table3_datasets`,
//! `fig4_aggregates`, ...) prints it, and the plain-`main` bench `experiments` runs
//! scaled-down versions of the same functions so `cargo bench` exercises every
//! harness end to end.
//!
//! Scale is controlled by [`ExperimentScale`]: the default is a 10-simulated-minute day
//! per stream (small enough for a laptop, large enough for every relative comparison);
//! set `BLAZEIT_FRAMES` (frames per day) and `BLAZEIT_RUNS` (sampling repetitions) to
//! run closer to paper scale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;

use std::sync::Arc;

use blazeit_core::{BlazeItConfig, Catalog, VideoContext};
use blazeit_videostore::DatasetPreset;

/// How large to make each experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Frames per synthetic day (train, held-out and test days are all this long).
    pub frames_per_day: u64,
    /// Number of repetitions for sampling-based experiments.
    pub runs: u64,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale { frames_per_day: 18_000, runs: 3 }
    }
}

impl ExperimentScale {
    /// Reads the scale from `BLAZEIT_FRAMES` / `BLAZEIT_RUNS`, falling back to defaults.
    pub fn from_env() -> ExperimentScale {
        let default = ExperimentScale::default();
        let frames_per_day = std::env::var("BLAZEIT_FRAMES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default.frames_per_day);
        let runs =
            std::env::var("BLAZEIT_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(default.runs);
        ExperimentScale { frames_per_day, runs }
    }

    /// A small scale for smoke tests and `cargo bench`.
    pub fn smoke() -> ExperimentScale {
        ExperimentScale { frames_per_day: 3_000, runs: 1 }
    }
}

/// Builds a one-video catalog for a preset at the given scale (three days generated,
/// labeled set built offline, test day registered). Query it through
/// [`Catalog::session`]; reach the per-video caches through [`context_of`].
pub fn catalog_for(preset: DatasetPreset, scale: ExperimentScale) -> Catalog {
    let catalog = Catalog::new();
    catalog.register_preset(preset, scale.frames_per_day).expect("catalog registration");
    catalog
}

/// Builds a one-video catalog with an explicit configuration.
pub fn catalog_with_config(
    preset: DatasetPreset,
    scale: ExperimentScale,
    config: BlazeItConfig,
) -> Catalog {
    let catalog = Catalog::new();
    catalog
        .register_preset_with_config(preset, scale.frames_per_day, config)
        .expect("catalog registration");
    catalog
}

/// The registered context of a preset inside `catalog`.
pub fn context_of(catalog: &Catalog, preset: DatasetPreset) -> Arc<VideoContext> {
    catalog.context(preset.name()).expect("preset is registered in this catalog")
}

/// The five videos used for the aggregation experiments (Figure 4 / Table 4); the paper
/// excludes archie because its specialized NN cannot hit the error target there either.
pub const AGGREGATION_PRESETS: [DatasetPreset; 5] = [
    DatasetPreset::Taipei,
    DatasetPreset::NightStreet,
    DatasetPreset::Rialto,
    DatasetPreset::GrandCanal,
    DatasetPreset::Amsterdam,
];

/// All six videos (Table 3 / Figures 5 and 6).
pub const ALL_PRESETS: [DatasetPreset; 6] = DatasetPreset::ALL;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing_defaults() {
        let s = ExperimentScale::default();
        assert_eq!(s.frames_per_day, 18_000);
        assert!(ExperimentScale::smoke().frames_per_day < s.frames_per_day);
    }

    #[test]
    fn catalog_for_builds() {
        let catalog = catalog_for(
            DatasetPreset::NightStreet,
            ExperimentScale { frames_per_day: 600, runs: 1 },
        );
        assert_eq!(context_of(&catalog, DatasetPreset::NightStreet).video().len(), 600);
    }
}
