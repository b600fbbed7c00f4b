//! Frame featurization for specialized networks.
//!
//! The paper's specialized NNs consume 65x65 RGB crops and learn convolutional
//! features. Here the convolutional stem is replaced by a deterministic featurizer: the
//! frame is resized to a small grid and flattened, and a handful of per-channel
//! statistics over that grid are appended. This keeps training cheap on CPU while
//! preserving what the optimizations need — features that are *predictive but not
//! perfectly predictive* of the detector's per-frame counts.
//!
//! Every feature depends only on the `grid_side × grid_side` nearest-neighbor sample
//! of the frame. That property is what makes the batched scoring pipeline fast: the
//! fast path ([`FrameFeaturizer::features_for_video_frame_into`]) renders *only* those
//! sampled pixels via [`Video::frame_sampled`] (bit-identical to decoding the full
//! frame and resizing) instead of materializing the whole buffer per frame.

#![expect(
    clippy::indexing_slicing,
    reason = "feature-extraction kernels: indices are derived from the frame's own width/height \
              and fixed channel strides"
)]

use crate::tensor::Matrix;
use crate::Result;
use blazeit_videostore::{Frame, FrameIndex, Video};
use serde::{Deserialize, Serialize};

/// `UNIT_F32[v]` is `v as f32 / 255.0`: a channel value scaled to `[0, 1]`, the
/// same IEEE quotient the division gives (const evaluation rounds as the
/// hardware does). Featurization reads each of a frame's sampled channel
/// values (432 on the default 12×12 grid) three times in `f32` and once in
/// `f64`; a lookup replaces each of those divisions.
const UNIT_F32: [f32; 256] = {
    let mut table = [0.0f32; 256];
    let mut v = 0;
    while v < 256 {
        table[v] = v as f32 / 255.0;
        v += 1;
    }
    table
};

/// `UNIT_F64[v]` is `v as f64 / 255.0`, [`UNIT_F32`]'s `f64` twin for the
/// channel statistics.
const UNIT_F64: [f64; 256] = {
    let mut table = [0.0f64; 256];
    let mut v = 0;
    while v < 256 {
        table[v] = v as f64 / 255.0;
        v += 1;
    }
    table
};

/// Configuration of the frame featurizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Side length of the downsampled grid (the grid is `side x side` pixels).
    pub grid_side: usize,
    /// Whether to append global channel statistics (mean and variance per channel,
    /// plus redness/blueness summaries).
    pub include_stats: bool,
    /// Whether to append a per-cell "deviation from the frame's mean color" map.
    ///
    /// Counting requires a signal that is invariant to *which* color an object is; the
    /// deviation map measures how much each grid cell departs from the background,
    /// which is what a small CNN's early layers would learn. Without it, a linear model
    /// tends to learn the training day's count prior instead of actually counting.
    pub include_deviation: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { grid_side: 12, include_stats: true, include_deviation: true }
    }
}

impl FeatureConfig {
    /// The dimensionality of the produced feature vectors.
    pub fn dim(&self) -> usize {
        let cells = self.grid_side * self.grid_side;
        cells * 3
            + if self.include_deviation { cells + 2 * self.grid_side + 3 } else { 0 }
            + if self.include_stats { 8 } else { 0 }
    }
}

/// Converts frames into fixed-length feature vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameFeaturizer {
    config: FeatureConfig,
}

impl FrameFeaturizer {
    /// Creates a featurizer.
    pub fn new(config: FeatureConfig) -> FrameFeaturizer {
        FrameFeaturizer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> FeatureConfig {
        self.config
    }

    /// The dimensionality of produced features.
    pub fn dim(&self) -> usize {
        self.config.dim()
    }

    /// Featurizes a whole decoded frame: the full-frame reference the sparse-render
    /// fast path is tested against.
    #[cfg(test)]
    pub(crate) fn features(&self, frame: &Frame) -> Result<Vec<f32>> {
        let side = self.config.grid_side;
        let small = blazeit_videostore::ingest::resize(frame, side, side)
            .map_err(|e| crate::NnError::InvalidConfig(e.to_string()))?;
        let mut out = vec![0.0f32; self.dim()];
        self.features_into_grid(&small, &mut out);
        Ok(out)
    }

    /// Featurizes a frame of `video` through the sparse-render fast path, into a
    /// caller-provided slice of length [`FrameFeaturizer::dim`].
    ///
    /// The representation is what the first layers of a small counting CNN would
    /// compute, made explicit so a modest MLP can learn counting from a few thousand
    /// labeled frames:
    ///
    /// * background-subtracted grid pixels (per-channel deviation from the frame's mean
    ///   color, signed) — carries *where* and *what color* foreground objects are;
    /// * a per-cell L1 deviation map — a color-agnostic occupancy map;
    /// * row and column sums of the deviation map, the total deviation, and the number
    ///   of cells above two occupancy thresholds — pooled features whose magnitude
    ///   scales directly with the number of visible objects;
    /// * optional per-channel statistics over the grid (mean, variance,
    ///   redness/blueness summaries).
    ///
    /// Renders only the `grid_side × grid_side` pixels featurization samples
    /// ([`Video::frame_sampled`]) instead of decoding the full frame — the same
    /// feature vector as featurizing the decoded frame (the tests check this bit
    /// for bit), at a fraction of the per-frame cost. This is the featurization kernel of batched scoring and
    /// of training: each worker fills its rows of the flat feature matrix
    /// directly, with no per-frame buffers of its own.
    pub fn features_for_video_frame_into(
        &self,
        video: &Video,
        frame: FrameIndex,
        out: &mut [f32],
    ) -> Result<()> {
        if out.len() != self.dim() {
            return Err(crate::NnError::ShapeMismatch {
                context: format!("feature buffer of {} for dim {}", out.len(), self.dim()),
            });
        }
        let side = self.config.grid_side;
        let small = video
            .frame_sampled(frame, side, side)
            .map_err(|e| crate::NnError::InvalidConfig(e.to_string()))?;
        self.features_into_grid(&small, out);
        Ok(())
    }

    /// Assembles the feature vector from an already-downsampled `grid_side ×
    /// grid_side` frame into `out` (length [`FrameFeaturizer::dim`]); the shared
    /// back half of the fast paths and of the full-frame test reference
    /// (`features`). Writes every position, in the same order and with the same
    /// arithmetic as the original push-based construction; a channel value's
    /// `v / 255` is read from [`UNIT_F32`] (and [`UNIT_F64`] in the statistics)
    /// rather than divided again for each use.
    fn features_into_grid(&self, small: &Frame, out: &mut [f32]) {
        let side = self.config.grid_side;
        let cells = side * side;
        // Per-channel mean of the downsampled frame (background estimate).
        let n = cells.max(1) as f32;
        let mut mean = [0.0f32; 3];
        for px in small.pixels.chunks_exact(3) {
            for c in 0..3 {
                mean[c] += UNIT_F32[usize::from(px[c])];
            }
        }
        for m in &mut mean {
            *m /= n;
        }

        // Background-subtracted grid pixels.
        for (i, px) in small.pixels.chunks_exact(3).enumerate() {
            for c in 0..3 {
                out[i * 3 + c] = UNIT_F32[usize::from(px[c])] - mean[c];
            }
        }

        let mut cursor = cells * 3;
        if self.config.include_deviation {
            // Color-agnostic occupancy map plus pooled summaries. The deviation
            // map is written straight into its output slot and the pooled sums
            // read it back from there.
            for (d, px) in out[cursor..cursor + cells].iter_mut().zip(small.pixels.chunks_exact(3))
            {
                *d = (0..3).map(|c| (UNIT_F32[usize::from(px[c])] - mean[c]).abs()).sum::<f32>()
                    / 3.0;
            }
            let (head, rest) = out.split_at_mut(cursor + cells);
            let deviation = &head[cursor..];
            let (row_sums, rest) = rest.split_at_mut(side);
            let (col_sums, pooled) = rest.split_at_mut(side);
            row_sums.fill(0.0);
            col_sums.fill(0.0);
            for (i, &d) in deviation.iter().enumerate() {
                row_sums[i / side] += d;
                col_sums[i % side] += d;
            }
            let total: f32 = deviation.iter().sum();
            let occupied_loose = deviation.iter().filter(|&&d| d > 0.05).count() as f32;
            let occupied_tight = deviation.iter().filter(|&&d| d > 0.12).count() as f32;
            pooled[0] = total / 20.0;
            pooled[1] = occupied_loose / 10.0;
            pooled[2] = occupied_tight / 10.0;
            cursor += cells + 2 * side + 3;
        }
        if self.config.include_stats {
            out[cursor..cursor + 8].copy_from_slice(&Self::channel_stats(small));
        }
    }

    /// Per-channel mean/variance and redness/blueness summaries of the grid.
    ///
    /// Computed over the downsampled grid rather than the full frame so that the
    /// entire feature vector depends only on the sampled pixels — the invariant
    /// the sparse-render fast path relies on. (Per-dimension standardization
    /// statistics are computed separately by [`Standardizer::fit`].)
    fn channel_stats(frame: &Frame) -> [f32; 8] {
        let n = frame.num_pixels().max(1) as f64;
        let mut sums = [0.0f64; 3];
        let mut sq = [0.0f64; 3];
        for px in frame.pixels.chunks_exact(3) {
            for c in 0..3 {
                let v = UNIT_F64[usize::from(px[c])];
                sums[c] += v;
                sq[c] += v * v;
            }
        }
        let mean = sums.map(|s| s / n);
        let var = [0, 1, 2].map(|c| (sq[c] / n - mean[c] * mean[c]).max(0.0));
        [
            mean[0] as f32,
            mean[1] as f32,
            mean[2] as f32,
            var[0] as f32,
            var[1] as f32,
            var[2] as f32,
            (mean[0] - (mean[1] + mean[2]) / 2.0) as f32, // redness
            (mean[2] - (mean[0] + mean[1]) / 2.0) as f32, // blueness
        ]
    }
}

/// Per-dimension standardization (zero mean, unit variance), fit on the training set
/// and applied at inference time.
///
/// The raw frame features have a large common-mode component (background, gradient,
/// sensor noise) and a per-object signal that is orders of magnitude smaller; without
/// standardization, SGD settles on the bias-only solution (the training day's count
/// prior) long before it amplifies the per-object signal. Standardizing each dimension
/// with training-set statistics is the moral equivalent of the batch normalization the
/// paper's tiny ResNet uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    means: Vec<f32>,
    inv_stds: Vec<f32>,
}

impl Standardizer {
    /// Fits standardization statistics from the rows of a training feature matrix
    /// (accumulated in `f64`, rows ascending).
    pub fn fit(rows: &Matrix) -> Standardizer {
        let dim = rows.cols();
        let n = rows.rows().max(1) as f64;
        let mut means = vec![0.0f64; dim];
        for row in rows.data().chunks_exact(dim.max(1)) {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += f64::from(v);
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0f64; dim];
        for row in rows.data().chunks_exact(dim.max(1)) {
            for ((v, &x), m) in vars.iter_mut().zip(row).zip(&means) {
                let d = f64::from(x) - m;
                *v += d * d;
            }
        }
        let inv_stds = vars
            .iter()
            .map(|v| {
                let std = (v / n).sqrt();
                if std < 1e-4 {
                    0.0 // constant feature: zero it out rather than amplify noise
                } else {
                    (1.0 / std) as f32
                }
            })
            .collect();
        Standardizer { means: means.into_iter().map(|m| m as f32).collect(), inv_stds }
    }

    /// Reassembles a standardizer from its statistics (the persistence path).
    pub fn from_parts(means: Vec<f32>, inv_stds: Vec<f32>) -> crate::Result<Standardizer> {
        if means.len() != inv_stds.len() {
            return Err(crate::NnError::ShapeMismatch {
                context: format!("{} means vs {} inverse stds", means.len(), inv_stds.len()),
            });
        }
        Ok(Standardizer { means, inv_stds })
    }

    /// The per-dimension means subtracted before scaling.
    pub fn means(&self) -> &[f32] {
        &self.means
    }

    /// The per-dimension inverse standard deviations (0 for constant features).
    pub fn inv_stds(&self) -> &[f32] {
        &self.inv_stds
    }

    /// The feature dimensionality this standardizer was fit on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Standardizes one feature vector in place.
    pub fn transform_in_place(&self, features: &mut [f32]) {
        for ((x, m), inv) in features.iter_mut().zip(&self.means).zip(&self.inv_stds) {
            *x = (*x - m) * inv;
        }
    }

    /// Standardizes every row of a feature matrix in place.
    pub fn transform_rows_in_place(&self, rows: &mut Matrix) {
        let cols = rows.cols().max(1);
        rows.data_mut().chunks_exact_mut(cols).for_each(|row| self.transform_in_place(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazeit_videostore::{DatasetPreset, ObjectClass, DAY_TEST, DAY_TRAIN};

    #[test]
    fn unit_tables_equal_the_division_bit_for_bit() {
        for v in 0..=255u8 {
            let i = usize::from(v);
            assert_eq!(UNIT_F32[i].to_bits(), (v as f32 / 255.0).to_bits(), "f32 entry {v}");
            assert_eq!(UNIT_F64[i].to_bits(), (v as f64 / 255.0).to_bits(), "f64 entry {v}");
        }
    }

    /// The feature assembly as it was before the lookup tables: every channel
    /// value divided by 255 where it is read.
    fn features_by_division(config: FeatureConfig, small: &Frame) -> Vec<f32> {
        let side = config.grid_side;
        let cells = side * side;
        let n = cells.max(1) as f32;
        let mut mean = [0.0f32; 3];
        for px in small.pixels.chunks_exact(3) {
            for c in 0..3 {
                mean[c] += px[c] as f32 / 255.0;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut out = Vec::new();
        for px in small.pixels.chunks_exact(3) {
            for c in 0..3 {
                out.push(px[c] as f32 / 255.0 - mean[c]);
            }
        }
        if config.include_deviation {
            let deviation: Vec<f32> = small
                .pixels
                .chunks_exact(3)
                .map(|px| (0..3).map(|c| (px[c] as f32 / 255.0 - mean[c]).abs()).sum::<f32>() / 3.0)
                .collect();
            let (mut row_sums, mut col_sums) = (vec![0.0f32; side], vec![0.0f32; side]);
            for (i, &d) in deviation.iter().enumerate() {
                row_sums[i / side] += d;
                col_sums[i % side] += d;
            }
            let total: f32 = deviation.iter().sum();
            let loose = deviation.iter().filter(|&&d| d > 0.05).count() as f32;
            let tight = deviation.iter().filter(|&&d| d > 0.12).count() as f32;
            out.extend(deviation.iter().chain(&row_sums).chain(&col_sums));
            out.extend([total / 20.0, loose / 10.0, tight / 10.0]);
        }
        if config.include_stats {
            let n = small.num_pixels().max(1) as f64;
            let (mut sums, mut sq) = ([0.0f64; 3], [0.0f64; 3]);
            for px in small.pixels.chunks_exact(3) {
                for c in 0..3 {
                    let v = px[c] as f64 / 255.0;
                    sums[c] += v;
                    sq[c] += v * v;
                }
            }
            let mean = sums.map(|s| s / n);
            let var = [0, 1, 2].map(|c| (sq[c] / n - mean[c] * mean[c]).max(0.0));
            out.extend(mean.map(|m| m as f32));
            out.extend(var.map(|v| v as f32));
            out.push((mean[0] - (mean[1] + mean[2]) / 2.0) as f32);
            out.push((mean[2] - (mean[0] + mean[1]) / 2.0) as f32);
        }
        out
    }

    #[test]
    fn table_assembly_matches_the_division_assembly_bit_for_bit() {
        let featurizer = FrameFeaturizer::default();
        let side = featurizer.config().grid_side;
        let mut fast = vec![0.0f32; featurizer.dim()];
        let presets = [DatasetPreset::Taipei, DatasetPreset::NightStreet, DatasetPreset::Amsterdam];
        for preset in presets {
            for day in [DAY_TRAIN, DAY_TEST] {
                let video = preset.generate_with_frames(day, 300).unwrap();
                for f in 0..300 {
                    let small = video.frame_sampled(f, side, side).unwrap();
                    featurizer.features_into_grid(&small, &mut fast);
                    let slow = features_by_division(featurizer.config(), &small);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&fast), bits(&slow), "{preset:?} day {day} frame {f}");
                }
            }
        }
    }

    #[test]
    fn standardizer_zero_means_and_unit_variance() {
        let rows = [[1.0f32, 100.0, 5.0], [2.0, 200.0, 5.0], [3.0, 300.0, 5.0], [4.0, 400.0, 5.0]];
        let mut transformed = Matrix::from_vec(4, 3, rows.concat()).unwrap();
        let st = Standardizer::fit(&transformed);
        assert_eq!(st.dim(), 3);
        st.transform_rows_in_place(&mut transformed);
        let transformed: Vec<&[f32]> = transformed.data().chunks_exact(3).collect();
        for d in 0..2 {
            let mean: f32 = transformed.iter().map(|r| r[d]).sum::<f32>() / 4.0;
            let var: f32 = transformed.iter().map(|r| r[d] * r[d]).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-4, "dim {d} var {var}");
        }
        // The constant dimension is zeroed, not blown up.
        assert!(transformed.iter().all(|r| r[2] == 0.0));
    }

    #[test]
    fn feature_dimension_matches_config() {
        let f = FrameFeaturizer::new(FeatureConfig {
            grid_side: 8,
            include_stats: true,
            include_deviation: true,
        });
        assert_eq!(f.dim(), 8 * 8 * 3 + (8 * 8 + 2 * 8 + 3) + 8);
        let plain = FrameFeaturizer::new(FeatureConfig {
            grid_side: 8,
            include_stats: false,
            include_deviation: false,
        });
        assert_eq!(plain.dim(), 8 * 8 * 3);
    }

    #[test]
    fn features_have_declared_length_and_range() {
        let video = DatasetPreset::Taipei.generate_with_frames(DAY_TEST, 500).unwrap();
        let featurizer = FrameFeaturizer::default();
        let frame = video.frame(123).unwrap();
        let feats = featurizer.features(&frame).unwrap();
        assert_eq!(feats.len(), featurizer.dim());
        // Background-subtracted values are small; pooled sums are bounded by the grid size.
        assert!(feats.iter().all(|&x| x.is_finite() && x.abs() <= 20.0));
    }

    #[test]
    fn fast_path_features_match_full_frame_features() {
        // The sparse-render fast path must produce exactly the features the
        // decode-then-featurize path produces — it is what makes batched
        // scoring a pure performance change.
        let video = DatasetPreset::Taipei.generate_with_frames(DAY_TEST, 400).unwrap();
        let featurizer = FrameFeaturizer::default();
        for f in (0..400).step_by(29) {
            let slow = featurizer.features(&video.frame(f).unwrap()).unwrap();
            let mut fast = vec![0.0f32; featurizer.dim()];
            featurizer.features_for_video_frame_into(&video, f, &mut fast).unwrap();
            assert_eq!(slow, fast, "fast-path features diverge at frame {f}");
        }
    }

    #[test]
    fn features_are_deterministic() {
        let video = DatasetPreset::Taipei.generate_with_frames(DAY_TEST, 500).unwrap();
        let featurizer = FrameFeaturizer::default();
        let frame = video.frame(321).unwrap();
        assert_eq!(featurizer.features(&frame).unwrap(), featurizer.features(&frame).unwrap());
    }

    #[test]
    fn busy_frames_differ_from_empty_frames() {
        // Find an empty frame and a busy frame; their features must differ substantially.
        let video = DatasetPreset::Taipei.generate_with_frames(DAY_TEST, 4_000).unwrap();
        let featurizer = FrameFeaturizer::default();
        let mut empty = None;
        let mut busy = None;
        for f in 0..4_000 {
            let count = video.ground_truth_count(f, ObjectClass::Car).unwrap();
            if count == 0 && empty.is_none() {
                empty = Some(f);
            }
            if count >= 3 && busy.is_none() {
                busy = Some(f);
            }
            if empty.is_some() && busy.is_some() {
                break;
            }
        }
        let (e, b) = (empty.expect("empty frame"), busy.expect("busy frame"));
        let fe = featurizer.features(&video.frame(e).unwrap()).unwrap();
        let fb = featurizer.features(&video.frame(b).unwrap()).unwrap();
        let dist: f32 = fe.iter().zip(&fb).map(|(a, b)| (a - b).abs()).sum();
        assert!(dist > 1.0, "feature distance between empty and busy frame was {dist}");
    }
}
