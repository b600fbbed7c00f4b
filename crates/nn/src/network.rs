//! The sequential multi-layer network with grouped softmax heads.

// blazeit-lint: allow-file(panic-site::index) -- forward/backward kernels: layer buffers are sized
// from the network's own topology at construction

use crate::layers::{softmax_segments_into, Dense};
use crate::loss::{grouped_cross_entropy, HeadLayout};
use crate::optimizer::{SgdConfig, SgdState};
use crate::score::ScoreMatrix;
use crate::tensor::{at_host_width, Matrix};
use crate::{NnError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Reusable buffers for batched inference forward passes.
///
/// [`Network::logits_batch`] ping-pongs layer activations between the two
/// matrices held here, so a steady-state forward pass over a batch performs no
/// allocation and no per-layer clones. Create one scratch per scoring loop and
/// reuse it across batches; buffers grow to the largest batch seen and stay
/// there.
#[derive(Debug, Default)]
pub struct ForwardScratch {
    bufs: [Matrix; 2],
}

/// Every buffer one training run needs, owned by [`Trainer::fit`](crate::train::Trainer::fit)
/// for the length of the run: each layer's output, two ping-pong matrices for the
/// backpropagated delta, each layer's parameter gradients, and the SGD velocities.
///
/// [`Network::train_step`] allocates nothing once these have grown to the batch size,
/// and because the optimizer state lives here — created zeroed from the
/// [`SgdConfig`] in hand — a trained [`Network`] carries its weights and nothing else.
#[derive(Debug)]
pub struct TrainScratch {
    /// `activations[l]` is layer `l`'s output for the current batch.
    activations: Vec<Matrix>,
    deltas: [Matrix; 2],
    /// `(d_weights, d_bias)` per layer, before the clip's scale is applied.
    gradients: Vec<(Matrix, Matrix)>,
    /// `(weights, bias)` momentum state per layer.
    optimizer: Vec<(SgdState, SgdState)>,
}

impl TrainScratch {
    /// Zero-velocity scratch for training `network` with `sgd`.
    pub fn new(network: &Network, sgd: SgdConfig) -> TrainScratch {
        let layers = &network.layers;
        TrainScratch {
            activations: layers.iter().map(|_| Matrix::default()).collect(),
            deltas: Default::default(),
            gradients: layers.iter().map(|_| Default::default()).collect(),
            optimizer: layers
                .iter()
                .map(|l| {
                    (
                        SgdState::new(l.weights.rows(), l.weights.cols(), sgd),
                        SgdState::new(1, l.bias.cols(), sgd),
                    )
                })
                .collect(),
        }
    }
}

/// Architecture of a specialized network: input size, hidden sizes and output heads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Hidden layer widths (each followed by a ReLU). The paper's "tiny ResNet" has 10
    /// layers at 65x65 input; an MLP with one or two modest hidden layers on extracted
    /// frame features plays the same role here.
    pub hidden: Vec<usize>,
    /// Output heads: the number of classes of each softmax head.
    pub heads: HeadLayout,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl NetworkConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.input_dim == 0 {
            return Err(NnError::InvalidConfig("input_dim must be positive".into()));
        }
        if self.heads.is_empty() || self.heads.iter().any(|&h| h < 2) {
            return Err(NnError::InvalidConfig("every head needs at least 2 classes".into()));
        }
        if self.hidden.contains(&0) {
            return Err(NnError::InvalidConfig("hidden widths must be positive".into()));
        }
        Ok(())
    }

    /// Total output width (sum of head sizes).
    pub fn output_dim(&self) -> usize {
        self.heads.iter().sum()
    }
}

/// A feed-forward network with ReLU hidden layers and grouped softmax output heads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    config: NetworkConfig,
    layers: Vec<Dense>,
}

impl Network {
    /// Builds a network with freshly initialized weights.
    pub fn new(config: NetworkConfig) -> Result<Network> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut dims = vec![config.input_dim];
        dims.extend(&config.hidden);
        dims.push(config.output_dim());
        let mut layers = Vec::new();
        for i in 0..dims.len() - 1 {
            let is_last = i == dims.len() - 2;
            layers.push(Dense::new(dims[i], dims[i + 1], !is_last, &mut rng));
        }
        Ok(Network { config, layers })
    }

    /// Reassembles a network from a configuration and its layers (the persistence
    /// path). Layer shapes must match the architecture `config` describes.
    pub fn from_parts(config: NetworkConfig, layers: Vec<Dense>) -> Result<Network> {
        config.validate()?;
        let mut dims = vec![config.input_dim];
        dims.extend(&config.hidden);
        dims.push(config.output_dim());
        if layers.len() != dims.len() - 1 {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "{} layers for an architecture of {}",
                    layers.len(),
                    dims.len() - 1
                ),
            });
        }
        for (i, layer) in layers.iter().enumerate() {
            let is_last = i == dims.len() - 2;
            if layer.input_dim() != dims[i] || layer.output_dim() != dims[i + 1] {
                return Err(NnError::ShapeMismatch {
                    context: format!(
                        "layer {i} is {}x{}, architecture wants {}x{}",
                        layer.input_dim(),
                        layer.output_dim(),
                        dims[i],
                        dims[i + 1]
                    ),
                });
            }
            if layer.relu == is_last {
                return Err(NnError::ShapeMismatch {
                    context: format!("layer {i} has relu={}, architecture disagrees", layer.relu),
                });
            }
        }
        Ok(Network { config, layers })
    }

    /// The network's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The layers, input to output (read-only; the persistence path serializes them).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Forward pass producing raw logits (no caching; safe for concurrent inference).
    pub fn logits(&self, input: &Matrix) -> Result<Matrix> {
        let mut scratch = ForwardScratch::default();
        Ok(self.logits_batch(input, &mut scratch)?.clone())
    }

    /// Batched forward pass into reusable scratch buffers, returning the logits.
    ///
    /// Unlike [`Network::logits`], no matrix is allocated once `scratch` has
    /// warmed up: activations ping-pong between the two scratch buffers, and the
    /// returned reference points at whichever holds the final layer's output.
    /// This is the inner loop of
    /// [`SpecializedNN::score_batch`](crate::specialized::SpecializedNN::score_batch)
    /// and produces bit-identical logits to the row-at-a-time path.
    pub fn logits_batch<'s>(
        &self,
        input: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> Result<&'s Matrix> {
        let (first, rest) = self
            .layers
            .split_first()
            .ok_or_else(|| NnError::InvalidConfig("network has no layers".into()))?;
        first.forward_into(input, &mut scratch.bufs[0])?;
        let mut cur = 0usize;
        for layer in rest {
            let (a, b) = scratch.bufs.split_at_mut(1);
            let (src, dst) = if cur == 0 { (&a[0], &mut b[0]) } else { (&b[0], &mut a[0]) };
            layer.forward_into(src, dst)?;
            cur ^= 1;
        }
        Ok(&scratch.bufs[cur])
    }

    /// Per-head softmax scores for a batch, as a [`ScoreMatrix`].
    ///
    /// Row `r` of the result holds the grouped-softmax probabilities of example
    /// `r`. Softmax is applied per head segment with the same max-shift /
    /// exponentiate / normalize sequence the nested API uses, so the two agree
    /// element-wise.
    pub fn predict_scores(
        &self,
        input: &Matrix,
        scratch: &mut ForwardScratch,
    ) -> Result<ScoreMatrix> {
        let mut scores = ScoreMatrix::empty(self.config.heads.clone());
        self.append_scores(input, scratch, &mut scores)?;
        Ok(scores)
    }

    /// Scores a batch and appends its rows to an existing [`ScoreMatrix`] (the
    /// whole-video indexing loop grows one index batch by batch).
    pub fn append_scores(
        &self,
        input: &Matrix,
        scratch: &mut ForwardScratch,
        scores: &mut ScoreMatrix,
    ) -> Result<()> {
        if scores.head_sizes() != self.config.heads.as_slice() {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "score matrix heads {:?} vs network heads {:?}",
                    scores.head_sizes(),
                    self.config.heads
                ),
            });
        }
        let logits = self.logits_batch(input, scratch)?;
        scores.push_rows_with(logits.rows(), |r, row| {
            softmax_segments_into(logits.row(r), &self.config.heads, row)
        });
        Ok(())
    }

    /// Per-head softmax probabilities for a batch in the nested
    /// `probs[example][head][class]` layout — the same numbers as
    /// [`Network::predict_scores`].
    #[cfg(test)]
    pub(crate) fn predict_probs(&self, input: &Matrix) -> Result<Vec<Vec<Vec<f32>>>> {
        let mut scratch = ForwardScratch::default();
        let scores = self.predict_scores(input, &mut scratch)?;
        Ok((0..scores.num_frames()).map(|r| scores.frame_probs(r)).collect())
    }

    /// Argmax class per head for each example (NaN-safe).
    #[cfg(test)]
    fn predict_classes(&self, input: &Matrix) -> Result<Vec<Vec<usize>>> {
        let mut scratch = ForwardScratch::default();
        let scores = self.predict_scores(input, &mut scratch)?;
        Ok((0..scores.num_frames())
            .map(|r| (0..scores.num_heads()).map(|h| scores.argmax_count(r, h)).collect())
            .collect())
    }

    /// Runs one SGD step on a mini-batch, returning the batch loss.
    ///
    /// `labels[r * num_heads + h]` is the target class of head `h` for example `r`.
    /// `scratch` must come from [`TrainScratch::new`] on this network. Charges
    /// nothing: [`SpecializedNN::train`](crate::specialized::SpecializedNN::train)
    /// pays for every example-visit of the [`Trainer::fit`](crate::train::Trainer::fit)
    /// loop this runs in.
    ///
    /// The arithmetic is pinned bit for bit by the test module's `reference_step`:
    /// forward through [`Dense::forward_into`], the loss gradient written straight
    /// into the delta buffer, then per layer (last first) `dW = inputᵀ·Δ` and
    /// `Δ' = Δ·Wᵀ` read the transposed operand in place — and the first layer,
    /// whose input gradient nobody reads, computes none. The global-norm clip
    /// skips its exact norm on steps where a certified bound shows it cannot fire
    /// (`clip_scale`); the scale it applies is the reference's, bit for bit.
    pub fn train_step(
        &mut self,
        input: &Matrix,
        labels: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<f32> {
        let TrainScratch { activations, deltas, gradients, optimizer } = scratch;
        let depth = self.layers.len();
        if depth == 0 || [activations.len(), gradients.len(), optimizer.len()] != [depth; 3] {
            return Err(NnError::InvalidConfig(
                "training scratch was built for another network".into(),
            ));
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let (before, rest) = activations.split_at_mut(l);
            layer.forward_into(before.last().unwrap_or(input), &mut rest[0])?;
        }
        let [delta, next_delta] = deltas;
        let loss =
            grouped_cross_entropy(&activations[depth - 1], labels, &self.config.heads, delta)?;

        for (l, layer) in self.layers.iter().enumerate().rev() {
            if layer.relu {
                // Gradient through the ReLU: the output is positive exactly where
                // the pre-activation was (NaN clamps to 0 and compares false).
                for (d, &a) in delta.data_mut().iter_mut().zip(activations[l].data()) {
                    *d *= if a > 0.0 { 1.0 } else { 0.0 };
                }
            }
            let (d_weights, d_bias) = &mut gradients[l];
            let layer_input = if l == 0 { input } else { &activations[l - 1] };
            layer_input.matmul_at_b_into(delta, d_weights)?;
            d_bias.reset_zeroed(1, delta.cols());
            for row in delta.data().chunks_exact(delta.cols().max(1)) {
                for (sum, &d) in d_bias.data_mut().iter_mut().zip(row) {
                    *sum += d;
                }
            }
            if l > 0 {
                delta.matmul_a_bt_into(&layer.weights, next_delta)?;
                std::mem::swap(delta, next_delta);
            }
        }

        let scale = clip_scale(gradients);
        for ((layer, (d_weights, d_bias)), (w_state, b_state)) in
            self.layers.iter_mut().zip(gradients.iter()).zip(optimizer.iter_mut())
        {
            w_state.step(&mut layer.weights, d_weights, scale)?;
            b_state.step(&mut layer.bias, d_bias, scale)?;
        }
        Ok(loss)
    }

    /// Fraction of examples where every head's argmax matches its label
    /// (`labels[r * num_heads + h]`).
    #[cfg(test)]
    pub(crate) fn accuracy(&self, input: &Matrix, labels: &[usize]) -> Result<f64> {
        let preds = self.predict_classes(input)?;
        let heads = self.config.heads.len();
        if preds.len() * heads != labels.len() {
            return Err(NnError::ShapeMismatch {
                context: format!("{} predictions vs {} labels", preds.len(), labels.len()),
            });
        }
        if preds.is_empty() {
            return Ok(0.0);
        }
        let correct = preds.iter().zip(labels.chunks(heads)).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / preds.len() as f64)
    }
}

/// The global gradient-norm threshold of [`clip_scale`].
const CLIP: f32 = 5.0;

/// The gradient scale of the global-norm clip, bit for bit [`exact_clip_scale`].
/// Global gradient-norm clipping keeps training stable at higher learning rates
/// (standardized features produce occasional large batch gradients), but on most
/// steps the norm is far below [`CLIP`]: there [`clip_cannot_fire`] proves the
/// answer is `1.0` from a vectorised bound, and the exact norm — one sequential
/// `f32` chain over every gradient element — runs only on the steps it cannot
/// decide. An evaluation shortcut: the definition does not change.
fn clip_scale(gradients: &[(Matrix, Matrix)]) -> f32 {
    if clip_cannot_fire(gradients) {
        1.0
    } else {
        exact_clip_scale(gradients)
    }
}

/// The clip's definition: `CLIP / total_norm` when the global norm exceeds
/// [`CLIP`], else `1.0` (a NaN norm included). The per-tensor sqrt-then-square
/// is not the identity in `f32`; it stays.
fn exact_clip_scale(gradients: &[(Matrix, Matrix)]) -> f32 {
    let total_norm: f32 =
        gradients.iter().map(|(w, b)| w.norm().powi(2) + b.norm().powi(2)).sum::<f32>().sqrt();
    if total_norm > CLIP {
        CLIP / total_norm
    } else {
        1.0
    }
}

/// Whether [`exact_clip_scale`] provably returns `1.0`, decided from the exact
/// sum of squares `T` without the exact path's rounding.
///
/// With `u = 2⁻²⁴`, any term of the exact path meets at most `N + L + 3`
/// roundings (`N` the longest tensor, `L` the layer count): its square and the
/// tensor's running sum (`N`), the tensor norm's `sqrt` and square (3, the root's
/// error counting twice), the weight + bias add (1) and the sum over layers
/// (`L − 1`). Every term is non-negative, so the value `T̂` the exact path takes
/// the root of obeys `T̂ ≤ T·(1 + γ)` with `γ = k·u / (1 − k·u)`, `k = N + 2L + 3`.
/// If `T̂ ≤ 25`, its correctly rounded root is at most `5`, which does not
/// exceed [`CLIP`]. `T` itself is summed in `f64`, where `f32` squares are
/// exact: the sum's own relative error (below `M·2⁻⁵³` for `M ≤ 2·L·N`
/// elements), this comparison's roundings and subnormal squares' absolute error
/// fit many times over in the margin's second `γ`. A NaN or infinite sum fails
/// the test and takes the exact path.
fn clip_cannot_fire(gradients: &[(Matrix, Matrix)]) -> bool {
    let Some(gamma) = exact_norm_error_bound(gradients) else {
        return false;
    };
    // A plain loop: an iterator adaptor here would not be inlined into the
    // wide instantiation.
    let sum = at_host_width(
        #[inline(always)]
        || {
            let mut sum = 0.0f64;
            for (w, b) in gradients {
                sum += sum_of_squares(w.data()) + sum_of_squares(b.data());
            }
            sum
        },
    );
    sum.is_finite() && sum * (1.0 + 2.0 * gamma) < f64::from(CLIP * CLIP)
}

/// [`clip_cannot_fire`]'s `γ`: the exact path's relative error bound on its sum
/// of squares, `None` where the rounding count reaches `1 / u`.
fn exact_norm_error_bound(gradients: &[(Matrix, Matrix)]) -> Option<f64> {
    let longest = gradients.iter().map(|(w, b)| w.data().len().max(b.data().len())).max();
    let roundings = longest.unwrap_or(0) + 2 * gradients.len() + 3;
    let ku = roundings as f64 * f64::from(f32::EPSILON) / 2.0;
    (ku < 1.0).then(|| ku / (1.0 - ku))
}

/// `Σ x²` in `f64`, over 16 independent accumulators so that the compiler runs
/// it in vector lanes.
#[inline(always)]
fn sum_of_squares(values: &[f32]) -> f64 {
    const LANES: usize = 16;
    let mut acc = [0.0f64; LANES];
    let chunks = values.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a += f64::from(x) * f64::from(x);
        }
    }
    for (a, &x) in acc.iter_mut().zip(tail) {
        *a += f64::from(x) * f64::from(x);
    }
    acc.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn xor_like_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        // Two clusters that are linearly separable with margin, plus noise.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let class: usize = rng.gen_range(0..2);
            let center = if class == 0 { -1.0 } else { 1.0 };
            rows.push(vec![
                center + rng.gen_range(-0.3..0.3),
                -center + rng.gen_range(-0.3..0.3),
                rng.gen_range(-0.1..0.1),
            ]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn config_validation() {
        let bad = NetworkConfig { input_dim: 0, hidden: vec![4], heads: vec![2], seed: 0 };
        assert!(Network::new(bad).is_err());
        let bad_head = NetworkConfig { input_dim: 3, hidden: vec![], heads: vec![1], seed: 0 };
        assert!(Network::new(bad_head).is_err());
    }

    #[test]
    fn forward_shapes_and_prob_normalization() {
        let net = Network::new(NetworkConfig {
            input_dim: 5,
            hidden: vec![8],
            heads: vec![3, 2],
            seed: 42,
        })
        .unwrap();
        let x = Matrix::zeros(4, 5);
        let probs = net.predict_probs(&x).unwrap();
        assert_eq!(probs.len(), 4);
        assert_eq!(probs[0].len(), 2);
        assert_eq!(probs[0][0].len(), 3);
        assert_eq!(probs[0][1].len(), 2);
        for heads in &probs {
            for head in heads {
                let s: f32 = head.iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
        assert!(net.num_params() > 0);
    }

    #[test]
    fn training_learns_separable_data() {
        let (x, y) = xor_like_data(400, 3);
        let mut net =
            Network::new(NetworkConfig { input_dim: 3, hidden: vec![16], heads: vec![2], seed: 7 })
                .unwrap();
        let sgd = SgdConfig { learning_rate: 0.1, momentum: 0.9, weight_decay: 0.0 };
        let mut scratch = TrainScratch::new(&net, sgd);
        let initial_acc = net.accuracy(&x, &y).unwrap();
        for _ in 0..30 {
            net.train_step(&x, &y, &mut scratch).unwrap();
        }
        let final_acc = net.accuracy(&x, &y).unwrap();
        assert!(final_acc > 0.95, "accuracy only reached {final_acc} (started at {initial_acc})");
    }

    #[test]
    fn training_reduces_loss() {
        let (x, y) = xor_like_data(200, 9);
        let mut net =
            Network::new(NetworkConfig { input_dim: 3, hidden: vec![8], heads: vec![2], seed: 1 })
                .unwrap();
        let mut scratch = TrainScratch::new(&net, SgdConfig::default());
        let first = net.train_step(&x, &y, &mut scratch).unwrap();
        let mut last = first;
        for _ in 0..20 {
            last = net.train_step(&x, &y, &mut scratch).unwrap();
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn multi_head_training_learns_both_heads() {
        // Head 0 depends on feature 0; head 1 depends on feature 1.
        let mut rng = StdRng::seed_from_u64(11);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..400 {
            let a: usize = rng.gen_range(0..2);
            let b: usize = rng.gen_range(0..3);
            rows.push(vec![
                a as f32 * 2.0 - 1.0 + rng.gen_range(-0.2..0.2),
                b as f32 - 1.0 + rng.gen_range(-0.2..0.2),
            ]);
            labels.extend([a, b]);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut net = Network::new(NetworkConfig {
            input_dim: 2,
            hidden: vec![16],
            heads: vec![2, 3],
            seed: 5,
        })
        .unwrap();
        let sgd = SgdConfig { learning_rate: 0.1, momentum: 0.9, weight_decay: 0.0 };
        let mut scratch = TrainScratch::new(&net, sgd);
        for _ in 0..60 {
            net.train_step(&x, &labels, &mut scratch).unwrap();
        }
        assert!(net.accuracy(&x, &labels).unwrap() > 0.9);
    }

    /// The definition of one SGD step, and with it of the summation order every
    /// kernel must reproduce: plain loops, every sum over ascending `k` from
    /// `0.0`, separate multiplies and adds. Returns the loss and whether the
    /// clip fired; `velocities[l]` is layer `l`'s `(weights, bias)` momentum.
    fn reference_step(
        net: &mut Network,
        x: &Matrix,
        labels: &[usize],
        velocities: &mut [(Vec<f32>, Vec<f32>)],
        sgd: SgdConfig,
    ) -> (f32, bool) {
        let batch = x.rows();
        // Forward: pre = act · W + b, act' = max(pre, 0) on hidden layers.
        let mut acts = vec![x.data().to_vec()];
        let mut pres = Vec::new();
        for layer in &net.layers {
            let (k_dim, n) = (layer.input_dim(), layer.output_dim());
            let (w, b, input) = (layer.weights.data(), layer.bias.data(), &acts[acts.len() - 1]);
            let mut pre = vec![0.0f32; batch * n];
            for r in 0..batch {
                for j in 0..n {
                    let mut sum = 0.0f32;
                    for k in 0..k_dim {
                        sum += input[r * k_dim + k] * w[k * n + j];
                    }
                    pre[r * n + j] = sum + b[j];
                }
            }
            acts.push(if layer.relu {
                pre.iter().map(|p| p.max(0.0)).collect()
            } else {
                pre.clone()
            });
            pres.push(pre);
        }
        // Grouped softmax cross-entropy and its gradient, averaged over the batch.
        let heads = net.config.heads.clone();
        let total: usize = heads.iter().sum();
        let logits = &acts[acts.len() - 1];
        let mut delta = vec![0.0f32; batch * total];
        let mut loss = 0.0f64;
        for r in 0..batch {
            let mut offset = 0;
            for (h, &size) in heads.iter().enumerate() {
                let seg = &logits[r * total + offset..r * total + offset + size];
                let max = seg.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mut probs: Vec<f32> = seg.iter().map(|&x| (x - max).exp()).collect();
                let mut sum = 0.0f32;
                for &e in &probs {
                    sum += e;
                }
                if sum > 0.0 {
                    probs.iter_mut().for_each(|p| *p /= sum);
                }
                let label = labels[r * heads.len() + h];
                loss -= f64::from(probs[label].max(1e-12).ln());
                for c in 0..size {
                    let indicator = if c == label { 1.0 } else { 0.0 };
                    delta[r * total + offset + c] = (probs[c] - indicator) / batch as f32;
                }
                offset += size;
            }
        }
        let loss = (loss / (batch as f64 * heads.len() as f64)) as f32;
        // Backward, last layer first: dW = inputᵀ · d_pre, db = column sums of
        // d_pre, d_input = d_pre · Wᵀ.
        let mut grads = Vec::new();
        for (l, layer) in net.layers.iter().enumerate().rev() {
            let (k_dim, n) = (layer.input_dim(), layer.output_dim());
            if layer.relu {
                for (d, &p) in delta.iter_mut().zip(&pres[l]) {
                    *d *= if p > 0.0 { 1.0 } else { 0.0 };
                }
            }
            let (w, input) = (layer.weights.data(), &acts[l]);
            let mut d_w = vec![0.0f32; k_dim * n];
            let mut d_b = vec![0.0f32; n];
            let mut d_input = vec![0.0f32; batch * k_dim];
            for r in 0..batch {
                for j in 0..n {
                    d_b[j] += delta[r * n + j];
                    for i in 0..k_dim {
                        d_w[i * n + j] += input[r * k_dim + i] * delta[r * n + j];
                    }
                }
                for i in 0..k_dim {
                    for j in 0..n {
                        d_input[r * k_dim + i] += delta[r * n + j] * w[i * n + j];
                    }
                }
            }
            grads.push((d_w, d_b));
            delta = d_input;
        }
        grads.reverse();
        // Global-norm clip at 5: per-tensor sqrt-then-square, summed in layer order.
        let norm = |g: &[f32]| {
            let mut sum = 0.0f32;
            for &x in g {
                sum += x * x;
            }
            sum.sqrt()
        };
        let mut total_norm = 0.0f32;
        for (d_w, d_b) in &grads {
            total_norm += norm(d_w).powi(2) + norm(d_b).powi(2);
        }
        let total_norm = total_norm.sqrt();
        let clipped = total_norm > 5.0;
        let scale = if clipped { 5.0 / total_norm } else { 1.0 };
        // SGD with momentum and L2 weight decay.
        let update = |param: &mut [f32], grad: &[f32], velocity: &mut [f32]| {
            for ((p, &g), v) in param.iter_mut().zip(grad).zip(velocity) {
                let effective = g * scale + *p * sgd.weight_decay;
                *v = *v * sgd.momentum - effective * sgd.learning_rate;
                *p += *v;
            }
        };
        for ((layer, (d_w, d_b)), (v_w, v_b)) in net.layers.iter_mut().zip(&grads).zip(velocities) {
            update(layer.weights.data_mut(), d_w, v_w);
            update(layer.bias.data_mut(), d_b, v_b);
        }
        (loss, clipped)
    }

    fn parameter_bits(net: &Network) -> Vec<u32> {
        net.layers
            .iter()
            .flat_map(|l| l.weights.data().iter().chain(l.bias.data()))
            .map(|x| x.to_bits())
            .collect()
    }

    /// The step that trains production networks against the reference above,
    /// bit for bit after every step: four architectures (one, two and no hidden
    /// layers; one and two heads; the production input width), 300 random
    /// batches each, every 7th a ragged batch of 5.
    #[test]
    fn train_step_matches_the_reference_bit_for_bit() {
        let architectures: [(usize, Vec<usize>, Vec<usize>, f32); 4] = [
            (611, vec![32], vec![5], 1.5),
            (611, vec![32], vec![4, 3], 1.5),
            (37, vec![16, 8], vec![2, 6], 4.0),
            (20, vec![], vec![3], 5.0),
        ];
        let sgd = SgdConfig::default();
        for (a, (input_dim, hidden, heads, spread)) in architectures.into_iter().enumerate() {
            let config =
                NetworkConfig { input_dim, hidden, heads: heads.clone(), seed: 40 + a as u64 };
            let mut net = Network::new(config.clone()).unwrap();
            let mut scratch = TrainScratch::new(&net, sgd);
            let mut reference = Network::new(config).unwrap();
            let mut velocities: Vec<(Vec<f32>, Vec<f32>)> = reference
                .layers
                .iter()
                .map(|l| (vec![0.0; l.weights.data().len()], vec![0.0; l.bias.data().len()]))
                .collect();
            let mut rng = StdRng::seed_from_u64(900 + a as u64);
            let (mut fired, mut idle, mut skipped) = (0usize, 0usize, 0usize);
            for step in 0..300 {
                let batch = if step % 7 == 6 { 5 } else { 16 };
                let mut x = Matrix::zeros(batch, input_dim);
                x.data_mut().iter_mut().for_each(|v| *v = rng.gen_range(-spread..spread));
                let labels: Vec<usize> = (0..batch * heads.len())
                    .map(|i| rng.gen_range(0..heads[i % heads.len()]))
                    .collect();
                let loss = net.train_step(&x, &labels, &mut scratch).unwrap();
                skipped += usize::from(clip_cannot_fire(&scratch.gradients));
                let (expected, clipped) =
                    reference_step(&mut reference, &x, &labels, &mut velocities, sgd);
                assert_eq!(loss.to_bits(), expected.to_bits(), "arch {a} step {step}: loss");
                assert_eq!(
                    parameter_bits(&net),
                    parameter_bits(&reference),
                    "arch {a} step {step}: parameters"
                );
                if clipped {
                    fired += 1;
                } else {
                    idle += 1;
                }
            }
            // `spread` is chosen so both sides of the clip branch are compared,
            // and both ways of deciding it: the bound alone and the exact norm.
            assert!(fired > 0 && idle > 0, "arch {a}: clip fired {fired}, idled {idle}");
            let exact = fired + idle - skipped;
            assert!(skipped > 0 && exact > 0, "arch {a}: bound decided {skipped}, exact {exact}");
        }
    }

    /// Random gradients shaped `(weights, bias)` per layer, scaled so that their
    /// exact sum of squares is `target` to within the scaling's own rounding.
    fn gradients_summing_to(
        shapes: &[((usize, usize), usize)],
        target: f64,
        rng: &mut StdRng,
    ) -> Vec<(Matrix, Matrix)> {
        let mut random = |rows: usize, cols: usize| {
            let mut m = Matrix::zeros(rows, cols);
            m.data_mut().iter_mut().for_each(|v| *v = rng.gen_range(-1.0..1.0));
            m
        };
        let mut gradients: Vec<(Matrix, Matrix)> =
            shapes.iter().map(|&((r, c), b)| (random(r, c), random(1, b))).collect();
        let scale = (target / exact_sum_of_squares(&gradients)).sqrt() as f32;
        for (w, b) in &mut gradients {
            w.data_mut().iter_mut().chain(b.data_mut()).for_each(|v| *v *= scale);
        }
        gradients
    }

    fn exact_sum_of_squares(gradients: &[(Matrix, Matrix)]) -> f64 {
        let values = gradients.iter().flat_map(|(w, b)| w.data().iter().chain(b.data()));
        values.map(|&x| f64::from(x) * f64::from(x)).sum()
    }

    /// The clip's shortcut against its definition, bit for bit, with the
    /// gradients' sum of squares placed at `25·(1 + k·γ)` around the threshold:
    /// the bound must decide exactly the steps below `25·(1 − 2γ)` and leave the
    /// rest to the exact norm. Production shapes (γ ≈ 1.7·10⁻³) and one 2²⁰-element
    /// tensor (γ ≈ 0.067), plus all-zero, NaN and infinite gradients.
    #[test]
    fn clip_scale_equals_its_definition_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(71);
        let production = [((611, 48), 48), ((48, 6), 6)];
        let wide = [((1024, 1024), 1)];
        for shapes in [&production[..], &wide[..]] {
            let elements: usize =
                shapes.iter().map(|&((rows, cols), bias)| rows * cols + bias).sum();
            let gamma = exact_norm_error_bound(&gradients_summing_to(shapes, 1.0, &mut rng));
            let gamma = gamma.unwrap();
            for k in [-8.0, -4.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 8.0] {
                let gradients = gradients_summing_to(shapes, 25.0 * (1.0 + k * gamma), &mut rng);
                let scale = clip_scale(&gradients);
                let what = format!("{elements} elements, k = {k}");
                assert_eq!(scale.to_bits(), exact_clip_scale(&gradients).to_bits(), "{what}");
                assert_eq!(clip_cannot_fire(&gradients), k <= -2.0, "{what}: path");
                if k <= -1.0 {
                    assert_eq!(scale, 1.0, "{what}: idle");
                } else if k >= 1.0 {
                    assert!(scale < 1.0, "{what}: fired");
                }
            }
        }

        let mut zero = gradients_summing_to(&production, 1.0, &mut rng);
        zero.iter_mut().for_each(|(w, b)| {
            w.data_mut().fill(0.0);
            b.data_mut().fill(0.0);
        });
        assert!(clip_cannot_fire(&zero));
        assert_eq!(clip_scale(&zero).to_bits(), 1.0f32.to_bits());
        for (special, expected) in [(f32::NAN, 1.0f32), (f32::INFINITY, 0.0), (-f32::INFINITY, 0.0)]
        {
            let mut gradients = gradients_summing_to(&production, 1.0, &mut rng);
            gradients[1].0.set(3, 2, special);
            assert!(!clip_cannot_fire(&gradients), "{special}: path");
            assert_eq!(exact_clip_scale(&gradients).to_bits(), expected.to_bits(), "{special}");
            assert_eq!(clip_scale(&gradients).to_bits(), expected.to_bits(), "{special}");
        }
    }

    /// Numerical gradient check on a tiny network: the analytic weight gradients
    /// the step leaves in its scratch must match finite differences of the loss.
    #[test]
    fn gradient_check_weights() {
        let config = NetworkConfig { input_dim: 3, hidden: vec![4], heads: vec![2, 3], seed: 7 };
        let mut net = Network::new(config).unwrap();
        let x = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.8, 1.0, 0.3, -0.7]).unwrap();
        let labels = [1, 0, 0, 2];
        let heads = net.config.heads.clone();
        let loss_of = |net: &Network| -> f32 {
            let mut d_logits = Matrix::zeros(0, 0);
            grouped_cross_entropy(&net.logits(&x).unwrap(), &labels, &heads, &mut d_logits).unwrap()
        };

        // A zero learning rate leaves the weights where they are and the
        // gradients in the scratch.
        let frozen = SgdConfig { learning_rate: 0.0, momentum: 0.0, weight_decay: 0.0 };
        let mut scratch = TrainScratch::new(&net, frozen);
        net.train_step(&x, &labels, &mut scratch).unwrap();

        let eps = 1e-3f32;
        for l in 0..net.layers.len() {
            let (rows, cols) = (net.layers[l].weights.rows(), net.layers[l].weights.cols());
            for r in 0..rows {
                for c in 0..cols {
                    let orig = net.layers[l].weights.get(r, c);
                    net.layers[l].weights.set(r, c, orig + eps);
                    let up = loss_of(&net);
                    net.layers[l].weights.set(r, c, orig - eps);
                    let down = loss_of(&net);
                    net.layers[l].weights.set(r, c, orig);
                    let numeric = (up - down) / (2.0 * eps);
                    // The step's gradient is of the per-example mean summed over
                    // heads; the reported loss also averages over heads.
                    let analytic = scratch.gradients[l].0.get(r, c) / heads.len() as f32;
                    assert!(
                        (numeric - analytic).abs() < 1e-2,
                        "layer {l} grad mismatch at ({r},{c}): numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_initialization() {
        let cfg = NetworkConfig { input_dim: 4, hidden: vec![6], heads: vec![2], seed: 123 };
        let a = Network::new(cfg.clone()).unwrap();
        let b = Network::new(cfg).unwrap();
        let x = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(a.logits(&x).unwrap(), b.logits(&x).unwrap());
    }
}
