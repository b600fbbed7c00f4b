//! Append-only per-frame score storage: the specialized NN's index.
//!
//! [`ScoreMatrix`] holds, for every scored frame, the concatenated per-head
//! probability distributions (the same grouped-softmax layout the network's
//! output layer uses). A whole-video score matrix is the paper's reusable
//! *index* over the unseen video: build it once with
//! [`SpecializedNN::score_video`](crate::specialized::SpecializedNN::score_video),
//! then answer aggregation, scrubbing, and selection-filter lookups from it
//! without touching the network again.
//!
//! # Layout
//!
//! A row is `stride` values (the sum of the head sizes); head `h` occupies the
//! sub-slice starting at the head's offset. Rows live in chunks of
//! [`CHUNK_ROWS`] rows aligned to frame 0: chunk `c` holds frames
//! `[c·CHUNK_ROWS, (c+1)·CHUNK_ROWS)` row-major, and every chunk but the last is
//! full. Chunks are `Arc`-shared, so growing an index
//! ([`ScoreMatrix::extended`], a stream tick) shares every full chunk with the
//! matrix it grew from, copies only the partial last one, and costs O(tail)
//! instead of O(index); a reader holding the old matrix keeps its chunks.
//!
//! Each chunk also keeps, per head, the running sum of expected counts
//! (`Σ k·p_k`) over every frame from 0 through its last row — the sequential
//! `f64` fold `((0 + e₀) + e₁) + …` in frame order, continued row by row as rows
//! are appended. So [`ScoreMatrix::expected_count_sum`] over any prefix reads one
//! stored value and folds at most one chunk's rows, and gives the bits a fold
//! over every frame gives. Passes over many rows ([`ScoreMatrix::rows`]) walk
//! each chunk's contiguous rows, with no chunk lookup per frame.
//!
//! All derived quantities (expected counts, tail probabilities) use the same
//! `f32 → f64` accumulation order as the old per-frame helpers, so results are
//! bit-identical.

#![expect(
    clippy::indexing_slicing,
    reason = "row/head stride arithmetic over storage the ScoreMatrix sized itself at construction"
)]
use std::ops::Range;
use std::sync::Arc;

/// Rows per chunk of a [`ScoreMatrix`] (see the module docs).
pub const CHUNK_ROWS: usize = 4096;

/// Per-frame, per-head probability distributions in `Arc`-shared chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreMatrix {
    frames: usize,
    heads: Vec<usize>,
    offsets: Vec<usize>,
    stride: usize,
    chunks: Vec<Arc<Chunk>>,
}

/// Up to [`CHUNK_ROWS`] consecutive rows and the running sums through them.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    /// The chunk's rows, row-major.
    probs: Vec<f32>,
    /// Per head: the expected counts of every frame from 0 through this
    /// chunk's last row, folded in frame order.
    expected_sums: Vec<f64>,
}

impl ScoreMatrix {
    /// A matrix with no frames, for heads of the given sizes.
    pub fn empty(heads: Vec<usize>) -> ScoreMatrix {
        let mut offsets = Vec::with_capacity(heads.len());
        let mut stride = 0usize;
        for &size in &heads {
            offsets.push(stride);
            stride += size;
        }
        ScoreMatrix { frames: 0, heads, offsets, stride, chunks: Vec::new() }
    }

    /// Reassembles a score matrix from its frame count, head sizes, and flat
    /// row-major probability buffer (the persistence path); `probs` must hold
    /// exactly `frames * stride` values.
    pub fn from_raw(
        frames: usize,
        heads: Vec<usize>,
        probs: Vec<f32>,
    ) -> crate::Result<ScoreMatrix> {
        // Validate (with overflow-safe arithmetic) BEFORE building the matrix:
        // this is the persistence decode path, where a corrupt artifact could
        // otherwise declare dimensions whose buffers allocate terabytes.
        let mut stride = 0usize;
        for &size in &heads {
            stride = stride.checked_add(size).ok_or_else(|| crate::NnError::ShapeMismatch {
                context: "head sizes overflow the row stride".into(),
            })?;
        }
        if frames.checked_mul(stride) != Some(probs.len()) {
            return Err(crate::NnError::ShapeMismatch {
                context: format!(
                    "score buffer of {} values for {frames} frames x stride {stride}",
                    probs.len(),
                ),
            });
        }
        let mut matrix = ScoreMatrix::empty(heads);
        matrix.push_rows_with(frames, |i, row| {
            row.copy_from_slice(&probs[i * stride..(i + 1) * stride])
        });
        Ok(matrix)
    }

    /// Appends `rows` rows, the `i`-th written by `fill(i, row)` into a
    /// zeroed row, and continues every head's running sum over them.
    pub(crate) fn push_rows_with(&mut self, rows: usize, mut fill: impl FnMut(usize, &mut [f32])) {
        let ScoreMatrix { frames, heads, offsets, stride, chunks } = self;
        let stride = *stride;
        let mut done = 0usize;
        while done < rows {
            let filled = *frames % CHUNK_ROWS;
            let take = (CHUNK_ROWS - filled).min(rows - done);
            if filled == 0 {
                // Every chunk is full (or there is none): open the next one,
                // its sums continuing from the last.
                let expected_sums = chunks
                    .last()
                    .map_or_else(|| vec![0.0; heads.len()], |c| c.expected_sums.clone());
                let probs = Vec::with_capacity(take * stride);
                chunks.push(Arc::new(Chunk { probs, expected_sums }));
            }
            let Some(last) = chunks.last_mut() else { return };
            // Clones a partial last chunk another matrix still reads: the only
            // rows an append ever copies.
            let chunk = Arc::make_mut(last);
            chunk.probs.reserve(take * stride);
            for i in done..done + take {
                let start = chunk.probs.len();
                chunk.probs.resize(start + stride, 0.0);
                let row = &mut chunk.probs[start..];
                fill(i, row);
                for ((sum, &offset), &size) in
                    chunk.expected_sums.iter_mut().zip(offsets.iter()).zip(heads.iter())
                {
                    *sum += expectation(&row[offset..offset + size]);
                }
            }
            *frames += take;
            done += take;
        }
    }

    /// This matrix with `tail`'s rows appended — the incremental-index
    /// primitive: scoring frames `[0, n)` and then appending scores for
    /// `[n, m)` yields a matrix **bit-identical** to scoring `[0, m)` in one
    /// pass, because every row is a pure per-frame function (batched inference
    /// is batch-composition invariant) and the running sums continue the same
    /// fold. Shares every full chunk with `self`; copies at most one partial
    /// chunk.
    ///
    /// Fails unless `tail` has exactly the same head sizes.
    pub fn extended(&self, tail: &ScoreMatrix) -> crate::Result<ScoreMatrix> {
        if self.heads != tail.heads {
            return Err(crate::NnError::ShapeMismatch {
                context: format!(
                    "appending rows with head sizes {:?} to a matrix with {:?}",
                    tail.heads, self.heads
                ),
            });
        }
        let mut grown = self.clone();
        let mut rows = tail.rows(0..tail.frames);
        grown.push_rows_with(tail.frames, |_, row| {
            if let Some(src) = rows.next() {
                row.copy_from_slice(src.probs());
            }
        });
        Ok(grown)
    }

    /// Number of scored frames.
    pub fn num_frames(&self) -> usize {
        self.frames
    }

    /// Number of output heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// The size (number of count classes) of each head.
    pub fn head_sizes(&self) -> &[usize] {
        &self.heads
    }

    /// Width of one frame's row (sum of head sizes).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// One frame's row.
    #[inline]
    pub fn at(&self, frame: usize) -> ScoreRow<'_> {
        let chunk = &self.chunks[frame / CHUNK_ROWS];
        let start = frame % CHUNK_ROWS * self.stride;
        self.view(&chunk.probs[start..start + self.stride])
    }

    /// The rows of the frames in `frames` (clamped to the scored frames), in
    /// frame order, walking each chunk's contiguous rows.
    pub fn rows(&self, frames: Range<usize>) -> Rows<'_> {
        let end = frames.end.min(self.frames);
        let start = frames.start.min(end);
        let first = start / CHUNK_ROWS;
        let mut chunks = self.chunks.get(first..).unwrap_or_default().iter();
        let within = start % CHUNK_ROWS * self.stride;
        let current = chunks.next().and_then(|c| c.probs.get(within..)).unwrap_or_default();
        Rows { matrix: self, chunks, current, remaining: end - start }
    }

    /// Expected counts (`Σ k·p_k`) of head `head` for the frames in `frames`
    /// (clamped to the scored frames), in frame order.
    pub fn expected_counts(
        &self,
        head: usize,
        frames: Range<usize>,
    ) -> impl Iterator<Item = f64> + '_ {
        let (offset, size) = (self.offsets[head], self.heads[head]);
        self.rows(frames).map(move |row| expectation(&row.probs()[offset..offset + size]))
    }

    /// The sum of head `head`'s expected counts over frames `[0, frames)`
    /// (clamped to the scored frames), folded in frame order from `0.0`: the
    /// running sum stored at the last whole chunk, continued over at most one
    /// chunk's rows.
    pub fn expected_count_sum(&self, head: usize, frames: usize) -> f64 {
        let frames = frames.min(self.frames);
        let whole = frames / CHUNK_ROWS;
        let before = whole.checked_sub(1).map_or(0.0, |c| self.chunks[c].expected_sums[head]);
        self.expected_counts(head, whole * CHUNK_ROWS..frames).fold(before, |sum, e| sum + e)
    }

    /// The probability distribution of head `head` for `frame`.
    pub fn head(&self, frame: usize, head: usize) -> &[f32] {
        self.at(frame).head(head)
    }

    /// One frame's scores in the nested layout (`[head][class]`).
    #[cfg(test)]
    pub fn frame_probs(&self, frame: usize) -> Vec<Vec<f32>> {
        (0..self.heads.len()).map(|h| self.head(frame, h).to_vec()).collect()
    }

    /// Expected count (`Σ k·p_k`) of head `head` for `frame`.
    pub fn expected_count(&self, frame: usize, head: usize) -> f64 {
        self.at(frame).expected_count(head)
    }

    /// Probability that `frame` contains at least `n` objects of head `head`.
    pub fn tail_probability(&self, frame: usize, head: usize, n: usize) -> f64 {
        self.at(frame).tail_probability(head, n)
    }

    /// The most likely count of head `head` for `frame` (NaN-safe argmax).
    pub fn argmax_count(&self, frame: usize, head: usize) -> usize {
        argmax(self.head(frame, head))
    }

    #[inline]
    fn view<'a>(&'a self, probs: &'a [f32]) -> ScoreRow<'a> {
        ScoreRow { probs, heads: &self.heads, offsets: &self.offsets }
    }
}

/// The rows of a frame range, from [`ScoreMatrix::rows`].
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    matrix: &'a ScoreMatrix,
    /// The chunks after the current one.
    chunks: std::slice::Iter<'a, Arc<Chunk>>,
    /// The current chunk's rows not yet yielded, row-major.
    current: &'a [f32],
    /// Rows still to yield.
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = ScoreRow<'a>;

    #[inline]
    fn next(&mut self) -> Option<ScoreRow<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let stride = self.matrix.stride;
        if self.current.len() < stride {
            self.next_chunk();
        }
        let (row, rest) = self.current.split_at(stride.min(self.current.len()));
        self.current = rest;
        Some(self.matrix.view(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    /// Walks each chunk's rows in one tight loop: what `sum`, `for_each` and
    /// `extend` run on a pass over the index.
    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, ScoreRow<'a>) -> B,
    {
        let Rows { matrix, chunks, current, remaining } = self;
        let stride = matrix.stride;
        if stride == 0 {
            return (0..remaining).fold(init, |acc, _| f(acc, matrix.view(&[])));
        }
        let mut acc = init;
        let mut left = remaining;
        for block in std::iter::once(current).chain(chunks.map(|c| &c.probs[..])) {
            let rows = (block.len() / stride).min(left);
            for row in block[..rows * stride].chunks_exact(stride) {
                acc = f(acc, matrix.view(row));
            }
            left -= rows;
            if left == 0 {
                break;
            }
        }
        acc
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl Rows<'_> {
    /// Moves on to the next chunk's rows.
    #[cold]
    fn next_chunk(&mut self) {
        self.current = self.chunks.next().map_or(&[], |c| &c.probs[..]);
    }
}

/// One frame's concatenated per-head probabilities, with the matrix's head
/// layout.
#[derive(Debug, Clone, Copy)]
pub struct ScoreRow<'a> {
    probs: &'a [f32],
    heads: &'a [usize],
    offsets: &'a [usize],
}

impl<'a> ScoreRow<'a> {
    /// The row's values, head after head.
    #[inline]
    pub fn probs(&self) -> &'a [f32] {
        self.probs
    }

    /// The probability distribution of head `head`.
    #[inline]
    pub fn head(&self, head: usize) -> &'a [f32] {
        let start = self.offsets[head];
        &self.probs[start..start + self.heads[head]]
    }

    /// Expected count (`Σ k·p_k`) of head `head`.
    #[inline]
    pub fn expected_count(&self, head: usize) -> f64 {
        expectation(self.head(head))
    }

    /// Probability of at least `n` objects of head `head`.
    #[inline]
    pub fn tail_probability(&self, head: usize, n: usize) -> f64 {
        tail_probability(self.head(head), n)
    }

    /// The scrubbing confidence signal for a conjunction of requirements given
    /// as `(head index, minimum count)` pairs: the sum of per-requirement tail
    /// probabilities (Section 7 of the paper).
    #[inline]
    pub fn requirement_confidence(&self, requirements: &[(usize, usize)]) -> f64 {
        requirements.iter().map(|&(head, n)| self.tail_probability(head, n)).sum()
    }
}

/// `Σ k·p_k` over one head's distribution.
///
/// Head sizes 2–6 take a fixed-length copy of the same fold, which the compiler
/// unrolls: the same operations in the same order, so the same bits. A head's
/// size is its `max_count + 1` (at least 2); every head the benchmark workloads
/// train has 2, 4 or 5 slots, and the variance pass of a control-variate
/// aggregate runs this once per indexed frame (see `docs/PERFORMANCE.md`).
#[inline]
pub(crate) fn expectation(probs: &[f32]) -> f64 {
    match probs.len() {
        2 => fixed_expectation::<2>(probs),
        3 => fixed_expectation::<3>(probs),
        4 => fixed_expectation::<4>(probs),
        5 => fixed_expectation::<5>(probs),
        6 => fixed_expectation::<6>(probs),
        _ => probs.iter().enumerate().map(|(k, &p)| k as f64 * f64::from(p)).sum(),
    }
}

/// [`expectation`] over exactly `N` values (0.0 for any other length).
#[inline]
fn fixed_expectation<const N: usize>(probs: &[f32]) -> f64 {
    <&[f32; N]>::try_from(probs)
        .map_or(0.0, |probs| probs.iter().enumerate().map(|(k, &p)| k as f64 * f64::from(p)).sum())
}

/// `Σ_{k≥n} p_k`, clamped to `[0, 1]`.
#[inline]
pub(crate) fn tail_probability(probs: &[f32], n: usize) -> f64 {
    probs.iter().skip(n).map(|&p| f64::from(p)).sum::<f64>().clamp(0.0, 1.0)
}

/// NaN-safe argmax over one head's distribution (`f32::total_cmp`).
pub(crate) fn argmax(probs: &[f32]) -> usize {
    probs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{encode_score_matrix, seal, Writer, KIND_SCORE_INDEX};
    use proptest::prelude::*;

    fn filled() -> ScoreMatrix {
        // 2 frames, heads of size 3 and 2.
        ScoreMatrix::from_raw(2, vec![3, 2], vec![0.5, 0.3, 0.2, 0.9, 0.1, 0.1, 0.2, 0.7, 0.4, 0.6])
            .unwrap()
    }

    #[test]
    fn layout_and_accessors() {
        let m = filled();
        assert_eq!(m.num_frames(), 2);
        assert_eq!(m.num_heads(), 2);
        assert_eq!(m.stride(), 5);
        assert_eq!(m.head(0, 0), &[0.5, 0.3, 0.2]);
        assert_eq!(m.head(1, 1), &[0.4, 0.6]);
        assert_eq!(m.frame_probs(1), vec![vec![0.1, 0.2, 0.7], vec![0.4, 0.6]]);
    }

    #[test]
    fn derived_quantities() {
        let m = filled();
        assert!((m.expected_count(0, 0) - (0.3 + 2.0 * 0.2)).abs() < 1e-6);
        assert!((m.tail_probability(0, 0, 1) - 0.5).abs() < 1e-6);
        assert_eq!(m.argmax_count(1, 0), 2);
        assert_eq!(m.argmax_count(0, 1), 0);
        let conf = m.at(1).requirement_confidence(&[(0, 2), (1, 1)]);
        assert!((conf - (0.7 + 0.6)).abs() < 1e-6);
    }

    #[test]
    fn extended_concatenates_rows_bit_for_bit() {
        let m = filled();
        let tail = ScoreMatrix::from_raw(1, vec![3, 2], vec![0.25, 0.5, 0.25, 0.1, 0.9]).unwrap();
        let grown = m.extended(&tail).unwrap();
        assert_eq!(grown.num_frames(), 3);
        assert_eq!(grown.at(0).probs(), m.at(0).probs());
        assert_eq!(grown.at(1).probs(), m.at(1).probs());
        assert_eq!(grown.at(2).probs(), tail.at(0).probs());
        // Mismatched head sizes are rejected.
        let bad = ScoreMatrix::from_raw(1, vec![2, 2], vec![0.0; 4]).unwrap();
        assert!(m.extended(&bad).is_err());
        // Appending an empty tail is the identity.
        let same = m.extended(&ScoreMatrix::empty(vec![3, 2])).unwrap();
        assert_eq!(same, m);
    }

    /// A deterministic pseudo-random row buffer: `frames` rows, each head a
    /// normalised distribution.
    fn synthetic_rows(frames: usize, heads: &[usize], seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut probs = Vec::new();
        for _ in 0..frames {
            for &size in heads {
                let raw: Vec<f32> = (0..size).map(|_| next() + 1e-3).collect();
                let total: f32 = raw.iter().sum();
                probs.extend(raw.iter().map(|p| p / total));
            }
        }
        probs
    }

    /// The flat encoding a one-buffer index wrote: every row in frame order.
    fn flat_encoding(frames: usize, heads: &[usize], probs: &[f32], key: &str) -> Vec<u8> {
        let mut w = Writer::default();
        w.str(key);
        w.usize(frames);
        w.usizes(heads);
        w.f32s(probs);
        seal(KIND_SCORE_INDEX, w.payload())
    }

    #[test]
    fn chunks_align_to_frame_zero_and_share_on_append() {
        let heads = vec![3, 2];
        let frames = 2 * CHUNK_ROWS + 100;
        let one_shot =
            ScoreMatrix::from_raw(frames, heads.clone(), synthetic_rows(frames, &heads, 3))
                .unwrap();
        assert_eq!(one_shot.chunks.len(), 3);
        assert!(one_shot.chunks[..2].iter().all(|c| c.probs.len() == CHUNK_ROWS * 5));
        let tail = ScoreMatrix::from_raw(5, heads.clone(), synthetic_rows(5, &heads, 4)).unwrap();
        let grown = one_shot.extended(&tail).unwrap();
        // Full chunks are shared; the partial last one was copied, not mutated.
        assert!(Arc::ptr_eq(&grown.chunks[0], &one_shot.chunks[0]));
        assert!(Arc::ptr_eq(&grown.chunks[1], &one_shot.chunks[1]));
        assert!(!Arc::ptr_eq(&grown.chunks[2], &one_shot.chunks[2]));
        assert_eq!(one_shot.num_frames(), frames);
        assert_eq!(one_shot.chunks[2].probs.len(), 100 * 5);
    }

    proptest! {
        /// Growing an index tick by tick — ticks of any size, empty ones,
        /// single rows, ticks straddling a chunk boundary and tails spanning
        /// several chunks — gives the one-shot index bit for bit: rows,
        /// running sums, every prefix sum and the persisted bytes.
        #[test]
        fn chunked_append_equals_the_one_shot_build(
            ticks in prop::collection::vec(
                prop::sample::select(vec![0usize, 1, 2, 255, 256, 4095, 4096, 4097, 9000]),
                1..8,
            ),
            heads in prop::sample::select(vec![vec![4], vec![3, 2], vec![1, 5, 2]]),
            seed in 0u64..1_000,
        ) {
            let frames: usize = ticks.iter().sum();
            let probs = synthetic_rows(frames, &heads, seed);
            let stride: usize = heads.iter().sum();
            let one_shot = ScoreMatrix::from_raw(frames, heads.clone(), probs.clone()).unwrap();
            let mut grown = ScoreMatrix::empty(heads.clone());
            let mut at = 0usize;
            for &tick in &ticks {
                let tail = ScoreMatrix::from_raw(
                    tick,
                    heads.clone(),
                    probs[at * stride..(at + tick) * stride].to_vec(),
                )
                .unwrap();
                // Keep the pre-append matrix alive, as a snapshot reader would.
                let before = grown.clone();
                grown = before.extended(&tail).unwrap();
                prop_assert_eq!(before.num_frames(), at);
                at += tick;
            }
            prop_assert_eq!(&grown, &one_shot);
            let rows: Vec<u32> =
                grown.rows(0..frames).flat_map(|r| r.probs().iter().map(|p| p.to_bits())).collect();
            prop_assert_eq!(rows, probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>());
            // Any sub-range, walked row by row (`next`) or in one pass (`fold`),
            // gives the rows a per-frame lookup gives.
            let lo = (seed as usize * 7_919) % (frames + 1);
            let hi = lo + (seed as usize * 104_729) % (frames + 2 - lo);
            let expected: Vec<&[f32]> = (lo..hi.min(frames)).map(|f| grown.at(f).probs()).collect();
            let mut walked = Vec::new();
            let range = grown.rows(lo..hi);
            prop_assert_eq!(range.len(), expected.len());
            // A `for` loop calls `next`.
            for row in range {
                walked.push(row.probs());
            }
            prop_assert_eq!(&walked, &expected);
            let folded: Vec<&[f32]> = grown.rows(lo..hi).map(|r| r.probs()).collect();
            prop_assert_eq!(&folded, &expected);
            for head in 0..heads.len() {
                let mut fold = 0.0f64;
                let checkpoints = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, frames / 2];
                for n in 0..=frames {
                    if checkpoints.contains(&n) || n % CHUNK_ROWS == 0 || n + 1 >= frames {
                        prop_assert_eq!(grown.expected_count_sum(head, n).to_bits(), fold.to_bits());
                    }
                    if n < frames {
                        fold += grown.expected_count(n, head);
                    }
                }
                // `Iterator::sum` folds from -0.0, which only an empty sum shows.
                if frames > 0 {
                    let oracle: f64 = (0..frames).map(|f| one_shot.expected_count(f, head)).sum();
                    prop_assert_eq!(
                        grown.expected_count_sum(head, frames).to_bits(),
                        oracle.to_bits()
                    );
                }
            }
            prop_assert_eq!(
                encode_score_matrix(&grown, "key"),
                flat_encoding(frames, &heads, &probs, "key")
            );
        }
    }

    #[test]
    fn argmax_is_nan_safe() {
        assert_eq!(argmax(&[0.1, f32::NAN, 0.2]), 1); // NaN sorts above all finites
        assert_eq!(argmax(&[0.1, 0.9, 0.2]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn fixed_length_expectations_are_the_generic_fold() {
        let generic = |p: &[f32]| -> f64 {
            p.iter().enumerate().map(|(k, &p)| k as f64 * f64::from(p)).sum()
        };
        for size in 0..10 {
            let heads = vec![size];
            for row in ScoreMatrix::from_raw(50, heads.clone(), synthetic_rows(50, &heads, 7))
                .unwrap()
                .rows(0..50)
            {
                let p = row.probs();
                assert_eq!(expectation(p).to_bits(), generic(p).to_bits(), "{p:?}");
            }
        }
    }

    #[test]
    fn tail_clamps_and_expectation_sums() {
        assert_eq!(tail_probability(&[0.6, 0.7], 0), 1.0);
        assert_eq!(tail_probability(&[0.5, 0.25], 2), 0.0);
        assert!((expectation(&[0.0, 1.0]) - 1.0).abs() < 1e-9);
    }
}
