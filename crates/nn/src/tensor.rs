//! A minimal dense matrix type and the matmul kernels under scoring and training.
//!
//! Row-major `f32` storage, sized for the small MLPs this project trains (hundreds of
//! inputs, tens of hidden units). The simulated cost model decides what a query is
//! *charged*; the wall-clock cost of a cold query is these kernels, and the performance
//! ledger (`benchmark/`, `docs/PERFORMANCE.md`) is what drives their shape.
//!
//! **Numerics contract.** Every product kernel computes each output element as
//! `0.0 + a₀·b₀ + a₁·b₁ + …` over ascending `k`, with separate `f32` multiplies and
//! adds: no FMA, no reassociation, no multi-accumulator reduction. Blocking and wider
//! vector lanes only change which *independent* elements are computed side by side, so
//! trained weights and scores are bit-identical across kernels, batch sizes and
//! instruction sets — which is what lets cache keys pin a network by its weights
//! fingerprint across a kernel change. The product body, the SGD update and the clip's
//! bound each run as a portable, an AVX2 or an AVX-512 (`avx512f`) instantiation of one
//! source; one run-time dispatch point picks the widest the CPU has, and the tests
//! compare every instantiation the host can run against the plain loops. The training
//! step's gradient clip decides most steps from a certified bound instead of the exact
//! norm: an evaluation shortcut, not a change of definition (see `Network::train_step`).

// blazeit-lint: allow-file(panic-site::index) -- dense matrix kernels: every index is derived from
// the tensor's own dims, and shape mismatches return ShapeMismatch before any loop runs

use crate::{NnError, Result};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Resets to a zero-filled `rows x cols` matrix, reusing the allocation.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Creates a matrix from row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Matrix> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "from_vec: {}x{} needs {} values, got {}",
                    rows,
                    cols,
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a single-row matrix from a slice.
    #[cfg(test)]
    pub(crate) fn row_from_slice(values: &[f32]) -> Matrix {
        Matrix { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Creates a matrix with Xavier/Glorot-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * other`, written into `out` (resized as needed).
    ///
    /// This is the allocation-free kernel behind batched inference and the
    /// training step's forward pass: callers hold a scratch matrix and reuse its
    /// backing storage across batches. Output is computed in 4-row × 16-column
    /// register blocks; the module docs state the summation order that keeps.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul: {}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        out.reset_zeroed(self.rows, other.cols);
        product::<false>(&self.data, self.cols, &other.data, &mut out.data, other.cols);
        Ok(())
    }

    /// `selfᵀ * other` written into `out`, reading `self` transposed in place —
    /// the weight gradient `XᵀΔ` of a dense layer. Element-wise identical to
    /// multiplying a materialized transpose by `other`.
    pub fn matmul_at_b_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul_at_b: ({}x{})ᵀ * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        out.reset_zeroed(self.cols, other.cols);
        product::<true>(&self.data, self.rows, &other.data, &mut out.data, other.cols);
        Ok(())
    }

    /// `self * otherᵀ` written into `out`, reading `other` transposed in place —
    /// the input gradient `ΔWᵀ` of a dense layer. A plain dot-product loop: the
    /// first layer needs no input gradient, so this only ever sees the narrow
    /// upper layers.
    pub fn matmul_a_bt_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul_a_bt: {}x{} * ({}x{})ᵀ",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        out.reset_zeroed(self.rows, other.rows);
        // `max(1)`: an empty dimension means empty data, and nothing to iterate.
        let k = self.cols.max(1);
        for (a_row, out_row) in
            self.data.chunks_exact(k).zip(out.data.chunks_exact_mut(other.rows.max(1)))
        {
            for (b_row, o) in other.data.chunks_exact(k).zip(out_row) {
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        Ok(())
    }

    /// Adds a row vector (1 x cols) to every row, in place.
    pub fn add_row_broadcast_in_place(&mut self, row: &Matrix) -> Result<()> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "broadcast: matrix {}x{} with row {}x{}",
                    self.rows, self.cols, row.rows, row.cols
                ),
            });
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.data[r * self.cols + c] += row.data[c];
            }
        }
        Ok(())
    }

    /// Applies `max(x, 0)` element-wise, in place.
    pub fn relu_in_place(&mut self) {
        for x in &mut self.data {
            *x = x.max(0.0);
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Builds a matrix by stacking equal-length rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Matrix> {
        if rows.is_empty() {
            return Err(NnError::InvalidTrainingData("no rows".into()));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(NnError::ShapeMismatch { context: "from_rows: ragged rows".into() });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }
}

/// Output rows per register block.
const BLOCK_ROWS: usize = 4;
/// Output columns per register tile.
const TILE: usize = 16;

/// The instruction set a kernel instantiation is compiled for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lanes {
    /// The crate's build target: SSE2 on x86-64.
    Portable,
    /// 256-bit lanes.
    Avx2,
    /// 512-bit lanes.
    Avx512,
}

impl Lanes {
    /// Narrowest first.
    pub(crate) const ALL: [Lanes; 3] = [Lanes::Portable, Lanes::Avx2, Lanes::Avx512];

    /// The widest instruction set the running CPU has.
    pub(crate) fn host() -> Lanes {
        Lanes::ALL.into_iter().rev().find(|l| l.detected()).unwrap_or(Lanes::Portable)
    }

    /// Whether run-time detection finds this instruction set on the running CPU.
    pub(crate) fn detected(self) -> bool {
        match self {
            Lanes::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Lanes::Avx2 | Lanes::Avx512 => false,
        }
    }

    /// Runs `kernel` inlined into a function compiled for these lanes. Pass an
    /// `#[inline(always)]` closure: a kernel that is not inlined runs in the
    /// build target's lanes whatever `self` is.
    ///
    /// # Safety
    ///
    /// The running CPU must support `self` ([`Lanes::detected`]).
    pub(crate) unsafe fn run<R>(self, kernel: impl FnOnce() -> R) -> R {
        match self {
            // SAFETY: the caller guarantees the CPU supports `self`.
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx512 => unsafe { run_avx512(kernel) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => unsafe { run_avx2(kernel) },
            _ => kernel(),
        }
    }
}

/// The one dispatch point: runs `kernel` (an `#[inline(always)]` closure) in
/// the widest lanes the host has. There is no way to ask for other lanes:
/// every kernel performs the same IEEE operations in the same order per
/// element whatever its lanes, so the choice is invisible in the results.
pub(crate) fn at_host_width<R>(kernel: impl FnOnce() -> R) -> R {
    // SAFETY: `Lanes::host` only returns an instruction set it detected.
    unsafe { Lanes::host().run(kernel) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// `out[i][j] = Σₖ lhs(i, k) · rhs[k][j]` for a `k_len × n` row-major `rhs` and
/// an `m × n` row-major `out` (`m = out.len() / n`), where `lhs(i, k)` is
/// `a[i * k_len + k]` (`a` is `m × k_len`) or, with `A_TRANSPOSED`,
/// `a[k * m + i]` (`a` is `k_len × m`, read transposed in place).
fn product<const A_TRANSPOSED: bool>(
    a: &[f32],
    k_len: usize,
    rhs: &[f32],
    out: &mut [f32],
    n: usize,
) {
    at_host_width(
        #[inline(always)]
        || product_body::<A_TRANSPOSED>(a, k_len, rhs, out, n),
    );
}

/// The one matmul body. Output is computed in `BLOCK_ROWS × TILE` register
/// blocks: 64 accumulators the compiler keeps in vector registers across the
/// whole reduction — 16 independent SSE add chains (8 of twice the width under
/// AVX2, 4 of four times the width under AVX-512) where a one-row tile gives 4
/// (or 2, or 1). The reduction is bound by add latency, so independent chains
/// are what let wider lanes pay. Remainder rows and the narrow last column tile
/// use a one-row loop. Every accumulator starts at `0.0` and adds `a * b` over
/// ascending `k`.
#[inline(always)]
fn product_body<const A_TRANSPOSED: bool>(
    a: &[f32],
    k_len: usize,
    rhs: &[f32],
    out: &mut [f32],
    n: usize,
) {
    if n == 0 {
        return;
    }
    let m = out.len() / n;
    let blocked_rows = m - m % BLOCK_ROWS;
    let tiled_cols = n - n % TILE;
    for i in (0..blocked_rows).step_by(BLOCK_ROWS) {
        for j0 in (0..tiled_cols).step_by(TILE) {
            let mut acc = [[0.0f32; TILE]; BLOCK_ROWS];
            for k in 0..k_len {
                let b_tile = &rhs[k * n + j0..k * n + j0 + TILE];
                let a_block: [f32; BLOCK_ROWS] = if A_TRANSPOSED {
                    // The block's four operands are neighbours: one bounds check.
                    let mut block = [0.0f32; BLOCK_ROWS];
                    block.copy_from_slice(&a[k * m + i..k * m + i + BLOCK_ROWS]);
                    block
                } else {
                    std::array::from_fn(|r| a[(i + r) * k_len + k])
                };
                for (acc_row, a_ik) in acc.iter_mut().zip(a_block) {
                    for t in 0..TILE {
                        acc_row[t] += a_ik * b_tile[t];
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out[(i + r) * n + j0..(i + r) * n + j0 + TILE].copy_from_slice(acc_row);
            }
        }
    }
    // What the blocks did not cover, one row and at most one tile at a time: the
    // narrow last tile of the blocked rows and all of the remainder rows.
    for i in 0..m {
        let mut j0 = if i < blocked_rows { tiled_cols } else { 0 };
        while j0 < n {
            let width = TILE.min(n - j0);
            let mut acc = [0.0f32; TILE];
            for k in 0..k_len {
                let a_ik = if A_TRANSPOSED { a[k * m + i] } else { a[i * k_len + k] };
                for (acc_t, &b) in acc.iter_mut().zip(&rhs[k * n + j0..k * n + j0 + width]) {
                    *acc_t += a_ik * b;
                }
            }
            out[i * n + j0..i * n + j0 + width].copy_from_slice(&acc[..width]);
            j0 += width;
        }
    }
}

/// Calls `check` with every instantiation the host can run, and says which ran:
/// a skipped instantiation prints that it was skipped (`--show-output`).
#[cfg(test)]
pub(crate) fn for_each_instantiation(kernel: &str, mut check: impl FnMut(Lanes)) {
    for lanes in Lanes::ALL {
        if lanes.detected() {
            check(lanes);
            println!("{kernel}: {lanes:?} instantiation covered");
        } else {
            println!("{kernel}: {lanes:?} instantiation skipped: not detected on this host");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn broadcast_in_place_and_norm() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let bias = Matrix::row_from_slice(&[10.0, 20.0]);
        a.add_row_broadcast_in_place(&bias).unwrap();
        assert_eq!(a.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert!(a.add_row_broadcast_in_place(&Matrix::zeros(1, 3)).is_err());
        let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((b.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn transposed_products_reject_mismatched_shapes() {
        let mut out = Matrix::zeros(0, 0);
        assert!(Matrix::zeros(2, 3).matmul_at_b_into(&Matrix::zeros(3, 3), &mut out).is_err());
        assert!(Matrix::zeros(2, 3).matmul_a_bt_into(&Matrix::zeros(2, 4), &mut out).is_err());
    }

    fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let data = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// The three product kernels against a triple loop, bit for bit, on shapes
    /// `(m, k, n)` that reach every remainder path (rows short of a block,
    /// columns short of a tile, both, neither, an empty dimension) plus the
    /// production layer shapes (the forward `16×611·611×48`, the weight gradient
    /// `(16×611)ᵀ·16×48`) — through the entry points, and through the product
    /// body's portable, AVX2 and AVX-512 instantiations directly, each where the
    /// host has it.
    #[test]
    fn product_instantiations_match_the_triple_loop_bit_for_bit() {
        let shapes = [
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 33),
            (16, 611, 48),
            (611, 16, 48),
            (7, 48, 5),
            (9, 2, 50),
            (0, 3, 2),
            (2, 0, 3),
            (2, 3, 0),
        ];
        let mut rng = StdRng::seed_from_u64(17);
        let mut cases = Vec::new();
        for (m, k, n) in shapes {
            let a = random_matrix(m, k, &mut rng);
            let a_t = random_matrix(k, m, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            let b_t = random_matrix(n, k, &mut rng);
            let naive = |lhs: &dyn Fn(usize, usize) -> f32, rhs: &dyn Fn(usize, usize) -> f32| {
                let mut out = Matrix::zeros(m, n);
                for i in 0..m {
                    for j in 0..n {
                        let mut sum = 0.0f32;
                        for kk in 0..k {
                            sum += lhs(i, kk) * rhs(kk, j);
                        }
                        out.set(i, j, sum);
                    }
                }
                bits(&out)
            };
            let a_b = naive(&|i, kk| a.get(i, kk), &|kk, j| b.get(kk, j));
            let at_b = naive(&|i, kk| a_t.get(kk, i), &|kk, j| b.get(kk, j));
            let a_bt = naive(&|i, kk| a.get(i, kk), &|kk, j| b_t.get(j, kk));

            let mut out = Matrix::zeros(0, 0);
            a.matmul_into(&b, &mut out).unwrap();
            assert_eq!(bits(&out), a_b, "matmul_into {m}x{k}x{n}");
            a_t.matmul_at_b_into(&b, &mut out).unwrap();
            assert_eq!(bits(&out), at_b, "matmul_at_b_into {m}x{k}x{n}");
            a.matmul_a_bt_into(&b_t, &mut out).unwrap();
            assert_eq!((out.rows(), out.cols()), (m, n));
            assert_eq!(bits(&out), a_bt, "matmul_a_bt_into {m}x{k}x{n}");
            cases.push(((m, k, n), a, a_t, b, a_b, at_b));
        }

        for_each_instantiation("product body", |lanes| {
            for ((m, k, n), a, a_t, b, a_b, at_b) in &cases {
                let (k, n) = (*k, *n);
                let mut out = Matrix::zeros(*m, n);
                let (a, a_t, b, out_data) = (a.data(), a_t.data(), b.data(), out.data_mut());
                // SAFETY: `for_each_instantiation` only passes detected lanes.
                unsafe {
                    lanes.run(
                        #[inline(always)]
                        || product_body::<false>(a, k, b, out_data, n),
                    )
                };
                assert_eq!(&bits(&out), a_b, "{lanes:?} body {m}x{k}x{n}");
                let out_data = out.data_mut();
                // SAFETY: as above.
                unsafe {
                    lanes.run(
                        #[inline(always)]
                        || product_body::<true>(a_t, k, b, out_data, n),
                    )
                };
                assert_eq!(&bits(&out), at_b, "{lanes:?} transposed body {m}x{k}x{n}");
            }
        });
    }

    #[test]
    fn xavier_init_bounded_and_deterministic() {
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(10, 20, &mut rng1);
        let b = Matrix::xavier(10, 20, &mut rng2);
        assert_eq!(a, b);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(a.data().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn from_rows_validates() {
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.rows(), 2);
        assert!(Matrix::from_rows(&[vec![1.0], vec![2.0, 3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }
}
