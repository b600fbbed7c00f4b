//! A minimal dense matrix type and the matmul kernels under scoring and training.
//!
//! Row-major `f32` storage, sized for the small MLPs this project trains (hundreds of
//! inputs, tens of hidden units). The simulated cost model decides what a query is
//! *charged*; the wall-clock cost of a cold query is these kernels, and the performance
//! ledger (`benchmark/`, `docs/PERFORMANCE.md`) is what drives their shape.
//!
//! **Numerics contract.** Every product kernel computes each output element from an
//! accumulator that starts at `0.0` and takes `acc = aₖ.mul_add(bₖ, acc)` over
//! ascending `k`: one fused multiply-add per term, rounded once, with no reassociation
//! and no multi-accumulator reduction. `f32::mul_add` is correctly rounded wherever it
//! runs, so blocking and wider vector lanes only change which *independent* elements
//! are computed side by side, and trained weights and scores are bit-identical across
//! kernels, batch sizes and instruction sets — which is what lets cache keys pin a
//! network by its weights fingerprint across a kernel change. The product body, the SGD
//! update and the clip's bound each run as a portable, an AVX2 (`avx2,fma`) or an
//! AVX-512 (`avx512f,fma`) instantiation of one source; one run-time dispatch point
//! picks the widest the CPU has, and the tests compare every instantiation the host can
//! run against the plain `mul_add` loops. On x86-64 the portable instantiation has no
//! FMA instruction to lower `mul_add` to, so it calls the runtime's `fmaf` once per
//! term and vectorises nothing: the same bits, but the forward `16×611·611×48` product
//! took 1.45 ms there against 40 µs with separate multiplies and adds (an AVX-512 host
//! forcing the portable instantiation), so an x86-64 host without FMA (or with AVX2 but
//! no FMA) trains and scores far slower. AArch64's base instruction set has FMA, so
//! there `mul_add` is one instruction. Only the products are fused: [`Matrix::norm`],
//! the clip's bound, the SGD update, softmax and the featurizer keep their separate
//! multiplies and adds. The product body's register block belongs to its instantiation:
//! 4×48 under AVX-512, whose 32 vector registers hold it, and 4×16 under AVX2 and SSE,
//! whose 16 would spill a wider one (`Lanes::product_block_cols`). The training step's
//! gradient clip decides most steps from a certified bound instead of the exact norm:
//! an evaluation shortcut, not a change of definition (see `Network::train_step`).

#![expect(
    clippy::indexing_slicing,
    reason = "dense matrix kernels: every index is derived from the tensor's own dims, and shape \
              mismatches return ShapeMismatch before any loop runs"
)]

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
    /// backing storage across batches. Output is computed in 4-row register
    /// blocks as wide as the instantiation's registers hold (48 columns under
    /// AVX-512, 16 under AVX2 and SSE); the module docs state the summation order
    /// that keeps.
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
    /// the input gradient `ΔWᵀ` of a dense layer. A plain dot-product loop in the
    /// host's widest lanes: the first layer needs no input gradient, so this only
    /// ever sees the narrow upper layers.
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
        let (a, k_len, b_t, n) = (&self.data, self.cols, &other.data, other.rows);
        at_host_width(
            #[inline(always)]
            |_| product_a_bt(a, k_len, b_t, &mut out.data, n),
        );
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
/// Output columns per register tile: one AVX-512 register, two AVX2 ones, four SSE ones.
const TILE: usize = 16;
/// Output columns per register block under AVX-512: three tiles.
const WIDE_BLOCK: usize = 3 * TILE;

/// The instruction set a kernel instantiation is compiled for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lanes {
    /// The crate's build target: SSE2 on x86-64, where `mul_add` is a call.
    Portable,
    /// 256-bit lanes with FMA.
    Avx2,
    /// 512-bit lanes with FMA.
    Avx512,
}

impl Lanes {
    /// Narrowest first.
    pub(crate) const ALL: [Lanes; 3] = [Lanes::Portable, Lanes::Avx2, Lanes::Avx512];

    /// The widest instruction set the running CPU has.
    pub(crate) fn host() -> Lanes {
        Lanes::ALL.into_iter().rev().find(|l| l.detected()).unwrap_or(Lanes::Portable)
    }

    /// Whether run-time detection finds this instruction set, FMA included, on
    /// the running CPU.
    pub(crate) fn detected(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        match self {
            Lanes::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => has!("avx2") && has!("fma"),
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx512 => has!("avx512f") && has!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            Lanes::Avx2 | Lanes::Avx512 => false,
        }
    }

    /// Output columns per register block of the product body in these lanes
    /// (every block is [`BLOCK_ROWS`] rows). AVX-512 has 32 vector registers:
    /// a 4×48 block keeps its 12 accumulators, the three `rhs` tiles and the
    /// broadcast operand in registers. AVX2 has 16, fewer than a 4×48 block's
    /// 24 accumulators: measured, blocks that spill there ran no reliably
    /// faster than 4×16 (8 accumulators), so AVX2 and the portable build keep
    /// 4×16.
    pub(crate) const fn product_block_cols(self) -> usize {
        match self {
            Lanes::Avx512 => WIDE_BLOCK,
            Lanes::Portable | Lanes::Avx2 => TILE,
        }
    }

    /// Runs `kernel` inlined into a function compiled for these lanes, passing
    /// it the lanes as a constant so it can pick a per-instruction-set shape
    /// with a `match` that folds away. Pass an `#[inline(always)]` closure: a
    /// kernel that is not inlined runs in the build target's lanes whatever
    /// `self` is.
    ///
    /// # Safety
    ///
    /// The running CPU must support `self` ([`Lanes::detected`]).
    pub(crate) unsafe fn run<R>(self, kernel: impl FnOnce(Lanes) -> R) -> R {
        match self {
            // SAFETY: the caller guarantees the CPU supports `self`.
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx512 => unsafe { run_avx512(kernel) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => unsafe { run_avx2(kernel) },
            _ => kernel(Lanes::Portable),
        }
    }
}

/// The one dispatch point: runs `kernel` (an `#[inline(always)]` closure) in
/// the widest lanes the host has, and tells it which. There is no way to ask
/// for other lanes: every kernel performs the same IEEE operations in the same
/// order per element whatever its lanes and block shape, so the choice is
/// invisible in the results.
pub(crate) fn at_host_width<R>(kernel: impl FnOnce(Lanes) -> R) -> R {
    // SAFETY: `Lanes::host` only returns an instruction set it detected.
    unsafe { Lanes::host().run(kernel) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2<R>(kernel: impl FnOnce(Lanes) -> R) -> R {
    kernel(Lanes::Avx2)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn run_avx512<R>(kernel: impl FnOnce(Lanes) -> R) -> R {
    kernel(Lanes::Avx512)
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
        |lanes| product_in::<A_TRANSPOSED>(lanes, a, k_len, rhs, out, n),
    );
}

/// [`product_body`] at `lanes`' register block ([`Lanes::product_block_cols`]).
/// `lanes` is a constant in every instantiation, so the `match` folds away.
#[inline(always)]
fn product_in<const A_TRANSPOSED: bool>(
    lanes: Lanes,
    a: &[f32],
    k_len: usize,
    rhs: &[f32],
    out: &mut [f32],
    n: usize,
) {
    match lanes.product_block_cols() {
        WIDE_BLOCK => product_body::<A_TRANSPOSED, WIDE_BLOCK>(a, k_len, rhs, out, n),
        _ => product_body::<A_TRANSPOSED, TILE>(a, k_len, rhs, out, n),
    }
}

/// The one matmul body. Output is computed in `BLOCK_ROWS × BLOCK_COLS`
/// register blocks whose accumulators the compiler keeps in vector registers
/// across the whole reduction: each `rhs` row segment loaded serves four
/// output rows, and each broadcast `lhs` operand a whole block row, so the
/// block is as wide as the instantiation's register file pays for (4×48 under
/// AVX-512, 4×16 under AVX2 and SSE; see [`Lanes::product_block_cols`]). The blocked rows' columns a full block does
/// not cover are computed in 4×16 blocks; remainder rows and the narrow last
/// column tile use a one-row loop. Every accumulator starts at `0.0` and takes
/// `acc = a.mul_add(b, acc)` over ascending `k`.
#[inline(always)]
fn product_body<const A_TRANSPOSED: bool, const BLOCK_COLS: usize>(
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
    let block_cols = n - n % BLOCK_COLS;
    let tiled_cols = n - n % TILE;
    for i in (0..blocked_rows).step_by(BLOCK_ROWS) {
        for j0 in (0..block_cols).step_by(BLOCK_COLS) {
            register_block::<A_TRANSPOSED, BLOCK_COLS>(a, k_len, rhs, out, n, i, j0);
        }
        for j0 in (block_cols..tiled_cols).step_by(TILE) {
            register_block::<A_TRANSPOSED, TILE>(a, k_len, rhs, out, n, i, j0);
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
                    *acc_t = a_ik.mul_add(b, *acc_t);
                }
            }
            out[i * n + j0..i * n + j0 + width].copy_from_slice(&acc[..width]);
            j0 += width;
        }
    }
}

/// Output rows `i..i + BLOCK_ROWS`, columns `j0..j0 + COLS` of [`product_body`].
#[inline(always)]
fn register_block<const A_TRANSPOSED: bool, const COLS: usize>(
    a: &[f32],
    k_len: usize,
    rhs: &[f32],
    out: &mut [f32],
    n: usize,
    i: usize,
    j0: usize,
) {
    let m = out.len() / n;
    let mut acc = [[0.0f32; COLS]; BLOCK_ROWS];
    for k in 0..k_len {
        let b_tile = &rhs[k * n + j0..k * n + j0 + COLS];
        let a_block: [f32; BLOCK_ROWS] = if A_TRANSPOSED {
            // The block's four operands are neighbours: one bounds check.
            let mut block = [0.0f32; BLOCK_ROWS];
            block.copy_from_slice(&a[k * m + i..k * m + i + BLOCK_ROWS]);
            block
        } else {
            std::array::from_fn(|r| a[(i + r) * k_len + k])
        };
        for (acc_row, a_ik) in acc.iter_mut().zip(a_block) {
            for t in 0..COLS {
                acc_row[t] = a_ik.mul_add(b_tile[t], acc_row[t]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * n + j0..(i + r) * n + j0 + COLS].copy_from_slice(acc_row);
    }
}

/// `out[i][j] = Σₖ a[i][k] · b_t[j][k]` for an `m × k_len` row-major `a`, an
/// `n × k_len` row-major `b_t` and an `m × n` row-major `out`: one dot product
/// per element, the [`Matrix::matmul_a_bt_into`] kernel.
#[inline(always)]
fn product_a_bt(a: &[f32], k_len: usize, b_t: &[f32], out: &mut [f32], n: usize) {
    // `max(1)`: an empty dimension means empty data, and nothing to iterate.
    let k_len = k_len.max(1);
    for (a_row, out_row) in a.chunks_exact(k_len).zip(out.chunks_exact_mut(n.max(1))) {
        for (b_row, o) in b_t.chunks_exact(k_len).zip(out_row) {
            let mut acc = 0.0f32;
            for (&a, &b) in a_row.iter().zip(b_row) {
                acc = a.mul_add(b, acc);
            }
            *o = acc;
        }
    }
}

/// Calls `check` with every instantiation the host can run, and says which ran
/// under the name `name` gives it: a skipped instantiation prints that it was
/// skipped (`--show-output`).
#[cfg(test)]
pub(crate) fn for_each_instantiation(name: impl Fn(Lanes) -> String, mut check: impl FnMut(Lanes)) {
    for lanes in Lanes::ALL {
        if lanes.detected() {
            check(lanes);
            println!("{} instantiation covered", name(lanes));
        } else {
            println!("{} instantiation skipped: not detected on this host", name(lanes));
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

    /// The three product kernels against a `mul_add` triple loop, bit for bit,
    /// on shapes `(m, k, n)` that reach every remainder path (rows short of a
    /// block, columns short of a tile, both, neither, an empty dimension), every
    /// path of the 4×48 block (exactly one block, two blocks and a remainder row,
    /// a block and a 16-column tile, a block and a narrow remainder) plus the
    /// production layer shapes (the forward `16×611·611×48`, the weight gradient
    /// `(16×611)ᵀ·16×48`, scoring's `256×611·611×48`, the layer-1 input gradient
    /// `16×3·(48×3)ᵀ`) — through the entry points, and through the product
    /// body's and the `A·Bᵀ` loop's portable, AVX2 and AVX-512 instantiations
    /// directly, each where the host has it.
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
            (4, 611, 48),
            (5, 17, 96),
            (8, 9, 64),
            (4, 3, 50),
            (256, 611, 48),
            (16, 3, 48),
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
                            sum = lhs(i, kk).mul_add(rhs(kk, j), sum);
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
            cases.push(((m, k, n), a, a_t, b, b_t, a_b, at_b, a_bt));
        }

        let name = |lanes: Lanes| {
            format!("product body: {lanes:?} ({BLOCK_ROWS}×{})", lanes.product_block_cols())
        };
        for_each_instantiation(name, |lanes| {
            for ((m, k, n), a, a_t, b, b_t, a_b, at_b, a_bt) in &cases {
                let (k, n) = (*k, *n);
                let mut out = Matrix::zeros(*m, n);
                let (a, a_t, b, b_t) = (a.data(), a_t.data(), b.data(), b_t.data());
                let out_data = out.data_mut();
                // SAFETY: `for_each_instantiation` only passes detected lanes.
                unsafe {
                    lanes.run(
                        #[inline(always)]
                        |lanes| product_in::<false>(lanes, a, k, b, out_data, n),
                    )
                };
                assert_eq!(&bits(&out), a_b, "{lanes:?} body {m}x{k}x{n}");
                let out_data = out.data_mut();
                // SAFETY: as above.
                unsafe {
                    lanes.run(
                        #[inline(always)]
                        |lanes| product_in::<true>(lanes, a_t, k, b, out_data, n),
                    )
                };
                assert_eq!(&bits(&out), at_b, "{lanes:?} transposed body {m}x{k}x{n}");
                let out_data = out.data_mut();
                // SAFETY: as above.
                unsafe {
                    lanes.run(
                        #[inline(always)]
                        |_| product_a_bt(a, k, b_t, out_data, n),
                    )
                };
                assert_eq!(&bits(&out), a_bt, "{lanes:?} A·Bᵀ loop {m}x{k}x{n}");
            }
        });
    }

    /// Each wide instantiation is compiled with `fma` enabled, so it may only
    /// be detected where the CPU has FMA: elsewhere its `mul_add`s would be
    /// instructions the CPU cannot run.
    #[test]
    fn wide_lanes_are_detected_only_with_fma() {
        for lanes in [Lanes::Avx2, Lanes::Avx512] {
            #[cfg(target_arch = "x86_64")]
            assert!(!lanes.detected() || std::arch::is_x86_feature_detected!("fma"), "{lanes:?}");
            #[cfg(not(target_arch = "x86_64"))]
            assert!(!lanes.detected(), "{lanes:?}");
        }
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
