//! Dense row-major 2-D tensors.

use dpdp_pool::ThreadPool;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix of `f64`. Vectors are `1 x n` or `n x 1`
/// tensors; scalars are `1 x 1`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// An all-zero `rows x cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Tensor { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A `1 x 1` scalar tensor.
    pub fn scalar(v: f64) -> Self {
        Tensor::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "tensor index out of range");
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "tensor index out of range");
        &mut self.data[r * self.cols + c]
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// The matmul kernel for output rows `[r0, r1)`, written into `block`
    /// (a `(r1 - r0) x other.cols` slice), with `bias` (one value per
    /// output column) added to every row when given. The **single** source
    /// of the accumulation order: [`Tensor::matmul`],
    /// [`Tensor::matmul_pooled`] and [`Tensor::linear`] all delegate here,
    /// so the serial and chunk-parallel products cannot drift apart
    /// bitwise.
    ///
    /// Each output row is accumulated in column blocks of 16, then 4, then
    /// 1 held in a local array, over ascending `k` and skipping zero
    /// left-hand entries, so every element sums exactly as a plain triple
    /// loop would; each block is written once, as `acc + bias` when there
    /// is a bias.
    fn matmul_rows(
        &self,
        other: &Tensor,
        bias: Option<&[f64]>,
        r0: usize,
        r1: usize,
        block: &mut [f64],
    ) {
        let n = other.cols;
        if n == 0 {
            return;
        }
        for (i, row_o) in (r0..r1).zip(block.chunks_exact_mut(n)) {
            let row_a = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut c0 = 0;
            while c0 + 16 <= n {
                column_block::<16>(row_a, &other.data, n, c0, bias, row_o);
                c0 += 16;
            }
            while c0 + 4 <= n {
                column_block::<4>(row_a, &other.data, n, c0, bias, row_o);
                c0 += 4;
            }
            while c0 < n {
                column_block::<1>(row_a, &other.data, n, c0, bias, row_o);
                c0 += 1;
            }
        }
    }

    /// The product `self @ other (+ bias)`, serial or chunked across
    /// `pool`'s threads. Chunks run the very same row kernel, so the
    /// result is **bit-identical for any thread count**; a width-1 pool or
    /// a small left-hand side runs serially.
    fn product(&self, other: &Tensor, bias: Option<&Tensor>, pool: Option<&ThreadPool>) -> Tensor {
        const MIN_PARALLEL_ROWS: usize = 16;
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        let n = other.cols;
        let bias = bias.map(|b| {
            assert_eq!(b.shape(), (1, n), "bias must be 1x{n}");
            b.data()
        });
        let mut out = Tensor::zeros(self.rows, n);
        match pool {
            Some(pool) if pool.is_parallel() && self.rows >= MIN_PARALLEL_ROWS && n > 0 => {
                let chunk = self.rows.div_ceil((pool.threads() * 4).min(self.rows));
                // Each task writes its disjoint row range of the output in
                // place — no per-chunk buffers or final copy.
                pool.scope(|s| {
                    for (ci, block) in out.data.chunks_mut(chunk * n).enumerate() {
                        let r0 = ci * chunk;
                        let r1 = (r0 + chunk).min(self.rows);
                        s.spawn(move || self.matmul_rows(other, bias, r0, r1, block));
                    }
                });
            }
            _ => self.matmul_rows(other, bias, 0, self.rows, &mut out.data),
        }
        out
    }

    /// Matrix product `self @ other`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.product(other, None, None)
    }

    /// Matrix product `self @ other`, evaluated across `pool`'s threads in
    /// row chunks. Every chunk runs the very same row kernel as
    /// [`Tensor::matmul`] (the private `matmul_rows` is shared), so the
    /// result is **bit-identical to the serial product for any thread
    /// count**. Falls back to the serial kernel on a width-1 pool or a
    /// small left-hand side.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul_pooled(&self, other: &Tensor, pool: &ThreadPool) -> Tensor {
        self.product(other, None, Some(pool))
    }

    /// The affine map `self @ w + b`, with the `1 x n` bias `b` added to
    /// every row as the product is written. Bit-identical to
    /// [`Tensor::matmul`] followed by a row-wise `+ b`, at any pool width
    /// (`pool` chunks rows exactly as [`Tensor::matmul_pooled`] does).
    ///
    /// # Panics
    /// Panics if inner dimensions disagree or `b` is not `1 x w.cols()`.
    pub fn linear(&self, w: &Tensor, b: &Tensor, pool: Option<&ThreadPool>) -> Tensor {
        self.product(w, Some(b), pool)
    }

    /// Row-major copy of the data demoted to `f32`.
    fn to_f32(&self) -> Vec<f32> {
        self.data.iter().map(|&x| x as f32).collect()
    }

    /// Matrix product `self @ other` computed **entirely in `f32`**:
    /// inputs are demoted once, accumulation runs in single precision, and
    /// the result is widened back to `f64`. Roughly halves the memory
    /// traffic of the f64 kernel on large inference batches.
    ///
    /// This is an *approximate* product — each element differs from
    /// [`Tensor::matmul`] by O(2⁻²⁴) relative error per accumulation step.
    /// It is deterministic (fixed loop order, no FMA contraction), but it
    /// is **not** interchangeable with the f64 kernel on any parity-gated
    /// path; see [`crate::Precision`] for the opt-in contract.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul_f32(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        let a = self.to_f32();
        let b = other.to_f32();
        let n = other.cols;
        let mut out = vec![0f32; self.rows * n];
        matmul_rows_f32(&a, self.cols, &b, n, 0, self.rows, &mut out);
        Tensor::from_vec(self.rows, n, out.iter().map(|&x| x as f64).collect())
    }

    /// [`Tensor::matmul_f32`] evaluated across `pool`'s threads in row
    /// chunks. Every chunk runs the same f32 row kernel, so the result is
    /// **bit-identical to the serial f32 product for any thread count** —
    /// the determinism guarantee of [`Tensor::matmul_pooled`] carries over
    /// to the reduced-precision path unchanged. Falls back to the serial
    /// f32 kernel on a width-1 pool or a small left-hand side.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul_f32_pooled(&self, other: &Tensor, pool: &ThreadPool) -> Tensor {
        const MIN_PARALLEL_ROWS: usize = 16;
        if !pool.is_parallel() || self.rows < MIN_PARALLEL_ROWS {
            return self.matmul_f32(other);
        }
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        let a = self.to_f32();
        let b = other.to_f32();
        let n = other.cols;
        let chunk = self.rows.div_ceil((pool.threads() * 4).min(self.rows));
        let mut out = vec![0f32; self.rows * n];
        let (a_ref, b_ref) = (&a, &b);
        pool.scope(|s| {
            for (ci, block) in out.chunks_mut(chunk * n).enumerate() {
                let r0 = ci * chunk;
                let r1 = (r0 + chunk).min(self.rows);
                s.spawn(move || matmul_rows_f32(a_ref, self.cols, b_ref, n, r0, r1, block));
            }
        });
        Tensor::from_vec(self.rows, n, out.iter().map(|&x| x as f64).collect())
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise in-place scale.
    pub fn scale_assign(&mut self, s: f64) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute element difference to another tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Columns `[c0, c0 + W)` of one output row of `a @ b`: accumulates them
/// in registers over ascending `k`, skipping zero entries of `row_a`, and
/// writes them to `row_o` once, plus `bias` when given.
#[inline(always)]
fn column_block<const W: usize>(
    row_a: &[f64],
    b: &[f64],
    n: usize,
    c0: usize,
    bias: Option<&[f64]>,
    row_o: &mut [f64],
) {
    let mut acc = [0.0; W];
    for (k, &a) in row_a.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let row_b = &b[k * n + c0..k * n + c0 + W];
        for w in 0..W {
            acc[w] += a * row_b[w];
        }
    }
    let out = &mut row_o[c0..c0 + W];
    match bias {
        Some(bias) => {
            for ((o, a), b) in out.iter_mut().zip(&acc).zip(&bias[c0..c0 + W]) {
                *o = a + b;
            }
        }
        None => out.copy_from_slice(&acc),
    }
}

/// The f32 matmul kernel for output rows `[r0, r1)` of `a @ b`, written
/// into `block`. The **single** source of the f32 accumulation order:
/// [`Tensor::matmul_f32`] and [`Tensor::matmul_f32_pooled`] both delegate
/// here, mirroring how the f64 pair shares `matmul_rows` — so the serial
/// and chunk-parallel f32 products cannot drift apart bitwise.
fn matmul_rows_f32(
    a: &[f32],
    a_cols: usize,
    b: &[f32],
    n: usize,
    r0: usize,
    r1: usize,
    block: &mut [f32],
) {
    for i in r0..r1 {
        for k in 0..a_cols {
            let av = a[i * a_cols + k];
            if av == 0.0 {
                continue;
            }
            let row_b = &b[k * n..(k + 1) * n];
            let row_o = &mut block[(i - r0) * n..(i - r0 + 1) * n];
            for (o, bv) in row_o.iter_mut().zip(row_b) {
                *o += av * bv;
            }
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
        assert_eq!(Tensor::full(2, 2, 7.0).get(1, 1), 7.0);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn bad_from_vec_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
        // Identity.
        let i = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
        // Rectangular.
        let r = Tensor::from_rows(&[&[1.0, 0.0, 2.0]]);
        let s = Tensor::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        assert_eq!(r.matmul(&s).item(), 3.0);
    }

    #[test]
    fn matmul_pooled_is_bit_identical_to_serial() {
        // Awkward sizes around the chunk boundaries, values whose products
        // are not exactly representable — the parallel kernel must still
        // agree bit for bit because each row keeps the serial loop order.
        let a = Tensor::from_vec(
            37,
            19,
            (0..37 * 19)
                .map(|i| ((i as f64) * 0.37).sin() / 3.0)
                .collect(),
        );
        let b = Tensor::from_vec(
            19,
            23,
            (0..19 * 23)
                .map(|i| ((i as f64) * 0.73).cos() / 7.0)
                .collect(),
        );
        let serial = a.matmul(&b);
        for threads in [1, 2, 4] {
            let pool = dpdp_pool::ThreadPool::new(threads);
            let pooled = a.matmul_pooled(&b, &pool);
            assert!(
                serial.data() == pooled.data(),
                "pooled matmul diverged at width {threads}"
            );
        }
    }

    /// The textbook product: each element summed over ascending `k` from
    /// `0.0`. Zero left-hand entries add `±0.0` to a finite sum, which
    /// never changes it, so the kernel's zero skip is invisible here.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f64> {
        let mut out = Vec::with_capacity(a.rows() * b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.push(acc);
            }
        }
        out
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_naive_triple_loop() {
        let pools: Vec<_> = [1, 2, 4].map(dpdp_pool::ThreadPool::new).into();
        for n in [1usize, 3, 4, 5, 15, 16, 17, 32, 33, 96] {
            for (m, inner) in [(1usize, 7usize), (20, 13), (37, 32)] {
                // Every third left-hand entry is zero; about half of the
                // rest are negative.
                let a = Tensor::from_vec(
                    m,
                    inner,
                    (0..m * inner)
                        .map(|i| {
                            if i % 3 == 0 {
                                0.0
                            } else {
                                ((i as f64) * 0.61).sin() / 3.0
                            }
                        })
                        .collect(),
                );
                let b = Tensor::from_vec(
                    inner,
                    n,
                    (0..inner * n)
                        .map(|i| ((i as f64) * 0.43).cos() * 1.7)
                        .collect(),
                );
                let expect = naive_matmul(&a, &b);
                assert!(
                    a.matmul(&b).data() == expect.as_slice(),
                    "serial n={n} m={m}"
                );
                for pool in &pools {
                    assert!(
                        a.matmul_pooled(&b, pool).data() == expect.as_slice(),
                        "pooled n={n} m={m} width {}",
                        pool.threads()
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_f32_tracks_f64_within_tolerance() {
        let a = Tensor::from_vec(
            23,
            17,
            (0..23 * 17)
                .map(|i| ((i as f64) * 0.41).sin() * 2.0)
                .collect(),
        );
        let b = Tensor::from_vec(
            17,
            29,
            (0..17 * 29)
                .map(|i| ((i as f64) * 0.59).cos() * 1.5)
                .collect(),
        );
        let exact = a.matmul(&b);
        let approx = a.matmul_f32(&b);
        assert_eq!(exact.shape(), approx.shape());
        // 17 accumulation steps of O(1) magnitudes: well inside a 1e-4
        // absolute band, but never exactly equal on non-trivial inputs.
        assert!(exact.max_abs_diff(&approx) < 1e-4);
        assert!(exact.max_abs_diff(&approx) > 0.0);
    }

    #[test]
    fn matmul_f32_pooled_is_bit_identical_to_serial_f32() {
        let a = Tensor::from_vec(
            37,
            19,
            (0..37 * 19)
                .map(|i| ((i as f64) * 0.37).sin() / 3.0)
                .collect(),
        );
        let b = Tensor::from_vec(
            19,
            23,
            (0..19 * 23)
                .map(|i| ((i as f64) * 0.73).cos() / 7.0)
                .collect(),
        );
        let serial = a.matmul_f32(&b);
        for threads in [1, 2, 4] {
            let pool = dpdp_pool::ThreadPool::new(threads);
            let pooled = a.matmul_f32_pooled(&b, &pool);
            assert!(
                serial.data() == pooled.data(),
                "pooled f32 matmul diverged at width {threads}"
            );
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at.get(2, 1), 6.0);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::from_rows(&[&[1.0, -2.0]]);
        a.add_assign(&Tensor::from_rows(&[&[1.0, 1.0]]));
        assert_eq!(a.data(), &[2.0, -1.0]);
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[4.0, -2.0]);
        let m = a.map(f64::abs);
        assert_eq!(m.data(), &[4.0, 2.0]);
        assert!((m.norm() - 20f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(&m), 4.0);
    }
}
