//! Sparse neighbourhood attention: the kernels behind
//! [`Graph::neighbour_attention`](crate::Graph::neighbour_attention).
//!
//! Each query row attends over its own short list of context rows (a CSR
//! [`NeighbourIndex`]) instead of all of them, so one head at one level
//! costs `O(nnz · d)` rather than the `O(m · n · d)` of dense attention
//! under a mask. The forward reproduces the dense masked computation bit
//! for bit: scores accumulate in ascending feature order with the matmul
//! kernel's zero-skip, are scaled after the dot product, and the softmax
//! takes the max over kept entries, then `exp`, then the sum in ascending
//! index order, then `e / sum`; the weighted sum of values walks the kept
//! entries in ascending index order, again skipping exact zeros.

use crate::tensor::Tensor;
use dpdp_pool::ThreadPool;

/// A compressed-sparse-row list of the context rows each query row
/// attends to. Every row is strictly ascending (sorted, no duplicates);
/// a row may be empty, in which case its attention output is zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighbourIndex {
    offsets: Vec<usize>,
    cols: Vec<usize>,
}

impl Default for NeighbourIndex {
    fn default() -> Self {
        NeighbourIndex::with_capacity(0, 0)
    }
}

impl NeighbourIndex {
    /// An empty index with room for `rows` rows and `nnz` entries.
    pub fn with_capacity(rows: usize, nnz: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        NeighbourIndex {
            offsets,
            cols: Vec::with_capacity(nnz),
        }
    }

    /// Appends the next row.
    ///
    /// # Panics
    /// Panics unless `cols` is strictly ascending.
    pub fn push_row(&mut self, cols: &[usize]) {
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "neighbour rows must be strictly ascending"
        );
        self.cols.extend_from_slice(cols);
        self.offsets.push(self.cols.len());
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of entries over all rows.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The context rows of query row `r`, ascending.
    pub fn row(&self, r: usize) -> &[usize] {
        &self.cols[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Offset of row `r`'s first entry among all entries.
    fn start(&self, r: usize) -> usize {
        self.offsets[r]
    }

    fn max_row_len(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// The operands of one attention op: queries `q` (`m x d`), keys `k` and
/// values `v` (`n x d`), the neighbour lists and the head split. Shared by
/// the forward and backward kernels.
pub(crate) struct Operands<'a> {
    q: &'a Tensor,
    k: &'a Tensor,
    v: &'a Tensor,
    index: &'a NeighbourIndex,
    heads: usize,
    dk: usize,
    scale: f64,
}

/// Query rows below which the forward stays serial.
const MIN_PARALLEL_ROWS: usize = 16;

impl<'a> Operands<'a> {
    /// Checks the shapes and splits `d` into `heads` heads, each scaled by
    /// `1 / sqrt(d / heads)`.
    ///
    /// # Panics
    /// Panics on mismatched shapes, unless `heads` divides `d`, or if
    /// `index` has not one row per query or names a row `>= n`.
    pub fn new(
        q: &'a Tensor,
        k: &'a Tensor,
        v: &'a Tensor,
        index: &'a NeighbourIndex,
        heads: usize,
    ) -> Self {
        let d = q.cols();
        assert!(
            heads > 0 && d.is_multiple_of(heads),
            "heads must divide the attention width"
        );
        assert_eq!(k.shape(), v.shape(), "keys and values must have one shape");
        assert_eq!(k.cols(), d, "keys must be as wide as queries");
        assert_eq!(index.rows(), q.rows(), "one neighbour row per query row");
        assert!(
            index.cols.iter().all(|&c| c < k.rows()),
            "neighbour index out of range"
        );
        let dk = d / heads;
        Operands {
            q,
            k,
            v,
            index,
            heads,
            dk,
            scale: 1.0 / (dk as f64).sqrt(),
        }
    }

    /// Forward pass: returns the `m x d` output and the attention weights,
    /// laid out row by row, head-major within a row (`heads * row_len`
    /// entries per row). Rows are independent, so chunking them across
    /// `pool` cannot change a single bit.
    pub fn forward(&self, pool: Option<&ThreadPool>) -> (Tensor, Vec<f64>) {
        let (m, d) = self.q.shape();
        let mut out = Tensor::zeros(m, d);
        let mut weights = vec![0.0; self.index.nnz() * self.heads];
        match pool {
            Some(pool) if pool.is_parallel() && m >= MIN_PARALLEL_ROWS => {
                let chunk = m.div_ceil((pool.threads() * 4).min(m));
                pool.scope(|s| {
                    let mut out_rest = out.data_mut();
                    let mut w_rest = weights.as_mut_slice();
                    for r0 in (0..m).step_by(chunk) {
                        let r1 = (r0 + chunk).min(m);
                        let span = (self.index.start(r1) - self.index.start(r0)) * self.heads;
                        let (ob, orest) = out_rest.split_at_mut((r1 - r0) * d);
                        let (wb, wrest) = w_rest.split_at_mut(span);
                        out_rest = orest;
                        w_rest = wrest;
                        s.spawn(move || self.attend_rows(r0, r1, ob, wb));
                    }
                });
            }
            _ => self.attend_rows(0, m, out.data_mut(), &mut weights),
        }
        (out, weights)
    }

    /// The forward kernel for query rows `[r0, r1)`, written into `out`
    /// (their zeroed output rows) and `weights` (their attention weights).
    /// The single source of the accumulation order for serial and chunked
    /// forwards.
    ///
    /// Each listed key and value row is read once for all heads; every
    /// score and output element still accumulates in ascending order, so
    /// the loop nesting does not change a bit.
    fn attend_rows(&self, r0: usize, r1: usize, out: &mut [f64], weights: &mut [f64]) {
        let (index, heads, dk) = (self.index, self.heads, self.dk);
        let base = index.start(r0) * heads;
        // Scores, then exponentials, head-major: `heads` runs of a row's
        // length.
        let mut scores = vec![0.0; index.max_row_len() * heads];
        for (r, out_row) in (r0..r1).zip(out.chunks_exact_mut(self.q.cols())) {
            let cols = index.row(r);
            let n = cols.len();
            let q_row = self.q.row(r);
            for (t, &j) in cols.iter().enumerate() {
                let pairs = q_row.chunks_exact(dk).zip(self.k.row(j).chunks_exact(dk));
                for (head, (qh, kh)) in pairs.enumerate() {
                    let mut dot = 0.0;
                    for (&a, &b) in qh.iter().zip(kh) {
                        if a == 0.0 {
                            continue;
                        }
                        dot += a * b;
                    }
                    scores[head * n + t] = dot * self.scale;
                }
            }
            let w_row = &mut weights[index.start(r) * heads - base..][..n * heads];
            for (s, w) in scores
                .chunks_exact_mut(n.max(1))
                .zip(w_row.chunks_exact_mut(n.max(1)))
            {
                let max = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for e in s.iter_mut() {
                    *e = (*e - max).exp();
                    sum += *e;
                }
                for (wt, &e) in w.iter_mut().zip(s.iter()) {
                    *wt = e / sum;
                }
            }
            for (t, &j) in cols.iter().enumerate() {
                let pairs = out_row
                    .chunks_exact_mut(dk)
                    .zip(self.v.row(j).chunks_exact(dk));
                for (head, (oh, vh)) in pairs.enumerate() {
                    let p = w_row[head * n + t];
                    if p == 0.0 {
                        continue;
                    }
                    for (o, &b) in oh.iter_mut().zip(vh) {
                        *o += p * b;
                    }
                }
            }
        }
    }

    /// Backward pass: gradients of the loss with respect to `q`, `k` and
    /// `v`, given the output gradient `grad` and the forward's `weights`.
    pub fn backward(&self, weights: &[f64], grad: &Tensor) -> (Tensor, Tensor, Tensor) {
        let (q, k, v) = (self.q, self.k, self.v);
        let mut dq = Tensor::zeros(q.rows(), q.cols());
        let mut dk = Tensor::zeros(k.rows(), k.cols());
        let mut dv = Tensor::zeros(v.rows(), v.cols());
        let mut dp = vec![0.0; self.index.max_row_len()];
        for r in 0..self.index.rows() {
            let cols = self.index.row(r);
            let n = cols.len();
            let w_row = &weights[self.index.start(r) * self.heads..][..n * self.heads];
            for (head, w) in w_row.chunks_exact(n.max(1)).enumerate() {
                let hs = head * self.dk..(head + 1) * self.dk;
                let gh = &grad.row(r)[hs.clone()];
                // dL/dp_j = g . v_j; the softmax Jacobian then needs
                // sum_j p_j dL/dp_j.
                let mut mean = 0.0;
                for ((dpj, &p), &j) in dp.iter_mut().zip(w).zip(cols) {
                    *dpj = dot(gh, &v.row(j)[hs.clone()]);
                    mean += p * *dpj;
                }
                for ((&dpj, &p), &j) in dp.iter().zip(w).zip(cols) {
                    axpy(p, gh, &mut row_mut(&mut dv, j)[hs.clone()]);
                    let ds = p * (dpj - mean) * self.scale;
                    if ds == 0.0 {
                        continue;
                    }
                    axpy(
                        ds,
                        &k.row(j)[hs.clone()],
                        &mut row_mut(&mut dq, r)[hs.clone()],
                    );
                    axpy(
                        ds,
                        &q.row(r)[hs.clone()],
                        &mut row_mut(&mut dk, j)[hs.clone()],
                    );
                }
            }
        }
        (dq, dk, dv)
    }
}

fn row_mut(t: &mut Tensor, r: usize) -> &mut [f64] {
    let d = t.cols();
    &mut t.data_mut()[r * d..(r + 1) * d]
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += a * x`.
fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}
