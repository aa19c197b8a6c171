//! The autodiff tape: eager forward evaluation, reverse-mode backward.
//!
//! A [`Graph`] is rebuilt for every forward pass (define-by-run). Operations
//! append nodes to the tape and compute values eagerly; [`Graph::backward`]
//! walks the tape in reverse, accumulating gradients, and flushes the
//! gradients of parameter-bound leaves into the [`ParamStore`].

use crate::attention::{NeighbourIndex, Operands};
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use dpdp_pool::ThreadPool;
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Floating-point width of a graph's forward matmul kernels.
///
/// Everything else on the tape (element-wise ops, softmax, neighbourhood
/// attention, reductions, the whole backward pass) always runs in `f64`;
/// this knob only selects which matmul kernel [`Graph::matmul`] calls.
///
/// * [`Precision::F64`] (default) is the exact path every parity-gated
///   pipeline uses: training, serial/batch equivalence tests, episode
///   determinism.
/// * [`Precision::F32`] demotes matmul inputs to `f32`, accumulates in
///   single precision and widens the product back to `f64`
///   ([`Tensor::matmul_f32`]) — an opt-in inference speedup for wide
///   batch forwards. Results differ from the f64 path by O(2⁻²⁴) relative
///   error per accumulation step, so callers **must** gate it behind an
///   explicit tolerance (see the f32/f64 parity test in `dpdp-rl`) and
///   never feed it into a path that promises bit-identical outputs.
///   Within the f32 path itself results remain bit-identical at any
///   thread count ([`Tensor::matmul_f32_pooled`]).
///
/// Gradients are not defined through the f32 forward: call
/// [`Graph::backward`] only on `F64` graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Exact double-precision matmuls (the default).
    #[default]
    F64,
    /// Single-precision matmul inputs and accumulation, widened back to
    /// `f64`. Inference only; tolerance-gated.
    F32,
}

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Linear(Var, Var, Var),
    Scale(Var, f64),
    Relu(Var),
    SoftmaxRows(Var),
    NeighbourAttention {
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        index: Arc<NeighbourIndex>,
        weights: Vec<f64>,
    },
    Transpose(Var),
    SliceCols(Var, usize, usize),
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    GatherRows(Var, Vec<usize>),
    MeanAll(Var),
    SumAll(Var),
    Ln(Var),
}

#[derive(Debug, Clone)]
struct Node {
    value: Tensor,
    grad: Tensor,
    op: Op,
}

/// A tape-based autodiff graph.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    bindings: Vec<(ParamId, usize)>,
    pool: Option<Arc<ThreadPool>>,
    precision: Precision,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// An empty tape whose forward matmuls are chunked across `pool`'s
    /// threads ([`Tensor::matmul_pooled`]). Values are bit-identical to a
    /// pool-less graph — the pool only changes wall time — so inference
    /// batches can opt in freely without perturbing training parity.
    pub fn with_pool(pool: Arc<ThreadPool>) -> Self {
        Graph {
            pool: Some(pool),
            ..Graph::default()
        }
    }

    /// Selects the forward matmul precision (builder-style). See
    /// [`Precision`] for the tolerance contract; the default is
    /// [`Precision::F64`].
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        // Gradients are allocated by the backward pass, so inference-only
        // forwards never pay for them.
        self.nodes.push(Node {
            value,
            grad: Tensor::zeros(0, 0),
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of a node. Valid only after [`Graph::backward`] or
    /// [`Graph::backward_graph_only`], which give every node a gradient of
    /// its value's shape; before that it is an empty `0 x 0` tensor.
    pub fn grad(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].grad
    }

    /// Number of tape nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- leaves -----------------------------------------------------------

    /// A constant leaf (inputs, targets). Gradients are computed but not
    /// propagated anywhere.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// A parameter leaf: copies the current value in and records the binding
    /// so `backward` accumulates the gradient into the store.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.push(store.value(id).clone(), Op::Leaf);
        self.bindings.push((id, v.0));
        v
    }

    // ---- ops --------------------------------------------------------------

    /// Matrix product `a @ b`, through the kernel the graph's
    /// [`Precision`] selects.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = match (self.precision, &self.pool) {
            (Precision::F64, Some(pool)) => self.value(a).matmul_pooled(self.value(b), pool),
            (Precision::F64, None) => self.value(a).matmul(self.value(b)),
            (Precision::F32, Some(pool)) => self.value(a).matmul_f32_pooled(self.value(b), pool),
            (Precision::F32, None) => self.value(a).matmul_f32(self.value(b)),
        };
        self.push(value, Op::MatMul(a, b))
    }

    /// Element-wise sum of same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.value(a).clone();
        value.add_assign(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Element-wise difference `a - b` of same-shape tensors.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_with(a, b, "sub", |x, y| x - y);
        self.push(value, Op::Sub(a, b))
    }

    /// Hadamard (element-wise) product of same-shape tensors.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_with(a, b, "mul", |x, y| x * y);
        self.push(value, Op::Mul(a, b))
    }

    /// `f` applied element-wise to two same-shape node values.
    fn zip_with(&self, a: Var, b: Var, what: &str, f: impl Fn(f64, f64) -> f64) -> Tensor {
        let (a, b) = (self.value(a), self.value(b));
        assert_eq!(a.shape(), b.shape(), "{what} shape");
        let data = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| f(x, y))
            .collect();
        Tensor::from_vec(a.rows(), a.cols(), data)
    }

    /// The affine map `x @ w + b`: a matrix product with the `1 x n` bias
    /// `b` added to every row as each output block is written. Bit-identical
    /// to the product followed by a row-wise `+ b`. Under
    /// [`Precision::F32`] the product runs in `f32` and the bias is added
    /// in `f64` to the widened result.
    ///
    /// # Panics
    /// Panics on mismatched shapes.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let (xt, wt, bt) = (self.value(x), self.value(w), self.value(b));
        let value = match self.precision {
            Precision::F64 => xt.linear(wt, bt, self.pool.as_deref()),
            Precision::F32 => {
                let n = wt.cols();
                assert_eq!(bt.shape(), (1, n), "bias must be 1x{n}");
                let mut value = match &self.pool {
                    Some(pool) => xt.matmul_f32_pooled(wt, pool),
                    None => xt.matmul_f32(wt),
                };
                for row in value.data_mut().chunks_exact_mut(n) {
                    for (o, b) in row.iter_mut().zip(bt.data()) {
                        *o += b;
                    }
                }
                value
            }
        };
        self.push(value, Op::Linear(x, w, b))
    }

    /// Scalar multiple `a * s`.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        let value = self.value(a).map(|x| x * s);
        self.push(value, Op::Scale(a, s))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Row-wise softmax (numerically stabilised).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let (m, n) = t.shape();
        let mut value = Tensor::zeros(m, n);
        for r in 0..m {
            let row = t.row(r);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = row.iter().map(|&x| (x - max).exp()).collect();
            let sum: f64 = exps.iter().sum();
            for (c, &e) in exps.iter().enumerate() {
                *value.get_mut(r, c) = e / sum;
            }
        }
        self.push(value, Op::SoftmaxRows(a))
    }

    /// Multi-head scaled dot-product attention over neighbour lists:
    /// query row `r` of `q` (`m x d`) attends only to the rows of `k` and
    /// `v` (`n x d`) listed in `index.row(r)`. Columns split into `heads`
    /// equal heads, each scaled by `1 / sqrt(d / heads)`; the `m x d`
    /// result is the heads' outputs side by side. A row with no neighbours
    /// yields zeros. Cost is `O(nnz · d)` for `index.nnz()` listed pairs.
    ///
    /// Bit-identical to dense attention under the equivalent 0/1 mask, and
    /// at any pool width: the graph's pool splits query rows across
    /// threads, and rows never interact. Always runs in `f64`, whatever
    /// the graph's [`Precision`]; gradients flow into `q`, `k` and `v`.
    ///
    /// # Panics
    /// Panics on mismatched shapes, if `heads` does not divide `d`, or if
    /// `index` has not exactly `m` rows or names a row `>= n`.
    pub fn neighbour_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        index: &Arc<NeighbourIndex>,
    ) -> Var {
        let (value, weights) =
            Operands::new(self.value(q), self.value(k), self.value(v), index, heads)
                .forward(self.pool.as_deref());
        self.push(
            value,
            Op::NeighbourAttention {
                q,
                k,
                v,
                heads,
                index: Arc::clone(index),
                weights,
            },
        )
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        self.push(value, Op::Transpose(a))
    }

    /// Columns `[start, start + len)` of a matrix.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let t = self.value(a);
        let (m, n) = t.shape();
        assert!(start + len <= n, "slice_cols out of range");
        let mut data = Vec::with_capacity(m * len);
        for r in 0..m {
            data.extend_from_slice(&t.row(r)[start..start + len]);
        }
        let value = Tensor::from_vec(m, len, data);
        self.push(value, Op::SliceCols(a, start, len))
    }

    /// Horizontal concatenation of matrices with equal row counts.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let m = self.value(parts[0]).rows();
        let mut total = 0;
        for &p in parts {
            assert_eq!(self.value(p).rows(), m, "concat_cols row mismatch");
            total += self.value(p).cols();
        }
        let mut data = Vec::with_capacity(m * total);
        for r in 0..m {
            for &p in parts {
                data.extend_from_slice(self.value(p).row(r));
            }
        }
        let value = Tensor::from_vec(m, total, data);
        self.push(value, Op::ConcatCols(parts.to_vec()))
    }

    /// Vertical concatenation of matrices with equal column counts.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let n = self.value(parts[0]).cols();
        let total: usize = parts.iter().map(|&p| self.value(p).rows()).sum();
        let mut data = Vec::with_capacity(total * n);
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.cols(), n, "concat_rows column mismatch");
            data.extend_from_slice(t.data());
        }
        let value = Tensor::from_vec(total, n, data);
        self.push(value, Op::ConcatRows(parts.to_vec()))
    }

    /// Natural logarithm, element-wise. Inputs must be strictly positive.
    pub fn ln(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(1e-300).ln());
        self.push(value, Op::Ln(a))
    }

    /// Row gather: `out[i, :] = a[indices[i], :]`. Rows may repeat.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let t = self.value(a);
        let n = t.cols();
        let mut data = Vec::with_capacity(indices.len() * n);
        for &idx in indices {
            assert!(idx < t.rows(), "gather_rows index out of range");
            data.extend_from_slice(t.row(idx));
        }
        let value = Tensor::from_vec(indices.len(), n, data);
        self.push(value, Op::GatherRows(a, indices.to_vec()))
    }

    /// Mean over all elements (a `1 x 1` result).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let n = (t.rows() * t.cols()) as f64;
        let value = Tensor::scalar(t.data().iter().sum::<f64>() / n);
        self.push(value, Op::MeanAll(a))
    }

    /// Sum over all elements (a `1 x 1` result).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let value = Tensor::scalar(t.data().iter().sum::<f64>());
        self.push(value, Op::SumAll(a))
    }

    /// Mean-squared-error between same-shape tensors (a `1 x 1` result).
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        self.mean_all(sq)
    }

    // ---- backward ----------------------------------------------------------

    /// Runs reverse-mode accumulation from `loss` (which must be `1 x 1`)
    /// without touching any parameter store. Node gradients are then
    /// available through [`Graph::grad`].
    pub fn backward_graph_only(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        for node in &mut self.nodes {
            let (r, c) = node.value.shape();
            node.grad = Tensor::zeros(r, c);
        }
        *self.nodes[loss.0].grad.get_mut(0, 0) = 1.0;

        for i in (0..self.nodes.len()).rev() {
            // A node only feeds gradient into earlier nodes, so its own
            // gradient and op can be moved out while it propagates.
            let grad = std::mem::replace(&mut self.nodes[i].grad, Tensor::zeros(0, 0));
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            if grad.data().iter().any(|&g| g != 0.0) {
                self.propagate(i, &op, &grad);
            }
            self.nodes[i].grad = grad;
            self.nodes[i].op = op;
        }
    }

    /// Adds node `i`'s contribution, given its gradient, to the gradients
    /// of its inputs.
    fn propagate(&mut self, i: usize, op: &Op, grad: &Tensor) {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => self.propagate_matmul(*a, *b, grad),
            Op::Linear(x, w, b) => {
                self.propagate_matmul(*x, *w, grad);
                let mut db = Tensor::zeros(1, grad.cols());
                for r in 0..grad.rows() {
                    for (d, g) in db.data_mut().iter_mut().zip(grad.row(r)) {
                        *d += g;
                    }
                }
                self.nodes[b.0].grad.add_assign(&db);
            }
            Op::Add(a, b) => {
                self.nodes[a.0].grad.add_assign(grad);
                self.nodes[b.0].grad.add_assign(grad);
            }
            Op::Sub(a, b) => {
                self.nodes[a.0].grad.add_assign(grad);
                let neg = grad.map(|x| -x);
                self.nodes[b.0].grad.add_assign(&neg);
            }
            Op::Mul(a, b) => {
                let bv = self.nodes[b.0].value.clone();
                let av = self.nodes[a.0].value.clone();
                let da = Tensor::from_vec(
                    grad.rows(),
                    grad.cols(),
                    grad.data()
                        .iter()
                        .zip(bv.data())
                        .map(|(g, x)| g * x)
                        .collect(),
                );
                let db = Tensor::from_vec(
                    grad.rows(),
                    grad.cols(),
                    grad.data()
                        .iter()
                        .zip(av.data())
                        .map(|(g, x)| g * x)
                        .collect(),
                );
                self.nodes[a.0].grad.add_assign(&da);
                self.nodes[b.0].grad.add_assign(&db);
            }
            Op::Scale(a, s) => {
                let da = grad.map(|x| x * s);
                self.nodes[a.0].grad.add_assign(&da);
            }
            Op::Relu(a) => {
                let av = &self.nodes[a.0].value;
                let da = Tensor::from_vec(
                    grad.rows(),
                    grad.cols(),
                    grad.data()
                        .iter()
                        .zip(av.data())
                        .map(|(g, x)| if *x > 0.0 { *g } else { 0.0 })
                        .collect(),
                );
                self.nodes[a.0].grad.add_assign(&da);
            }
            Op::SoftmaxRows(a) => {
                let y = self.nodes[i].value.clone();
                let (m, n) = y.shape();
                let mut da = Tensor::zeros(m, n);
                for r in 0..m {
                    let dot: f64 = (0..n).map(|c| grad.get(r, c) * y.get(r, c)).sum();
                    for c in 0..n {
                        *da.get_mut(r, c) = y.get(r, c) * (grad.get(r, c) - dot);
                    }
                }
                self.nodes[a.0].grad.add_assign(&da);
            }
            Op::NeighbourAttention {
                q,
                k,
                v,
                heads,
                index,
                weights,
            } => {
                let (dq, dk, dv) = Operands::new(
                    &self.nodes[q.0].value,
                    &self.nodes[k.0].value,
                    &self.nodes[v.0].value,
                    index,
                    *heads,
                )
                .backward(weights, grad);
                self.nodes[q.0].grad.add_assign(&dq);
                self.nodes[k.0].grad.add_assign(&dk);
                self.nodes[v.0].grad.add_assign(&dv);
            }
            Op::Transpose(a) => {
                let da = grad.transpose();
                self.nodes[a.0].grad.add_assign(&da);
            }
            Op::SliceCols(a, start, len) => {
                let (m, _) = grad.shape();
                let an = self.nodes[a.0].value.cols();
                let mut da = Tensor::zeros(m, an);
                for r in 0..m {
                    for c in 0..*len {
                        *da.get_mut(r, start + c) = grad.get(r, c);
                    }
                }
                self.nodes[a.0].grad.add_assign(&da);
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for p in parts {
                    let (m, n) = self.nodes[p.0].value.shape();
                    let mut dp = Tensor::zeros(m, n);
                    for r in 0..m {
                        for c in 0..n {
                            *dp.get_mut(r, c) = grad.get(r, off + c);
                        }
                    }
                    self.nodes[p.0].grad.add_assign(&dp);
                    off += n;
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for p in parts {
                    let (m, n) = self.nodes[p.0].value.shape();
                    let mut dp = Tensor::zeros(m, n);
                    for r in 0..m {
                        for c in 0..n {
                            *dp.get_mut(r, c) = grad.get(off + r, c);
                        }
                    }
                    self.nodes[p.0].grad.add_assign(&dp);
                    off += m;
                }
            }
            Op::Ln(a) => {
                let av = self.nodes[a.0].value.clone();
                let da = Tensor::from_vec(
                    grad.rows(),
                    grad.cols(),
                    grad.data()
                        .iter()
                        .zip(av.data())
                        .map(|(g, x)| g / x.max(1e-300))
                        .collect(),
                );
                self.nodes[a.0].grad.add_assign(&da);
            }
            Op::GatherRows(a, indices) => {
                let n = grad.cols();
                let (ar, ac) = self.nodes[a.0].value.shape();
                let mut da = Tensor::zeros(ar, ac);
                for (i_out, &idx) in indices.iter().enumerate() {
                    for c in 0..n {
                        *da.get_mut(idx, c) += grad.get(i_out, c);
                    }
                }
                self.nodes[a.0].grad.add_assign(&da);
            }
            Op::MeanAll(a) => {
                let (m, n) = self.nodes[a.0].value.shape();
                let g = grad.item() / (m * n) as f64;
                let da = Tensor::full(m, n, g);
                self.nodes[a.0].grad.add_assign(&da);
            }
            Op::SumAll(a) => {
                let (m, n) = self.nodes[a.0].value.shape();
                let da = Tensor::full(m, n, grad.item());
                self.nodes[a.0].grad.add_assign(&da);
            }
        }
    }

    /// The gradients of `a @ b` given the product's gradient.
    fn propagate_matmul(&mut self, a: Var, b: Var, grad: &Tensor) {
        let da = grad.matmul(&self.nodes[b.0].value.transpose());
        let db = self.nodes[a.0].value.transpose().matmul(grad);
        self.nodes[a.0].grad.add_assign(&da);
        self.nodes[b.0].grad.add_assign(&db);
    }

    /// Full backward pass: accumulates node gradients and flushes the
    /// gradients of parameter leaves into `store`.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        self.backward_graph_only(loss);
        for (id, node) in &self.bindings {
            store.accumulate_grad(*id, &self.nodes[*node].grad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference gradient check: builds the graph twice per
    /// perturbed element and compares against the analytic gradient.
    fn grad_check(build: impl Fn(&mut Graph, &Tensor) -> Var, input: &Tensor, tol: f64) {
        let mut g = Graph::new();
        let _ = build(&mut g, input);
        // The build closure must create the input as node 0.
        let loss = Var(g.nodes.len() - 1);
        g.backward_graph_only(loss);
        let analytic = g.grad(Var(0)).clone();

        let eps = 1e-6;
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let mut plus = input.clone();
                *plus.get_mut(r, c) += eps;
                let mut minus = input.clone();
                *minus.get_mut(r, c) -= eps;
                let mut gp = Graph::new();
                let lp = build(&mut gp, &plus);
                let mut gm = Graph::new();
                let lm = build(&mut gm, &minus);
                let fd = (gp.value(lp).item() - gm.value(lm).item()) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (fd - a).abs() <= tol * (1.0 + fd.abs().max(a.abs())),
                    "grad mismatch at ({r},{c}): fd={fd} analytic={a}"
                );
            }
        }
    }

    fn test_input() -> Tensor {
        Tensor::from_rows(&[&[0.5, -1.2, 2.0], &[1.5, 0.3, -0.7]])
    }

    #[test]
    fn grad_matmul() {
        let w = Tensor::from_rows(&[&[0.2, -0.4], &[1.0, 0.6], &[-0.3, 0.9]]);
        grad_check(
            |g, x| {
                let xv = g.constant(x.clone());
                let wv = g.constant(w.clone());
                let y = g.matmul(xv, wv);
                g.sum_all(y)
            },
            &test_input(),
            1e-6,
        );
    }

    #[test]
    fn grad_add_sub_mul() {
        let other = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.5, 0.25]]);
        grad_check(
            |g, x| {
                let xv = g.constant(x.clone());
                let o = g.constant(other.clone());
                let s = g.add(xv, o);
                let d = g.sub(s, xv);
                let m = g.mul(d, xv);
                g.sum_all(m)
            },
            &test_input(),
            1e-6,
        );
    }

    #[test]
    fn grad_linear() {
        let w = Tensor::from_rows(&[&[0.2, -0.4], &[1.0, 0.6], &[-0.3, 0.9]]);
        grad_check(
            |g, x| {
                let xv = g.constant(x.clone());
                let wv = g.constant(w.clone());
                let b = g.constant(Tensor::from_rows(&[&[0.1, -0.2]]));
                let y = g.linear(xv, wv, b);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            &test_input(),
            1e-6,
        );
        // The weight and bias gradients themselves: d(sum)/dW = xᵀ·1 and
        // d(sum)/db_c = number of rows = 2.
        let mut g = Graph::new();
        let x = g.constant(test_input());
        let wv = g.constant(w.clone());
        let b = g.constant(Tensor::from_rows(&[&[0.1, -0.2]]));
        let y = g.linear(x, wv, b);
        let loss = g.sum_all(y);
        g.backward_graph_only(loss);
        assert_eq!(g.grad(b).data(), &[2.0, 2.0]);
        let ones = Tensor::full(2, 2, 1.0);
        assert_eq!(g.grad(wv), &test_input().transpose().matmul(&ones));
    }

    #[test]
    fn linear_forward_is_matmul_then_row_bias() {
        let x = Tensor::from_vec(
            48,
            11,
            (0..48 * 11)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        ((i as f64) * 0.37).sin()
                    }
                })
                .collect(),
        );
        let w = Tensor::from_vec(
            11,
            33,
            (0..11 * 33).map(|i| ((i as f64) * 0.23).cos()).collect(),
        );
        let b = Tensor::from_vec(
            1,
            33,
            (0..33).map(|i| ((i as f64) * 0.71).sin() * 4.0).collect(),
        );
        let mut expect = x.matmul(&w);
        for row in expect.data_mut().chunks_exact_mut(33) {
            for (o, b) in row.iter_mut().zip(b.data()) {
                *o += b;
            }
        }
        let graphs = [
            Graph::new(),
            Graph::with_pool(Arc::new(ThreadPool::new(2))),
            Graph::with_pool(Arc::new(ThreadPool::new(4))),
        ];
        for mut g in graphs {
            let (xv, wv, bv) = (
                g.constant(x.clone()),
                g.constant(w.clone()),
                g.constant(b.clone()),
            );
            let y = g.linear(xv, wv, bv);
            assert!(g.value(y).data() == expect.data());
        }
    }

    #[test]
    fn grad_relu_and_scale() {
        grad_check(
            |g, x| {
                let xv = g.constant(x.clone());
                let r = g.relu(xv);
                let s = g.scale(r, 3.0);
                g.sum_all(s)
            },
            &test_input(),
            1e-6,
        );
    }

    #[test]
    fn grad_softmax_rows() {
        // Weighted sum of softmax outputs exercises the full Jacobian.
        let w = Tensor::from_rows(&[&[0.3, -0.7, 1.1], &[0.9, 0.2, -0.5]]);
        grad_check(
            |g, x| {
                let xv = g.constant(x.clone());
                let sm = g.softmax_rows(xv);
                let wv = g.constant(w.clone());
                let prod = g.mul(sm, wv);
                g.sum_all(prod)
            },
            &test_input(),
            1e-5,
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(&[&[1000.0, 1001.0], &[-5.0, -5.0]]));
        let y = g.softmax_rows(x);
        let v = g.value(y);
        for r in 0..2 {
            let s: f64 = v.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
        }
        // Large inputs do not overflow thanks to max subtraction.
        assert!(v.get(0, 1) > v.get(0, 0));
        assert!((v.get(1, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grad_neighbour_attention() {
        // q, k and v packed side by side so one input drives all three.
        let input = Tensor::from_vec(3, 12, (0..36).map(|i| ((i as f64) * 0.53).sin()).collect());
        let mut index = NeighbourIndex::default();
        index.push_row(&[0, 2]);
        index.push_row(&[]);
        index.push_row(&[0, 1, 2]);
        let index = Arc::new(index);
        let w = Tensor::from_vec(3, 4, (0..12).map(|i| ((i as f64) * 0.71).cos()).collect());
        let build = |g: &mut Graph, x: &Tensor| {
            let xv = g.constant(x.clone());
            let q = g.slice_cols(xv, 0, 4);
            let k = g.slice_cols(xv, 4, 4);
            let v = g.slice_cols(xv, 8, 4);
            let out = g.neighbour_attention(q, k, v, 2, &index);
            let wv = g.constant(w.clone());
            let prod = g.mul(out, wv);
            g.sum_all(prod)
        };
        grad_check(build, &input, 1e-5);

        // A row without neighbours attends to nothing.
        let mut g = Graph::new();
        let x = g.constant(input.clone());
        let q = g.slice_cols(x, 0, 4);
        let out = g.neighbour_attention(q, q, q, 2, &index);
        assert_eq!(g.value(out).row(1), &[0.0; 4]);
    }

    #[test]
    fn grad_transpose_slice_concat() {
        grad_check(
            |g, x| {
                let xv = g.constant(x.clone());
                let t = g.transpose(xv); // 3x2
                let left = g.slice_cols(t, 0, 1); // 3x1
                let right = g.slice_cols(t, 1, 1); // 3x1
                let cat = g.concat_cols(&[right, left]); // swapped 3x2
                let sq = g.mul(cat, cat);
                g.sum_all(sq)
            },
            &test_input(),
            1e-6,
        );
    }

    #[test]
    fn grad_concat_rows_and_ln() {
        grad_check(
            |g, x| {
                let xv = g.constant(x.clone());
                let sq = g.mul(xv, xv); // strictly positive for ln
                let one = g.constant(Tensor::full(2, 3, 1.0));
                let pos = g.add(sq, one);
                let l = g.ln(pos);
                let stack = g.concat_rows(&[l, l]);
                g.sum_all(stack)
            },
            &test_input(),
            1e-6,
        );
        // Value check: concat_rows stacks vertically.
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_rows(&[&[1.0, 2.0]]));
        let b = g.constant(Tensor::from_rows(&[&[3.0, 4.0]]));
        let s = g.concat_rows(&[a, b]);
        assert_eq!(g.value(s).shape(), (2, 2));
        assert_eq!(g.value(s).row(1), &[3.0, 4.0]);
    }

    #[test]
    fn grad_gather_rows_accumulates_repeats() {
        grad_check(
            |g, x| {
                let xv = g.constant(x.clone());
                let gathered = g.gather_rows(xv, &[0, 0, 1]);
                let sq = g.mul(gathered, gathered);
                g.sum_all(sq)
            },
            &test_input(),
            1e-6,
        );
    }

    #[test]
    fn grad_mean_and_mse() {
        let target = Tensor::from_rows(&[&[0.0, 1.0, -1.0], &[2.0, 0.5, 0.0]]);
        grad_check(
            |g, x| {
                let xv = g.constant(x.clone());
                let t = g.constant(target.clone());
                g.mse(xv, t)
            },
            &test_input(),
            1e-6,
        );
        // MSE value is correct.
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_rows(&[&[1.0, 3.0]]));
        let b = g.constant(Tensor::from_rows(&[&[0.0, 1.0]]));
        let l = g.mse(a, b);
        assert!((g.value(l).item() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn backward_flushes_param_grads() {
        let mut store = ParamStore::new(0);
        let w = store.add(Tensor::from_rows(&[&[2.0], &[3.0]]));
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(&[&[1.0, 4.0]]));
        let wv = g.param(&store, w);
        let y = g.matmul(x, wv); // 1x1 = 2 + 12
        let loss = g.sum_all(y);
        assert_eq!(g.value(loss).item(), 14.0);
        g.backward(loss, &mut store);
        assert_eq!(store.grad(w).data(), &[1.0, 4.0]);
        // Second backward accumulates.
        let mut g2 = Graph::new();
        let x2 = g2.constant(Tensor::from_rows(&[&[1.0, 1.0]]));
        let wv2 = g2.param(&store, w);
        let y2 = g2.matmul(x2, wv2);
        let loss2 = g2.sum_all(y2);
        g2.backward(loss2, &mut store);
        assert_eq!(store.grad(w).data(), &[2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.constant(test_input());
        g.backward_graph_only(x);
    }

    #[test]
    fn pooled_graph_matches_serial_graph_bit_for_bit() {
        let x_data = Tensor::from_vec(
            64,
            8,
            (0..64 * 8).map(|i| ((i as f64) * 0.11).sin()).collect(),
        );
        let w_data = Tensor::from_vec(
            8,
            4,
            (0..8 * 4).map(|i| ((i as f64) * 0.29).cos()).collect(),
        );
        let forward = |g: &mut Graph| {
            let x = g.constant(x_data.clone());
            let w = g.constant(w_data.clone());
            let y = g.matmul(x, w);
            let r = g.relu(y);
            g.sum_all(r)
        };
        let mut serial = Graph::new();
        let ls = forward(&mut serial);
        let pool = std::sync::Arc::new(dpdp_pool::ThreadPool::new(4));
        let mut pooled = Graph::with_pool(pool);
        let lp = forward(&mut pooled);
        assert!(serial.value(ls).data() == pooled.value(lp).data());
    }
}
