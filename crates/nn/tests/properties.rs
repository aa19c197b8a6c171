//! Property-based tests for the autodiff substrate: random graphs checked
//! against finite differences, tensor algebra laws, optimizer behaviour.

use dpdp_nn::{Graph, NeighbourIndex, ParamStore, Tensor, Var};
use dpdp_pool::ThreadPool;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

/// Central-difference check of d(loss)/d(input) for a generic builder that
/// returns `(input_var, loss_var)`.
fn fd_check(
    build: impl Fn(&mut Graph, &Tensor) -> (Var, Var),
    input: &Tensor,
) -> Result<(), String> {
    let mut g = Graph::new();
    let (input_var, loss) = build(&mut g, input);
    g.backward_graph_only(loss);
    let analytic = g.grad(input_var).clone();
    let eps = 1e-6;
    for r in 0..input.rows() {
        for c in 0..input.cols() {
            let mut plus = input.clone();
            *plus.get_mut(r, c) += eps;
            let mut minus = input.clone();
            *minus.get_mut(r, c) -= eps;
            let mut gp = Graph::new();
            let (_, lp) = build(&mut gp, &plus);
            let mut gm = Graph::new();
            let (_, lm) = build(&mut gm, &minus);
            let fd = (gp.value(lp).item() - gm.value(lm).item()) / (2.0 * eps);
            let a = analytic.get(r, c);
            if (fd - a).abs() > 1e-4 * (1.0 + fd.abs().max(a.abs())) {
                return Err(format!("grad mismatch at ({r},{c}): fd={fd} analytic={a}"));
            }
        }
    }
    Ok(())
}

/// Row `v` of the attention lists: `v` itself plus the picked neighbours
/// that are feasible, ascending without duplicates — the shape the
/// Q-network builds from a state snapshot.
fn self_inclusive_lists(picks: &[Vec<usize>], feasible: &[bool]) -> Vec<Vec<usize>> {
    picks
        .iter()
        .enumerate()
        .map(|(v, p)| {
            let mut row: Vec<usize> = p
                .iter()
                .copied()
                .filter(|&n| n != v && feasible[n])
                .collect();
            row.push(v);
            row.sort_unstable();
            row.dedup();
            row
        })
        .collect()
}

/// Splits a `K x 12` input into `K x 4` query, key and value blocks.
fn split_qkv(g: &mut Graph, input: &Tensor) -> (Var, Var, Var, Var) {
    let xv = g.constant(input.clone());
    let q = g.slice_cols(xv, 0, 4);
    let k = g.slice_cols(xv, 4, 4);
    let v = g.slice_cols(xv, 8, 4);
    (xv, q, k, v)
}

/// Dense multi-head attention restricted to `lists` through a `K x K`
/// additive mask (0 kept, -inf dropped) ahead of a full softmax: the
/// reference the sparse op must reproduce.
fn dense_masked_attention(
    g: &mut Graph,
    q: Var,
    k: Var,
    v: Var,
    heads: usize,
    lists: &[Vec<usize>],
) -> Var {
    let (m, d) = g.value(q).shape();
    let n = g.value(k).rows();
    let mut bias = Tensor::full(m, n, f64::NEG_INFINITY);
    for (r, list) in lists.iter().enumerate() {
        for &c in list {
            *bias.get_mut(r, c) = 0.0;
        }
    }
    let dk = d / heads;
    let scale = 1.0 / (dk as f64).sqrt();
    let mut outs = Vec::new();
    for h in 0..heads {
        let qh = g.slice_cols(q, h * dk, dk);
        let kh = g.slice_cols(k, h * dk, dk);
        let vh = g.slice_cols(v, h * dk, dk);
        let kt = g.transpose(kh);
        let scores = g.matmul(qh, kt);
        let scaled = g.scale(scores, scale);
        let b = g.constant(bias.clone());
        let masked = g.add(scaled, b);
        let attn = g.softmax_rows(masked);
        outs.push(g.matmul(attn, vh));
    }
    g.concat_cols(&outs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Matmul distributes over addition: (A + B) C = AC + BC.
    #[test]
    fn matmul_distributes(a in arb_tensor(3, 4), b in arb_tensor(3, 4), c in arb_tensor(4, 2)) {
        let mut sum = a.clone();
        sum.add_assign(&b);
        let lhs = sum.matmul(&c);
        let mut rhs = a.matmul(&c);
        rhs.add_assign(&b.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    /// (AB)^T = B^T A^T.
    #[test]
    fn transpose_of_product(a in arb_tensor(3, 4), b in arb_tensor(4, 2)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    /// Softmax rows are probability distributions regardless of input
    /// scale, and the op is shift-invariant per row.
    #[test]
    fn softmax_is_a_distribution(x in arb_tensor(4, 5), shift in -100.0f64..100.0) {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let y = g.softmax_rows(xv);
        let shifted = x.map(|v| v + shift);
        let xv2 = g.constant(shifted);
        let y2 = g.softmax_rows(xv2);
        for r in 0..4 {
            let s: f64 = g.value(y).row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            for c in 0..5 {
                let a = g.value(y).get(r, c);
                prop_assert!(a >= 0.0);
                prop_assert!((a - g.value(y2).get(r, c)).abs() < 1e-9, "shift invariance");
            }
        }
    }

    /// A random composite graph (linear -> relu -> softmax -> weighted sum)
    /// matches finite differences.
    #[test]
    fn random_composite_graph_grads(x in arb_tensor(2, 3), w in arb_tensor(3, 3), s in 0.1f64..3.0) {
        // Stay away from the ReLU kink, where finite differences are
        // ill-defined.
        let pre = x.matmul(&w);
        prop_assume!(pre.data().iter().all(|v| v.abs() > 1e-3));
        let build = |g: &mut Graph, input: &Tensor| {
            let xv = g.constant(input.clone());
            let wv = g.constant(w.clone());
            let h = g.matmul(xv, wv);
            let r = g.relu(h);
            let sm = g.softmax_rows(r);
            let scaled = g.scale(sm, s);
            let prod = g.mul(scaled, scaled);
            (xv, g.sum_all(prod))
        };
        fd_check(build, &x).map_err(TestCaseError::fail)?;
    }

    /// Neighbour attention weights are exactly zero off each row's list
    /// and a distribution over it; a row with an empty list yields zeros.
    /// Identity keys turn `x` into the logits and identity values make the
    /// output row equal the weights themselves.
    #[test]
    fn neighbour_attention_distribution(
        x in arb_tensor(3, 4),
        mask_bits in proptest::collection::vec(proptest::bool::ANY, 12),
    ) {
        let mut index = NeighbourIndex::default();
        for r in 0..3 {
            let cols: Vec<usize> = (0..4).filter(|&c| mask_bits[r * 4 + c]).collect();
            index.push_row(&cols);
        }
        let index = Arc::new(index);
        let mut eye = Tensor::zeros(4, 4);
        for c in 0..4 {
            *eye.get_mut(c, c) = 1.0;
        }
        let mut g = Graph::new();
        let xv = g.constant(x);
        let context = g.constant(eye.clone());
        let values = g.constant(eye);
        let y = g.neighbour_attention(xv, context, values, 1, &index);
        for r in 0..3 {
            let sum: f64 = g.value(y).row(r).iter().sum();
            if index.row(r).is_empty() {
                prop_assert_eq!(sum, 0.0);
            } else {
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
            for c in 0..4 {
                let w = g.value(y).get(r, c);
                if mask_bits[r * 4 + c] {
                    prop_assert!(w > 0.0);
                } else {
                    prop_assert_eq!(w, 0.0);
                }
            }
        }
    }

    /// On random neighbour lists, including self-only rows and rows that
    /// drop infeasible neighbours, the sparse op reproduces dense attention
    /// under the equivalent mask bit for bit, and its gradients pass the
    /// finite-difference check and agree with the dense ones to 1e-12
    /// relative to the largest gradient entry.
    #[test]
    fn neighbour_attention_matches_dense_reference(
        x in arb_tensor(6, 12),
        neighbour_picks in proptest::collection::vec(proptest::collection::vec(0usize..6, 0..4), 6),
        feasible in proptest::collection::vec(proptest::bool::ANY, 6),
        head_pick in 0usize..3,
    ) {
        let heads = [1, 2, 4][head_pick];
        let lists = self_inclusive_lists(&neighbour_picks, &feasible);
        let mut index = NeighbourIndex::default();
        for list in &lists {
            index.push_row(list);
        }
        let index = Arc::new(index);
        let sparse = |g: &mut Graph, input: &Tensor| {
            let (xv, q, k, v) = split_qkv(g, input);
            let out = g.neighbour_attention(q, k, v, heads, &index);
            (xv, out)
        };
        let dense = |g: &mut Graph, input: &Tensor| {
            let (xv, q, k, v) = split_qkv(g, input);
            let out = dense_masked_attention(g, q, k, v, heads, &lists);
            (xv, out)
        };
        let weighted = |g: &mut Graph, out: Var| {
            let w = g.constant(Tensor::from_vec(6, 4, (0..24).map(|i| ((i as f64) * 0.61).sin()).collect()));
            let prod = g.mul(out, w);
            g.sum_all(prod)
        };

        // Forward: bit-identical, also on a pooled graph.
        let mut gs = Graph::new();
        let (_, ys) = sparse(&mut gs, &x);
        let mut gd = Graph::new();
        let (_, yd) = dense(&mut gd, &x);
        prop_assert!(gs.value(ys).data() == gd.value(yd).data(), "forward diverged from dense");
        let mut gp = Graph::with_pool(Arc::new(ThreadPool::new(2)));
        let (_, yp) = sparse(&mut gp, &x);
        prop_assert!(gs.value(ys).data() == gp.value(yp).data(), "pooled forward diverged");

        // Backward: finite differences, then the dense gradient.
        fd_check(|g, input| {
            let (xv, out) = sparse(g, input);
            (xv, weighted(g, out))
        }, &x).map_err(TestCaseError::fail)?;
        let grad_of = |build: &dyn Fn(&mut Graph, &Tensor) -> (Var, Var)| {
            let mut g = Graph::new();
            let (xv, out) = build(&mut g, &x);
            let loss = weighted(&mut g, out);
            g.backward_graph_only(loss);
            g.grad(xv).clone()
        };
        let gsp = grad_of(&sparse);
        let gde = grad_of(&dense);
        let largest = gde.data().iter().fold(f64::MIN_POSITIVE, |m, g| m.max(g.abs()));
        let diff = gsp.max_abs_diff(&gde);
        prop_assert!(diff <= 1e-12 * largest, "gradient off the dense one by {diff} (largest {largest})");
    }

    /// Gradient accumulation is linear: running backward twice doubles the
    /// parameter gradient.
    #[test]
    fn grad_accumulation_is_linear(x in arb_tensor(1, 3), w0 in arb_tensor(3, 1)) {
        let mut store = ParamStore::new(0);
        let w = store.add(w0);
        let run = |store: &mut ParamStore| {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let wv = g.param(store, w);
            let y = g.matmul(xv, wv);
            let loss = g.sum_all(y);
            g.backward(loss, store);
        };
        run(&mut store);
        let once = store.grad(w).clone();
        run(&mut store);
        let mut twice = once.clone();
        twice.add_assign(&once);
        prop_assert!(store.grad(w).max_abs_diff(&twice) < 1e-9);
    }

    /// SGD on a convex quadratic from any start converges toward the
    /// optimum (distance strictly decreases over 50 steps).
    #[test]
    fn sgd_descends_quadratics(start in -10.0f64..10.0, target in -10.0f64..10.0) {
        use dpdp_nn::{Optimizer, Sgd};
        prop_assume!((start - target).abs() > 1e-3);
        let mut store = ParamStore::new(0);
        let w = store.add(Tensor::scalar(start));
        let mut sgd = Sgd::new(0.05);
        for _ in 0..50 {
            let mut g = Graph::new();
            let wv = g.param(&store, w);
            let t = g.constant(Tensor::scalar(target));
            let loss = g.mse(wv, t);
            g.backward(loss, &mut store);
            sgd.step(&mut store);
        }
        let end = store.value(w).item();
        prop_assert!((end - target).abs() < (start - target).abs() * 0.1);
    }

    /// Checkpoint serialisation roundtrips arbitrary parameter shapes.
    #[test]
    fn checkpoint_roundtrip(shapes in proptest::collection::vec((1usize..6, 1usize..6), 1..5)) {
        use dpdp_nn::serialize::{load_params, save_params};
        let mut a = ParamStore::new(1);
        let mut b = ParamStore::new(2);
        for &(r, c) in &shapes {
            a.add_xavier(r, c);
            b.add_xavier(r, c);
        }
        let bytes = save_params(&a);
        load_params(&mut b, &bytes).unwrap();
        for i in 0..a.len() {
            let id = dpdp_nn::ParamId(i);
            prop_assert!(a.value(id).max_abs_diff(b.value(id)) == 0.0);
        }
    }
}
