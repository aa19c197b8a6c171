//! The relational Q-network of the paper (Fig. 4 / Fig. 5).
//!
//! Per vehicle: an initial MLP embeds the 5-feature state; stacked
//! *neighbourhood attention* blocks let each vehicle integrate its `NE`
//! nearest (feasible) vehicles' representations via multi-head scaled
//! dot-product attention; finally the initial and top-level representations
//! are concatenated and mapped to a scalar Q-value. All vehicles share
//! weights ("each vehicle owns its network but shares the same weights").
//!
//! Attention runs over each vehicle's own neighbour list (itself plus its
//! feasible neighbours, [`dpdp_nn::Graph::neighbour_attention`]), never
//! over the whole fleet, so attention over `K` vehicles costs
//! `O(K · NE · d)` per level for width `d` (the row-wise projections add
//! `O(K · d²)`): linear in the fleet, and linear in the rows of a stacked
//! batch.

use crate::state::{StateSnapshot, STATE_DIM};
use dpdp_nn::{Graph, Mlp, MultiHeadAttention, NeighbourIndex, ParamStore, Precision, Tensor, Var};
use dpdp_pool::ThreadPool;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Q-network architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QNetworkConfig {
    /// Embedding width of the per-vehicle representation.
    pub hidden: usize,
    /// Attention heads per neighbourhood block.
    pub heads: usize,
    /// Number of stacked neighbourhood-attention blocks (the paper uses 2).
    pub levels: usize,
    /// Whether the graph (attention) pathway is enabled; `false` gives the
    /// plain DQN/DDQN ablations.
    pub graph: bool,
}

impl Default for QNetworkConfig {
    fn default() -> Self {
        QNetworkConfig {
            hidden: 32,
            heads: 4,
            levels: 2,
            graph: true,
        }
    }
}

/// The Q-network: maps a joint state (`K x 5`) to per-vehicle Q-values
/// (`K x 1`).
#[derive(Debug, Clone)]
pub struct QNetwork {
    config: QNetworkConfig,
    initial: Mlp,
    attention: Vec<MultiHeadAttention>,
    head: Mlp,
}

impl QNetwork {
    /// Registers all parameters in `store`.
    pub fn new(store: &mut ParamStore, config: QNetworkConfig) -> Self {
        let initial = Mlp::new(store, &[STATE_DIM, config.hidden, config.hidden]);
        let attention = if config.graph {
            (0..config.levels)
                .map(|_| MultiHeadAttention::new(store, config.hidden, config.heads))
                .collect()
        } else {
            Vec::new()
        };
        let head_in = if config.graph {
            2 * config.hidden
        } else {
            config.hidden
        };
        let head = Mlp::new(store, &[head_in, config.hidden, 1]);
        QNetwork {
            config,
            initial,
            attention,
            head,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> QNetworkConfig {
        self.config
    }

    /// Forward pass on the tape: returns a `K x 1` Q-value node.
    ///
    /// Infeasible vehicles are excluded from every attention context (the
    /// *constraint embedding*: they take no part in inference), and their
    /// output rows are meaningless — callers must mask them.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, snap: &StateSnapshot) -> Var {
        let x = g.constant(snap.features.clone());
        self.forward_rows(g, store, x, std::slice::from_ref(snap))
    }

    /// The network body over `x`, the feature rows of `snaps` stacked in
    /// order. Attention follows each snapshot's own neighbour lists, so
    /// stacked snapshots never see each other.
    fn forward_rows(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Var,
        snaps: &[StateSnapshot],
    ) -> Var {
        let h0 = self.initial.forward(g, store, x);
        if !self.config.graph {
            return self.head.forward(g, store, h0);
        }
        let index = Arc::new(attention_index(snaps));
        let mut h = h0;
        for attn in &self.attention {
            let out = attn.forward_neighbours(g, store, h, &index);
            h = g.relu(out);
        }
        let head_in = g.concat_cols(&[h0, h]);
        self.head.forward(g, store, head_in)
    }

    /// Convenience: evaluates Q-values on a throwaway graph and returns them
    /// as a plain vector (infeasible entries set to `f64::NEG_INFINITY`, the
    /// paper's "extremely small negative").
    pub fn q_values(&self, store: &ParamStore, snap: &StateSnapshot) -> Vec<f64> {
        let mut g = Graph::new();
        let q = self.forward(&mut g, store, snap);
        masked_q(g.value(q), 0, snap)
    }

    /// Evaluates many joint states in **one forward pass** over their
    /// stacked feature rows and returns one Q-vector per snapshot, in
    /// order. Each vehicle attends over its own snapshot's neighbour list,
    /// so an attention level costs `O(sum K_i · NE · d)`: linear in the
    /// stacked rows, however many snapshots a batch holds.
    ///
    /// Every op involved (row-wise MLPs, neighbour-list attention) treats
    /// rows independently of other snapshots, so the results are
    /// bit-identical to calling [`QNetwork::q_values`] once per snapshot,
    /// and `pool` (which splits the matmuls and attention by rows) changes
    /// only the wall time — the batch/serial parity tests rely on this.
    pub fn q_values_batch(
        &self,
        store: &ParamStore,
        snaps: &[StateSnapshot],
        pool: &Arc<ThreadPool>,
    ) -> Vec<Vec<f64>> {
        self.q_values_batch_prec(store, snaps, pool, Precision::F64)
    }

    /// [`QNetwork::q_values_batch`] with every matmul demoted to `f32`
    /// ([`Precision::F32`]): inputs are converted once, accumulation runs
    /// in single precision and the products are widened back to `f64` —
    /// roughly half the matmul memory traffic on wide inference batches.
    ///
    /// The contract is **tolerance, not bit-identity**, against the f64
    /// path: per-element divergence is O(2⁻²⁴) relative per accumulation
    /// step (see the `f32_batch_tracks_f64_within_tolerance` test for the
    /// gate this repo holds it to). Within the f32 path itself, results
    /// are bit-identical at any thread count — stacking and the f32 row
    /// kernel are both scheduling-independent. Because greedy action
    /// selection compares Q-values, callers accepting this path accept
    /// that near-ties (within the tolerance band) may resolve differently
    /// than under f64 — which is why every parity-gated pipeline keeps the
    /// default f64 entry point.
    pub fn q_values_batch_f32(
        &self,
        store: &ParamStore,
        snaps: &[StateSnapshot],
        pool: &Arc<ThreadPool>,
    ) -> Vec<Vec<f64>> {
        self.q_values_batch_prec(store, snaps, pool, Precision::F32)
    }

    fn q_values_batch_prec(
        &self,
        store: &ParamStore,
        snaps: &[StateSnapshot],
        pool: &Arc<ThreadPool>,
        precision: Precision,
    ) -> Vec<Vec<f64>> {
        if snaps.is_empty() {
            return Vec::new();
        }
        let (features, offsets) = crate::batch_dispatch::stack_features(snaps);
        let mut g = Graph::with_pool(Arc::clone(pool)).with_precision(precision);
        let x = g.constant(features);
        let q = self.forward_rows(&mut g, store, x, snaps);
        let values = g.value(q);
        snaps
            .iter()
            .zip(&offsets)
            .map(|(snap, &base)| masked_q(values, base, snap))
            .collect()
    }

    /// Index of the feasible vehicle with the highest Q-value, if any.
    pub fn greedy_action(&self, store: &ParamStore, snap: &StateSnapshot) -> Option<usize> {
        let q = self.q_values(store, snap);
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in q.iter().enumerate() {
            if snap.feasible[i] && best.is_none_or(|(_, b)| v > b) {
                best = Some((i, v));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// The attention lists of stacked snapshots: vehicle `v` of a snapshot
/// attends to itself and to its feasible neighbours (the constraint
/// embedding: infeasible vehicles take no part in anyone else's
/// inference), shifted to the snapshot's row offset.
fn attention_index(snaps: &[StateSnapshot]) -> NeighbourIndex {
    let rows: usize = snaps.iter().map(StateSnapshot::num_vehicles).sum();
    let nnz: usize = snaps
        .iter()
        .flat_map(|s| &s.neighbors)
        .map(|n| n.len() + 1)
        .sum();
    let mut index = NeighbourIndex::with_capacity(rows, nnz);
    let mut row = Vec::new();
    let mut base = 0;
    for snap in snaps {
        for (v, neighbors) in snap.neighbors.iter().enumerate() {
            row.clear();
            row.push(base + v);
            row.extend(
                neighbors
                    .iter()
                    .filter(|&&n| n != v && snap.feasible[n])
                    .map(|&n| base + n),
            );
            row.sort_unstable();
            row.dedup();
            index.push_row(&row);
        }
        base += snap.num_vehicles();
    }
    index
}

/// Snapshot `snap`'s Q-values from rows `base..` of `values`, with
/// infeasible vehicles set to `f64::NEG_INFINITY`.
fn masked_q(values: &Tensor, base: usize, snap: &StateSnapshot) -> Vec<f64> {
    (0..snap.num_vehicles())
        .map(|i| {
            if snap.feasible[i] {
                values.get(base + i, 0)
            } else {
                f64::NEG_INFINITY
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(k: usize, feasible: Vec<bool>) -> StateSnapshot {
        let features = Tensor::from_vec(
            k,
            STATE_DIM,
            (0..k * STATE_DIM)
                .map(|i| (i as f64 * 0.13).sin())
                .collect(),
        );
        let neighbors = (0..k)
            .map(|i| (0..k).filter(|&j| j != i).take(3).collect())
            .collect();
        StateSnapshot {
            features,
            feasible,
            neighbors,
        }
    }

    #[test]
    fn forward_shapes_with_and_without_graph() {
        for graph in [true, false] {
            let mut store = ParamStore::new(0);
            let net = QNetwork::new(
                &mut store,
                QNetworkConfig {
                    hidden: 8,
                    heads: 2,
                    levels: 2,
                    graph,
                },
            );
            let snap = snapshot(4, vec![true; 4]);
            let mut g = Graph::new();
            let q = net.forward(&mut g, &store, &snap);
            assert_eq!(g.value(q).shape(), (4, 1));
        }
    }

    #[test]
    fn infeasible_vehicles_masked_in_q_values() {
        let mut store = ParamStore::new(1);
        let net = QNetwork::new(&mut store, QNetworkConfig::default());
        let snap = snapshot(3, vec![true, false, true]);
        let q = net.q_values(&store, &snap);
        assert_eq!(q.len(), 3);
        assert_eq!(q[1], f64::NEG_INFINITY);
        assert!(q[0].is_finite() && q[2].is_finite());
        let a = net.greedy_action(&store, &snap).unwrap();
        assert_ne!(a, 1);
    }

    /// The tolerance contract of [`QNetwork::q_values_batch_f32`]: the f32
    /// forward tracks the f64 reference within a small absolute band on
    /// O(1)-magnitude Q-values, masks the same infeasible entries exactly,
    /// and is bit-identical to itself at any thread count.
    #[test]
    fn f32_batch_tracks_f64_within_tolerance() {
        let mut store = ParamStore::new(9);
        let net = QNetwork::new(&mut store, QNetworkConfig::default());
        let snaps: Vec<StateSnapshot> = (0..6)
            .map(|s| {
                let k = 3 + s % 4;
                let feasible = (0..k).map(|i| i != s % k).collect();
                snapshot(k, feasible)
            })
            .collect();
        let pool = Arc::new(ThreadPool::new(2));
        let exact = net.q_values_batch(&store, &snaps, &pool);
        let approx = net.q_values_batch_f32(&store, &snaps, &pool);
        assert_eq!(exact.len(), approx.len());
        for (qe, qa) in exact.iter().zip(&approx) {
            assert_eq!(qe.len(), qa.len());
            for (&e, &a) in qe.iter().zip(qa) {
                if e == f64::NEG_INFINITY {
                    assert_eq!(a, f64::NEG_INFINITY, "masking must be exact");
                } else {
                    assert!((e - a).abs() < 1e-4, "f32 drifted too far: {e} vs {a}");
                    assert!(a.is_finite());
                }
            }
        }
        // The reduced-precision path keeps the thread-count determinism
        // guarantee: widths 1/2/4 agree bit for bit.
        let serial = net.q_values_batch_f32(&store, &snaps, &Arc::new(ThreadPool::new(1)));
        for threads in [2usize, 4] {
            let wide = net.q_values_batch_f32(&store, &snaps, &Arc::new(ThreadPool::new(threads)));
            for (qs, qw) in serial.iter().zip(&wide) {
                for (&s, &w) in qs.iter().zip(qw) {
                    assert!(
                        s.to_bits() == w.to_bits(),
                        "f32 path diverged at width {threads}"
                    );
                }
            }
        }
    }

    /// A stacked batch wider than any single fleet is one forward whose
    /// Q-values equal per-snapshot evaluation bit for bit, whatever the
    /// pool width that splits its rows.
    #[test]
    fn wide_batch_matches_per_snapshot_q_values_at_any_width() {
        let mut store = ParamStore::new(5);
        let net = QNetwork::new(&mut store, QNetworkConfig::default());
        let snaps: Vec<StateSnapshot> = (0..5)
            .map(|s| {
                let k = 50 + 7 * s;
                let feasible = (0..k).map(|i| (i * 7 + s) % 5 != 0).collect();
                let mut snap = snapshot(k, feasible);
                snap.neighbors = (0..k)
                    .map(|i| {
                        let mut list = vec![i];
                        list.extend((1..8).map(|j| (i * 31 + j * 17 + s) % k));
                        list
                    })
                    .collect();
                snap
            })
            .collect();
        assert!(snaps.iter().map(StateSnapshot::num_vehicles).sum::<usize>() > 256);
        let serial: Vec<Vec<f64>> = snaps.iter().map(|s| net.q_values(&store, s)).collect();
        for threads in [1usize, 2, 4] {
            let batch = net.q_values_batch(&store, &snaps, &Arc::new(ThreadPool::new(threads)));
            assert_eq!(batch.len(), serial.len());
            for (qb, qs) in batch.iter().zip(&serial) {
                let bits = |q: &[f64]| q.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(qb), bits(qs), "batch diverged at width {threads}");
            }
        }
    }

    #[test]
    fn no_feasible_vehicle_yields_no_action() {
        let mut store = ParamStore::new(2);
        let net = QNetwork::new(&mut store, QNetworkConfig::default());
        let snap = snapshot(2, vec![false, false]);
        assert_eq!(net.greedy_action(&store, &snap), None);
    }

    #[test]
    fn gradients_flow_through_both_pathways() {
        let mut store = ParamStore::new(3);
        let net = QNetwork::new(
            &mut store,
            QNetworkConfig {
                hidden: 8,
                heads: 2,
                levels: 1,
                graph: true,
            },
        );
        let snap = snapshot(3, vec![true; 3]);
        let mut g = Graph::new();
        let q = net.forward(&mut g, &store, &snap);
        let loss = g.sum_all(q);
        g.backward(loss, &mut store);
        let live = (0..store.len())
            .filter(|&i| store.grad(dpdp_nn::ParamId(i)).norm() > 0.0)
            .count();
        assert!(
            live as f64 >= store.len() as f64 * 0.8,
            "only {live}/{} params received gradient",
            store.len()
        );
    }

    #[test]
    fn attention_context_excludes_infeasible_neighbors() {
        // Changing an infeasible neighbour's features must not change a
        // feasible vehicle's Q-value.
        let mut store = ParamStore::new(4);
        let net = QNetwork::new(
            &mut store,
            QNetworkConfig {
                hidden: 8,
                heads: 2,
                levels: 1,
                graph: true,
            },
        );
        let mut snap = snapshot(3, vec![true, false, true]);
        let q1 = net.q_values(&store, &snap);
        // Perturb the infeasible vehicle's features wildly.
        for c in 0..STATE_DIM {
            *snap.features.get_mut(1, c) = 1000.0;
        }
        let q2 = net.q_values(&store, &snap);
        assert!((q1[0] - q2[0]).abs() < 1e-9, "{} vs {}", q1[0], q2[0]);
        assert!((q1[2] - q2[2]).abs() < 1e-9);
    }
}
