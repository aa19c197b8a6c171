//! Neural-network benchmarks: ST-DDGN Q-network forward and
//! forward+backward at fleet scale, with and without the graph pathway
//! (quantifying the cost of neighbourhood attention), up to a K = 1000
//! fleet, plus one stacked 16 x K150 batch forward. Attention runs over
//! neighbour lists, so both the fleet and the stacked cases should scale
//! linearly in rows.
//!
//! Neighbour selection (`nearest_neighbors`) runs on the industry shape,
//! 150 vehicles on 12 sites, and on its worst case, 1000 vehicles each on
//! a position of its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpdp_net::{Node, NodeId, Point, RoadNetwork, VehicleId};
use dpdp_nn::{Graph, ParamStore, Tensor};
use dpdp_pool::ThreadPool;
use dpdp_rl::{nearest_neighbors, QNetwork, QNetworkConfig, StateSnapshot};
use dpdp_routing::VehicleView;
use std::sync::Arc;

fn snapshot(k: usize, ne: usize, phase: f64) -> StateSnapshot {
    let features = Tensor::from_vec(
        k,
        5,
        (0..k * 5)
            .map(|i| (i as f64 * 0.17 + phase).sin())
            .collect(),
    );
    let neighbors = (0..k)
        .map(|i| {
            let mut v = vec![i];
            v.extend((0..k).filter(|&j| j != i).take(ne - 1));
            v
        })
        .collect();
    StateSnapshot {
        features,
        feasible: vec![true; k],
        neighbors,
    }
}

fn bench_qnet(c: &mut Criterion) {
    let mut group = c.benchmark_group("qnet");
    group.sample_size(20);
    for &(k, graph) in &[(50usize, true), (50, false), (150, true), (1000, true)] {
        let mut store = ParamStore::new(0);
        let net = QNetwork::new(
            &mut store,
            QNetworkConfig {
                hidden: 32,
                heads: 4,
                levels: 2,
                graph,
            },
        );
        let snap = snapshot(k, 8, 0.0);
        let label = format!("K{k}_graph{graph}");
        group.bench_with_input(BenchmarkId::new("forward", &label), &snap, |b, snap| {
            b.iter(|| std::hint::black_box(net.q_values(&store, snap)))
        });
        group.bench_with_input(
            BenchmarkId::new("forward_backward", &label),
            &snap,
            |b, snap| {
                b.iter(|| {
                    let mut store2 = store.clone();
                    let mut g = Graph::new();
                    let q = net.forward(&mut g, &store2, snap);
                    let loss = g.sum_all(q);
                    g.backward(loss, &mut store2);
                    std::hint::black_box(store2.grad(dpdp_nn::ParamId(0)).norm())
                })
            },
        );
    }
    // One epoch's worth of orders scored in a single stacked forward, on
    // a serial pool so the timing shows the work, not the machine width.
    let mut store = ParamStore::new(0);
    let net = QNetwork::new(&mut store, QNetworkConfig::default());
    let snaps: Vec<StateSnapshot> = (0..16).map(|s| snapshot(150, 8, s as f64)).collect();
    let pool = Arc::new(ThreadPool::new(1));
    group.bench_with_input(
        BenchmarkId::new("q_values_batch", "16xK150"),
        &snaps,
        |b, snaps| b.iter(|| std::hint::black_box(net.q_values_batch(&store, snaps, &pool))),
    );
    group.finish();
}

/// `k` vehicles spread round-robin over `sites` nodes on a 20 km square.
fn fleet(k: usize, sites: usize) -> (RoadNetwork, Vec<VehicleView>) {
    let nodes = (0..sites)
        .map(|n| {
            let pos = Point::new(
                10.0 + 10.0 * (n as f64 * 0.731).sin(),
                10.0 + 10.0 * (n as f64 * 1.379).cos(),
            );
            let id = NodeId::from_index(n);
            if n == 0 {
                Node::depot(id, pos)
            } else {
                Node::factory(id, pos)
            }
        })
        .collect();
    let net = RoadNetwork::euclidean(nodes, 1.0).expect("valid network");
    let views = (0..k)
        .map(|v| {
            let mut view = VehicleView::idle_at_depot(VehicleId::from_index(v), NodeId(0));
            view.anchor_node = NodeId::from_index(v % sites);
            view
        })
        .collect();
    (net, views)
}

fn bench_neighbours(c: &mut Criterion) {
    let mut group = c.benchmark_group("nearest_neighbors");
    for &(k, sites, samples) in &[(150usize, 12usize, 500usize), (1000, 1000, 20)] {
        group.sample_size(samples);
        let (net, views) = fleet(k, sites);
        group.bench_function(format!("K{k}_sites{sites}_ne8"), |b| {
            b.iter(|| std::hint::black_box(nearest_neighbors(&views, &net, 8)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_qnet, bench_neighbours);
criterion_main!(benches);
