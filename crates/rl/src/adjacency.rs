//! Vehicle adjacency for neighbourhood attention.
//!
//! The paper measures spatial proximity between vehicles by Euclidean
//! distance and selects the `NE` nearest vehicles as each vehicle's
//! neighbours (Section IV-C, "Neighborhood attention").

use dpdp_net::RoadNetwork;
use dpdp_routing::VehicleView;

/// For each vehicle, the indices of its `ne` nearest vehicles (by Euclidean
/// distance between anchor-node positions), **including itself first**.
/// Ties break by index. Every list has length and capacity `min(ne, K)`.
///
/// Each vehicle's distance row is computed once; a partial selection then
/// finds the `ne` nearest and only those are sorted, so a row costs
/// `O(K + ne log ne)` rather than a full sort of the fleet.
pub fn nearest_neighbors(views: &[VehicleView], net: &RoadNetwork, ne: usize) -> Vec<Vec<usize>> {
    let k = views.len();
    let take = ne.min(k);
    let positions: Vec<_> = views.iter().map(|v| net.node(v.anchor_node).pos).collect();
    let mut dist = vec![0.0; k];
    let mut order: Vec<usize> = Vec::with_capacity(k);
    (0..k)
        .map(|i| {
            // Self always sorts first (distance 0, lowered by 1), then by
            // distance, then by index for determinism.
            for (d, (a, p)) in dist.iter_mut().zip(positions.iter().enumerate()) {
                *d = positions[i].distance(p) + if a == i { -1.0 } else { 0.0 };
            }
            let by_key = |&a: &usize, &b: &usize| {
                dist[a]
                    .partial_cmp(&dist[b])
                    .expect("distances are finite")
                    .then(a.cmp(&b))
            };
            order.clear();
            order.extend(0..k);
            if take > 0 && take < k {
                order.select_nth_unstable_by(take - 1, by_key);
            }
            let nearest = &mut order[..take];
            nearest.sort_unstable_by(by_key);
            nearest.to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{Node, NodeId, Point, VehicleId};

    fn net() -> RoadNetwork {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::factory(NodeId(2), Point::new(2.0, 0.0)),
            Node::factory(NodeId(3), Point::new(10.0, 0.0)),
        ];
        RoadNetwork::euclidean(nodes, 1.0).unwrap()
    }

    fn view_at(k: u32, node: u32) -> VehicleView {
        let mut v = VehicleView::idle_at_depot(VehicleId(k), NodeId(0));
        v.anchor_node = NodeId(node);
        v
    }

    #[test]
    fn self_is_first_neighbor() {
        let net = net();
        let views = vec![view_at(0, 0), view_at(1, 1), view_at(2, 3)];
        let adj = nearest_neighbors(&views, &net, 2);
        assert_eq!(adj[0][0], 0);
        assert_eq!(adj[1][0], 1);
        assert_eq!(adj[2][0], 2);
    }

    #[test]
    fn nearest_by_position() {
        let net = net();
        let views = vec![view_at(0, 0), view_at(1, 1), view_at(2, 2), view_at(3, 3)];
        let adj = nearest_neighbors(&views, &net, 3);
        // Vehicle 0 at x=0: nearest others are x=1 then x=2.
        assert_eq!(adj[0], vec![0, 1, 2]);
        // Vehicle 3 at x=10: nearest others are x=2 then x=1.
        assert_eq!(adj[3], vec![3, 2, 1]);
    }

    #[test]
    fn ne_larger_than_fleet_is_clamped() {
        let net = net();
        let views = vec![view_at(0, 0), view_at(1, 1)];
        let adj = nearest_neighbors(&views, &net, 10);
        assert_eq!(adj[0].len(), 2);
        assert_eq!(adj[1].len(), 2);
    }

    #[test]
    fn colocated_vehicles_break_ties_by_index() {
        let net = net();
        let views = vec![view_at(0, 1), view_at(1, 1), view_at(2, 1)];
        let adj = nearest_neighbors(&views, &net, 3);
        assert_eq!(adj[1], vec![1, 0, 2]);
    }

    /// The selection agrees with a full sort of the fleet by
    /// `(distance - [self], index)` on random positions with many
    /// co-located vehicles, and every list is exactly as large as it needs
    /// to be.
    #[test]
    fn selection_matches_full_sort_with_exact_capacity() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        // Few distinct sites, many vehicles: lots of exact distance ties.
        let nodes: Vec<Node> = (0..6)
            .map(|n| {
                let pos = Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0));
                if n == 0 {
                    Node::depot(NodeId(n), pos)
                } else {
                    Node::factory(NodeId(n), pos)
                }
            })
            .collect();
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        for k in [1usize, 2, 9, 40] {
            let views: Vec<VehicleView> = (0..k)
                .map(|v| view_at(v as u32, rng.random_range(0u32..6)))
                .collect();
            let pos: Vec<Point> = views.iter().map(|v| net.node(v.anchor_node).pos).collect();
            for ne in [0usize, 1, 3, 8, 64] {
                let adj = nearest_neighbors(&views, &net, ne);
                assert_eq!(adj.len(), k);
                for (i, list) in adj.iter().enumerate() {
                    let key = |a: usize| pos[i].distance(&pos[a]) + if a == i { -1.0 } else { 0.0 };
                    let mut full: Vec<usize> = (0..k).collect();
                    full.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap().then(a.cmp(&b)));
                    full.truncate(ne.min(k));
                    assert_eq!(list, &full, "k={k} ne={ne} vehicle {i}");
                    assert_eq!(list.capacity(), list.len());
                }
            }
        }
    }
}
