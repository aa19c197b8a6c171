//! Vehicle adjacency for neighbourhood attention.
//!
//! The paper measures spatial proximity between vehicles by Euclidean
//! distance and selects the `NE` nearest vehicles as each vehicle's
//! neighbours (Section IV-C, "Neighborhood attention").

use dpdp_net::{Point, RoadNetwork};
use dpdp_routing::VehicleView;

/// For each vehicle, the indices of its `ne` nearest vehicles (by Euclidean
/// distance between anchor-node positions), **including itself first**.
/// Ties break by index. Every list has length and capacity `min(ne, K)`.
///
/// Vehicles that stand on the same position (bitwise-equal coordinates)
/// share everything but themselves: after self, each list is the first
/// `min(ne, K)` vehicles of the fleet ordered by `(distance, index)` from
/// that position, with the vehicle itself left out. So the fleet is
/// grouped by position once (a sort, `O(K log K)`), and each of the `U`
/// groups ranks the groups by distance (a partial selection plus a sort of
/// the few groups it keeps) and takes its prefix once, merging
/// equal-distance groups by vehicle index. The whole call costs
/// `O(K log K + U·(U + ne log ne) + K·ne)`, and with every vehicle on its
/// own position (`U = K`) it does no more work per row than a per-vehicle
/// selection.
pub fn nearest_neighbors(views: &[VehicleView], net: &RoadNetwork, ne: usize) -> Vec<Vec<usize>> {
    let k = views.len();
    let take = ne.min(k);
    if take == 0 {
        return vec![Vec::new(); k];
    }
    let groups = PositionGroups::new(views, net);
    let u = groups.len();
    // `prefix[g * take..][..take]`: the first `take` vehicles by
    // `(distance from group g, index)`.
    let mut prefix = Vec::with_capacity(u * take);
    let mut dist = vec![0.0; u];
    let mut order: Vec<usize> = Vec::with_capacity(u);
    let mut tied: Vec<usize> = Vec::new();
    for g in 0..u {
        let here = groups.pos[g];
        for (d, p) in dist.iter_mut().zip(&groups.pos) {
            *d = here.distance(p);
        }
        let by_dist = |a: &usize, b: &usize| {
            dist[*a]
                .partial_cmp(&dist[*b])
                .expect("distances are finite")
        };
        // Every group holds at least one vehicle, so the `min(take, U)`
        // nearest groups hold at least `take` vehicles; groups tied with
        // the farthest of them may still hold lower indices, so they join.
        order.clear();
        order.extend(0..u);
        let nth = take.min(u) - 1;
        if nth + 1 < u {
            order.select_nth_unstable_by(nth, by_dist);
            let edge = dist[order[nth]];
            let mut kept = nth + 1;
            for j in nth + 1..u {
                if dist[order[j]] == edge {
                    order.swap(kept, j);
                    kept += 1;
                }
            }
            order.truncate(kept);
        }
        order.sort_unstable_by(by_dist);
        let start = prefix.len();
        let mut run = 0;
        while prefix.len() - start < take {
            let need = take - (prefix.len() - start);
            let d = dist[order[run]];
            let end = run + order[run..].iter().take_while(|&&h| dist[h] == d).count();
            if end - run == 1 {
                prefix.extend(groups.members(order[run]).iter().take(need));
            } else {
                tied.clear();
                for &h in &order[run..end] {
                    tied.extend_from_slice(groups.members(h));
                }
                tied.sort_unstable();
                prefix.extend(tied.iter().take(need));
            }
            run = end;
        }
    }
    (0..k)
        .map(|i| {
            // Self sorts first (distance 0, lowered by 1); the group's
            // prefix, without self, holds the rest in order.
            let mut list = Vec::with_capacity(take);
            list.push(i);
            let g = groups.of[i];
            list.extend(
                prefix[g * take..(g + 1) * take]
                    .iter()
                    .filter(|&&a| a != i)
                    .take(take - 1),
            );
            list
        })
        .collect()
}

/// The fleet grouped by bitwise-equal anchor position.
struct PositionGroups {
    /// Each group's position.
    pos: Vec<Point>,
    /// Group `g`'s vehicles, ascending, are `members[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    members: Vec<usize>,
    /// The group of each vehicle.
    of: Vec<usize>,
}

impl PositionGroups {
    fn new(views: &[VehicleView], net: &RoadNetwork) -> Self {
        let positions: Vec<Point> = views.iter().map(|v| net.node(v.anchor_node).pos).collect();
        let bits = |p: &Point| (p.x.to_bits(), p.y.to_bits());
        let mut members: Vec<usize> = (0..views.len()).collect();
        // Stable, so each group's vehicles stay in ascending index order.
        members.sort_by_key(|&v| bits(&positions[v]));
        let mut groups = PositionGroups {
            pos: Vec::new(),
            starts: Vec::new(),
            members,
            of: vec![0; views.len()],
        };
        for (j, &v) in groups.members.iter().enumerate() {
            if groups
                .pos
                .last()
                .is_none_or(|p| bits(p) != bits(&positions[v]))
            {
                groups.pos.push(positions[v]);
                groups.starts.push(j);
            }
            groups.of[v] = groups.pos.len() - 1;
        }
        groups.starts.push(groups.members.len());
        groups
    }

    fn len(&self) -> usize {
        self.pos.len()
    }

    fn members(&self, g: usize) -> &[usize] {
        &self.members[self.starts[g]..self.starts[g + 1]]
    }
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

    /// Checks every list against a full sort of the fleet by
    /// `(distance - [self], index)`, and that each list is exactly as large
    /// as it needs to be.
    fn assert_matches_full_sort(net: &RoadNetwork, views: &[VehicleView], what: &str) {
        let k = views.len();
        let pos: Vec<Point> = views.iter().map(|v| net.node(v.anchor_node).pos).collect();
        for ne in [0usize, 1, 3, 8, 64, k, k + 5] {
            let adj = nearest_neighbors(views, net, ne);
            assert_eq!(adj.len(), k);
            for (i, list) in adj.iter().enumerate() {
                let key = |a: usize| pos[i].distance(&pos[a]) + if a == i { -1.0 } else { 0.0 };
                let mut full: Vec<usize> = (0..k).collect();
                full.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap().then(a.cmp(&b)));
                full.truncate(ne.min(k));
                assert_eq!(list, &full, "{what}: k={k} ne={ne} vehicle {i}");
                assert_eq!(list.capacity(), list.len());
            }
        }
    }

    fn net_at(points: &[Point]) -> RoadNetwork {
        let nodes = points
            .iter()
            .enumerate()
            .map(|(n, &pos)| {
                let id = NodeId(n as u32);
                if n == 0 {
                    Node::depot(id, pos)
                } else {
                    Node::factory(id, pos)
                }
            })
            .collect();
        RoadNetwork::euclidean(nodes, 1.0).unwrap()
    }

    /// The grouped selection agrees with a full sort of the fleet on
    /// layouts full of exact distance ties: a few random sites, distinct
    /// nodes that share one position, signed-zero coordinates, and a grid
    /// where many sites lie at equal distances. Fleets run from empty to
    /// 200 vehicles, and `ne` from 0 past the fleet size.
    #[test]
    fn selection_matches_full_sort_with_exact_capacity() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let random: Vec<Point> = (0..6)
            .map(|_| Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)))
            .collect();
        // Nodes 0/2 and 1/3 share a position; node 4 stands alone.
        let shared = vec![
            Point::new(1.0, 1.0),
            Point::new(4.0, 5.0),
            Point::new(1.0, 1.0),
            Point::new(4.0, 5.0),
            Point::new(2.0, 3.0),
        ];
        // Bitwise-distinct positions at distance zero from each other.
        let zeros = vec![
            Point::new(0.0, 0.0),
            Point::new(-0.0, 0.0),
            Point::new(0.0, -0.0),
            Point::new(-0.0, -0.0),
            Point::new(1.0, 0.0),
            Point::new(-1.0, -0.0),
        ];
        let grid: Vec<Point> = (0..25)
            .map(|n| Point::new((n % 5) as f64, (n / 5) as f64))
            .collect();
        for (what, points) in [
            ("random", random),
            ("shared", shared),
            ("zeros", zeros),
            ("grid", grid),
        ] {
            let net = net_at(&points);
            for k in [0usize, 1, 2, 9, 40, 200] {
                let views: Vec<VehicleView> = (0..k)
                    .map(|v| view_at(v as u32, rng.random_range(0..points.len() as u32)))
                    .collect();
                assert_matches_full_sort(&net, &views, what);
            }
        }
        // Every vehicle on its own position.
        let spread: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)))
            .collect();
        let net = net_at(&spread);
        let views: Vec<VehicleView> = (0..200).map(|v| view_at(v, v)).collect();
        assert_matches_full_sort(&net, &views, "distinct");
    }
}
