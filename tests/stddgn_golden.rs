//! Golden decision stream of the untrained ST-DDGN dispatcher.
//!
//! The fixed-seed, untrained ST-DDGN agent runs greedily on the first
//! orders of the paper's held-out industry day with the whole 150-vehicle
//! fleet. Every decision and every aggregate metric is folded into one
//! FNV-1a digest that is committed below. Any change to neighbour
//! selection, the tensor kernels or the tape that moves a single bit of a
//! Q-value far enough to flip a decision, or of a reported length or cost,
//! changes the digest. The run repeats on a serial and a 4-wide simulator
//! pool, which must agree.

use dpdp_core::prelude::*;

/// Orders of the held-out day the episode replays: enough for dozens of
/// greedy choices over the whole fleet, few enough for a debug build to
/// replay them twice in a few seconds.
const ORDERS: usize = 60;

/// Digest of the episode below. Change it only with a change that is meant
/// to change decisions.
const GOLDEN: u64 = 0x65b4_cb8f_f163_2a38;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn episode_digest(result: &dpdp_sim::EpisodeResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for a in &result.assignments {
        h = fnv1a(h, &(a.order.index() as u64).to_le_bytes());
        h = fnv1a(
            h,
            &a.vehicle
                .map_or(u64::MAX, |v| v.index() as u64)
                .to_le_bytes(),
        );
        h = fnv1a(h, format!("{:?}", a.reason).as_bytes());
        h = fnv1a(h, &a.time.seconds().to_bits().to_le_bytes());
        h = fnv1a(h, &(a.interval as u64).to_le_bytes());
        h = fnv1a(h, &a.prev_length.to_bits().to_le_bytes());
        h = fnv1a(h, &a.new_length.to_bits().to_le_bytes());
        h = fnv1a(h, &[u8::from(a.vehicle_was_used)]);
    }
    let m = &result.metrics;
    for count in [m.nuv, m.served, m.rejected] {
        h = fnv1a(h, &(count as u64).to_le_bytes());
    }
    for x in [m.ttl, m.total_cost, m.avg_response_secs] {
        h = fnv1a(h, &x.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn untrained_stddgn_decision_stream_matches_golden_digest() {
    let presets = Presets::paper();
    let day = presets.industry_instance(0);
    let instance = Instance::new(
        day.network.clone(),
        day.fleet.clone(),
        day.grid,
        day.orders()[..ORDERS].to_vec(),
    )
    .expect("a prefix of a valid day is valid");
    assert_eq!(instance.num_vehicles(), 150);

    let digests: Vec<u64> = [1, 4]
        .into_iter()
        .map(|threads| {
            let mut agent = models::dqn_agent(ModelKind::StDdgn, presets.dataset(), 2021);
            agent.set_prediction(Some(presets.test_prediction(0, 4)));
            agent.set_training(false);
            let result = Simulator::builder(&instance)
                .num_threads(threads)
                .build()
                .expect("valid configuration")
                .run(&mut agent);
            assert_eq!(result.assignments.len(), ORDERS);
            assert!(result.metrics.served > 0, "nothing was decided");
            episode_digest(&result)
        })
        .collect();
    assert_eq!(digests[0], digests[1], "pool width changed the decisions");
    assert_eq!(digests[0], GOLDEN, "digest {:016x}", digests[0]);
}
