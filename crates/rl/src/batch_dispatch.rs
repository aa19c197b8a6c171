//! Shared batch-dispatch scaffolding for the learned agents.
//!
//! Both [`DqnAgent`](crate::agent::DqnAgent) and
//! [`ActorCriticAgent`](crate::ac::ActorCriticAgent) follow the same
//! epoch-commit protocol: build every order's joint state against the
//! shared epoch snapshot, score them all in **one** network forward pass,
//! then commit orders sequentially — falling back to fresh per-order
//! evaluation once an assignment perturbs the snapshot, which keeps the
//! decision stream bit-identical to the legacy per-order path. The subtle
//! invariants (precomputed scores are valid only until the first
//! assignment; each prebuilt snapshot is consumed exactly once; `resolve`
//! runs in batch order) live here, once.
//!
//! Region sharding (`SimulatorBuilder::sharding`) is transparent to this
//! protocol: the joint states built through [`DecisionBatch::map_contexts`]
//! read the batch's merged plan matrix, in which cross-shard pairs pruned
//! by the exact infeasibility bound carry the same `best: None` (and so
//! the same `-1` sentinel features and feasibility mask) a full evaluation
//! would have produced — agents see identical states and emit identical
//! decisions at every shard count (`tests/batch_parity.rs`).

use crate::state::{StateSnapshot, STATE_DIM};
use dpdp_net::VehicleId;
use dpdp_nn::Tensor;
use dpdp_pool::ThreadPool;
use dpdp_sim::{Decision, DecisionBatch, DispatchContext};
use std::sync::Arc;

/// Stacks snapshot feature matrices into one `(sum K_i) x STATE_DIM`
/// tensor, returning each snapshot's starting row. Shared by every batched
/// forward (DQN Q-values, AC logits) so the parity-critical stacking logic
/// exists once.
pub(crate) fn stack_features(snaps: &[StateSnapshot]) -> (Tensor, Vec<usize>) {
    let total: usize = snaps.iter().map(StateSnapshot::num_vehicles).sum();
    let mut features = Tensor::zeros(total, STATE_DIM);
    let mut offsets = Vec::with_capacity(snaps.len());
    let mut row = 0;
    for snap in snaps {
        offsets.push(row);
        for r in 0..snap.num_vehicles() {
            for c in 0..STATE_DIM {
                *features.get_mut(row + r, c) = snap.features.get(r, c);
            }
        }
        row += snap.num_vehicles();
    }
    (features, offsets)
}

/// A learned policy that can score a whole epoch in one forward pass.
pub(crate) trait BatchScoredPolicy {
    /// Precomputed per-order scores (Q-values, logits, …).
    type Scores;

    /// Builds the joint state for one order's context.
    fn build_snapshot(&self, ctx: &DispatchContext<'_>) -> StateSnapshot;

    /// Scores every snapshot in a single network forward pass, optionally
    /// spreading its rows across `pool`. Must be bit-identical
    /// to scoring each snapshot alone, for any pool width.
    fn score_batch(&self, snaps: &[StateSnapshot], pool: &Arc<ThreadPool>) -> Vec<Self::Scores>;

    /// The per-order decision body (choice, reward accounting, trajectory
    /// bookkeeping). `precomputed`, when given, holds `snap`'s scores from
    /// [`BatchScoredPolicy::score_batch`]; `None` means score afresh.
    fn decide(
        &mut self,
        ctx: &DispatchContext<'_>,
        snap: StateSnapshot,
        precomputed: Option<&Self::Scores>,
    ) -> Option<usize>;
}

/// Drives one decision epoch for a [`BatchScoredPolicy`].
///
/// The pre-commit phase is parallel: every order's joint state is built
/// against the shared epoch snapshot across the batch's thread pool
/// ([`DecisionBatch::map_contexts`]), then scored in one (pool-chunked)
/// network forward. The commit phase stays sequential by construction —
/// that is what keeps the decision stream bit-identical to the legacy
/// per-order path.
pub(crate) fn dispatch_batch_scored<P: BatchScoredPolicy + Sync>(
    policy: &mut P,
    batch: &DecisionBatch<'_>,
) -> Vec<Decision> {
    let shared = &*policy;
    let built: Vec<StateSnapshot> = batch.map_contexts(|_, ctx| shared.build_snapshot(ctx));
    let scores = policy.score_batch(&built, batch.pool());
    let mut snaps: Vec<Option<StateSnapshot>> = built.into_iter().map(Some).collect();
    let mut stale = false;
    (0..batch.len())
        .map(|i| {
            let action = if stale {
                batch.with_context(i, |ctx| {
                    let snap = policy.build_snapshot(ctx);
                    policy.decide(ctx, snap, None)
                })
            } else {
                let snap = snaps[i].take().expect("each snapshot consumed once");
                batch.with_context(i, |ctx| policy.decide(ctx, snap, Some(&scores[i])))
            };
            let decision = batch.resolve(i, action.map(VehicleId::from_index));
            if decision.is_assigned() {
                stale = true;
            }
            decision
        })
        .collect()
}
