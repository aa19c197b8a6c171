//! The replay-fed episode workloads: `megacity_hier` (Baseline 1 over a
//! 10 000-vehicle hierarchical-sharded megacity) and `industry_stddgn`
//! (an untrained ST-DDGN agent over one held-out paper day).
//!
//! Every layer is timed from outside, at boundaries the program already
//! has: `Presets` and instance builds, `SimulatorBuilder::build`,
//! `Simulator::run_observed` with a [`SimObserver`] that stamps epoch
//! boundaries, and — in the traced run only — a delegating
//! [`Dispatcher`] around the policy's `dispatch_batch`.

use crate::report::{fnv1a, peak_rss_mb, Run, SERVER_LAYERS};
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use crate::Config;
use dpdp_baselines::Baseline1;
use dpdp_core::{models, Presets};
use dpdp_net::VehicleId;
use dpdp_net::{Instance, TimeDelta};
use dpdp_pool::ThreadPool;
use dpdp_rl::{DqnAgent, ModelKind};
use dpdp_sim::{
    BufferingMode, DecisionBatch, DecisionRecord, DispatchContext, Dispatcher, EpisodeResult,
    EpochInfo, RepartitionPolicy, ShardConfig, ShardStats, SimObserver, Simulator,
};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run: at least [`MIN_SETUPS`], more while they add up to
/// less than [`SETUP_BUDGET_S`]. `setup_s` and the build metrics are
/// medians over them.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET_S: f64 = 1.0;

/// The two episode workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Baseline 1 on `Presets::megacity`, hierarchical sharding.
    Megacity,
    /// Untrained greedy ST-DDGN on `Presets::paper().industry_instance`.
    Industry,
}

/// Megacity fleet size.
const MEGACITY_FLEET: usize = 10_000;
/// Orders sampled from the megacity's ~100k-order day per episode.
const MEGACITY_ORDERS: usize = 4_000;
/// Seed of the ST-DDGN weights: fixed, so the workload seed changes the
/// inputs and never the model.
const MODEL_SEED: u64 = 2021;
/// Days of history behind the ST-DDGN demand prediction.
const PREDICTION_DAYS: usize = 4;

/// Measured episodes (replays of the same instance) whose epochs and
/// decisions feed the latency percentiles; later episodes still count
/// for throughput.
fn tail_episodes(w: Workload) -> usize {
    match w {
        Workload::Megacity => 31,
        Workload::Industry => 9,
    }
}

/// Everything one set-up builds: the instance plus what the policy needs.
struct Setup {
    instance: Instance,
    policy: Policy,
}

/// The workload's dispatch policy.
enum Policy {
    Baseline(Baseline1),
    Agent {
        presets: Box<Presets>,
        agent: Box<DqnAgent>,
    },
}

impl Policy {
    /// The dispatcher for the next episode. The agent is rebuilt every
    /// time: in evaluation mode it still stores each transition, so a
    /// reused agent's memory (and `peak_rss_mb`) would grow with the
    /// number of episodes a run happens to fit.
    fn fresh(&mut self) -> &mut dyn Dispatcher {
        match self {
            Policy::Baseline(b) => b,
            Policy::Agent { presets, agent } => {
                **agent = build_agent(presets);
                agent.as_mut()
            }
        }
    }
}

/// Timings of one set-up, seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    instance: f64,
    sim_build: f64,
    rl_build: f64,
    total: f64,
}

/// The held-out paper day `industry_stddgn` runs. Day, order subset and
/// weights are fixed by the workload's definition; the seed reaches the
/// simulator, which draws nothing from it on this configuration.
const INDUSTRY_DAY: u64 = 0;
/// Seed of the megacity geography, its ~100k-order day and the 4 000
/// orders sampled from it. The run seed reaches the simulator: it seeds
/// the shard map's k-means and its re-partitioning, which change the
/// sweep's work but never a decision.
const MEGACITY_INPUT_SEED: u64 = 1;

fn build_instance(w: Workload) -> (Instance, Presets) {
    match w {
        Workload::Megacity => {
            let presets = Presets::megacity(MEGACITY_INPUT_SEED);
            let instance =
                presets.megacity_instance(MEGACITY_ORDERS, MEGACITY_FLEET, MEGACITY_INPUT_SEED);
            (instance, presets)
        }
        Workload::Industry => {
            let presets = Presets::paper();
            let instance = presets.industry_instance(INDUSTRY_DAY);
            (instance, presets)
        }
    }
}

fn sim_for<'a>(
    w: Workload,
    instance: &'a Instance,
    seed: u64,
    pool: Arc<ThreadPool>,
) -> Simulator<'a> {
    let builder = Simulator::builder(instance).seed(seed).thread_pool(pool);
    let builder = match w {
        Workload::Megacity => builder
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
            .sharding(
                ShardConfig::hierarchical(64, 2)
                    .expect("positive region and cell counts")
                    .escalation(2)
                    .repartition(RepartitionPolicy::periodic(4))
                    .expect("positive cadence"),
            ),
        Workload::Industry => builder.buffering(BufferingMode::Immediate),
    };
    builder.build().expect("valid workload configuration")
}

fn build_agent(presets: &Presets) -> DqnAgent {
    let mut agent = models::dqn_agent(ModelKind::StDdgn, presets.dataset(), MODEL_SEED);
    agent.set_prediction(Some(presets.test_prediction(INDUSTRY_DAY, PREDICTION_DAYS)));
    agent.set_training(false);
    agent
}

/// One full set-up, timed layer by layer. Spans go to `tracer` when set.
fn setup(
    w: Workload,
    seed: u64,
    pool: &Arc<ThreadPool>,
    tracer: Option<&mut Tracer>,
) -> (Setup, SetupTimes) {
    let t0 = Instant::now();
    let (instance, presets) = build_instance(w);
    let t1 = Instant::now();
    drop(sim_for(w, &instance, seed, Arc::clone(pool)));
    let t2 = Instant::now();
    let policy = match w {
        Workload::Megacity => Policy::Baseline(Baseline1),
        Workload::Industry => {
            let agent = Box::new(build_agent(&presets));
            Policy::Agent {
                presets: Box::new(presets),
                agent,
            }
        }
    };
    let t3 = Instant::now();
    let agent = matches!(policy, Policy::Agent { .. });
    if let Some(tr) = tracer {
        let root = tr.record("setup", t0, t3, None, None);
        tr.record("data.instance", t0, t1, Some(root), None);
        tr.record("sim.build", t1, t2, Some(root), None);
        if agent {
            tr.record("rl.build", t2, t3, Some(root), None);
        }
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let times = SetupTimes {
        instance: secs(t0, t1),
        sim_build: secs(t1, t2),
        rl_build: if agent { secs(t2, t3) } else { 0.0 },
        total: secs(t0, t3),
    };
    (Setup { instance, policy }, times)
}

/// Stamps epoch boundaries. The untraced path takes one timestamp per
/// decision (the latest one closes its epoch) and nothing else.
struct EpochClock {
    epoch_start: Instant,
    last: Instant,
    epochs: Vec<EpochRec>,
    decision_ms: Vec<f64>,
}

/// One epoch as seen from outside.
struct EpochRec {
    info: EpochInfo,
    /// End of the previous epoch (or the episode start).
    start: Instant,
    /// The epoch's last committed decision.
    end: Instant,
}

impl EpochClock {
    fn new(begin: Instant) -> EpochClock {
        EpochClock {
            epoch_start: begin,
            last: begin,
            epochs: Vec::new(),
            decision_ms: Vec::new(),
        }
    }

    fn close_open_epoch(&mut self) {
        if let Some(open) = self.epochs.last_mut() {
            open.end = self.last;
        }
    }
}

impl SimObserver for EpochClock {
    fn on_epoch(&mut self, info: &EpochInfo) {
        self.close_open_epoch();
        self.epoch_start = self.last;
        self.epochs.push(EpochRec {
            info: *info,
            start: self.epoch_start,
            end: self.epoch_start,
        });
    }

    fn on_decision(&mut self, _record: &DecisionRecord<'_>) {
        self.last = Instant::now();
        self.decision_ms
            .push((self.last - self.epoch_start).as_secs_f64() * 1e3);
    }
}

/// One `dispatch_batch` call seen by [`TimedDispatch`].
struct DispatchCall {
    start: Instant,
    end: Instant,
    after: ShardStats,
}

/// Delegating dispatcher for the traced run: times every
/// `dispatch_batch` and reads the batch's shard counters after the inner
/// call returns.
struct TimedDispatch<'d> {
    inner: &'d mut dyn Dispatcher,
    calls: Vec<DispatchCall>,
}

impl Dispatcher for TimedDispatch<'_> {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        self.inner.dispatch(ctx)
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<dpdp_sim::Decision> {
        let start = Instant::now();
        let decisions = self.inner.dispatch_batch(batch);
        let end = Instant::now();
        self.calls.push(DispatchCall {
            start,
            end,
            after: batch.shard_stats(),
        });
        decisions
    }

    fn begin_episode(&mut self, instance: &Instance) {
        self.inner.begin_episode(instance);
    }

    fn end_episode(&mut self) {
        self.inner.end_episode();
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One finished episode with its boundary timings.
struct Episode {
    result: EpisodeResult,
    begin: Instant,
    end: Instant,
    clock: EpochClock,
    calls: Vec<DispatchCall>,
}

impl Episode {
    fn wall(&self) -> f64 {
        (self.end - self.begin).as_secs_f64()
    }

    fn epoch_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.clock
            .epochs
            .iter()
            .map(|e| (e.end - e.start).as_secs_f64() * 1e3)
    }
}

fn run_episode(sim: &Simulator<'_>, policy: &mut dyn Dispatcher, timed: bool) -> Episode {
    let begin = Instant::now();
    let mut clock = EpochClock::new(begin);
    let (result, calls) = if timed {
        let mut wrapper = TimedDispatch {
            inner: policy,
            calls: Vec::new(),
        };
        let result = sim.run_observed(&mut wrapper, &mut [&mut clock]);
        (result, wrapper.calls)
    } else {
        (sim.run_observed(policy, &mut [&mut clock]), Vec::new())
    };
    let end = Instant::now();
    clock.close_open_epoch();
    Episode {
        result,
        begin,
        end,
        clock,
        calls,
    }
}

/// Digest of everything an episode decided: the full `EpisodeResult`
/// rendered with shortest round-trip floats.
fn digest(result: &EpisodeResult) -> u64 {
    fnv1a(format!("{result:?}").as_bytes())
}

/// The episode's own accounting check: every order ends served or
/// rejected with a reason.
fn accounting_ok(result: &EpisodeResult, orders: usize) -> bool {
    let m = &result.metrics;
    m.served + m.rejections.total() == orders && m.rejected == m.rejections.total()
}

/// Per-episode layer totals from the traced run's spans.
#[derive(Debug, Default, Clone, Copy)]
struct LayerTotals {
    pre: f64,
    dispatch: f64,
    post: f64,
}

/// Records one traced episode's spans: the episode, each epoch, and the
/// epoch's pre-dispatch / dispatch / post-dispatch stages. The stages
/// tile the episode, so their self times add up to its wall time.
fn record_spans(
    tr: &mut Tracer,
    ep: &Episode,
    dispatch_name: &'static str,
) -> std::ops::Range<usize> {
    let first = tr.spans().len();
    let root = tr.record("episode", ep.begin, ep.end, None, None);
    for (i, (e, call)) in ep.clock.epochs.iter().zip(&ep.calls).enumerate() {
        let span = tr.record("epoch", e.start, e.end, Some(root), Some(i));
        tr.record("sim.pre_dispatch", e.start, call.start, Some(span), Some(i));
        tr.record(dispatch_name, call.start, call.end, Some(span), Some(i));
        tr.record("sim.post_dispatch", call.end, e.end, Some(span), Some(i));
    }
    // Work before the first epoch when there is none, and the episode's
    // close after the last one.
    let tail_start = ep.clock.epochs.last().map_or(ep.begin, |e| e.end);
    tr.record("sim.post_dispatch", tail_start, ep.end, Some(root), None);
    first..tr.spans().len()
}

fn layer_totals(spans: &[trace::Span], own: &[f64], dispatch_name: &str) -> LayerTotals {
    LayerTotals {
        pre: trace::self_time_of(spans, own, "sim.pre_dispatch"),
        dispatch: trace::self_time_of(spans, own, dispatch_name),
        post: trace::self_time_of(spans, own, "sim.post_dispatch"),
    }
}

/// Runs one episode workload and fills `run` with its metrics.
pub fn run(w: Workload, cfg: &Config, run: &mut Run) -> Result<(), String> {
    let pool = Arc::new(ThreadPool::new(cfg.pool_width));
    let mut tracer = cfg.trace.then(Tracer::new);

    let mut times: Vec<SetupTimes> = Vec::new();
    let mut kept = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().map(|t| t.total).sum::<f64>() < SETUP_BUDGET_S)
    {
        let (s, t) = setup(w, cfg.seed, &pool, tracer.as_mut());
        times.push(t);
        kept = Some(s);
    }
    let Setup {
        instance,
        mut policy,
    } = kept.expect("at least one set-up");
    let orders = instance.num_orders();
    let sim = sim_for(w, &instance, cfg.seed, Arc::clone(&pool));
    let dispatch_name = match w {
        Workload::Megacity => "baselines.dispatch",
        Workload::Industry => "rl.dispatch",
    };

    // Warm-up episode: fills caches, finishes lazy set-up, and fixes the
    // reference digest every later episode must reproduce.
    let warm = run_episode(&sim, policy.fresh(), false);
    let reference = digest(&warm.result);
    let mut failures = Vec::new();
    let mut check = |ep: &Episode, what: &str, failures: &mut Vec<String>| {
        run.attempted += 1;
        if !accounting_ok(&ep.result, orders) {
            failures.push(format!("{what}: served + rejected != {orders} orders"));
        } else if digest(&ep.result) != reference {
            failures.push(format!("{what}: episode digest differs from the warm-up"));
        }
    };
    check(&warm, "warm-up", &mut failures);

    // Measured window. The traced run alternates plain and traced
    // episodes so the tracing overhead is measured on the same machine
    // state. Only what the metrics need is kept of each episode, so
    // memory does not grow with the number of episodes a run fits.
    let window_start = Instant::now();
    let deadline = window_start + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut epoch_runs: Vec<Vec<f64>> = Vec::new();
    let mut decision_runs: Vec<Vec<f64>> = Vec::new();
    let mut swept_after_dispatch = None;
    let mut spans_of = Vec::new();
    loop {
        let timed = cfg.trace && walls.len() > traced_walls.len();
        let ep = run_episode(&sim, policy.fresh(), timed);
        check(&ep, "measured episode", &mut failures);
        if timed {
            spans_of.push(record_spans(
                tracer.as_mut().expect("traced run"),
                &ep,
                dispatch_name,
            ));
            swept_after_dispatch
                .get_or_insert_with(|| ep.calls.iter().map(|c| c.after.evaluated).sum::<usize>());
            traced_walls.push(ep.wall());
        } else {
            walls.push(ep.wall());
            if epoch_runs.len() < tail_episodes(w) {
                epoch_runs.push(ep.epoch_ms().collect());
                decision_runs.push(ep.clock.decision_ms);
            }
        }
        let enough = if cfg.trace {
            traced_walls.len() >= 2
        } else {
            walls.len() >= tail_episodes(w)
        };
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    let window = (Instant::now() - window_start).as_secs_f64();

    // Pool-width check: the same episode on one scoring thread.
    let serial = sim_for(w, &instance, cfg.seed, Arc::new(ThreadPool::new(1)));
    let ep = run_episode(&serial, policy.fresh(), false);
    check(&ep, "pool width 1", &mut failures);
    run.failed += failures.len() as u64;
    run.failures.extend(failures);

    let measured = walls.len() + traced_walls.len();
    // Replays are identical work, so each epoch's (and each decision's)
    // latency is its median over the replays; percentiles are read over
    // those medians.
    let epoch_ms = stats::sorted(&stats::per_item(&epoch_runs, stats::median));
    let decision_ms = stats::sorted(&stats::per_item(&decision_runs, stats::median));
    let result = &warm.result;

    let setup_total: Vec<f64> = times.iter().map(|t| t.total).collect();
    run.metric("setup_s", median(&setup_total).expect("set-ups ran"));
    run.metric(
        "orders_per_s",
        median(&walls.iter().map(|w| orders as f64 / w).collect::<Vec<_>>()).expect("episodes ran"),
    );
    run.latency("epoch_p50_ms", &epoch_ms, 50.0)?;
    run.tail("epoch_tail_ms", &epoch_ms)?;
    run.latency("decision_p50_ms", &decision_ms, 50.0)?;
    run.latency("decision_p99_ms", &decision_ms, 99.0)?;
    run.metric(
        "sustained_orders_per_s",
        (measured * orders) as f64 / window,
    );
    run.metric("nuv", result.metrics.nuv as f64);
    run.metric("total_cost", result.metrics.total_cost);
    run.metric("served_ratio", result.metrics.served as f64 / orders as f64);
    run.metric("peak_rss_mb", peak_rss_mb());

    run.detail_num("orders_per_episode", orders as f64);
    run.detail_num("vehicles", instance.num_vehicles() as f64);
    run.detail_num("episodes_measured", measured as f64);
    run.detail_num("episodes_for_percentiles", epoch_runs.len() as f64);
    run.detail_num(
        "episode_wall_s_median",
        median(&walls).expect("episodes ran"),
    );
    run.detail_str("episode_digest", &format!("{reference:016x}"));
    if w == Workload::Industry {
        run.detail_num("industry_day", INDUSTRY_DAY as f64);
        run.detail_num("model_seed", MODEL_SEED as f64);
        run.detail_str(
            "model_weights",
            "untrained (nuv/total_cost guard determinism only)",
        );
    }

    // Per-layer metrics come from the traced episodes' spans and from
    // the counters the boundaries expose.
    run.idle_layers(SERVER_LAYERS);
    let med = |f: &dyn Fn(&SetupTimes) -> f64| {
        median(&times.iter().map(f).collect::<Vec<_>>()).expect("set-ups ran")
    };
    run.metric("data.instance_s", med(&|t| t.instance));
    run.metric("sim.build_s", med(&|t| t.sim_build));
    run.metric("rl.build_s", med(&|t| t.rl_build));

    let shape = &warm.clock.epochs;
    run.metric("sim.epochs", shape.len() as f64);
    run.metric(
        "sim.orders_per_epoch",
        shape.iter().map(|e| e.info.num_orders).sum::<usize>() as f64 / shape.len().max(1) as f64,
    );
    run.metric(
        "sim.repartitions",
        shape.iter().filter(|e| e.info.repartitioned).count() as f64,
    );
    let sum = |f: fn(&ShardStats) -> usize| shape.iter().map(|e| f(&e.info.shards)).sum::<usize>();
    let cells = sum(|s| s.cells);
    let swept = sum(|s| s.evaluated);
    run.metric("routing.cells", cells as f64);
    run.metric("routing.cells_swept", swept as f64);
    run.metric("routing.cells_pruned", sum(|s| s.pruned) as f64);
    run.metric("routing.cells_escalated", sum(|s| s.escalated) as f64);
    run.metric(
        "routing.sweep_ratio",
        if cells == 0 {
            0.0
        } else {
            swept as f64 / cells as f64
        },
    );

    if let Some(tr) = tracer.as_ref() {
        let own = trace::self_times(tr.spans());
        let totals: Vec<LayerTotals> = spans_of
            .iter()
            .map(|r| layer_totals(&tr.spans()[r.clone()], &own[r.clone()], dispatch_name))
            .collect();
        let med_of = |f: fn(&LayerTotals) -> f64| {
            median(&totals.iter().map(f).collect::<Vec<_>>()).expect("traced episodes ran")
        };
        let (pre, disp, post) = (
            med_of(|t| t.pre),
            med_of(|t| t.dispatch),
            med_of(|t| t.post),
        );
        run.metric("sim.pre_dispatch_s", pre);
        run.metric("sim.post_dispatch_s", post);
        let (base, rl) = match w {
            Workload::Megacity => (disp, 0.0),
            Workload::Industry => (0.0, disp),
        };
        run.metric("baselines.dispatch_s", base);
        run.metric("rl.dispatch_s", rl);
        let after = swept_after_dispatch.expect("traced episodes ran");
        run.metric(
            "routing.delta_cells_swept",
            after.saturating_sub(swept) as f64,
        );
        let traced_wall = median(&traced_walls).expect("traced episodes ran");
        let plain_wall = median(&walls).expect("episodes ran");
        run.metric("trace_overhead", traced_wall / plain_wall);
        run.detail_num("traced_episodes", traced_walls.len() as f64);
        run.detail_num(
            "layer_sum_over_plain_wall",
            (pre + disp + post) / plain_wall,
        );
        run.detail_num(
            "layer_sum_over_traced_wall",
            (pre + disp + post) / traced_wall,
        );
        run.write_spans(cfg, tr)?;
    }
    Ok(())
}
