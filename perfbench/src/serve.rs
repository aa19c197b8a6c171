//! `serve_stream`: the repository's `serve` binary as a child process,
//! driven by an open-loop generator.
//!
//! One generator process opens up to `nproc` tenant sessions on preset
//! `ring12`. Each rung opens fresh sessions and sends `ORDER` + `FLUSH`
//! pairs at an offered rate on a fixed schedule, with a seeded share of
//! `CANCEL`, `BREAKDOWN` and `RECOVER`, whatever the replies do. A
//! connection has a writer thread that keeps the schedule and a reader
//! thread that stamps every reply; latency counts from when an order was
//! due, less the generator's own lateness in sending it.
//!
//! The run has three parts. The nominal rung repeats one fixed rate with
//! identical streams and yields the latencies. The capacity search climbs
//! the offered rate by doubling until a rung fails, then bisects; the
//! highest rate that passed is the sustained rate. Last, saturation rungs
//! offer 1.25× that rate, and the rate they achieve is the server's
//! throughput. Every rung runs on a fresh `serve` process.
//!
//! Set-up, the `STATS` probe and a warm-up episode per tenant go
//! through `ServeClient`; the timed streams use the same frames
//! (`journal::command_line`) over a socket split into its two halves,
//! because `ServeClient` cannot send while a reply is outstanding.
//!
//! Correctness: every tenant's final `METRICS` must equal an in-process
//! `Simulator::serve` replay of exactly the commands it sent, every order
//! must get a `DECISION` (re-dispatches of stranded orders come on top,
//! one per stranded order), and no `ERR` frame may arrive.

use crate::report::{peak_rss_of, Run, EPISODE_LAYERS};
use crate::schedule::{self, Search, Verdict};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::Config;
use dpdp_net::{NodeId, Order, OrderId, TimePoint, VehicleId};
use dpdp_server::journal::command_line;
use dpdp_server::proto::parse_server_msg;
use dpdp_server::{preset, ServeClient, ServerMsg};
use dpdp_sim::{BufferingMode, EpisodeMetrics, Simulator, StreamCommand};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

const PRESET: &str = "ring12";
const POLICY: &str = "baseline1";
/// Offered rate of the nominal rung, orders/s summed over all tenants.
const NOMINAL_RATE: f64 = 4000.0;
/// Share of the measured window the nominal rung gets, split over
/// [`NOMINAL_REPEATS`] repeats of the same streams.
const NOMINAL_SHARE: f64 = 0.35;
const NOMINAL_REPEATS: usize = 9;
/// Capacity searches per run; the sustained rate is their median.
const SEARCHES: usize = 3;
/// Runs of a search rate before it counts as failed: one stall of the
/// machine does not end a climb.
const SEARCH_ATTEMPTS: usize = 2;
/// Where a search starts, and the rates it may try, orders/s. A 2-vCPU
/// machine sustains 15k–20k orders/s; from 3000 the climb brackets that
/// knee with [12k, 24k] instead of stepping onto it, where a verdict is a
/// coin toss that would decide the whole bracket.
const SEARCH_START: f64 = 3000.0;
const SEARCH_MIN: f64 = 250.0;
const SEARCH_MAX: f64 = 512_000.0;
/// Geometric bisections once a search has a passing and a failing rate:
/// four leave the bracket 2^(1/16), about 4 %, wide.
const BISECTIONS: usize = 4;
/// Length of one search or saturation rung as a share of the measured
/// window.
const SEARCH_RUNG_SHARE: f64 = 0.02;
/// Saturation rungs offer this multiple of the sustained rate.
const SATURATION_FACTOR: f64 = 1.25;
const SATURATION_REPEATS: usize = 5;
/// The decision-latency p99 a rung must meet to count as sustained.
const LATENCY_LIMIT_MS: f64 = 25.0;
/// How long a rung may overrun its schedule before the generator stops
/// sending (the rung then cannot count as sustained).
const RUNG_OVERRUN: f64 = 2.0;
/// Per-step chances of the disruption commands.
const CANCEL_SHARE: f64 = 0.03;
const BREAKDOWN_SHARE: f64 = 0.005;
/// Steps a broken vehicle stays down before its `RECOVER`.
const RECOVER_AFTER_STEPS: usize = 40;
/// Set-ups per run (server spawn, connect, `HELLO`): at least this many,
/// more while they add up to less than a second.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET_S: f64 = 1.0;

/// One tenant's command stream for one rung: `steps[k]` holds the frames
/// sent together at order `k`'s due time — any disruption, the order,
/// and the heartbeat that flushes its epoch.
fn tenant_stream(seed: u64, orders: usize, vehicles: usize) -> Vec<Vec<StreamCommand>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let factories: usize = 12;
    // The episode spans a business day, 08:00 to 20:00, whatever the
    // rung's order count.
    let gap = 12.0 * 3600.0 / orders as f64;
    let mut broken: Option<(usize, usize)> = None;
    let mut cancelled = vec![false; orders];
    (0..orders)
        .map(|k| {
            let now = 8.0 * 3600.0 + gap * k as f64;
            let at = TimePoint::from_seconds(now);
            let mut step = Vec::with_capacity(3);
            if let Some((v, since)) = broken {
                if k >= since + RECOVER_AFTER_STEPS {
                    step.push(StreamCommand::Recover {
                        vehicle: VehicleId::from_index(v),
                        at,
                    });
                    broken = None;
                }
            } else if k > 0 && rng.random_range(0.0..1.0) < BREAKDOWN_SHARE {
                let v = rng.random_range(0..vehicles);
                step.push(StreamCommand::Breakdown {
                    vehicle: VehicleId::from_index(v),
                    at,
                });
                broken = Some((v, k));
            }
            if k > 0 && rng.random_range(0.0..1.0) < CANCEL_SHARE {
                let target = k - 1 - rng.random_range(0..k.min(16));
                if !cancelled[target] {
                    cancelled[target] = true;
                    step.push(StreamCommand::Cancel {
                        order: OrderId::from_index(target),
                        at,
                    });
                }
            }
            let pickup = rng.random_range(1..=factories);
            let delivery = 1 + (pickup + rng.random_range(0..factories - 1)) % factories;
            let quantity = rng.random_range(1..=4usize) as f64;
            let slack = rng.random_range(5400.0..14_400.0);
            let order = Order::new(
                OrderId::from_index(0),
                NodeId(pickup as u32),
                NodeId(delivery as u32),
                quantity,
                at,
                TimePoint::from_seconds(now + slack),
            )
            .expect("generated orders are valid");
            step.push(StreamCommand::Order(order));
            step.push(StreamCommand::Flush {
                at: TimePoint::from_seconds(now + 1.0),
            });
            step
        })
        .collect()
}

/// The metrics an in-process `Simulator::serve` episode reaches on the
/// same command stream — what the served episode must reproduce.
fn reference_metrics(seed: u64, steps: &[Vec<StreamCommand>]) -> EpisodeMetrics {
    let instance = preset::build_instance(PRESET).expect("known preset");
    let mut policy = preset::build_policy(POLICY).expect("known policy");
    let sim = Simulator::builder(&instance)
        .buffering(BufferingMode::Immediate)
        .sharding(preset::shard_config(PRESET).expect("known preset"))
        .seed(seed)
        .build()
        .expect("preset builds a valid simulator");
    let (tx, rx) = std::sync::mpsc::channel();
    for cmd in steps.iter().flatten() {
        tx.send(cmd.clone()).expect("receiver alive");
    }
    drop(tx);
    sim.serve(rx, policy.as_mut()).metrics
}

/// The `serve` child process; killed and reaped on drop.
struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    journal_dir: PathBuf,
}

impl Server {
    fn spawn(cfg: &Config, journal_dir: PathBuf) -> Result<Server, String> {
        std::fs::create_dir_all(&journal_dir)
            .map_err(|e| format!("{}: {e}", journal_dir.display()))?;
        let mut child = Command::new(&cfg.serve_bin)
            .args(["--addr", "127.0.0.1:0", "--threads"])
            .arg(cfg.pool_width.to_string())
            .arg("--journal-dir")
            .arg(&journal_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.serve_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("dpdp-server listening on ")
            .and_then(|a| a.parse().ok());
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            journal_dir,
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("serve did not announce its address: {line:?}")),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_of(Some(self.child.id()))
    }

    fn journal_bytes(&self) -> u64 {
        std::fs::read_dir(&self.journal_dir)
            .map(|dir| {
                dir.filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

/// Connect plus `HELLO` round trip through `ServeClient`, then a one-order
/// warm-up episode drained to `METRICS`. Returns the handshake time, ms.
fn warm_tenant(addr: SocketAddr, tenant: &str, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut client = ServeClient::connect(addr).map_err(|e| format!("{tenant}: connect: {e}"))?;
    client
        .hello(tenant, PRESET, seed, POLICY, 0.0)
        .map_err(|e| format!("{tenant}: HELLO: {e}"))?;
    let hello_ms = t0.elapsed().as_secs_f64() * 1e3;
    let at = 8.0 * 3600.0;
    client
        .order(1, 7, 1.0, at, at + 7200.0)
        .and_then(|()| client.flush(at + 1.0))
        .and_then(|()| client.drain())
        .map_err(|e| format!("{tenant}: warm-up: {e}"))?;
    let episode = client
        .collect_episode()
        .map_err(|e| format!("{tenant}: warm-up: {e}"))?;
    match episode.metrics {
        Some(m) if m.served + m.rejected == 1 && episode.errors.is_empty() => Ok(hello_ms),
        _ => Err(format!(
            "{tenant}: warm-up episode did not drain to METRICS"
        )),
    }
}

/// What one tenant's reader saw.
#[derive(Default)]
struct Replies {
    /// `(order, arrival_s)` of every `DECISION`, in arrival order.
    decisions: Vec<(usize, f64)>,
    /// Index into `decisions` where each `EPOCH` starts.
    epoch_starts: Vec<usize>,
    /// `EPOCH`, `DECISION` and `DISRUPT` frames.
    frames: usize,
    /// Orders stranded by breakdowns (each owes one extra `DECISION`).
    stranded: usize,
    errors: Vec<String>,
    metrics: Option<EpisodeMetrics>,
    /// Arrival of the last frame, seconds from the rung origin.
    last_s: f64,
}

fn read_replies(stream: TcpStream, start: &OnceLock<Instant>) -> Replies {
    let mut replies = Replies::default();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                replies.errors.push(format!("read: {e}"));
                break;
            }
        }
        let arrived = start.get().map_or(0.0, |s| s.elapsed().as_secs_f64());
        replies.last_s = arrived;
        match parse_server_msg(line.trim_end()) {
            Ok(Some(ServerMsg::Decision(d))) => {
                replies.frames += 1;
                replies.decisions.push((d.order.index(), arrived));
            }
            Ok(Some(ServerMsg::Epoch { .. })) => {
                replies.frames += 1;
                replies.epoch_starts.push(replies.decisions.len());
            }
            Ok(Some(ServerMsg::Disrupt(tail))) => {
                replies.frames += 1;
                replies.stranded += tail
                    .split_whitespace()
                    .find_map(|f| f.strip_prefix("stranded="))
                    .and_then(|n| n.parse::<usize>().ok())
                    .unwrap_or(0);
            }
            Ok(Some(ServerMsg::Err { code, detail })) => {
                replies.errors.push(format!("ERR {code} {detail}"))
            }
            Ok(Some(ServerMsg::Metrics(m))) => replies.metrics = Some(m),
            Ok(Some(ServerMsg::Bye)) => break,
            Ok(Some(ServerMsg::Ok(_) | ServerMsg::Stats(_))) | Ok(None) => {}
            Err(e) => replies.errors.push(format!("unparseable frame: {e:?}")),
        }
    }
    replies
}

/// How long a reader waits for the next frame before it gives up on a
/// server that stopped answering.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Connects and opens a session with `HELLO`; returns the reading and the
/// writing half of the socket.
fn hello(addr: SocketAddr, name: &str, seed: u64) -> Result<(TcpStream, TcpStream), String> {
    let err = |e: std::io::Error| format!("{name}: {e}");
    let stream = TcpStream::connect(addr).map_err(err)?;
    stream.set_nodelay(true).map_err(err)?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(err)?;
    let mut writer = stream.try_clone().map_err(err)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(err)?);
    writeln!(writer, "HELLO {name} {PRESET} {seed} {POLICY} 0").map_err(err)?;
    let mut ok = String::new();
    reader.read_line(&mut ok).map_err(err)?;
    if !ok.starts_with("OK") {
        return Err(format!("{name}: HELLO refused: {}", ok.trim()));
    }
    // The HELLO reply was the only frame so far, so the buffered reader
    // holds nothing more and the socket can be read afresh.
    Ok((stream, writer))
}

/// One tenant's rung, as the generator measured it.
struct TenantRun {
    /// When the tenant started connecting.
    connected: Instant,
    /// The rung's shared schedule origin.
    origin: Instant,
    hello_ms: f64,
    /// When the last write ended, seconds from the origin.
    stream_end: f64,
    /// Due time of every step, seconds from the rung start.
    due: Vec<f64>,
    /// When each sent step's first write began and its last write ended
    /// (fewer steps than `due` when the rung overran).
    begin: Vec<f64>,
    end: Vec<f64>,
    /// The generator's own lateness per sent step, ms.
    late_ms: Vec<f64>,
    frames_sent: usize,
    write_us: Vec<f64>,
    replies: Replies,
}

impl TenantRun {
    fn steps_sent(&self) -> usize {
        self.begin.len()
    }
}

fn run_tenant(
    addr: SocketAddr,
    name: &str,
    seed: u64,
    steps: &[Vec<StreamCommand>],
    due: Vec<f64>,
    barrier: &Barrier,
    start: &OnceLock<Instant>,
) -> Result<TenantRun, String> {
    let t0 = Instant::now();
    let handshake = hello(addr, name, seed);
    let hello_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Every tenant reaches the barrier, even one whose handshake failed,
    // so the others are not left waiting.
    barrier.wait();
    let (stream, mut writer) = handshake?;
    let origin = *start.get_or_init(Instant::now);
    let limit = due.last().copied().unwrap_or(0.0) * RUNG_OVERRUN + 1.0;
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_replies(stream, start));
        let mut run = TenantRun {
            connected: t0,
            origin,
            hello_ms,
            stream_end: 0.0,
            begin: Vec::with_capacity(steps.len()),
            end: Vec::with_capacity(steps.len()),
            late_ms: Vec::new(),
            frames_sent: 1,
            write_us: Vec::with_capacity(3 * steps.len()),
            due,
            replies: Replies::default(),
        };
        let mut failure = None;
        'steps: for (k, step) in steps.iter().enumerate() {
            let due_at = origin + Duration::from_secs_f64(run.due[k]);
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let begin = origin.elapsed().as_secs_f64();
            if begin > limit {
                break;
            }
            for cmd in step {
                let mut frame = command_line(cmd);
                frame.push('\n');
                let w0 = Instant::now();
                if let Err(e) = writer.write_all(frame.as_bytes()) {
                    failure = Some(format!("{name}: write: {e}"));
                    break 'steps;
                }
                run.write_us.push(w0.elapsed().as_secs_f64() * 1e6);
                run.frames_sent += 1;
            }
            run.begin.push(begin);
            run.end.push(origin.elapsed().as_secs_f64());
        }
        // Half-close: the server drains the episode to METRICS and keeps
        // the journal.
        let _ = writer.shutdown(Shutdown::Write);
        run.stream_end = run.end.last().copied().unwrap_or(0.0);
        run.late_ms = schedule::own_late_ms(&run.due, &run.begin, &run.end);
        run.replies = reader.join().expect("reader thread does not panic");
        match failure {
            Some(e) => Err(e),
            None => Ok(run),
        }
    })
}

/// What a rung is run for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A repeat of the nominal rung: latencies and quality.
    Nominal,
    /// A step of the capacity search.
    Search,
    /// Offered above the sustained rate: throughput.
    Saturation,
}

/// What to run on one rung.
struct RungSpec {
    label: String,
    /// Seeds the command streams; equal streams give identical rungs.
    stream: u64,
    kind: Kind,
    /// Offered rate, orders/s over all tenants.
    rate: f64,
    seconds: f64,
}

/// Everything one rung produced, over all its tenants.
struct RungRun {
    spec: RungSpec,
    /// Connect + `HELLO` of each tenant's warm-up session, ms.
    warm_ms: Vec<f64>,
    /// The server's `STATS` counters after the rung.
    panics: usize,
    shed: usize,
    /// The server's journal directory size and peak RSS after the rung.
    journal_bytes: u64,
    peak_rss_mb: f64,
    tenants: Vec<TenantRun>,
    /// `(due_s, ms)` first-decision latency of every order.
    latency_ms: Vec<(f64, f64)>,
    /// `(due_s, ms)` latency of every epoch.
    epoch_ms: Vec<(f64, f64)>,
    achieved_rate: f64,
    verdict: Verdict,
    backlog_max: usize,
    p99_ms: f64,
    late_p99_ms: f64,
}

/// Runs one rung on a fresh, warmed-up server process (so no state of
/// the process, such as where its long-lived threads were placed, carries
/// over from rung to rung): fresh sessions for every tenant, the open-loop
/// schedule, then every correctness check. Failed checks go to `run`;
/// reference replays are kept in `references` for identical streams.
fn run_rung(
    cfg: &Config,
    spec: RungSpec,
    tenants: usize,
    run: &mut Run,
    references: &mut HashMap<(u64, usize), EpisodeMetrics>,
) -> Result<RungRun, String> {
    let server = Server::spawn(cfg, fresh_dir(cfg, &spec.label))?;
    let addr = server.addr;
    let mut warm_ms = Vec::with_capacity(tenants);
    for t in 0..tenants {
        warm_ms.push(warm_tenant(addr, &format!("warm{t}"), cfg.seed)?);
    }
    let rate = spec.rate;
    let orders = schedule::orders_per_tenant(rate, spec.seconds, tenants);
    let vehicles = preset::build_instance(PRESET)
        .expect("known preset")
        .num_vehicles();
    let specs: Vec<(String, u64, Vec<Vec<StreamCommand>>)> = (0..tenants)
        .map(|t| {
            let seed = cfg
                .seed
                .wrapping_mul(1000)
                .wrapping_add(spec.stream * 100 + t as u64);
            let steps = tenant_stream(seed, orders, vehicles);
            (format!("{}t{t}", spec.label), seed, steps)
        })
        .collect();
    let barrier = Barrier::new(tenants);
    let start = OnceLock::new();
    let results: Vec<Result<TenantRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(t, (name, seed, steps))| {
                let (barrier, start) = (&barrier, &start);
                let due = (0..orders)
                    .map(|k| schedule::due_s(k, t, tenants, rate))
                    .collect();
                scope.spawn(move || run_tenant(addr, name, *seed, steps, due, barrier, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread does not panic"))
            .collect()
    });
    let mut done = Vec::with_capacity(tenants);
    for r in results {
        done.push(r?);
    }

    let mut clean = true;
    let mut completed = true;
    let mut latency_ms = Vec::new();
    let mut epoch_ms = Vec::new();
    let mut all_sent = Vec::new();
    let mut all_answered = Vec::new();
    let mut last_arrival: f64 = 0.0;
    let mut decided = 0usize;
    let mut growing = false;
    for ((name, seed, steps), t) in specs.iter().zip(&done) {
        let sent = t.steps_sent();
        run.attempted += sent as u64;
        // An overrun is the server's backpressure holding the generator
        // up: a capacity verdict, checked on the orders actually sent.
        completed &= sent == steps.len();
        let mut fail = |what: String, run: &mut Run| {
            clean = false;
            run.failed += 1;
            run.failures.push(format!("{} {name}: {what}", spec.label));
        };
        for e in &t.replies.errors {
            fail(e.clone(), run);
        }
        // First decision per order; later ones are re-dispatches.
        let mut first = vec![None; sent];
        let mut extra = 0usize;
        for &(order, arrived) in &t.replies.decisions {
            match first.get_mut(order) {
                Some(slot @ None) => *slot = Some(arrived),
                Some(Some(_)) => extra += 1,
                None => fail(format!("decision for unknown order {order}"), run),
            }
        }
        let lost = first.iter().filter(|f| f.is_none()).count();
        if lost > 0 {
            fail(format!("{lost} orders never got a DECISION"), run);
        }
        if extra != t.replies.stranded {
            fail(
                format!(
                    "{extra} re-dispatch decisions for {} stranded orders",
                    t.replies.stranded
                ),
                run,
            );
        }
        match &t.replies.metrics {
            None => fail("episode ended without METRICS".into(), run),
            Some(m) => {
                if m.served + m.rejections.total() != sent {
                    fail(
                        format!(
                            "METRICS account for {} of {sent} orders",
                            m.served + m.rejections.total()
                        ),
                        run,
                    );
                }
                let reference = references
                    .entry((*seed, sent))
                    .or_insert_with(|| reference_metrics(*seed, &steps[..sent]));
                if m != reference {
                    fail("METRICS differ from the in-process replay".into(), run);
                }
            }
        }
        let mut tenant_latency = Vec::with_capacity(first.len());
        for (k, f) in first.iter().enumerate() {
            if let Some(arrived) = f {
                let ms = schedule::latency_ms(t.due[k], t.late_ms[k], *arrived);
                tenant_latency.push(ms);
                latency_ms.push((t.due[k], ms));
                all_answered.push(*arrived);
                last_arrival = last_arrival.max(*arrived);
            }
        }
        growing |= schedule::backlog_growing(&tenant_latency, LATENCY_LIMIT_MS);
        decided += tenant_latency.len();
        all_sent.extend_from_slice(&t.begin);
        // An epoch opens with its EPOCH frame and is flushed by the step
        // of the newest order it decides; it ends at its last DECISION.
        let d = &t.replies.decisions;
        let bounds: Vec<usize> = t
            .replies
            .epoch_starts
            .iter()
            .copied()
            .chain([d.len()])
            .collect();
        for w in bounds.windows(2) {
            let epoch = &d[w[0]..w[1]];
            if let (Some(newest), Some(&(_, end))) = (epoch.iter().map(|x| x.0).max(), epoch.last())
            {
                if newest < sent {
                    epoch_ms.push((
                        t.due[newest],
                        schedule::latency_ms(t.due[newest], t.late_ms[newest], end),
                    ));
                }
            }
        }
    }
    for v in [&mut latency_ms, &mut epoch_ms] {
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    let p99 = |v: Vec<f64>| stats::percentile(&stats::sorted(&v), 99.0).map(|q| q.value);
    let p99_ms = p99(latency_ms.iter().map(|x| x.1).collect()).unwrap_or(f64::INFINITY);
    let late_p99_ms = p99(done.iter().flat_map(|t| t.late_ms.clone()).collect()).unwrap_or(0.0);
    let verdict = Verdict {
        valid: schedule::kept_pace(late_p99_ms, tenants, rate),
        meets_limit: p99_ms <= LATENCY_LIMIT_MS,
        backlog_growing: growing,
        completed,
        clean,
    };
    let first_due = done
        .iter()
        .filter_map(|t| t.due.first())
        .fold(f64::INFINITY, |a, &b| a.min(b));
    let mut probe = ServeClient::connect(addr).map_err(|e| format!("STATS: {e}"))?;
    let server_stats = probe.stats().map_err(|e| format!("STATS: {e}"))?;
    drop(probe);
    for (what, n) in [("panics", server_stats.panics), ("shed", server_stats.shed)] {
        if n > 0 {
            run.failed += n as u64;
            run.failures
                .push(format!("{}: server reported {n} {what}", spec.label));
        }
    }
    Ok(RungRun {
        spec,
        warm_ms,
        panics: server_stats.panics,
        shed: server_stats.shed,
        journal_bytes: server.journal_bytes(),
        peak_rss_mb: server.peak_rss_mb(),
        backlog_max: schedule::max_outstanding(&all_sent, &all_answered),
        tenants: done,
        latency_ms,
        epoch_ms,
        achieved_rate: decided as f64 / (last_arrival - first_due).max(1e-9),
        verdict,
        p99_ms,
        late_p99_ms,
    })
}

fn fresh_dir(cfg: &Config, tag: &str) -> PathBuf {
    cfg.out_dir
        .join(format!("journal-{}-{tag}", std::process::id()))
}

fn remove_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}

/// Runs `serve_stream` and fills `run` with its metrics.
pub fn run(cfg: &Config, run: &mut Run) -> Result<(), String> {
    let tenants = cfg.pool_width.max(1);
    // The origin must precede every timestamp the spans reuse.
    let tracer = cfg.trace.then(Tracer::new);
    let mut setup_s = Vec::new();
    let mut hello_ms = Vec::new();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let dir = fresh_dir(cfg, &format!("s{}", setup_s.len()));
        remove_dir(&dir);
        let t0 = Instant::now();
        let s = Server::spawn(cfg, dir)?;
        let mut hellos = Vec::with_capacity(tenants);
        let mut clients = Vec::with_capacity(tenants);
        for t in 0..tenants {
            let h0 = Instant::now();
            let mut c = ServeClient::connect(s.addr).map_err(|e| format!("connect: {e}"))?;
            c.hello(&format!("setup{t}"), PRESET, cfg.seed, POLICY, 0.0)
                .map_err(|e| format!("HELLO: {e}"))?;
            hellos.push(h0.elapsed().as_secs_f64() * 1e3);
            clients.push(c);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        hello_ms.extend(hellos);
        for mut c in clients {
            let _ = c.drain();
            let _ = c.collect_episode();
        }
        // Stopped here: one child at a time.
        drop(s);
    }

    let mut references = HashMap::new();
    let mut rungs: Vec<RungRun> = Vec::new();
    let mut rung = |kind: Kind, rate: f64, seconds: f64, rungs: &mut Vec<RungRun>| {
        let n = rungs.len();
        let spec = RungSpec {
            label: format!("{kind:?}{n}").to_lowercase(),
            // The nominal repeats share their streams.
            stream: if kind == Kind::Nominal { 0 } else { n as u64 },
            kind,
            rate,
            seconds,
        };
        let r = run_rung(cfg, spec, tenants, run, &mut references)?;
        let sustained = r.verdict.sustained();
        rungs.push(r);
        Ok::<bool, String>(sustained)
    };
    for _ in 0..NOMINAL_REPEATS {
        let seconds = cfg.seconds * NOMINAL_SHARE / NOMINAL_REPEATS as f64;
        rung(Kind::Nominal, NOMINAL_RATE, seconds, &mut rungs)?;
    }
    let rung_s = cfg.seconds * SEARCH_RUNG_SHARE;
    let mut found = Vec::with_capacity(SEARCHES);
    for _ in 0..SEARCHES {
        let mut s = Search::new(SEARCH_START, SEARCH_MIN, SEARCH_MAX, BISECTIONS);
        while let Some(rate) = s.next_rate() {
            let mut sustained = false;
            for _ in 0..SEARCH_ATTEMPTS {
                sustained = rung(Kind::Search, rate, rung_s, &mut rungs)?;
                if sustained {
                    break;
                }
            }
            s.record(rate, sustained);
        }
        found.push(s.sustained().unwrap_or(0.0));
    }
    let sustained = median(&found).expect("searches ran");
    for _ in 0..SATURATION_REPEATS {
        let rate = SATURATION_FACTOR * sustained.max(SEARCH_MIN);
        rung(Kind::Saturation, rate, rung_s, &mut rungs)?;
    }

    // The nominal repeats send identical streams: each order's (and each
    // epoch's) latency is its fastest over the repeats. Service times here
    // are about 0.1 ms, well under the machine's scheduling noise, and a
    // contended host can slow most repeats of a run; an item that is slow
    // every time still shows.
    let of_kind = |kind| rungs.iter().filter(move |r: &&RungRun| r.spec.kind == kind);
    let nominal: Vec<&RungRun> = of_kind(Kind::Nominal).collect();
    let per_item = |f: fn(&RungRun) -> &Vec<(f64, f64)>| {
        stats::sorted(&stats::per_item(
            &nominal
                .iter()
                .map(|r| f(r).iter().map(|x| x.1).collect())
                .collect::<Vec<_>>(),
            stats::minimum,
        ))
    };
    let lat = per_item(|r| &r.latency_ms);
    let epochs = per_item(|r| &r.epoch_ms);
    let saturated: Vec<f64> = of_kind(Kind::Saturation).map(|r| r.achieved_rate).collect();
    // Quality metrics over one episode set: the first nominal repeat.
    let first = &nominal[0].tenants;
    let metrics: Vec<&EpisodeMetrics> = first
        .iter()
        .filter_map(|t| t.replies.metrics.as_ref())
        .collect();
    let orders: usize = first.iter().map(TenantRun::steps_sent).sum();
    let all = || rungs.iter().flat_map(|r| &r.tenants);
    let all_orders: usize = all().map(TenantRun::steps_sent).sum();
    let served: usize = metrics.iter().map(|m| m.served).sum();
    let frames_in: usize = all().map(|t| t.replies.frames).sum();
    let frames_out: usize = all().map(|t| t.frames_sent).sum();
    let write_us: Vec<f64> = all().flat_map(|t| t.write_us.iter().copied()).collect();
    hello_ms.extend(all().map(|t| t.hello_ms));
    hello_ms.extend(rungs.iter().flat_map(|r| r.warm_ms.iter().copied()));
    let journal_bytes: u64 = rungs.iter().map(|r| r.journal_bytes).sum();
    // Only the nominal rungs: the search and saturation rungs queue
    // orders by design, as deep as the machine's speed lets them.
    let rss = nominal.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);

    run.metric("setup_s", median(&setup_s).expect("set-ups ran"));
    run.metric(
        "orders_per_s",
        median(&saturated).expect("saturation rungs ran"),
    );
    run.latency("epoch_p50_ms", &epochs, 50.0)?;
    run.tail("epoch_tail_ms", &epochs)?;
    run.latency("decision_p50_ms", &lat, 50.0)?;
    run.latency("decision_p99_ms", &lat, 99.0)?;
    run.metric("sustained_orders_per_s", sustained);
    run.metric("nuv", metrics.iter().map(|m| m.nuv).sum::<usize>() as f64);
    run.metric("total_cost", metrics.iter().map(|m| m.total_cost).sum());
    run.metric("served_ratio", served as f64 / orders.max(1) as f64);
    run.metric("peak_rss_mb", rss);

    run.idle_layers(EPISODE_LAYERS);
    run.metric(
        "server.hello_ms",
        median(&hello_ms).expect("handshakes ran"),
    );
    run.metric("server.send_us", median(&write_us).unwrap_or(0.0));
    run.metric(
        "server.frames_out_per_order",
        frames_in as f64 / all_orders.max(1) as f64,
    );
    run.metric(
        "server.journal_bytes_per_cmd",
        journal_bytes as f64 / frames_out.max(1) as f64,
    );
    run.metric(
        "server.backlog_max",
        median(
            &nominal
                .iter()
                .map(|r| r.backlog_max as f64)
                .collect::<Vec<_>>(),
        )
        .expect("nominal rung ran"),
    );
    run.metric(
        "server.panics",
        rungs.iter().map(|r| r.panics).sum::<usize>() as f64,
    );
    run.metric(
        "server.shed",
        rungs.iter().map(|r| r.shed).sum::<usize>() as f64,
    );
    let late_p99 = median(&nominal.iter().map(|r| r.late_p99_ms).collect::<Vec<_>>())
        .expect("nominal rung ran");
    run.metric("loadgen.late_ms_p99", late_p99);
    // The spans reuse timestamps the untraced run takes as well, so the
    // traced run does no extra work.
    run.metric("trace_overhead", 1.0);
    if let Some(mut tr) = tracer {
        let at = |t: &TenantRun, s: f64| t.origin + Duration::from_secs_f64(s.max(0.0));
        for r in &rungs {
            let (Some(first), Some(last)) = (
                r.tenants.iter().map(|t| t.connected).min(),
                r.tenants.iter().map(|t| at(t, t.replies.last_s)).max(),
            ) else {
                continue;
            };
            let root = tr.record("rung", first, last, None, None);
            for t in &r.tenants {
                let hello_end = t.connected + Duration::from_secs_f64(t.hello_ms / 1e3);
                tr.record("server.hello", t.connected, hello_end, Some(root), None);
                tr.record(
                    "tenant.stream",
                    t.origin,
                    at(t, t.stream_end),
                    Some(root),
                    None,
                );
                tr.record(
                    "tenant.drain",
                    at(t, t.stream_end),
                    at(t, t.replies.last_s),
                    Some(root),
                    None,
                );
            }
        }
        run.write_spans(cfg, &tr)?;
    }

    // The nominal latencies are valid when the generator's own lateness
    // (its p99 per repeat, median over the repeats) kept the stream's
    // order-by-order pacing.
    if !schedule::kept_pace(late_p99, tenants, NOMINAL_RATE) {
        run.detail_str(
            "validity",
            "invalid: on the nominal rung the generator's own p99 lateness exceeds \
             the gap between a tenant's orders; the stream the server saw was \
             burstier than the schedule",
        );
    }
    run.detail_num("tenants", tenants as f64);
    run.detail_num("setups", setup_s.len() as f64);
    run.detail_num("latency_limit_ms", LATENCY_LIMIT_MS);
    run.detail_num("nominal_rate", NOMINAL_RATE);
    run.detail_num("nominal_repeats", NOMINAL_REPEATS as f64);
    run.detail_str(
        "sustained_by_search",
        &format!("{found:?} (median reported)"),
    );
    run.detail_num(
        "saturation_rate",
        SATURATION_FACTOR * sustained.max(SEARCH_MIN),
    );
    run.detail_str(
        "latency_summary",
        "per-order minimum over the nominal repeats, from the due time less the generator's own lateness",
    );
    for r in &rungs {
        let lat = stats::sorted(&r.latency_ms.iter().map(|x| x.1).collect::<Vec<_>>());
        let p50 = stats::percentile(&lat, 50.0).map_or(f64::NAN, |x| x.value);
        let sent: usize = r.tenants.iter().map(TenantRun::steps_sent).sum();
        let due: usize = r.tenants.iter().map(|t| t.due.len()).sum();
        run.detail_str(
            &r.spec.label,
            &format!(
                "rate={:.1}/s seconds={:.3} sent={sent}/{due} achieved={:.1}/s p50={p50:.3}ms p99={:.3}ms samples={} late_p99={:.3}ms backlog_max={} valid={} meets_limit={} backlog_growing={} completed={} clean={} sustained={}",
                r.spec.rate,
                r.spec.seconds,
                r.achieved_rate,
                r.p99_ms,
                lat.len(),
                r.late_p99_ms,
                r.backlog_max,
                r.verdict.valid,
                r.verdict.meets_limit,
                r.verdict.backlog_growing,
                r.verdict.completed,
                r.verdict.clean,
                r.verdict.sustained()
            ),
        );
    }
    Ok(())
}
