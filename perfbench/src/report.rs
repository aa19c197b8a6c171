//! Result assembly: the metric registry, the run record, the machine
//! fingerprint, and the one-line JSON result.

use crate::stats::{self, Quantile};
use crate::trace::Tracer;
use crate::Config;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
/// Every workload reports every one of them with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("orders_per_s", "1/s"),
    ("epoch_p50_ms", "ms"),
    ("epoch_tail_ms", "ms"),
    ("decision_p50_ms", "ms"),
    ("decision_p99_ms", "ms"),
    ("sustained_orders_per_s", "1/s"),
    ("nuv", "count"),
    ("total_cost", "cost"),
    ("served_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
/// Every workload reports every one of them with `--trace 1`; a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.instance_s", "s"),
    ("sim.build_s", "s"),
    ("rl.build_s", "s"),
    ("sim.pre_dispatch_s", "s"),
    ("sim.post_dispatch_s", "s"),
    ("sim.epochs", "count"),
    ("sim.orders_per_epoch", "count"),
    ("sim.repartitions", "count"),
    ("baselines.dispatch_s", "s"),
    ("rl.dispatch_s", "s"),
    ("routing.cells", "count"),
    ("routing.cells_swept", "count"),
    ("routing.cells_pruned", "count"),
    ("routing.cells_escalated", "count"),
    ("routing.delta_cells_swept", "count"),
    ("routing.sweep_ratio", "ratio"),
    ("server.hello_ms", "ms"),
    ("server.send_us", "us"),
    ("server.frames_out_per_order", "count"),
    ("server.journal_bytes_per_cmd", "B"),
    ("server.backlog_max", "count"),
    ("server.panics", "count"),
    ("server.shed", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace_overhead", "ratio"),
];

/// Per-layer metrics of the episode workloads (0 on `serve_stream`).
pub const EPISODE_LAYERS: &[&str] = &[
    "data.instance_s",
    "sim.build_s",
    "rl.build_s",
    "sim.pre_dispatch_s",
    "sim.post_dispatch_s",
    "sim.epochs",
    "sim.orders_per_epoch",
    "sim.repartitions",
    "baselines.dispatch_s",
    "rl.dispatch_s",
    "routing.cells",
    "routing.cells_swept",
    "routing.cells_pruned",
    "routing.cells_escalated",
    "routing.delta_cells_swept",
    "routing.sweep_ratio",
];

/// Per-layer metrics of `serve_stream` (0 on the episode workloads).
pub const SERVER_LAYERS: &[&str] = &[
    "server.hello_ms",
    "server.send_us",
    "server.frames_out_per_order",
    "server.journal_bytes_per_cmd",
    "server.backlog_max",
    "server.panics",
    "server.shed",
    "loadgen.late_ms_p99",
];

/// A small JSON value, enough for the result line and its details.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number, printed with every digit (`null` if not finite).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The value as compact one-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

/// Everything one benchmark run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (episodes, or orders sent).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Context recorded with the result: sizes, seeds, sample counts.
    pub details: Vec<(String, Json)>,
}

impl Run {
    /// Sets a metric's value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets every named per-layer metric to 0: layers the workload does
    /// not exercise.
    pub fn idle_layers(&mut self, names: &[&'static str]) {
        for name in names {
            self.metrics.insert(name, 0.0);
        }
    }

    /// Records a percentile of an ascending sample as a metric, with the
    /// sample counts behind it.
    pub fn latency(&mut self, name: &'static str, sorted: &[f64], p: f64) -> Result<(), String> {
        let q = stats::percentile(sorted, p).ok_or_else(|| format!("{name}: no samples"))?;
        self.quantile(name, q);
        Ok(())
    }

    /// Records the tail rule's percentile of an ascending sample.
    pub fn tail(&mut self, name: &'static str, sorted: &[f64]) -> Result<(), String> {
        let q = stats::tail(sorted, stats::MIN_BEYOND).ok_or_else(|| {
            format!(
                "{name}: {} samples cannot support a tail with {} beyond",
                sorted.len(),
                stats::MIN_BEYOND
            )
        })?;
        self.quantile(name, q);
        Ok(())
    }

    fn quantile(&mut self, name: &'static str, q: Quantile) {
        self.metric(name, q.value);
        self.details.push((
            name.to_string(),
            Json::Obj(vec![
                ("percentile".into(), Json::Num(q.percentile)),
                ("samples".into(), Json::Num(q.samples as f64)),
                ("beyond".into(), Json::Num(q.beyond as f64)),
            ]),
        ));
    }

    /// Records a numeric detail.
    pub fn detail_num(&mut self, key: &str, value: f64) {
        self.details.push((key.to_string(), Json::Num(value)));
    }

    /// Records a string detail.
    pub fn detail_str(&mut self, key: &str, value: &str) {
        self.details
            .push((key.to_string(), Json::Str(value.to_string())));
    }

    /// Writes the traced run's spans next to the result.
    pub fn write_spans(&mut self, cfg: &Config, tracer: &Tracer) -> Result<(), String> {
        let path = cfg
            .out_dir
            .join(format!("{}-seed{}-spans.tsv", cfg.workload, cfg.seed));
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        tracer
            .dump(&mut file)
            .and_then(|()| std::io::Write::flush(&mut file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        self.detail_str("spans_file", &path.display().to_string());
        self.detail_num("spans", tracer.spans().len() as f64);
        Ok(())
    }

    /// The metrics this run must report, in registry order, or the name
    /// of the first one missing.
    fn reported(&self, trace: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let registry = if trace { PER_LAYER } else { END_TO_END };
        registry
            .iter()
            .map(|&(name, unit)| {
                self.metrics
                    .get(name)
                    .map(|&v| (name, unit, v))
                    .ok_or_else(|| format!("metric {name} was not measured"))
            })
            .collect()
    }

    /// The detail record and the final result line.
    pub fn finish(&self, cfg: &Config) -> Result<(String, String), String> {
        let metrics = self.reported(cfg.trace)?;
        if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    metrics
                        .iter()
                        .map(|&(name, unit, value)| {
                            (
                                name.to_string(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Num(value)),
                                    ("unit".into(), Json::Str(unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut details = vec![
            ("workload".to_string(), Json::Str(cfg.workload.clone())),
            ("seed".into(), Json::Num(cfg.seed as f64)),
            ("seconds".into(), Json::Num(cfg.seconds)),
            ("trace".into(), Json::Bool(cfg.trace)),
            ("pool_width".into(), Json::Num(cfg.pool_width as f64)),
            ("fingerprint".into(), fingerprint()),
            (
                "failed_ratio".into(),
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "failures".into(),
                Json::Obj(
                    self.failures
                        .iter()
                        .enumerate()
                        .map(|(i, f)| (i.to_string(), Json::Str(f.clone())))
                        .collect(),
                ),
            ),
        ];
        details.extend(self.details.iter().cloned());
        Ok((Json::Obj(details).render(), result.render()))
    }
}

/// The machine and build the result came from: core count, compiler
/// version, and the source commit when the tree is a git checkout.
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Git must not look above the working directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("rustc".into(), Json::Str(output("rustc", &["-V"]))),
        (
            "git_commit".into(),
            Json::Str(output("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Peak resident set of a process from `/proc/<pid>/status` (`VmHWM`),
/// in MB; `pid` of `None` means this process. 0 when unreadable.
pub fn peak_rss_of(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    peak_rss_of(None)
}

/// `(steal, total)` CPU time over all cores from `/proc/stat`, in clock
/// ticks: how much of the machine its hypervisor gave to other guests.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_numbers_with_every_digit() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(0.1 + 0.2)),
            ("b".into(), Json::Str("x\"y".into())),
            ("c".into(), Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a": 0.30000000000000004, "b": "x\"y", "c": null}"#
        );
    }

    #[test]
    fn registries_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = text.matches(r#""name": "#).count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "3 workloads"
        );
    }

    #[test]
    fn layer_partitions_cover_the_registry() {
        let mut names: Vec<&str> = EPISODE_LAYERS
            .iter()
            .chain(SERVER_LAYERS)
            .copied()
            .collect();
        names.push("trace_overhead");
        names.sort_unstable();
        let mut registry: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        registry.sort_unstable();
        assert_eq!(names, registry);
    }

    #[test]
    fn finish_refuses_a_missing_metric() {
        let run = Run {
            attempted: 1,
            ..Run::default()
        };
        let cfg = Config::for_tests();
        assert!(run.finish(&cfg).unwrap_err().contains("setup_s"));
    }
}
