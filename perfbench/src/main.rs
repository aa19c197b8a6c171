//! The repository benchmark: runs one workload for a fixed time, checks
//! that the program's outputs are correct, and prints the result as one
//! JSON line (the last line of standard output).
//!
//! ```text
//! perfbench --workload <megacity_hier|industry_stddgn|serve_stream>
//!           --seed N --seconds S --trace <0|1>
//!           [--serve-bin PATH] [--out-dir DIR]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `report::END_TO_END` / `report::PER_LAYER`). Before the
//! result line the run prints a detail record: the machine fingerprint,
//! the seed, the pool width and the sample count behind every percentile.
//! Exits 1 on any failed correctness check, 2 on bad arguments.

mod episode;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Workload seed; each workload documents what it seeds.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scoring pool width (and server `--threads`): the machine's cores.
    pub pool_width: usize,
    /// The `serve` binary `serve_stream` spawns.
    pub serve_bin: PathBuf,
    /// Where spans and temporary journals go.
    pub out_dir: PathBuf,
}

impl Config {
    #[cfg(test)]
    pub fn for_tests() -> Config {
        Config {
            workload: "megacity_hier".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            pool_width: 1,
            serve_bin: PathBuf::from("serve"),
            out_dir: std::env::temp_dir(),
        }
    }
}

const WORKLOADS: &[&str] = &["megacity_hier", "industry_stddgn", "serve_stream"];

const USAGE: &str = "usage: perfbench --workload <megacity_hier|industry_stddgn|serve_stream> \
--seed N --seconds S --trace <0|1> [--serve-bin PATH] [--out-dir DIR]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out_dir = PathBuf::from(".perfbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pool_width: std::thread::available_parallelism().map_or(1, |n| n.get()),
        serve_bin: serve_bin.unwrap_or_else(|| PathBuf::from("serve")),
        out_dir,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        std::process::exit(1);
    }
    let mut run = report::Run::default();
    let ticks_before = report::cpu_ticks();
    let outcome = match cfg.workload.as_str() {
        "megacity_hier" => episode::run(episode::Workload::Megacity, &cfg, &mut run),
        "industry_stddgn" => episode::run(episode::Workload::Industry, &cfg, &mut run),
        _ => serve::run(&cfg, &mut run),
    };
    // A noisy neighbour shows as stolen CPU time: record its share so a
    // reader can tell a slow machine from a slow program.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, report::cpu_ticks()) {
        run.detail_num(
            "host_steal_share",
            (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        );
    }
    let lines = outcome.and_then(|()| run.finish(&cfg));
    let (details, result) = match lines {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            std::process::exit(1);
        }
    };
    let record = cfg.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        cfg.workload, cfg.seed, cfg.trace as u8
    ));
    if let Err(e) = std::fs::write(&record, format!("{details}\n{result}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", record.display());
    }
    for failure in &run.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{details}");
    println!("{result}");
    if run.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cfg = parse_args(&args(&[
            "--workload",
            "serve_stream",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("serve_stream", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        let base = ["--seed", "1", "--seconds", "1", "--trace", "0"];
        let with = |w: &str| {
            let mut v = args(&["--workload", w]);
            v.extend(args(&base));
            v
        };
        assert!(parse_args(&with("nope"))
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse_args(&args(&["--workload", "serve_stream"])).is_err());
        let mut bad_trace = with("serve_stream");
        bad_trace[7] = "2".into();
        assert!(parse_args(&bad_trace).is_err());
    }
}
