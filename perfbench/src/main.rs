//! End-to-end and per-layer benchmark of EnQode as shipped: a live `enqd`
//! answering wire requests at the paper shape, and the streaming fit from an
//! `ENQB` dataset to a durable `ENQM` artifact.
//!
//! ```text
//! perfbench --workload serve-cold|serve-hot|fit-stream --seed N
//!           [--seconds S] [--trace 0|1] [--repeat R]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `--repeat R` runs the
//! workload `R` times in fresh processes (seeds `N..N+R`) and prints each
//! metric's median and quartiles instead. See `README.md`.

mod check;
mod fit;
mod layers;
mod load;
mod rng;
mod serve;
mod sim;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["serve-cold", "serve-hot", "fit-stream"];

/// Parsed command line plus the per-run context every workload shares.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start: `setup_s` is measured from here.
    pub start: Instant,
    /// Scratch directory of this run (datasets, model directories).
    pub run_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
    /// The `enqd` binary built next to this one.
    pub enqd: PathBuf,
}

/// Metrics of one run, in print order.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Ctx {
    /// Where this run's spans are written.
    pub fn trace_file(&self) -> PathBuf {
        self.trace_dir
            .join(format!("{}-seed{}.tsv", self.workload, self.seed))
    }
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

fn parse_args() -> Result<(Ctx, Option<u32>), String> {
    let start = Instant::now();
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) =
        (None, None, 10.0, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--repeat" => repeat = Some(value.parse().map_err(|e| format!("--repeat: {e}"))?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed: u64 = seed.ok_or("--seed is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} must be in (0, 600]"));
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let enqd = exe.with_file_name("enqd");
    let base = PathBuf::from("perfbench").join("runs");
    let run_dir = base.join(format!("{workload}-seed{seed}-pid{}", std::process::id()));
    let trace_dir = base.join("traces");
    Ok((
        Ctx {
            workload,
            seed,
            seconds,
            trace,
            start,
            run_dir,
            trace_dir,
            enqd,
        },
        repeat,
    ))
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if !ctx.enqd.is_file() {
        return Err(format!("no enqd binary at {}", ctx.enqd.display()));
    }
    std::fs::create_dir_all(&ctx.run_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.run_dir.display()))?;
    println!(
        "machine: cores={} backend={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        enq_simd::active().name()
    );
    let outcome = match ctx.workload.as_str() {
        "serve-cold" => serve::run(ctx, serve::Mix::Cold),
        "serve-hot" => serve::run(ctx, serve::Mix::Hot),
        _ => fit::run(ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    outcome
}

fn json_line(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Runs the workload `times` times in fresh processes and prints each
/// metric's median, quartiles and quartile spread over the runs.
fn repeat(ctx: &Ctx, times: u32) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut runs: Vec<Vec<(String, f64, String)>> = Vec::new();
    for i in 0..u64::from(times) {
        let seed = ctx.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &ctx.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("running seed {seed}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !out.status.success() || !last.starts_with("{\"correct\": true") {
            return Err(format!("seed {seed} failed ({}): {last}", out.status));
        }
        let metrics = parse_metrics(last)?;
        println!("seed {seed}: {last}");
        runs.push(metrics);
    }
    for (k, (name, _, unit)) in runs[0].iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r[k].1).collect();
        let med = stats::median(&values);
        let (q1, q3) = if values.len() >= 2 {
            stats::quartiles(&values)
        } else {
            (med, med)
        };
        println!(
            "{name:<24} median {med:>14.6} {unit:<9} q1 {q1:>14.6} q3 {q3:>14.6} spread {:.4}",
            if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            }
        );
    }
    Ok(())
}

/// Reads `(name, value, unit)` triples back from a result line this program
/// printed.
fn parse_metrics(line: &str) -> Result<Vec<(String, f64, String)>, String> {
    let body = line
        .split_once("\"metrics\": {")
        .ok_or("result line has no metrics")?
        .1;
    let mut out = Vec::new();
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        let (name, rest) = entry
            .split_once(": {\"value\": ")
            .ok_or("bad metric entry")?;
        let (value, unit) = rest.split_once(", \"unit\": ").ok_or("bad metric entry")?;
        out.push((
            name.trim_matches('"').to_string(),
            value.parse().map_err(|e| format!("metric {name}: {e}"))?,
            unit.trim_matches('"').to_string(),
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let (ctx, repeat_times) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(times) = repeat_times {
        return match repeat(&ctx, times) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&ctx) {
        Ok(outcome) => {
            let bad = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite());
            if let Some((name, value, _)) = bad {
                eprintln!("perfbench: metric {name} is {value}");
                return ExitCode::FAILURE;
            }
            println!("{}", json_line(true, &outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
