//! The twin's benchmark: one command, three workloads, every end-to-end
//! metric by name and unit, outputs checked, and a traced run that splits
//! the time by layer.
//!
//! ```sh
//! cargo run --release --manifest-path twinbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation
//! of the benchmark's own. `--trace 1` runs the same workload with spans
//! around every call into a layer and prints the per-layer metrics
//! instead. The last line of standard output is the JSON result; the
//! human-readable table goes to standard error. `--workload all` runs
//! the three workloads in turn and prints a line for each.
//! `--corrupt-expected` flips one bit of the expected answers, which must
//! turn into counted failures (a self-test of the checks).

mod check;
mod gen;
mod probe;
mod replay;
mod report;
mod serve;
mod serve_hot;
mod serve_whatif;
mod stats;
mod trace;

use report::{Values, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["serve_hot", "serve_whatif", "replay_telemetry"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub corrupt_expected: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut corrupt_expected = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--corrupt-expected" => corrupt_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?} or all)"
        ));
    }
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds must be within 1–600, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        corrupt_expected,
    })
}

/// Operations attempted and failed, with the first reasons kept for
/// the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

/// Failure reasons a report lists; the count covers the rest.
const MAX_REASONS: usize = 5;

impl Tally {
    /// Count one operation, failed unless `result` is `Ok`.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.reasons.len() < MAX_REASONS {
                self.reasons.push(why);
            }
        }
    }

    /// Add another thread's tally to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_REASONS.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }
}

/// What a workload hands back: its tally, its metric values, and the
/// lines of its human-readable table.
pub struct RunOutput {
    pub tally: Tally,
    pub values: Values,
    pub table: Vec<String>,
}

/// Set-up runs this many times per run; `setup_s` is the median and the
/// last set-up is the one measured.
pub const SETUPS: usize = 3;

/// Run `setup` [`SETUPS`] times, keep the last result, and report the
/// median time. Each earlier result is dropped before the next set-up
/// starts, outside the timed section, so only one is ever held.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let started = Instant::now();
        let value = setup(i)?;
        times.push(started.elapsed().as_secs_f64());
        kept = Some(value);
    }
    Ok((kept.expect("SETUPS > 0"), stats::median(&times)))
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(workload: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly when
        // another run still has a directory there).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Write the spans of a traced run next to the checkout's other outputs.
pub fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn run_one(args: &Args) -> Result<String, String> {
    let started = Instant::now();
    let out = match args.workload.as_str() {
        "serve_hot" => serve_hot::run(args),
        "serve_whatif" => serve_whatif::run(args),
        "replay_telemetry" => replay::run(args),
        other => unreachable!("workload {other} was validated by parse_args"),
    }?;
    let mut values = out.values;
    let catalogue = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let rss_mb = probe::rss_peak_mb()?;
    values.set("process.rss_peak_mb", rss_mb);
    if !args.trace {
        for (name, _) in END_TO_END {
            if values.get(name).is_none() {
                return Err(format!("{} did not measure {name}", args.workload));
            }
        }
    }
    eprintln!(
        "== {} seed {} ({}, {:.1} s wall) ==",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        started.elapsed().as_secs_f64()
    );
    for line in &out.table {
        eprintln!("{line}");
    }
    eprintln!("  peak resident set {rss_mb:.1} MB");
    for (name, unit) in catalogue {
        eprintln!(
            "  {name:<36} {:>14.4} {unit}",
            values.get(name).unwrap_or(0.0)
        );
    }
    let tally = out.tally;
    eprintln!("  attempted {} failed {}", tally.attempted, tally.failed);
    for why in &tally.reasons {
        eprintln!("  FAILED: {why}");
    }
    report::json_line(
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        catalogue,
        &values,
    )
}

fn main() -> ExitCode {
    trace::epoch();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("twinbench: {e}");
            eprintln!(
                "usage: twinbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--corrupt-expected]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for workload in workloads {
        let args = Args {
            workload: workload.to_string(),
            ..args.clone()
        };
        match run_one(&args) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("twinbench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args("--workload serve_hot --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds.as_secs(), a.trace),
            ("serve_hot", 7, 10, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload serve_hot --trace 2").is_err());
        assert!(args("--seed 3").is_err(), "a workload is required");
    }
}
