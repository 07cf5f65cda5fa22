//! replay_telemetry: the paper's headline replay and V&V, in-process.
//! Set-up records synthetic telemetry days; the measured phase replays
//! them through the cooled Frontier twin (L4 plant, 15 s record) two days
//! at a time on one ensemble pool, as `table4_daily_stats` does, and compares
//! each day's power and PUE with what was recorded. The event kernel,
//! the cooling plant and day-level parallelism dominate; the service does
//! nothing.

use crate::gen::{replay_days, ReplayDay};
use crate::probe::{step_histogram, TimedModel};
use crate::stats::{percentile, sorted};
use crate::trace::{self, Tracer};
use crate::{repeat_setup, Args, RunOutput, Tally};
use exadigit_cooling::CoolingModel;
use exadigit_core::config::TwinConfig;
use exadigit_core::twin::DigitalTwin;
use exadigit_obs::Histogram;
use exadigit_raps::metrics::KernelMetrics;
use exadigit_raps::simulation::CoolingCoupling;
use exadigit_sim::clock::SECONDS_PER_DAY;
use exadigit_sim::ensemble::EnsembleRunner;
use exadigit_sim::TimeSeries;
use exadigit_telemetry::generator::TelemetryDay;
use exadigit_telemetry::replay::TelemetryFeed;
use exadigit_telemetry::{compare_channels, SyntheticTwin};
use std::collections::BTreeMap;
use std::time::Instant;

/// Distinct telemetry days recorded per run and replayed in turn.
const DAYS: u64 = 24;
/// Days replayed side by side (the ensemble's pool width).
const WIDTH: usize = 2;
/// Day slots offered to the pool in one measured phase. The pool claims
/// them in order; a slot claimed after the deadline returns at once, so
/// this only has to exceed the days a run can replay.
const MAX_SLOTS: usize = 100_000;
/// The paper's V&V bound on the PUE mean bias, %.
const PUE_BIAS_BOUND_PCT: f64 = 1.4;
/// Spin-up skipped before comparing channels (the Fig. 9 methodology).
const SKIP_S: f64 = 60.0;

/// A recorded day as the replay needs it: the feed, and the two channels
/// the V&V compares against (the rest of the recording is dropped to
/// keep the resident set small).
struct Recorded {
    feed: TelemetryFeed,
    measured_power_w: TimeSeries,
    measured_pue: TimeSeries,
}

/// What one replayed day produced.
#[derive(Debug, Clone, Copy)]
struct DayResult {
    day: usize,
    ms: f64,
    power_nrmse_pct: f64,
    pue_bias_pct: f64,
    energy_mwh: f64,
}

impl DayResult {
    fn bits(&self) -> [u64; 3] {
        [
            self.power_nrmse_pct.to_bits(),
            self.pue_bias_pct.to_bits(),
            self.energy_mwh.to_bits(),
        ]
    }
}

/// Instruments attached to a traced replay.
struct Probes {
    steps: Histogram,
    kernel: KernelMetrics,
}

impl Default for Probes {
    fn default() -> Self {
        Probes {
            steps: step_histogram(),
            kernel: KernelMetrics::default(),
        }
    }
}

fn record(tracer: &Tracer, seed: u64, days: Vec<ReplayDay>) -> Vec<Recorded> {
    let synthetic = SyntheticTwin::frontier();
    let power = synthetic.nominal_system.node_power;
    EnsembleRunner::new(seed).threads(WIDTH).map(days, |_, d| {
        let day: TelemetryDay = tracer.span("telemetry.record", d.day_index, || {
            synthetic.record_day(d.jobs, d.day_index)
        });
        Recorded {
            feed: TelemetryFeed::from_day(&day, &power),
            measured_power_w: day.measured_power_w,
            measured_pue: day.cooling.pue,
        }
    })
}

/// Replay one recorded day and compare it with the recording. With
/// `probes`, the cooling model is wrapped in the timing decorator —
/// built exactly as `DigitalTwin::new` builds it — and the kernel counts
/// into shared counters.
fn replay_day(
    tracer: &Tracer,
    index: usize,
    rec: &Recorded,
    probes: Option<&Probes>,
) -> Result<DayResult, String> {
    let started = Instant::now();
    let id = index as u64;
    tracer.span("ensemble.day", id, || {
        let mut twin = tracer.span("twin.new", id, || -> Result<DigitalTwin, String> {
            let config = TwinConfig::frontier();
            let num_cdus = config.system.cooling.num_cdus;
            let plant = config.plant.clone();
            let mut twin = DigitalTwin::new(config)?;
            if let Some(p) = probes {
                let model = TimedModel::new(Box::new(CoolingModel::new(plant)?), p.steps.clone());
                let coupling = CoolingCoupling::attach(Box::new(model), num_cdus)
                    .map_err(|e| format!("cooling coupling: {e}"))?;
                twin.raps_mut().attach_cooling(coupling);
                twin.set_kernel_metrics(p.kernel.clone());
            }
            Ok(twin)
        })?;
        let mut feed = rec.feed.clone();
        twin.set_wet_bulb(feed.wet_bulb().clone());
        let span_s = feed.span_s();
        twin.submit(feed.poll(span_s));
        tracer
            .span("twin.run", id, || twin.run(span_s))
            .map_err(|e| format!("replay: {e}"))?;
        let (power, pue) = tracer.span("telemetry.compare", id, || {
            let out = twin.outputs();
            (
                compare_channels(
                    "system_power",
                    &out.system_power_w,
                    &rec.measured_power_w,
                    SKIP_S,
                ),
                compare_channels("pue", &out.pue, &rec.measured_pue, SKIP_S),
            )
        });
        Ok(DayResult {
            day: index,
            ms: started.elapsed().as_secs_f64() * 1e3,
            power_nrmse_pct: power.nrmse_percent(),
            pue_bias_pct: pue.mean_bias_percent(),
            energy_mwh: twin.report().total_energy_mwh,
        })
    })
}

/// Replay the given days on one pool.
fn replay_days_once(
    tracer: &Tracer,
    seed: u64,
    recorded: &[Recorded],
    days: Vec<usize>,
    probes: Option<&Probes>,
) -> Result<Vec<DayResult>, String> {
    EnsembleRunner::new(seed)
        .threads(WIDTH)
        .try_map(days, |_, d| replay_day(tracer, d, &recorded[d], probes))
}

/// Replay the recorded days round-robin on one pool until `deadline`:
/// no barrier between days, so a thread that finishes a short day takes
/// the next one at once.
fn replay_until(
    tracer: &Tracer,
    seed: u64,
    recorded: &[Recorded],
    deadline: Instant,
    probes: Option<&Probes>,
) -> Result<Vec<DayResult>, String> {
    let slots =
        EnsembleRunner::new(seed)
            .threads(WIDTH)
            .try_map((0..MAX_SLOTS).collect(), |_, slot| {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                let day = slot % recorded.len();
                replay_day(tracer, day, &recorded[day], probes).map(Some)
            })?;
    Ok(slots.into_iter().flatten().collect())
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let seed = args.seed;
    let tracer = Tracer::new(args.trace);
    let (recorded, setup_s) = repeat_setup(|_| Ok(record(&tracer, seed, replay_days(seed, DAYS))))?;
    let probes = args.trace.then(Probes::default);

    let mut tally = Tally::default();
    let mut first: BTreeMap<usize, [u64; 3]> = BTreeMap::new();
    let started = Instant::now();
    let results = replay_until(
        &tracer,
        seed,
        &recorded,
        started + args.seconds,
        probes.as_ref(),
    )?;
    let wall_s = started.elapsed().as_secs_f64();
    for r in &results {
        // Each day must meet the paper's PUE bound and replay to the
        // same bits every time it comes round.
        let bits = *first.entry(r.day).or_insert_with(|| {
            let mut bits = r.bits();
            if args.corrupt_expected && r.day == 0 {
                bits[0] ^= 1;
            }
            bits
        });
        let pue_ok = r.pue_bias_pct.abs() <= PUE_BIAS_BOUND_PCT;
        tally.record(match (pue_ok, bits == r.bits()) {
            (true, true) => Ok(()),
            (false, _) => Err(format!(
                "day {} PUE bias {:.3} % exceeds {PUE_BIAS_BOUND_PCT} %",
                r.day, r.pue_bias_pct
            )),
            (true, false) => Err(format!("day {} replayed to different bits", r.day)),
        });
    }

    let day_ms = sorted(results.iter().map(|r| r.ms).collect());
    let distinct: Vec<&DayResult> = {
        let mut seen = BTreeMap::new();
        for r in &results {
            seen.entry(r.day).or_insert(r);
        }
        seen.into_values().collect()
    };
    let mean = |f: fn(&DayResult) -> f64| {
        distinct.iter().map(|r| f(r)).sum::<f64>() / distinct.len() as f64
    };
    let mut values = crate::report::Values::default();
    values.set("setup_s", setup_s);
    let latency = crate::report::set_latency(
        &mut values,
        &format!(
            "replays of {} distinct days at width {WIDTH}",
            distinct.len()
        ),
        day_ms.clone(),
        wall_s,
    );
    values.set("telemetry.power_nrmse_pct", mean(|r| r.power_nrmse_pct));
    values.set("telemetry.pue_bias_pct", mean(|r| r.pue_bias_pct.abs()));
    values.set("ensemble.day_p50_ms", percentile(&day_ms, 50.0).value());
    values.set("ensemble.day_max_ms", day_ms.last().copied().unwrap_or(0.0));
    values.set(
        "ensemble.parallel_eff",
        day_ms.iter().sum::<f64>() / 1e3 / (wall_s * WIDTH as f64),
    );
    let mut table = vec![
        latency,
        format!(
            "  V&V: power nRMSE {:.3} %, |PUE bias| {:.4} % (bound {PUE_BIAS_BOUND_PCT} %)",
            mean(|r| r.power_nrmse_pct),
            mean(|r| r.pue_bias_pct.abs())
        ),
    ];

    if let Some(probes) = &probes {
        let spans = tracer.spans();
        let rows = trace::summarize(&spans);
        let total_ms = |name: &str| rows.get(name).map_or(0.0, |r| r.total_ns as f64 / 1e6);
        let p50_ms = |name: &str| rows.get(name).map_or(0.0, |r| r.p50_us() / 1e3);
        let days = results.len() as f64;
        let cooling_ms = probes.steps.sum() * 1e3;
        values.set("cooling.steps", probes.steps.count() as f64);
        values.set("cooling.step_p50_us", probes.steps.quantile(0.50) * 1e6);
        values.set("cooling.step_p99_us", probes.steps.quantile(0.99) * 1e6);
        values.set("cooling.busy_ms_per_day", cooling_ms / days);
        values.set(
            "kernel.self_ms_per_day",
            (total_ms("twin.run") - cooling_ms) / days,
        );
        values.set(
            "twin.run_us_per_sim_h",
            total_ms("twin.run") * 1e3 / (days * SECONDS_PER_DAY as f64 / 3_600.0),
        );
        values.set("telemetry.record_ms_per_day", p50_ms("telemetry.record"));
        values.set("telemetry.compare_ms", p50_ms("telemetry.compare"));
        let k = &probes.kernel;
        for (name, counter) in crate::report::KERNEL_COUNTERS.iter().zip([
            &k.job_arrivals,
            &k.job_completions,
            &k.wet_bulb_breakpoints,
            &k.cooling_quanta,
            &k.record_boundaries,
            &k.gaps_batched,
            &k.samples_backfilled,
        ]) {
            values.set(name, counter.get() as f64);
        }
        // Overhead: the first two days replayed bare and instrumented. The
        // bare replays must also compute the bits the instrumented measured
        // phase did: the timing decorator is transparent.
        let mut passes = Vec::new();
        let overhead = trace::overhead_pct(|t| {
            let probes = Probes::default();
            passes.push(replay_days_once(
                t,
                seed,
                &recorded,
                vec![0, 1],
                t.enabled().then_some(&probes),
            )?);
            Ok(())
        })?;
        for r in passes.iter().flatten() {
            let measured = results.iter().find(|m| m.day == r.day).map(DayResult::bits);
            tally.record(if measured == Some(r.bits()) {
                Ok(())
            } else {
                Err(format!(
                    "day {} differs between bare and instrumented replays",
                    r.day
                ))
            });
        }
        values.set("trace.overhead_pct", overhead);
        values.set("trace.spans", spans.len() as f64);
        table.extend(trace::table(&rows));
        trace::write_jsonl(&spans, &crate::spans_path(args))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(RunOutput {
        tally,
        values,
        table,
    })
}
