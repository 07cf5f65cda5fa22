//! Cooling-model validation (Fig. 7 workflow): record synthetic CEP
//! telemetry with the perturbed physical twin, replay the same workload
//! through the nominal model, and report RMSE/MAE per channel plus the
//! PUE bias. Exits non-zero when |PUE bias| exceeds the paper's 1.4 %
//! criterion, so it serves as the L4 plant's V&V smoke check.
//!
//! ```sh
//! cargo run --release --example cooling_validation -- 6
//! ```

use exadigit_cooling::CoolingModel;
use exadigit_raps::config::SystemConfig;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::simulation::{CoolingCoupling, RapsSimulation};
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_sim::TimeSeries;
use exadigit_telemetry::{compare_channels, SyntheticTwin};
use exadigit_viz::chart::spark_series;

/// The paper's validation criterion: model PUE within 1.4 % of telemetry.
const PUE_BIAS_BOUND_PCT: f64 = 1.4;

fn main() {
    let hours: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3);
    let span = hours * 3_600;
    println!("ExaDigiT-rs cooling validation — {hours} h replay (Fig. 7 workflow)\n");

    let twin = SyntheticTwin::frontier();
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 4_117);
    let jobs: Vec<_> =
        generator.generate_day(0).into_iter().filter(|j| j.submit_time_s < span).collect();
    println!("recording physical-twin telemetry ({} jobs)...", jobs.len());
    let telemetry = twin.record_span(jobs.clone(), span, 0);

    println!("replaying through the nominal cooling model...");
    let mut sim = RapsSimulation::new(
        SystemConfig::frontier(),
        PowerDelivery::StandardAC,
        Policy::FirstFit,
        15,
    );
    let coupling = CoolingCoupling::attach(Box::new(CoolingModel::frontier()), 25).unwrap();
    sim.attach_cooling(coupling);
    sim.set_wet_bulb(telemetry.wet_bulb.clone());
    sim.submit_jobs(jobs);

    let mut pred_flow = TimeSeries::new(0.0, 15.0);
    let mut pred_temp = TimeSeries::new(0.0, 15.0);
    let mut pred_press = TimeSeries::new(0.0, 30.0);
    let mut pred_pue = TimeSeries::new(0.0, 15.0);
    let (vr_flow, vr_temp, vr_press, vr_pue) = {
        let m = sim.cooling_model().unwrap();
        (
            m.var_by_name("cdu[1].primary_flow").unwrap().vr,
            m.var_by_name("cdu[1].primary_return_temp").unwrap().vr,
            m.var_by_name("facility.htw_supply_pressure").unwrap().vr,
            m.var_by_name("pue").unwrap().vr,
        )
    };
    for sec in 0..span {
        sim.tick().expect("replay");
        let t = sec + 1;
        let m = sim.cooling_model().unwrap();
        if t % 15 == 0 {
            pred_flow.push(m.get_real(vr_flow).unwrap());
            pred_temp.push(m.get_real(vr_temp).unwrap());
            pred_pue.push(m.get_real(vr_pue).unwrap());
        }
        if t % 30 == 0 {
            pred_press.push(m.get_real(vr_press).unwrap());
        }
    }

    let skip = 1_800.0;
    println!("\n{:<36} {:>12} {:>12} {:>10}", "channel (Fig. 7 panel)", "RMSE", "MAE", "nRMSE %");
    let rows = [
        ("cdu[1].primary_flow (a)", &pred_flow, &telemetry.cooling.cdu_primary_flow[0]),
        ("cdu[1].primary_return_temp (b)", &pred_temp, &telemetry.cooling.cdu_return_temp[0]),
        ("facility.htw_supply_pressure (c)", &pred_press, &telemetry.cooling.htw_supply_pressure),
    ];
    for (name, predicted, measured) in rows {
        let cmp = compare_channels(name, predicted, measured, skip);
        println!(
            "{:<36} {:>12.4} {:>12.4} {:>10.2}",
            name,
            cmp.rmse,
            cmp.mae,
            cmp.nrmse_percent()
        );
    }
    let pue_cmp = compare_channels("pue (d)", &pred_pue, &telemetry.cooling.pue, skip);
    println!(
        "{:<36} {:>12.4} {:>12.4} {:>10.2}",
        "pue (d)",
        pue_cmp.rmse,
        pue_cmp.mae,
        pue_cmp.nrmse_percent()
    );
    let pue_bias = pue_cmp.mean_bias_percent();
    println!(
        "\nPUE bias: {pue_bias:+.2} %  (paper: model within {PUE_BIAS_BOUND_PCT} % of telemetry)"
    );

    println!("\npredicted return temp  {}", spark_series(&pred_temp, 64));
    println!(
        "measured  return temp  {}",
        spark_series(&telemetry.cooling.cdu_return_temp[0], 64)
    );

    if pue_bias.abs() > PUE_BIAS_BOUND_PCT {
        eprintln!(
            "FAIL: |PUE bias| {:.2} % exceeds {PUE_BIAS_BOUND_PCT} %",
            pue_bias.abs()
        );
        std::process::exit(1);
    }
}
