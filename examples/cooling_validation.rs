//! Cooling-model validation (Fig. 7 workflow): record synthetic CEP
//! telemetry with the perturbed physical twin, replay the same workload
//! through the nominal model, and report RMSE/MAE per channel plus the
//! PUE bias. Exits non-zero when |PUE bias| exceeds the paper's 1.4 %
//! criterion, so it serves as the L4 plant's V&V smoke check.
//!
//! ```sh
//! cargo run --release --example cooling_validation -- 6
//! ```

use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_telemetry::{cooling_validation, SyntheticTwin};
use exadigit_viz::chart::spark_series;

/// The paper's validation criterion: model PUE within 1.4 % of telemetry.
const PUE_BIAS_BOUND_PCT: f64 = 1.4;

fn main() {
    let hours: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3);
    let span = hours * 3_600;
    println!("ExaDigiT-rs cooling validation — {hours} h replay (Fig. 7 workflow)\n");

    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 4_117);
    let jobs: Vec<_> =
        generator.generate_day(0).into_iter().filter(|j| j.submit_time_s < span).collect();
    println!("recording physical-twin telemetry ({} jobs)...", jobs.len());
    println!("replaying through the nominal cooling model...");
    let v = cooling_validation(&SyntheticTwin::frontier(), jobs, span);

    println!("\n{:<36} {:>12} {:>12} {:>10}", "channel (Fig. 7 panel)", "RMSE", "MAE", "nRMSE %");
    let labels = [
        "cdu[1].primary_flow (a)",
        "cdu[1].primary_return_temp (b)",
        "facility.htw_supply_pressure (c)",
        "pue (d)",
    ];
    for (name, cmp) in labels.iter().zip(&v.panels) {
        println!(
            "{:<36} {:>12.4} {:>12.4} {:>10.2}",
            name,
            cmp.rmse,
            cmp.mae,
            cmp.nrmse_percent()
        );
    }
    let pue_bias = v.panels[3].mean_bias_percent();
    println!(
        "\nPUE bias: {pue_bias:+.2} %  (paper: model within {PUE_BIAS_BOUND_PCT} % of telemetry)"
    );

    println!("\npredicted return temp  {}", spark_series(&v.return_temp, 64));
    println!(
        "measured  return temp  {}",
        spark_series(&v.telemetry.cooling.cdu_return_temp[0], 64)
    );

    if pue_bias.abs() > PUE_BIAS_BOUND_PCT {
        eprintln!(
            "FAIL: |PUE bias| {:.2} % exceeds {PUE_BIAS_BOUND_PCT} %",
            pue_bias.abs()
        );
        std::process::exit(1);
    }
}
