//! Regenerates **Fig. 7** of the paper: cooling-model validation against
//! (synthetic) telemetry — (a) CDU primary flow, (b) CDU primary return
//! temperature, (c) HTW supply pressure, (d) PUE — plus the **Table II**
//! channel specification and the **Fig. 5** station registry.
//!
//! ```sh
//! cargo run --release -p exadigit_bench --bin fig7_cooling_validation -- --hours 24
//! ```

use exadigit_bench::{arg_u64, section};
use exadigit_cooling::stations::STATIONS;
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_telemetry::{cooling_validation, SyntheticTwin};
use exadigit_viz::chart::spark_series;

fn main() {
    let hours = arg_u64("--hours", 24);
    let span = hours * 3_600;

    section("Table II — telemetry channels used for validation");
    println!("  RAPS inputs : jobs (name, id, node_count, start, cpu/gpu power @15 s)");
    println!("  RAPS output : measured system power @1 s");
    println!("  Cooling in  : rack power @15 s ×25, wet-bulb @60 s");
    println!("  Cooling out : CDU flows/temps/pumps @15 s ×25, facility T @60 s,");
    println!("                pressures @30 s, flows @120 s, PUE @15 s");

    section("Fig. 5 — station registry");
    for s in STATIONS {
        println!("  {:>2}  {:<38} [{}]", s.id, s.name, s.loop_name);
    }

    section(&format!("Fig. 7 — cooling validation over {hours} h of replay"));
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 0x0407);
    let jobs: Vec<_> =
        generator.generate_day(0).into_iter().filter(|j| j.submit_time_s < span).collect();
    println!("  recording physical-twin telemetry ({} jobs, perturbed plant + sensor noise)...", jobs.len());
    println!("  replaying through the nominal Modelica-equivalent model...");
    let v = cooling_validation(&SyntheticTwin::frontier(), jobs, span);

    println!("\n  {:<42} {:>12} {:>12} {:>9}", "panel / channel", "RMSE", "MAE", "nRMSE %");
    let labels = [
        "(a) cdu[1].primary_flow [m3/s]",
        "(b) cdu[1].primary_return_temp [degC]",
        "(c) facility.htw_supply_pressure [Pa]",
        "(d) pue [1]",
    ];
    for (name, cmp) in labels.iter().zip(&v.panels) {
        println!(
            "  {name:<42} {:>12.4} {:>12.4} {:>9.2}",
            cmp.rmse,
            cmp.mae,
            cmp.nrmse_percent()
        );
    }
    println!(
        "\n  PUE bias {:+.2} %   (paper: \"model-predicted PUE is within 1.4 percent\")",
        v.panels[3].mean_bias_percent()
    );

    let measured = &v.telemetry.cooling;
    println!("\n  predicted (a) {}", spark_series(&v.flow, 60));
    println!("  measured  (a) {}", spark_series(&measured.cdu_primary_flow[0], 60));
    println!("  predicted (b) {}", spark_series(&v.return_temp, 60));
    println!("  measured  (b) {}", spark_series(&measured.cdu_return_temp[0], 60));
    println!("  predicted (d) {}", spark_series(&v.pue, 60));
    println!("  measured  (d) {}", spark_series(&measured.pue, 60));
}
