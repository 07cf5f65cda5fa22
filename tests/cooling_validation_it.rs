//! Fig. 7 style cooling validation: replay synthetic telemetry through
//! the nominal cooling model and compare the predicted channels against
//! the "measured" (perturbed-twin) channels.
//!
//! Paper criteria: RMSE/MAE "within reasonable bounds" for CDU flows,
//! return temperatures and HTW supply pressure; model PUE within 1.4 % of
//! the telemetry PUE.

use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_telemetry::{cooling_validation, CoolingValidation, SyntheticTwin};

/// Record a 2-hour fragment of synthetic telemetry and replay the same
/// jobs through the nominal model.
fn validation_run() -> CoolingValidation {
    const SPAN_S: u64 = 7_200;
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 7_777);
    let jobs: Vec<_> = generator
        .generate_day(0)
        .into_iter()
        .filter(|j| j.submit_time_s < SPAN_S)
        .collect();
    cooling_validation(&SyntheticTwin::frontier(), jobs, SPAN_S)
}

#[test]
fn fig7_channels_within_reasonable_bounds() {
    let v = validation_run();
    // Panels (a)–(c): flow, return temperature, HTW supply pressure.
    for cmp in &v.panels[..3] {
        let name = &cmp.name;
        // Normalised RMSE under 15 % for every validated channel — the
        // synthetic twin is deliberately perturbed, so zero error would
        // itself be a bug.
        let nrmse = cmp.nrmse_percent();
        assert!(nrmse < 15.0, "{name}: nRMSE {nrmse:.2} % (rmse {:.4})", cmp.rmse);
        assert!(cmp.rmse > 0.0, "{name}: suspiciously perfect agreement");
    }
    // Fig. 7(d): PUE within 1.4 % in the paper; allow 2 % here.
    let pue_bias = v.panels[3].mean_bias_percent().abs();
    assert!(pue_bias < 2.0, "PUE bias {pue_bias:.2} %");
}

#[test]
fn cdu_return_temperature_mae_in_band() {
    let cmp = &validation_run().panels[1];
    assert_eq!(cmp.name, "cdu[1].primary_return_temp");
    // Return-temperature MAE within a couple of kelvin.
    assert!(cmp.mae < 2.5, "MAE {} K", cmp.mae);
}
