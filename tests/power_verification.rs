//! Table III reproduction: RAPS power verification tests.
//!
//! Paper values: idle telemetry 7.4 MW vs RAPS 7.24 MW (2.1 % error),
//! HPL core 21.3 vs 22.3 (4.7 %), peak 27.4 vs 28.2 (3.1 %). The RAPS
//! column must reproduce to ±1 %; the telemetry column comes from the
//! synthetic physical twin, and the error pattern (idle under-predicted,
//! HPL/peak over-predicted, all within ~5 %) must match.

use exadigit_raps::config::SystemConfig;
use exadigit_raps::power::{PowerDelivery, PowerModel};
use exadigit_telemetry::{power_verification, PowerVerificationRow, SyntheticTwin};

fn raps_model() -> PowerModel {
    PowerModel::new(SystemConfig::frontier(), PowerDelivery::StandardAC)
}

/// Table III's idle, HPL-core and peak rows.
fn table3() -> [PowerVerificationRow; 3] {
    power_verification(&SyntheticTwin::frontier())
}

#[test]
fn raps_idle_7_24_mw() {
    let mw = table3()[0].raps_w / 1e6;
    assert!((mw - 7.24).abs() < 0.05, "idle {mw} MW vs paper 7.24");
}

#[test]
fn raps_hpl_22_3_mw() {
    // HPL core phase: 9216 nodes at GPU 79 % / CPU 33 %, 256 idle.
    let hpl = &table3()[1];
    assert_eq!(hpl.nodes, 9216);
    let mw = hpl.raps_w / 1e6;
    assert!((mw - 22.3).abs() < 0.15, "hpl {mw} MW vs paper 22.3");
}

#[test]
fn raps_peak_28_2_mw() {
    let mw = table3()[2].raps_w / 1e6;
    assert!((mw - 28.2).abs() < 0.1, "peak {mw} MW vs paper 28.2");
}

#[test]
fn table3_error_pattern_vs_synthetic_telemetry() {
    let [idle, _, peak] = table3();
    let e_idle = idle.error_pct;
    let e_peak = peak.error_pct;

    // Paper signs: idle −2.1 % (model below telemetry), peak +3.1 %.
    assert!(e_idle < 0.0, "idle error sign: {e_idle}");
    assert!(e_peak > 0.0, "peak error sign: {e_peak}");
    // Magnitudes within the paper's ballpark (≤ ~6 %).
    assert!(e_idle.abs() < 6.0, "idle error {e_idle}");
    assert!(e_peak.abs() < 6.0, "peak error {e_peak}");
}

#[test]
fn efficiency_approximately_094_at_load() {
    // §III-B1: "the total system efficiency according to (1) is roughly
    // 0.94" at load; Finding 9 quotes an average of 93.3 %.
    let snap = raps_model().uniform_power(0.6, 0.6);
    assert!((snap.efficiency - 0.94).abs() < 0.012, "eff={}", snap.efficiency);
}

#[test]
fn peak_conversion_loss_near_1_8_mw() {
    // Finding 9: "maximum of 1.8 MW" conversion loss.
    let snap = raps_model().uniform_power(1.0, 1.0);
    let mw = snap.loss_w / 1e6;
    assert!((mw - 1.8).abs() < 0.25, "peak loss {mw} MW");
}
