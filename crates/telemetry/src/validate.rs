//! Validation metrics — the Fig. 7 / Table III comparison machinery.
//!
//! §IV of the paper: "Overall, both the root mean square error (RMSE) and
//! the mean absolute error (MAE) of the parameters shown in Fig. 7 are
//! within reasonable bounds" and "The model-predicted PUE is within 1.4
//! percent of the telemetry-based PUE". [`compare_channels`] aligns a
//! predicted channel against a measured channel (resampling across Table
//! II's mixed cadences) and reports RMSE / MAE / MAPE.
//!
//! The paper's two V&V computations live here once, for every binary,
//! example and test that reports them:
//!
//! * [`cooling_validation`] — the Fig. 7 protocol: record the synthetic
//!   physical twin, replay the same jobs through the nominal plant, and
//!   compare the four panels' channels;
//! * [`power_verification`] — the Table III idle / HPL-core / peak rows.

use crate::generator::{SyntheticTwin, TelemetryDay};
use exadigit_cooling::CoolingModel;
use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::Job;
use exadigit_raps::power::{PowerDelivery, PowerModel};
use exadigit_raps::scheduler::Policy;
use exadigit_raps::simulation::{CoolingCoupling, RapsSimulation};
use exadigit_sim::stats::{mae, mape, percent_error, rmse};
use exadigit_sim::TimeSeries;
use serde::{Deserialize, Serialize};

/// Comparison result for one telemetry channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelComparison {
    /// Channel name (e.g. `cdu[3].primary_flow`).
    pub name: String,
    /// Samples compared after alignment.
    pub samples: usize,
    /// Root mean square error (channel units).
    pub rmse: f64,
    /// Mean absolute error (channel units).
    pub mae: f64,
    /// Mean absolute percentage error, %.
    pub mape_percent: f64,
    /// Mean of the measured channel (for normalising).
    pub measured_mean: f64,
    /// Mean of the predicted channel.
    pub predicted_mean: f64,
}

impl ChannelComparison {
    /// RMSE normalised by the measured mean, %.
    pub fn nrmse_percent(&self) -> f64 {
        if self.measured_mean.abs() < f64::EPSILON {
            f64::NAN
        } else {
            100.0 * self.rmse / self.measured_mean.abs()
        }
    }

    /// Relative bias of the means, % (the Fig. 7d PUE criterion).
    pub fn mean_bias_percent(&self) -> f64 {
        if self.measured_mean.abs() < f64::EPSILON {
            f64::NAN
        } else {
            100.0 * (self.predicted_mean - self.measured_mean) / self.measured_mean
        }
    }
}

/// Align two channels on the coarser of their cadences over their common
/// span and compute the error metrics. Leading `skip_s` seconds are
/// discarded (model spin-up, per Finding 8's replay methodology).
pub fn compare_channels(
    name: impl Into<String>,
    predicted: &TimeSeries,
    measured: &TimeSeries,
    skip_s: f64,
) -> ChannelComparison {
    assert!(!predicted.is_empty() && !measured.is_empty(), "empty channel");
    let dt = predicted.dt.max(measured.dt);
    let t_start = (predicted.t0.max(measured.t0) + skip_s).max(0.0);
    let t_end = predicted
        .end_time()
        .expect("non-empty")
        .min(measured.end_time().expect("non-empty"));
    assert!(t_end > t_start, "channels do not overlap after skip");
    let n = ((t_end - t_start) / dt).floor() as usize + 1;
    let mut p = Vec::with_capacity(n);
    let mut m = Vec::with_capacity(n);
    for i in 0..n {
        let t = t_start + i as f64 * dt;
        p.push(predicted.sample_at(t));
        m.push(measured.sample_at(t));
    }
    let p_mean = p.iter().sum::<f64>() / n as f64;
    let m_mean = m.iter().sum::<f64>() / n as f64;
    ChannelComparison {
        name: name.into(),
        samples: n,
        rmse: rmse(&p, &m),
        mae: mae(&p, &m),
        mape_percent: mape(&p, &m),
        measured_mean: m_mean,
        predicted_mean: p_mean,
    }
}

/// Model spin-up discarded before the Fig. 7 channels are compared, s
/// (Finding 8's replay methodology).
const SPINUP_SKIP_S: f64 = 1_800.0;

/// The Fig. 7 replay: the recorded telemetry, the nominal model's
/// predicted channels, and their comparison.
pub struct CoolingValidation {
    /// What the synthetic physical twin recorded over the span.
    pub telemetry: TelemetryDay,
    /// Predicted `cdu[1].primary_flow`, m³/s at 15 s (panel a).
    pub flow: TimeSeries,
    /// Predicted `cdu[1].primary_return_temp`, °C at 15 s (panel b).
    pub return_temp: TimeSeries,
    /// Predicted `facility.htw_supply_pressure`, Pa at 30 s (panel c).
    pub supply_pressure: TimeSeries,
    /// Predicted `pue` at 15 s (panel d).
    pub pue: TimeSeries,
    /// Panels (a)–(d) against the telemetry, after the first 1,800 s
    /// (model spin-up).
    pub panels: [ChannelComparison; 4],
}

/// Run the Fig. 7 protocol over the first `span_s` seconds: record
/// `jobs` with the perturbed physical twin, replay them through the
/// nominal Frontier power model coupled to the nominal cooling plant
/// (one `tick` a second, the twin's wet-bulb as forcing), sample the
/// four panels' channels at their Table II cadences, and compare each
/// with its telemetry.
pub fn cooling_validation(twin: &SyntheticTwin, jobs: Vec<Job>, span_s: u64) -> CoolingValidation {
    let telemetry = twin.record_span(jobs.clone(), span_s, 0);

    // Replay: drive the *nominal* plant with the nominal power model's
    // CDU heats for the same jobs (§IV feeds measured rack power into the
    // model; this replay recomputes it from the same job set through the
    // unperturbed RAPS).
    let mut sim = RapsSimulation::new(
        SystemConfig::frontier(),
        PowerDelivery::StandardAC,
        Policy::FirstFit,
        15,
    );
    let coupling = CoolingCoupling::attach(Box::new(CoolingModel::frontier()), 25)
        .expect("the Frontier plant couples to the Frontier system");
    sim.attach_cooling(coupling);
    sim.set_wet_bulb(telemetry.wet_bulb.clone());
    sim.submit_jobs(jobs);

    let mut flow = TimeSeries::new(0.0, 15.0);
    let mut return_temp = TimeSeries::new(0.0, 15.0);
    let mut supply_pressure = TimeSeries::new(0.0, 30.0);
    let mut pue = TimeSeries::new(0.0, 15.0);
    let [vr_flow, vr_temp, vr_press, vr_pue] = {
        let m = sim.cooling_model().expect("cooling attached");
        [
            "cdu[1].primary_flow",
            "cdu[1].primary_return_temp",
            "facility.htw_supply_pressure",
            "pue",
        ]
        .map(|name| m.var_by_name(name).expect("Fig. 7 channel").vr)
    };
    for sec in 0..span_s {
        sim.tick().expect("replay");
        let t = sec + 1;
        let m = sim.cooling_model().expect("cooling attached");
        if t % 15 == 0 {
            flow.push(m.get_real(vr_flow).expect("output"));
            return_temp.push(m.get_real(vr_temp).expect("output"));
            pue.push(m.get_real(vr_pue).expect("output"));
        }
        if t % 30 == 0 {
            supply_pressure.push(m.get_real(vr_press).expect("output"));
        }
    }

    let measured = &telemetry.cooling;
    let panels = [
        compare_channels(
            "cdu[1].primary_flow",
            &flow,
            &measured.cdu_primary_flow[0],
            SPINUP_SKIP_S,
        ),
        compare_channels(
            "cdu[1].primary_return_temp",
            &return_temp,
            &measured.cdu_return_temp[0],
            SPINUP_SKIP_S,
        ),
        compare_channels(
            "facility.htw_supply_pressure",
            &supply_pressure,
            &measured.htw_supply_pressure,
            SPINUP_SKIP_S,
        ),
        compare_channels("pue", &pue, &measured.pue, SPINUP_SKIP_S),
    ];
    CoolingValidation { telemetry, flow, return_temp, supply_pressure, pue, panels }
}

/// One Table III row: a RAPS power verification test.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerVerificationRow {
    /// Test name as the paper prints it.
    pub name: &'static str,
    /// Nodes the test runs on.
    pub nodes: usize,
    /// The synthetic physical twin's measured system power, W.
    pub telemetry_w: f64,
    /// The nominal RAPS model's system power, W.
    pub raps_w: f64,
    /// Signed error of RAPS against telemetry, %.
    pub error_pct: f64,
}

/// Table III: idle, HPL core phase, and peak power, nominal RAPS against
/// the synthetic physical twin's telemetry.
pub fn power_verification(twin: &SyntheticTwin) -> [PowerVerificationRow; 3] {
    let model = PowerModel::new(SystemConfig::frontier(), PowerDelivery::StandardAC);
    // Telemetry side of HPL: the twin measures the whole machine at the
    // core-phase utilization; take off what its perturbed model puts on
    // the 256 nodes that sit idle.
    let perturbed = PowerModel::new(twin.perturbed_system(), PowerDelivery::StandardAC);
    let hpl_telemetry_w = twin.measured_uniform_power(0.33, 0.79)
        - (perturbed.uniform_power(0.33, 0.79).system_w - hpl_core_power(&perturbed));
    let row = |name, nodes, telemetry_w: f64, raps_w: f64| PowerVerificationRow {
        name,
        nodes,
        telemetry_w,
        raps_w,
        error_pct: percent_error(raps_w, telemetry_w),
    };
    [
        row(
            "Idle power",
            9472,
            twin.measured_uniform_power(0.0, 0.0),
            model.uniform_power(0.0, 0.0).system_w,
        ),
        row("HPL (core)", 9216, hpl_telemetry_w, hpl_core_power(&model)),
        row(
            "Peak power",
            9472,
            twin.measured_uniform_power(1.0, 1.0),
            model.uniform_power(1.0, 1.0).system_w,
        ),
    ]
}

/// HPL core phase (§IV-2): 9,216 nodes at CPU 33 % / GPU 79 %, the rest
/// of the 9,472 idle.
fn hpl_core_power(model: &PowerModel) -> f64 {
    let mut acc = model.new_accumulator();
    for node in 0..9472usize {
        let rack = model.rack_of_node(node);
        if node < 9216 {
            model.add_nodes(&mut acc, rack, 1, 0.33, 0.79, 4);
        } else {
            model.add_nodes(&mut acc, rack, 1, 0.0, 0.0, 4);
        }
    }
    model.evaluate(&acc).system_w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_channels_have_zero_error() {
        let s = TimeSeries::from_values(0.0, 15.0, (0..100).map(|i| 30.0 + i as f64 * 0.01).collect());
        let c = compare_channels("t", &s, &s, 0.0);
        assert_eq!(c.rmse, 0.0);
        assert_eq!(c.mae, 0.0);
        assert!(c.mean_bias_percent().abs() < 1e-12);
    }

    #[test]
    fn constant_offset_detected() {
        let m = TimeSeries::from_values(0.0, 15.0, vec![10.0; 50]);
        let p = m.map(|v| v + 0.5);
        let c = compare_channels("t", &p, &m, 0.0);
        assert!((c.rmse - 0.5).abs() < 1e-12);
        assert!((c.mae - 0.5).abs() < 1e-12);
        assert!((c.mape_percent - 5.0).abs() < 1e-9);
        assert!((c.mean_bias_percent() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_cadence_alignment() {
        // 15 s predicted vs 60 s measured: aligned on 60 s.
        let p = TimeSeries::from_values(0.0, 15.0, (0..241).map(|i| i as f64).collect());
        let m = TimeSeries::from_values(0.0, 60.0, (0..61).map(|i| (i * 4) as f64).collect());
        let c = compare_channels("t", &p, &m, 0.0);
        assert!(c.rmse < 1e-9, "rmse={}", c.rmse);
        assert_eq!(c.samples, 61);
    }

    #[test]
    fn skip_discards_spinup() {
        let mut values = vec![99.0; 10];
        values.extend(vec![1.0; 90]);
        let m = TimeSeries::from_values(0.0, 15.0, vec![1.0; 100]);
        let p = TimeSeries::from_values(0.0, 15.0, values);
        let with_spinup = compare_channels("t", &p, &m, 0.0);
        let skipped = compare_channels("t", &p, &m, 10.0 * 15.0);
        assert!(skipped.rmse < with_spinup.rmse);
        assert!(skipped.rmse < 1e-9);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn non_overlapping_channels_panic() {
        let a = TimeSeries::from_values(0.0, 15.0, vec![1.0; 4]);
        let b = TimeSeries::from_values(1e6, 15.0, vec![1.0; 4]);
        compare_channels("t", &a, &b, 0.0);
    }
}
