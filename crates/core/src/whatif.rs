//! What-if studies — §IV-3 of the paper and the §III-A use-case list.
//!
//! "Now we can begin to envision ways to improve overall efficiency
//! through virtual modifications to Frontier's DT": the paper tests smart
//! load-sharing rectifiers (+0.1 % efficiency ≈ $120k/yr) and direct
//! 380 V DC distribution (93.3 % → 97.3 %, ≈ $542k/yr, −8.2 % CO₂). This
//! module reproduces those two studies plus two §III-A use cases:
//! virtually extending the cooling plant for a future secondary system,
//! and CDU blockage injection/detection (water quality).
//!
//! Plant-condition sweeps are fidelity-selectable (see
//! `docs/FIDELITY.md`): [`whatif_grid`] evaluates the same
//! (load × wet-bulb) grid either by settling the L4 plant at every point
//! or by serving each point from a fitted L3 [`Surrogate`] — the paper's
//! motivation for surrogates ("run in real-time") made concrete, since
//! the L3 grid costs microseconds where the L4 grid costs seconds.

use crate::surrogate::Surrogate;
use exadigit_cooling::{CoolingModel, PlantSpec};
use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::Job;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::simulation::RapsSimulation;
use exadigit_raps::stats::RunReport;
use exadigit_sim::ensemble::EnsembleRunner;
use exadigit_sim::fmi::CoSimModel;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Power-delivery study (smart rectifiers, 380 V DC)
// ---------------------------------------------------------------------

/// Outcome of one power-delivery variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryOutcome {
    /// The variant simulated.
    pub delivery: PowerDelivery,
    /// Its run report.
    pub report: RunReport,
}

/// Results of replaying one workload under all three delivery variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerDeliveryStudy {
    /// Outcomes in `[StandardAC, SmartRectifiers, Direct380Vdc]` order.
    pub outcomes: Vec<DeliveryOutcome>,
}

/// Replay `jobs` for `horizon_s` under a single delivery variant — the
/// unit batched by [`PowerDeliveryStudy::run`] (power-only: conversion
/// losses do not feed back into cooling).
fn run_delivery_variant(
    system: &SystemConfig,
    jobs: &[Job],
    horizon_s: u64,
    policy: Policy,
    delivery: PowerDelivery,
) -> DeliveryOutcome {
    let mut sim = RapsSimulation::new(system.clone(), delivery, policy, 60);
    sim.submit_jobs(jobs.to_vec());
    sim.run_until(horizon_s).expect("power-only run cannot fail");
    DeliveryOutcome { delivery, report: sim.report() }
}

impl PowerDeliveryStudy {
    /// Replay `jobs` for `horizon_s` under each variant, batched across
    /// the thread-pool executor at the process-default width (the study
    /// is deterministic, so the width never changes the outcomes).
    pub fn run(system: &SystemConfig, jobs: &[Job], horizon_s: u64, policy: Policy) -> Self {
        let variants = vec![
            PowerDelivery::StandardAC,
            PowerDelivery::SmartRectifiers,
            PowerDelivery::Direct380Vdc,
        ];
        let outcomes = EnsembleRunner::new(0).map(variants, |_ctx, delivery| {
            run_delivery_variant(system, jobs, horizon_s, policy, delivery)
        });
        PowerDeliveryStudy { outcomes }
    }

    /// The baseline (standard AC) outcome.
    pub fn baseline(&self) -> &DeliveryOutcome {
        &self.outcomes[0]
    }

    /// Outcome for a variant.
    pub fn outcome(&self, delivery: PowerDelivery) -> &DeliveryOutcome {
        self.outcomes.iter().find(|o| o.delivery == delivery).expect("all variants present")
    }

    /// Yearly energy-cost savings of a variant vs the baseline, USD —
    /// the Δloss energy valued at the configured tariff.
    pub fn yearly_savings_usd(&self, delivery: PowerDelivery, system: &SystemConfig) -> f64 {
        let base = &self.baseline().report;
        let var = &self.outcome(delivery).report;
        let delta_mw = base.avg_loss_mw - var.avg_loss_mw;
        let yearly_mwh = delta_mw * 8_766.0;
        RunReport::cost_for(&system.costs, yearly_mwh)
    }

    /// Relative CO₂ change of a variant vs the baseline, percent
    /// (negative = reduction). Per eq. (6) emissions scale with consumed
    /// energy *and* 1/η.
    pub fn carbon_delta_percent(&self, delivery: PowerDelivery) -> f64 {
        let base = &self.baseline().report;
        let var = &self.outcome(delivery).report;
        100.0 * (var.co2_tons - base.co2_tons) / base.co2_tons
    }

    /// Efficiency gain of a variant vs the baseline, percentage points.
    pub fn efficiency_gain_points(&self, delivery: PowerDelivery) -> f64 {
        100.0 * (self.outcome(delivery).report.efficiency - self.baseline().report.efficiency)
    }
}

// ---------------------------------------------------------------------
// Cooling-extension study (virtual prototyping)
// ---------------------------------------------------------------------

/// Plant condition summary for the extension study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlantCondition {
    /// HTW supply temperature at the hall, °C.
    pub htws_temp_c: f64,
    /// PUE.
    pub pue: f64,
    /// Tower cells staged.
    pub cells_staged: f64,
    /// Auxiliary cooling power (HTWP+CTWP+fans+CDU pumps), W.
    pub cooling_power_w: f64,
}

/// Virtual prototyping: impact of attaching a future secondary system's
/// heat load onto the existing CEP (§III-A use case).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolingExtensionStudy {
    /// Current-system condition.
    pub baseline: PlantCondition,
    /// Condition with the extension load attached.
    pub extended: PlantCondition,
    /// Extension load, W.
    pub extension_w: f64,
}

impl CoolingExtensionStudy {
    /// Settle the plant at `base_load_fraction` of design heat, then with
    /// `extension_mw` of additional load spread across the CDUs, and
    /// compare the steady conditions at the given wet-bulb.
    pub fn run(
        spec: &PlantSpec,
        base_load_fraction: f64,
        extension_mw: f64,
        wet_bulb_c: f64,
    ) -> Result<Self, String> {
        let settle = |extra_w: f64| -> Result<PlantCondition, String> {
            let heat =
                spec.heat_per_cdu_w() * base_load_fraction + extra_w / spec.num_cdus as f64;
            let model = settle_plant(spec, heat, wet_bulb_c, 600)?;
            Ok(PlantCondition {
                htws_temp_c: model.output_by_name("facility.htw_supply_temp").unwrap(),
                pue: model.output_by_name("pue").unwrap(),
                cells_staged: model.output_by_name("ct.num_cells_staged").unwrap(),
                cooling_power_w: model.output_by_name("cooling_power").unwrap(),
            })
        };
        Ok(CoolingExtensionStudy {
            baseline: settle(0.0)?,
            extended: settle(extension_mw * 1e6)?,
            extension_w: extension_mw * 1e6,
        })
    }
}

// ---------------------------------------------------------------------
// Plant settling
// ---------------------------------------------------------------------

/// Build the L4 plant, apply `heat_per_cdu_w` to every CDU at the given
/// wet-bulb (IT power = total heat / 0.945), and step it `steps` × 15 s
/// toward steady state — the settling protocol shared by
/// [`CoolingExtensionStudy::run`], the L4 arm of [`whatif_grid`] and
/// [`crate::surrogate::generate_training_data`].
pub(crate) fn settle_plant(
    spec: &PlantSpec,
    heat_per_cdu_w: f64,
    wet_bulb_c: f64,
    steps: usize,
) -> Result<CoolingModel, String> {
    let mut model = CoolingModel::new(spec.clone())?;
    model.setup(0.0);
    for i in 0..spec.num_cdus {
        model
            .set_real(exadigit_sim::fmi::VarRef(i as u32), heat_per_cdu_w)
            .map_err(|e| e.to_string())?;
    }
    let wb_vr = model.var_by_name("wet_bulb").expect("registry").vr;
    model.set_real(wb_vr, wet_bulb_c).map_err(|e| e.to_string())?;
    let it_vr = model.var_by_name("it_power").expect("registry").vr;
    model
        .set_real(it_vr, heat_per_cdu_w * spec.num_cdus as f64 / 0.945)
        .map_err(|e| e.to_string())?;
    for k in 0..steps {
        model.do_step(k as f64 * 15.0, 15.0).map_err(|e| e.to_string())?;
    }
    Ok(model)
}

// ---------------------------------------------------------------------
// CDU blockage injection & detection (water quality)
// ---------------------------------------------------------------------

/// Result of a blockage-detection pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockageReport {
    /// Per-CDU secondary flows observed, m³/s.
    pub flows_m3s: Vec<f64>,
    /// CDUs flagged as blocked (0-based).
    pub flagged: Vec<usize>,
    /// Detection threshold used (fraction of the median flow).
    pub threshold: f64,
}

/// Flag CDUs whose secondary flow falls below `threshold` × median —
/// the detection predicate for "can these types of blockages be
/// detected?" (§III-A).
pub fn detect_blockages(flows: &[f64], threshold: f64) -> BlockageReport {
    let mut sorted = flows.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("flows are finite"));
    let median = sorted[sorted.len() / 2];
    let flagged = flows
        .iter()
        .enumerate()
        .filter(|(_, &q)| q < threshold * median)
        .map(|(i, _)| i)
        .collect();
    BlockageReport { flows_m3s: flows.to_vec(), flagged, threshold }
}

/// Inject blockages into the given CDUs of a settled plant and verify the
/// detector finds exactly them. Returns the detection report.
pub fn blockage_experiment(
    spec: &PlantSpec,
    blocked_cdus: &[usize],
    blockage_factor: f64,
    load_fraction: f64,
) -> Result<BlockageReport, String> {
    let mut model = CoolingModel::new(spec.clone())?;
    model.setup(0.0);
    let heat = spec.heat_per_cdu_w() * load_fraction;
    for i in 0..spec.num_cdus {
        model
            .set_real(exadigit_sim::fmi::VarRef(i as u32), heat)
            .map_err(|e| e.to_string())?;
    }
    for &cdu in blocked_cdus {
        let vr = model
            .var_by_name(&format!("cdu_blockage[{}]", cdu + 1))
            .ok_or("unknown CDU")?
            .vr;
        model.set_real(vr, blockage_factor).map_err(|e| e.to_string())?;
    }
    for k in 0..200 {
        model.do_step(k as f64 * 15.0, 15.0).map_err(|e| e.to_string())?;
    }
    let flows: Vec<f64> = (1..=spec.num_cdus)
        .map(|i| model.output_by_name(&format!("cdu[{i}].secondary_flow")).unwrap())
        .collect();
    Ok(detect_blockages(&flows, 0.85))
}

// ---------------------------------------------------------------------
// Fidelity-selectable what-if grid (L3 surrogate vs L4 plant)
// ---------------------------------------------------------------------

/// The model fidelity a plant-condition sweep runs at.
///
/// Both arms answer the same question — steady PUE and cooling power at
/// a (load fraction, wet-bulb) operating point — through different
/// machinery, so a sweep can trade accuracy for wall-clock per point.
#[derive(Debug, Clone, PartialEq)]
pub enum Fidelity {
    /// L4: settle the comprehensive transient plant at every point.
    Plant,
    /// L3: serve every point from a fitted surrogate (microseconds per
    /// point; extrapolation outside the training envelope is flagged,
    /// not fatal).
    Surrogate(Surrogate),
}

impl Fidelity {
    /// Short label for tables and bench IDs (`"L3"` / `"L4"`).
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::Plant => "L4",
            Fidelity::Surrogate(_) => "L3",
        }
    }
}

/// One evaluated point of a fidelity-selectable what-if grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridOutcome {
    /// Load fraction of plant design heat.
    pub load_fraction: f64,
    /// Wet-bulb temperature, °C.
    pub wet_bulb_c: f64,
    /// Steady PUE at the operating point.
    pub pue: f64,
    /// Steady cooling auxiliary power, W.
    pub cooling_power_w: f64,
    /// True when an L3 backend answered from outside its training
    /// envelope (always false at L4).
    pub extrapolated: bool,
}

/// A completed what-if grid with its extrapolation tally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfGrid {
    /// Outcomes in (load-major, wet-bulb-minor) sweep order.
    pub points: Vec<GridOutcome>,
    /// How many points were answered by extrapolation — the counted
    /// warning the paper's caveat about interpolative L3 models demands.
    pub extrapolations: usize,
}

/// Evaluate one grid point at the chosen fidelity — the unit batched by
/// [`whatif_grid`]. The L4 arm settles for 400 × 15 s.
fn evaluate_grid_point(
    spec: &PlantSpec,
    fidelity: &Fidelity,
    load_fraction: f64,
    wet_bulb_c: f64,
) -> Result<GridOutcome, String> {
    match fidelity {
        Fidelity::Plant => {
            let model =
                settle_plant(spec, spec.heat_per_cdu_w() * load_fraction, wet_bulb_c, 400)?;
            Ok(GridOutcome {
                load_fraction,
                wet_bulb_c,
                pue: model.output_by_name("pue").expect("output"),
                cooling_power_w: model.output_by_name("cooling_power").expect("output"),
                extrapolated: false,
            })
        }
        Fidelity::Surrogate(sur) => Ok(GridOutcome {
            load_fraction,
            wet_bulb_c,
            pue: sur.predict_pue(load_fraction, wet_bulb_c),
            cooling_power_w: sur.predict_cooling_power(load_fraction, wet_bulb_c),
            extrapolated: !sur.in_domain(load_fraction, wet_bulb_c),
        }),
    }
}

/// Evaluate a (load × wet-bulb) grid at the chosen fidelity, batched
/// across the thread-pool executor at the process-default width (grid
/// evaluation is deterministic, so the width never changes the points).
/// On failure the lowest-index error is returned.
pub fn whatif_grid(
    spec: &PlantSpec,
    fidelity: &Fidelity,
    loads: &[f64],
    wet_bulbs: &[f64],
) -> Result<WhatIfGrid, String> {
    let mut cells = Vec::with_capacity(loads.len() * wet_bulbs.len());
    for &l in loads {
        for &w in wet_bulbs {
            cells.push((l, w));
        }
    }
    let points = EnsembleRunner::new(0)
        .try_map(cells, |_ctx, (l, w)| evaluate_grid_point(spec, fidelity, l, w))?;
    let extrapolations = points.iter().filter(|p| p.extrapolated).count();
    Ok(WhatIfGrid { points, extrapolations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};

    fn small_system() -> SystemConfig {
        let mut cfg = SystemConfig::frontier();
        cfg.partitions[0].nodes = 1024;
        cfg.cooling.num_cdus = 3;
        cfg.cooling.racks_per_cdu = 3;
        cfg
    }

    #[test]
    fn delivery_study_orders_losses_correctly() {
        let cfg = small_system();
        let mut generator = WorkloadGenerator::new(
            WorkloadParams { machine_nodes: 1024, ..Default::default() },
            99,
        );
        let jobs = generator.generate_day(0);
        let study = PowerDeliveryStudy::run(&cfg, &jobs, 3 * 3600, Policy::FirstFit);
        let base = study.outcome(PowerDelivery::StandardAC).report.avg_loss_mw;
        let smart = study.outcome(PowerDelivery::SmartRectifiers).report.avg_loss_mw;
        let dc = study.outcome(PowerDelivery::Direct380Vdc).report.avg_loss_mw;
        // Paper ordering: DC < smart < baseline losses.
        assert!(smart < base, "smart {smart} vs base {base}");
        assert!(dc < smart, "dc {dc} vs smart {smart}");
        // DC raises efficiency to ~97.3 %.
        let eff_dc = study.outcome(PowerDelivery::Direct380Vdc).report.efficiency;
        assert!((eff_dc - 0.973).abs() < 0.01, "eff={eff_dc}");
        // And cuts carbon.
        assert!(study.carbon_delta_percent(PowerDelivery::Direct380Vdc) < -3.0);
        // Savings are positive for both variants.
        assert!(study.yearly_savings_usd(PowerDelivery::SmartRectifiers, &cfg) > 0.0);
        assert!(
            study.yearly_savings_usd(PowerDelivery::Direct380Vdc, &cfg)
                > study.yearly_savings_usd(PowerDelivery::SmartRectifiers, &cfg)
        );
    }

    #[test]
    fn blockage_detector_flags_outliers() {
        let mut flows = vec![0.03; 25];
        flows[7] = 0.012;
        flows[19] = 0.015;
        let report = detect_blockages(&flows, 0.85);
        assert_eq!(report.flagged, vec![7, 19]);
    }

    #[test]
    fn blockage_detector_clean_plant_flags_nothing() {
        let flows = vec![0.03; 25];
        assert!(detect_blockages(&flows, 0.85).flagged.is_empty());
    }

    #[test]
    fn grid_fidelities_agree_inside_the_envelope() {
        // Train a surrogate on the small plant with the same 400-step
        // settle protocol the L4 grid uses, over a wet-bulb range that
        // stays inside one tower-staging regime (above ~wb 20 °C this
        // plant stages an extra cell, a PUE cliff no quadratic can
        // track — the training-envelope caveat in docs/FIDELITY.md).
        let spec = exadigit_cooling::PlantSpec::marconi100_like();
        let samples = crate::surrogate::generate_training_data(
            &spec,
            &[0.3, 0.6, 0.9],
            &[10.0, 14.0, 18.0],
            400,
        )
        .unwrap();
        let sur = crate::surrogate::Surrogate::fit(&samples).unwrap();
        let loads = [0.45, 0.7];
        let wbs = [12.0, 16.0];
        let l3 = whatif_grid(&spec, &Fidelity::Surrogate(sur), &loads, &wbs).unwrap();
        let l4 = whatif_grid(&spec, &Fidelity::Plant, &loads, &wbs).unwrap();
        assert_eq!(l3.points.len(), 4);
        assert_eq!(l3.extrapolations, 0, "interior points must not extrapolate");
        for (a, b) in l3.points.iter().zip(&l4.points) {
            assert_eq!(a.load_fraction, b.load_fraction);
            assert_eq!(a.wet_bulb_c, b.wet_bulb_c);
            assert!((a.pue - b.pue).abs() < 0.01, "L3 {} vs L4 {}", a.pue, b.pue);
            assert!(!b.extrapolated, "L4 never extrapolates");
        }
    }

    #[test]
    fn grid_flags_extrapolation_outside_the_envelope() {
        let spec = exadigit_cooling::PlantSpec::marconi100_like();
        let samples = crate::surrogate::generate_training_data(
            &spec,
            &[0.3, 0.6, 0.9],
            &[10.0, 18.0, 26.0],
            50,
        )
        .unwrap();
        let sur = crate::surrogate::Surrogate::fit(&samples).unwrap();
        let grid =
            whatif_grid(&spec, &Fidelity::Surrogate(sur), &[0.6, 1.4], &[18.0, 35.0]).unwrap();
        // (0.6, 18) is interior; (0.6, 35), (1.4, 18), (1.4, 35) are not.
        assert_eq!(grid.extrapolations, 3);
        assert!(!grid.points[0].extrapolated);
        assert!(grid.points[1].extrapolated);
        assert_eq!(Fidelity::Plant.label(), "L4");
    }
}
