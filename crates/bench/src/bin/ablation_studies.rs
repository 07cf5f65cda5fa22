//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! (a) load-dependent vs flat conversion-efficiency curves — the paper
//!     quotes flat 0.96/0.98 "within one percent", but Table III is only
//!     reproducible with the droop curve;
//! (b) thermal sub-step size in the plant model — Finding 6's
//!     fidelity-vs-cost trade;
//! (c) hydraulic warm-starting — the solver-cost lever that keeps the
//!     15 s cooling step cheap;
//! (d) L3 surrogate training envelope — how far the fitted polynomial
//!     can be trusted, and what happens at a tower-staging cliff and
//!     outside the envelope (docs/FIDELITY.md).

use exadigit_bench::{mw, section};
use exadigit_cooling::{CoolingModel, PlantSpec};
use exadigit_raps::config::SystemConfig;
use exadigit_raps::power::{PowerDelivery, PowerModel};
use exadigit_sim::fmi::{CoSimModel, VarRef};

fn main() {
    // ---------------- (a) conversion-efficiency curve ----------------
    section("Ablation (a) — flat vs load-dependent conversion efficiency");
    let curve = PowerModel::new(SystemConfig::frontier(), PowerDelivery::StandardAC);
    let mut flat_cfg = SystemConfig::frontier();
    // Flatten: constant η_R = 0.96, η_S = 0.98 (the paper's simplified
    // quotes).
    flat_cfg.conversion.rectifier_droop_low = 0.0;
    flat_cfg.conversion.rectifier_droop_high = 0.0;
    flat_cfg.conversion.rectifier_peak_efficiency = 0.96;
    flat_cfg.conversion.sivoc_idle_droop = 0.0;
    let flat = PowerModel::new(flat_cfg, PowerDelivery::StandardAC);

    println!("  {:<16} {:>10} {:>10} {:>10}", "test", "paper MW", "curve MW", "flat MW");
    let idle_paper = 7.24;
    let peak_paper = 28.2;
    let rows = [
        ("idle", idle_paper, curve.uniform_power(0.0, 0.0), flat.uniform_power(0.0, 0.0)),
        ("peak", peak_paper, curve.uniform_power(1.0, 1.0), flat.uniform_power(1.0, 1.0)),
    ];
    for (name, paper, with_curve, with_flat) in rows {
        println!(
            "  {name:<16} {paper:>10.2} {:>10.2} {:>10.2}",
            mw(with_curve.system_w),
            mw(with_flat.system_w)
        );
    }
    let idle_err_curve = (mw(curve.uniform_power(0.0, 0.0).system_w) - idle_paper).abs();
    let idle_err_flat = (mw(flat.uniform_power(0.0, 0.0).system_w) - idle_paper).abs();
    println!(
        "\n  idle error: curve {idle_err_curve:.3} MW vs flat {idle_err_flat:.3} MW — the droop\n  near idle (\"efficiency drops 1-2%\") is required to reproduce Table III."
    );

    // ---------------- (b) thermal sub-step ----------------
    section("Ablation (b) — thermal sub-step of the plant model (Finding 6)");
    println!("  {:>10} {:>14} {:>14} {:>12}", "substep s", "T_htws degC", "pue", "wall ms/step");
    let mut reference_t: Option<f64> = None;
    for substep in [2.5f64, 5.0, 15.0] {
        let mut spec = PlantSpec::frontier();
        spec.thermal_substep_s = substep;
        let mut model = CoolingModel::new(spec.clone()).unwrap();
        model.setup(0.0);
        let heat = spec.heat_per_cdu_w() * 0.8;
        for i in 0..25 {
            model.set_real(VarRef(i), heat).unwrap();
        }
        let t0 = std::time::Instant::now();
        let steps = 400;
        for k in 0..steps {
            model.do_step(k as f64 * 15.0, 15.0).unwrap();
        }
        let per_step_ms = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;
        let t_htws = model.output_by_name("facility.htw_supply_temp").unwrap();
        let pue = model.output_by_name("pue").unwrap();
        println!("  {substep:>10.1} {t_htws:>14.3} {pue:>14.4} {per_step_ms:>12.3}");
        if let Some(reference) = reference_t {
            let drift = (t_htws - reference).abs();
            assert!(drift < 0.5, "substep {substep}: {drift} K drift vs reference");
        } else {
            reference_t = Some(t_htws);
        }
    }
    println!("  → 5 s sub-steps match 2.5 s within noise; exact exponential volume\n    updates keep even 15 s stable (Finding 6's balance point).");

    // ---------------- (c) hydraulic warm start ----------------
    section("Ablation (c) — hydraulic Newton warm start");
    let mut spec = PlantSpec::frontier();
    spec.thermal_substep_s = 5.0;
    let mut model = CoolingModel::new(spec.clone()).unwrap();
    model.setup(0.0);
    let heat = spec.heat_per_cdu_w() * 0.7;
    for i in 0..25 {
        model.set_real(VarRef(i), heat).unwrap();
    }
    // Cold: first step after setup; warm: steady cycling.
    let t0 = std::time::Instant::now();
    model.do_step(0.0, 15.0).unwrap();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    for k in 1..50 {
        model.do_step(k as f64 * 15.0, 15.0).unwrap();
    }
    let t1 = std::time::Instant::now();
    for k in 50..250 {
        model.do_step(k as f64 * 15.0, 15.0).unwrap();
    }
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3 / 200.0;
    println!("  first step (cold Jacobians): {cold_ms:>8.3} ms");
    println!("  steady step (warm started):  {warm_ms:>8.3} ms");
    println!(
        "  speedup ×{:.1} — warm starting keeps the 15 s plant step far below\n  real time (paper: 24 h replay ≈ 9 min with the Modelica FMU).",
        cold_ms / warm_ms.max(1e-9)
    );

    // ---------------- (d) surrogate training envelope ----------------
    section("Ablation (d) — L3 surrogate training envelope");
    use exadigit_core::surrogate::{generate_training_data, Surrogate};
    use exadigit_core::whatif::{whatif_grid, Fidelity};
    let spec = PlantSpec::marconi100_like();
    let samples = generate_training_data(&spec, &[0.3, 0.6, 0.9], &[10.0, 14.0, 18.0], 400)
        .expect("training sweep");
    let sur = Surrogate::fit(&samples).expect("fit");
    let fidelity = Fidelity::Surrogate(sur.clone());
    println!(
        "  trained on load [0.3, 0.9] × wet-bulb [10, 18] degC (one staging regime); rmse {:.5}",
        sur.pue_train_rmse
    );
    println!("  {:>8} {:>8} {:>10} {:>10} {:>8} {:>8}", "load", "wb degC", "L3 pue", "L4 pue", "|err|", "extrap");
    for (load, wb, note) in [
        (0.45, 12.0, "interior"),
        (0.75, 16.0, "interior"),
        (0.6, 22.0, "staging cliff: extrapolation flagged"),
        (1.3, 14.0, "overload: extrapolation flagged"),
    ] {
        let l3 = whatif_grid(&spec, &fidelity, &[load], &[wb]).expect("L3 point").points[0];
        let l4 = whatif_grid(&spec, &Fidelity::Plant, &[load], &[wb]).expect("L4 point").points[0];
        println!(
            "  {load:>8.2} {wb:>8.1} {:>10.4} {:>10.4} {:>8.4} {:>8}   {note}",
            l3.pue,
            l4.pue,
            (l3.pue - l4.pue).abs(),
            l3.extrapolated,
        );
    }
    println!(
        "  → inside the envelope the quadratic tracks the plant to ~1e-2 PUE; at the\n    tower-staging cliff and beyond the envelope it is answered-but-flagged —\n    the paper's caveat that L3 models \"do not extrapolate well\", as a counter."
    );
}
