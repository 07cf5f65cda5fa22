//! Cooling-plant performance: one 15 s plant step at Frontier scale,
//! model generation (AutoCSM), and the settle transient. The paper's
//! Modelica FMU makes a 24 h replay take ~9 min vs ~3 min without cooling
//! — i.e. the plant step dominates; these benches quantify ours.
//!
//! A step is two hydraulic Newton solves (primary and tower loop), the
//! secondary-loop operating points, and three thermal sub-steps. The
//! Newton steps eliminate the sparse `[[D, B], [C, 0]]` Jacobian in
//! O(branches) with the dense LU's exact arithmetic (`exadigit_network`'s
//! structured step), each solve evaluates valve resistances and pump
//! curves once, and everything that is fixed within a step (mass flows,
//! exchanger UAs, tower NTU, volume decay factors) is evaluated once
//! rather than per sub-step. What remains is dominated by libm: about 50
//! `powf` (valve characteristics, HEX-1600 UAs) and 75 `exp` (ε-NTU
//! effectiveness) per step. The plant's outputs are bit-pinned by the
//! `plant_digest` test of `exadigit_cooling`, so a faster step here is
//! never a different answer.

use criterion::{criterion_group, criterion_main, Criterion};
use exadigit_cooling::{CoolingModel, PlantSpec};
use exadigit_sim::fmi::{CoSimModel, VarRef};
use std::hint::black_box;
use std::time::Duration;

fn settled_model(load: f64) -> CoolingModel {
    let mut model = CoolingModel::frontier();
    model.setup(0.0);
    let heat = model.spec().heat_per_cdu_w() * load;
    for i in 0..25 {
        model.set_real(VarRef(i), heat).unwrap();
    }
    for k in 0..100 {
        model.do_step(k as f64 * 15.0, 15.0).unwrap();
    }
    model
}

fn bench_plant_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("cooling_step");
    group.measurement_time(Duration::from_secs(4)).sample_size(30);
    for (name, load) in [("at_30pct_load", 0.3), ("at_80pct_load", 0.8)] {
        group.bench_function(name, |b| {
            let mut model = settled_model(load);
            let mut t = 10_000.0;
            b.iter(|| {
                model.do_step(t, 15.0).unwrap();
                t += 15.0;
                black_box(model.output_by_name("pue"))
            })
        });
    }
    group.finish();
}

fn bench_autocsm_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("autocsm");
    group.measurement_time(Duration::from_secs(3)).sample_size(30);
    group.bench_function("generate_frontier_model", |b| {
        b.iter(|| black_box(CoolingModel::new(PlantSpec::frontier()).unwrap().output_count()))
    });
    let json = PlantSpec::frontier().to_json();
    group.bench_function("parse_spec_json", |b| {
        b.iter(|| black_box(PlantSpec::from_json(&json).unwrap()))
    });
    group.finish();
}

fn bench_setup_settle(c: &mut Criterion) {
    let mut group = c.benchmark_group("cooling_setup");
    group.measurement_time(Duration::from_secs(5)).sample_size(10);
    group.bench_function("setup_with_40_settle_steps", |b| {
        b.iter(|| {
            let mut model = CoolingModel::frontier();
            model.setup(0.0);
            black_box(model.output_by_name("pue"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_plant_step, bench_autocsm_generation, bench_setup_settle);
criterion_main!(benches);
