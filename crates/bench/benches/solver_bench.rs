//! Numerical-substrate performance: the dense LU factorisation and the
//! hydraulic Newton solve at Frontier's primary-loop size (30 branches) —
//! the pieces that replace Modelica's solver stack.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exadigit_network::hydraulic::{BranchElement, HydraulicNetwork};
use exadigit_network::linalg::Matrix;
use exadigit_sim::Rng;
use exadigit_thermo::pump::Pump;
use exadigit_thermo::valve::ControlValve;
use exadigit_thermo::HydraulicResistance;
use std::hint::black_box;
use std::time::Duration;

fn dd_matrix(n: usize, rng: &mut Rng) -> (Matrix, Vec<f64>) {
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        let mut sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = rng.uniform_range(-1.0, 1.0);
                a[(i, j)] = v;
                sum += v.abs();
            }
        }
        a[(i, i)] = sum + 1.0;
    }
    let b: Vec<f64> = (0..n).map(|_| rng.uniform_range(-5.0, 5.0)).collect();
    (a, b)
}

fn bench_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_lu");
    group.measurement_time(Duration::from_secs(3)).sample_size(40);
    let mut rng = Rng::new(3);
    for n in [8usize, 32, 64] {
        let (a, b) = dd_matrix(n, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(a.clone().solve(&b).unwrap()))
        });
    }
    group.finish();
}

/// Frontier primary loop: 4 pumps + 25 valved CDU branches + EHX return.
fn primary_loop() -> HydraulicNetwork {
    let mut net = HydraulicNetwork::new();
    let ehx_out = net.add_node("ehx_out");
    let supply = net.add_node("supply");
    let ret = net.add_node("return");
    net.set_reference(ehx_out, 120_000.0);
    for i in 0..4 {
        let pump = Pump::from_design_point(format!("HTWP{i}"), 0.347, 32.0, 0.84);
        net.add_branch(
            format!("htwp{i}"),
            ehx_out,
            supply,
            vec![
                BranchElement::Pump { pump, speed: if i < 2 { 0.85 } else { 0.0 } },
                BranchElement::CheckValve { k_forward: 1e4, k_reverse: 1e13 },
            ],
        );
    }
    for i in 0..25 {
        let valve = ControlValve::from_design(format!("V{i}"), 0.0555, 90_000.0);
        net.add_branch(
            format!("cdu{i}"),
            supply,
            ret,
            vec![
                BranchElement::Valve(valve),
                BranchElement::Resistance(HydraulicResistance::from_design(0.0555, 130_000.0)),
            ],
        );
    }
    net.add_branch(
        "ehx",
        ret,
        ehx_out,
        vec![BranchElement::Resistance(HydraulicResistance::from_design(1.39, 94_000.0))],
    );
    net
}

fn bench_hydraulics(c: &mut Criterion) {
    let mut group = c.benchmark_group("hydraulic_newton");
    group.measurement_time(Duration::from_secs(4)).sample_size(30);
    group.bench_function("primary_loop_cold_start", |b| {
        b.iter_batched(
            primary_loop,
            |mut net| black_box(net.solve(32.0).unwrap().iterations),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("primary_loop_warm_start", |b| {
        let mut net = primary_loop();
        net.solve(32.0).unwrap();
        b.iter(|| black_box(net.solve(32.0).unwrap().iterations))
    });
    group.finish();
}

criterion_group!(benches, bench_lu, bench_hydraulics);
criterion_main!(benches);
