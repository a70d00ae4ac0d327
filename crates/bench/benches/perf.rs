//! Tick microbenchmarks: per-tick, per-sense-pass and per-window cost
//! over a prespawned fleet. The full density sweep (and the committed
//! baseline) lives in `expgen perf`; this bench is the quick interactive
//! view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nwade_bench::perf::fleet_config;
use nwade_sim::Simulation;

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_tick");
    group.sample_size(20);
    for density in [100usize, 400] {
        let mut sim = Simulation::new(fleet_config());
        sim.prespawn_fleet(density);
        group.bench_function(BenchmarkId::from_parameter(density), |b| {
            b.iter(|| sim.tick_once())
        });
    }
    group.finish();
}

fn bench_sense(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_sense");
    group.sample_size(20);
    let mut sim = Simulation::new(fleet_config());
    sim.prespawn_fleet(400);
    group.bench_function(BenchmarkId::from_parameter(400usize), |b| {
        b.iter(|| sim.force_sense_pass())
    });
    group.finish();
}

fn bench_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_window");
    group.sample_size(20);
    for density in [100usize, 400] {
        let mut sim = Simulation::new(fleet_config());
        sim.prespawn_fleet(density);
        group.bench_function(BenchmarkId::from_parameter(density), |b| {
            b.iter(|| {
                sim.enqueue_plan_requests(usize::MAX);
                sim.force_process_window();
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tick, bench_sense, bench_window);
criterion_main!(benches);
