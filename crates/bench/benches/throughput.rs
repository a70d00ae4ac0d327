//! Fig. 8 bench: reservation-scheduler throughput with and without
//! NWADE.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nwade_sim::{SimConfig, Simulation};

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_throughput");
    group.sample_size(10);
    for (label, nwade_enabled) in [("with_nwade", true), ("without_nwade", false)] {
        group.bench_with_input(
            BenchmarkId::new("reservation_60s", label),
            &nwade_enabled,
            |b, &enabled| {
                b.iter(|| {
                    let mut config = SimConfig::default();
                    config.duration = 60.0;
                    config.nwade_enabled = enabled;
                    let report = Simulation::new(config).run();
                    assert!(report.metrics.exited > 0);
                    report
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
