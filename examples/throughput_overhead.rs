//! Fig. 8 in miniature: throughput with and without the NWADE layer on
//! the 4-way cross.
//!
//! ```text
//! cargo run --release --example throughput_overhead
//! ```

use nwade_repro::sim::{SimConfig, Simulation};

fn run(label: &str, configure: impl FnOnce(&mut SimConfig)) {
    let mut config = SimConfig::default();
    config.duration = 180.0;
    config.density = 80.0;
    config.seed = 5;
    configure(&mut config);
    let report = Simulation::new(config).run();
    println!(
        "{label:<28} {:>6.1} veh/min served  ({} spawned, {} exited)",
        report.metrics.throughput_per_minute(),
        report.metrics.spawned,
        report.metrics.exited
    );
}

fn main() {
    println!("offered load: 80 veh/min, 180 s, 4-way cross\n");
    run("reservation + NWADE", |_| {});
    run("reservation, no NWADE", |c| c.nwade_enabled = false);
}
