//! Self-tests of the benchmark: span self-time arithmetic, and a tiny
//! run of every workload, untraced and traced.

use nwade_perfbench::report::end_to_end;
use nwade_perfbench::trace::{quantile, self_times, Span, Tracer};
use nwade_perfbench::traced;
use nwade_perfbench::workloads::{prefix_hash, run_rep, Size, Workload};

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
    }
}

#[test]
fn self_time_subtracts_children_once() {
    let spans = vec![
        span("tick", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `a`: the covered interval counts once.
        span("b", 20, 40, Some(0)),
        span("c", 50, 60, Some(0)),
        // A grandchild is covered by its parent `c`, not by `tick`.
        span("d", 52, 58, Some(3)),
        span("late", 120, 125, None),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[0], ("tick", 100 - 30 - 10));
    assert_eq!(selfs[1], ("a", 20));
    assert_eq!(selfs[2], ("b", 20));
    assert_eq!(selfs[3], ("c", 10 - 6));
    assert_eq!(selfs[4], ("d", 6));
    assert_eq!(selfs[5], ("late", 5));
}

#[test]
fn self_time_clamps_children_to_the_parent() {
    let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
    assert_eq!(self_times(&spans)[0], ("p", 5));
}

#[test]
fn tracer_links_parents_and_totals_self_time() {
    let mut tracer = Tracer::new();
    tracer.span("outer", |t| {
        t.span("inner", |_| std::hint::black_box((0..1000).sum::<u64>()));
    });
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    let outer = spans[0].end - spans[0].start;
    let inner = spans[1].end - spans[1].start;
    assert!(inner <= outer);
    let selfs = tracer.self_time_ms();
    let total: f64 = selfs.values().sum();
    assert!(
        (total - outer as f64 / 1e6).abs() < 1e-9,
        "self times add up to the root"
    );
}

#[test]
fn quantile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.5), Some(50.0));
    assert_eq!(quantile(&v, 0.99), Some(99.0));
    assert_eq!(quantile(&[], 0.5), None);
}

fn smoke(workload: Workload) {
    let size = Size::SMOKE;
    let rep = run_rep(workload, 3, size);
    rep.outcome
        .check(workload)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(
        prefix_hash(workload, 3, size),
        rep.prefix_hash,
        "same inputs, same state"
    );
    let (e2e, _) = end_to_end(std::slice::from_ref(&rep), &[rep.setup_s]);
    assert!(e2e.iter().all(|m| m.value.is_finite() && m.value > 0.0));
    let layers = traced::run(workload, 3, size, &rep)
        .unwrap_or_else(|e| panic!("{} traced: {e}", workload.name()));
    let get = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} reported"))
            .value
    };
    assert_eq!(get("core.blocks"), rep.outcome.blocks as f64);
    assert!(get("im.window_ms.p50") > 0.0);
}

#[test]
fn organic_smoke() {
    smoke(Workload::Organic);
}

#[test]
fn saturated_smoke() {
    smoke(Workload::Saturated);
}

#[test]
fn city_attack_smoke() {
    smoke(Workload::CityAttack);
}
