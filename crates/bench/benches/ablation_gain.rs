//! Ablation A1 (§III.C): the paper's "current implementation" recomputes
//! every candidate gain after each insertion and notes that an
//! incremental algorithm "which only re-computes the gain of those
//! affected connections" would cut the cost. This bench times the
//! full-recompute scalar reference against the production path
//! (incremental gains on the 64-lane sweep engine); the selections are
//! identical (asserted here), so the gap is pure cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpi_core::tpgreed::{TpGreed, TpGreedConfig};
use tpi_workloads::{generate, suite};

fn bench_gain_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("tpgreed_gain_update");
    group.sample_size(10);
    let cfg = TpGreedConfig::default();
    for name in ["s5378", "dsip", "mult32a"] {
        let spec = suite().into_iter().find(|s| s.name == name).expect("suite circuit");
        let n = generate(&spec);
        // Equivalence guard: both must pick the same points.
        let (full, _) = TpGreed::new(&n, cfg.clone()).run_reference();
        let inc = TpGreed::new(&n, cfg.clone()).run();
        assert_eq!(full.test_points, inc.test_points, "{name}: reference diverged");
        assert_eq!(full.scan_paths, inc.scan_paths, "{name}: reference diverged");

        group.bench_with_input(BenchmarkId::new("reference", name), &n, |b, n| {
            b.iter(|| TpGreed::new(n, cfg.clone()).run_reference());
        });
        group.bench_with_input(BenchmarkId::new("production", name), &n, |b, n| {
            b.iter(|| TpGreed::new(n, cfg.clone()).run());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gain_update);
criterion_main!(benches);
