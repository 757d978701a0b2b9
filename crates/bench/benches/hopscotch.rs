//! Criterion micro-benchmark: hopscotch hash set vs. `std::HashSet` vs.
//! binary search over a sorted array — the membership backends available
//! to the intersection kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lazymc_hopscotch::HopscotchSet;
use std::collections::HashSet;
use std::hint::black_box;

fn bench_contains(c: &mut Criterion) {
    let mut group = c.benchmark_group("membership");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(200));

    for &n in &[256usize, 4096, 65536] {
        let keys: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let probes: Vec<u32> = (0..1024u32)
            .map(|i| {
                if i % 2 == 0 {
                    keys[(i as usize * 37) % n] // hit
                } else {
                    i.wrapping_mul(97) | 1 // likely miss
                }
            })
            .collect();

        let hop: HopscotchSet = keys.iter().collect();
        let std_set: HashSet<u32> = keys.iter().copied().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();

        group.bench_with_input(BenchmarkId::new("hopscotch", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for &p in &probes {
                    hits += hop.contains(black_box(p)) as usize;
                }
                black_box(hits)
            })
        });
        group.bench_with_input(BenchmarkId::new("std_hashset", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for &p in &probes {
                    hits += std_set.contains(black_box(&p)) as usize;
                }
                black_box(hits)
            })
        });
        group.bench_with_input(BenchmarkId::new("binary_search", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for &p in &probes {
                    hits += sorted.binary_search(black_box(&p)).is_ok() as usize;
                }
                black_box(hits)
            })
        });
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(200));
    let keys: Vec<u32> = (0..4096u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    group.bench_function("hopscotch_4096", |b| {
        b.iter(|| {
            let s: HopscotchSet = black_box(&keys).iter().collect();
            black_box(s.len())
        })
    });
    group.bench_function("std_hashset_4096", |b| {
        b.iter(|| {
            let s: HashSet<u32> = black_box(&keys).iter().copied().collect();
            black_box(s.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_contains, bench_build);
criterion_main!(benches);
