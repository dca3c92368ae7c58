//! Message-passing substrate micro-benchmarks: collective latency and
//! all-to-all throughput at the grid sizes the algorithm uses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tc_mps::Universe;

fn bench_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    group.sample_size(20);
    for p in [4usize, 16] {
        group.bench_function(format!("barrier_x100_p{p}"), |b| {
            b.iter(|| {
                Universe::run(p, |comm| {
                    for _ in 0..100 {
                        comm.barrier().unwrap();
                    }
                })
            });
        });
        group.bench_function(format!("allreduce_x100_p{p}"), |b| {
            b.iter(|| {
                Universe::run(p, |comm| {
                    let mut acc = comm.rank() as u64;
                    for _ in 0..100 {
                        acc = comm.allreduce_sum_u64(acc).unwrap() % 1_000_003;
                    }
                    acc
                })
            });
        });
    }
    group.finish();
}

fn bench_alltoallv(c: &mut Criterion) {
    let mut group = c.benchmark_group("alltoallv");
    group.sample_size(20);
    for (p, per_dest) in [(4usize, 10_000usize), (16, 2_500)] {
        group.bench_function(format!("p{p}_{per_dest}u32_each"), |b| {
            b.iter(|| {
                Universe::run(p, |comm| {
                    let sends: Vec<Vec<u32>> = (0..p).map(|d| vec![d as u32; per_dest]).collect();
                    let r = comm.alltoallv(black_box(sends)).unwrap();
                    r.iter().map(|v| v.len()).sum::<usize>()
                })
            });
        });
    }
    group.finish();
}

fn bench_spawn_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("universe_spawn");
    group.sample_size(20);
    for p in [4usize, 16, 64] {
        group.bench_function(format!("p{p}"), |b| {
            b.iter(|| Universe::run(p, |comm| comm.rank()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_barrier, bench_alltoallv, bench_spawn_overhead);
criterion_main!(benches);
