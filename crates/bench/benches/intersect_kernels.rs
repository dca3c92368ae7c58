//! Adaptive intersection-kernel micro-benchmarks: the per-shift kernel
//! under each [`tc_core::KernelStrategy`] across a density × skew
//! sweep, against both owned [`SparseBlock`]s and borrowed
//! [`SparseBlockRef`] views (the zero-copy pipeline's operand form),
//! plus the raw merge primitive against its scalar fallback.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tc_core::blocks::{BlockView, SparseBlock, SparseBlockRef};
use tc_core::count::count_shift;
use tc_core::intersect::{intersect_count, intersect_count_scalar, KernelState};
use tc_core::{KernelStrategy, TcConfig};
use tc_gen::{er::gnm, graph500};
use tc_graph::EdgeList;

/// Single-rank (q = 1) block set from an edge list: one `(a, b)` task
/// per edge, upper adjacency as both operands (kernel_edge_cases'
/// harness shape).
fn blocks_of(el: &EdgeList) -> (SparseBlock, SparseBlock, SparseBlock) {
    let n = el.num_vertices.max(1);
    let u_pairs = el.edges.clone();
    let p_pairs = el.edges.clone();
    let t_pairs: Vec<(u32, u32)> = el.edges.iter().map(|&(u, v)| (v, u)).collect();
    (
        SparseBlock::from_pairs(n, 1, t_pairs),
        SparseBlock::from_pairs(n, 1, u_pairs),
        SparseBlock::from_pairs(n, 1, p_pairs),
    )
}

const STRATEGIES: [(&str, KernelStrategy); 4] = [
    ("auto", KernelStrategy::Auto),
    ("hash", KernelStrategy::Hash),
    ("merge", KernelStrategy::Merge),
    ("bitmap", KernelStrategy::Bitmap),
];

fn bench_strategies(c: &mut Criterion) {
    // Skew sweep: RMAT (heavy hubs) vs Erdős–Rényi (uniform degrees)
    // at sparse and dense edge factors.
    let cases: Vec<(&str, EdgeList)> = vec![
        ("rmat_s9", graph500(9, 42).simplify()),
        ("er_sparse", gnm(512, 2048, 42)),
        ("er_dense", gnm(512, 16384, 42)),
    ];
    for (name, el) in &cases {
        let (task, ub, pb) = blocks_of(el);
        let mut group = c.benchmark_group(format!("count_shift_{name}"));
        for (sname, strategy) in STRATEGIES {
            let cfg = TcConfig::default().with_kernel(strategy);
            group.bench_function(format!("owned_{sname}"), |b| {
                let mut ks = KernelState::new(ub.max_row_len(), 1);
                b.iter(|| {
                    let mut tasks = 0u64;
                    count_shift(black_box(&task), &ub, &pb, &mut ks, 1, &cfg, &mut tasks)
                });
            });
            // Borrowed views of wire bytes: the steady-state operand
            // form of the overlapped pipeline.
            let (ub_blob, pb_blob) = (ub.to_blob(), pb.to_blob());
            group.bench_function(format!("borrowed_{sname}"), |b| {
                let hash = SparseBlockRef::from_blob(&ub_blob);
                let probe = SparseBlockRef::from_blob(&pb_blob);
                let mut ks = KernelState::new(hash.max_row_len(), 1);
                b.iter(|| {
                    let mut tasks = 0u64;
                    count_shift(black_box(&task), &hash, &probe, &mut ks, 1, &cfg, &mut tasks)
                });
            });
        }
        group.finish();
    }
}

fn bench_merge_primitive(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_primitive");
    for (dname, gap) in [("dense", 2u32), ("sparse", 17)] {
        for len in [16usize, 128, 1024] {
            let a: Vec<u32> = (0..len as u32).map(|i| i * gap).collect();
            let b: Vec<u32> = (0..len as u32).map(|i| i * gap + gap / 2 + (i & 1)).collect();
            group.bench_function(format!("simd_{dname}_len{len}"), |bch| {
                bch.iter(|| intersect_count(black_box(&a), black_box(&b)));
            });
            group.bench_function(format!("scalar_{dname}_len{len}"), |bch| {
                bch.iter(|| intersect_count_scalar(black_box(&a), black_box(&b)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_merge_primitive);
criterion_main!(benches);
