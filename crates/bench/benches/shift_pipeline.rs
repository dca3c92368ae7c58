//! Shift-operand staging micro-benchmarks: what one Cannon shift step
//! pays to stage its operands.
//!
//! The synchronous schedule deserializes the received blob into an
//! owned [`SparseBlock`] and re-serializes it before forwarding
//! (`owned_roundtrip`); the zero-copy pipeline constructs a borrowed
//! [`SparseBlockRef`] over the wire bytes and forwards the refcounted
//! buffer verbatim (`borrowed_passthrough`). The gap between the two
//! is the per-shift staging cost the overlap pipeline removes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tc_core::blocks::{BlockView, SparseBlock, SparseBlockRef};

/// A block shaped like a shift operand: `rows` rows of ~4 entries.
fn sample_block(rows: usize) -> SparseBlock {
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(rows * 4);
    for r in 0..rows as u32 {
        for j in 0..4u32 {
            pairs.push((r, r.wrapping_mul(2654435761).wrapping_add(j * 97) % (4 * rows as u32)));
        }
    }
    SparseBlock::from_pairs(rows, 1, pairs)
}

/// Touches every row so the staging cost isn't optimized away and both
/// variants pay the same traversal.
fn touch<B: BlockView>(block: &B) -> u64 {
    let mut acc = 0u64;
    for lr in 0..block.num_rows() {
        if let Some(&k) = block.row(lr).first() {
            acc += k as u64;
        }
    }
    acc
}

fn bench_shift_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("shift_pipeline");
    for rows in [1_000usize, 100_000] {
        let blob = sample_block(rows).to_blob();

        // Synchronous schedule: deserialize to an owned block, use it,
        // re-serialize to forward.
        group.bench_function(format!("owned_roundtrip_rows{rows}"), |b| {
            b.iter(|| {
                let block = SparseBlock::from_blob(black_box(blob.clone()));
                let acc = touch(&block);
                (acc, block.to_blob().len())
            });
        });

        // Zero-copy pipeline: borrow a view of the wire bytes, forward
        // the refcounted buffer as-is.
        group.bench_function(format!("borrowed_passthrough_rows{rows}"), |b| {
            b.iter(|| {
                let view = SparseBlockRef::from_blob(black_box(&blob));
                let acc = touch(&view);
                (acc, blob.clone().len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shift_pipeline);
criterion_main!(benches);
