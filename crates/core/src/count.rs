//! The per-shift map-based intersection kernel (paper §5.1–5.2), with
//! adaptive strategy dispatch.
//!
//! On each of the `√p` shifts a rank holds three blocks: its immobile
//! task block, the current hash-side operand (rows `A(a) ∩ {k ≡ w}`),
//! and the current probe-side operand (rows `A(b) ∩ {k ≡ w}`). For
//! every task `(a, b)` the kernel hashes row `a` (once per task row —
//! the map-reuse of [21]) and probes with row `b`; every hit is a
//! triangle `{b, a, k}` (⟨j,i,k⟩) counted exactly once grid-wide.
//!
//! ## Strategy dispatch
//!
//! The probe itself runs under one of three strategies
//! ([`crate::config::KernelStrategy`]): the paper's **hash** probe, a
//! vectorized sorted-**merge** ([`crate::intersect`]), or packed
//! **bitmap** rows for hubs ([`crate::bitmap`]). Dispatch is
//! per-row/per-task from stats the block build already provides (row
//! lengths, the map's direct/probing mode decision):
//!
//! - every row is still loaded into the map first, so the
//!   insert/row-mode counters are strategy-invariant;
//! - merge and bitmap only replace *direct-mode* probes — those cost
//!   zero probe steps each, so replacing them moves no deterministic
//!   counter; probing-mode (collision) rows always take the hash path;
//! - the lookups a fast path absorbs are credited to the map in bulk
//!   ([`crate::hashmap::IntersectMap::credit_lookups`]): under the
//!   reverse early break the legacy loop looks up exactly the probe
//!   entries `≥ min(hash row)` — an ascending-row suffix — and without
//!   it the whole probe row, so the count is computable without
//!   touching the table.
//!
//! Net effect: triangle counts, per-edge supports, and every legacy
//! deterministic counter are bit-identical across all strategies
//! (asserted by the `kernel_equivalence` suite), while skewed blocks
//! run measurably faster.

use crate::bitmap::BitRow;
use crate::blocks::{BlockView, SparseBlock};
use crate::config::{KernelStrategy, TcConfig};
use crate::intersect::{intersect_count, intersect_visit, KernelState};

/// Auto dispatch: a hash row this long (a hub) with enough tasks in
/// the row is worth materializing as a packed bit row.
const BITMAP_MIN_ROW: usize = 64;
/// Auto dispatch: minimum tasks per row to amortize a bitmap build.
const BITMAP_MIN_TASKS: usize = 4;
/// Auto dispatch: merge while the hash row is at most this many times
/// longer than the candidate suffix (merge walks both rows; the hash
/// probe walks only the candidates).
const MERGE_MAX_RATIO: usize = 4;
/// Auto dispatch: minimum candidate-suffix length before merge is
/// considered. Below this the vector path cannot fill its lanes and a
/// direct-map probe per candidate is cheaper than walking both rows.
const MERGE_MIN_CAND: usize = 16;

/// How one task row is served this shift.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RowPlan {
    /// Legacy hash probe for every task of the row.
    Hash,
    /// Vectorized merge for every task of the row.
    Merge,
    /// One packed bit row, probed by every task of the row.
    Bitmap,
    /// Merge vs hash per task, by the length-ratio heuristic.
    Adaptive,
}

/// Counts the triangles contributed by one shift.
///
/// The operands are [`BlockView`]s, so the kernel runs equally against
/// owned [`SparseBlock`]s and borrowed
/// [`crate::blocks::SparseBlockRef`] views of received blobs.
///
/// `tasks_counter` is incremented once per task that performs at least
/// one membership test this shift — the quantity Table 4 reports as
/// "tasks that result in the map-based set intersection operation"
/// (strategy-invariant: the fast paths count the tests they absorb).
pub fn count_shift<H: BlockView, P: BlockView>(
    task: &SparseBlock,
    hash_block: &H,
    probe_block: &P,
    ks: &mut KernelState,
    q: usize,
    cfg: &TcConfig,
    tasks_counter: &mut u64,
) -> u64 {
    count_shift_impl::<H, P, false>(
        task,
        hash_block,
        probe_block,
        ks,
        q,
        cfg,
        tasks_counter,
        |_, _| {},
    )
}

/// [`count_shift`] that additionally reports every individual
/// triangle: `record(entry_index, k)` fires once per hit, where
/// `entry_index` is the position of the task in the block's entry
/// array and `k` the triangle-closing vertex. Accumulated across
/// shifts this yields the per-edge triangle support that k-truss-style
/// analyses consume (one of the paper's §1 motivating applications).
#[allow(clippy::too_many_arguments)] // mirrors count_shift plus the sink
pub fn count_shift_recording<H: BlockView, P: BlockView>(
    task: &SparseBlock,
    hash_block: &H,
    probe_block: &P,
    ks: &mut KernelState,
    q: usize,
    cfg: &TcConfig,
    tasks_counter: &mut u64,
    record: impl FnMut(usize, u32),
) -> u64 {
    count_shift_impl::<H, P, true>(task, hash_block, probe_block, ks, q, cfg, tasks_counter, record)
}

#[allow(clippy::too_many_arguments)]
fn count_shift_impl<H: BlockView, P: BlockView, const RECORD: bool>(
    task: &SparseBlock,
    hash_block: &H,
    probe_block: &P,
    ks: &mut KernelState,
    q: usize,
    cfg: &TcConfig,
    tasks_counter: &mut u64,
    mut record: impl FnMut(usize, u32),
) -> u64 {
    // Operand buffers are swapped between shifts; a fresh shift must
    // never replay a row cached at a recycled address.
    ks.map.invalidate_row_cache();
    let stride = ks.map.stride();
    let mut found = 0u64;

    let mut run_row = |la: usize| {
        let trow = task.row(la);
        if trow.is_empty() {
            return;
        }
        let hrow = hash_block.row(la);
        ks.map.load_row(hrow, cfg.direct_hash);
        // Entries of the hash row are ascending; anything below the
        // smallest can never hit (the §5.2 early-break bound). An
        // empty hash row degenerates to "break immediately".
        let min_h = hrow.first().copied().unwrap_or(u32::MAX);
        let row_base = task.row_start(la);

        // Row plan: the fast strategies require the collision-free
        // direct mode (their counter-exactness guarantee); probing
        // rows and empty rows stay on the hash path under every
        // setting.
        let plan = if hrow.is_empty() || !ks.map.is_direct() {
            RowPlan::Hash
        } else {
            match cfg.kernel {
                KernelStrategy::Hash => RowPlan::Hash,
                KernelStrategy::Merge => RowPlan::Merge,
                KernelStrategy::Bitmap => RowPlan::Bitmap,
                KernelStrategy::Auto => {
                    if hrow.len() >= BITMAP_MIN_ROW
                        && trow.len() >= BITMAP_MIN_TASKS
                        && BitRow::dense_enough(hrow, stride)
                    {
                        RowPlan::Bitmap
                    } else {
                        RowPlan::Adaptive
                    }
                }
            }
        };
        if plan == RowPlan::Bitmap {
            ks.bitmap.build(hrow, stride);
            ks.stats.bitmap_rows += 1;
        }

        for (pos, &b) in trow.iter().enumerate() {
            let prow = probe_block.row(b as usize / q);

            // The candidate span: the probe entries the legacy loop
            // would actually look up. With the early break that is the
            // ascending suffix ≥ min_h; without it, the whole row. The
            // hash path re-derives it by breaking, and an adaptive
            // task over a row too short to ever qualify for merge can
            // only resolve to hash — both skip the search.
            let cand = if plan == RowPlan::Hash
                || (plan == RowPlan::Adaptive && prow.len() < MERGE_MIN_CAND)
            {
                prow
            } else if cfg.reverse_early_break {
                &prow[prow.partition_point(|&k| k < min_h)..]
            } else {
                prow
            };

            let tplan = match plan {
                RowPlan::Hash => RowPlan::Hash,
                RowPlan::Adaptive => {
                    if cand.len() >= MERGE_MIN_CAND && hrow.len() <= MERGE_MAX_RATIO * cand.len() {
                        RowPlan::Merge
                    } else {
                        RowPlan::Hash
                    }
                }
                fixed => fixed,
            };

            match tplan {
                RowPlan::Hash | RowPlan::Adaptive => {
                    // The paper's loop, verbatim: physical lookups.
                    let before = ks.map.stats.lookups;
                    if cfg.reverse_early_break {
                        for &k in prow.iter().rev() {
                            if k < min_h {
                                break;
                            }
                            if ks.map.contains(k) {
                                found += 1;
                                if RECORD {
                                    record(row_base + pos, k);
                                }
                            }
                        }
                    } else {
                        for &k in prow {
                            if ks.map.contains(k) {
                                found += 1;
                                if RECORD {
                                    record(row_base + pos, k);
                                }
                            }
                        }
                    }
                    let done = ks.map.stats.lookups - before;
                    if done > 0 {
                        *tasks_counter += 1;
                        ks.stats.hash_tasks += 1;
                        ks.stats.hash_lookups += done;
                    }
                }
                RowPlan::Merge => {
                    if cand.is_empty() {
                        continue;
                    }
                    ks.map.credit_lookups(cand.len() as u64);
                    *tasks_counter += 1;
                    ks.stats.merge_tasks += 1;
                    ks.stats.merge_lookups += cand.len() as u64;
                    found += if RECORD {
                        intersect_visit(hrow, cand, |k| record(row_base + pos, k))
                    } else {
                        intersect_count(hrow, cand)
                    };
                }
                RowPlan::Bitmap => {
                    if cand.is_empty() {
                        continue;
                    }
                    ks.map.credit_lookups(cand.len() as u64);
                    *tasks_counter += 1;
                    ks.stats.bitmap_tasks += 1;
                    ks.stats.bitmap_lookups += cand.len() as u64;
                    for &k in cand {
                        if ks.bitmap.contains(k, stride) {
                            found += 1;
                            if RECORD {
                                record(row_base + pos, k);
                            }
                        }
                    }
                }
            }
        }

        if plan == RowPlan::Bitmap {
            ks.bitmap.clear(hrow, stride);
        }
    };

    if cfg.doubly_sparse {
        for &la in task.nonempty_rows() {
            run_row(la as usize);
        }
    } else {
        for la in 0..task.num_rows() {
            run_row(la);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TcConfig;

    /// Builds a single-rank (q = 1) scenario: every class is class 0,
    /// local row id == vertex id.
    fn single_rank_blocks() -> (SparseBlock, SparseBlock, SparseBlock) {
        // Graph: triangle 0-1-2 plus edge 2-3. Upper adjacency:
        // A(0) = {1, 2}, A(1) = {2}, A(2) = {3}.
        let a_entries = vec![(0u32, 1u32), (0, 2), (1, 2), (2, 3)];
        let n = 4;
        let u_pairs = a_entries.clone();
        let ublock = SparseBlock::from_pairs(n, 1, u_pairs);
        let l_pairs = a_entries.clone();
        let lblock = SparseBlock::from_pairs(n, 1, l_pairs);
        // ⟨j,i,k⟩ tasks: one per edge, (a, b) = (larger, smaller).
        let t_pairs = vec![(1u32, 0u32), (2, 0), (2, 1), (3, 2)];
        let task = SparseBlock::from_pairs(n, 1, t_pairs);
        (task, ublock, lblock)
    }

    fn all_strategies() -> [KernelStrategy; 4] {
        [KernelStrategy::Auto, KernelStrategy::Hash, KernelStrategy::Merge, KernelStrategy::Bitmap]
    }

    #[test]
    fn counts_triangle_single_rank() {
        let (task, ub, lb) = single_rank_blocks();
        for base in [TcConfig::default(), TcConfig::unoptimized()] {
            for strategy in all_strategies() {
                let cfg = base.with_kernel(strategy);
                let mut ks = KernelState::new(ub.max_row_len(), 1);
                let mut tasks = 0u64;
                let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
                assert_eq!(c, 1, "{cfg:?}");
                assert!(tasks >= 1);
            }
        }
    }

    #[test]
    fn optimized_performs_fewer_lookups() {
        let (task, ub, lb) = single_rank_blocks();
        let run = |cfg: &TcConfig| {
            let mut ks = KernelState::new(ub.max_row_len(), 1);
            let mut tasks = 0u64;
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, cfg, &mut tasks);
            (c, ks.map.stats.lookups)
        };
        let (c_opt, l_opt) = run(&TcConfig::default());
        let (c_raw, l_raw) = run(&TcConfig::unoptimized());
        assert_eq!(c_opt, c_raw);
        assert!(l_opt <= l_raw, "optimized {l_opt} > raw {l_raw}");
    }

    #[test]
    fn empty_blocks_count_zero() {
        let task = SparseBlock::empty(3);
        let ub = SparseBlock::empty(3);
        let lb = SparseBlock::empty(3);
        let mut ks = KernelState::new(0, 1);
        let mut tasks = 0;
        let c = count_shift(&task, &ub, &lb, &mut ks, 1, &TcConfig::default(), &mut tasks);
        assert_eq!(c, 0);
        assert_eq!(tasks, 0);
    }

    #[test]
    fn early_break_skips_empty_hash_rows() {
        // Task row exists but its hash row is empty: with the early
        // break no lookups happen; without it every probe entry is
        // looked up (and misses). Empty hash rows are served by the
        // hash plan under every strategy, so the pinned counts hold
        // across all of them.
        let t_pairs = vec![(0u32, 1u32)];
        let task = SparseBlock::from_pairs(2, 1, t_pairs);
        let ub = SparseBlock::empty(2);
        let l_pairs = vec![(1u32, 5u32), (1, 6)];
        let lb = SparseBlock::from_pairs(2, 1, l_pairs);

        for strategy in all_strategies() {
            let mut ks = KernelState::new(4, 1);
            let mut tasks = 0;
            let cfg = TcConfig::default().with_kernel(strategy);
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
            assert_eq!((c, tasks, ks.map.stats.lookups), (0, 0, 0), "{strategy:?}");

            let mut ks = KernelState::new(4, 1);
            let mut tasks = 0;
            let cfg = cfg.with_reverse_early_break(false);
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
            assert_eq!(c, 0, "{strategy:?}");
            assert_eq!(tasks, 1, "{strategy:?}");
            assert_eq!(ks.map.stats.lookups, 2, "{strategy:?}");
        }
    }

    #[test]
    fn strategies_agree_on_counts_and_deterministic_counters() {
        let (task, ub, lb) = single_rank_blocks();
        let run = |strategy: KernelStrategy, early: bool| {
            let cfg = TcConfig::default().with_kernel(strategy).with_reverse_early_break(early);
            let mut ks = KernelState::new(ub.max_row_len(), 1);
            let mut tasks = 0u64;
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
            (c, tasks, ks.map.stats, ks.stats)
        };
        for early in [true, false] {
            let (c0, t0, m0, _) = run(KernelStrategy::Hash, early);
            for strategy in all_strategies() {
                let (c, t, m, k) = run(strategy, early);
                assert_eq!(c, c0, "{strategy:?} early={early}");
                assert_eq!(t, t0, "{strategy:?} early={early}");
                assert_eq!(m, m0, "{strategy:?} early={early}: MapStats drifted");
                // The strategy lookup tallies partition the legacy counter.
                assert_eq!(
                    k.hash_lookups + k.merge_lookups + k.bitmap_lookups,
                    m.lookups,
                    "{strategy:?} early={early}"
                );
                assert_eq!(
                    k.hash_tasks + k.merge_tasks + k.bitmap_tasks,
                    t,
                    "{strategy:?} early={early}"
                );
            }
        }
    }

    #[test]
    fn forced_bitmap_materializes_rows_and_matches() {
        // A hub row (vertex 0 adjacent to everything) so the bitmap
        // path really engages even at small scale when forced.
        let n = 40u32;
        let mut u_pairs: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        u_pairs.extend((1..n - 1).map(|v| (v, v + 1)));
        let l_pairs = u_pairs.clone();
        let t_pairs: Vec<(u32, u32)> = u_pairs.iter().map(|&(u, v)| (v, u)).collect();
        let ub = SparseBlock::from_pairs(n as usize, 1, u_pairs);
        let lb = SparseBlock::from_pairs(n as usize, 1, l_pairs);
        let task = SparseBlock::from_pairs(n as usize, 1, t_pairs);

        let run = |strategy: KernelStrategy| {
            let cfg = TcConfig::default().with_kernel(strategy);
            let mut ks = KernelState::new(ub.max_row_len(), 1);
            let mut tasks = 0u64;
            let c = count_shift(&task, &ub, &lb, &mut ks, 1, &cfg, &mut tasks);
            (c, tasks, ks.map.stats, ks.stats)
        };
        let (c_hash, t_hash, m_hash, k_hash) = run(KernelStrategy::Hash);
        let (c_bit, t_bit, m_bit, k_bit) = run(KernelStrategy::Bitmap);
        assert_eq!(c_bit, c_hash);
        assert_eq!(t_bit, t_hash);
        assert_eq!(m_bit, m_hash, "bitmap must not move the deterministic map stats");
        assert!(k_bit.bitmap_rows > 0, "forced bitmap must materialize rows");
        assert!(k_bit.bitmap_tasks > 0);
        assert!(
            k_bit.hash_lookups < k_hash.hash_lookups,
            "bitmap must absorb physical hash lookups: {} vs {}",
            k_bit.hash_lookups,
            k_hash.hash_lookups
        );
        assert_eq!(k_hash.bitmap_rows + k_hash.merge_tasks + k_hash.bitmap_tasks, 0);
    }
}
