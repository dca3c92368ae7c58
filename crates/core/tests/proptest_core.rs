//! Property tests of the core building blocks: the intersection map
//! against a reference set, and the sparse block container against a
//! reference reconstruction.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;
use tc_core::blocks::SparseBlock;
use tc_core::hashmap::IntersectMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn intersect_map_matches_hashset(
        row in vec(0u32..10_000, 0..64),
        probes in vec(0u32..10_000, 0..64),
        q in 1usize..8,
        allow_direct in any::<bool>(),
    ) {
        // Deduplicate the row (operand rows never contain duplicates).
        let mut row: Vec<u32> = row;
        row.sort_unstable();
        row.dedup();
        let reference: HashSet<u32> = row.iter().copied().collect();
        let mut map = IntersectMap::new(row.len().max(1), q);
        map.load_row(&row, allow_direct);
        for &k in &probes {
            prop_assert_eq!(map.contains(k), reference.contains(&k), "key {}", k);
        }
        for &k in &row {
            prop_assert!(map.contains(k));
        }
    }

    #[test]
    fn intersect_map_reload_isolates_rows(
        row1 in vec(0u32..1000, 1..32),
        row2 in vec(1000u32..2000, 1..32),
    ) {
        let mut r1 = row1; r1.sort_unstable(); r1.dedup();
        let mut r2 = row2; r2.sort_unstable(); r2.dedup();
        let mut map = IntersectMap::new(r1.len().max(r2.len()), 1);
        map.load_row(&r1, true);
        map.load_row(&r2, true);
        for &k in &r1 {
            prop_assert!(!map.contains(k), "stale key {} survived reload", k);
        }
        for &k in &r2 {
            prop_assert!(map.contains(k));
        }
    }

    #[test]
    fn sparse_block_reconstructs_pairs(
        pairs in vec((0u32..64, 0u32..1000), 0..200),
        q in 1usize..6,
    ) {
        let num_rows = 64usize.div_ceil(q);
        let mut input: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(r, c)| ((r as usize / q * q + r as usize % q) as u32, c))
            .collect();
        // Rows must belong to one class: force class 0 by scaling.
        for p in input.iter_mut() {
            p.0 = (p.0 as usize / q * q) as u32 % (num_rows * q) as u32;
        }
        let expect: Vec<(u32, u32)> = {
            let mut v = input.clone();
            v.sort_unstable();
            v
        };
        let block = SparseBlock::from_pairs(num_rows, q, input);
        // Reconstruct (row, col) pairs from the block.
        let mut got = Vec::new();
        for lr in 0..block.num_rows() {
            for &c in block.row(lr) {
                got.push(((lr * q) as u32, c));
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, expect);
        // Non-empty index is exact.
        for lr in 0..block.num_rows() {
            let listed = block.nonempty_rows().contains(&(lr as u32));
            prop_assert_eq!(listed, !block.row(lr).is_empty(), "row {}", lr);
        }
        // Blob round trip.
        prop_assert_eq!(SparseBlock::from_blob(block.to_blob()), block);
    }
}
