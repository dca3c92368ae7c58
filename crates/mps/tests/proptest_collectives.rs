//! Property tests: every collective must agree with a sequential
//! reference computation for arbitrary inputs and rank counts.

use proptest::collection::vec;
use proptest::prelude::*;
use tc_mps::Universe;

/// Rank counts worth exercising: 1, primes, powers of two, squares.
fn rank_count() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 3, 4, 5, 7, 8, 9, 12, 16])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn allreduce_sum_matches_reference(p in rank_count(), data in vec(0u64..1 << 40, 1..17)) {
        let contributions: Vec<Vec<u64>> = (0..p)
            .map(|r| data.iter().map(|&x| x.rotate_left(r as u32)).collect())
            .collect();
        let expect: Vec<u64> = (0..data.len())
            .map(|i| contributions.iter().map(|c| c[i]).fold(0u64, u64::wrapping_add))
            .collect();
        let out = Universe::run(p, |c| {
            c.allreduce(&contributions[c.rank()], |a, b| *a = a.wrapping_add(*b)).unwrap()
        });
        for v in out {
            prop_assert_eq!(&v, &expect);
        }
    }

    #[test]
    fn allreduce_max_matches_reference(p in rank_count(), seed in any::<u64>()) {
        let vals: Vec<u64> = (0..p as u64).map(|r| seed.wrapping_mul(r + 1) >> 8).collect();
        let expect = *vals.iter().max().unwrap();
        let out = Universe::run(p, |c| c.allreduce_max_u64(vals[c.rank()]).unwrap());
        for v in out {
            prop_assert_eq!(v, expect);
        }
    }

    #[test]
    fn scan_matches_sequential_prefix(p in rank_count(), seed in any::<u32>()) {
        let vals: Vec<u64> = (0..p as u64).map(|r| (seed as u64).wrapping_mul(r + 3) % 997).collect();
        let out = Universe::run(p, |c| c.scan(&[vals[c.rank()]], |a, b| *a += *b).unwrap());
        let mut acc = 0u64;
        for (r, v) in out.iter().enumerate() {
            acc += vals[r];
            prop_assert_eq!(v[0], acc);
        }
    }

    #[test]
    fn exscan_shifts_scan(p in rank_count(), seed in any::<u32>()) {
        let vals: Vec<u64> = (0..p as u64).map(|r| (seed as u64 + r) % 1000).collect();
        let out = Universe::run(p, |c| c.exscan(&[vals[c.rank()]], 0, |a, b| *a += *b).unwrap());
        let mut acc = 0u64;
        for (r, v) in out.iter().enumerate() {
            prop_assert_eq!(v[0], acc);
            acc += vals[r];
        }
    }

    #[test]
    fn alltoallv_is_a_transpose(p in rank_count(), seed in any::<u64>()) {
        // sends[s][d] payload depends on (s, d); receiving side must see
        // the transposed arrangement.
        let out = Universe::run(p, |c| {
            let sends: Vec<Vec<u64>> = (0..p)
                .map(|d| {
                    let len = ((seed >> (d % 8)) % 5) as usize;
                    vec![(c.rank() as u64) << 32 | d as u64; len]
                })
                .collect();
            c.alltoallv(sends).unwrap()
        });
        for (d, recvd) in out.iter().enumerate() {
            for (s, part) in recvd.iter().enumerate() {
                let len = ((seed >> (d % 8)) % 5) as usize;
                prop_assert_eq!(part.len(), len);
                for &x in part.iter() {
                    prop_assert_eq!(x, (s as u64) << 32 | d as u64);
                }
            }
        }
    }

    #[test]
    fn gatherv_matches_allgatherv(p in rank_count(), root in 0usize..16) {
        let root = root % p;
        let out = Universe::run(p, |c| {
            let mine: Vec<u32> = (0..(c.rank() % 4) as u32).map(|i| i + c.rank() as u32).collect();
            let all = c.allgatherv(&mine).unwrap();
            let rooted = c.gatherv(root, &mine).unwrap();
            (all, rooted)
        });
        let reference = &out[0].0;
        for (r, (all, rooted)) in out.iter().enumerate() {
            prop_assert_eq!(all, reference);
            if r == root {
                prop_assert_eq!(rooted.as_ref().unwrap(), reference);
            } else {
                prop_assert!(rooted.is_none());
            }
        }
    }

    #[test]
    fn bcast_arbitrary_payload(p in rank_count(), payload in vec(any::<u64>(), 0..64), root in 0usize..16) {
        let root = root % p;
        let out = Universe::run(p, |c| {
            let data = if c.rank() == root { payload.clone() } else { Vec::new() };
            c.bcast(root, &data).unwrap()
        });
        for v in out {
            prop_assert_eq!(&v, &payload);
        }
    }
}
