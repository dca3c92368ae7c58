//! Stress and soak tests of the message-passing substrate: message
//! storms, interleaved collectives, large payloads, and adversarial
//! orderings. These guard the properties the algorithms lean on —
//! FIFO per (source, tag), exact tag matching, and collective
//! isolation.

use tc_mps::{Universe, MAX_USER_TAG};

#[test]
fn message_storm_all_pairs() {
    // Every rank sends 200 messages to every rank (itself included),
    // interleaved tags; receivers drain in a different order.
    let p = 8;
    let per_pair = 200u32;
    let out = Universe::run(p, |c| {
        for dst in 0..p {
            for m in 0..per_pair {
                let tag = (m % 3) as u64;
                c.send_val::<u64>(dst, tag, ((c.rank() as u64) << 32) | m as u64);
            }
        }
        // Drain: per source, per tag, messages must arrive FIFO.
        let mut total = 0u64;
        for src in (0..p).rev() {
            for tag in 0..3u64 {
                let expect_count = per_pair / 3 + u32::from(per_pair % 3 > tag as u32);
                let mut last = None;
                for _ in 0..expect_count {
                    let v = c.recv_val::<u64>(src, tag).unwrap();
                    assert_eq!(v >> 32, src as u64);
                    let m = v & 0xffff_ffff;
                    assert_eq!(m % 3, tag, "tag mismatch");
                    if let Some(prev) = last {
                        assert!(m > prev, "FIFO violated within (src, tag)");
                    }
                    last = Some(m);
                    total += 1;
                }
            }
        }
        total
    });
    assert!(out.iter().all(|&t| t == (p as u64) * per_pair as u64));
}

#[test]
fn large_payload_integrity() {
    // 8 MiB per message, pattern-checked.
    let out = Universe::run(2, |c| {
        if c.rank() == 0 {
            let data: Vec<u64> = (0..1_000_000u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
            c.send(1, 1, &data);
            0u64
        } else {
            let got = c.recv::<u64>(0, 1).unwrap();
            got.as_slice()
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v != (i as u64).wrapping_mul(0x9e3779b9))
                .count() as u64
        }
    });
    assert_eq!(out[1], 0, "corrupted elements");
}

#[test]
fn interleaved_collective_sequences() {
    // 50 rounds of (alltoallv, allreduce, scan, barrier) with p2p
    // traffic woven through; sequence numbers must keep every round
    // isolated.
    let p = 6;
    let out = Universe::run(p, |c| {
        let mut acc = 0u64;
        for round in 0..50u64 {
            let next = (c.rank() + 1) % p;
            let prev = (c.rank() + p - 1) % p;
            c.send_val::<u64>(next, 99, round);
            let sends: Vec<Vec<u64>> = (0..p).map(|d| vec![round * 10 + d as u64]).collect();
            let got = c.alltoallv(sends).unwrap();
            for (src, v) in got.iter().enumerate() {
                assert_eq!(&v[..], &[round * 10 + c.rank() as u64], "round {round} src {src}");
            }
            let sum = c.allreduce_sum_u64(round).unwrap();
            assert_eq!(sum, round * p as u64);
            let scanned = c.scan(&[1u64], |a, b| *a += *b).unwrap();
            assert_eq!(scanned[0], c.rank() as u64 + 1);
            assert_eq!(c.recv_val::<u64>(prev, 99).unwrap(), round);
            c.barrier().unwrap();
            acc = acc.wrapping_add(sum);
        }
        acc
    });
    assert!(out.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn max_user_tag_boundary() {
    // Tags just below the reserved space must work.
    let out = Universe::run(2, |c| {
        let tag = MAX_USER_TAG - 1;
        if c.rank() == 0 {
            c.send_val::<u32>(1, tag, 7);
            0
        } else {
            c.recv_val::<u32>(0, tag).unwrap()
        }
    });
    assert_eq!(out[1], 7);
}

#[test]
fn empty_messages_everywhere() {
    let p = 5;
    Universe::run(p, |c| {
        let sends: Vec<Vec<u32>> = vec![Vec::new(); p];
        let got = c.alltoallv(sends).unwrap();
        assert!(got.iter().all(|v| v.is_empty()));
        for dst in 0..p {
            c.send::<u64>(dst, 5, &[]);
        }
        for src in 0..p {
            assert!(c.recv::<u64>(src, 5).unwrap().is_empty());
        }
        let g = c.allgatherv::<u32>(&[]).unwrap();
        assert!(g.iter().all(|v| v.is_empty()));
    });
}

#[test]
fn many_small_universes_in_sequence() {
    // Spawn/join leak check: run 100 universes back to back.
    for i in 0..100 {
        let out = Universe::run(3, |c| c.allreduce_sum_u64(i).unwrap());
        assert_eq!(out, vec![3 * i; 3]);
    }
}

#[test]
fn reduce_with_large_vectors() {
    let p = 7;
    let len = 10_000;
    let out = Universe::run(p, |c| {
        let mine: Vec<u64> = (0..len as u64).map(|i| i + c.rank() as u64).collect();
        c.allreduce(&mine, |a, b| *a += *b).unwrap()
    });
    let rank_sum: u64 = (0..p as u64).sum();
    for v in out {
        assert_eq!(v.len(), len);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i as u64) * p as u64 + rank_sum);
        }
    }
}

#[test]
fn grid_shift_storm() {
    use bytes::Bytes;
    use tc_mps::Grid;
    // 100 rounds of simultaneous left+up shifts on a 4x4 grid; the
    // payload tracks its visit history length.
    let out = Universe::run(16, |c| {
        let g = Grid::new(c);
        let mut a = Bytes::from(vec![c.rank() as u8]);
        let mut b = Bytes::from(vec![c.rank() as u8]);
        for _ in 0..100 {
            a = g.shift_left(a).unwrap();
            b = g.shift_up(b).unwrap();
        }
        (a[0] as usize, b[0] as usize)
    });
    for (r, (a, b)) in out.iter().enumerate() {
        let (row, col) = (r / 4, r % 4);
        // After 100 left shifts (100 % 4 == 0) blocks return home.
        assert_eq!(*a, row * 4 + col);
        assert_eq!(*b, row * 4 + col);
    }
}

#[test]
#[should_panic(expected = "terminated before sending")]
fn recv_from_finished_rank_panics_with_context() {
    Universe::run(2, |c| {
        if c.rank() == 0 {
            // Rank 1 exits without ever sending; this recv must fail
            // loudly rather than hang.
            c.recv_val::<u32>(1, 42).unwrap();
        }
    });
}

#[test]
#[should_panic(expected = "but universe has")]
fn send_to_invalid_rank_panics() {
    Universe::run(2, |c| {
        if c.rank() == 0 {
            c.send_val::<u32>(5, 1, 0);
        }
    });
}

#[test]
#[should_panic(expected = "expected exactly one element")]
fn recv_val_rejects_wrong_cardinality() {
    Universe::run(2, |c| {
        if c.rank() == 0 {
            c.send(1, 7, &[1u32, 2]);
        } else {
            let _ = c.recv_val::<u32>(0, 7);
        }
    });
}
