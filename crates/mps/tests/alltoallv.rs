//! `Comm::alltoallv` consumes its send buffers and returns views of the
//! received wire buffers. These tests pin the zero-copy contract on
//! both fabrics, for the element types the pipeline ships (`u32` rows,
//! `[u32; 2]` entries, `u64` words), and check that the debug-build
//! element-size stamp still reports a type mismatch across ranks.

use std::time::Duration;

use tc_mps::{Comm, MpsError, MpsResult, Pod, SocketConfig, Universe, UniverseConfig};

/// What one rank observed in a typed exchange.
#[derive(Debug)]
struct Seen {
    /// Every piece held the values its sender put there.
    values_ok: bool,
    /// Every non-empty piece from another rank was read in place.
    borrowed: bool,
    /// This rank's own piece is its send buffer, moved, not copied.
    own_moved: bool,
}

/// Exchanges `p` distinct buffers of `make(src, dst, i)` values and
/// reports what came back.
fn exchange<T: Pod + PartialEq>(
    c: &Comm,
    make: impl Fn(usize, usize, usize) -> T,
) -> MpsResult<Seen> {
    let (p, me) = (c.size(), c.rank());
    let sends: Vec<Vec<T>> =
        (0..p).map(|d| (0..64 + d).map(|i| make(me, d, i)).collect()).collect();
    let own_ptr = sends[me].as_ptr();
    let got = c.alltoallv(sends)?;
    let values_ok = got.iter().enumerate().all(|(s, piece)| {
        piece.len() == 64 + me && piece.iter().enumerate().all(|(i, v)| *v == make(s, me, i))
    });
    let borrowed = got.iter().enumerate().all(|(s, piece)| s == me || piece.is_borrowed());
    let own_moved = got[me].as_ptr() == own_ptr;
    Ok(Seen { values_ok, borrowed, own_moved })
}

/// The three payload shapes, one exchange each.
fn all_shapes(c: &Comm) -> MpsResult<[Seen; 3]> {
    Ok([
        exchange(c, |s, d, i| (s * 1000 + d * 100 + i) as u32)?,
        exchange(c, |s, d, i| [s as u32, (d * 1000 + i) as u32])?,
        exchange(c, |s, d, i| ((s as u64) << 40) | ((d as u64) << 20) | i as u64)?,
    ])
}

fn assert_zero_copy(rank: usize, seen: &[Seen; 3]) {
    for (shape, s) in ["u32", "[u32; 2]", "u64"].iter().zip(seen) {
        assert!(s.values_ok, "rank {rank} {shape}: wrong values");
        assert!(s.borrowed, "rank {rank} {shape}: a received piece was copied");
        assert!(s.own_moved, "rank {rank} {shape}: own piece was copied");
    }
}

#[test]
fn views_are_zero_copy_in_process() {
    for (rank, seen) in Universe::run(4, |c| all_shapes(c).unwrap()).iter().enumerate() {
        assert_zero_copy(rank, seen);
    }
}

#[test]
fn views_are_zero_copy_over_sockets() {
    let p = 4;
    let peers: Vec<String> = (0..p)
        .map(|r| {
            let name = format!("tca-{}-{r}.sock", std::process::id());
            std::env::temp_dir().join(name).to_string_lossy().into_owned()
        })
        .collect();
    let universe =
        UniverseConfig { recv_timeout: Some(Duration::from_secs(30)), ..UniverseConfig::default() };
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let cfg = SocketConfig {
                    universe: universe.clone(),
                    ..SocketConfig::new(rank, peers.clone())
                };
                s.spawn(move || Universe::try_run_socket(&cfg, all_shapes))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    });
    for (rank, res) in results.into_iter().enumerate() {
        let (seen, _stats) = res.unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        assert_zero_copy(rank, &seen);
    }
}

#[cfg(debug_assertions)]
#[test]
fn mismatched_element_size_is_reported() {
    // Same collective, different element types: the tags agree, so
    // only the debug-build payload stamp can catch this.
    let err = Universe::try_run(2, |c| {
        if c.rank() == 0 {
            Ok(c.alltoallv(vec![vec![1u32]; 2])?.len())
        } else {
            Ok(c.alltoallv(vec![vec![1u64]; 2])?.len())
        }
    })
    .unwrap_err();
    match err {
        MpsError::CollectiveMismatch { expected, got, .. } => {
            assert!(expected.contains("alltoallv"), "{expected}");
            let sizes = format!("{expected} / {got}");
            assert!(sizes.contains("4-byte") && sizes.contains("8-byte"), "{sizes}");
        }
        other => panic!("expected CollectiveMismatch, got {other}"),
    }
}
