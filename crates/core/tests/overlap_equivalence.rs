//! The overlapped operand pipeline against the serial oracles.
//!
//! Cannon and SUMMA count with one schedule: post shift z+1, compute
//! shift z against borrowed operands, forward the received blobs
//! verbatim. Whatever the rank count or grid shape, that schedule must
//! agree with the serial algorithms: the triangle count equals
//! `tc_baselines::serial::count_default`, the per-rank local counts sum
//! to it, and the per-edge supports equal `tc_graph::truss::edge_supports`
//! edge for edge. Operands are serialized only at the skew, so a
//! single-rank run serializes nothing.

use std::sync::Mutex;

use proptest::prelude::*;
use tc_baselines::serial::count_default;
use tc_core::{
    try_count_per_edge, try_count_triangles, try_count_triangles_observed,
    try_count_triangles_summa, SummaGrid, TcConfig,
};
use tc_gen::er::gnm;
use tc_gen::{rmat, RmatParams};
use tc_graph::truss::edge_supports;
use tc_graph::EdgeList;
use tc_mps::Observe;

/// The metrics recording gate is process-global; tests that open a
/// session must not overlap.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn mlock() -> std::sync::MutexGuard<'static, ()> {
    METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs Cannon on `el` at `p` ranks and asserts the total and the
/// per-rank local counts match the serial count.
fn assert_matches_serial(el: &EdgeList, p: usize) {
    let expected = count_default(el);
    let r = try_count_triangles(el, p, &TcConfig::paper()).expect("2d run");
    assert_eq!(r.triangles, expected, "p={p}: triangles");
    let local: u64 = r.ranks.iter().map(|rank| rank.local_triangles).sum();
    assert_eq!(local, expected, "p={p}: per-rank local counts");
}

/// Runs the per-edge path on `el` at `p` ranks and asserts its supports
/// equal the serial supports, edge for edge and in edge-list order.
fn assert_supports_match_serial(el: &EdgeList, p: usize) -> Result<(), TestCaseError> {
    let (r, sup) = try_count_per_edge(el, p, &TcConfig::paper()).expect("per-edge run");
    prop_assert_eq!(r.triangles, count_default(el), "p={}: triangles", p);
    let serial = edge_supports(el);
    prop_assert_eq!(sup.len(), el.num_edges(), "p={}: support count", p);
    for (e, (&(u, v), &s)) in sup.iter().zip(el.edges.iter().zip(&serial)) {
        prop_assert_eq!((e.u, e.v), (u, v), "p={}: edge order", p);
        prop_assert_eq!(e.support, s, "p={}: support of ({}, {})", p, u, v);
    }
    Ok(())
}

#[test]
fn schedules_agree_on_rmat() {
    let el = rmat(8, 6, RmatParams::GRAPH500, 7).simplify();
    for p in [1usize, 4, 9, 16] {
        assert_matches_serial(&el, p);
    }
}

#[test]
fn schedules_agree_on_erdos_renyi() {
    let el = gnm(300, 1800, 21).simplify();
    for p in [1usize, 4, 9, 16] {
        assert_matches_serial(&el, p);
    }
}

#[test]
fn schedules_agree_per_edge() {
    // The per-edge path exercises count_shift_recording plus the
    // credit exchange on top of the pipeline.
    let el = rmat(8, 5, RmatParams::GRAPH500, 33).simplify();
    for p in [1usize, 4, 9, 16] {
        assert_supports_match_serial(&el, p).unwrap();
    }
}

#[test]
fn schedules_agree_on_summa() {
    let el = rmat(8, 6, RmatParams::GRAPH500, 11).simplify();
    let expected = count_default(&el);
    for (pr, pc) in [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2)] {
        let grid = SummaGrid::new(pr, pc);
        let r = try_count_triangles_summa(&el, grid, &TcConfig::paper()).expect("summa run");
        assert_eq!(r.triangles, expected, "{pr}x{pc}: triangles");
    }
}

/// Serialized operand bytes of one metered 2D run, summed over ranks.
fn serialized_bytes(el: &EdgeList, p: usize) -> u64 {
    let session = tc_metrics::MetricsSession::begin();
    let handle = session.handle();
    let obs = Observe { metrics: Some(&handle), ..Observe::none() };
    try_count_triangles_observed(el, p, &TcConfig::paper(), obs).expect("run");
    let snap = session.finish();
    (0..p)
        .map(|rank| snap.counter(rank, tc_metrics::names::SHIFT_BYTES_SERIALIZED).unwrap_or(0))
        .sum()
}

#[test]
fn single_rank_serializes_nothing() {
    let _g = mlock();
    let el = rmat(7, 4, RmatParams::GRAPH500, 3).simplify();
    assert_eq!(serialized_bytes(&el, 1), 0, "q=1 moves no operands and must serialize none");
    // With q > 1 the skew serializes each operand once; the shifts
    // forward those buffers without serializing again.
    assert!(serialized_bytes(&el, 4) > 0, "p=4: the skew serializes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small RMAT and Erdős–Rényi graphs at every square rank
    /// count up to 16, plus a SUMMA grid: the Cannon count, the SUMMA
    /// count and the per-edge supports all equal the serial oracles.
    #[test]
    fn schedules_agree_on_random_graphs(
        scale in 5u32..8,
        factor in 2usize..6,
        seed in 0u64..1_000,
        p_idx in 0usize..4,
        grid_idx in 0usize..5,
        use_er in any::<bool>(),
    ) {
        let p = [1usize, 4, 9, 16][p_idx];
        let el = if use_er {
            let n = 1usize << scale;
            gnm(n, n * factor, seed).simplify()
        } else {
            rmat(scale, factor, RmatParams::GRAPH500, seed).simplify()
        };
        let cfg = TcConfig::paper();
        let triangles = count_default(&el);
        let r = try_count_triangles(&el, p, &cfg).expect("2d run");
        prop_assert_eq!(r.triangles, triangles);

        let (pr, pc) = [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2)][grid_idx];
        let s = try_count_triangles_summa(&el, SummaGrid::new(pr, pc), &cfg).expect("summa run");
        prop_assert_eq!(s.triangles, triangles);

        assert_supports_match_serial(&el, p)?;
    }
}
