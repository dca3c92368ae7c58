//! The 2D redistribution ships each upper entry twice (to its U cell
//! and its L cell) and builds the task block locally, because the task
//! cell always coincides with one of the two: under ⟨j,i,k⟩ the task
//! block is L transposed, under ⟨i,j,k⟩ it is U itself.
//!
//! These property tests pin that shortcut to the three-way routing it
//! replaced, which is rebuilt here from the public pieces
//! (`relabel_phase_from`, `Comm::alltoallv`, `SparseBlock::from_pairs`)
//! exactly as it used to run: every upper entry sent to U, to L and to
//! the task cell. For both enumerations and p ∈ {1, 4, 9, 16}:
//!
//! - the three blocks, `ops` and `max_hash_row` are equal;
//! - running the Cannon count on either preprocessing output records
//!   the same `ppt.ops` and the same deterministic `tct.*` counters
//!   (kernel tallies included) in a metrics session;
//! - the count and the per-edge supports equal the serial oracle.

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::collection::vec;
use proptest::prelude::*;
use tc_core::blocks::SparseBlock;
use tc_core::cannon::cannon_count;
use tc_core::preprocess::{preprocess_from, relabel_phase_from, PrepOutput};
use tc_core::{count_per_edge, BlockInput, CommPhase, Enumeration, RankMetrics, TcConfig};
use tc_graph::{truss, Csr, Cyclic2D, EdgeList};
use tc_metrics::{MetricValue, MetricsSession};
use tc_mps::{Comm, MpsResult, Universe, UniverseConfig};

/// Metrics sessions are process-global: cases must not overlap.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

/// The pre-change step 4: three alltoallv exchanges (U, L, task).
fn three_way_preprocess(comm: &Comm, csr: &Csr, cfg: &TcConfig) -> MpsResult<PrepOutput> {
    let n = csr.num_vertices();
    let p = comm.size();
    let q = tc_mps::perfect_square_side(p).expect("square grid");
    let grid = Cyclic2D::new(q);
    let relabeled = relabel_phase_from(comm, n, &BlockInput::Shared(csr))?;
    let mut ops = relabeled.ops;
    let mut u_sends: Vec<Vec<[u32; 2]>> = vec![Vec::new(); p];
    let mut l_sends: Vec<Vec<[u32; 2]>> = vec![Vec::new(); p];
    let mut t_sends: Vec<Vec<[u32; 2]>> = vec![Vec::new(); p];
    for &(nv, nk) in &relabeled.entries {
        ops += 1;
        let (vx, vy) = (nv as usize % q, nk as usize % q);
        u_sends[q * vx + vy].push([nv, nk]);
        l_sends[q * vy + vx].push([nv, nk]);
        let (a, b) = match cfg.enumeration {
            Enumeration::Jik => (nk, nv),
            Enumeration::Ijk => (nv, nk),
        };
        t_sends[q * (a as usize % q) + b as usize % q].push([a, b]);
    }
    let (x, y) = (comm.rank() / q, comm.rank() % q);
    let mut build = |sends: Vec<Vec<[u32; 2]>>, rows: usize| -> MpsResult<SparseBlock> {
        let pairs: Vec<(u32, u32)> =
            comm.alltoallv(sends)?.iter().flat_map(|m| m.iter()).map(|&[a, b]| (a, b)).collect();
        ops += pairs.len() as u64;
        Ok(SparseBlock::from_pairs(rows, q, pairs))
    };
    let ublock = build(u_sends, grid.class_count(n, x))?;
    let lblock = build(l_sends, grid.class_count(n, y))?;
    let task = build(t_sends, grid.class_count(n, x))?;
    let max_hash_row = comm.allreduce_max_u64(ublock.max_row_len() as u64)? as usize;
    Ok(PrepOutput {
        q,
        x,
        y,
        n,
        task,
        ublock,
        lblock,
        max_hash_row,
        ops,
        label_pairs: relabeled.label_pairs,
    })
}

/// The deterministic `tct.*` and `ppt.ops` values one rank recorded
/// (timings, whose names end in `_ns`, are left out).
type Counters = BTreeMap<String, MetricValue>;

/// Preprocesses with the shipped routing or the three-way reference
/// and counts, recording metrics the way the public driver does.
/// Returns each rank's preprocessing output (before the count), its
/// triangle count and its recorded counters.
fn run(
    el: &EdgeList,
    p: usize,
    cfg: &TcConfig,
    three_way: bool,
) -> Vec<(PrepSummary, u64, Counters)> {
    let _g = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let csr = Csr::from_edge_list(el);
    let session = MetricsSession::begin();
    let ucfg = UniverseConfig { metrics: Some(session.handle()), ..UniverseConfig::default() };
    let (outs, _) = Universe::try_run_config(p, &ucfg, |comm| {
        let mut metrics = RankMetrics::default();
        let phase = CommPhase::begin(comm, tc_trace::names::PHASE_PPT)?;
        let prep = if three_way {
            three_way_preprocess(comm, &csr, cfg)?
        } else {
            preprocess_from(comm, csr.num_vertices(), &BlockInput::Shared(&csr), cfg)?
        };
        metrics.finish_ppt(phase.finish()?, prep.ops);
        let summary = PrepSummary::of(&prep);
        let phase = CommPhase::begin(comm, tc_trace::names::PHASE_TCT)?;
        let out = cannon_count(comm, prep, cfg)?;
        metrics.finish_tct(phase.finish()?);
        metrics.record_kernel(&out.map_stats, &out.kernel_stats, out.tasks, out.local_triangles);
        metrics.record_shift_compute(out.shift_compute);
        Ok((summary, out.triangles))
    })
    .expect("run");
    let snap = session.finish();
    outs.into_iter()
        .enumerate()
        .map(|(rank, (summary, triangles))| {
            let counters = snap
                .rank(rank)
                .expect("rank registry")
                .iter()
                .filter(|(name, _)| {
                    (name.starts_with("tct.") || name.as_str() == "ppt.ops")
                        && !name.contains("_ns")
                })
                .map(|(name, v)| (name.clone(), v.clone()))
                .collect();
            (summary, triangles, counters)
        })
        .collect()
}

/// The comparable part of a [`PrepOutput`].
#[derive(Debug, PartialEq)]
struct PrepSummary {
    task: SparseBlock,
    ublock: SparseBlock,
    lblock: SparseBlock,
    max_hash_row: usize,
    ops: u64,
}

impl PrepSummary {
    fn of(prep: &PrepOutput) -> Self {
        Self {
            task: prep.task.clone(),
            ublock: prep.ublock.clone(),
            lblock: prep.lblock.clone(),
            max_hash_row: prep.max_hash_row,
            ops: prep.ops,
        }
    }
}

/// Arbitrary simple graphs of up to ~50 vertices.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..50).prop_flat_map(|n| {
        vec((0..n as u32, 0..n as u32), 0..160)
            .prop_map(move |edges| EdgeList::new(n, edges).simplify())
    })
}

fn check(el: &EdgeList, p: usize, enumeration: Enumeration) -> Result<(), TestCaseError> {
    let cfg = TcConfig::paper().with_enumeration(enumeration);
    let shipped = run(el, p, &cfg, false);
    let reference = run(el, p, &cfg, true);
    for (rank, (new, old)) in shipped.iter().zip(&reference).enumerate() {
        let at = format!("p={p} {enumeration:?} rank {rank}");
        prop_assert_eq!(&new.0, &old.0, "{}: preprocessing output", at);
        prop_assert_eq!(new.1, old.1, "{}: triangles", at);
        prop_assert_eq!(&new.2, &old.2, "{}: counters", at);
        prop_assert!(new.2.contains_key("tct.kernel.hash_lookups"), "{}: no kernel tallies", at);
    }

    let at = format!("p={p} {enumeration:?}");
    let serial = truss::edge_supports(el);
    let (r, supports) = count_per_edge(el, p, &cfg);
    prop_assert_eq!(r.triangles, serial.iter().sum::<u64>() / 3, "{}: count", at);
    prop_assert_eq!(shipped[0].1, r.triangles, "{}: count", at);
    prop_assert_eq!(supports.len(), el.num_edges(), "{}: supports", at);
    for (e, (&(u, v), &s)) in supports.iter().zip(el.edges.iter().zip(&serial)) {
        prop_assert_eq!((e.u, e.v, e.support), (u, v, s), "{}: support", at);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn jik_task_block_is_l_transposed(el in arb_graph()) {
        for p in [1usize, 4, 9, 16] {
            check(&el, p, Enumeration::Jik)?;
        }
    }

    #[test]
    fn ijk_task_block_is_u(el in arb_graph()) {
        for p in [1usize, 4, 9, 16] {
            check(&el, p, Enumeration::Ijk)?;
        }
    }
}

#[test]
fn fixed_rmat_graph_under_both_enumerations() {
    let el = tc_gen::graph500(9, 7).simplify();
    for enumeration in [Enumeration::Jik, Enumeration::Ijk] {
        for p in [4usize, 9] {
            check(&el, p, enumeration).expect("equivalent");
        }
    }
}
