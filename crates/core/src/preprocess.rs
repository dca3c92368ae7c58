//! The distributed preprocessing phase (paper §5.3).
//!
//! Starting from the assumed input state — "the graph is initially
//! stored using a 1D distribution, in which each processor has n/p
//! vertices and its associated adjacency lists" — each rank performs:
//!
//! 1. **Initial cyclic redistribution**: vertices move to rank
//!    `v % p`, breaking up localized dense regions.
//! 2. **Degree ordering via distributed counting sort**: global max
//!    degree (allreduce), per-degree histogram, vector exclusive scan
//!    for cross-rank positions (the `dmax·log p` term of §5.4), local
//!    placement; then a push-based all-to-all that delivers
//!    `old → new` labels to every rank holding the vertex in an
//!    adjacency list.
//! 3. **U/L split**: with degree = label order, the split is a local
//!    label comparison per adjacency entry.
//! 4. **2D cyclic redistribution**: each upper entry `(v, k)` is sent
//!    to the owners of its `U` block and its `L` block on the
//!    `√p × √p` grid. The task block lives in one of those two cells
//!    and is built locally from the block received there.
//!
//! The initial Cannon *skew* is deliberately **not** done here — the
//! paper counts it in the triangle-counting phase (§5.1 "the initial
//! shifts of Cannon's algorithm"), and `cannon.rs` performs it.

use std::collections::HashMap;

use tc_graph::{Block1D, Csr, Cyclic1D, Cyclic2D};
use tc_mps::{Comm, MpsResult, PodArray};

use crate::blocks::SparseBlock;
use crate::config::{Enumeration, TcConfig};

/// Everything the counting phase needs, as produced on one rank.
#[derive(Debug)]
pub struct PrepOutput {
    /// Grid side `√p`.
    pub q: usize,
    /// This rank's grid row.
    pub x: usize,
    /// This rank's grid column.
    pub y: usize,
    /// Global vertex count.
    pub n: usize,
    /// Task block `C[L](x, y)` (or `C[U]` under ⟨i,j,k⟩): rows are the
    /// hash-side vertices (class `x`), columns the probe-side vertices
    /// (class `y`). One entry per graph edge, grid-wide.
    pub task: SparseBlock,
    /// Operand block `U(x, y)` — *unskewed*; `cannon` aligns it.
    pub ublock: SparseBlock,
    /// Operand block `L` holding entries `(k ≡ x, v ≡ y)` stored by
    /// probe vertex `v` — unskewed.
    pub lblock: SparseBlock,
    /// Global maximum operand-row length (sizes the intersection map).
    pub max_hash_row: usize,
    /// Preprocessing operation count (adjacency entries processed).
    pub ops: u64,
    /// `(old, new)` labels of this rank's cyclic-owned vertices
    /// (needed to translate per-edge results back to input ids).
    pub label_pairs: Vec<(u32, u32)>,
}

/// Result of the grid-agnostic front half of preprocessing (steps
/// 1–3): this rank's share of the *relabeled upper* adjacency entries.
#[derive(Debug)]
pub struct RelabeledEntries {
    /// Upper entries `(v, k)` with `v < k` in degree-order labels;
    /// across all ranks each graph edge appears exactly once.
    pub entries: Vec<(u32, u32)>,
    /// `(old, new)` labels of this rank's cyclic-owned vertices.
    pub label_pairs: Vec<(u32, u32)>,
    /// Operation count so far.
    pub ops: u64,
}

/// A rank's share of the input graph under the assumed 1D block
/// distribution: either a window into a shared pre-placed structure,
/// or rows that physically arrived at runtime (e.g. scattered from a
/// root rank that loaded the graph).
#[derive(Debug)]
pub enum BlockInput<'a> {
    /// Window into the shared immutable input CSR.
    Shared(&'a Csr),
    /// Materialized rows of the block `[lo, hi)`: `xadj` is local
    /// (length `hi - lo + 1`), `adj` the concatenated neighbours.
    Owned {
        /// First owned vertex.
        lo: u32,
        /// Local row pointers.
        xadj: Vec<u32>,
        /// Concatenated adjacency.
        adj: Vec<u32>,
    },
}

impl BlockInput<'_> {
    /// Adjacency of owned vertex `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        match self {
            BlockInput::Shared(csr) => csr.neighbors(v),
            BlockInput::Owned { lo, xadj, adj } => {
                let i = (v - lo) as usize;
                &adj[xadj[i] as usize..xadj[i + 1] as usize]
            }
        }
    }
}

/// Cyclic-local adjacency read in place from the step-1 messages:
/// local vertex `i` has its `[v, deg, row...]` record at word offset
/// `at[i].1` of message `at[i].0`.
struct ReceivedRows {
    msgs: Vec<PodArray<u32>>,
    at: Vec<(u32, u32)>,
}

impl ReceivedRows {
    /// Neighbours of local vertex `i`.
    fn row(&self, i: usize) -> &[u32] {
        let (src, off) = self.at[i];
        let (msg, off) = (&self.msgs[src as usize], off as usize);
        &msg[off + 2..off + 2 + msg[off + 1] as usize]
    }

    /// All local rows, in local-index order.
    fn rows(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.at.len()).map(|i| self.row(i))
    }
}

/// Calls `emit(i, dst)` once per local vertex `i` and rank `dst` that
/// owns one of its neighbours: the destinations of `i`'s label push.
fn for_each_label_dest(adj: &ReceivedRows, cyc: &Cyclic1D, mut emit: impl FnMut(usize, usize)) {
    let mut dest_stamp = vec![u32::MAX; cyc.p];
    for (i, a) in adj.rows().enumerate() {
        for &w in a {
            let dst = cyc.owner(w);
            if dest_stamp[dst] != i as u32 {
                dest_stamp[dst] = i as u32;
                emit(i, dst);
            }
        }
    }
}

/// Bytes held by a set of send buffers (their capacity, not length).
pub(crate) fn staged_bytes<T>(sends: &[Vec<T>]) -> u64 {
    sends.iter().map(|s| (s.capacity() * std::mem::size_of::<T>()) as u64).sum()
}

/// Steps 1–3 of §5.3 — initial cyclic redistribution, distributed
/// counting-sort relabeling, and the label push — shared by the Cannon
/// (square-grid) and SUMMA (rectangular-grid) back halves.
pub fn relabel_phase(comm: &Comm, global: &Csr) -> MpsResult<RelabeledEntries> {
    relabel_phase_from(comm, global.num_vertices(), &BlockInput::Shared(global))
}

/// [`relabel_phase`] over an explicit per-rank input source.
pub fn relabel_phase_from(
    comm: &Comm,
    n: usize,
    input: &BlockInput<'_>,
) -> MpsResult<RelabeledEntries> {
    let p = comm.size();
    let rank = comm.rank();
    let block = Block1D::new(n, p);
    let cyc = Cyclic1D::new(n, p);
    let mut ops: u64 = 0;

    // -- Step 1: initial cyclic redistribution --------------------------
    // Wire format per destination: repeated [v, deg, neighbors...].
    let redist_span = tc_trace::span(tc_trace::names::PREP_REDIST, tc_trace::Category::Phase);
    let (lo, hi) = block.range(rank);
    let mut words = vec![0usize; p];
    for v in lo..hi {
        words[cyc.owner(v as u32)] += 2 + input.neighbors(v as u32).len();
    }
    let mut sends: Vec<Vec<u32>> = words.iter().map(|&w| Vec::with_capacity(w)).collect();
    for v in lo..hi {
        let row = input.neighbors(v as u32);
        let buf = &mut sends[cyc.owner(v as u32)];
        buf.push(v as u32);
        buf.push(row.len() as u32);
        buf.extend_from_slice(row);
        ops += row.len() as u64 + 1;
    }
    let staged = staged_bytes(&sends);
    let prep_mem = tc_metrics::MemScope::track(tc_metrics::names::MEM_PREP_STAGING, staged);
    let received = comm.alltoallv(sends)?;
    drop(prep_mem);

    // Index the cyclic-local rows (by v ÷ p) where they arrived.
    let local_cnt = cyc.count(rank);
    let mut at = vec![(0u32, 0u32); local_cnt];
    let mut adj_entries = 0u64;
    for (src, msg) in received.iter().enumerate() {
        let mut i = 0usize;
        while i < msg.len() {
            let v = msg[i];
            let deg = msg[i + 1] as usize;
            debug_assert_eq!(cyc.owner(v), rank);
            at[cyc.local(v)] = (src as u32, i as u32);
            adj_entries += deg as u64;
            i += 2 + deg;
        }
    }
    ops += adj_entries;
    let adj = ReceivedRows { msgs: received, at };
    drop(redist_span);

    // -- Step 2: distributed counting sort ------------------------------
    let sort_span = tc_trace::span(tc_trace::names::PREP_SORT, tc_trace::Category::Phase);
    let local_dmax = adj.rows().map(|a| a.len() as u64).max().unwrap_or(0);
    let dmax = comm.allreduce_max_u64(local_dmax)? as usize;
    let mut hist = vec![0u64; dmax + 1];
    for a in adj.rows() {
        hist[a.len()] += 1;
    }
    ops += local_cnt as u64;
    // Cross-rank offsets within each degree bucket, then global bucket
    // starts (the dmax-long prefix data of §5.4).
    let before_me = comm.exscan(&hist, 0u64, |a, b| *a += *b)?;
    let totals = comm.allreduce(&hist, |a, b| *a += *b)?;
    let mut start = vec![0u64; dmax + 2];
    for d in 0..=dmax {
        start[d + 1] = start[d] + totals[d];
    }
    ops += dmax as u64;
    let mut seen = vec![0u64; dmax + 1];
    let mut new_label = vec![0u32; local_cnt];
    for (i, a) in adj.rows().enumerate() {
        let d = a.len();
        new_label[i] = (start[d] + before_me[d] + seen[d]) as u32;
        seen[d] += 1;
    }
    drop(seen);
    drop(sort_span);

    let label_span = tc_trace::span(tc_trace::names::PREP_LABELS, tc_trace::Category::Phase);
    // -- Step 2b: push old→new labels to every rank that references us --
    // Owner of u knows Adj(u); by symmetry each rank holding u in one
    // of its lists owns some w ∈ Adj(u), so pushing (u_old, u_new) to
    // the owners of u's neighbours covers exactly the demand set.
    let mut counts = vec![0usize; p];
    for_each_label_dest(&adj, &cyc, |_, dst| counts[dst] += 1);
    let mut label_sends: Vec<Vec<[u32; 2]>> = counts.into_iter().map(Vec::with_capacity).collect();
    for_each_label_dest(&adj, &cyc, |i, dst| {
        label_sends[dst].push([cyc.global(rank, i), new_label[i]]);
    });
    ops += adj_entries;
    let label_msgs = comm.alltoallv(label_sends)?;
    let mut old_to_new: HashMap<u32, u32> =
        HashMap::with_capacity(label_msgs.iter().map(|m| m.len()).sum());
    for msg in &label_msgs {
        for &[o, nl] in msg.iter() {
            old_to_new.insert(o, nl);
        }
    }
    drop(label_msgs);

    // -- Step 3b: U/L split in new labels -------------------------------
    // Translate every neighbour once into one exactly sized array, then
    // free the received rows and the label map. Each upper entry
    // (v, k), v < k, is emitted exactly once grid-wide (the owner of the
    // smaller-label endpoint emits); a counting pass sizes `entries`.
    let degs: Vec<u32> = adj.rows().map(|a| a.len() as u32).collect();
    let mut nbr_new = Vec::with_capacity(adj_entries as usize);
    for a in adj.rows() {
        nbr_new.extend(a.iter().map(|w| {
            *old_to_new
                .get(w)
                .unwrap_or_else(|| panic!("rank {rank}: no relabel entry for neighbour {w}"))
        }));
    }
    ops += adj_entries;
    drop((adj, old_to_new));
    let upper_rows = || {
        degs.iter().enumerate().scan(0usize, |at, (i, &d)| {
            let row = &nbr_new[*at..*at + d as usize];
            *at += d as usize;
            let nv = new_label[i];
            Some(row.iter().filter(move |&&nk| nv < nk).map(move |&nk| (nv, nk)))
        })
    };
    let mut entries = Vec::with_capacity(upper_rows().map(Iterator::count).sum());
    upper_rows().for_each(|row| entries.extend(row));
    let label_pairs: Vec<(u32, u32)> =
        (0..local_cnt).map(|i| (cyc.global(rank, i), new_label[i])).collect();
    drop(label_span);
    Ok(RelabeledEntries { entries, label_pairs, ops })
}

/// Buckets upper entries `(v, k)` into one send buffer per rank,
/// `dest(v, k)` naming the rank. A counting pass first allocates every
/// buffer once at its final size.
pub(crate) fn route_entries(
    p: usize,
    entries: &[(u32, u32)],
    dest: impl Fn(u32, u32) -> usize,
) -> Vec<Vec<[u32; 2]>> {
    let mut counts = vec![0usize; p];
    for &(v, k) in entries {
        counts[dest(v, k)] += 1;
    }
    let mut sends: Vec<Vec<[u32; 2]>> = counts.into_iter().map(Vec::with_capacity).collect();
    for &(v, k) in entries {
        sends[dest(v, k)].push([v, k]);
    }
    sends
}

/// Exchanges routed `[row, col]` entries and builds this rank's block
/// straight from the received message views.
fn exchange_block(
    comm: &Comm,
    sends: Vec<Vec<[u32; 2]>>,
    num_rows: usize,
    q: usize,
) -> MpsResult<SparseBlock> {
    let staged = staged_bytes(&sends);
    let prep_mem = tc_metrics::MemScope::track(tc_metrics::names::MEM_PREP_STAGING, staged);
    let recv = comm.alltoallv(sends)?;
    drop(prep_mem);
    let entries = recv.iter().flat_map(|m| m.iter()).map(|&[r, c]| (r, c));
    Ok(SparseBlock::from_entries(num_rows, q, entries))
}

/// Runs the full Cannon-grid preprocessing pipeline on this rank.
///
/// `global` is the shared, immutable input graph; the rank only reads
/// the rows of its own 1D block (simulating the pre-placed input), and
/// all cross-rank data flow goes through `comm`.
pub fn preprocess(comm: &Comm, global: &Csr, cfg: &TcConfig) -> MpsResult<PrepOutput> {
    preprocess_from(comm, global.num_vertices(), &BlockInput::Shared(global), cfg)
}

/// [`preprocess`] over an explicit per-rank input source.
pub fn preprocess_from(
    comm: &Comm,
    n: usize,
    input: &BlockInput<'_>,
    cfg: &TcConfig,
) -> MpsResult<PrepOutput> {
    let p = comm.size();
    let q = tc_mps::perfect_square_side(p).expect("rank count must be a perfect square");
    let grid2d = Cyclic2D::new(q);
    let relabeled = relabel_phase_from(comm, n, input)?;
    let mut ops = relabeled.ops;
    let label_pairs = relabeled.label_pairs;

    let twod_span = tc_trace::span(tc_trace::names::PREP_2D, tc_trace::Category::Phase);
    // -- Step 4: 2D cyclic redistribution -------------------------------
    // Each upper entry (v, k) is needed in three grid cells:
    //   U block U(v%q, k%q)        at P(v%q, k%q)
    //   L block L(k%q, v%q)        at P(k%q, v%q)  (stored by column v)
    //   task (a, b)                at P(a%q, b%q)
    // where (a, b) = (k, v) under ⟨j,i,k⟩ and (v, k) under ⟨i,j,k⟩. The
    // task cell is therefore L's cell (⟨j,i,k⟩: the task block is L
    // transposed) or U's cell (⟨i,j,k⟩: the task block is U itself), so
    // only U and L travel and the task block is built locally. U is
    // exchanged and built before L is routed, so at most one set of
    // send buffers is alive at a time.
    let x = comm.rank() / q;
    let y = comm.rank() % q;
    let entries = relabeled.entries;
    ops += entries.len() as u64;

    // U(x, y): rows are class x.
    let u_sends = route_entries(p, &entries, |v, k| q * (v as usize % q) + k as usize % q);
    let ublock = exchange_block(comm, u_sends, grid2d.class_count(n, x), q)?;
    ops += ublock.num_entries() as u64;

    // L(x, y) stored by probe vertex: rows are class y.
    let l_sends = route_entries(p, &entries, |v, k| q * (k as usize % q) + v as usize % q);
    drop(entries);
    let lblock = exchange_block(comm, l_sends, grid2d.class_count(n, y), q)?;
    ops += lblock.num_entries() as u64;

    // Task block: rows are the hash-side vertices, class x.
    let task = match cfg.enumeration {
        Enumeration::Jik => lblock.transpose(grid2d.class_count(n, x), q, y),
        Enumeration::Ijk => ublock.clone(),
    };
    ops += task.num_entries() as u64;

    let max_hash_row = comm.allreduce_max_u64(ublock.max_row_len() as u64)? as usize;
    drop(twod_span);

    Ok(PrepOutput { q, x, y, n, task, ublock, lblock, max_hash_row, ops, label_pairs })
}
