//! Heap high-water audit of the 2D count.
//!
//! The paper's algorithm "structures its communication and
//! computational steps such that it reduces its memory overhead". This
//! test holds the implementation to a budget: it counts the triangles
//! of a fixed Graph500 graph at p = 4 under a global allocator that
//! tracks live heap bytes, and asserts that the high-water mark of the
//! bytes allocated during the call stays under a bound per input edge.
//!
//! The bound sits between two measurements on this graph: the
//! redistribution that sent every upper entry three times, with all
//! send buffers and their decoded copies alive at once, peaked at
//! 67-70 B/edge; the current pipeline, which ships U and L one after
//! the other, frees each send buffer once it is encoded and builds
//! blocks straight from the received views, peaks at 29-32 B/edge
//! (x86-64 Linux, glibc; debug and release builds alike).
//!
//! The file holds a single test so no other test's allocations land in
//! the shared counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tc_core::{try_count_triangles, TcConfig};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let p = System.alloc(l);
        if !p.is_null() {
            grow(l.size());
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l);
        shrink(l.size());
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        // Count the new block before releasing the old one: a moving
        // realloc briefly holds both.
        grow(n);
        let q = System.realloc(p, l, n);
        if q.is_null() {
            shrink(n);
        } else {
            shrink(l.size());
        }
        q
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(l);
        if !p.is_null() {
            grow(l.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Live-heap high-water budget of one count, in bytes per input edge.
const MAX_BYTES_PER_EDGE: f64 = 48.0;

#[test]
fn two_d_count_stays_within_its_heap_budget() {
    let el = tc_gen::graph500(14, 1).simplify();
    let m = el.num_edges();
    let expect = try_count_triangles(&el, 4, &TcConfig::default()).expect("warm-up run").triangles;

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = try_count_triangles(&el, 4, &TcConfig::default()).expect("measured run");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(r.triangles, expect);

    let per_edge = peak as f64 / m as f64;
    eprintln!(
        "2D count of g500-s14 at p = 4: {m} edges, heap high-water {peak} B = {per_edge:.1} B/edge"
    );
    assert!(
        per_edge < MAX_BYTES_PER_EDGE,
        "heap high-water {per_edge:.1} B/edge exceeds the budget of {MAX_BYTES_PER_EDGE} B/edge"
    );
}
