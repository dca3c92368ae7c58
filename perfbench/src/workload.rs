//! The four workloads and the set-up they share: generate a seeded
//! graph, simplify it and build its CSR.

use std::time::Instant;

use tc_graph::{Csr, EdgeList};
use tc_trace::{span, Category, CpuTimer};

/// Ranks of every universe the benchmark starts: the smallest square
/// grid whose Cannon shifts exchange blocks.
pub const RANKS: usize = 4;

/// Set-ups per run come in this many slots spread over the run (before,
/// between and after the timed solves or requests), so a burst of host
/// noise at one moment of the run moves few of them. `setup_s` is the
/// median of all of them.
pub const SETUP_SLOTS: usize = 9;
/// Each slot sets up at least once and more until its set-ups have taken
/// this long, so a set-up of a few milliseconds still gets a steady
/// median.
pub const SETUP_SLOT_S: f64 = 0.2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated 2D Cannon counts of one graph.
    Count,
    /// Repeated distributed truss decompositions of one graph.
    Truss,
    /// A closed-loop client against an in-process service fleet.
    Serve,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Graph500 RMAT (`g500-sN`): skewed, hub rows.
    Rmat,
    /// Uniform G(n, m) with m = 15n (`friendster-like-N`): flat.
    Er,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub family: Family,
    pub scale: u32,
    /// Requests the service probe sends when the workload itself is not
    /// `Serve` (its traced run still measures the serving layers on the
    /// workload's graph).
    pub probe_ops: usize,
    /// Upper bound of requests replayed directly against the engine.
    pub replay_ops: usize,
}

pub const NAMES: [&str; 4] = ["count-rmat", "count-er", "truss-rmat", "serve-mixed"];

/// The full-size workloads. README.md records why each was chosen.
pub fn spec(name: &str) -> Option<Spec> {
    let (kind, family, scale) = match name {
        "count-rmat" => (Kind::Count, Family::Rmat, 17),
        "count-er" => (Kind::Count, Family::Er, 17),
        "truss-rmat" => (Kind::Truss, Family::Rmat, 10),
        "serve-mixed" => (Kind::Serve, Family::Rmat, 14),
        _ => return None,
    };
    let name = NAMES.into_iter().find(|n| *n == name)?;
    Some(Spec { name, kind, family, scale, probe_ops: 3_000, replay_ops: 10_000 })
}

/// The same workloads at toy scale, for the self-test.
#[cfg(test)]
pub fn toy(name: &str) -> Option<Spec> {
    let full = spec(name)?;
    let scale = match full.kind {
        Kind::Truss => 7,
        _ => 8,
    };
    Some(Spec { scale, probe_ops: 300, replay_ops: 300, ..full })
}

impl Spec {
    /// The dataset preset name this workload generates.
    pub fn preset(&self) -> String {
        match self.family {
            Family::Rmat => format!("g500-s{}", self.scale),
            Family::Er => format!("friendster-like-{}", self.scale),
        }
    }
}

/// One set-up's product and its timings.
pub struct Graph {
    pub el: EdgeList,
    pub csr: Csr,
    /// Wall time of the generator (`gen` layer).
    pub gen_s: f64,
    /// CPU time of the generator: host noise shows as wall above it.
    pub gen_cpu_s: f64,
    /// Wall time of simplify + CSR build (`graph` layer).
    pub graph_s: f64,
}

/// Generates the workload's graph from `seed`, as the `tc-gen`
/// presets do, and builds its CSR.
pub fn build(spec: &Spec, seed: u64) -> Graph {
    let t0 = Instant::now();
    let cpu = CpuTimer::start();
    let raw = {
        let _s = span("bench.gen", Category::Phase);
        let n = 1usize << spec.scale;
        match spec.family {
            Family::Rmat => tc_gen::graph500(spec.scale, seed),
            Family::Er => tc_gen::er::gnm(n, 15 * n, seed),
        }
    };
    let gen_cpu_s = cpu.elapsed().as_secs_f64();
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (el, csr) = {
        let _s = span("bench.graph", Category::Phase);
        let el = raw.simplify();
        let csr = Csr::from_edge_list(&el);
        (el, csr)
    };
    Graph { el, csr, gen_s, gen_cpu_s, graph_s: t1.elapsed().as_secs_f64() }
}

/// The set-up times of one run, and the generators' own CPU and wall
/// time over all of them.
#[derive(Debug, Default)]
pub struct Setups {
    pub times: Vec<f64>,
    pub gen_cpu_s: f64,
    pub gen_wall_s: f64,
}

impl Setups {
    /// Builds the workload's graph once. The caller records the set-up
    /// time, which for the serving workload also covers the fleet.
    pub fn build(&mut self, spec: &Spec, seed: u64) -> Graph {
        let g = build(spec, seed);
        self.gen_cpu_s += g.gen_cpu_s;
        self.gen_wall_s += g.gen_s;
        g
    }

    /// One slot of set-ups: builds the graph, hands it to `finish`
    /// (which returns the seconds it added to the set-up), and repeats
    /// until the slot has taken [`SETUP_SLOT_S`]. Returns the last
    /// graph.
    pub fn slot(&mut self, spec: &Spec, seed: u64, mut finish: impl FnMut(&Graph) -> f64) -> Graph {
        let mut spent = 0.0;
        loop {
            let g = self.build(spec, seed);
            let s = g.gen_s + g.graph_s + finish(&g);
            self.times.push(s);
            spent += s;
            if spent >= SETUP_SLOT_S {
                return g;
            }
        }
    }
}
