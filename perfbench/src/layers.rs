//! The traced run: the benchmark's own spans around its calls into each
//! layer's public functions, kept in memory, turned into per-layer
//! figures, and written once as a Chrome trace at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use tc_core::cannon::cannon_count;
use tc_core::preprocess::preprocess_from;
use tc_core::{BlockInput, KernelStats, TcConfig};
use tc_graph::{Csr, EdgeList};
use tc_mps::{MpsResult, Universe, UniverseConfig};
use tc_trace::{span, Category, Event, EventKind, Trace, TraceHandle};

use crate::measure::{median, quantile};
use crate::report::Report;
use crate::serve::{Op, ServiceRun, Stream};
use crate::workload::{Graph, RANKS};

/// Every span the benchmark records starts with this; spans the
/// program records itself (phases, collectives, receives) do not.
const PREFIX: &str = "bench.";

/// Timed repetitions of the traced and of the untraced 2D count, after
/// one warm-up of each.
const COUNT_REPS: u64 = 3;

/// Deterministic counters of one 2D count, summed over ranks. Two
/// repetitions on one graph must agree on every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CountCounters {
    triangles: u64,
    local_triangles: u64,
    ppt_ops: u64,
    ppt_bytes: u64,
    tct_bytes: u64,
    tasks: u64,
    lookups: u64,
    probes: u64,
    kernel: KernelStats,
    msgs_sent: u64,
    bytes_sent: u64,
}

/// One rank's share of a traced count.
struct RankProbe {
    counters: CountCounters,
    recv_ns: u64,
}

/// The public driver's per-rank body, `tc_core::count_rank_from`,
/// rebuilt from the layer entry points so each gets its own span:
/// barrier, `preprocess_from`, barrier, `cannon_count`, barrier. The
/// main thread's `bench.core.solve` span also covers the CSR build,
/// rank spawn and join, as `try_count_triangles` does.
fn traced_count(el: &EdgeList, trace: &TraceHandle, rep: u64) -> MpsResult<(CountCounters, u64)> {
    let cfg = TcConfig::default();
    let _solve = span("bench.core.solve", Category::Phase).arg("rep", rep);
    let csr = Csr::from_edge_list(el);
    let n = csr.num_vertices();
    let ucfg = UniverseConfig { trace: Some(trace.clone()), ..UniverseConfig::default() };
    let (ranks, stats) = Universe::try_run_config(RANKS, &ucfg, |comm| {
        comm.barrier()?;
        let s0 = comm.stats();
        let prep = {
            let _s = span("bench.ppt", Category::Phase).arg("rep", rep);
            let prep = preprocess_from(comm, n, &BlockInput::Shared(&csr), &cfg)?;
            comm.barrier()?;
            prep
        };
        let ppt_ops = prep.ops;
        let s1 = comm.stats();
        let out = {
            let _s = span("bench.tct", Category::Phase).arg("rep", rep);
            let out = cannon_count(comm, prep, &cfg)?;
            comm.barrier()?;
            out
        };
        let s2 = comm.stats();
        Ok(RankProbe {
            counters: CountCounters {
                triangles: out.triangles,
                local_triangles: out.local_triangles,
                ppt_ops,
                ppt_bytes: s1.bytes_sent - s0.bytes_sent,
                tct_bytes: s2.bytes_sent - s1.bytes_sent,
                tasks: out.tasks,
                lookups: out.map_stats.lookups,
                probes: out.map_stats.probe_steps,
                kernel: out.kernel_stats,
                ..CountCounters::default()
            },
            recv_ns: s2.recv_ns - s0.recv_ns,
        })
    })?;
    let mut sum =
        CountCounters { triangles: ranks[0].counters.triangles, ..CountCounters::default() };
    let mut recv_ns = 0;
    for (r, s) in ranks.iter().zip(&stats) {
        let c = &r.counters;
        sum.local_triangles += c.local_triangles;
        sum.ppt_ops += c.ppt_ops;
        sum.ppt_bytes += c.ppt_bytes;
        sum.tct_bytes += c.tct_bytes;
        sum.tasks += c.tasks;
        sum.lookups += c.lookups;
        sum.probes += c.probes;
        sum.kernel.merge_from(&c.kernel);
        sum.msgs_sent += s.msgs_sent;
        sum.bytes_sent += s.bytes_sent;
        recv_ns += r.recv_ns;
    }
    Ok((sum, recv_ns))
}

/// What the probes measured outside the trace.
pub struct Probes {
    counters: CountCounters,
    /// Total blocked-receive time of each timed traced repetition.
    recv_s: Vec<f64>,
    /// Wall times of the timed untraced `try_count_triangles` calls.
    untraced_s: Vec<f64>,
    rounds: u32,
}

/// Runs the 2D-count, serial-baseline and truss probes on the
/// workload's graph, checking each answer. `truss` adds the
/// distributed and serial truss decompositions (the truss workload's
/// graph is small enough for them).
pub fn probes(g: &Graph, trace: &TraceHandle, truss: bool, report: &mut Report) -> Option<Probes> {
    let mut reps: Vec<(CountCounters, u64)> = Vec::new();
    let mut untraced_s = Vec::new();
    // Warm-ups are repetition 0 of each kind; traced and untraced
    // repetitions alternate so drift affects both alike.
    for rep in 0..=COUNT_REPS {
        let t0 = Instant::now();
        let untraced = tc_core::try_count_triangles(&g.el, RANKS, &TcConfig::default());
        let wall = t0.elapsed().as_secs_f64();
        let traced = traced_count(&g.el, trace, rep);
        report.attempted += 2;
        match (untraced, traced) {
            (Ok(u), Ok(t)) => {
                if u.triangles != t.0.triangles {
                    report.wrong(format!(
                        "traced count {} != driver count {}",
                        t.0.triangles, u.triangles
                    ));
                }
                if rep > 0 {
                    untraced_s.push(wall);
                    reps.push(t);
                }
            }
            (u, t) => {
                report.wrong(format!("count probe failed: {:?} / {:?}", u.err(), t.err()));
                return None;
            }
        }
    }
    let counters = reps[0].0;
    if let Some((c, _)) = reps.iter().find(|(c, _)| *c != counters) {
        report.wrong(format!(
            "deterministic counters drifted between repeats: {counters:?} vs {c:?}"
        ));
    }
    let serial = {
        let _s = span("bench.baselines.serial", Category::Phase);
        tc_baselines::serial::count_default(&g.el)
    };
    report.attempted += 1;
    if serial != counters.triangles {
        report.wrong(format!("2D count {} != serial count {serial}", counters.triangles));
    }
    report.attempted += 1;
    let supports = {
        let _s = span("bench.truss.supports", Category::Phase);
        tc_core::try_count_per_edge(&g.el, RANKS, &TcConfig::default())
    };
    match supports {
        Ok((_, edges)) => {
            let total: u64 = edges.iter().map(|e| e.support).sum();
            if total != 3 * serial {
                report.wrong(format!("per-edge supports sum to {total}, expected 3 x {serial}"));
            }
        }
        Err(e) => report.wrong(format!("count_per_edge failed: {e}")),
    }
    let mut rounds = 0;
    if truss {
        report.attempted += 1;
        let dist = {
            let _s = span("bench.truss.dist", Category::Phase);
            tc_apps::dtruss::try_truss_decomposition_dist(&g.el, RANKS)
        };
        let want = {
            let _s = span("bench.truss.serial", Category::Phase);
            tc_graph::truss::truss_decomposition(&g.el)
        };
        match dist {
            Ok(d) if d.trussness == want.trussness && d.edges == want.edges => rounds = d.rounds,
            Ok(_) => report.wrong("distributed trussness differs from the serial peel".into()),
            Err(e) => report.wrong(format!("distributed truss failed: {e}")),
        }
    }
    let recv_s = reps.iter().map(|(_, ns)| *ns as f64 / 1e9).collect();
    Some(Probes { counters, recv_s, untraced_s, rounds })
}

fn spans<'a>(trace: &'a Trace, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
    trace.events.iter().filter(move |e| e.kind == EventKind::Span && e.name == name)
}

fn durations(trace: &Trace, name: &str, rank: Option<usize>) -> Vec<f64> {
    spans(trace, name)
        .filter(|e| rank.is_none_or(|r| e.rank == r))
        .map(|e| e.dur_ns as f64 / 1e9)
        .collect()
}

fn rep_of(e: &Event) -> Option<u64> {
    e.arg("rep").and_then(|v| v.as_u64())
}

/// One timed traced repetition, from its spans.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseFig {
    /// Slowest rank's span.
    wall: f64,
    /// Thread CPU summed over ranks.
    cpu: f64,
    /// Slowest rank's wall minus its own thread CPU.
    wait: f64,
    /// Largest over mean rank CPU.
    imbalance: f64,
}

fn phase(trace: &Trace, name: &str, rep: u64) -> PhaseFig {
    let ev: Vec<&Event> = spans(trace, name).filter(|e| rep_of(e) == Some(rep)).collect();
    assert_eq!(ev.len(), RANKS, "one {name} span per rank in repetition {rep}");
    let slowest = ev.iter().max_by_key(|e| e.dur_ns).expect("ranks");
    let cpus: Vec<f64> = ev.iter().map(|e| e.cpu_ns as f64 / 1e9).collect();
    let cpu: f64 = cpus.iter().sum();
    let max_cpu = cpus.iter().copied().fold(0.0, f64::max);
    PhaseFig {
        wall: slowest.dur_ns as f64 / 1e9,
        cpu,
        wait: slowest.dur_ns.saturating_sub(slowest.cpu_ns) as f64 / 1e9,
        imbalance: if cpu > 0.0 { max_cpu / (cpu / RANKS as f64) } else { 1.0 },
    }
}

/// Self time of every benchmark span name, summed over its spans: a
/// span's duration minus the part of its interval that the benchmark
/// spans it caused cover. A span's children are the spans inside its
/// interval on its own lane and, for a main-thread span, on the rank
/// lanes of the universe it started; parallel children count once.
fn self_times(trace: &Trace, main_lane: usize) -> BTreeMap<&'static str, (f64, usize)> {
    let mut lanes: BTreeMap<usize, Vec<&Event>> = BTreeMap::new();
    for e in &trace.events {
        if e.kind == EventKind::Span && e.name.starts_with(PREFIX) {
            lanes.entry(e.rank).or_default().push(e);
        }
    }
    for ev in lanes.values_mut() {
        ev.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    }
    let end = |e: &Event| e.ts_ns + e.dur_ns;
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (&lane, ev) in &lanes {
        for e in ev {
            let mut inside: Vec<(u64, u64)> = Vec::new();
            for (&other, list) in &lanes {
                if other != lane && lane != main_lane {
                    continue;
                }
                let from = list.partition_point(|f| f.ts_ns < e.ts_ns);
                for f in list[from..].iter().take_while(|f| f.ts_ns < end(e)) {
                    if !std::ptr::eq(*f, *e) && end(f) <= end(e) {
                        inside.push((f.ts_ns, end(f)));
                    }
                }
            }
            inside.sort_unstable();
            let (mut covered, mut reach) = (0u64, e.ts_ns);
            for (a, b) in inside {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let slot = out.entry(e.name).or_default();
            slot.0 += e.dur_ns.saturating_sub(covered) as f64 / 1e9;
            slot.1 += 1;
        }
    }
    out
}

/// Turns the finished trace and the probes into the per-layer figures.
/// `service` is the fleet session whose replies the engine replay
/// re-checked.
pub fn figures(
    trace: &Trace,
    p: &Probes,
    service: &ServiceRun,
    stream: &Stream,
    steal_s: f64,
    report: &mut Report,
) {
    let gen = durations(trace, "bench.gen", None);
    let graph = durations(trace, "bench.graph", None);
    report.layer("gen.build_s", median(&gen), "s", gen.len());
    report.layer("graph.build_s", median(&graph), "s", graph.len());

    // The timed repetition with the median solve carries every time
    // figure of the 2D count, so ppt + tct + unattributed = solve holds
    // for one real run.
    let mut solves: Vec<(f64, u64)> = spans(trace, "bench.core.solve")
        .filter_map(|e| rep_of(e).filter(|&r| r > 0).map(|r| (e.dur_ns as f64 / 1e9, r)))
        .collect();
    solves.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = solves.len();
    let (solve, rep) = solves[(n - 1) / 2];
    let (ppt, tct) = (phase(trace, "bench.ppt", rep), phase(trace, "bench.tct", rep));
    let c = &p.counters;
    report.layer("ppt.wall_s", ppt.wall, "s", n);
    report.layer("ppt.cpu_s", ppt.cpu, "s", n);
    report.layer("ppt.wait_s", ppt.wait, "s", n);
    report.layer("ppt.ops", c.ppt_ops as f64, "count", n);
    report.layer("ppt.bytes_sent", c.ppt_bytes as f64, "B", n);
    report.layer("tct.wall_s", tct.wall, "s", n);
    report.layer("tct.cpu_s", tct.cpu, "s", n);
    report.layer("tct.wait_s", tct.wait, "s", n);
    report.layer("tct.tasks", c.tasks as f64, "count", n);
    report.layer("tct.lookups", c.lookups as f64, "count", n);
    report.layer("tct.probes", c.probes as f64, "count", n);
    report.layer("tct.hit_ratio", c.local_triangles as f64 / c.lookups.max(1) as f64, "ratio", n);
    report.layer("tct.imbalance", tct.imbalance, "ratio", n);
    report.layer("tct.bytes_sent", c.tct_bytes as f64, "B", n);
    report.layer("kernel.hash_lookups", c.kernel.hash_lookups as f64, "count", n);
    report.layer("kernel.merge_lookups", c.kernel.merge_lookups as f64, "count", n);
    report.layer("kernel.bitmap_lookups", c.kernel.bitmap_lookups as f64, "count", n);
    report.layer("kernel.bitmap_rows", c.kernel.bitmap_rows as f64, "count", n);
    report.layer("mps.msgs_sent", c.msgs_sent as f64, "count", n);
    report.layer("mps.bytes_sent", c.bytes_sent as f64, "B", n);
    report.layer("mps.recv_wait_s", p.recv_s[(rep - 1) as usize], "s", n);
    report.layer("core.solve_s", solve, "s", n);
    let unattributed = solve - ppt.wall - tct.wall;
    report.layer("core.unattributed_s", unattributed, "s", n);
    // Phase spans on different ranks may overlap by the barrier wake-up
    // skew; anything beyond a millisecond means the spans are wrong.
    if unattributed < -1e-3 {
        report.wrong(format!("ppt + tct spans exceed the solve span by {:.6} s", -unattributed));
    }

    let serial = durations(trace, "bench.baselines.serial", None);
    report.layer("baselines.serial_s", median(&serial), "s", serial.len());
    report.layer("truss.rounds", p.rounds as f64, "count", 1);
    let sup = durations(trace, "bench.truss.supports", None);
    report.layer("truss.supports_s", median(&sup), "s", sup.len());
    let truss_serial = durations(trace, "bench.truss.serial", None);
    if !truss_serial.is_empty() {
        report.info("truss.serial_s", median(&truss_serial), "s", truss_serial.len());
    }

    let mut engine_support = 0.0;
    for (what, name) in [
        ("apply", "bench.serve.engine.apply"),
        ("support", "bench.serve.engine.support"),
        ("stats", "bench.serve.engine.stats"),
    ] {
        let us: Vec<f64> = durations(trace, name, Some(0)).iter().map(|s| s * 1e6).collect();
        if us.is_empty() {
            report.wrong(format!("engine replay recorded no {what} spans"));
            continue;
        }
        let key = format!("serve.engine.{what}_us");
        report.layer(&format!("{key}.p50"), median(&us), "us", us.len());
        report.layer(&format!("{key}.p99"), quantile(&us, 0.99), "us", us.len());
        if what == "support" {
            engine_support = median(&us);
        }
    }
    let support_us: Vec<f64> = service.lat_ns[..service.timed]
        .iter()
        .zip(&stream.ops[service.warmup..])
        .filter(|(_, op)| matches!(op, Op::Support(..)))
        .map(|(&ns, _)| ns as f64 / 1e3)
        .collect();
    report.layer(
        "serve.service.overhead_us",
        median(&support_us) - engine_support,
        "us",
        support_us.len(),
    );
    let updates = stream.ops[..service.executed].iter().filter(|op| op.is_update()).count();
    let batches = service.stat("batches");
    report.layer(
        "serve.ops_per_batch",
        updates as f64 / batches.max(1) as f64,
        "ratio",
        batches as usize,
    );
    report.layer("serve.rejected", service.report.rejected as f64, "count", service.executed);
    report.layer("serve.full_recounts", service.stat("full_recounts") as f64, "count", 1);

    let overhead = solve / median(&p.untraced_s);
    report.layer("trace.overhead_ratio", overhead, "ratio", n);
    report.layer("host.steal_s", steal_s, "s", 1);
    report.info("core.untraced_solve_s", median(&p.untraced_s), "s", p.untraced_s.len());
    println!(
        "check: ppt.wall_s + tct.wall_s + core.unattributed_s = {} s = core.solve_s (traced); \
         core.untraced_solve_s = {} s; the two differ by trace.overhead_ratio = {overhead}",
        ppt.wall + tct.wall + unattributed,
        median(&p.untraced_s),
    );
    for (name, (s, n)) in self_times(trace, RANKS) {
        report.info(&format!("self.{}_s", &name[PREFIX.len()..]), s, "s", n);
    }
}
