//! The serving workload: a seeded op stream, an in-process 4-rank
//! `tc_serve` fleet driven by one closed-loop client, the model that
//! checks every reply, and a replay of the same stream straight
//! against `tc_serve::Engine`.

use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use tc_core::TcConfig;
use tc_graph::{Csr, EdgeList};
use tc_metrics::json::Value;
use tc_mps::{MpsResult, Universe, UniverseConfig};
use tc_serve::{serve_rank, Algo, Client, EdgeOp, Engine, Request, ServeConfig, ServeReport};
use tc_trace::{span, Category, TraceHandle};

use crate::measure::{median, process_cpu, quantile, rss_mb};
use crate::report::Report;
use crate::workload::RANKS;

/// Edges per `update` request.
const UPDATE_EDGES: usize = 8;
/// Inserted batches alive at once: past this, each update deletes the
/// oldest live batch, so |E| stays within a band and late requests
/// cost what early ones do.
const LIVE_BATCHES: usize = 32;
/// Untimed requests before the timed loop.
pub const WARMUP_OPS: usize = 500;
/// Stream length per measured second: several times the closed-loop
/// rate this service reaches, so a run never exhausts its stream.
const OPS_PER_SECOND_CAP: f64 = 30_000.0;
/// `stats` calls timed by the engine replay.
const STATS_CALLS: usize = 200;

/// One request of the stream; updates index [`Stream::batches`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Count,
    Support(u32, u32),
    Insert(u32),
    Delete(u32),
}

impl Op {
    pub fn is_update(self) -> bool {
        matches!(self, Op::Insert(_) | Op::Delete(_))
    }
}

/// The seeded op stream: 60% `support` of an edge drawn uniformly from
/// the input (so endpoints are degree-weighted and hubs cost more), 20%
/// `count`, 20% `update` of [`UPDATE_EDGES`] fresh edges that a later
/// update deletes again.
#[derive(Default)]
pub struct Stream {
    pub ops: Vec<Op>,
    pub batches: Vec<[(u32, u32); UPDATE_EDGES]>,
}

/// splitmix64: a tiny seeded generator, so the stream depends on the
/// seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

impl Stream {
    pub fn generate(el: &EdgeList, csr: &Csr, seed: u64, len: usize) -> Stream {
        assert!(!el.edges.is_empty() && el.num_vertices >= 2, "serving needs a graph with edges");
        let mut rng = Rng(seed ^ 0x5EED_5EED);
        let mut live: VecDeque<u32> = VecDeque::new();
        let mut fresh: HashSet<(u32, u32)> = HashSet::new();
        let mut s = Stream { ops: Vec::with_capacity(len), batches: Vec::new() };
        for _ in 0..len {
            let op = match rng.below(10) {
                0..=5 => {
                    let (u, v) = el.edges[rng.below(el.edges.len())];
                    Op::Support(u, v)
                }
                6 | 7 => Op::Count,
                _ if live.len() >= LIVE_BATCHES => {
                    let b = live.pop_front().expect("live batches");
                    for e in &s.batches[b as usize] {
                        fresh.remove(e);
                    }
                    Op::Delete(b)
                }
                _ => {
                    let mut batch = [(0, 0); UPDATE_EDGES];
                    let mut k = 0;
                    while k < UPDATE_EDGES {
                        let u = rng.below(el.num_vertices) as u32;
                        let v = rng.below(el.num_vertices) as u32;
                        let e = (u.min(v), u.max(v));
                        if u == v || csr.has_edge(u, v) || !fresh.insert(e) {
                            continue;
                        }
                        batch[k] = e;
                        k += 1;
                    }
                    s.batches.push(batch);
                    let b = (s.batches.len() - 1) as u32;
                    live.push_back(b);
                    Op::Insert(b)
                }
            };
            s.ops.push(op);
        }
        s
    }

    /// Stream length for a run measuring `seconds`.
    pub fn len_for(seconds: f64) -> usize {
        WARMUP_OPS + (seconds * OPS_PER_SECOND_CAP).ceil() as usize
    }

    pub fn request(&self, op: Op) -> Request {
        match op {
            Op::Count => Request::Count,
            Op::Support(u, v) => Request::Support { u, v },
            Op::Insert(b) => {
                Request::Update { insert: self.batches[b as usize].to_vec(), delete: Vec::new() }
            }
            Op::Delete(b) => {
                Request::Update { insert: Vec::new(), delete: self.batches[b as usize].to_vec() }
            }
        }
    }

    /// The edge mutations of an update op.
    fn edge_ops(&self, op: Op) -> impl Iterator<Item = EdgeOp> + '_ {
        let (b, insert) = match op {
            Op::Insert(b) => (b, true),
            Op::Delete(b) => (b, false),
            Op::Count | Op::Support(..) => unreachable!("only updates carry edges"),
        };
        self.batches[b as usize].iter().map(move |&(u, v)| {
            if insert {
                EdgeOp::insert(u, v)
            } else {
                EdgeOp::delete(u, v)
            }
        })
    }
}

/// When the closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Ops(usize),
}

/// What one fleet session returned.
pub struct ServiceRun {
    /// Fleet spawn to the first `count` reply: cold start included.
    pub ready_s: f64,
    /// The cold-start `count` reply.
    pub first_count: u64,
    /// Ops executed, warm-up included.
    pub executed: usize,
    /// Resident set size just before the fleet started, with the
    /// stream and the reply and latency buffers already in memory.
    pub rss_base_mb: f64,
    /// One reply per executed op: the `triangles`, `support` or
    /// `queued` figure. Sized to the whole stream and touched before
    /// the fleet starts.
    pub replies: Vec<u64>,
    /// Ops that got a typed error or a malformed reply, by index.
    pub errors: Vec<(usize, String)>,
    /// Round-trip nanoseconds of each timed op (those after the
    /// warm-up); sized like `replies`.
    pub lat_ns: Vec<u64>,
    pub timed: usize,
    pub warmup: usize,
    /// Ops, wall seconds and process-CPU seconds of each run of
    /// [`WINDOW_OPS`] consecutive timed ops.
    pub windows: Vec<(usize, f64, f64)>,
    /// The final `stats` reply.
    pub stats: Value,
    /// Rank 0's lifetime report.
    pub report: ServeReport,
}

/// Timed ops per window. CPU per request and throughput are taken per
/// window and reported as the median window, so a burst of host noise
/// that covers a few windows does not move the run's figures.
const WINDOW_OPS: usize = 2_000;

impl ServiceRun {
    pub fn stat(&self, key: &str) -> u64 {
        self.stats.get(key).and_then(Value::as_u64).unwrap_or(u64::MAX)
    }

    fn failed(&self, i: usize) -> bool {
        self.errors.iter().any(|(at, _)| *at == i)
    }
}

fn field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("reply lacks '{key}'"))
}

fn reply_value(op: Op, reply: Result<Value, String>) -> Result<u64, String> {
    let v = reply?;
    match op {
        Op::Count => field(&v, "triangles"),
        Op::Support(..) => match v.get("present") {
            Some(Value::Bool(true)) => field(&v, "support"),
            _ => Err("support reply says a present edge is absent".into()),
        },
        Op::Insert(_) | Op::Delete(_) => field(&v, "queued"),
    }
}

/// Starts a fleet on `csr` listening at `sock`, waits for the first
/// `count` reply, runs `ops` through one closed-loop connection until
/// `budget` is spent, reads `stats` and shuts the fleet down.
pub fn service_run(
    csr: &Csr,
    sock: &Path,
    stream: &Stream,
    warmup: usize,
    budget: Budget,
) -> Result<ServiceRun, String> {
    let cfg = ServeConfig::new(sock.to_path_buf());
    // Touch every page of the buffers now: they are the benchmark's
    // memory, not the fleet's, and untouched zero pages would make the
    // RSS grow with the number of ops completed.
    let replies = vec![u64::MAX; stream.ops.len()];
    let lat_ns = vec![u64::MAX; stream.ops.len()];
    let rss_base_mb = rss_mb();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let fleet = s.spawn(|| {
            Universe::try_run_config(RANKS, &UniverseConfig::default(), |comm| {
                serve_rank(comm, csr, &cfg)
            })
        });
        let mut client = None;
        while client.is_none() && !fleet.is_finished() && t0.elapsed() < Duration::from_secs(120) {
            match Client::connect(sock) {
                Ok(c) => client = Some(c),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let driven = match client.as_mut() {
            Some(c) => drive(c, t0, stream, warmup, budget, replies, lat_ns),
            None => Err("the fleet never accepted a connection".into()),
        };
        // Shut the fleet down on every path, so the scope can join it.
        let bye = match client.as_mut() {
            Some(c) => c.request(&Request::Shutdown).map(drop),
            None => Err("no connection".into()),
        };
        drop(client);
        if bye.is_err() && !fleet.is_finished() {
            if let Ok(mut c) = Client::connect(sock) {
                let _ = c.request(&Request::Shutdown);
            }
        }
        let joined = fleet.join().map_err(|_| "fleet thread panicked".to_string())?;
        let (reports, _) = joined.map_err(|e| format!("fleet failed: {e}"))?;
        let mut run = driven?;
        run.report = reports[0];
        run.rss_base_mb = rss_base_mb;
        Ok(run)
    })
}

fn drive(
    c: &mut Client,
    t0: Instant,
    stream: &Stream,
    warmup: usize,
    budget: Budget,
    mut replies: Vec<u64>,
    mut lat_ns: Vec<u64>,
) -> Result<ServiceRun, String> {
    let first_count = field(&c.request(&Request::Count)?, "triangles")?;
    let ready_s = t0.elapsed().as_secs_f64();
    let total = stream.ops.len();
    let warmup = warmup.min(total);
    let mut errors = Vec::new();
    let mut windows = Vec::new();
    let mut at = 0;
    let mut run_op = |c: &mut Client, at: usize| {
        let op = stream.ops[at];
        let req = stream.request(op);
        let t = Instant::now();
        let reply = c.request(&req);
        let ns = t.elapsed().as_nanos() as u64;
        match reply_value(op, reply) {
            Ok(v) => replies[at] = v,
            Err(e) => errors.push((at, e)),
        }
        ns
    };
    while at < warmup {
        run_op(c, at);
        at += 1;
    }
    let start = Instant::now();
    let (mut w_wall, mut w_cpu) = (start, process_cpu());
    while at < total {
        let timed = at - warmup;
        let done = match budget {
            Budget::Seconds(s) => start.elapsed() >= Duration::from_secs_f64(s),
            Budget::Ops(n) => timed >= n,
        };
        if done {
            break;
        }
        lat_ns[timed] = run_op(c, at);
        at += 1;
        if (timed + 1).is_multiple_of(WINDOW_OPS) {
            let (now, cpu) = (Instant::now(), process_cpu());
            windows.push((
                WINDOW_OPS,
                (now - w_wall).as_secs_f64(),
                cpu.saturating_sub(w_cpu).as_secs_f64(),
            ));
            (w_wall, w_cpu) = (now, cpu);
        }
    }
    // A loop too short for one full window is one window of its own.
    if windows.is_empty() && at > warmup {
        windows.push((
            at - warmup,
            w_wall.elapsed().as_secs_f64(),
            process_cpu().saturating_sub(w_cpu).as_secs_f64(),
        ));
    }
    let stats = c.request(&Request::Stats)?;
    Ok(ServiceRun {
        ready_s,
        first_count,
        executed: at,
        rss_base_mb: 0.0,
        replies,
        errors,
        lat_ns,
        timed: at - warmup,
        warmup,
        windows,
        stats,
        report: ServeReport::default(),
    })
}

/// The benchmark's own model of the graph: sorted adjacency rows and
/// the triangle count, updated op by op.
struct Model {
    adj: Vec<Vec<u32>>,
    triangles: u64,
    edges: u64,
}

impl Model {
    fn common(&self, u: u32, v: u32) -> u64 {
        let (a, b) = (&self.adj[u as usize], &self.adj[v as usize]);
        let (mut i, mut j, mut n) = (0, 0, 0u64);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    fn set(&mut self, u: u32, v: u32, present: bool) {
        for (a, b) in [(u, v), (v, u)] {
            let row = &mut self.adj[a as usize];
            match (row.binary_search(&b), present) {
                (Err(at), true) => row.insert(at, b),
                (Ok(at), false) => {
                    row.remove(at);
                }
                _ => unreachable!("stream inserts absent edges and deletes present ones"),
            }
        }
    }

    fn apply(&mut self, e: EdgeOp) {
        if e.insert {
            self.triangles += self.common(e.u, e.v);
            self.set(e.u, e.v, true);
            self.edges += 1;
        } else {
            self.set(e.u, e.v, false);
            self.triangles -= self.common(e.u, e.v);
            self.edges -= 1;
        }
    }
}

/// Replays the executed ops through the model after timing stopped and
/// compares every reply, the cold-start count and the final `stats`.
/// Returns one line per wrong answer and the number of typed errors.
pub fn check(el: &EdgeList, csr: &Csr, stream: &Stream, run: &ServiceRun) -> (Vec<String>, u64) {
    let triangles = tc_baselines::serial::count_default(el);
    let adj = (0..csr.num_vertices() as u32).map(|v| csr.neighbors(v).to_vec()).collect();
    let mut m = Model { adj, triangles, edges: el.edges.len() as u64 };
    let mut wrong = Vec::new();
    let mut errors = 0;
    if run.first_count != triangles {
        wrong.push(format!("cold-start count {} != serial count {triangles}", run.first_count));
    }
    for (i, e) in &run.errors {
        errors += 1;
        println!("op {i} {:?} failed: {e}", stream.ops[*i]);
    }
    for (i, &op) in stream.ops[..run.executed].iter().enumerate() {
        let want = match op {
            Op::Count => m.triangles,
            Op::Support(u, v) => m.common(u, v),
            Op::Insert(_) | Op::Delete(_) => {
                for e in stream.edge_ops(op) {
                    m.apply(e);
                }
                UPDATE_EDGES as u64
            }
        };
        let got = run.replies[i];
        if got != want && !run.failed(i) {
            wrong.push(format!("op {i} {op:?}: service said {got}, model says {want}"));
        }
    }
    for (key, want) in [("full_recounts", 1), ("edges", m.edges), ("triangles", m.triangles)] {
        if run.stat(key) != want {
            wrong.push(format!("final stats {key} = {}, expected {want}", run.stat(key)));
        }
    }
    (wrong, errors)
}

/// Replays the first `limit` executed ops directly against `Engine` in
/// a 4-rank universe bound to `trace`, coalescing consecutive updates
/// into one batch the way the service's read barrier does, then times
/// [`STATS_CALLS`] `stats` calls. Spans: `bench.serve.engine.cold_start`,
/// `bench.serve.engine.apply`, `.support` and `.stats`.
/// Returns one line per reply that differs from the service's.
pub fn engine_replay(
    csr: &Csr,
    stream: &Stream,
    run: &ServiceRun,
    limit: usize,
    trace: &TraceHandle,
) -> MpsResult<Vec<String>> {
    let n = limit.min(run.executed);
    let ucfg = UniverseConfig { trace: Some(trace.clone()), ..UniverseConfig::default() };
    let (mut outs, _) = Universe::try_run_config(RANKS, &ucfg, |comm| {
        let mut engine = {
            let _s = span("bench.serve.engine.cold_start", Category::Phase);
            Engine::cold_start(comm, csr, Algo::Cannon, TcConfig::default())?
        };
        let mut pending: Vec<EdgeOp> = Vec::new();
        let mut wrong = Vec::new();
        for (i, &op) in stream.ops[..n].iter().enumerate() {
            if op.is_update() {
                pending.extend(stream.edge_ops(op));
                continue;
            }
            if !pending.is_empty() {
                let _s = span("bench.serve.engine.apply", Category::Phase);
                engine.apply_batch(comm, &pending)?;
                pending.clear();
            }
            let got = match op {
                Op::Support(u, v) => {
                    let _s = span("bench.serve.engine.support", Category::Phase);
                    engine.query_support(comm, u, v)?.map(|r| r.support)
                }
                _ => Some(engine.triangles()),
            };
            if let Some(got) = got.filter(|_| !run.failed(i)) {
                let said = run.replies[i];
                if got != said {
                    wrong.push(format!("engine replay op {i} {op:?}: {got}, service said {said}"));
                }
            }
        }
        if !pending.is_empty() {
            let _s = span("bench.serve.engine.apply", Category::Phase);
            engine.apply_batch(comm, &pending)?;
        }
        for _ in 0..STATS_CALLS {
            let _s = span("bench.serve.engine.stats", Category::Phase);
            engine.stats(comm)?;
        }
        Ok(wrong)
    })?;
    Ok(outs.swap_remove(0))
}

/// The end-to-end figures of one timed closed loop. `count` and
/// `support` are reads; `update` acknowledgements are writes.
pub fn figures(run: &ServiceRun, stream: &Stream, report: &mut Report) {
    let n = run.timed;
    let w = run.windows.len();
    if w == 0 {
        report.wrong.push("the closed loop completed no request".into());
        return;
    }
    let lat = &run.lat_ns[..n];
    let ms = |ns: &[u64]| -> Vec<f64> { ns.iter().map(|&x| x as f64 / 1e6).collect() };
    let rate: Vec<f64> = run.windows.iter().map(|&(ops, wall, _)| ops as f64 / wall).collect();
    let cpu: Vec<f64> = run.windows.iter().map(|&(ops, _, cpu)| cpu / ops as f64 * 1e3).collect();
    report.info("request_cpu_ms", median(&cpu), "ms", w);
    report.info("serve_qps", median(&rate), "1/s", w);
    let ops = &stream.ops[run.warmup..run.warmup + n];
    for (name, write) in [("read", false), ("update", true)] {
        let xs: Vec<u64> = lat
            .iter()
            .zip(ops)
            .filter(|(_, op)| op.is_update() == write)
            .map(|(&x, _)| x)
            .collect();
        if !xs.is_empty() {
            report.info(&format!("{name}_p50_ms"), median(&ms(&xs)), "ms", xs.len());
            report.info(&format!("{name}_p99_ms"), quantile(&ms(&xs), 0.99), "ms", xs.len());
        }
    }
    if run.executed == stream.ops.len() {
        println!("note: the run used its whole stream of {} requests", stream.ops.len());
    }
}
