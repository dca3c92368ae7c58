//! The repository benchmark: one command that generates a workload's
//! input from a seed, drives the system through its public entry
//! points, checks every answer, and prints its figures. README.md
//! describes the workloads and figures.
//!
//! ```text
//! tc-perfbench --workload <count-rmat|count-er|truss-rmat|serve-mixed|all>
//!              --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! when every answer was right, 1 otherwise, 2 on a usage error.

mod batch;
mod layers;
mod measure;
mod report;
mod serve;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tc_trace::{TraceConfig, TraceSession};

use crate::measure::{median, peak_rss_mb, rss_mb, steal_s};
use crate::report::Report;
use crate::serve::{Budget, ServiceRun, Stream, WARMUP_OPS};
use crate::workload::{Graph, Kind, Setups, Spec, RANKS, SETUP_SLOTS};

/// Trace events kept per lane: room for every span of one traced run.
const TRACE_CAPACITY: usize = 1 << 18;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let (mut seed, mut seconds, mut trace) = (false, false, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
                seed = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                seconds = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
                trace = true;
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload != "all" && workload::spec(&args.workload).is_none() {
        return Err(format!(
            "unknown workload {:?}; one of {:?} or all",
            args.workload,
            workload::NAMES
        ));
    }
    if !(seed && seconds && trace) {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tc-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
                 [--out-dir <dir>]",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let spec = workload::spec(&args.workload).expect("checked by parse_args");
    let report = run(&spec, args.seed, args.seconds, args.trace, &args.out_dir);
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a process of its own, so each one's peak RSS
/// is its own, then prints one object over all of them, each metric
/// prefixed with its workload's name.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for name in workload::NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run one workload");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        ok &= out.status.success();
        let last = stdout.lines().last().unwrap_or("");
        let Ok(v) = tc_metrics::json::parse(last) else {
            ok = false;
            continue;
        };
        attempted += v.get("attempted").and_then(|x| x.as_u64()).unwrap_or(0);
        failed += v.get("failed").and_then(|x| x.as_u64()).unwrap_or(0);
        for (key, m) in v.get("metrics").and_then(|m| m.as_obj()).unwrap_or(&[]) {
            let value = m.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|x| x.as_str()).unwrap_or("");
            metrics.push(format!(
                "\"{name}.{key}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                tc_metrics::json::fmt_f64(value)
            ));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        ok && failed == 0,
        metrics.join(",")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One fleet session on `g`, inside a `bench.serve.service` span.
fn service(
    g: &Graph,
    sock: &Path,
    stream: &Stream,
    budget: Budget,
    report: &mut Report,
) -> Option<ServiceRun> {
    let _s = tc_trace::span("bench.serve.service", tc_trace::Category::Phase);
    match serve::service_run(&g.csr, sock, stream, WARMUP_OPS, budget) {
        Ok(run) => Some(run),
        Err(e) => {
            report.wrong(format!("service session failed: {e}"));
            None
        }
    }
}

/// Checks a fleet session's replies against the model.
fn check_service(g: &Graph, stream: &Stream, run: &ServiceRun, report: &mut Report) {
    report.attempted += run.executed as u64;
    let (wrong, errors) = serve::check(&g.el, &g.csr, stream, run);
    report.failed += errors;
    for w in wrong {
        report.wrong(w);
    }
}

/// Runs one workload at `seed` for `seconds` and returns what it
/// measured. `trace` selects the traced run, which reports the
/// per-layer figures and writes a Chrome trace into `out_dir`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Report {
    let steal0 = steal_s();
    let mut report = Report { trace, ..Report::default() };
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let mut socks = 0;
    let mut sock = || {
        socks += 1;
        out_dir.join(format!("serve-{}-{socks}.sock", std::process::id()))
    };
    println!(
        "workload {} ({}, p = {RANKS}) seed {seed} seconds {seconds} trace {}",
        spec.name,
        spec.preset(),
        u8::from(trace)
    );
    let session =
        trace.then(|| TraceSession::with_config(TraceConfig { capacity_per_rank: TRACE_CAPACITY }));
    let handle = session.as_ref().map(TraceSession::handle);
    let lane = handle.as_ref().map(|h| h.register_rank(RANKS));

    // Set-up: generate, simplify, build the CSR; for serve-mixed also
    // start the fleet and wait for its cold-start count. It is repeated
    // in [`SETUP_SLOTS`] slots spread over the run.
    let mut setups = Setups::default();
    let mut stream = Stream::default();
    let mut session_run = None;
    let g = match (spec.kind, &handle) {
        (Kind::Serve, _) => {
            // The measured session comes first, before any other fleet
            // has run, so its peak is not lowered by memory an earlier
            // fleet left behind in the allocator.
            let g = setups.build(spec, seed);
            let rss0 = rss_mb();
            let (t0, cpu) = (std::time::Instant::now(), tc_trace::CpuTimer::start());
            stream = Stream::generate(&g.el, &g.csr, seed, Stream::len_for(seconds));
            setups.gen_cpu_s += cpu.elapsed().as_secs_f64();
            setups.gen_wall_s += t0.elapsed().as_secs_f64();
            let budget = Budget::Seconds(seconds);
            let Some(run) = service(&g, &sock(), &stream, budget, &mut report) else {
                return report;
            };
            setups.times.push(g.gen_s + g.graph_s + run.ready_s);
            // The op stream and the reply and latency buffers are the
            // benchmark's bookkeeping, not the system's memory.
            let own = run.rss_base_mb - rss0;
            report.e2e("peak_rss_mb", peak_rss_mb() - own, "MB", 1);
            report.info("host.bench_own_mb", own, "MB", 1);
            serve::figures(&run, &stream, &mut report);
            check_service(&g, &stream, &run, &mut report);
            session_run = Some(run);
            for _ in 1..SETUP_SLOTS {
                setups.slot(spec, seed, |g| {
                    let empty = Stream::default();
                    match service(g, &sock(), &empty, Budget::Ops(0), &mut report) {
                        Some(run) => {
                            check_service(g, &empty, &run, &mut report);
                            run.ready_s
                        }
                        None => 0.0,
                    }
                });
            }
            Some(g)
        }
        (Kind::Count | Kind::Truss, None) => {
            let g = setups.slot(spec, seed, |_| 0.0);
            // The solves need only the edge list: the benchmark's CSR
            // would count in their peak RSS.
            let Graph { el, .. } = g;
            batch::run(spec.kind, &el, seconds, &mut report, || {
                setups.slot(spec, seed, |_| 0.0);
            });
            None
        }
        (Kind::Count | Kind::Truss, Some(_)) => {
            let mut g = None;
            for _ in 0..SETUP_SLOTS {
                g = Some(setups.slot(spec, seed, |_| 0.0));
            }
            let g = g.expect("at least one slot");
            // The serving layers on this workload's graph: a short
            // closed loop of its own.
            stream = Stream::generate(&g.el, &g.csr, seed, WARMUP_OPS + spec.probe_ops);
            session_run = service(&g, &sock(), &stream, Budget::Ops(spec.probe_ops), &mut report);
            if let Some(run) = &session_run {
                check_service(&g, &stream, run, &mut report);
            }
            Some(g)
        }
    };
    report.e2e("setup_s", median(&setups.times), "s", setups.times.len());
    // The generators' own CPU against their wall time: host noise
    // (steal, contention) shows as wall above CPU.
    report.info("host.gen_cpu_s", setups.gen_cpu_s, "s", setups.times.len());
    report.info("host.gen_wall_s", setups.gen_wall_s, "s", setups.times.len());

    if let (Some(h), Some(run), Some(g)) = (&handle, &session_run, &g) {
        let probes = layers::probes(g, h, spec.kind == Kind::Truss, &mut report);
        let replay = {
            let _s = tc_trace::span("bench.serve.engine", tc_trace::Category::Phase);
            serve::engine_replay(&g.csr, &stream, run, spec.replay_ops, h)
        };
        match replay {
            Ok(wrong) => wrong.into_iter().for_each(|w| report.wrong(w)),
            Err(e) => report.wrong(format!("engine replay failed: {e}")),
        }
        drop(lane);
        let trace = session.expect("traced run has a session").finish();
        let steal = steal_s() - steal0;
        if let Some(p) = probes {
            layers::figures(&trace, &p, run, &stream, steal, &mut report);
        }
        let path = out_dir.join(format!("trace-{}-seed{seed}.json", spec.name));
        match tc_trace::chrome::write_chrome_json(&trace, &path) {
            Ok(()) => println!(
                "trace: {} events ({} dropped) written to {}",
                trace.events.len(),
                trace.dropped,
                path.display()
            ),
            Err(e) => println!("trace: cannot write {}: {e}", path.display()),
        }
    } else {
        report.info("host.steal_s", steal_s() - steal0, "s", 1);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` of every entry under `key` in the repository's
    /// BENCHMARK.json, which this benchmark's output must match.
    fn listed(key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = tc_metrics::json::parse(&text).expect("BENCHMARK.json parses");
        let entries = doc.get(key).and_then(|v| v.as_arr()).expect("a list per key");
        let mut names: Vec<String> = entries
            .iter()
            .map(|e| e.get("name").and_then(|n| n.as_str()).expect("a name per entry").to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn every_workload_at_toy_scale_reports_every_metric_and_passes_its_checks() {
        assert_eq!(listed("workloads"), {
            let mut n = workload::NAMES.map(String::from).to_vec();
            n.sort();
            n
        });
        // Relative to the package root, where `cargo test` runs: a
        // short path keeps the service's socket name within its limit.
        let out = Path::new("out/self-test");
        for name in workload::NAMES {
            let spec = workload::toy(name).expect("toy spec");
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let report = run(&spec, 7, 0.3, trace, out);
                assert!(report.correct(), "{name} trace={trace}: {:?}", report.wrong);
                let mut got: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
                got.sort();
                assert_eq!(got, listed(key), "{name} trace={trace}");
                assert!(
                    report.metrics.iter().all(|m| m.value.is_finite()),
                    "{name}: {:?}",
                    report.metrics
                );
                let json =
                    tc_metrics::json::parse(&report.json()).expect("the result line is JSON");
                assert_eq!(json.get("correct"), Some(&tc_metrics::json::Value::Bool(true)));
            }
        }
    }

    #[test]
    fn usage_errors_are_rejected() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload count-er --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload all --seed 1 --seconds 2 --trace 1").is_ok());
        for bad in [
            "--workload count-er --seed 1 --seconds 2",
            "--workload nope --seed 1 --seconds 2 --trace 0",
            "--workload count-er --seed x --seconds 2 --trace 0",
            "--workload count-er --seed 1 --seconds 0 --trace 0",
            "--workload count-er --seed 1 --seconds 2 --trace 2",
            "--workload count-er --seed 1 --seconds 2 --trace 0 --extra 1",
            "--workload count-er --seed 1 --seconds 2 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
