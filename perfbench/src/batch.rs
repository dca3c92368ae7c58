//! The batch workloads: repeated solves of one in-memory graph through
//! the public drivers, checked against the serial oracles.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tc_core::TcConfig;
use tc_graph::EdgeList;
use tc_mps::MpsResult;

use crate::measure::{median, peak_rss_mb, process_cpu, quantile};
use crate::report::Report;
use crate::workload::{Kind, RANKS, SETUP_SLOTS};

/// Fewest timed solves a run makes, however long each takes.
const MIN_SOLVES: usize = 3;

/// What one solve returned.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    Count(u64),
    /// Trussness per edge (parallel to the simplified edge list) and
    /// the peel rounds it took.
    Truss {
        trussness: Vec<u32>,
        rounds: u32,
    },
}

/// One solve through the workload's public driver.
fn solve(kind: Kind, el: &EdgeList) -> MpsResult<Answer> {
    match kind {
        Kind::Count => tc_core::try_count_triangles(el, RANKS, &TcConfig::default())
            .map(|r| Answer::Count(r.triangles)),
        Kind::Truss => tc_apps::dtruss::try_truss_decomposition_dist(el, RANKS)
            .map(|r| Answer::Truss { trussness: r.trussness, rounds: r.rounds }),
        Kind::Serve => unreachable!("the serve workload has no batch solve"),
    }
}

/// Checks an answer against the serial oracle of the same graph,
/// printing what the oracle sees.
fn check_oracle(el: &EdgeList, answer: &Answer, report: &mut Report) {
    match answer {
        Answer::Count(t) => {
            let want = tc_baselines::serial::count_default(el);
            println!("oracle: serial triangles = {want}, 2D triangles = {t}");
            if *t != want {
                report.wrong(format!("2D count {t} != serial count {want}"));
            }
        }
        Answer::Truss { trussness, .. } => {
            let want = tc_graph::truss::truss_decomposition(el);
            println!("oracle: serial trussness histogram {:?}", histogram(&want.trussness));
            println!("dist trussness histogram {:?}", histogram(trussness));
            if want.edges != el.edges || want.trussness != *trussness {
                report.wrong("distributed trussness differs from the serial peel".into());
            }
        }
    }
}

fn histogram(trussness: &[u32]) -> BTreeMap<u32, usize> {
    let mut h = BTreeMap::new();
    for &t in trussness {
        *h.entry(t).or_insert(0) += 1;
    }
    h
}

/// The timed loop: one warm-up solve, then solves until `seconds`
/// have passed (at least [`MIN_SOLVES`] tries). `setup_slot` runs at
/// evenly spaced moments between the solves and once after the last,
/// [`SETUP_SLOTS`] − 1 times in all. Every solve must repeat the
/// warm-up's answer; the answer must match the oracle.
pub fn run(
    kind: Kind,
    el: &EdgeList,
    seconds: f64,
    report: &mut Report,
    mut setup_slot: impl FnMut(),
) {
    report.attempted += 1;
    let first = match solve(kind, el) {
        Ok(a) => a,
        Err(e) => {
            report.failed += 1;
            report.wrong.push(format!("warm-up solve failed: {e}"));
            return;
        }
    };
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let start = Instant::now();
    let mut slots = 1;
    let mut tries = 0;
    while tries < MIN_SOLVES || start.elapsed() < Duration::from_secs_f64(seconds) {
        let due = slots as f64 * seconds / (SETUP_SLOTS - 1) as f64;
        if slots < SETUP_SLOTS - 1 && start.elapsed().as_secs_f64() >= due {
            setup_slot();
            slots += 1;
        }
        tries += 1;
        report.attempted += 1;
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        let got = solve(kind, el);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = process_cpu().saturating_sub(cpu0).as_secs_f64();
        match got {
            Ok(a) if a == first => {
                walls.push(wall);
                cpus.push(cpu);
            }
            Ok(_) => {
                report.wrong(format!("solve {} disagrees with the warm-up answer", walls.len()))
            }
            Err(e) => {
                report.failed += 1;
                println!("solve failed: {e}");
            }
        }
    }
    let rss = peak_rss_mb();
    while slots < SETUP_SLOTS {
        setup_slot();
        slots += 1;
    }
    if walls.is_empty() {
        report.wrong.push("no solve succeeded".into());
        return;
    }
    let n = walls.len();
    report.e2e("peak_rss_mb", rss, "MB", 1);
    report.info("solve_s", median(&walls), "s", n);
    // The highest percentile with at least 10 samples beyond it.
    if n > 10 {
        let pct = 100 * (n - 10) / n;
        report.info(&format!("solve_s.p{pct}"), quantile(&walls, pct as f64 / 100.0), "s", n);
    }
    report.info("solve_cpu_s", median(&cpus), "s", n);
    if let Answer::Truss { rounds, .. } = first {
        report.info("truss.rounds", rounds as f64, "count", n);
    }
    check_oracle(el, &first, report);
}
