//! Clocks, host counters and order statistics.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

/// CPU time consumed by every thread of this process so far. Unlike
/// wall time, time stolen by the hypervisor does not inflate it.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call
    // and the clock id is a constant Linux accepts for any process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A `kB` line of `/proc/self/status`, in MiB.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} line in /proc/self/status"));
    kb / 1024.0
}

/// High-water resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process now, in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Host-wide CPU time stolen by the hypervisor since boot, summed over
/// all CPUs (the `steal` column of `/proc/stat`). Only deltas matter.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("aggregate cpu line in /proc/stat");
    let steal: f64 = cpu.split_whitespace().nth(8).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    // SAFETY: sysconf takes a plain integer and has no memory effects.
    let tck = unsafe { sysconf(SC_CLK_TCK) };
    steal / tck.max(1) as f64
}

/// Nearest-rank quantile `q` in `[0, 1]` of an unsorted sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}
