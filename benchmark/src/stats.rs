//! Order statistics, the seeded hash, and `/proc` read-outs.

use std::ffi::{c_int, c_long};
use std::time::Duration;

use indulgent_obs::HistogramSnapshot;

/// One step of splitmix64: the benchmark's only randomness source.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The nearest-rank `q`-quantile of `values` (sorts in place); 0 when
/// empty.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

/// The median of `values` (mean of the two middle values when even); 0
/// when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The median over windows of a per-window statistic — what every
/// reported timing is, because a pooled tail swings with one bad window
/// while the median window does not.
pub fn median_of<T>(windows: &[T], stat: impl Fn(&T) -> f64) -> f64 {
    median(&mut windows.iter().map(stat).collect::<Vec<_>>())
}

/// The `q`-quantile of a log2-bucket histogram, interpolated linearly
/// inside the bucket the rank falls in (the crate's own `percentile`
/// reports the bucket's upper bound, a power of two).
#[must_use]
pub fn hist_quantile(snap: &HistogramSnapshot, q: f64) -> f64 {
    if snap.count == 0 {
        return 0.0;
    }
    let rank = q * snap.count as f64;
    let mut seen = 0.0;
    for (i, &c) in snap.buckets.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= rank {
            // Bucket 0 holds zeros; bucket i >= 1 holds [2^(i-1), 2^i).
            let (lo, hi) = if i == 0 { (0.0, 0.0) } else { (pow2(i - 1), pow2(i)) };
            return (lo + (hi - lo) * ((rank - seen) / c)).min(snap.max as f64);
        }
        seen += c;
    }
    snap.max as f64
}

fn pow2(exp: usize) -> f64 {
    2f64.powi(i32::try_from(exp).expect("bucket index below 64"))
}

/// Nanoseconds of a duration as a float.
#[must_use]
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Kernel clock ticks per second behind `/proc/*/stat` (`USER_HZ`, 100
/// on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds. `busy` is the scheduler's own sum of run time
/// (`CLOCK_PROCESS_CPUTIME_ID`), exact to the nanosecond. `user` and
/// `sys` are `/proc`'s split of it, which a kernel with tick accounting
/// estimates by noting where each 4 ms timer tick lands: over a 1 s
/// window of one workload the split moved by a third between identical
/// runs while `busy` stayed within 3 %. On a virtual machine kernel time
/// includes the hypervisor's share of every disk, timer and loopback
/// exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub busy: f64,
    pub user: f64,
    pub sys: f64,
}

impl std::ops::Sub for Cpu {
    type Output = Cpu;

    fn sub(self, earlier: Cpu) -> Cpu {
        Cpu {
            busy: self.busy - earlier.busy,
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

impl std::ops::AddAssign for Cpu {
    fn add_assign(&mut self, more: Cpu) {
        self.busy += more.busy;
        self.user += more.user;
        self.sys += more.sys;
    }
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: c_long,
}

extern "C" {
    // `std` links libc and wraps neither CPU-time clock; this package
    // takes no dependencies, so the symbol is declared here.
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Seconds on one of the kernel's CPU-time clocks; 0 if it has none.
fn cpu_clock(clock: c_int) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, exclusively borrowed `timespec`, which is
    // all `clock_gettime` writes to.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU the whole process has used, threads that have ended included.
#[must_use]
pub fn process_cpu() -> Cpu {
    let busy = cpu_clock(CLOCK_PROCESS_CPUTIME_ID);
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of those.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut ticks = rest.split_whitespace().skip(11).map(|f| f.parse::<f64>().unwrap_or(0.0));
    let mut seconds = || ticks.next().unwrap_or(0.0) / TICKS_PER_SEC;
    Cpu { busy, user: seconds(), sys: seconds() }
}

/// CPU seconds the calling thread has used.
#[must_use]
pub fn thread_cpu() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc`
/// does not say.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Live threads of the process.
#[must_use]
pub fn thread_count() -> f64 {
    std::fs::read_dir("/proc/self/task").map_or(0.0, |d| d.count() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&mut v, 0.50), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 0.5), 7.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn median_of_windows_ignores_one_bad_window() {
        // Four quiet windows and one with a 250 ms stall: the pooled
        // mean moves, the median window does not.
        let windows = [0.8, 0.82, 250.0, 0.79, 0.81];
        assert_eq!(median_of(&windows, |w| *w), 0.81);
    }

    #[test]
    fn hist_quantile_interpolates_inside_the_bucket() {
        let h = indulgent_obs::Histogram::new();
        for v in 512..1024 {
            h.record(v);
        }
        let snap = h.snapshot();
        // The crate's percentile reports min(bucket bound, max) = 1023;
        // the interpolated median lands mid-bucket.
        assert_eq!(snap.percentile(0.5), 1023);
        let p50 = hist_quantile(&snap, 0.5);
        assert!((760.0..=776.0).contains(&p50), "p50 = {p50}");
        assert_eq!(hist_quantile(&HistogramSnapshot::empty(), 0.5), 0.0);
    }

    #[test]
    fn cpu_clocks_count_work_and_not_sleep() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        std::thread::sleep(Duration::from_millis(20));
        let mut x = 0u64;
        while thread_cpu() - t0 < 0.01 {
            x = std::hint::black_box(splitmix64(x));
        }
        let (p, t) = (process_cpu() - p0, thread_cpu() - t0);
        assert!((0.01..0.02).contains(&t), "10 ms of work, 20 ms asleep: {t}");
        assert!(p.busy >= t, "the process includes this thread: {} < {t}", p.busy);
    }

    #[test]
    fn splitmix_is_a_fixed_function() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
