//! Process-level measurements and small numeric helpers: CPU time, peak
//! resident memory, quantiles over exact samples, and the output digest.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the whole process has consumed, in nanoseconds. Every
/// workload runs with `jobs = 1`, which serves on the calling thread, so
/// this is the one thread's busy time.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).expect("non-negative seconds") * 1_000_000_000
        + u64::try_from(ts.tv_nsec).expect("non-negative nanoseconds")
}

/// Peak resident set size of this process so far (`VmHWM`), in MB
/// (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Wall and CPU time of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Bursts of short samples, and the idle gap between them: the host's
/// memory speed shifts for a few hundred ms at a time, so 10–30 ms
/// samples taken in one burst would all land in one such regime.
const BURSTS: usize = 8;
const PER_BURST: usize = 5;
const GAP: Duration = Duration::from_millis(300);

/// Calls `sample` in `BURSTS` bursts of `PER_BURST`, idle for `GAP`
/// between bursts, so the samples span ~2.5 s of the host's drift;
/// returns them in the order they ran.
pub fn spread_samples(mut sample: impl FnMut() -> f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(BURSTS * PER_BURST);
    for b in 0..BURSTS {
        if b > 0 {
            std::thread::sleep(GAP);
        }
        out.extend((0..PER_BURST).map(|_| sample()));
    }
    out
}

/// Runs `f`, returning its result with the wall and process CPU time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Phase) {
    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
    (out, Phase { wall_s, cpu_s })
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// FNV-1a over every byte the workload's outputs render to. Equal
/// digests across repetitions (and across a perf-only change) mean the
/// simulated work did not change.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
