//! Clocks, memory high-water mark, and the host-speed probe.
//!
//! The benchmark runs on a shared two-core host whose speed moves in
//! episodes of about a second: allocation- and memory-heavy code, such as
//! the device models, runs 30-50 % slower in a slow episode while pure
//! arithmetic does not move. A fixed reference workload, the probe, is
//! run on the idle host right after each measured operation (or chunk of
//! load), and each end-to-end time is scaled to a host on which the probe
//! takes [`REFERENCE_MS`]. This removes most of the episode noise from the
//! tunes and part of it from the serve path (README.md, "Host speed"); the
//! raw times stay in the result file.

use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux process clocks and /proc/self");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD` from glibc's `<malloc.h>`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Fix glibc's mmap and trim thresholds (32 MiB, 64 MiB) for the whole
/// run; call before any thread starts. Left dynamic, they settle
/// differently in each process: in some serve runs every MIC hit gave
/// its device model's memory back to the kernel and faulted it in again
/// (about 400 page faults and 20 % more CPU per read), in others none
/// did. Fixed high, freed memory stays in the heap in every run, and the
/// probe's own allocations no longer depend on what the program freed.
pub fn pin_malloc_thresholds() -> Result<(), String> {
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 64 << 20)] {
        // SAFETY: `mallopt` takes two ints and only adjusts allocator
        // tuning; it is called before the process starts other threads.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({param}, {value}) failed"));
        }
    }
    Ok(())
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and `clock` is one of
    // the two constants above, which the kernel always supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU clocks are not negative"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec is below 1e9"),
    )
}

/// CPU time consumed so far by every thread of this process, exited
/// threads included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MiB, since the
/// start or the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Minor page faults this process has taken (`/proc/self/stat` field 10).
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Restart the `VmHWM` high-water mark at the current resident size, so
/// the peak covers the timed phase only (`clear_refs` value 5, Linux 4.0
/// and later).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Wall and process-CPU time of one measured call.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    pub wall: Duration,
    pub cpu: Duration,
}

/// Run `f` and report what it cost.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (w0, c0) = (Instant::now(), process_cpu());
    let r = f();
    let cost = Cost {
        wall: w0.elapsed(),
        cpu: process_cpu().saturating_sub(c0),
    };
    (r, cost)
}

/// Probe CPU time, in ms, of the host the reported times are scaled to.
pub const REFERENCE_MS: f64 = 1.0;

/// `raw`, measured while the probe took `probe_ms`, scaled to a host on
/// which the probe takes [`REFERENCE_MS`].
pub fn scaled(raw: f64, probe_ms: f64) -> f64 {
    raw * REFERENCE_MS / probe_ms
}

/// Run the reference workload once and return the CPU time, in ms, the
/// calling thread spent on it. The work mirrors what moves with the host:
/// a fresh 320 KiB buffer sorted in place and four thousand small heap
/// vectors, as the device models build their cache sets.
pub fn probe() -> f64 {
    let c0 = thread_cpu();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..40_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let sets: Vec<Vec<u32>> = (0..4000u32).map(|i| vec![i; 16]).collect();
    let acc = sets.iter().enumerate().fold(0u64, |acc, (i, s)| {
        acc.wrapping_add(u64::from(s[i % 16]) ^ keys[i])
    });
    std::hint::black_box(acc);
    (thread_cpu() - c0).as_secs_f64() * 1e3
}

/// Probes per [`burst`].
const BURST: usize = 3;

/// Probe the idle host a few times; the median probe ms.
pub fn burst() -> f64 {
    let probes: Vec<f64> = (0..BURST).map(|_| probe()).collect();
    crate::stats::median(&probes).expect("BURST > 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_probe_costs_cpu() {
        let (_, cost) = measure(|| {
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            x
        });
        assert!(cost.cpu > Duration::ZERO);
        assert!(peak_rss_mib() > 0.0);
        assert!(probe() > 0.0);
        assert!(burst() > 0.0);
        assert_eq!(scaled(10.0, 2.0 * REFERENCE_MS), 5.0);
    }
}
