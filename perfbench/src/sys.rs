//! Operating-system readings the benchmark needs and `std` does not offer:
//! process CPU time, CPU affinity, peak resident memory and the host's
//! steal ticks. Linux only (`/proc` and two glibc calls).

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `cpu_set_t` is 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// CPU time of the whole process, all threads, since it started.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The CPUs the calling thread may run on, in increasing order.
pub fn affinity() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Confines the calling thread, and every thread it spawns afterwards,
/// to `cpus`.
pub fn set_affinity(cpus: &[usize]) {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}

/// Runs `f` with the calling thread (and the threads `f` spawns)
/// confined to one CPU, the highest one allowed, then restores the
/// previous CPU set. A thread already confined to one CPU stays put.
pub fn pinned<T>(f: impl FnOnce() -> T) -> T {
    let before = affinity();
    if before.len() == 1 {
        return f();
    }
    set_affinity(&before[before.len() - 1..]);
    let out = f();
    set_affinity(&before);
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Host-wide CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    /// Ticks spent running anything (user, nice, system, irq, softirq).
    pub busy: u64,
    /// Ticks the hypervisor ran something else on a vCPU that wanted to
    /// run.
    pub steal: u64,
}

impl Ticks {
    pub fn now() -> Ticks {
        let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let f: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .expect("aggregate cpu line in /proc/stat")
            .split_whitespace()
            .map(|v| v.parse().expect("numeric /proc/stat field"))
            .collect();
        // user nice system idle iowait irq softirq steal ...
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        Ticks { busy: at(0) + at(1) + at(2) + at(5) + at(6), steal: at(7) }
    }

    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks { busy: self.busy - earlier.busy, steal: self.steal - earlier.steal }
    }
}
