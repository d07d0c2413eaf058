//! Host discipline: CPU pinning, process CPU time and peak memory.
//!
//! The benchmark pins itself to **one** allowed CPU before it spawns
//! anything (see the README for the pinned/unpinned numbers that motivate
//! this), so wall time ≈ CPU time and a repetition does not depend on which
//! vCPU the scheduler happens to put a shard worker on.

use std::fs;

/// CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (empty when procfs is unavailable).
pub fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(parse_cpu_list)
        .unwrap_or_default()
}

/// Parses a kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

const MASK_WORDS: usize = 16; // 1024 CPUs, the kernel's default cpu_set_t

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and every thread it spawns afterwards) to
/// `cpus`. Returns whether the kernel accepted the mask.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu < MASK_WORDS * 64 {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
    }
    if mask.iter().all(|&w| w == 0) {
        return false;
    }
    // SAFETY: `mask` is a live, properly aligned array of `MASK_WORDS` u64s
    // and the size passed is exactly its size in bytes; the kernel only
    // reads it. pid 0 addresses the calling thread. The call has no other
    // memory effects.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}

/// Where the benchmark runs: the CPUs the process was allowed before it
/// pinned itself, and the one it pinned itself to (`None` when pinning is
/// unavailable).
#[derive(Debug, Clone)]
pub struct Host {
    pub allowed: Vec<usize>,
    pub cpu: Option<usize>,
}

/// Pins the calling thread to the highest-numbered allowed CPU (CPU 0
/// usually also serves the VM's interrupts).
pub fn pin_to_one_cpu() -> Host {
    let allowed = allowed_cpus();
    let cpu = allowed.last().copied().filter(|&cpu| set_affinity(&[cpu]));
    Host { allowed, cpu }
}

/// Nanoseconds the calling process's main thread and all its other live
/// threads have spent on a CPU, from the first field of
/// `/proc/self/task/*/schedstat`. The driver runs on the main thread and the
/// cluster's workers are the others, so on one CPU the two partition the
/// wall time. Threads that already exited are not counted: take deltas only
/// while the same threads live.
pub fn thread_cpu_ns() -> (u64, u64) {
    let main = std::process::id().to_string();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let (mut driver, mut others) = (0, 0);
    for task in tasks.filter_map(|t| t.ok()) {
        let on_cpu = fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        if task.file_name().to_string_lossy() == main {
            driver += on_cpu;
        } else {
            others += on_cpu;
        }
    }
    (driver, others)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    dmps_workload::rss::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0-2,8,10-11\n"), vec![0, 1, 2, 8, 10, 11]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn cpu_time_advances() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = thread_cpu_ns();
        assert!(after.0 + after.1 >= before.0 + before.1);
    }
}
