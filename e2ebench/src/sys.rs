//! Process-level measurements read from `/proc`: CPU time and peak
//! resident memory of the benchmark process.

use std::time::Duration;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// Linux for every architecture the kernel exposes to user space).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread), or zero
/// when `/proc` is unavailable.
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_secs_f64((ticks(11) + ticks(12)) as f64 / USER_HZ)
}

/// Peak resident set size of the process in MiB (`VmHWM`), or zero when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's parallelism: client threads, connections, server macros
/// and Monte-Carlo workers are all pinned to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts peak-memory tracking afresh: hands memory the set-up freed back
/// to the kernel, then resets `VmHWM` to the current resident size, so
/// `peak_rss_mb` covers the measured phase and not the benchmark's own
/// set-up scaffolding (crash-image builders, set-up repetitions).
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only walks glibc's own
    // arenas under their locks; any thread may call it at any time.
    unsafe {
        malloc_trim(0);
    }
    // "5" resets the peak resident set size (Linux 4.0 and later).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
