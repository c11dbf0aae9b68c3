//! Process and host readings: CPU time, peak memory, and time the
//! hypervisor stole from the host's virtual CPUs.

/// CPU seconds this process has used so far, all threads, user plus
/// system (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution).
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (NaN when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of all threads of another process, from
/// its `/proc/<pid>/stat` file (NaN when unreadable).
pub fn proc_cpu_s(stat_path: &str) -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in USER_HZ (100 per second) ticks.
    let ticks = std::fs::read_to_string(stat_path).ok().and_then(|s| {
        let fields: Vec<u64> = s
            .rsplit_once(')')?
            .1
            .split_whitespace()
            .skip(11)
            .take(2)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some(fields.iter().sum::<u64>())
    });
    ticks.map_or(f64::NAN, |t| t as f64 / 100.0)
}

/// The host's aggregate CPU tick counters from `/proc/stat`: (steal,
/// total). `None` when unreadable.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Share of host CPU time stolen between two [`host_ticks`] readings,
/// in percent (NaN when either reading is missing or no time passed).
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => f64::NAN,
    }
}
