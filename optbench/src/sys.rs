//! Process counters from `/proc/self`.

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports for user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name, which may hold spaces;
    // utime and stime are fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_this_process() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
