//! Host-side probes read from outside the simulator: CPU time, resident
//! memory and core count from procfs, plus the median the benchmark
//! reports for every repeated timing.

use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every reported figure has at least one
/// sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Kernel clock ticks per second, from the `AT_CLKTCK` entry of the
/// process's auxiliary vector (100 on every common Linux build).
fn clock_ticks_per_sec() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = std::fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map(|(_, ticks)| ticks as f64)
        .unwrap_or(100.0)
}

/// User + system CPU seconds this process has used so far, over all of
/// its threads (fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields restart after
    // its closing parenthesis, with field 3 first.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / clock_ticks_per_sec()
}

/// A `kB` line of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
fn status_bytes(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Current resident set size in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// Peak resident set size of this process so far, in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

/// Hardware threads this process may run on (affinity and cgroup
/// quota included).
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn procfs_probes_read_live_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t0 = Instant::now();
        while secs_since(t0) < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() >= before);
        assert!(rss_bytes() > 0);
        assert!(peak_rss_bytes() >= rss_bytes());
        assert!(nproc() >= 1);
        assert_eq!(clock_ticks_per_sec().fract(), 0.0);
    }
}
