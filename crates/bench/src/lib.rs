//! Process-level measurement probes shared with the `parchmint-bench`
//! benchmark package: peak resident set size and byte throughput.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Duration;

/// Peak resident set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`, the high-water mark). `None` off Linux
/// or when the field is missing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Megabytes (1e6 bytes) per second over `wall` (0.0 when `wall` is
/// zero).
pub fn mb_per_sec(bytes: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        bytes as f64 / 1e6 / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_probe_reads_a_plausible_peak() {
        // Linux CI and dev machines both have /proc; the probe must
        // return something in a sane range there.
        if std::path::Path::new("/proc/self/status").exists() {
            let rss = peak_rss_bytes().expect("VmHWM present");
            assert!(rss > 1 << 20, "peak RSS under 1 MiB is implausible: {rss}");
        }
    }

    #[test]
    fn throughput_helpers_are_consistent() {
        let wall = Duration::from_millis(500);
        assert_eq!(mb_per_sec(5_000_000, wall), 10.0);
        assert_eq!(mb_per_sec(5_000_000, Duration::ZERO), 0.0);
    }
}
