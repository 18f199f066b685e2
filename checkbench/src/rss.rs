//! Peak resident memory, read from `/proc` (Linux).

use std::fs;

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// process), in bytes. `None` if the process is gone or `/proc` is absent.
pub fn peak_rss_bytes(pid: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The live child processes of this process, from every thread's
/// `/proc/self/task/<tid>/children`.
pub fn child_pids() -> Vec<String> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut pids: Vec<String> = tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|s| s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        .collect();
    pids.sort();
    pids.dedup();
    pids
}

/// Peak resident memory of this process plus its live children, in MiB.
pub fn peak_rss_mb_with_children() -> f64 {
    let own = peak_rss_bytes("self").unwrap_or(0);
    let children: u64 = child_pids()
        .iter()
        .filter_map(|pid| peak_rss_bytes(pid))
        .sum();
    (own + children) as f64 / (1024.0 * 1024.0)
}
