//! What the host was doing during a run, read from `/proc` (Linux).
//! Every reader returns 0 where the file is missing, so the benchmark
//! still runs elsewhere; the record only explains a run, it gates nothing.

use std::fs;

/// Linux reports process CPU times in `USER_HZ` ticks, fixed at 100.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process, exited threads included.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate CPU tick counters of the host: `(steal, total)`.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else { return (0, 0) };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else { return (0, 0) };
    let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|s| s.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    let total: u64 = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}

/// One-minute load average.
pub fn load_avg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(0.0)
}

/// Host cores visible to the process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Host counters at the start of a timed stretch.
#[derive(Debug, Clone, Copy)]
pub struct HostWindow {
    cpu_s: f64,
    ticks: (u64, u64),
}

impl HostWindow {
    pub fn open() -> Self {
        HostWindow { cpu_s: process_cpu_s(), ticks: cpu_ticks() }
    }
}

/// What the host did over one or more [`HostWindow`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostRecord {
    /// Process CPU seconds.
    pub cpu_s: f64,
    pub steal_ticks: u64,
    pub total_ticks: u64,
    /// One-minute load average when the last window closed.
    pub load_avg: f64,
}

impl HostRecord {
    /// Close `w` and add what happened since it opened.
    pub fn add(&mut self, w: HostWindow) {
        let (steal, total) = cpu_ticks();
        self.cpu_s += process_cpu_s() - w.cpu_s;
        self.steal_ticks += steal.saturating_sub(w.ticks.0);
        self.total_ticks += total.saturating_sub(w.ticks.1);
        self.load_avg = load_avg();
    }

    /// Share of host CPU time stolen by the hypervisor.
    pub fn steal_share(&self) -> f64 {
        if self.total_ticks == 0 {
            0.0
        } else {
            self.steal_ticks as f64 / self.total_ticks as f64
        }
    }
}
