//! Host and noise record, plus the small `/proc` readers the metrics
//! need (peak RSS, CPU seconds). The noise figures are diagnostics only:
//! no run is ever dropped or reweighted because of them.

use std::fmt::Write as _;

/// Field `key` of a `/proc/<pid>/status`-style file, first number only.
fn status_field(pid: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_field(pid, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Involuntary context switches of process `pid` so far, summed over
/// its live threads.
pub fn involuntary_switches(pid: &str) -> Option<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0;
    for task in tasks.flatten() {
        let tid = task.file_name().to_string_lossy().into_owned();
        total += status_field(&format!("{pid}/task/{tid}"), "nonvoluntary_ctxt_switches:")?;
    }
    Some(total)
}

/// CPU seconds (user + system, all threads) process `pid` has used,
/// from `/proc/<pid>/stat` at the conventional 100 ticks per second.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// CPU time of this process in seconds at nanosecond resolution (sum of
/// every thread's scheduler run time), falling back to tick accounting.
pub fn self_cpu_seconds() -> f64 {
    let precise = (|| -> Option<f64> {
        let mut total = 0u64;
        for entry in std::fs::read_dir("/proc/self/task").ok()? {
            let path = entry.ok()?.path().join("schedstat");
            let text = std::fs::read_to_string(path).ok()?;
            total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        Some(total as f64 * 1e-9)
    })();
    precise.or_else(|| cpu_seconds("self")).unwrap_or(0.0)
}

/// Total steal ticks across all CPUs (`/proc/stat`, first line).
pub fn steal_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    text.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Noise counters sampled at the start of a run.
#[derive(Debug, Clone, Copy)]
pub struct NoiseStart {
    steal: Option<u64>,
    switches: Option<u64>,
    cpu_s: f64,
}

impl NoiseStart {
    pub fn sample() -> Self {
        NoiseStart {
            steal: steal_ticks(),
            switches: involuntary_switches("self"),
            cpu_s: self_cpu_seconds(),
        }
    }
}

/// CPU seconds and involuntary context switches summed over the
/// daemons a `serve_mix` run booted.
#[derive(Debug, Default)]
pub struct DaemonNoise {
    pub daemons: usize,
    pub cpu_s: f64,
    pub involuntary_switches: u64,
}

/// One line of host and noise facts: cores, CPU model, SIMD flags,
/// `QPD_THREADS`, and over the run the steal ticks, involuntary context
/// switches and CPU seconds of this process (and of the daemon, when
/// one ran).
pub fn record(start: &NoiseStart, daemon: Option<&DaemonNoise>) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .replace('"', "'");
    let flags = cpuinfo.lines().find(|l| l.starts_with("flags")).unwrap_or("");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("QPD_THREADS").unwrap_or_else(|_| "unset".into());
    let steal = match (start.steal, steal_ticks()) {
        (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
        _ => "null".into(),
    };
    let switches = match (start.switches, involuntary_switches("self")) {
        (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
        _ => "null".into(),
    };
    let mut out = format!(
        "{{\"cores\":{cores},\"cpu_model\":\"{model}\",\"avx2\":{},\"avx512f\":{},\
         \"qpd_threads\":\"{threads}\",\"steal_ticks\":{steal},\
         \"involuntary_switches\":{switches},\"cpu_s\":{:.3}",
        has("avx2"),
        has("avx512f"),
        self_cpu_seconds() - start.cpu_s,
    );
    if let Some(d) = daemon {
        let _ = write!(
            out,
            ",\"daemons\":{},\"daemon_cpu_s\":{:.3},\"daemon_involuntary_switches\":{}",
            d.daemons, d.cpu_s, d.involuntary_switches
        );
    }
    out.push('}');
    out
}
