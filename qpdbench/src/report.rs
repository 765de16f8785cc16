//! Metric collection, summary statistics, output digests and the final
//! result line.

use std::collections::BTreeMap;

use qpd_yield::Fnv64;

/// FNV-1a over bytes, rendered as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = Fnv64::new();
    for &b in bytes {
        h.push(b as u64);
    }
    format!("{:016x}", h.finish())
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Each program's median over passes, from times laid out pass after
/// pass with `programs` entries per pass.
pub fn per_program_medians(times: &[f64], programs: usize) -> Vec<f64> {
    (0..programs)
        .map(|p| median(&times.iter().skip(p).step_by(programs).copied().collect::<Vec<_>>()))
        .collect()
}

/// Median and tail latency of a batch workload, in the unit of `times`:
/// over each program's median time across the passes, the median and
/// the mean of the slowest quarter. Samples cluster by program, and
/// twelve programs leave no percentile with ten samples beyond it that
/// does not sit on the edge between two programs' clusters.
pub fn batch_latency(times: &[f64], programs: usize) -> (f64, f64) {
    let mut medians = per_program_medians(times, programs);
    medians.sort_by(|a, b| b.total_cmp(a));
    let slowest = &medians[..programs.div_ceil(4)];
    (median(&medians), slowest.iter().sum::<f64>() / slowest.len() as f64)
}

/// The tail of `values`: the highest percentile that still has at least
/// ten samples beyond it. Returns `(value, percentile, samples)`; with
/// fewer than eleven samples it falls back to the maximum.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let idx = n.saturating_sub(11);
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

/// The metrics of one run, by name, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.entry(name.to_string()).or_insert((0.0, unit)).0 += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |m| m.0)
    }

    /// Removes a metric, returning its value (0 when absent).
    pub fn take(&mut self, name: &str) -> f64 {
        self.0.remove(name).map_or(0.0, |m| m.0)
    }

    /// Exactly the listed metrics, in the listed units; a metric the run
    /// did not produce reads 0 (the workload never reached that layer).
    pub fn select(&self, names: &[(&str, &'static str)]) -> Metrics {
        Metrics(names.iter().map(|&(n, u)| (n.to_string(), (self.get(n), u))).collect())
    }

    fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\":{{\"value\":{v:?},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Attempted/failed operation counts plus the correctness verdict.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons the run is not correct.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Counts one operation, failed when `error` is set.
    pub fn record(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.problem(e);
        }
    }

    /// Notes a failed check that is not tied to one operation.
    pub fn problem(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("qpdbench: CHECK FAILED: {why}");
        self.problems.push(why);
    }

    pub fn result_line(&self, metrics: &Metrics) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.render()
        )
    }
}

/// Output digests recorded from earlier runs, keyed by
/// `(workload, seed, operation)`; `*` in the seed column matches every
/// seed. See `golden.txt`.
pub struct Golden(BTreeMap<(String, String, String), String>);

impl Golden {
    pub fn load() -> Self {
        let mut map = BTreeMap::new();
        for line in include_str!("../golden.txt").lines().filter(|l| !l.starts_with('#')) {
            if let [workload, seed, op, digest] = line.split_whitespace().collect::<Vec<_>>()[..] {
                map.insert((workload.into(), seed.into(), op.into()), digest.into());
            }
        }
        Golden(map)
    }

    /// Prints one operation's digest (`digest <workload> <seed> <op>
    /// <hex>`) and checks it against the recorded one, if any. `seed` is
    /// `None` for outputs that do not depend on the seed.
    pub fn check(&self, workload: &str, seed: Option<u64>, op: &str, got: &str) -> Option<String> {
        let seed = seed.map_or("*".to_string(), |s| s.to_string());
        println!("digest {workload} {seed} {op} {got}");
        match self.0.get(&(workload.to_string(), seed.clone(), op.to_string())) {
            Some(want) if want != got => {
                Some(format!("{workload} seed {seed} {op}: digest {got}, recorded {want}"))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((value, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn batch_tail_is_the_slowest_quarter() {
        // Two passes over four programs: medians 1, 2, 3, 8.
        let times = [1.0, 2.0, 3.0, 10.0, 1.0, 2.0, 3.0, 6.0];
        assert_eq!(batch_latency(&times, 4), (2.5, 8.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
