//! Sample statistics, `/proc` readers and the result line.

use std::path::Path;
use std::time::Duration;

/// Latency samples of one op kind at one layer, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum of all samples, nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum()
    }

    /// Mean, microseconds (0 without samples).
    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.total_ns() / self.ns.len() as f64 / 1e3
    }

    /// The `q` quantile (nearest rank), microseconds (0 without samples).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        quantile(&self.ns, q) as f64 / 1e3
    }

    /// Median, microseconds.
    pub fn p50_us(&mut self) -> f64 {
        self.quantile_us(0.50)
    }

    /// 99th percentile, microseconds.
    pub fn p99_us(&mut self) -> f64 {
        self.quantile_us(0.99)
    }
}

/// The `q` quantile of ascending `sorted` by nearest rank (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Resident bytes of this process's heap: its anonymous mappings, minus
/// the main stack, whose start the kernel randomizes within a page or two
/// (which would make the figure differ between runs of the same input).
pub fn heap_resident_bytes() -> u64 {
    let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap_or_default();
    let mut total = 0;
    let mut counting = false;
    for line in smaps.lines() {
        let mut fields = line.split_whitespace();
        let Some(first) = fields.next() else { continue };
        if !first.ends_with(':') {
            // A mapping header: range, perms, offset, device, inode, path.
            let path = fields.nth(4).unwrap_or("");
            counting = path.is_empty() || path == "[heap]";
        } else if first == "Rss:" && counting {
            total += fields.next().and_then(|kb| kb.parse::<u64>().ok()).unwrap_or(0) * 1024;
        }
    }
    total
}

/// CPU time and voluntary context switches summed over a set of threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadUsage {
    /// Nanoseconds on CPU (`schedstat`).
    pub cpu_ns: u64,
    /// Voluntary context switches — each one a sleep and a wakeup.
    pub wakeups: u64,
}

impl ThreadUsage {
    /// The usage accrued since `earlier`.
    pub fn since(self, earlier: ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
        }
    }
}

/// Ids of this process's threads whose name starts with `prefix` (thread
/// names are cut to 15 bytes by the kernel).
pub fn threads_named(prefix: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            if let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                out.push(tid);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Usage summed over `tids` (threads that have exited count as zero).
pub fn thread_usage(tids: &[u64]) -> ThreadUsage {
    let mut sum = ThreadUsage::default();
    for tid in tids {
        let base = format!("/proc/self/task/{tid}");
        let sched = std::fs::read_to_string(format!("{base}/schedstat")).unwrap_or_default();
        sum.cpu_ns += sched.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0);
        let status = std::fs::read_to_string(format!("{base}/status")).unwrap_or_default();
        sum.wakeups += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
    }
    sum
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, errored, or disagreed with the oracle.
    pub failed: u64,
    /// Whole-state checks (contents after restart and at the end) that
    /// failed.
    pub bad_checks: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (absolute times, run length) for standard
    /// error.
    pub notes: Vec<String>,
}

impl Report {
    /// True if every op and every check agreed with the oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.bad_checks == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
