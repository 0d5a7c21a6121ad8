//! Host-side measurement helpers: order statistics, the tail-percentile
//! rule, thread CPU time from `/proc/thread-self/schedstat`, and the
//! process's peak resident set from `/proc/self/status`.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Geometric mean of `v`; 0 for an empty slice.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The median of each group's values, in ascending group order.
pub fn median_by_group(samples: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut groups = std::collections::BTreeMap::<usize, Vec<f64>>::new();
    for (g, v) in samples {
        groups.entry(g).or_default().push(v);
    }
    groups.values().map(|v| median(v)).collect()
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail latency: the highest whole percentile that still has at least
/// [`TAIL_BEYOND`] samples strictly beyond its nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (whole number, 1–99).
    pub pct: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Applies the tail rule to an ascending slice. `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist (no percentile qualifies).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    (1..100u32).rev().find_map(|pct| {
        let k = rank(n, f64::from(pct));
        (n - k >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: sorted[k - 1],
            beyond: n - k,
            samples: n,
        })
    })
}

/// Parses the first field of a schedstat line: nanoseconds this thread has
/// spent on a CPU.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// CPU nanoseconds the calling thread has run so far. The kernel refreshes
/// the counter at scheduler ticks and context switches, so one reading may
/// lag by a tick; differences over whole measurement loops are exact to
/// within that tick.
///
/// # Panics
/// Panics when the file is missing or malformed (the benchmark needs a
/// Linux host with schedstats).
pub fn thread_cpu_ns() -> u64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat");
    parse_schedstat(&text).expect("malformed /proc/thread-self/schedstat")
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/self/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM missing from /proc/self/status") as f64 / 1024.0
}
