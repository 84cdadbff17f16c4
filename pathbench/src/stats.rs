//! Sample summaries and process-memory probes.

/// Summary of one sample set: count, extremes, quartiles and p90.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub max: f64,
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        min: s.first().copied().unwrap_or(f64::NAN),
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        p90: quantile(&s, 0.9),
        max: s.last().copied().unwrap_or(f64::NAN),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Returns freed heap pages to the OS, so the next phase's peak RSS does
/// not start from the previous phase's retained arena.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // releases free heap memory; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Trims the heap and resets the kernel's peak-RSS mark (`VmHWM`) to
/// the current resident set.
pub fn reset_peak_rss() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Current resident set size, in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        assert!((s.p90 - 4.6).abs() < 1e-9);
    }
}
