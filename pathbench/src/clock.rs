//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! by a third or more over spans of seconds; it does not show as steal
//! time, so CPU time moves with it. A median over a run then depends on
//! how much of the run fell in slow spans. To take that out, the untimed
//! gaps between ops time a fixed reference kernel — std code only,
//! independent of every crate under test — and every end-to-end timing
//! is scaled by `NOMINAL_US / k`, where `k` is the median of the recent
//! kernel times. A reported time is thus the op's time on a host on which the kernel
//! takes `NOMINAL_US`; a change to the program moves it, a change in host
//! speed mostly does not. The kernel times and the factors are kept in
//! the run's samples file.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The kernel time, in µs, reported times are scaled to: a round figure
/// near the kernel's time on the 2-vCPU Xeon guest the benchmark was
/// written on. It sets the scale of the reported times only.
pub const NOMINAL_US: f64 = 400.0;
/// Least gap between two calibrations, in seconds.
const EVERY_S: f64 = 0.05;
/// Calibrations the factor is the median of.
const WINDOW: usize = 5;
/// Kernel repetitions per calibration; the fastest is kept, so that an
/// interrupt does not count as a slow host.
const REPS: usize = 3;
/// Threads a calibration runs the kernel on at once, one per core of the
/// 2-core host: the chase kernel, the daemon and `run_batch` use both
/// cores, and the two need not run at the same speed.
const THREADS: usize = 2;

/// Entries of the kernel's table: 16 KiB, so that the kernel runs from
/// the per-core caches whatever the op before it left there, and its
/// time follows the core's speed rather than the cache's state.
const TABLE: usize = 1 << 11;

/// A fixed mix of what the measured paths spend their time on: a
/// dependent walk over a table, an ordered map of short strings
/// (allocation, compares) and a sort. Deterministic; returns a checksum
/// so that nothing is optimised away.
fn kernel(table: &mut [u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut at = 0usize;
    let mut sum = 0u64;
    for _ in 0..40_000 {
        let v = table[at];
        sum = sum.wrapping_add(v);
        table[at] = v.wrapping_mul(31).wrapping_add(1);
        at = (v as usize ^ next() as usize) & (TABLE - 1);
    }
    let mut map = BTreeMap::new();
    for i in 0..600u64 {
        map.insert(format!("k{:x}", next() & 0xFFFF), i);
    }
    for (k, v) in &map {
        sum = sum.wrapping_add(k.len() as u64 ^ v);
    }
    let mut v: Vec<u64> = (0..2_000).map(|_| next()).collect();
    v.sort_unstable();
    sum.wrapping_add(v[v.len() / 2])
}

/// The calibrator: the recent kernel times and every one measured.
pub struct Clock {
    enabled: bool,
    tables: Vec<Vec<u64>>,
    recent: VecDeque<f64>,
    last: Option<Instant>,
    /// Every calibration's kernel time, in µs.
    pub kernel_us: Vec<f64>,
}

impl Clock {
    /// A disabled clock never runs the kernel and always scales by 1 (the
    /// traced run reports wall-clock times).
    pub fn new(enabled: bool) -> Clock {
        let table: Vec<u64> = (0..TABLE as u64)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .collect();
        let tables = if enabled {
            vec![table; THREADS]
        } else {
            Vec::new()
        };
        Clock {
            enabled,
            tables,
            recent: VecDeque::with_capacity(WINDOW),
            last: None,
            kernel_us: Vec::new(),
        }
    }

    /// Times the kernel now, on every thread at once; the kernel time is
    /// the mean over the threads of each one's fastest repetition.
    pub fn calibrate(&mut self) {
        if !self.enabled {
            return;
        }
        let fastest = |table: &mut Vec<u64>| {
            (0..REPS)
                .map(|_| {
                    let a = Instant::now();
                    black_box(kernel(black_box(table)));
                    a.elapsed().as_secs_f64() * 1e6
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (first, rest) = self.tables.split_first_mut().expect("one table per thread");
        let total: f64 = std::thread::scope(|s| {
            let others: Vec<_> = rest.iter_mut().map(|t| s.spawn(|| fastest(t))).collect();
            let mine = fastest(first);
            mine + others
                .into_iter()
                .map(|h| h.join().expect("calibration thread"))
                .sum::<f64>()
        });
        let best = total / THREADS as f64;
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(best);
        self.kernel_us.push(best);
        self.last = Some(Instant::now());
    }

    /// Times the kernel if the last calibration is older than `EVERY_S`.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= EVERY_S)
        {
            self.calibrate();
        }
    }

    /// Calibrates until the window is full: before a timed stretch that
    /// no earlier calibration covers.
    pub fn settle(&mut self) {
        if !self.enabled {
            return;
        }
        self.recent.clear();
        for _ in 0..WINDOW {
            self.calibrate();
        }
    }

    /// The factor a timing taken now is scaled by.
    pub fn factor(&self) -> f64 {
        if !self.enabled || self.recent.is_empty() {
            return 1.0;
        }
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        NOMINAL_US / v[v.len() / 2]
    }
}

/// Guest CPU time the hypervisor stole, summed over the CPUs, in ticks
/// of 10 ms (`/proc/stat`'s `steal` column); `None` where unreadable.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Length of a steal window, in seconds: 100 ticks per CPU, so that the
/// counter's one-tick resolution is 0.5% of a 2-CPU window.
pub const STEAL_WINDOW_S: f64 = 0.5;
/// Steal rate, in ticks per second over all CPUs, below which a window
/// is clean whatever the other windows saw: 2% of two CPUs.
const STEAL_FLOOR: f64 = 4.0;

/// Steal windows. Besides running slower, the shared host at times
/// takes the guest's CPUs away (steal time) for milliseconds at a time,
/// in bursts or spread over whole minutes: a run with 24% of its CPU
/// time stolen had twice the request latency of a run with 5%, while
/// the reference kernel (which keeps its fastest repetition) read the
/// same. The measured phases are cut into windows of about
/// `STEAL_WINDOW_S`; a sample belongs to the window its step started in,
/// and the end-to-end metrics use only the samples of clean windows:
/// those whose steal rate is at most the median window's, or below
/// `STEAL_FLOOR`. This removes bursts; steal spread evenly over a run
/// stays in its numbers.
pub struct StealWindows {
    enabled: bool,
    start: Instant,
    start_ticks: Option<u64>,
    /// Per closed window: steal rate in ticks per second.
    pub rates: Vec<f64>,
}

impl StealWindows {
    /// A disabled meter keeps every window (the traced run).
    pub fn new(enabled: bool) -> StealWindows {
        StealWindows {
            enabled,
            start: Instant::now(),
            start_ticks: steal_ticks(),
            rates: Vec::new(),
        }
    }

    /// The window a step starting now belongs to; closes the current
    /// window first if it is `STEAL_WINDOW_S` old.
    pub fn tick(&mut self) -> usize {
        if self.enabled && self.start.elapsed().as_secs_f64() >= STEAL_WINDOW_S {
            self.close();
        }
        self.rates.len()
    }

    /// Closes the current window.
    pub fn close(&mut self) {
        let now = steal_ticks();
        let secs = self.start.elapsed().as_secs_f64();
        let rate = match (self.start_ticks, now) {
            (Some(a), Some(b)) if secs > 0.0 => b.saturating_sub(a) as f64 / secs,
            _ => 0.0,
        };
        self.rates.push(rate);
        self.start = Instant::now();
        self.start_ticks = now;
    }

    /// Whether each closed window is clean.
    pub fn clean(&self) -> Vec<bool> {
        if !self.enabled || self.rates.is_empty() {
            return vec![true; self.rates.len()];
        }
        let mut v = self.rates.clone();
        v.sort_by(f64::total_cmp);
        let limit = v[(v.len() - 1) / 2].max(STEAL_FLOOR);
        self.rates.iter().map(|&r| r <= limit).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_clock_scales_by_one() {
        let mut c = Clock::new(false);
        c.settle();
        c.tick();
        assert_eq!(c.factor(), 1.0);
        assert!(c.kernel_us.is_empty());
    }

    #[test]
    fn steal_windows_keep_the_cleaner_half() {
        let mut w = StealWindows::new(true);
        w.rates = vec![0.0, 30.0, 2.0, 50.0, 10.0];
        assert_eq!(w.clean(), vec![true, false, true, false, true]);
        w.rates = vec![3.0, 1.0, 0.0, 3.5];
        assert_eq!(w.clean(), vec![true; 4]);
        let mut off = StealWindows::new(false);
        off.rates = vec![0.0, 90.0];
        assert_eq!(off.clean(), vec![true, true]);
    }

    #[test]
    fn factor_is_nominal_over_the_window_median() {
        let mut c = Clock::new(true);
        c.settle();
        assert_eq!(c.kernel_us.len(), WINDOW);
        let mut v = c.kernel_us.clone();
        v.sort_by(f64::total_cmp);
        assert!(v[0] > 0.0);
        assert!((c.factor() - NOMINAL_US / v[WINDOW / 2]).abs() < 1e-12);
    }
}
