//! Offline drop-in subset of the `criterion` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this small replacement covering the API the benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_with_input`] /
//! [`BenchmarkGroup::bench_function`], [`BenchmarkId`], [`black_box`], and
//! the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is a plain adaptive timing loop reporting the **median**
//! time per iteration over `sample_size` batches — no statistics beyond
//! that, no HTML reports. Good enough to observe the orders of magnitude
//! the paper's figures are about.

#![warn(missing_docs)]

use std::fmt;
use std::hint;
use std::time::{Duration, Instant};

/// An opaque identity function preventing the optimiser from deleting a
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// The identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{function_name}/{parameter}"),
        }
    }

    /// Identifier carrying only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// The benchmark driver.
pub struct Criterion {
    /// Target measurement time per benchmark.
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measurement_time: Duration::from_millis(400),
        }
    }
}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let measurement_time = self.measurement_time;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 20,
            measurement_time,
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples (upstream minimum is 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Sets the target measurement time.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Benchmarks `f` with access to `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            median_ns: None,
        };
        f(&mut bencher, input);
        self.report(&id, &bencher);
        self
    }

    /// Benchmarks a closure with no input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            median_ns: None,
        };
        f(&mut bencher);
        self.report(&id, &bencher);
        self
    }

    /// Ends the group (upstream writes reports here; this prints nothing).
    pub fn finish(&mut self) {}

    fn report(&self, id: &BenchmarkId, bencher: &Bencher) {
        match bencher.median_ns {
            Some(ns) => println!("{}/{:<28} time: [{}]", self.name, id.name, format_ns(ns)),
            None => println!("{}/{} — no measurement taken", self.name, id.name),
        }
    }
}

/// Runs and times the measured closure.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    median_ns: Option<f64>,
}

impl Bencher {
    /// Times `routine`, storing the median ns/iteration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.median_ns = Some(measure_median_ns(
            self.sample_size,
            self.measurement_time,
            &mut || {
                black_box(routine());
            },
        ));
    }

    /// The measured median, if [`Bencher::iter`] ran.
    pub fn median_ns(&self) -> Option<f64> {
        self.median_ns
    }
}

/// Median ns/iteration of `routine` over `samples` batches within roughly
/// `budget` total measurement time.
pub fn measure_median_ns(samples: usize, budget: Duration, routine: &mut dyn FnMut()) -> f64 {
    let sample_ns = measure_samples_ns(samples, budget, routine);
    let mid = sample_ns.len() / 2;
    if sample_ns.len() % 2 == 1 {
        sample_ns[mid]
    } else {
        (sample_ns[mid - 1] + sample_ns[mid]) / 2.0
    }
}

/// The ns/iteration of `routine` in each of `samples` batches within
/// roughly `budget` total measurement time, sorted ascending.
pub fn measure_samples_ns(samples: usize, budget: Duration, routine: &mut dyn FnMut()) -> Vec<f64> {
    // Warm-up + estimate: run until 2ms or 3 iterations.
    let mut iters_done = 0u64;
    let warmup = Instant::now();
    while iters_done < 3 || warmup.elapsed() < Duration::from_millis(2) {
        routine();
        iters_done += 1;
        if iters_done >= 1_000_000 {
            break;
        }
    }
    let est_per_iter = warmup.elapsed().as_secs_f64() / iters_done as f64;
    // Batch size so one sample takes ~budget/samples.
    let per_sample = budget.as_secs_f64() / samples as f64;
    let batch = ((per_sample / est_per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);
    let mut sample_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..batch {
            routine();
        }
        sample_ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    sample_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sample_ns
}

/// Compact human formatting of a nanosecond quantity.
pub fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_measurement_is_sane() {
        let mut x = 0u64;
        let ns = measure_median_ns(5, Duration::from_millis(20), &mut || {
            x = black_box(x.wrapping_add(1));
        });
        assert!(ns > 0.0 && ns < 1_000_000.0, "{ns}");
    }

    #[test]
    fn format_scales() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(12_500.0), "12.50 µs");
        assert_eq!(format_ns(3_400_000.0), "3.40 ms");
        assert_eq!(format_ns(2_000_000_000.0), "2.000 s");
    }

    #[test]
    fn group_runs_benches() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(5));
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        group.finish();
        assert!(ran);
    }
}
