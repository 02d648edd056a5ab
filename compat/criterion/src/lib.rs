//! Offline stand-in for the `criterion` crate (see `compat/README.md`).
//!
//! Supports the interface the workspace benches use —
//! [`criterion_group!`]/[`criterion_main!`], benchmark groups,
//! [`BenchmarkId`], [`Throughput`], `Bencher::iter`/`iter_custom` — and
//! reports the mean wall-clock time per iteration (and per element, for a
//! group with a throughput) instead of criterion's full statistical
//! analysis. When the
//! binary is invoked by `cargo test` (any `--test`-style argument present),
//! every benchmark runs exactly once so test runs stay fast.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// How long a benchmark samples in normal (non-test) mode.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(200);

fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--list" || a.starts_with("--format"))
}

/// Identifier combining a function name and a parameter rendering.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id labelled `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id from a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// How much work one iteration does — turns the per-iteration mean into a
/// per-element one in the report.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// One iteration processes this many elements.
    Elements(u64),
}

/// Measures one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    mean: Option<Duration>,
}

impl Bencher {
    /// Times `body`, repeating it enough to smooth noise (once under
    /// `cargo test`).
    pub fn iter<R>(&mut self, mut body: impl FnMut() -> R) {
        let start = Instant::now();
        std::hint::black_box(body());
        let first = start.elapsed();
        if self.iters <= 1 {
            self.mean = Some(first);
            return;
        }
        // Derive an iteration count from the first observation, bounded by
        // the configured sample size.
        let per_iter = first.max(Duration::from_nanos(1));
        let wanted = (TARGET_SAMPLE_TIME.as_nanos() / per_iter.as_nanos()).max(1);
        let n = wanted.min(u128::from(self.iters)) as u32;
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(body());
        }
        let total = start.elapsed() + first;
        self.mean = Some(total / (n + 1));
    }

    /// Lets `routine` do the timing: it runs the measured code `iters`
    /// times and returns how long that took, leaving set-up it repeats per
    /// iteration outside the clock. `iters` is the group's sample size
    /// (one under `cargo test`).
    pub fn iter_custom(&mut self, mut routine: impl FnMut(u64) -> Duration) {
        let iters = self.iters.max(1);
        self.mean = Some(routine(iters) / iters as u32);
    }
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count (upper bound on iterations here).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n as u64;
        self
    }

    /// Declares the work per iteration of the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    fn run_one(&mut self, label: &str, mut body: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            iters: if test_mode() {
                1
            } else {
                self.criterion.sample_size
            },
            mean: None,
        };
        body(&mut b);
        match (b.mean, self.throughput) {
            (Some(mean), Some(Throughput::Elements(n))) => println!(
                "bench: {}/{label}: {mean:?}/iter ({:.1} ns/elem)",
                self.name,
                mean.as_nanos() as f64 / n.max(1) as f64,
            ),
            (Some(mean), None) => println!("bench: {}/{label}: {mean:?}/iter", self.name),
            (None, _) => println!("bench: {}/{label}: no measurement", self.name),
        }
    }

    /// Benchmarks `body` under `id`.
    pub fn bench_function(&mut self, id: impl fmt::Display, body: impl FnMut(&mut Bencher)) {
        self.run_one(&id.to_string(), body);
    }

    /// Benchmarks `body` with an explicit input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut body: impl FnMut(&mut Bencher, &I),
    ) {
        self.run_one(&id.to_string(), |b| body(b, input));
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 100 }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
            throughput: None,
        }
    }

    /// Benchmarks `body` outside any group.
    pub fn bench_function(&mut self, name: &str, body: impl FnMut(&mut Bencher)) {
        let mut group = self.benchmark_group("");
        group.bench_function(name, body);
        group.finish();
    }
}

/// Re-export matching criterion's (deprecated) helper; prefer
/// `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(10);
        let mut runs = 0u32;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
            });
        });
        group.bench_with_input(BenchmarkId::new("with_input", 3), &3u32, |b, &x| {
            b.iter(|| x * 2);
        });
        group.throughput(Throughput::Elements(4));
        let mut timed = 0u64;
        group.bench_function("custom", |b| {
            b.iter_custom(|iters| {
                timed += iters;
                Duration::from_nanos(40 * iters)
            });
        });
        group.finish();
        assert!(runs >= 1);
        assert!(timed >= 1);
    }

    #[test]
    fn benchmark_id_renders() {
        assert_eq!(BenchmarkId::new("f", 7).to_string(), "f/7");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
