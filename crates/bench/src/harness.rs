//! Minimal self-contained benchmark harness.
//!
//! Exposes the small slice of the Criterion API the benches in
//! `benches/` use (`Criterion`, `BenchmarkGroup`, `Bencher`,
//! `BenchmarkId`, `Throughput`, plus the `criterion_group!` /
//! `criterion_main!` macros) so the experiment files read identically
//! to their statistics-grade counterparts while depending on nothing
//! outside the standard library.
//!
//! Measurement model: each benchmark id is calibrated with a single
//! timed iteration, then sampled `SAMPLES` times with an iteration
//! count sized so one sample takes roughly `TARGET_SAMPLE_TIME`; the
//! reported figure is the median nanoseconds per iteration. Set
//! `SUBG_BENCH_FAST=1` to run one sample of one iteration per id
//! (useful as a smoke test).

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub use crate::{criterion_group, criterion_main};

const SAMPLES: usize = 7;
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(10);
const MAX_ITERS: u64 = 10_000;

fn fast_mode() -> bool {
    std::env::var_os("SUBG_BENCH_FAST").is_some_and(|v| v != "0")
}

/// Top-level driver handed to each registered benchmark function.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, None, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput used to derive an elements/second figure.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for Criterion compatibility; sampling here is fixed.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for Criterion compatibility; sampling here is fixed.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs a benchmark identified by `id` with a borrowed input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id.0);
        run_one(&name, self.throughput, &mut |b| f(b, input));
        self
    }

    /// Runs a benchmark identified by a bare function name.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.name, name);
        run_one(&name, self.throughput, &mut f);
        self
    }

    /// Ends the group (no-op; provided for source compatibility).
    pub fn finish(self) {}
}

/// Timer handle passed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`, discarding (but not optimizing out)
    /// each result.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `<function>/<parameter>` form.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// Work per iteration, for derived rate reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

fn run_one(name: &str, throughput: Option<Throughput>, f: &mut dyn FnMut(&mut Bencher)) {
    let median_ns = measure_median_ns(f);
    let rate = throughput.map(|t| {
        let (n, unit) = match t {
            Throughput::Elements(n) => (n, "elem/s"),
            Throughput::Bytes(n) => (n, "B/s"),
        };
        let per_sec = if median_ns == 0 {
            f64::INFINITY
        } else {
            n as f64 * 1e9 / median_ns as f64
        };
        format!("  {per_sec:.0} {unit}")
    });
    println!(
        "bench {name:<48} {:>12} ns/iter{}",
        median_ns,
        rate.unwrap_or_default()
    );
}

/// Calibrates then samples a benchmark body; returns median ns/iter.
fn measure_median_ns(f: &mut dyn FnMut(&mut Bencher)) -> u64 {
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b); // warmup + calibration
    if fast_mode() {
        return b.elapsed.as_nanos() as u64;
    }
    let per = b.elapsed.max(Duration::from_nanos(1));
    let iters = (TARGET_SAMPLE_TIME.as_nanos() / per.as_nanos()).clamp(1, MAX_ITERS as u128) as u64;
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        samples.push(b.elapsed.as_nanos() as u64 / iters.max(1));
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Registers benchmark functions under a group name, mirroring
/// Criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emits `fn main` running the registered groups, mirroring
/// Criterion's macro of the same name.
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
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("dfs", 40).0, "dfs/40");
        assert_eq!(BenchmarkId::from_parameter(16).0, "16");
    }

    #[test]
    fn measure_reports_positive_time() {
        std::env::set_var("SUBG_BENCH_FAST", "1");
        let ns =
            measure_median_ns(&mut |b| b.iter(|| std::hint::black_box((0..100u64).sum::<u64>())));
        let _ = ns; // zero is possible on coarse clocks; just must not panic
    }
}
