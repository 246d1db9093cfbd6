//! Offline stand-in for `criterion`.
//!
//! Implements the `criterion_group!`/`criterion_main!` entry points and the
//! `Criterion` → `BenchmarkGroup` → `Bencher::iter` API used by the bench
//! targets, with a simple calibrated timing loop instead of criterion's
//! statistical machinery. Each benchmark prints its mean per-iteration time
//! (and throughput when configured). Under `--test` (how `cargo test` runs
//! `harness = false` bench targets) every benchmark executes exactly one
//! iteration as a smoke check.
//!
//! One addition criterion does not have: [`BenchmarkGroup::bench_pair`],
//! an added cost timed off and on in alternating batches of one loop.

use std::hint;
use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a value or the work producing it.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Throughput units for per-second reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A named benchmark id (`BenchmarkId::new("op", param)`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Compose a function name and a parameter display.
    pub fn new<S: std::fmt::Display, P: std::fmt::Display>(name: S, param: P) -> BenchmarkId {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// The timing loop handle passed to each benchmark closure.
pub struct Bencher {
    smoke_only: bool,
    measured: Option<Duration>,
}

impl Bencher {
    /// Run `f` repeatedly and record its mean execution time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.smoke_only {
            black_box(f());
            self.measured = Some(Duration::ZERO);
            return;
        }
        // Calibrate: grow the batch until it runs for at least ~10 ms.
        let mut batch: u64 = 1;
        let batch_time = loop {
            let t = time_batch(&mut f, batch);
            if t >= Duration::from_millis(10) || batch >= 1 << 30 {
                break t;
            }
            batch *= 4;
        };
        // Measure: several batches, keep the best (least-noise) mean. The
        // minimum is the standard contention-resistant estimator — shared
        // CPUs only ever add time, never subtract it.
        let best = (0..8).fold(batch_time, |best, _| best.min(time_batch(&mut f, batch)));
        self.measured = Some(best / batch as u32);
    }
}

/// Run `f` `n` times; how long that took.
fn time_batch<O>(f: &mut impl FnMut() -> O, n: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..n {
        black_box(f());
    }
    start.elapsed()
}

/// The timing loop handle passed to each [`BenchmarkGroup::bench_pair`]
/// closure.
pub struct PairBencher {
    smoke_only: bool,
    /// Each side's best batch mean, and the first quartile, median and
    /// third quartile of the per-batch ratio `b / a`.
    measured: Option<([Duration; 2], [f64; 3])>,
}

impl PairBencher {
    /// Time `f(false)` (side `a`) and `f(true)` (`a` plus the added cost)
    /// in 500 alternating ~2 ms batches each, `a` first in even rounds, so
    /// drift and the cost of going first fall on both alike. One routine
    /// over one state: two routines or two copies of the state each have a
    /// code and data layout of their own, which differ by as much as the
    /// cost being measured.
    pub fn iter<O>(&mut self, mut f: impl FnMut(bool) -> O) {
        if self.smoke_only {
            black_box((f(false), f(true)));
            return;
        }
        let mut side = |b: bool, n: u64| time_batch(&mut || f(b), n);
        let mut batch: u64 = 1;
        while side(false, batch) < Duration::from_millis(2) && batch < 1 << 30 {
            batch *= 2;
        }
        let mut times: [Vec<Duration>; 2] = Default::default();
        for round in 0..500 {
            for b in [round % 2 == 1, round % 2 == 0] {
                times[b as usize].push(side(b, batch));
            }
        }
        let [a, b] = &times;
        let mut ratios: Vec<f64> = a
            .iter()
            .zip(b)
            .map(|(a, b)| b.as_secs_f64() / a.as_secs_f64())
            .collect();
        ratios.sort_by(f64::total_cmp);
        let quartiles = [1, 2, 3].map(|q| ratios[q * ratios.len() / 4]);
        let best = times.map(|t| *t.iter().min().expect("batches") / batch as u32);
        self.measured = Some((best, quartiles));
    }
}

fn report(name: &str, time: Duration, throughput: Option<Throughput>) {
    if time.is_zero() {
        println!("bench {name:50} smoke-tested (1 iteration)");
        return;
    }
    let ns = time.as_nanos();
    match throughput {
        Some(Throughput::Bytes(b)) if ns > 0 => {
            let gib_s = b as f64 / time.as_secs_f64() / (1024.0 * 1024.0 * 1024.0);
            println!("bench {name:50} {ns:>12} ns/iter  {gib_s:>9.3} GiB/s");
        }
        Some(Throughput::Elements(e)) if ns > 0 => {
            let melem_s = e as f64 / time.as_secs_f64() / 1.0e6;
            println!("bench {name:50} {ns:>12} ns/iter  {melem_s:>9.3} Melem/s");
        }
        _ => println!("bench {name:50} {ns:>12} ns/iter"),
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    parent: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the throughput used for per-second reporting.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Run one benchmark in the group.
    pub fn bench_function<S: std::fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) {
        let mut b = Bencher {
            smoke_only: self.parent.smoke_only,
            measured: None,
        };
        f(&mut b);
        let full = format!("{}/{}", self.name, id);
        report(&full, b.measured.unwrap_or_default(), self.throughput);
    }

    /// Run two benchmarks as one pair: `b` is `a` plus one added cost,
    /// paid `events` times per iteration. Each is reported as by
    /// [`bench_function`](Self::bench_function) (its best batch), and then
    /// `b`'s `/ratio` to `a`, the median over the batch pairs followed by
    /// its quartiles, and its `/extra_ns_per_event`: the added cost the
    /// ratio says, priced at `a`'s best batch. A shared machine slows both
    /// sides of a pair alike, which moves their difference in ns but not
    /// their ratio, nor `a`'s best batch.
    pub fn bench_pair<S: std::fmt::Display, F: FnMut(&mut PairBencher)>(
        &mut self,
        a: S,
        b: S,
        events: u64,
        mut f: F,
    ) {
        let mut p = PairBencher {
            smoke_only: self.parent.smoke_only,
            measured: None,
        };
        f(&mut p);
        let (a, b) = (
            format!("{}/{}", self.name, a),
            format!("{}/{}", self.name, b),
        );
        let Some(([ta, tb], ratio)) = p.measured else {
            report(&a, Duration::ZERO, None);
            return report(&b, Duration::ZERO, None);
        };
        report(&a, ta, self.throughput);
        report(&b, tb, self.throughput);
        let [q1, median, q3] = ratio;
        let name = format!("{b}/ratio");
        println!("bench {name:50} {median:>12.4} ratio     q1 {q1:.4} q3 {q3:.4}");
        let per_event = (ta.as_nanos() as f64) / events.max(1) as f64;
        let [q1, median, q3] = ratio.map(|r| (r - 1.0) * per_event);
        let name = format!("{b}/extra_ns_per_event");
        println!("bench {name:50} {median:>12.2} ns/event  q1 {q1:.2} q3 {q3:.2}");
    }

    /// Finish the group (reporting is incremental; this is a no-op).
    pub fn finish(self) {}
}

/// The benchmark driver.
pub struct Criterion {
    smoke_only: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // `cargo test` runs harness=false bench binaries with `--test`;
        // `cargo bench` passes `--bench`. Smoke mode keeps test runs fast.
        let smoke = std::env::args().any(|a| a == "--test")
            || std::env::var_os("CRITERION_SMOKE").is_some();
        Criterion { smoke_only: smoke }
    }
}

impl Criterion {
    /// Open a named group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<S: std::fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) {
        let mut b = Bencher {
            smoke_only: self.smoke_only,
            measured: None,
        };
        f(&mut b);
        report(&id.to_string(), b.measured.unwrap_or_default(), None);
    }

    /// Configuration hook (accepted and ignored).
    pub fn configure_from_args(self) -> Criterion {
        self
    }
}

/// Declare a benchmark group function, as in real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declare the bench binary's `main`, as in real criterion.
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
    fn smoke_mode_runs_once() {
        let mut c = Criterion { smoke_only: true };
        let mut runs = 0u32;
        c.bench_function("counter", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        assert_eq!(runs, 1);
    }

    #[test]
    fn a_pair_runs_each_routine_once_in_smoke_mode() {
        let mut c = Criterion { smoke_only: true };
        let mut g = c.benchmark_group("g");
        let (mut a, mut b) = (0u32, 0u32);
        g.bench_pair("a", "b", 1, |p| {
            p.iter(|tap| if tap { b += 1 } else { a += 1 })
        });
        assert_eq!((a, b), (1, 1));
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion { smoke_only: true };
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Bytes(128));
        g.bench_function("f", |b| b.iter(|| black_box(2 + 2)));
        g.finish();
    }
}
