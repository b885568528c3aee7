//! Minimal wall-clock micro-benchmark harness (criterion replacement).
//!
//! The workspace builds offline with no external crates, so the `[[bench]]`
//! targets use this self-contained harness instead of criterion. It keeps the
//! two behaviours that matter:
//!
//! * under `cargo bench` (cargo passes `--bench`) each benchmark is warmed up,
//!   calibrated to a batch that fills the target time, and timed over five
//!   such batches; the row reports their median ns/iter with the min and max;
//! * under `cargo test` (no `--bench` flag) each benchmark runs a single
//!   iteration as a smoke test, so bench targets stay compiled and correct
//!   without slowing the test suite down.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Re-exported so bench files only import from this module.
pub use std::hint::black_box as bb;

/// How a [`Bench`] run executes: full timing or a single smoke iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Warm up, then time calibrated batches (under `cargo bench`).
    Measure,
    /// One iteration per benchmark (under `cargo test`).
    Smoke,
}

/// A named collection of micro-benchmarks.
#[derive(Debug)]
pub struct Bench {
    suite: &'static str,
    mode: Mode,
    target_time: Duration,
}

impl Bench {
    /// Creates a harness for `suite`, inspecting the process arguments to
    /// decide between measure mode (`--bench` present, as `cargo bench`
    /// passes) and smoke mode (`cargo test`).
    pub fn from_args(suite: &'static str) -> Self {
        let measure = std::env::args().any(|a| a == "--bench");
        Self {
            suite,
            mode: if measure { Mode::Measure } else { Mode::Smoke },
            target_time: Duration::from_millis(200),
        }
    }

    /// Runs one benchmark: `f` is invoked repeatedly and its result is
    /// black-boxed so the work cannot be optimized away.
    pub fn run<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        match self.mode {
            Mode::Smoke => {
                black_box(f());
                println!("{}/{name}: ok (smoke)", self.suite);
            }
            Mode::Measure => {
                let (iters, ns) = self.measure(&mut f);
                println!(
                    "{}/{name}: {:.1} ns/iter (median of {} batches of {iters} iters, \
                     min {:.1}, max {:.1})",
                    self.suite,
                    ns[ns.len() / 2],
                    ns.len(),
                    ns[0],
                    ns[ns.len() - 1]
                );
            }
        }
    }

    /// Calibrates an iteration count that fills the target time, then times
    /// [`BATCHES`] batches of that many iterations. Returns the count and
    /// the per-batch ns/iter, sorted ascending. One batch swings with the
    /// host's load; the median of several, reported with the fastest and
    /// slowest batch, shows how far a row can be trusted.
    fn measure<T>(&self, f: &mut impl FnMut() -> T) -> (u64, Vec<f64>) {
        let mut iters = 1u64;
        loop {
            let elapsed = time_batch(f, iters);
            if elapsed >= self.target_time || iters >= 1 << 30 {
                break;
            }
            let grow = if elapsed.is_zero() {
                16
            } else {
                (self.target_time.as_nanos() / elapsed.as_nanos().max(1)) as u64 + 1
            };
            iters = iters.saturating_mul(grow.clamp(2, 16));
        }
        let mut ns: Vec<f64> = (0..BATCHES)
            .map(|_| time_batch(f, iters).as_nanos() as f64 / iters as f64)
            .collect();
        ns.sort_by(f64::total_cmp);
        (iters, ns)
    }
}

/// Timed batches per measured row, after calibration.
const BATCHES: usize = 5;

/// Runs `f` `iters` times, black-boxing every result; returns the wall time.
fn time_batch<T>(f: &mut impl FnMut() -> T, iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        let mut b = Bench {
            suite: "t",
            mode: Mode::Smoke,
            target_time: Duration::from_millis(1),
        };
        let mut calls = 0u32;
        b.run("probe", || calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn measure_mode_runs_many() {
        let mut b = Bench {
            suite: "t",
            mode: Mode::Measure,
            target_time: Duration::from_micros(50),
        };
        let mut calls = 0u64;
        b.run("probe", || calls += 1);
        assert!(calls > 1);
    }

    #[test]
    fn measure_mode_times_at_least_five_batches() {
        let b = Bench {
            suite: "t",
            mode: Mode::Measure,
            target_time: Duration::from_micros(50),
        };
        let mut calls = 0u64;
        let (iters, ns) = b.measure(&mut || calls += 1);
        assert!(ns.len() >= 5, "{} batches", ns.len());
        assert!(ns.windows(2).all(|w| w[0] <= w[1]), "sorted: {ns:?}");
        // Calibration plus every timed batch ran the closure.
        assert!(calls > iters * ns.len() as u64);
    }
}
