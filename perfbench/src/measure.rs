//! Host-time measurement helpers: the timed pass loop, order statistics,
//! output checks and peak resident memory.

use std::time::{Duration, Instant};

/// One timed pass over a workload's fixed unit of work.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host wall time of the whole pass, seconds.
    pub wall_s: f64,
    /// Simulated cycles the pass produced.
    pub sim_cycles: u64,
    /// Cells completed in the pass.
    pub cells: u64,
    /// Host wall time of each timed cell, milliseconds.
    pub cell_ms: Vec<f64>,
}

/// Runs `pass` repeatedly until `seconds` of host time have elapsed (at
/// least `min_passes` times), stamping each pass with its wall time.
pub fn timed_passes(seconds: f64, min_passes: usize, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.elapsed() < budget {
        let t = Instant::now();
        let mut p = pass();
        p.wall_s = t.elapsed().as_secs_f64();
        passes.push(p);
    }
    passes
}

/// Runs `f` `times` times and returns the median wall time in seconds plus
/// the last result.
pub fn median_secs<R>(times: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t = Instant::now();
        last = Some(f());
        walls.push(t.elapsed().as_secs_f64());
    }
    (median(&mut walls), last.expect("ran at least once"))
}

/// Median of `values` (sorted in place). 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (sorted in place).
/// 0 for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Nanoseconds elapsed since `start`, as a float.
pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Times `f` over `iters` calls, `batches` times, and returns the median
/// nanoseconds per call.
pub fn ns_per_call(batches: usize, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            ns_since(t) / iters as f64
        })
        .collect();
    median(&mut per_call)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tally of output checks: every check is one attempted operation, and a
/// failed check is one failed operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failure is reported on stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed checks divided by attempted checks.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.5), 3.0);
        assert_eq!(percentile(&mut v, 0.95), 5.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check(false, || "expected".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.fail_ratio(), 0.5);
    }
}
