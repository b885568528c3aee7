//! Host-time benchmark of the Dolos reproduction: four workloads, the
//! end-to-end metrics a user of the simulator sees, and a separate traced
//! run that attributes host time to the repository's layers. See
//! `README.md` beside this package for the metric table and the reasoning.

pub mod crash;
pub mod layers;
pub mod measure;
pub mod replay;
pub mod report;
pub mod secure;
pub mod sweep;
pub mod whisper;

use measure::{median, median_secs, peak_rss_mb, percentile, timed_passes, Checks, Pass};
use report::{metric, Metric, Report};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full `experiments bench` cell list at `jobs` = available cores.
    PaperSweep,
    /// The six recorded WHISPER traces replayed through every scheme.
    SecureReplay,
    /// The six WHISPER workloads run against `ideal`.
    WhisperIdeal,
    /// Crash, recover, read back and audit at seeded cut points.
    CrashRecover,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::SecureReplay,
        Workload::WhisperIdeal,
        Workload::CrashRecover,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::SecureReplay => "secure-replay",
            Workload::WhisperIdeal => "whisper-ideal",
            Workload::CrashRecover => "crash-recover",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics of a timed run.
fn end_to_end(passes: &[Pass], checks: &Checks, setup_s: f64) -> Vec<Metric> {
    // Throughput is total work over total time: host speed on a shared
    // machine drifts in phases of several seconds, and a mean over the
    // whole run follows the phase mix where a median would jump between
    // phases.
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let sim_cycles: u64 = passes.iter().map(|p| p.sim_cycles).sum();
    let cells: u64 = passes.iter().map(|p| p.cells).sum();
    let mut cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    vec![
        metric(
            "sim_mcycles_per_s",
            sim_cycles as f64 / wall / 1e6,
            "Mcycles/s",
        ),
        metric("cells_per_s", cells as f64 / wall, "1/s"),
        metric("cell_ms_p50", percentile(&mut cell_ms, 0.50), "ms"),
        metric("cell_ms_p95", percentile(&mut cell_ms, 0.95), "ms"),
        metric("ok_ratio", 1.0 - checks.fail_ratio(), "ratio"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Runs `workload` for `seconds` of measurement. With `traced`, runs the
/// traced variant instead and reports the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    if traced {
        return run_traced(workload, seed, seconds);
    }
    let mut checks = Checks::default();
    let (passes, setup_s, mut extra) = match workload {
        Workload::PaperSweep => {
            let jobs = sweep::nproc();
            let (setup_s, ()) = median_secs(SETUP_REPEATS, || sweep::setup(jobs, &mut checks));
            let mut expected = None;
            let passes = timed_passes(seconds, 1, || {
                sweep::pass(seed, jobs, &mut expected, &mut checks).pass
            });
            (passes, setup_s, Vec::new())
        }
        Workload::SecureReplay => {
            let (setup_s, recorded) = repeated_setup(
                &mut checks,
                || replay::record_all(seed),
                |r| {
                    r.iter()
                        .map(|r| (r.cycles, r.persists, r.trace.len()))
                        .collect::<Vec<_>>()
                },
            );
            let matrix = replay::schemes();
            let mut expected = None;
            let passes = timed_passes(seconds, 1, || {
                secure::pass(&recorded, &matrix, &mut expected, &mut checks, None)
            });
            (passes, setup_s, Vec::new())
        }
        Workload::WhisperIdeal => {
            let mut setup_checks = Checks::default();
            let (setup_s, reference) = repeated_setup(
                &mut checks,
                || whisper::setup(seed, &mut setup_checks),
                Clone::clone,
            );
            checks.absorb(&setup_checks);
            let passes = timed_passes(seconds, 1, || whisper::pass(seed, &reference, &mut checks));
            (passes, setup_s, Vec::new())
        }
        Workload::CrashRecover => {
            let (setup_s, plan) =
                repeated_setup(&mut checks, || crash::setup(seed), |p| p.cuts.clone());
            let mut failures = Vec::new();
            let mut first = true;
            let passes = timed_passes(seconds, 1, || {
                let list = if first { Some(&mut failures) } else { None };
                first = false;
                crash::pass(&plan, &mut checks, list, None)
            });
            report_failures(&failures, plan.rounds());
            let rounds: u64 = passes.iter().map(|p| p.cells).sum();
            let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
            let extra = vec![
                metric("recoveries_per_s", rounds as f64 / wall, "1/s"),
                metric("fail_ratio", checks.fail_ratio(), "ratio"),
            ];
            (passes, setup_s, extra)
        }
    };
    let mut metrics = end_to_end(&passes, &checks, setup_s);
    metrics.append(&mut extra);
    Report { checks, metrics }
}

/// Runs `setup` [`SETUP_REPEATS`] times, checks that every repeat yields
/// the same `key`, and returns the median wall time with the last result.
fn repeated_setup<T, K: PartialEq>(
    checks: &mut Checks,
    mut setup: impl FnMut() -> T,
    key: impl Fn(&T) -> K,
) -> (f64, T) {
    let mut first: Option<K> = None;
    let mut repeats_agree = true;
    let (secs, out) = median_secs(SETUP_REPEATS, || {
        let out = setup();
        let k = key(&out);
        match &first {
            Some(f) => repeats_agree &= *f == k,
            None => first = Some(k),
        }
        out
    });
    checks.check(repeats_agree, || {
        "set-up repeats produced different inputs".into()
    });
    (secs, out)
}

/// Prints every failed crash-recover round, then a count per error.
fn report_failures(failures: &[crash::Failure], rounds: usize) {
    for f in failures {
        eprintln!("crash-recover round failed: {f}");
    }
    let mut by_error: Vec<(String, usize)> = Vec::new();
    for f in failures {
        let key = format!("{} {}", f.step, f.error);
        match by_error.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => by_error.push((key, 1)),
        }
    }
    eprintln!(
        "crash-recover: {} of {rounds} rounds failed per pass",
        failures.len()
    );
    for (key, n) in by_error {
        eprintln!("  {n:4}  {key}");
    }
}

/// Alternates untraced and traced passes of one workload for `seconds`.
/// Returns (untraced, traced) passes.
fn alternate(
    seconds: f64,
    mut untraced: impl FnMut() -> Pass,
    mut traced: impl FnMut() -> Pass,
) -> (Vec<Pass>, Vec<Pass>) {
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut toggle = false;
    let passes = timed_passes(seconds, 4, || {
        toggle = !toggle;
        if toggle {
            untraced()
        } else {
            traced()
        }
    });
    for (i, p) in passes.into_iter().enumerate() {
        if i % 2 == 0 {
            plain.push(p);
        } else {
            spanned.push(p);
        }
    }
    (plain, spanned)
}

/// `trace.overhead` and `trace.coverage` from alternated passes and the
/// host time the traced passes spent inside spans.
fn trace_metrics(plain: &[Pass], spanned: &[Pass], span_ns: f64, jobs: usize) -> Vec<Metric> {
    let mut a: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let mut b: Vec<f64> = spanned.iter().map(|p| p.wall_s).collect();
    let traced_wall: f64 = spanned.iter().map(|p| p.wall_s).sum();
    vec![
        metric(
            "trace.overhead",
            median(&mut b) / median(&mut a) - 1.0,
            "ratio",
        ),
        metric(
            "trace.coverage",
            span_ns / 1e9 / (traced_wall * jobs as f64),
            "ratio",
        ),
    ]
}

/// The traced run: the probe suite over every layer, plus this workload's
/// tracing overhead and span coverage from alternated passes.
fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut checks = Checks::default();
    let (recorded, mut metrics) = layers::attribution(seed);
    metrics.extend(layers::micro());
    let jobs = sweep::nproc();
    let mut own: Vec<Metric> = Vec::new();
    match workload {
        Workload::PaperSweep => {
            let mut expected = None;
            let mut errs = Vec::new();
            let (plain, spanned) = alternate(
                seconds,
                || sweep::pass(seed, jobs, &mut None, &mut Checks::default()).pass,
                || {
                    let s = sweep::pass(seed, jobs, &mut expected, &mut checks);
                    errs.push(s.speedup_err);
                    s.pass
                },
            );
            let busy_ns: f64 = spanned.iter().flat_map(|p| &p.cell_ms).sum::<f64>() * 1e6;
            own.extend(trace_metrics(&plain, &spanned, busy_ns, jobs));
            own.extend(layers::pool_metrics(&spanned, jobs));
            own.push(metric("paper_speedup_err", median(&mut errs), "ratio"));
            metrics.extend(layers::whisper_probe(seed, &mut checks));
            metrics.extend(layers::recovery_probe(seed));
        }
        Workload::SecureReplay => {
            let matrix = replay::schemes();
            let mut expected = None;
            let mut spans = vec![replay::CallSpans::default(); matrix.len()];
            let (plain, spanned) = alternate(
                seconds,
                || secure::pass(&recorded, &matrix, &mut None, &mut Checks::default(), None),
                || {
                    secure::pass(
                        &recorded,
                        &matrix,
                        &mut expected,
                        &mut checks,
                        Some(&mut spans),
                    )
                },
            );
            let span_ns: f64 = spans.iter().map(replay::CallSpans::total_ns).sum();
            own.extend(trace_metrics(&plain, &spanned, span_ns, 1));
            metrics.extend(layers::whisper_probe(seed, &mut checks));
            metrics.extend(layers::recovery_probe(seed));
            own.extend(sweep_probe(seed, jobs, &mut checks));
        }
        Workload::WhisperIdeal => {
            let reference = whisper::setup(seed, &mut checks);
            let mut spans = whisper::TxnSpans::default();
            let (plain, spanned) = alternate(
                seconds,
                || whisper::pass(seed, &reference, &mut Checks::default()),
                || whisper::traced_pass(seed, &reference, &mut checks, &mut spans),
            );
            own.extend(trace_metrics(&plain, &spanned, spans.total_ns(), 1));
            metrics.extend(layers::whisper_metrics(&mut spans));
            metrics.extend(layers::recovery_probe(seed));
            own.extend(sweep_probe(seed, jobs, &mut checks));
        }
        Workload::CrashRecover => {
            let plan = crash::setup(seed);
            let mut spans = crash::RecoverySpans::default();
            let mut rounds = Checks::default();
            let (plain, spanned) = alternate(
                seconds,
                || crash::pass(&plan, &mut Checks::default(), None, None),
                || crash::pass(&plan, &mut rounds, None, Some(&mut spans)),
            );
            own.extend(trace_metrics(&plain, &spanned, spans.total_ns(), 1));
            metrics.extend(layers::whisper_probe(seed, &mut checks));
            metrics.extend(layers::recovery_metrics(&mut spans, &spanned, &rounds));
            own.extend(sweep_probe(seed, jobs, &mut checks));
            // This workload's own rounds are its operations.
            checks.absorb(&rounds);
        }
    }
    metrics.extend(own);
    Report { checks, metrics }
}

/// One full-scale sweep for the pool metrics and the paper speedup error.
fn sweep_probe(seed: u64, jobs: usize, checks: &mut Checks) -> Vec<Metric> {
    let mut speedup_err = 0.0;
    let pass = layers::once(|| {
        let s = sweep::pass(seed, jobs, &mut None, checks);
        speedup_err = s.speedup_err;
        s.pass
    });
    let mut out = layers::pool_metrics(&[pass], jobs);
    out.push(metric("paper_speedup_err", speedup_err, "ratio"));
    out
}
