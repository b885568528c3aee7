//! Self-tests of the benchmark: determinism of what it treats as exact,
//! seed plumbing, and agreement with `BENCHMARK.json`.

use dolos_perfbench::measure::Checks;
use dolos_perfbench::report::Report;
use dolos_perfbench::{crash, layers, replay, run, sweep, whisper, Workload};

const HELD_OUT_SEED: u64 = 7;

fn names_in(section: &str) -> Vec<String> {
    section
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

/// (workloads, end-to-end, per-layer) names listed in `BENCHMARK.json`.
fn benchmark_json() -> (Vec<String>, Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer_at = text.find("\"per_layer\"").expect("per_layer section");
    let work_at = text.find("\"workloads\"").expect("workloads section");
    assert!(work_at < e2e_at && e2e_at < layer_at, "section order");
    (
        names_in(&text[work_at..e2e_at]),
        names_in(&text[e2e_at..layer_at]),
        names_in(&text[layer_at..]),
    )
}

fn metric_names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn paper_sweep_outputs_do_not_depend_on_worker_count() {
    let jobs = sweep::nproc().max(2);
    let serial = sweep::run(400, 48, sweep::FIXED_POINT_SEED, 1);
    let parallel = sweep::run(400, 48, sweep::FIXED_POINT_SEED, jobs);
    assert_eq!(sweep::fingerprint(&serial), sweep::fingerprint(&parallel));
    for (a, b) in serial.iter().zip(&parallel) {
        let csv = |o: &dolos_bench::experiments::BenchOutcome| {
            o.tables.iter().map(|t| t.to_csv()).collect::<String>()
        };
        assert_eq!(csv(a), csv(b), "{} tables differ", a.id.name());
    }
    let want: Vec<(&str, u64, u64)> = sweep::FULL_SCALE.to_vec();
    assert_eq!(sweep::fingerprint(&serial), want);
}

#[test]
fn deterministic_counts_repeat_exactly() {
    let exact = |seed| -> Vec<(String, f64)> {
        layers::attribution(seed)
            .1
            .into_iter()
            .filter(|m| matches!(m.unit, "count" | "cycles" | "retries/kwr" | "ratio"))
            .map(|m| (m.name, m.value))
            .collect()
    };
    let first = exact(HELD_OUT_SEED);
    assert!(
        first.len() >= 70,
        "expected per-scheme counts, got {}",
        first.len()
    );
    assert_eq!(first, exact(HELD_OUT_SEED));
}

#[test]
fn seed_reaches_every_workload() {
    let a = sweep::FIXED_POINT_SEED;
    let b = HELD_OUT_SEED;
    // paper-sweep: the CI-scale sweep's cycles depend on the seed.
    let cycles = |seed| sweep::fingerprint(&sweep::run(10, 4, seed, 1));
    assert_ne!(cycles(a), cycles(b));
    // secure-replay and crash-recover record their traces from the seed.
    let recorded =
        |seed| -> Vec<u64> { replay::record_all(seed).iter().map(|r| r.cycles).collect() };
    assert_ne!(recorded(a), recorded(b));
    // crash-recover draws its cut points from the seed.
    assert_ne!(crash::setup(a).cuts, crash::setup(b).cuts);
    // whisper-ideal runs each workload from the seed.
    let mut checks = Checks::default();
    assert_ne!(
        whisper::setup(a, &mut checks),
        whisper::setup(b, &mut checks)
    );
    assert_eq!(checks.failed, 0);
}

#[test]
fn held_out_seed_passes_every_check_but_the_fixed_points() {
    for workload in [
        Workload::SecureReplay,
        Workload::WhisperIdeal,
        Workload::PaperSweep,
    ] {
        let report = run(workload, HELD_OUT_SEED, 0.0, false);
        assert!(report.correct(), "{}: {:?}", workload.name(), report.checks);
    }
    // The fixed points add one check per experiment plus the total.
    let mut at_fixed = Checks::default();
    let mut held_out = Checks::default();
    let jobs = sweep::nproc();
    sweep::pass(sweep::FIXED_POINT_SEED, jobs, &mut None, &mut at_fixed);
    sweep::pass(HELD_OUT_SEED, jobs, &mut None, &mut held_out);
    assert_eq!(
        at_fixed.attempted,
        held_out.attempted + sweep::FULL_SCALE.len() as u64 + 1
    );
    assert_eq!((at_fixed.failed, held_out.failed), (0, 0));
}

#[test]
fn crash_recover_counts_every_round() {
    let plan = crash::setup(HELD_OUT_SEED);
    let mut checks = Checks::default();
    let mut failures = Vec::new();
    crash::pass(&plan, &mut checks, Some(&mut failures), None);
    assert_eq!(checks.attempted, plan.rounds() as u64);
    assert_eq!(checks.failed, failures.len() as u64);
    for f in &failures {
        assert!(!f.error.is_empty() && f.cut > 0, "{f}");
    }
}

#[test]
fn replay_matches_trace_replay() {
    let rec = replay::record(
        dolos_whisper::workloads::WorkloadKind::Hashmap,
        HELD_OUT_SEED,
    );
    for scheme in replay::schemes() {
        let ours = replay::replay(&rec.trace, &scheme.config, None);
        let theirs = rec.trace.replay(scheme.config.clone());
        assert_eq!(
            (ours.cycles, ours.persists),
            (theirs.cycles, theirs.persists),
            "{}",
            scheme.label
        );
    }
}

#[test]
fn every_listed_metric_is_reported() {
    let (workloads, e2e, per_layer) = benchmark_json();
    assert!(e2e.iter().any(|n| n == "setup_s"));
    for name in &workloads {
        let workload = Workload::parse(name).expect("listed workload exists");
        let timed = run(workload, HELD_OUT_SEED, 0.0, false);
        assert_eq!(metric_names(&timed), e2e, "{name} end-to-end metrics");
        assert!(
            timed.metrics.iter().all(|m| m.value > 0.0),
            "{name}: a 0 end-to-end metric"
        );
    }
    let traced = run(Workload::WhisperIdeal, HELD_OUT_SEED, 0.0, true);
    assert_eq!(metric_names(&traced), per_layer, "per-layer metrics");
    assert!(traced.correct(), "{:?}", traced.checks);
}
