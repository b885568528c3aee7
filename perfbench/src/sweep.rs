//! `paper-sweep`: the full `experiments bench` cell list — every table and
//! figure — through the work-stealing pool at `jobs` = available cores.

use dolos_bench::experiments::BenchOutcome;
use dolos_bench::{paper, ExperimentConfig, ExperimentId};

use crate::measure::{Checks, Pass};

/// The seed at which the committed full-scale figures were produced.
pub const FIXED_POINT_SEED: u64 = 24301;

/// Per experiment: (name, cells, simulated cycles) of the committed
/// full-scale run (400 transactions, 48 warm-up, seed 24301), as recorded
/// in the repository's `BENCH_2026-08-08.json`.
pub const FULL_SCALE: [(&str, u64, u64); 13] = [
    ("fig6", 12, 233_986_469),
    ("fig12", 24, 443_485_978),
    ("table2", 18, 293_554_461),
    ("fig13", 30, 417_984_245),
    ("fig14", 60, 1_055_031_778),
    ("fig15", 48, 937_267_601),
    ("fig16", 24, 358_952_676),
    ("table3", 3, 0),
    ("recovery", 3, 1_724_185),
    ("ablations", 20, 348_487_832),
    ("extended", 9, 189_089_752),
    ("conformance", 0, 0),
    ("banks", 4, 26_895_222),
];

/// Total cells and simulated cycles of the committed full-scale run.
pub const FULL_SCALE_TOTAL: (u64, u64) = (255, 4_306_460_199);

/// The sim-cycle golden the repository's CI compares against (10
/// transactions, 4 warm-up, seed 24301), as in
/// `ci/bench_sim_cycles.golden.json`.
pub const TINY_GOLDEN: [(&str, u64); 13] = [
    ("fig6", 5_704_848),
    ("fig12", 10_797_170),
    ("table2", 7_101_998),
    ("fig13", 10_144_225),
    ("fig14", 26_055_475),
    ("fig15", 23_025_284),
    ("fig16", 8_805_850),
    ("table3", 0),
    ("recovery", 1_724_185),
    ("ablations", 7_582_488),
    ("extended", 4_468_855),
    ("conformance", 0),
    ("banks", 502_818),
];

/// Worker threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs the flat bench sweep over every experiment.
pub fn run(transactions: usize, warmup: usize, seed: u64, jobs: usize) -> Vec<BenchOutcome> {
    let mut config = ExperimentConfig::default();
    config.transactions = transactions;
    config.warmup = warmup;
    config.seed = seed;
    config.jobs = jobs;
    config.bench_flat(&ExperimentId::ALL)
}

/// The wall-free part of an outcome list: (name, cells, simulated cycles).
pub fn fingerprint(outcomes: &[BenchOutcome]) -> Vec<(&'static str, u64, u64)> {
    outcomes
        .iter()
        .map(|o| (o.id.name(), o.cells, o.sim_cycles))
        .collect()
}

/// Set-up: the CI-scale sweep (10 transactions, 4 warm-up, seed 24301),
/// checked against the CI sim-cycle golden.
pub fn setup(jobs: usize, checks: &mut Checks) {
    let got = fingerprint(&run(10, 4, FIXED_POINT_SEED, jobs));
    for (want, have) in TINY_GOLDEN.iter().zip(&got) {
        checks.check(want.0 == have.0 && want.1 == have.2, || {
            format!(
                "CI-scale golden {}: {} sim cycles, want {}",
                have.0, have.2, want.1
            )
        });
    }
}

/// Mean absolute relative error of the Figure 12 and Figure 16 average
/// Full/Partial/Post speedups against the paper's.
pub fn speedup_err(outcomes: &[BenchOutcome]) -> Option<f64> {
    let avg = |id: ExperimentId| -> Option<Vec<f64>> {
        let table = outcomes.iter().find(|o| o.id == id)?.tables.first()?;
        let csv = table.to_csv();
        let row = csv.lines().find(|l| l.starts_with("AVG,"))?;
        row.split(',')
            .skip(1)
            .take(3)
            .map(|v| v.parse().ok())
            .collect()
    };
    let (f12, f16) = (paper::FIG12_AVG_SPEEDUP, paper::FIG16_AVG_SPEEDUP);
    let want = [f12.0, f12.1, f12.2, f16.0, f16.1, f16.2];
    let mut got = avg(ExperimentId::Fig12)?;
    got.extend(avg(ExperimentId::Fig16)?);
    if got.len() != want.len() {
        return None;
    }
    Some(
        got.iter()
            .zip(want)
            .map(|(g, w)| (g / w - 1.0).abs())
            .sum::<f64>()
            / want.len() as f64,
    )
}

/// The outcome of one full-scale sweep.
#[derive(Debug, Clone)]
pub struct SweepPass {
    /// Cells, simulated cycles and per-cell walls.
    pub pass: Pass,
    /// Figure 12/16 speedup error against the paper.
    pub speedup_err: f64,
}

/// One full-scale pass. Checks every experiment's cell count, the
/// committed per-experiment and total simulated cycles at seed 24301, and
/// that simulated cycles repeat `expected` (the first pass) exactly.
pub fn pass(
    seed: u64,
    jobs: usize,
    expected: &mut Option<Vec<u64>>,
    checks: &mut Checks,
) -> SweepPass {
    let outcomes = run(400, 48, seed, jobs);
    let got = fingerprint(&outcomes);
    for (want, have) in FULL_SCALE.iter().zip(&got) {
        checks.check(want.0 == have.0 && want.1 == have.1, || {
            format!("{}: {} cells, want {} {}", have.0, have.1, want.0, want.1)
        });
        if seed == FIXED_POINT_SEED {
            checks.check(want.2 == have.2, || {
                format!("{}: {} sim cycles, committed {}", have.0, have.2, want.2)
            });
        }
    }
    let cells: u64 = got.iter().map(|g| g.1).sum();
    let cycles: u64 = got.iter().map(|g| g.2).sum();
    checks.check(cells == FULL_SCALE_TOTAL.0, || {
        format!("{cells} cells, want 255")
    });
    if seed == FIXED_POINT_SEED {
        checks.check(cycles == FULL_SCALE_TOTAL.1, || {
            format!(
                "{cycles} total sim cycles, committed {}",
                FULL_SCALE_TOTAL.1
            )
        });
    }
    let per_experiment: Vec<u64> = got.iter().map(|g| g.2).collect();
    match expected {
        Some(first) => checks.check(*first == per_experiment, || {
            format!("sim cycles {per_experiment:?} differ from the first pass {first:?}")
        }),
        None => *expected = Some(per_experiment),
    }
    let speedup_err = speedup_err(&outcomes);
    checks.check(speedup_err.is_some(), || {
        "Figure 12/16 AVG rows missing".into()
    });
    SweepPass {
        pass: Pass {
            wall_s: 0.0,
            sim_cycles: cycles,
            cells,
            cell_ms: outcomes
                .iter()
                .flat_map(|o| o.cell_wall_ms.iter().copied())
                .collect(),
        },
        speedup_err: speedup_err.unwrap_or(0.0),
    }
}
