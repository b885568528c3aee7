//! The experiment implementations, one per table/figure.
//!
//! Every workload × controller sweep is expressed as an ordered list of
//! `Cell`s and executed through the deterministic work-stealing pool
//! ([`dolos_sim::pool::run_indexed`]), so the rendered tables are identical
//! at any `jobs` value: workers claim index blocks from a shared queue but
//! results land in an index-addressed slab and are merged in cell order,
//! never completion order.
//!
//! Each sweep is split into a *cell builder* and a *renderer* so the two
//! execution shapes share one implementation:
//!
//! * `experiments <id>` runs one experiment's cells through the pool and
//!   renders immediately ([`ExperimentConfig::run`]);
//! * `experiments bench` concatenates every selected experiment's cells
//!   into one global list and runs it through
//!   [`dolos_sim::pool::run_indexed_weighted`] (longest-cell-first by a
//!   static cost hint), so one figure's stragglers overlap another's short
//!   cells instead of serializing behind a per-figure barrier
//!   ([`ExperimentConfig::bench_flat`]). Results are sliced back per
//!   experiment by index, so every table and JSON byte matches the
//!   per-experiment path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dolos_core::{ControllerConfig, MiSuKind, UpdateScheme};
use dolos_whisper::runner::{run_workload, RunConfig, RunResult};
use dolos_whisper::workloads::WorkloadKind;

use crate::paper;
use crate::report::{f1, f2, f3, Table};

/// Which experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Figure 6 — CPI: security before vs after the WPQ.
    Fig6,
    /// Figure 12 — speedups of the three Mi-SU designs (eager).
    Fig12,
    /// Table 2 — WPQ insertion retries per KWR.
    Table2,
    /// Figure 13 — Partial retries across transaction sizes.
    Fig13,
    /// Figure 14 — Partial speedups across transaction sizes.
    Fig14,
    /// Figure 15 — speedup and retries vs WPQ size.
    Fig15,
    /// Figure 16 — speedups with the lazy (ToC) scheme.
    Fig16,
    /// Table 3 — Mi-SU storage overhead.
    Table3,
    /// §5.5 — Mi-SU recovery-time estimate and measured recovery.
    Recovery,
    /// Ablations beyond the paper: MAC latency, coalescing, counter cache,
    /// Osiris phase.
    Ablations,
    /// Extension workloads (Memcached, Vacation) under Figure-12 conditions,
    /// plus the eADR comparison the introduction alludes to.
    Extended,
    /// Conformance — the dolos-verify differential matrix and metamorphic
    /// invariants over a seeded campaign (DESIGN.md §12).
    Conformance,
    /// Banked-WPQ sweep (beyond the paper) — Figure 16's lazy-ToC condition
    /// made genuinely drain-bound, across bank counts (DESIGN.md §16).
    Banks,
}

impl ExperimentId {
    /// All experiments, in paper order (extensions last).
    pub const ALL: [ExperimentId; 13] = [
        ExperimentId::Fig6,
        ExperimentId::Fig12,
        ExperimentId::Table2,
        ExperimentId::Fig13,
        ExperimentId::Fig14,
        ExperimentId::Fig15,
        ExperimentId::Fig16,
        ExperimentId::Table3,
        ExperimentId::Recovery,
        ExperimentId::Ablations,
        ExperimentId::Extended,
        ExperimentId::Conformance,
        ExperimentId::Banks,
    ];

    /// CLI name ("fig6", "table2", ...).
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Table2 => "table2",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Fig15 => "fig15",
            ExperimentId::Fig16 => "fig16",
            ExperimentId::Table3 => "table3",
            ExperimentId::Recovery => "recovery",
            ExperimentId::Ablations => "ablations",
            ExperimentId::Extended => "extended",
            ExperimentId::Conformance => "conformance",
            ExperimentId::Banks => "banks",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.name() == name)
    }
}

/// One simulation cell of a sweep: workload × controller × transaction size.
///
/// Cells are fully independent — each builds its own simulated system from
/// the carried design — which is what makes the index-addressed pool sound
/// here.
struct Cell {
    kind: WorkloadKind,
    design: ControllerConfig,
    txn_bytes: usize,
    /// Client think-ops override. `None` keeps the runner's derived think
    /// model (every paper sweep); the banked sweep pins it to zero to make
    /// the stream drain-bound.
    think_ops: Option<u64>,
}

impl Cell {
    fn new(kind: WorkloadKind, design: ControllerConfig, txn_bytes: usize) -> Self {
        Self {
            kind,
            design,
            txn_bytes,
            think_ops: None,
        }
    }

    /// Static host-cost hint for longest-cell-first scheduling in the flat
    /// bench sweep. A pure function of the cell's parameters — never of a
    /// measurement — so the schedule is reproducible; and because results
    /// are index-addressed, even a *bad* hint can only cost wall time,
    /// never change a byte of output.
    fn cost_hint(&self) -> u64 {
        // Bigger transactions write more lines per transaction; drain-bound
        // cells (think time pinned to zero) stress the WPQ far harder per
        // byte and historically run several times longer.
        let think = if self.think_ops == Some(0) { 4 } else { 1 };
        self.txn_bytes as u64 * think
    }
}

/// One experiment's outcome under the flattened bench sweep: the rendered
/// tables plus the work and wall tallies the JSON report needs.
pub struct BenchOutcome {
    /// Which experiment.
    pub id: ExperimentId,
    /// Rendered tables (bench mode writes these to `--csv`, not stdout).
    pub tables: Vec<Table>,
    /// Cells run (sweep cells, or a direct experiment's own tally).
    pub cells: u64,
    /// Simulated cycles across those cells.
    pub sim_cycles: u64,
    /// Host wall milliseconds per sweep cell, in cell order. Empty for
    /// direct (non-sweep) experiments, whose work never enters the pool.
    pub cell_wall_ms: Vec<f64>,
    /// Total wall milliseconds attributed to this experiment: the sum of
    /// its cell walls for sweeps (cells overlap other experiments' cells in
    /// the flat schedule, so the *sum of per-cell work* is the meaningful
    /// per-experiment number), or the measured elapsed time for direct
    /// experiments.
    pub wall_ms: f64,
}

/// Shared sweep parameters.
#[derive(Debug)]
pub struct ExperimentConfig {
    /// Measured transactions per run.
    pub transactions: usize,
    /// Warm-up transactions per run.
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for sweep cells (0 = auto-detect, 1 = serial).
    ///
    /// Any value produces identical tables: results are merged in cell
    /// order, never in completion order.
    pub jobs: usize,
    // Work tallies for `experiments bench`, accumulated across every sweep
    // this config runs. Atomics so a `&self` sweep can tally while staying
    // `Sync` for the job pool; contention is nil (one add per sweep).
    cells_run: AtomicU64,
    sim_cycles: AtomicU64,
}

impl Clone for ExperimentConfig {
    fn clone(&self) -> Self {
        Self {
            transactions: self.transactions,
            warmup: self.warmup,
            seed: self.seed,
            jobs: self.jobs,
            cells_run: AtomicU64::new(self.cells_run.load(Ordering::Relaxed)),
            sim_cycles: AtomicU64::new(self.sim_cycles.load(Ordering::Relaxed)),
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            transactions: 400,
            warmup: 48,
            seed: 0x5EED,
            jobs: 1,
            cells_run: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
        }
    }
}

impl ExperimentConfig {
    fn run_config(&self, txn_bytes: usize) -> RunConfig {
        RunConfig {
            transactions: self.transactions,
            txn_bytes,
            warmup: self.warmup,
            seed: self.seed,
            ..RunConfig::default()
        }
    }

    /// Runs one sweep cell. Cells are self-contained; this is the worker
    /// body for both the per-experiment and the flattened pool.
    fn run_cell(&self, cell: &Cell) -> RunResult {
        run_workload(
            cell.kind,
            cell.design.clone(),
            &RunConfig {
                think_ops_per_txn: cell.think_ops,
                ..self.run_config(cell.txn_bytes)
            },
        )
    }

    /// Runs a sweep's cells through the deterministic job pool.
    ///
    /// `out[i]` is always the result of `cells[i]` regardless of `jobs`, so
    /// callers index the result vector by the same arithmetic they used to
    /// build the cell list.
    fn run_cells(&self, cells: Vec<Cell>) -> Vec<RunResult> {
        let results =
            dolos_sim::pool::run_indexed(self.jobs, &cells, |_, cell| self.run_cell(cell));
        self.tally(cells.len() as u64, results.iter().map(|r| r.cycles).sum());
        results
    }

    /// Adds to the work tallies directly. Experiments that simulate outside
    /// the sweep-cell pool (the measured recovery) or do bounded analytic
    /// work (Table 3) report through here so their bench rows carry real
    /// cell counts instead of zeros.
    fn tally(&self, cells: u64, sim_cycles: u64) {
        self.cells_run.fetch_add(cells, Ordering::Relaxed);
        self.sim_cycles.fetch_add(sim_cycles, Ordering::Relaxed);
    }

    /// Total `(cells, simulated cycles)` this config has run through sweep
    /// cells so far. Table 3 (analytic) and the measured-recovery
    /// experiment do not use sweep cells and are not counted.
    pub fn metrics(&self) -> (u64, u64) {
        (
            self.cells_run.load(Ordering::Relaxed),
            self.sim_cycles.load(Ordering::Relaxed),
        )
    }

    /// The sweep-cell list for `id`, when the experiment is a pool sweep.
    /// Direct experiments — the analytic Table 3, the measured recovery,
    /// the conformance campaign — return `None` and run outside the flat
    /// pool.
    fn sweep_cells(id: ExperimentId) -> Option<Vec<Cell>> {
        match id {
            ExperimentId::Fig6 => Some(Self::fig6_cells()),
            ExperimentId::Fig12 => Some(Self::speedup_cells(UpdateScheme::EagerMerkle)),
            ExperimentId::Table2 => Some(Self::table2_cells()),
            ExperimentId::Fig13 => Some(Self::fig13_cells()),
            ExperimentId::Fig14 => Some(Self::fig14_cells()),
            ExperimentId::Fig15 => Some(Self::fig15_cells()),
            ExperimentId::Fig16 => Some(Self::speedup_cells(UpdateScheme::LazyToc)),
            ExperimentId::Ablations => Some(Self::ablations_cells()),
            ExperimentId::Extended => Some(Self::extended_cells()),
            ExperimentId::Banks => Some(Self::banks_cells()),
            ExperimentId::Table3 | ExperimentId::Recovery | ExperimentId::Conformance => None,
        }
    }

    /// Renders a sweep experiment from its cell results (in cell order).
    /// Direct experiments have no sweep results and render nothing here.
    fn render_sweep(id: ExperimentId, results: &[RunResult]) -> Vec<Table> {
        match id {
            ExperimentId::Fig6 => Self::fig6_render(results),
            ExperimentId::Fig12 => Self::speedup_render(
                results,
                "Figure 12 — Dolos speedup vs Pre-WPQ-Secure (eager MT, txn 1024 B)",
                paper::FIG12_AVG_SPEEDUP,
            ),
            ExperimentId::Table2 => Self::table2_render(results),
            ExperimentId::Fig13 => Self::fig13_render(results),
            ExperimentId::Fig14 => Self::fig14_render(results),
            ExperimentId::Fig15 => Self::fig15_render(results),
            ExperimentId::Fig16 => Self::speedup_render(
                results,
                "Figure 16 — Dolos speedup vs Pre-WPQ-Secure (lazy ToC, txn 1024 B)",
                paper::FIG16_AVG_SPEEDUP,
            ),
            ExperimentId::Ablations => Self::ablations_render(results),
            ExperimentId::Extended => Self::extended_render(results),
            ExperimentId::Banks => Self::banks_render(results),
            ExperimentId::Table3 | ExperimentId::Recovery | ExperimentId::Conformance => Vec::new(),
        }
    }

    /// Dispatches one experiment, returning its rendered tables.
    pub fn run(&self, id: ExperimentId) -> Vec<Table> {
        match Self::sweep_cells(id) {
            Some(cells) => {
                let results = self.run_cells(cells);
                Self::render_sweep(id, &results)
            }
            None => match id {
                ExperimentId::Table3 => self.table3(),
                ExperimentId::Recovery => self.recovery(),
                // Every other id has sweep cells and took the arm above.
                _ => self.conformance(),
            },
        }
    }

    /// `experiments bench`: runs every selected experiment's sweep cells as
    /// ONE flat list through the work-stealing pool, longest-hint-first, so
    /// slow cells (fig16's lazy-ToC, the drain-bound banks sweep) overlap
    /// other figures' short cells instead of serializing behind a barrier
    /// per figure. Direct experiments run sequentially afterwards.
    ///
    /// Outcomes are returned in `ids` order, each rendered from its own
    /// slice of the flat result slab — so tables, cell counts, and
    /// `sim_cycles` are byte-identical to running the experiments one by
    /// one, at any `jobs` value. Only the wall-clock fields change.
    pub fn bench_flat(&self, ids: &[ExperimentId]) -> Vec<BenchOutcome> {
        let mut spans: Vec<Option<std::ops::Range<usize>>> = Vec::with_capacity(ids.len());
        let mut flat: Vec<Cell> = Vec::new();
        for &id in ids {
            spans.push(Self::sweep_cells(id).map(|cells| {
                let start = flat.len();
                flat.extend(cells);
                start..flat.len()
            }));
        }
        // Per-cell wall time is measured inside the worker: it is the only
        // wall-clock quantity the schedule can influence, and recording it
        // per cell is what makes scheduling skew observable in the JSON.
        let timed = dolos_sim::pool::run_indexed_weighted(
            self.jobs,
            &flat,
            |_, cell| cell.cost_hint(),
            |_, cell| {
                let start = Instant::now();
                let result = self.run_cell(cell);
                (result, start.elapsed().as_secs_f64() * 1000.0)
            },
        );
        let (results, walls): (Vec<RunResult>, Vec<f64>) = timed.into_iter().unzip();
        self.tally(results.len() as u64, results.iter().map(|r| r.cycles).sum());
        ids.iter()
            .zip(spans)
            .map(|(&id, span)| match span {
                Some(span) => {
                    let slice = &results[span.clone()];
                    BenchOutcome {
                        id,
                        tables: Self::render_sweep(id, slice),
                        cells: slice.len() as u64,
                        sim_cycles: slice.iter().map(|r| r.cycles).sum(),
                        wall_ms: walls[span.clone()].iter().sum(),
                        cell_wall_ms: walls[span].to_vec(),
                    }
                }
                None => {
                    let (cells_before, cycles_before) = self.metrics();
                    let start = Instant::now();
                    let tables = self.run(id);
                    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
                    let (cells_after, cycles_after) = self.metrics();
                    BenchOutcome {
                        id,
                        tables,
                        cells: cells_after - cells_before,
                        sim_cycles: cycles_after - cycles_before,
                        cell_wall_ms: Vec::new(),
                        wall_ms,
                    }
                }
            })
            .collect()
    }

    fn fig6_cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for kind in WorkloadKind::ALL {
            cells.push(Cell::new(kind, ControllerConfig::baseline(), 1024));
            cells.push(Cell::new(kind, ControllerConfig::deferred(), 1024));
        }
        cells
    }

    fn fig6_render(results: &[RunResult]) -> Vec<Table> {
        let mut t = Table::new(
            "Figure 6 — CPI: security before vs after WPQ (txn 1024 B, eager)",
            &[
                "workload",
                "pre-WPQ CPI",
                "deferred CPI",
                "slowdown",
                "paper-mean",
            ],
        );
        let mut slowdowns = Vec::new();
        for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
            let pre = &results[2 * i];
            let post = &results[2 * i + 1];
            let slowdown = pre.cycles as f64 / post.cycles as f64;
            slowdowns.push(slowdown);
            t.row(vec![
                kind.name().into(),
                f3(pre.cpi()),
                f3(post.cpi()),
                f2(slowdown),
                f2(paper::FIG6_MEAN_SLOWDOWN),
            ]);
        }
        let mean = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
        t.row(vec![
            "MEAN".into(),
            String::new(),
            String::new(),
            f2(mean),
            f2(paper::FIG6_MEAN_SLOWDOWN),
        ]);
        vec![t]
    }

    /// Figure 6: CPI of Pre-WPQ-Secure vs deferred security (Fig 5-b vs 5-c).
    pub fn fig6(&self) -> Vec<Table> {
        let results = self.run_cells(Self::fig6_cells());
        Self::fig6_render(&results)
    }

    /// Row-major cells: baseline then the three Mi-SU designs per workload.
    fn speedup_cells(scheme: UpdateScheme) -> Vec<Cell> {
        let mut cells = Vec::new();
        for kind in WorkloadKind::ALL {
            cells.push(Cell::new(
                kind,
                ControllerConfig::baseline().with_scheme(scheme),
                1024,
            ));
            for &m in MiSuKind::ALL.iter() {
                cells.push(Cell::new(
                    kind,
                    ControllerConfig::dolos(m).with_scheme(scheme),
                    1024,
                ));
            }
        }
        cells
    }

    fn speedup_render(
        results: &[RunResult],
        title: &str,
        paper_avg: (f64, f64, f64),
    ) -> Vec<Table> {
        let mut t = Table::new(
            title,
            &["workload", "full", "partial", "post", "paper(avg)"],
        );
        let stride = 1 + MiSuKind::ALL.len();
        let mut sums = [0.0f64; 3];
        for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
            let base = &results[stride * i];
            let speedups: Vec<f64> = (0..MiSuKind::ALL.len())
                .map(|m| results[stride * i + 1 + m].speedup_vs(base))
                .collect();
            for (s, sum) in speedups.iter().zip(sums.iter_mut()) {
                *sum += s;
            }
            t.row(vec![
                kind.name().into(),
                f3(speedups[0]),
                f3(speedups[1]),
                f3(speedups[2]),
                String::new(),
            ]);
        }
        let n = WorkloadKind::ALL.len() as f64;
        t.row(vec![
            "AVG".into(),
            f3(sums[0] / n),
            f3(sums[1] / n),
            f3(sums[2] / n),
            format!("{}/{}/{}", paper_avg.0, paper_avg.1, paper_avg.2),
        ]);
        vec![t]
    }

    /// Figure 12: speedups of the three Mi-SU designs, eager updates.
    pub fn fig12(&self) -> Vec<Table> {
        let results = self.run_cells(Self::speedup_cells(UpdateScheme::EagerMerkle));
        Self::render_sweep(ExperimentId::Fig12, &results)
    }

    /// Figure 16: speedups with the lazy (ToC/Phoenix) scheme.
    pub fn fig16(&self) -> Vec<Table> {
        let results = self.run_cells(Self::speedup_cells(UpdateScheme::LazyToc));
        Self::render_sweep(ExperimentId::Fig16, &results)
    }

    fn table2_cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for kind in WorkloadKind::ALL {
            for &m in MiSuKind::ALL.iter() {
                cells.push(Cell::new(kind, ControllerConfig::dolos(m), 1024));
            }
        }
        cells
    }

    fn table2_render(results: &[RunResult]) -> Vec<Table> {
        let mut t = Table::new(
            "Table 2 — WPQ insertion retries per KWR (txn 1024 B, eager)",
            &[
                "workload",
                "full",
                "partial",
                "post",
                "paper-full",
                "paper-partial",
                "paper-post",
            ],
        );
        let stride = MiSuKind::ALL.len();
        for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
            let measured: Vec<f64> = results[stride * i..stride * (i + 1)]
                .iter()
                .map(|r| r.retries_per_kwr())
                .collect();
            let (pf, pp, ppo) = paper::TABLE2_RETRIES_PER_KWR[i];
            t.row(vec![
                kind.name().into(),
                f1(measured[0]),
                f1(measured[1]),
                f1(measured[2]),
                f1(pf),
                f1(pp),
                f1(ppo),
            ]);
        }
        vec![t]
    }

    /// Table 2: WPQ insertion retry events per kilo write requests.
    pub fn table2(&self) -> Vec<Table> {
        let results = self.run_cells(Self::table2_cells());
        Self::table2_render(&results)
    }

    fn fig13_cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for kind in WorkloadKind::ALL {
            for &size in &paper::TXN_SIZES {
                cells.push(Cell::new(
                    kind,
                    ControllerConfig::dolos(MiSuKind::Partial),
                    size,
                ));
            }
        }
        cells
    }

    fn fig13_render(results: &[RunResult]) -> Vec<Table> {
        let mut t = Table::new(
            "Figure 13 — Partial-WPQ retries per KWR vs transaction size",
            &["workload", "128B", "256B", "512B", "1024B", "2048B"],
        );
        let stride = paper::TXN_SIZES.len();
        for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
            let mut row = vec![kind.name().to_owned()];
            for r in &results[stride * i..stride * (i + 1)] {
                row.push(f1(r.retries_per_kwr()));
            }
            t.row(row);
        }
        vec![t]
    }

    /// Figure 13: Partial-WPQ retries across transaction sizes.
    pub fn fig13(&self) -> Vec<Table> {
        let results = self.run_cells(Self::fig13_cells());
        Self::fig13_render(&results)
    }

    /// Two cells per (workload, size): baseline then Dolos-Partial.
    fn fig14_cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for kind in WorkloadKind::ALL {
            for &size in &paper::TXN_SIZES {
                cells.push(Cell::new(kind, ControllerConfig::baseline(), size));
                cells.push(Cell::new(
                    kind,
                    ControllerConfig::dolos(MiSuKind::Partial),
                    size,
                ));
            }
        }
        cells
    }

    fn fig14_render(results: &[RunResult]) -> Vec<Table> {
        let mut t = Table::new(
            "Figure 14 — Partial-WPQ speedup vs transaction size",
            &["workload", "128B", "256B", "512B", "1024B", "2048B"],
        );
        let stride = 2 * paper::TXN_SIZES.len();
        for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
            let mut row = vec![kind.name().to_owned()];
            for j in 0..paper::TXN_SIZES.len() {
                let base = &results[stride * i + 2 * j];
                let dolos = &results[stride * i + 2 * j + 1];
                row.push(f3(dolos.speedup_vs(base)));
            }
            t.row(row);
        }
        vec![t]
    }

    /// Figure 14: Partial-WPQ speedups across transaction sizes.
    pub fn fig14(&self) -> Vec<Table> {
        let results = self.run_cells(Self::fig14_cells());
        Self::fig14_render(&results)
    }

    const FIG15_SIZES: [usize; 4] = [16, 32, 64, 128];

    fn fig15_cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for &physical in &Self::FIG15_SIZES {
            for kind in WorkloadKind::ALL {
                cells.push(Cell::new(
                    kind,
                    ControllerConfig::baseline().with_wpq_entries(physical),
                    1024,
                ));
                cells.push(Cell::new(
                    kind,
                    ControllerConfig::dolos(MiSuKind::Partial).with_wpq_entries(physical),
                    1024,
                ));
            }
        }
        cells
    }

    fn fig15_render(results: &[RunResult]) -> Vec<Table> {
        let mut t = Table::new(
            "Figure 15 — Partial-WPQ speedup vs WPQ size (txn 1024 B)",
            &[
                "physical",
                "usable",
                "speedup",
                "retries/KWR",
                "paper-speedup",
                "paper-retries",
            ],
        );
        let stride = 2 * WorkloadKind::ALL.len();
        for (i, physical) in Self::FIG15_SIZES.into_iter().enumerate() {
            let mut speedups = 0.0;
            let mut retries = 0.0;
            for j in 0..WorkloadKind::ALL.len() {
                let base = &results[stride * i + 2 * j];
                let dolos = &results[stride * i + 2 * j + 1];
                speedups += dolos.speedup_vs(base);
                retries += dolos.retries_per_kwr();
            }
            let n = WorkloadKind::ALL.len() as f64;
            let usable = MiSuKind::Partial.usable_wpq_entries(physical);
            t.row(vec![
                physical.to_string(),
                usable.to_string(),
                f3(speedups / n),
                f1(retries / n),
                f2(paper::FIG15_SPEEDUPS[i].1),
                f1(paper::FIG15_RETRIES[i].1),
            ]);
        }
        vec![t]
    }

    /// Figure 15: speedup and retries vs WPQ size (Partial, txn 1024 B).
    pub fn fig15(&self) -> Vec<Table> {
        let results = self.run_cells(Self::fig15_cells());
        Self::fig15_render(&results)
    }

    /// Table 3: Mi-SU storage overhead (analytic, from the implementation).
    pub fn table3(&self) -> Vec<Table> {
        let mut t = Table::new(
            "Table 3 — Mi-SU storage overhead",
            &[
                "design",
                "counter",
                "MACs",
                "pads",
                "tag array",
                "paper(ctr/mac/pad)",
            ],
        );
        for (i, kind) in MiSuKind::ALL.into_iter().enumerate() {
            let misu = dolos_core::MinorSecurityUnit::new(kind, 16, 0);
            let s = misu.storage_overhead();
            let (_, pc, pm, ppad, pent) = paper::TABLE3_STORAGE[i];
            t.row(vec![
                format!("{}-WPQ-MiSU", kind),
                format!("{}B", s.persistent_counter_bytes),
                format!("{}B", s.mac_bytes),
                format!("{}B", s.pad_bytes),
                format!("{}B", s.tag_array_bytes),
                format!("{pc}B/{pm}B/{ppad}B*{pent}"),
            ]);
        }
        // Analytic, but real bounded work: one storage-overhead evaluation
        // per design is one cell (at zero simulated cycles), so the bench
        // row's `cells_per_sec` reflects throughput instead of pinning 0.
        self.tally(MiSuKind::ALL.len() as u64, 0);
        vec![t]
    }

    /// §5.5: Mi-SU recovery estimates plus a measured functional recovery.
    pub fn recovery(&self) -> Vec<Table> {
        let mut t = Table::new(
            "§5.5 — Mi-SU recovery",
            &[
                "design",
                "estimated cycles",
                "~ms @4GHz",
                "paper (Full)",
                "replayed",
                "masu cycles",
            ],
        );
        for kind in MiSuKind::ALL {
            let misu = dolos_core::MinorSecurityUnit::new(kind, 16, 0);
            let est = misu.estimated_recovery_cycles();
            // Measured functional recovery: run a short workload, crash with
            // a full WPQ, recover, count replayed entries.
            let mut env = dolos_whisper::PmEnv::new(ControllerConfig::dolos(kind));
            let mut w = WorkloadKind::Hashmap.build();
            w.setup(&mut env);
            let mut rng = dolos_sim::rng::XorShift::new(self.seed);
            for _ in 0..24 {
                w.transaction(&mut env, 1024, &mut rng);
            }
            env.crash();
            let report = env.recover().expect("clean recovery");
            // One crash-and-recover simulation is one cell of real work; its
            // cycles are simulated time like any sweep cell's, just run
            // outside the pool (the crash/recover API is not a workload run).
            self.tally(1, env.now().as_u64());
            t.row(vec![
                format!("{}-WPQ-MiSU", kind),
                est.to_string(),
                format!("{:.4}", est as f64 / 4.0e6),
                paper::RECOVERY_FULL_CYCLES.to_string(),
                report.wpq_entries_replayed.to_string(),
                report.measured_masu_cycles.to_string(),
            ]);
        }
        vec![t]
    }

    /// Conformance: the cross-scheme differential matrix and metamorphic
    /// invariant probes from `dolos-verify` (DESIGN.md §9), sized to a
    /// quick sweep: the differential family only (no reach scenarios, no
    /// workload crash cells). Byte-identical output at any `jobs` value,
    /// like every other experiment.
    pub fn conformance(&self) -> Vec<Table> {
        let config = dolos_verify::VerifyConfig {
            seed: self.seed,
            traces: 64,
            schedules: 0,
            workload_txns: 0,
            jobs: self.jobs,
            ..dolos_verify::VerifyConfig::default()
        };
        let report = dolos_verify::run_verify(&config);
        vec![report.table(), report.metamorphic_table()]
    }

    const BANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

    fn banks_cells() -> Vec<Cell> {
        Self::BANK_COUNTS
            .iter()
            .map(|&banks| Cell {
                kind: WorkloadKind::Hashmap,
                design: ControllerConfig::dolos(MiSuKind::Full)
                    .with_scheme(UpdateScheme::LazyToc)
                    .with_banks(banks),
                txn_bytes: 2048,
                think_ops: Some(0),
            })
            .collect()
    }

    fn banks_render(results: &[RunResult]) -> Vec<Table> {
        let mut t = Table::new(
            "Banked WPQ — drain-bound lazy-ToC sweep (Hashmap, Full, txn 2048 B, no think)",
            &["banks", "cycles", "speedup", "retries/KWR"],
        );
        for (i, &banks) in Self::BANK_COUNTS.iter().enumerate() {
            t.row(vec![
                banks.to_string(),
                results[i].cycles.to_string(),
                f3(results[0].cycles as f64 / results[i].cycles as f64),
                f1(results[i].retries_per_kwr()),
            ]);
        }
        vec![t]
    }

    /// Banked-WPQ sweep (DESIGN.md §16, beyond the paper): Figure 16's
    /// lazy-ToC Full design on a genuinely drain-bound stream — no client
    /// think time and double-width transactions, so persists outrun a single
    /// bank's retire rate and the WPQ backs up. The `banks = 1` row is the
    /// old global single-queue model bit for bit; the speedup column is the
    /// simulated-cycle win memory-level parallelism buys as drains overlap
    /// across banks.
    pub fn banks(&self) -> Vec<Table> {
        let results = self.run_cells(Self::banks_cells());
        Self::banks_render(&results)
    }
}

impl ExperimentConfig {
    const ABLATION_MACS: [u64; 4] = [40, 80, 160, 320];
    const ABLATION_B_KINDS: [WorkloadKind; 2] = [WorkloadKind::Hashmap, WorkloadKind::NstoreYcsb];
    const ABLATION_KIBS: [usize; 4] = [8, 32, 128, 512];
    const ABLATION_PHASES: [u64; 4] = [1, 2, 4, 16];

    /// The four ablation groups' cells, concatenated in group order
    /// (A: 8 cells, B: 4, C: 4, D: 4); `ablations_render` slices by the
    /// same offsets.
    fn ablations_cells() -> Vec<Cell> {
        let workload = WorkloadKind::Hashmap;
        let mut cells = Vec::new();
        // (a) MAC latency sweep.
        for &mac in &Self::ABLATION_MACS {
            cells.push(Cell::new(
                workload,
                ControllerConfig::baseline().with_mac_latency(mac),
                1024,
            ));
            cells.push(Cell::new(
                workload,
                ControllerConfig::dolos(MiSuKind::Partial).with_mac_latency(mac),
                1024,
            ));
        }
        // (b) Write coalescing (the §4.5 tag array) on/off.
        for &kind in &Self::ABLATION_B_KINDS {
            for on in [true, false] {
                let mut config = ControllerConfig::dolos(MiSuKind::Partial);
                if !on {
                    config = config.without_coalescing();
                }
                cells.push(Cell::new(kind, config, 1024));
            }
        }
        // (c) Counter-cache size sweep.
        for &kib in &Self::ABLATION_KIBS {
            cells.push(Cell::new(
                workload,
                ControllerConfig::dolos(MiSuKind::Partial).with_counter_cache_bytes(kib * 1024),
                1024,
            ));
        }
        // (d) Osiris stop-loss phase.
        for &phase in &Self::ABLATION_PHASES {
            cells.push(Cell::new(
                workload,
                ControllerConfig::dolos(MiSuKind::Partial).with_osiris_phase(phase),
                1024,
            ));
        }
        cells
    }

    fn ablations_render(results: &[RunResult]) -> Vec<Table> {
        let mut out = Vec::new();

        // (a) MAC latency sweep: the Mi-SU advantage shrinks as MACs get
        // cheaper (the baseline's eager update scales with the same knob).
        let mut t = Table::new(
            "Ablation A — MAC latency sweep (Hashmap, Partial vs baseline)",
            &["mac cycles", "baseline cycles", "dolos cycles", "speedup"],
        );
        for (i, mac) in Self::ABLATION_MACS.into_iter().enumerate() {
            let base = &results[2 * i];
            let dolos = &results[2 * i + 1];
            t.row(vec![
                mac.to_string(),
                base.cycles.to_string(),
                dolos.cycles.to_string(),
                f3(dolos.speedup_vs(base)),
            ]);
        }
        out.push(t);

        // (b) Write coalescing (the §4.5 tag array) on/off.
        let mut t = Table::new(
            "Ablation B — WPQ tag array (coalescing) on/off (Partial)",
            &[
                "workload",
                "coalescing",
                "cycles",
                "retries/KWR",
                "coalesces",
            ],
        );
        let b_base = 2 * Self::ABLATION_MACS.len();
        for (i, kind) in Self::ABLATION_B_KINDS.into_iter().enumerate() {
            for (j, on) in [true, false].into_iter().enumerate() {
                let r = &results[b_base + 2 * i + j];
                t.row(vec![
                    kind.name().into(),
                    if on { "on" } else { "off" }.into(),
                    r.cycles.to_string(),
                    f1(r.retries_per_kwr()),
                    r.stats.get_or_zero("wpq.coalesces").to_string(),
                ]);
            }
        }
        out.push(t);

        // (c) Counter-cache size sweep (misses add 600-cycle fetches to the
        // Ma-SU path).
        let mut t = Table::new(
            "Ablation C — counter cache size (Partial, Hashmap)",
            &["cache", "cycles", "hit rate %"],
        );
        let c_base = b_base + 2 * Self::ABLATION_B_KINDS.len();
        for (i, kib) in Self::ABLATION_KIBS.into_iter().enumerate() {
            let r = &results[c_base + i];
            let hits = r.stats.get_or_zero("ctr_cache.hits");
            let misses = r.stats.get_or_zero("ctr_cache.misses");
            t.row(vec![
                format!("{kib}KiB"),
                r.cycles.to_string(),
                f1(100.0 * hits / (hits + misses).max(1.0)),
            ]);
        }
        out.push(t);

        // (d) Osiris stop-loss phase: larger phase = fewer counter
        // write-backs at run time, more probing at recovery.
        let mut t = Table::new(
            "Ablation D — Osiris stop-loss phase (Partial, Hashmap)",
            &["phase", "cycles", "nvm writes"],
        );
        let d_base = c_base + Self::ABLATION_KIBS.len();
        for (i, phase) in Self::ABLATION_PHASES.into_iter().enumerate() {
            let r = &results[d_base + i];
            t.row(vec![
                phase.to_string(),
                r.cycles.to_string(),
                r.stats.get_or_zero("nvm.writes").to_string(),
            ]);
        }
        out.push(t);
        out
    }

    /// Ablation studies for the design choices DESIGN.md calls out.
    pub fn ablations(&self) -> Vec<Table> {
        let results = self.run_cells(Self::ablations_cells());
        Self::ablations_render(&results)
    }
}

impl ExperimentConfig {
    const EXTENDED_KINDS: [WorkloadKind; 3] = [
        WorkloadKind::Memcached,
        WorkloadKind::Vacation,
        WorkloadKind::Hashmap,
    ];

    fn extended_cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for &kind in &Self::EXTENDED_KINDS {
            cells.push(Cell::new(kind, ControllerConfig::baseline(), 1024));
            cells.push(Cell::new(
                kind,
                ControllerConfig::dolos(MiSuKind::Partial),
                1024,
            ));
            cells.push(Cell::new(kind, ControllerConfig::deferred(), 1024));
        }
        cells
    }

    fn extended_render(results: &[RunResult]) -> Vec<Table> {
        let mut t = Table::new(
            "Extension — Memcached & Vacation, plus the eADR (deferred) bound",
            &["workload", "dolos-partial", "eadr-bound", "gap %"],
        );
        for (i, kind) in Self::EXTENDED_KINDS.into_iter().enumerate() {
            let base = &results[3 * i];
            let dolos = &results[3 * i + 1];
            let eadr = &results[3 * i + 2];
            let s_dolos = dolos.speedup_vs(base);
            let s_eadr = eadr.speedup_vs(base);
            t.row(vec![
                kind.name().into(),
                f3(s_dolos),
                f3(s_eadr),
                f1(100.0 * (s_eadr - s_dolos) / s_eadr),
            ]);
        }
        vec![t]
    }

    /// Extension workloads and the eADR comparison.
    ///
    /// eADR extends the persistence domain to the whole cache hierarchy, so
    /// security can always run behind the persistence point — the
    /// `DeferredSecure` model. The paper argues Dolos approaches that bound
    /// under the *standard* ADR budget; this table quantifies the remaining
    /// gap.
    pub fn extended(&self) -> Vec<Table> {
        let results = self.run_cells(Self::extended_cells());
        Self::extended_render(&results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        // Debug test runs shrink the simulated scale so `cargo test -q`
        // stays fast; the simulator is deterministic, so `--release` CI
        // checks the identical properties at the larger scale.
        #[cfg(debug_assertions)]
        let (transactions, warmup) = (2, 1);
        #[cfg(not(debug_assertions))]
        let (transactions, warmup) = (8, 2);
        ExperimentConfig {
            transactions,
            warmup,
            seed: 1,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn experiment_ids_round_trip() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("bogus"), None);
    }

    #[test]
    fn table3_counts_cells_but_simulates_nothing() {
        let config = tiny();
        let tables = config.table3();
        assert_eq!(tables[0].len(), 3);
        // One cell per design row so the bench throughput is meaningful,
        // zero simulated cycles because the table is analytic.
        assert_eq!(config.metrics(), (3, 0));
    }

    #[test]
    fn recovery_experiment_replays_entries_and_tallies_its_cells() {
        let config = tiny();
        let tables = config.recovery();
        assert_eq!(tables[0].len(), 3);
        let text = tables[0].render();
        assert!(text.contains("44480"));
        // The measured Ma-SU recovery did real simulated work: one cell per
        // design, with the crash-and-recover cycles tallied.
        let (cells, cycles) = config.metrics();
        assert_eq!(cells, 3);
        assert!(cycles > 0, "recovery simulations must tally cycles");
    }

    #[test]
    fn banks_sweep_overlaps_drains_and_tallies_one_cell_per_count() {
        // Use a scale large enough for the drain-bound stream to back up
        // the single-bank WPQ even in debug runs.
        #[cfg(debug_assertions)]
        let (transactions, warmup) = (24, 4);
        #[cfg(not(debug_assertions))]
        let (transactions, warmup) = (120, 16);
        let config = ExperimentConfig {
            transactions,
            warmup,
            seed: 1,
            ..ExperimentConfig::default()
        };
        let tables = config.banks();
        assert_eq!(tables[0].len(), 4, "one row per bank count");
        assert_eq!(config.metrics().0, 4, "one cell per bank count");
        // Row order is the sweep order 1/2/4/8; the banks=4 row's speedup
        // column must clear the tentpole's acceptance floor.
        let text = tables[0].to_csv();
        let row4 = text
            .lines()
            .find(|l| l.starts_with("4,"))
            .expect("banks=4 row");
        let speedup: f64 = row4
            .split(',')
            .nth(2)
            .expect("speedup column")
            .parse()
            .unwrap();
        assert!(speedup >= 1.2, "banks=4 speedup {speedup} below 1.2x");
    }

    #[test]
    fn fig6_produces_mean_row_and_tallies_work() {
        let config = tiny();
        let tables = config.fig6();
        let text = tables[0].render();
        assert!(text.contains("MEAN"));
        let (cells, cycles) = config.metrics();
        assert_eq!(cells, 2 * WorkloadKind::ALL.len() as u64);
        assert!(cycles > 0, "sweep cells must tally simulated cycles");
    }

    #[test]
    fn every_experiment_runs_end_to_end() {
        #[cfg(debug_assertions)]
        let (transactions, warmup) = (1, 0);
        #[cfg(not(debug_assertions))]
        let (transactions, warmup) = (3, 1);
        let config = ExperimentConfig {
            transactions,
            warmup,
            seed: 2,
            ..ExperimentConfig::default()
        };
        for id in ExperimentId::ALL {
            let tables = config.run(id);
            assert!(!tables.is_empty(), "{} produced no tables", id.name());
            for table in tables {
                assert!(!table.is_empty(), "{} produced an empty table", id.name());
                assert!(!table.to_csv().is_empty());
            }
        }
    }

    /// The tentpole determinism criterion on the bench side: every sweep
    /// renders the identical table at any worker count, because results are
    /// merged in cell order, never completion order.
    #[test]
    fn sweeps_render_identically_at_any_job_count() {
        #[cfg(debug_assertions)]
        const JOB_COUNTS: &[usize] = &[3];
        #[cfg(not(debug_assertions))]
        const JOB_COUNTS: &[usize] = &[0, 2, 5];
        let serial = tiny();
        let reference = serial.fig12();
        for &jobs in JOB_COUNTS {
            let parallel = ExperimentConfig { jobs, ..tiny() };
            let tables = parallel.fig12();
            assert_eq!(reference[0].render(), tables[0].render(), "jobs={jobs}");
            assert_eq!(reference[0].to_csv(), tables[0].to_csv(), "jobs={jobs}");
        }
        // A second, structurally different sweep (paired pre/post cells).
        let parallel = ExperimentConfig { jobs: 2, ..tiny() };
        assert_eq!(serial.fig6()[0].render(), parallel.fig6()[0].render());
    }

    /// The flattened bench sweep renders the same tables and tallies the
    /// same cells/sim_cycles as the per-experiment path, at any job count,
    /// with sweeps and direct experiments interleaved in the selected order.
    #[test]
    fn bench_flat_matches_per_experiment_path() {
        let ids = [
            ExperimentId::Fig6,
            ExperimentId::Table3,
            ExperimentId::Table2,
            ExperimentId::Recovery,
        ];
        #[cfg(debug_assertions)]
        const JOB_COUNTS: &[usize] = &[3];
        #[cfg(not(debug_assertions))]
        const JOB_COUNTS: &[usize] = &[1, 2, 5];
        for &jobs in JOB_COUNTS {
            let flat = ExperimentConfig { jobs, ..tiny() };
            let outcomes = flat.bench_flat(&ids);
            assert_eq!(outcomes.len(), ids.len());
            let mut flat_cells = 0;
            let mut flat_cycles = 0;
            for (outcome, &id) in outcomes.iter().zip(&ids) {
                assert_eq!(outcome.id, id);
                // Tables byte-identical to the per-experiment path.
                let reference = tiny().run(id);
                assert_eq!(reference.len(), outcome.tables.len(), "{}", id.name());
                for (a, b) in reference.iter().zip(&outcome.tables) {
                    assert_eq!(a.render(), b.render(), "{} jobs={jobs}", id.name());
                }
                // Sweep outcomes carry one wall sample per cell; direct
                // outcomes none.
                match id {
                    ExperimentId::Table3 | ExperimentId::Recovery => {
                        assert!(outcome.cell_wall_ms.is_empty(), "{}", id.name());
                        assert_eq!(outcome.cells, 3, "{}", id.name());
                    }
                    _ => {
                        assert_eq!(
                            outcome.cell_wall_ms.len() as u64,
                            outcome.cells,
                            "{}",
                            id.name()
                        );
                        assert!(outcome.cells > 0, "{}", id.name());
                        assert!(outcome.sim_cycles > 0, "{}", id.name());
                    }
                }
                flat_cells += outcome.cells;
                flat_cycles += outcome.sim_cycles;
            }
            // The config's global tallies agree with the per-outcome sums.
            assert_eq!(flat.metrics(), (flat_cells, flat_cycles), "jobs={jobs}");
        }
    }

    #[test]
    fn cost_hints_order_drain_bound_cells_first() {
        // The hint must rank the historically slow cells (drain-bound 2048 B
        // banks cells) above ordinary 1024 B sweep cells, and must be a pure
        // function of the cell (same cell, same hint).
        let banks = ExperimentConfig::banks_cells();
        let fig6 = ExperimentConfig::fig6_cells();
        assert!(banks[0].cost_hint() > fig6[0].cost_hint());
        assert_eq!(
            banks[0].cost_hint(),
            ExperimentConfig::banks_cells()[0].cost_hint()
        );
    }

    #[test]
    fn fig12_shape_holds_even_at_small_scale() {
        // The credible band below was verified to hold from 4 transactions
        // up; debug runs use the small end to keep the suite fast.
        #[cfg(debug_assertions)]
        let (transactions, warmup) = (6, 2);
        #[cfg(not(debug_assertions))]
        let (transactions, warmup) = (60, 8);
        let config = ExperimentConfig {
            transactions,
            warmup,
            seed: 3,
            ..ExperimentConfig::default()
        };
        let tables = config.fig12();
        let text = tables[0].render();
        // The AVG row's full-design speedup must be in the credible band.
        let avg_line = text.lines().find(|l| l.contains("AVG")).expect("AVG row");
        let full: f64 = avg_line
            .split_whitespace()
            .nth(1)
            .expect("full column")
            .parse()
            .expect("numeric");
        assert!((1.2..2.2).contains(&full), "full avg speedup {full}");
    }
}
