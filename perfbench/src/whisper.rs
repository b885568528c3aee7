//! `whisper-ideal`: the six WHISPER workloads run functionally against the
//! non-secure `ideal` controller on one thread — the control workload that
//! exercises only the workload model and the controller front end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dolos_core::ControllerConfig;
use dolos_sim::rng::XorShift;
use dolos_whisper::env::PmEnv;
use dolos_whisper::runner::run_workload;
use dolos_whisper::workloads::WorkloadKind;

use crate::measure::{ns_since, Checks, Pass};
use crate::replay::{run_config, WHISPER};

/// The measured-window outputs of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    /// Simulated cycles of the measured transactions.
    pub cycles: u64,
    /// Instructions retired in them.
    pub instructions: u64,
    /// Persists issued in them.
    pub persists: u64,
}

/// Host-time spans of one traced run, nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct TxnSpans {
    /// Environment construction plus `Workload::setup`, once per run.
    pub setup_ns: Vec<f64>,
    /// One per `Workload::transaction` call.
    pub txn_ns: Vec<f64>,
    /// One per think-time `PmEnv::work` call.
    pub work_ns: Vec<f64>,
}

impl TxnSpans {
    /// Total host time inside the spans, nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.setup_ns
            .iter()
            .chain(&self.txn_ns)
            .chain(&self.work_ns)
            .sum()
    }
}

/// Runs `kind` against `ideal` step by step, the way `run_workload` does,
/// optionally timing each call into the workload layer. With `verify`, the
/// final state is checked with `Workload::verify`. Returns the
/// measured-window outputs and whether verification passed (true when not
/// asked for).
pub fn run_stepwise(
    kind: WorkloadKind,
    seed: u64,
    verify: bool,
    mut spans: Option<&mut TxnSpans>,
) -> (Outputs, bool) {
    let run = run_config(seed);
    let t = Instant::now();
    let mut config = ControllerConfig::ideal();
    config.region_bytes = run.region_bytes;
    let mut env = PmEnv::new(config);
    let mut workload = kind.build();
    workload.setup(&mut env);
    if let Some(s) = spans.as_deref_mut() {
        s.setup_ns.push(ns_since(t));
    }
    let mut rng = XorShift::new(run.seed);
    let think = run.effective_think_ops();
    let mut before = (0, 0, 0);
    for i in 0..run.warmup + run.transactions {
        if i == run.warmup {
            before = (
                env.now().as_u64(),
                env.instructions(),
                env.system().persists(),
            );
        }
        match spans.as_deref_mut() {
            Some(s) => {
                let t = Instant::now();
                workload.transaction(&mut env, run.txn_bytes, &mut rng);
                s.txn_ns.push(ns_since(t));
                let t = Instant::now();
                env.work(think);
                s.work_ns.push(ns_since(t));
            }
            None => {
                workload.transaction(&mut env, run.txn_bytes, &mut rng);
                env.work(think);
            }
        }
    }
    let outputs = Outputs {
        cycles: env.now().as_u64() - before.0,
        instructions: env.instructions() - before.1,
        persists: env.system().persists() - before.2,
    };
    let verified = !verify || catch_unwind(AssertUnwindSafe(|| workload.verify(&mut env))).is_ok();
    (outputs, verified)
}

/// Set-up: one verified step-by-step run per workload, whose outputs every
/// timed pass must reproduce.
pub fn setup(seed: u64, checks: &mut Checks) -> Vec<Outputs> {
    WHISPER
        .into_iter()
        .map(|kind| {
            let (outputs, verified) = run_stepwise(kind, seed, true, None);
            checks.check(verified, || {
                format!("{kind}: Workload::verify failed after the run")
            });
            checks.check(outputs.persists > 0, || format!("{kind}: no persists"));
            outputs
        })
        .collect()
}

/// One timed pass: `run_workload` for each workload against `ideal`,
/// checked against the set-up reference. The pass is one cell: the six
/// workloads differ several-fold in cost, so the slowest of them would
/// otherwise set every tail percentile.
pub fn pass(seed: u64, reference: &[Outputs], checks: &mut Checks) -> Pass {
    let mut out = Pass::default();
    let t = Instant::now();
    for (kind, want) in WHISPER.into_iter().zip(reference) {
        let r = run_workload(kind, ControllerConfig::ideal(), &run_config(seed));
        out.sim_cycles += r.cycles;
        let got = Outputs {
            cycles: r.cycles,
            instructions: r.instructions,
            persists: r.persists,
        };
        checks.check(got == *want, || {
            format!("{kind}: run_workload gave {got:?}, reference {want:?}")
        });
    }
    out.cell_ms.push(t.elapsed().as_secs_f64() * 1000.0);
    out.cells = 1;
    out
}

/// The traced counterpart of [`pass`]: the same runs, stepped through with
/// a span around every workload-layer call.
pub fn traced_pass(
    seed: u64,
    reference: &[Outputs],
    checks: &mut Checks,
    spans: &mut TxnSpans,
) -> Pass {
    let mut out = Pass::default();
    let t = Instant::now();
    for (kind, want) in WHISPER.into_iter().zip(reference) {
        let (got, verified) = run_stepwise(kind, seed, false, Some(spans));
        out.sim_cycles += got.cycles;
        checks.check(verified && got == *want, || {
            format!("{kind}: traced run gave {got:?}, reference {want:?}")
        });
    }
    out.cell_ms.push(t.elapsed().as_secs_f64() * 1000.0);
    out.cells = 1;
    out
}
