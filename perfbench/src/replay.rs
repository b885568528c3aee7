//! The scheme matrix, WHISPER trace recording, and the trace replay that
//! the `secure-replay` and `crash-recover` workloads and the traced run
//! share.

use std::time::Instant;

use dolos_core::{ControllerConfig, MiSuKind, SecureMemorySystem, UpdateScheme};
use dolos_sim::rng::XorShift;
use dolos_sim::stats::StatSet;
use dolos_sim::Cycle;
use dolos_whisper::env::{PmEnv, OP_COST};
use dolos_whisper::runner::RunConfig;
use dolos_whisper::trace::{Trace, TraceOp};
use dolos_whisper::workloads::WorkloadKind;

/// The paper's six WHISPER workloads (the figures' order).
pub const WHISPER: [WorkloadKind; 6] = [
    WorkloadKind::Hashmap,
    WorkloadKind::Ctree,
    WorkloadKind::Btree,
    WorkloadKind::Rbtree,
    WorkloadKind::NstoreYcsb,
    WorkloadKind::Redis,
];

/// A controller configuration with the label its metrics carry: the
/// scheme's `ControllerKind::name()`, suffixed `-lazy` under the lazy ToC.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Metric label.
    pub label: &'static str,
    /// Full configuration.
    pub config: ControllerConfig,
}

fn scheme(label: &'static str, config: ControllerConfig) -> Scheme {
    Scheme { label, config }
}

/// The replay matrix: every eager scheme, then the two lazy-ToC schemes of
/// Figure 16's comparison.
pub fn schemes() -> Vec<Scheme> {
    let lazy = UpdateScheme::LazyToc;
    vec![
        scheme("ideal", ControllerConfig::ideal()),
        scheme("deferred", ControllerConfig::deferred()),
        scheme("pre-wpq-secure", ControllerConfig::baseline()),
        scheme("dolos-full", ControllerConfig::dolos(MiSuKind::Full)),
        scheme("dolos-partial", ControllerConfig::dolos(MiSuKind::Partial)),
        scheme("dolos-post", ControllerConfig::dolos(MiSuKind::Post)),
        scheme(
            "pre-wpq-secure-lazy",
            ControllerConfig::baseline().with_scheme(lazy),
        ),
        scheme(
            "dolos-partial-lazy",
            ControllerConfig::dolos(MiSuKind::Partial).with_scheme(lazy),
        ),
    ]
}

/// The Ma-SU-only reference point of the lazy tree: used by the traced run
/// to split lazy-ToC host time into Ma-SU and Mi-SU shares.
pub fn deferred_lazy() -> Scheme {
    scheme(
        "deferred-lazy",
        ControllerConfig::deferred().with_scheme(UpdateScheme::LazyToc),
    )
}

/// The run parameters of every recorded trace: the paper sweep's
/// full-scale defaults (400 measured transactions after 48 warm-up, 1 KiB
/// transactions) under the benchmark's seed.
pub fn run_config(seed: u64) -> RunConfig {
    RunConfig {
        transactions: 400,
        warmup: 48,
        seed,
        ..RunConfig::default()
    }
}

/// One workload's persist trace, recorded against `ideal`.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Which workload.
    pub kind: WorkloadKind,
    /// The memory-controller-visible operation stream.
    pub trace: Trace,
    /// Simulated cycles of the recording run (set-up, warm-up, measured).
    pub cycles: u64,
    /// Persists the recording run issued.
    pub persists: u64,
}

/// Records `kind` once against `ideal`: set-up, warm-up and measured
/// transactions, with the runner's think-time model.
pub fn record(kind: WorkloadKind, seed: u64) -> Recorded {
    let run = run_config(seed);
    let mut config = ControllerConfig::ideal();
    config.region_bytes = run.region_bytes;
    let mut env = PmEnv::new(config);
    env.start_recording();
    let mut workload = kind.build();
    workload.setup(&mut env);
    let mut rng = XorShift::new(run.seed);
    let think = run.effective_think_ops();
    for _ in 0..run.warmup + run.transactions {
        workload.transaction(&mut env, run.txn_bytes, &mut rng);
        env.work(think);
    }
    Recorded {
        kind,
        cycles: env.now().as_u64(),
        persists: env.system().persists(),
        trace: env.take_trace().expect("recording was started"),
    }
}

/// Records all six WHISPER workloads.
pub fn record_all(seed: u64) -> Vec<Recorded> {
    WHISPER.into_iter().map(|kind| record(kind, seed)).collect()
}

/// Host time of each controller call in a replay, nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct CallSpans {
    /// One entry per `persist_write` call.
    pub persist_ns: Vec<f64>,
    /// One entry per `read` call.
    pub read_ns: Vec<f64>,
}

impl CallSpans {
    /// Total host time inside controller calls, nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.persist_ns.iter().sum::<f64>() + self.read_ns.iter().sum::<f64>()
    }
}

/// The outcome of one replay.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Simulated cycles at the end of the replay.
    pub cycles: u64,
    /// Persists the controller served.
    pub persists: u64,
    /// The controller's statistics at the end.
    pub stats: StatSet,
}

/// A replay in progress: a controller plus the replay clock, driven one
/// trace operation at a time.
///
/// Same operation semantics as `Trace::replay` (simulated timing is
/// payload-independent, so cycles match it exactly), but each persisted
/// payload carries the line address and a global write sequence number, so
/// a read-back can tell the last write to a line from an earlier one.
pub struct Replayer {
    /// The controller under test.
    pub sys: SecureMemorySystem,
    /// The replay clock.
    pub now: Cycle,
    /// Latest completion any persist reported.
    pub last_done: Cycle,
    seq: u64,
}

impl Replayer {
    /// A fresh controller for `config` over the trace's region.
    pub fn new(trace: &Trace, config: &ControllerConfig) -> Self {
        let mut config = config.clone();
        config.region_bytes = trace.region_bytes();
        Self {
            sys: SecureMemorySystem::new(config),
            now: Cycle::ZERO,
            last_done: Cycle::ZERO,
            seq: 0,
        }
    }

    fn payload(&mut self, addr: u64) -> [u8; 64] {
        self.seq += 1;
        let mut line = [0u8; 64];
        line[0..8].copy_from_slice(&addr.to_le_bytes());
        line[8..16].copy_from_slice(&self.seq.to_le_bytes());
        line
    }

    fn persist(
        &mut self,
        at: Cycle,
        addr: u64,
        spans: &mut Option<&mut CallSpans>,
    ) -> ([u8; 64], Cycle) {
        let line = self.payload(addr);
        let done = match spans {
            Some(spans) => {
                let t = Instant::now();
                let done = self.sys.persist_write(at, addr, &line);
                spans.persist_ns.push(crate::measure::ns_since(t));
                done
            }
            None => self.sys.persist_write(at, addr, &line),
        };
        self.last_done = self.last_done.max(done);
        (line, done)
    }

    /// Applies one trace operation. Every persisted `(address, payload)` is
    /// passed to `acked` once the controller has accepted it.
    pub fn step(
        &mut self,
        op: &TraceOp,
        mut spans: Option<&mut CallSpans>,
        mut acked: impl FnMut(u64, [u8; 64]),
    ) {
        match op {
            TraceOp::Work(ops) => self.now += ops * OP_COST,
            TraceOp::Delay(cycles) => self.now += *cycles,
            TraceOp::Writeback(addr) => {
                // Background write-back: does not block the core.
                let (line, _) = self.persist(self.now, *addr, &mut spans);
                acked(*addr, line);
            }
            TraceOp::PersistBatch(lines) => {
                let start = self.now;
                let mut fence = start;
                for &addr in lines {
                    let (line, done) = self.persist(start, addr, &mut spans);
                    acked(addr, line);
                    fence = fence.max(done);
                }
                self.now = fence;
            }
            TraceOp::Read(addr) => {
                let (done, _) = match spans {
                    Some(spans) => {
                        let t = Instant::now();
                        let out = self.sys.read(self.now, *addr);
                        spans.read_ns.push(crate::measure::ns_since(t));
                        out
                    }
                    None => self.sys.read(self.now, *addr),
                };
                self.now = done;
            }
        }
    }
}

/// Replays a whole trace against `config`, optionally timing every
/// controller call.
pub fn replay(
    trace: &Trace,
    config: &ControllerConfig,
    mut spans: Option<&mut CallSpans>,
) -> Replayed {
    let mut r = Replayer::new(trace, config);
    for op in trace.iter() {
        r.step(op, spans.as_deref_mut(), |_, _| {});
    }
    Replayed {
        cycles: r.now.as_u64(),
        persists: r.sys.persists(),
        stats: r.sys.stats(),
    }
}
