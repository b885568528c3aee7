//! `crash-recover`: the recorded WHISPER traces replayed through every
//! secure scheme, with a power failure at seeded cut points. Each round is
//! replay-to-cut → `crash` → `recover` → read back every acknowledged line
//! with `try_read` → `audit`.

use std::collections::BTreeMap;
use std::time::Instant;

use dolos_core::SecurityError;
use dolos_sim::rng::XorShift;

use crate::measure::{ns_since, Checks, Pass};
use crate::replay::{record_all, schemes, CallSpans, Recorded, Replayer, Scheme};

/// Cut points drawn per trace; every secure scheme crashes at the same ones.
pub const CUTS_PER_TRACE: usize = 3;

/// Salt separating the cut-point stream from the workload stream of the
/// same seed.
const CUT_SALT: u64 = 0xC0A5_7C07;

/// The traces and the cut points drawn for them.
#[derive(Debug, Clone)]
pub struct Plan {
    /// One recorded trace per WHISPER workload.
    pub recorded: Vec<Recorded>,
    /// Per trace: operation indices at which power fails, ascending. A cut
    /// at `n` crashes after the first `n` trace operations.
    pub cuts: Vec<Vec<usize>>,
    /// Every scheme except `ideal`.
    pub schemes: Vec<Scheme>,
}

/// Set-up: records the traces and draws the cut points from `seed`.
pub fn setup(seed: u64) -> Plan {
    let recorded = record_all(seed);
    let mut rng = XorShift::new(seed ^ CUT_SALT);
    let cuts = recorded
        .iter()
        .map(|rec| {
            let ops = rec.trace.len() as u64;
            let mut cuts: Vec<usize> = (0..CUTS_PER_TRACE)
                .map(|_| (rng.next_below(ops) + 1) as usize)
                .collect();
            cuts.sort_unstable();
            cuts
        })
        .collect();
    let schemes = schemes()
        .into_iter()
        .filter(|s| s.label != "ideal")
        .collect();
    Plan {
        recorded,
        cuts,
        schemes,
    }
}

impl Plan {
    /// Crash-recover rounds in one pass.
    pub fn rounds(&self) -> usize {
        self.cuts.iter().map(Vec::len).sum::<usize>() * self.schemes.len()
    }
}

/// One failed round, with everything needed to rerun it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Workload whose trace was replayed.
    pub trace: &'static str,
    /// Scheme label.
    pub scheme: &'static str,
    /// Integrity-tree update scheme.
    pub tree: &'static str,
    /// Trace operation index of the power failure.
    pub cut: usize,
    /// Which step failed.
    pub step: &'static str,
    /// The `SecurityError` variant, or `StalePayload` when a line read back
    /// without error but with an older payload.
    pub error: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace={} scheme={} tree={} cut={} step={} error={}",
            self.trace, self.scheme, self.tree, self.cut, self.step, self.error
        )
    }
}

/// The variant name of a `SecurityError`, without its fields.
pub fn variant(error: &SecurityError) -> String {
    let debug = format!("{error:?}");
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_owned()
}

/// Host-time spans of the recovery side, nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct RecoverySpans {
    /// Controller calls of the replay to each cut.
    pub replay: CallSpans,
    /// One per `crash`.
    pub crash_ns: Vec<f64>,
    /// One per `recover`.
    pub recover_ns: Vec<f64>,
    /// One per read-back `try_read`.
    pub readback_ns: Vec<f64>,
    /// One per `audit`.
    pub audit_ns: Vec<f64>,
}

impl RecoverySpans {
    /// Total host time inside the spans, nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.replay.total_ns()
            + [
                &self.crash_ns,
                &self.recover_ns,
                &self.readback_ns,
                &self.audit_ns,
            ]
            .iter()
            .flat_map(|v| v.iter())
            .sum::<f64>()
    }
}

fn timed<R>(
    spans: &mut Option<&mut RecoverySpans>,
    pick: fn(&mut RecoverySpans) -> &mut Vec<f64>,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(s) => {
            let t = Instant::now();
            let out = f();
            pick(s).push(ns_since(t));
            out
        }
        None => f(),
    }
}

/// Runs one round; returns the simulated cycles at the cut and the failure,
/// if any.
fn round(
    rec: &Recorded,
    scheme: &Scheme,
    cut: usize,
    mut spans: Option<&mut RecoverySpans>,
) -> (u64, Option<Failure>) {
    let mut r = Replayer::new(&rec.trace, &scheme.config);
    let mut acked: BTreeMap<u64, [u8; 64]> = BTreeMap::new();
    for op in rec.trace.iter().take(cut) {
        r.step(
            op,
            spans.as_deref_mut().map(|s| &mut s.replay),
            |addr, line| {
                acked.insert(addr, line);
            },
        );
    }
    let at = r.now.max(r.last_done);
    let fail = |step: &'static str, error: String| Failure {
        trace: rec.kind.name(),
        scheme: scheme.label,
        tree: scheme.config.scheme.name(),
        cut,
        step,
        error,
    };
    timed(&mut spans, |s| &mut s.crash_ns, || r.sys.crash(at));
    if let Err(e) = timed(&mut spans, |s| &mut s.recover_ns, || r.sys.recover()) {
        return (at.as_u64(), Some(fail("recover", variant(&e))));
    }
    for (&addr, line) in &acked {
        match timed(
            &mut spans,
            |s| &mut s.readback_ns,
            || r.sys.try_read(at, addr),
        ) {
            Ok((_, got)) if got == *line => {}
            Ok(_) => return (at.as_u64(), Some(fail("readback", "StalePayload".into()))),
            Err(e) => return (at.as_u64(), Some(fail("readback", variant(&e)))),
        }
    }
    if let Err(e) = timed(&mut spans, |s| &mut s.audit_ns, || r.sys.audit()) {
        return (at.as_u64(), Some(fail("audit", variant(&e))));
    }
    (at.as_u64(), None)
}

/// One pass over every (trace, scheme, cut) round. Each round is one check;
/// failed rounds are appended to `failures` when given.
pub fn pass(
    plan: &Plan,
    checks: &mut Checks,
    mut failures: Option<&mut Vec<Failure>>,
    mut spans: Option<&mut RecoverySpans>,
) -> Pass {
    let mut out = Pass::default();
    for (rec, cuts) in plan.recorded.iter().zip(&plan.cuts) {
        for scheme in &plan.schemes {
            for &cut in cuts {
                let t = Instant::now();
                let (cycles, failure) = round(rec, scheme, cut, spans.as_deref_mut());
                out.cell_ms.push(t.elapsed().as_secs_f64() * 1000.0);
                out.cells += 1;
                out.sim_cycles += cycles;
                checks.attempted += 1;
                if let Some(failure) = failure {
                    checks.failed += 1;
                    if let Some(list) = failures.as_deref_mut() {
                        list.push(failure);
                    }
                }
            }
        }
    }
    out
}
