//! `secure-replay`: the six WHISPER traces, recorded once against `ideal`
//! in set-up, replayed through every scheme on one thread.

use std::time::Instant;

use crate::measure::{Checks, Pass};
use crate::replay::{replay, CallSpans, Recorded, Scheme};

/// One pass: every trace through every scheme. Checks that the `ideal`
/// replay reproduces the recording's cycles exactly, that every scheme
/// serves the recording's persist count, that `ideal` ≤ `dolos-partial` <
/// `pre-wpq-secure` under both trees, and that the cycles of every
/// (trace, scheme) replay repeat `expected` (the first pass) exactly. With
/// `spans`, every controller call of scheme `s` is timed into `spans[s]`.
pub fn pass(
    recorded: &[Recorded],
    schemes: &[Scheme],
    expected: &mut Option<Vec<u64>>,
    checks: &mut Checks,
    mut spans: Option<&mut [CallSpans]>,
) -> Pass {
    let mut out = Pass::default();
    let mut cycles = Vec::with_capacity(recorded.len() * schemes.len());
    for rec in recorded {
        let mut by_label = Vec::with_capacity(schemes.len());
        for (s, scheme) in schemes.iter().enumerate() {
            let t = Instant::now();
            let r = replay(
                &rec.trace,
                &scheme.config,
                spans.as_deref_mut().map(|spans| &mut spans[s]),
            );
            out.cell_ms.push(t.elapsed().as_secs_f64() * 1000.0);
            out.cells += 1;
            out.sim_cycles += r.cycles;
            checks.check(r.persists == rec.persists, || {
                format!(
                    "{} on {}: {} persists served, recording issued {}",
                    rec.kind, scheme.label, r.persists, rec.persists
                )
            });
            cycles.push(r.cycles);
            by_label.push((scheme.label, r.cycles));
        }
        let get = |label: &str| by_label.iter().find(|(l, _)| *l == label).map(|&(_, c)| c);
        checks.check(get("ideal") == Some(rec.cycles), || {
            format!(
                "{}: ideal replay {:?} cycles, recording {}",
                rec.kind,
                get("ideal"),
                rec.cycles
            )
        });
        for suffix in ["", "-lazy"] {
            let (ideal, partial, pre) = (
                get("ideal"),
                get(&format!("dolos-partial{suffix}")),
                get(&format!("pre-wpq-secure{suffix}")),
            );
            let ordered =
                matches!((ideal, partial, pre), (Some(i), Some(d), Some(p)) if i <= d && d < p);
            checks.check(ordered, || {
                format!(
                    "{}{suffix}: expected ideal <= dolos-partial < pre-wpq-secure, got {ideal:?}/{partial:?}/{pre:?}",
                    rec.kind
                )
            });
        }
    }
    match expected {
        Some(first) => {
            for (i, (a, b)) in first.iter().zip(&cycles).enumerate() {
                checks.check(a == b, || {
                    format!("replay cell {i}: {b} cycles, first pass {a}")
                });
            }
        }
        None => *expected = Some(cycles),
    }
    out
}
