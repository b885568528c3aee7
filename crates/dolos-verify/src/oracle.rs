//! The oracle: a pure model of acknowledged writes.
//!
//! The model is a plaintext map from line address to the last value the
//! core saw acknowledged. A persist call that returns `Ok` commits. What a
//! call interrupted by a power failure leaves behind depends on where the
//! cut landed:
//!
//! | cut point       | interrupted write | why                                      |
//! |-----------------|-------------------|------------------------------------------|
//! | `persist-start` | lost              | nothing ran yet                          |
//! | `misu-protect`  | lost              | cut before the WPQ accepted the line     |
//! | `wpq-insert`    | committed         | the ADR domain accepted the line         |
//! | `masu-drain`    | old or new        | the drain fired before or after insertion |
//!
//! After a crash and recovery the system must agree with the model: every
//! committed line reads back bit for bit, and the one write left open by a
//! `masu-drain` cut reads back its old or its new value — whichever the
//! crash produced is then locked in, so one oracle follows a scenario
//! through many crash rounds.

use std::collections::BTreeMap;

use dolos_core::inject::InjectionPoint;
use dolos_core::{SecureMemorySystem, SecurityError};
use dolos_nvm::Line;
use dolos_sim::Cycle;

/// Renders the first four bytes of a line for divergence messages.
pub(crate) fn render_line_prefix(line: &Line) -> String {
    format!(
        "{:02x}{:02x}{:02x}{:02x}..",
        line[0], line[1], line[2], line[3]
    )
}

/// A recovered line that disagrees with the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Line address.
    pub addr: u64,
    /// The value the model holds.
    pub expected: Line,
    /// The value the system returned.
    pub actual: Line,
}

impl core::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "recovered {:#x} holds {} want {}",
            self.addr,
            render_line_prefix(&self.actual),
            render_line_prefix(&self.expected)
        )
    }
}

/// The outcome of checking recovered state against the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredCheck {
    /// Lines read, including the one whose read failed, if any.
    pub lines_checked: u64,
    /// Lines that read back a value other than the model's.
    pub mismatches: Vec<Mismatch>,
    /// The error that stopped the check: the system refused a read.
    pub detected: Option<SecurityError>,
}

/// The acknowledged-write model of one scenario replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AckOracle {
    /// Last committed value per line (ordered: deterministic checks).
    committed: BTreeMap<u64, Line>,
    /// The write cut at `masu-drain`, whose fate is decided at recovery:
    /// `(addr, new value)`.
    open: Option<(u64, Line)>,
}

impl AckOracle {
    /// An empty model: every line reads zero, like a fresh device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a persist call that returned `Ok`.
    pub fn acknowledge(&mut self, addr: u64, data: Line) {
        self.committed.insert(addr, data);
    }

    /// Records a persist call cut by a power failure at `point` and returns
    /// whether the write counts as committed (see the module table).
    pub fn interrupt(&mut self, point: InjectionPoint, addr: u64, data: Line) -> bool {
        match point {
            InjectionPoint::WpqInsert => {
                self.acknowledge(addr, data);
                true
            }
            InjectionPoint::MasuDrain => {
                self.open = Some((addr, data));
                false
            }
            _ => false,
        }
    }

    /// The value `addr` must read back.
    pub fn expected(&self, addr: u64) -> Line {
        self.committed.get(&addr).copied().unwrap_or([0; 64])
    }

    /// Number of committed lines.
    pub fn committed_lines(&self) -> usize {
        self.committed.len()
    }

    /// Whether a write cut at `masu-drain` awaits [`Self::settle`].
    pub fn has_open(&self) -> bool {
        self.open.is_some()
    }

    /// Decides the open write after recovery: if the line reads its new
    /// value the write committed, otherwise the old value stands (a line
    /// that reads as neither, or not at all, then fails [`Self::check`]).
    /// Either way the line joins the checked set.
    pub fn settle(&mut self, sys: &mut SecureMemorySystem) {
        if let Some((addr, new)) = self.open.take() {
            let got = sys.try_read(Cycle::ZERO, addr).map(|(_, data)| data);
            let value = if got == Ok(new) {
                new
            } else {
                self.expected(addr)
            };
            self.acknowledge(addr, value);
        }
    }

    /// Reads every committed line of a recovered system, in address order,
    /// and compares it with the model. Stops at the first refused read.
    pub fn check(&self, sys: &mut SecureMemorySystem) -> RecoveredCheck {
        let mut out = RecoveredCheck {
            lines_checked: 0,
            mismatches: Vec::new(),
            detected: None,
        };
        for (&addr, &expected) in &self.committed {
            out.lines_checked += 1;
            match sys.try_read(Cycle::ZERO, addr) {
                Ok((_, actual)) if actual == expected => {}
                Ok((_, actual)) => out.mismatches.push(Mismatch {
                    addr,
                    expected,
                    actual,
                }),
                Err(e) => {
                    out.detected = Some(e);
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_core::{ControllerConfig, MiSuKind};

    /// Crashes `sys` at `t` and boots it again.
    fn power_cycle(sys: &mut SecureMemorySystem, t: Cycle) {
        sys.crash(t);
        sys.recover().expect("clean recovery");
    }

    #[test]
    fn committed_writes_must_match_exactly() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut oracle = AckOracle::new();
        let mut t = Cycle::ZERO;
        for i in 0..8u64 {
            t = sys.persist_write(t, i * 64, &[i as u8 + 1; 64]);
            oracle.acknowledge(i * 64, [i as u8 + 1; 64]);
        }
        // A wpq-insert cut commits: the line is already in the ADR domain.
        t = sys.persist_write(t, 8 * 64, &[9; 64]);
        assert!(oracle.interrupt(InjectionPoint::WpqInsert, 8 * 64, [9; 64]));
        power_cycle(&mut sys, t);
        let check = oracle.check(&mut sys);
        assert_eq!(check.lines_checked, 9);
        assert_eq!(check.mismatches, vec![]);
        assert_eq!(check.detected, None);

        // One write the core never saw acknowledged: the committed line it
        // overwrote no longer matches, and the check names it.
        t = sys.persist_write(Cycle::ZERO, 3 * 64, &[0xEE; 64]);
        power_cycle(&mut sys, t);
        let check = oracle.check(&mut sys);
        assert_eq!(check.lines_checked, 9);
        assert_eq!(
            check.mismatches,
            vec![Mismatch {
                addr: 3 * 64,
                expected: [4; 64],
                actual: [0xEE; 64],
            }]
        );
        assert_eq!(
            check.mismatches[0].to_string(),
            "recovered 0xc0 holds eeeeeeee.. want 04040404.."
        );
    }

    #[test]
    fn inflight_write_accepts_old_or_new() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut oracle = AckOracle::new();
        let t = sys.persist_write(Cycle::ZERO, 0, &[1; 64]);
        oracle.acknowledge(0, [1; 64]);

        // Cut before the new value reached NVM: the old value stands.
        assert!(!oracle.interrupt(InjectionPoint::MasuDrain, 0, [2; 64]));
        assert!(oracle.has_open());
        power_cycle(&mut sys, t);
        oracle.settle(&mut sys);
        assert!(!oracle.has_open());
        assert_eq!(oracle.expected(0), [1; 64]);
        assert_eq!(oracle.check(&mut sys).mismatches, vec![]);

        // Cut after it did: the new value is locked in.
        let t = sys.persist_write(Cycle::ZERO, 0, &[2; 64]);
        oracle.interrupt(InjectionPoint::MasuDrain, 0, [2; 64]);
        power_cycle(&mut sys, t);
        oracle.settle(&mut sys);
        assert_eq!(oracle.expected(0), [2; 64]);
        let check = oracle.check(&mut sys);
        assert_eq!((check.lines_checked, check.mismatches), (1, vec![]));

        // A third value is neither old nor new: corruption.
        let t = sys.persist_write(Cycle::ZERO, 0, &[3; 64]);
        oracle.interrupt(InjectionPoint::MasuDrain, 0, [4; 64]);
        power_cycle(&mut sys, t);
        oracle.settle(&mut sys);
        let check = oracle.check(&mut sys);
        assert_eq!(check.mismatches.len(), 1);
        assert_eq!(check.mismatches[0].actual, [3; 64]);
    }

    #[test]
    fn divergence_is_reported() {
        let mut sys = SecureMemorySystem::new(ControllerConfig::ideal());
        let mut oracle = AckOracle::new();
        sys.persist_write(Cycle::ZERO, 0, &[1; 64]);
        oracle.acknowledge(0, [1; 64]);
        // Tell the oracle of a write that never happened, and of cuts that
        // lose their write: only the phantom write diverges.
        oracle.acknowledge(64, [9; 64]);
        assert!(!oracle.interrupt(InjectionPoint::PersistStart, 128, [5; 64]));
        assert!(!oracle.interrupt(InjectionPoint::MisuProtect, 192, [5; 64]));
        assert_eq!(oracle.committed_lines(), 2);
        let check = oracle.check(&mut sys);
        assert_eq!(check.lines_checked, 2);
        assert_eq!(
            check.mismatches,
            vec![Mismatch {
                addr: 64,
                expected: [9; 64],
                actual: [0; 64],
            }]
        );
    }
}
