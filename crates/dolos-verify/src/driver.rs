//! The driver: one scenario replayed on one design.
//!
//! A scenario's operation stream is precomputed once per round
//! ([`build_round_ops`]) — addresses from the [`dolos_whisper::gen`]
//! transaction generator, payloads baked from a seeded stream — so every
//! design replays exactly the same calls. [`run_scheme`] drives one design
//! through every round: the stream up to its power-failure cut, the crash,
//! the adversarial window (tampering while the machine is dark), the boot
//! (retried once after a nested recovery crash), and the recovered state
//! checked line by line against the [`AckOracle`].
//!
//! Tamper rounds are terminal: a secure design must detect the corruption
//! (recovery, audit or a read fails) or provably land in un-diverged state;
//! the non-secure reference has no detection duty — absorbed corruption is
//! recorded, not failed.

use dolos_core::inject::{FaultPlan, InjectionPoint};
use dolos_core::{ControllerConfig, ControllerKind, SecureMemorySystem, SecurityError};
use dolos_nvm::{Line, LineAddr, NvmDevice};
use dolos_secmem::layout::{MetaRegion, MetadataLayout};
use dolos_sim::rng::XorShift;
use dolos_sim::Cycle;
use dolos_whisper::gen::{self, TraceGenConfig};
use dolos_whisper::trace::TraceOp;

use crate::oracle::{render_line_prefix, AckOracle};
use crate::scenario::{Scenario, TamperSpec, HOT_WRITES};

/// One precomputed operation of the engine stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOp {
    /// Advance simulated time.
    Advance(u64),
    /// One fence batch of persist calls with baked payloads.
    Batch(Vec<(u64, Line)>),
    /// A background writeback (persists through the same path).
    Writeback(u64, Line),
    /// A demand read, checked against the model.
    Read(u64),
}

/// Simulated cycles between two hot-line writes: longer than any design's
/// drain of one entry, so each write reaches the Ma-SU on its own instead
/// of coalescing in the WPQ.
const HOT_GAP: u64 = 1 << 14;

fn round_seed(seed: u64, round: usize) -> u64 {
    seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn bake_line(rng: &mut XorShift) -> Line {
    let mut data = [0u8; 64];
    for chunk in data.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    data
}

/// Precomputes one round's operation stream: the hot-line writes, if any,
/// then generator addresses plus a deterministic payload per persist call.
/// Every design replays exactly this vector.
pub fn build_round_ops(scenario: &Scenario, round: usize) -> Vec<EngineOp> {
    let seed = round_seed(scenario.seed, round);
    let gen_config = TraceGenConfig {
        txns: scenario.rounds[round].txns,
        keyspace: scenario.keyspace,
        ..TraceGenConfig::default()
    };
    let trace = gen::generate(seed, &gen_config);
    let mut ops = Vec::with_capacity(trace.len());
    if let Some(key) = scenario.rounds[round].hot {
        let addr = key % scenario.keyspace.max(1) * 64;
        let mut pay = XorShift::new(seed ^ 0x0407_11E5);
        for _ in 0..HOT_WRITES {
            ops.push(EngineOp::Batch(vec![(addr, bake_line(&mut pay))]));
            ops.push(EngineOp::Advance(HOT_GAP));
        }
    }
    let mut pay = XorShift::new(seed ^ 0x0BAD_F00D);
    for op in trace.iter() {
        match op {
            TraceOp::Work(n) | TraceOp::Delay(n) => ops.push(EngineOp::Advance(*n)),
            TraceOp::PersistBatch(lines) => ops.push(EngineOp::Batch(
                lines
                    .iter()
                    .map(|&addr| (addr, bake_line(&mut pay)))
                    .collect(),
            )),
            TraceOp::Writeback(addr) => ops.push(EngineOp::Writeback(*addr, bake_line(&mut pay))),
            TraceOp::Read(addr) => ops.push(EngineOp::Read(*addr)),
        }
    }
    ops
}

/// Applies a tamper while the system is crashed. Returns `false` if the
/// spec's target had no resident lines to corrupt.
///
/// `per_bank_slots` is the usable WPQ depth of one bank
/// ([`ControllerConfig::usable_wpq_entries`]): global dump slot `s` belongs
/// to bank `s / per_bank_slots`, which is how [`TamperSpec::TornBank`]
/// selects its victim shard.
pub(crate) fn apply_tamper(
    nvm: &mut NvmDevice,
    layout: &MetadataLayout,
    spec: TamperSpec,
    dump_snapshot: &[(LineAddr, Line)],
    per_bank_slots: usize,
) -> bool {
    // The torn variants revert the trailing lines of (a shard of) the dump
    // burst: they never left the buffer and still hold the previous epoch.
    let revert = |nvm: &mut NvmDevice, lines: &[(LineAddr, Line)], drop: usize| {
        if lines.is_empty() || drop == 0 {
            return false;
        }
        let n = drop.min(lines.len());
        // audit:allow(persistence-domain) -- torn-dump fault injection models exactly the ADR loss the WPQ cannot see, so it must bypass it
        nvm.restore_lines(&lines[lines.len() - n..]);
        true
    };
    match spec {
        TamperSpec::FlipBit { region, pick, bit } => {
            let (start, end) = layout.region_range(region);
            let resident = nvm.resident_lines_in(start, end);
            if resident.is_empty() {
                return false;
            }
            nvm.flip_bit(resident[(pick % resident.len() as u64) as usize], bit);
            true
        }
        TamperSpec::TornDump { drop } => revert(nvm, dump_snapshot, drop),
        TamperSpec::TornBank { bank, drop } => {
            if per_bank_slots == 0 {
                return false;
            }
            // Only the victim bank's payload lines revert; table lines and
            // other shards' slots persisted on their own reserve bursts.
            let (start, _) = layout.region_range(MetaRegion::WpqDump);
            let shard: Vec<(LineAddr, Line)> = dump_snapshot
                .iter()
                .copied()
                .filter(|(addr, _)| {
                    (addr.as_u64() - start) / 64 / per_bank_slots as u64 == bank as u64
                })
                .collect();
            revert(nvm, &shard, drop)
        }
    }
}

/// Everything one design's replay of a scenario observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeObservation {
    /// Scheme name.
    pub scheme: &'static str,
    /// Divergences against the model (empty on a clean run).
    pub divergences: Vec<String>,
    /// Per-round fault firing, rendered as `point#persist-index` or `-`.
    /// Equal across schemes on [`CUT_POINTS`](crate::scenario::CUT_POINTS) rounds iff every scheme
    /// acknowledged the same persist prefix.
    pub fired: Vec<String>,
    /// Acknowledged (committed) persist calls.
    pub commits: u64,
    /// Reads checked against the model during the streams.
    pub reads_checked: u64,
    /// Recovered-state lines checked against the model after crashes.
    pub lines_checked: u64,
    /// Rounds whose scheduled nested recovery crash fired.
    pub nested_fired: u64,
    /// Rounds in which a page overflowed before the crash (the Ma-SU's
    /// `masu.overflows` stat moved).
    pub overflow_rounds: u64,
    /// A tamper round ended in detection (security property fired).
    pub tamper_detected: bool,
    /// A tamper was applied, went undetected, and the state still matched
    /// the model (corruption hit dead state).
    pub tamper_harmless: bool,
    /// Non-secure reference only: undetected corruption diverged the data
    /// and was absorbed. Recorded, never a failure for the reference.
    pub tamper_absorbed: bool,
}

impl SchemeObservation {
    /// An observation of `scheme` with nothing recorded yet.
    pub(crate) fn blank(scheme: &'static str) -> Self {
        Self {
            scheme,
            divergences: Vec::new(),
            fired: Vec::new(),
            commits: 0,
            reads_checked: 0,
            lines_checked: 0,
            nested_fired: 0,
            overflow_rounds: 0,
            tamper_detected: false,
            tamper_harmless: false,
            tamper_absorbed: false,
        }
    }

    /// Whether this scheme met every obligation.
    pub fn pass(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Replays `scenario` on one design, checking every obligation against the
/// acknowledged-write model. Deterministic: equal inputs give equal observations.
pub fn run_scheme(config: &ControllerConfig, scenario: &Scenario) -> SchemeObservation {
    // The scenario's bank axis applies uniformly: every scheme replays the
    // stream on the same NVM geometry (banks=1 leaves the config untouched).
    let config = config.clone().with_banks(scenario.banks.max(1));
    let secure = !matches!(config.kind, ControllerKind::IdealNonSecure);
    let mut sys = SecureMemorySystem::new(config.clone());
    let layout = *sys.layout();
    let mut oracle = AckOracle::new();
    let mut obs = SchemeObservation::blank(config.kind.name());

    for (index, round) in scenario.rounds.iter().enumerate() {
        let ops = build_round_ops(scenario, index);
        let overflows_before = sys.page_overflows();

        // Stale-epoch snapshot for a scheduled torn dump, taken before this
        // round's crash overwrites the region.
        let dump_snapshot = if matches!(
            round.tamper,
            Some(TamperSpec::TornDump { .. } | TamperSpec::TornBank { .. })
        ) {
            let (start, end) = layout.region_range(MetaRegion::WpqDump);
            sys.nvm().snapshot_range(start, end)
        } else {
            Vec::new()
        };

        if let Some((point, nth)) = round.fault {
            sys.arm_fault(FaultPlan::new(point, nth));
        }
        let mut t = Cycle::ZERO;
        let mut persist_index: u64 = 0;
        let mut fired: Option<(InjectionPoint, u64)> = None;

        // One persist call; returns false when the stream must stop (the
        // armed fault fired or the call failed outright).
        let mut persist = |sys: &mut SecureMemorySystem,
                           t: &mut Cycle,
                           obs: &mut SchemeObservation,
                           oracle: &mut AckOracle,
                           addr: u64,
                           payload: Line|
         -> bool {
            match sys.try_persist_write(*t, addr, &payload) {
                Ok(done) => {
                    *t = done;
                    oracle.acknowledge(addr, payload);
                    obs.commits += 1;
                    persist_index += 1;
                    true
                }
                Err(SecurityError::PowerInterrupted { point }) => {
                    if oracle.interrupt(point, addr, payload) {
                        obs.commits += 1;
                    }
                    fired = Some((point, persist_index));
                    false
                }
                Err(e) => {
                    obs.divergences
                        .push(format!("round {index}: persist failed: {e}"));
                    false
                }
            }
        };

        'stream: for op in &ops {
            match op {
                EngineOp::Advance(n) => t += *n,
                EngineOp::Batch(lines) => {
                    for &(addr, payload) in lines {
                        if !persist(&mut sys, &mut t, &mut obs, &mut oracle, addr, payload) {
                            break 'stream;
                        }
                    }
                }
                EngineOp::Writeback(addr, payload) => {
                    if !persist(&mut sys, &mut t, &mut obs, &mut oracle, *addr, *payload) {
                        break 'stream;
                    }
                }
                EngineOp::Read(addr) => {
                    obs.reads_checked += 1;
                    let expect = oracle.expected(*addr);
                    match sys.try_read(t, *addr) {
                        Ok((done, data)) => {
                            t = done;
                            if data != expect {
                                obs.divergences.push(format!(
                                    "round {index}: read {addr:#x} returned {} want {}",
                                    render_line_prefix(&data),
                                    render_line_prefix(&expect)
                                ));
                            }
                        }
                        Err(e) => obs
                            .divergences
                            .push(format!("round {index}: read {addr:#x} failed: {e}")),
                    }
                }
            }
        }
        sys.disarm_fault();
        if !obs.divergences.is_empty() {
            return obs;
        }
        obs.fired.push(match fired {
            Some((point, i)) => format!("{point}#{i}"),
            None => "-".to_string(),
        });

        if round.quiesce && !sys.is_crashed() {
            t = sys.quiesce(t);
        }
        if !sys.is_crashed() {
            sys.crash(t);
        }
        obs.overflow_rounds += u64::from(sys.page_overflows() > overflows_before);

        // --- adversarial window ---
        let tampered = match round.tamper {
            Some(spec) => apply_tamper(
                sys.nvm_mut(),
                &layout,
                spec,
                &dump_snapshot,
                config.usable_wpq_entries(),
            ),
            None => false,
        };

        // --- boot, retrying once on a scheduled nested crash ---
        if let Some(nth) = round.nested {
            sys.arm_fault(FaultPlan::new(InjectionPoint::RecoveryReplay, nth));
        }
        let mut recovery = sys.recover();
        if matches!(
            recovery,
            Err(SecurityError::PowerInterrupted {
                point: InjectionPoint::RecoveryReplay,
            })
        ) {
            obs.nested_fired += 1;
            recovery = sys.recover();
        }
        sys.disarm_fault();

        let mut detected = match recovery {
            Ok(_) => sys.audit().err(),
            Err(e) => Some(e),
        };

        // --- recovered state vs the model, line by line ---
        let mut diverged = Vec::new();
        if detected.is_none() {
            oracle.settle(&mut sys);
            let check = oracle.check(&mut sys);
            obs.lines_checked += check.lines_checked;
            detected = check.detected;
            diverged = check.mismatches;
        }
        if let Some(error) = detected {
            if tampered {
                obs.tamper_detected = true;
                return obs; // terminal: the machine refuses to come up
            }
            obs.divergences
                .push(format!("round {index}: spurious detection: {error}"));
            return obs;
        }
        if tampered && !secure && !diverged.is_empty() {
            obs.tamper_absorbed = true;
            return obs; // absorbed by the non-secure reference
        }
        let suffix = if tampered { " (silent corruption)" } else { "" };
        for d in diverged {
            obs.divergences.push(format!("round {index}: {d}{suffix}"));
        }
        if !obs.divergences.is_empty() {
            return obs;
        }
        if tampered {
            obs.tamper_harmless = true;
            return obs; // tamper rounds are terminal
        }
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::all_designs;
    use crate::scenario::Round;
    use crate::schedule::ScenarioConfig;
    use dolos_core::MiSuKind;

    #[test]
    fn clean_schedules_pass_on_every_design() {
        let config = ScenarioConfig {
            rounds: 3,
            txns_per_round: 4,
            keyspace: 32,
            tamper: false,
            banks: 1,
        };
        let scenario = Scenario::generate_reach(11, &config);
        for design in all_designs() {
            let obs = run_scheme(&design, &scenario);
            assert!(obs.pass(), "{}: {:?}", obs.scheme, obs.divergences);
            assert_eq!(obs.fired.len(), 3, "{}", obs.scheme);
            assert!(obs.commits > 0 && obs.lines_checked > 0, "{obs:?}");
            assert!(!obs.tamper_detected && !obs.tamper_harmless, "{obs:?}");
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let scenario = Scenario::generate_reach(77, &ScenarioConfig::default());
        let config = ControllerConfig::dolos(MiSuKind::Partial);
        assert_eq!(
            run_scheme(&config, &scenario),
            run_scheme(&config, &scenario)
        );
    }

    #[test]
    fn dump_tamper_is_detected_on_dolos() {
        // Cut at a WPQ insert so the crash dumps a non-empty queue, then
        // flip a bit of the dump while the machine is dark.
        let scenario = Scenario {
            seed: 3,
            keyspace: 16,
            banks: 1,
            rounds: vec![Round {
                txns: 4,
                fault: Some((InjectionPoint::WpqInsert, 2)),
                hot: None,
                quiesce: false,
                nested: None,
                tamper: Some(TamperSpec::FlipBit {
                    region: MetaRegion::WpqDump,
                    pick: 0,
                    bit: 9,
                }),
            }],
        };
        let obs = run_scheme(&ControllerConfig::dolos(MiSuKind::Partial), &scenario);
        assert!(obs.pass(), "{:?}", obs.divergences);
        assert!(obs.tamper_detected, "{obs:?}");
        assert_eq!(obs.fired, vec!["wpq-insert#2".to_string()]);
    }
}
