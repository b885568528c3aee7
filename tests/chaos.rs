//! Crash-class pins for the `dolos-verify` reach family: seed
//! reproducibility, per-pipeline-stage crash classes, nested recovery,
//! adversarial tamper detection, the Post-WPQ reserved in-flight MAC, and
//! the proof that the acknowledged-write oracle implies the old in-order
//! oracle's rule.

use std::collections::BTreeMap;

use dolos::core::inject::{FaultPlan, InjectionPoint};
use dolos::core::{ControllerConfig, MiSuKind, SecureMemorySystem, SecurityError};
use dolos::sim::Cycle;
use dolos_verify::{
    all_designs, build_round_ops, run_scenario, run_scheme, run_verify, EngineOp, Scenario,
    ScenarioConfig, ScenarioVerdict, VerifyConfig, STREAM_CUTS,
};

fn run(text: &str, designs: &[ControllerConfig]) -> ScenarioVerdict {
    let scenario: Scenario = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
    let verdict = run_scenario(designs, &scenario);
    assert!(verdict.pass(), "{text}: {:?}", verdict.first_failure());
    verdict
}

fn secure_designs() -> Vec<ControllerConfig> {
    all_designs()[1..].to_vec()
}

fn dolos_designs() -> Vec<ControllerConfig> {
    all_designs()[3..].to_vec()
}

/// A fixed-seed campaign with both families replays bit for bit: identical
/// reports, identical JSON, at any worker count.
#[test]
fn fixed_seed_campaigns_replay_bit_for_bit() {
    let config = VerifyConfig {
        seed: 0xD0105,
        traces: 2,
        schedules: 4,
        workload_txns: 3,
        jobs: 1,
        ..VerifyConfig::default()
    };
    let first = run_verify(&config);
    let second = run_verify(&config);
    assert_eq!(first, second, "campaign must be deterministic");
    assert_eq!(first.to_json(), second.to_json());
    assert!(first.all_pass(), "{}", first.to_json());
    let parallel = run_verify(&VerifyConfig { jobs: 4, ..config });
    assert_eq!(first.to_json(), parallel.to_json());
}

/// Every design recovers to a clean audit from a crash injected at each
/// stage of the persist pipeline it exercises: persist start, Mi-SU MAC
/// (Dolos only), WPQ insert, and the Ma-SU drain engine.
#[test]
fn every_pipeline_stage_crash_class_recovers_clean() {
    for point in STREAM_CUTS {
        let verdict = run(
            &format!("seed=50373;keys=32;[t6@{point}#2;t3]"),
            &all_designs(),
        );
        for obs in &verdict.observations[1..] {
            let applies = point != InjectionPoint::MisuProtect || obs.scheme.starts_with("dolos-");
            assert_eq!(
                obs.fired[0].starts_with(point.name()),
                applies,
                "{} @ {point}: {:?}",
                obs.scheme,
                obs.fired
            );
        }
    }
}

/// A nested power failure during recovery replay leaves recovery
/// restartable: the second boot succeeds, audits clean, and loses nothing.
/// Replay (and therefore a replay-time crash) exists only in the Dolos
/// designs — the other controllers complete their writes inside `crash`.
#[test]
fn nested_crash_during_recovery_is_restartable_everywhere() {
    let verdict = run("seed=10377197;keys=24;[t6+n#0;t3]", &dolos_designs());
    for obs in &verdict.observations {
        assert_eq!(
            obs.nested_fired, 1,
            "{}: nested crash must fire",
            obs.scheme
        );
    }
}

/// Bit flips in committed metadata or ciphertext are always detected by
/// every secure design.
#[test]
fn tampering_committed_state_is_always_detected() {
    // Bits land on *live* state: a ciphertext bit of the first resident
    // data line; the major counter of the first counter block; the first
    // MAC slot, live because the small keyspace makes line 0 written. The
    // round quiesces first so the flip lands on settled state — a loaded
    // WPQ would let recovery replay rewrite (and so heal) the metadata.
    for (region, bit) in [("data", 301), ("counters", 7), ("macs", 10)] {
        let text = format!("seed=31290;keys=8;[t6+q+flip({region},0,{bit})]");
        for obs in run(&text, &secure_designs()).observations {
            assert!(obs.tamper_detected, "{} / {region}: {obs:?}", obs.scheme);
        }
    }
}

/// Corrupting the ADR dump itself — a flipped dump line or a torn
/// (partially stale) dump — is detected by every Dolos Mi-SU variant at
/// recovery time.
#[test]
fn dump_corruption_is_detected_by_every_misu_variant() {
    // The first round leaves a dump epoch behind so a torn second dump
    // mixes epochs; the shorter second round makes the two epochs differ.
    for tamper in ["flip(wpq-dump,1,77)", "torn(2)"] {
        let text = format!("seed=28868;keys=16;[t6;t2+{tamper}]");
        for obs in run(&text, &dolos_designs()).observations {
            assert!(obs.tamper_detected, "{} / {tamper}: {obs:?}", obs.scheme);
        }
    }
}

/// §5.3: the Post-WPQ design computes no MAC before insertion; instead the
/// ADR reserve energy finishes the one in-flight MAC during the dump. A
/// power failure at the insert instant must therefore still yield a
/// verifiable dump and a durable new value for the interrupted write.
#[test]
fn post_wpq_reserved_inflight_mac_finishes_on_reserve_power() {
    let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Post));
    sys.arm_fault(FaultPlan::new(InjectionPoint::WpqInsert, 4));
    let mut t = Cycle::ZERO;
    let mut interrupted = None;
    for i in 0..12u64 {
        let data = [i as u8 + 1; 64];
        match sys.try_persist_write(t, i * 64, &data) {
            Ok(done) => t = done,
            Err(SecurityError::PowerInterrupted { point }) => {
                assert_eq!(point, InjectionPoint::WpqInsert);
                interrupted = Some((i, data));
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let (addr_index, expected) = interrupted.expect("fault must fire");
    sys.disarm_fault();
    sys.recover()
        .expect("dump must verify: reserve power finished the MAC");
    sys.audit().expect("clean audit after recovery");
    // The inserted-but-unMAC'd write is durable with its *new* value: the
    // dump carried the line and the MAC the reserve energy completed.
    let (_, data) = sys.read(Cycle::ZERO, addr_index * 64);
    assert_eq!(data, expected, "in-flight write must be durable");
    for i in 0..addr_index {
        let (_, data) = sys.read(Cycle::ZERO, i * 64);
        assert_eq!(data, [i as u8 + 1; 64], "committed write {i} must survive");
    }
}

/// The engine's obligations hold on the ideal design too: it has no
/// detection duty, but clean crashes must still be crash-consistent.
#[test]
fn ideal_design_is_crash_consistent_without_detection_duties() {
    let text = "seed=7658;keys=32;[t4@wpq-insert#3;t4+n#0;t4@masu-drain#1]";
    let verdict = run(text, &[ControllerConfig::ideal()]);
    assert_eq!(verdict.observations[0].fired.len(), 3);
}

/// The rule of the in-order oracle the merged engine replaced, kept as the
/// reference: every write whose persist returned (or was cut after the WPQ
/// accepted it) reads back exactly; the one write cut earlier reads back
/// its old or its new value.
fn golden_rule(config: &ControllerConfig, scenario: &Scenario) -> Result<(), String> {
    let mut sys = SecureMemorySystem::new(config.clone());
    let mut committed: BTreeMap<u64, [u8; 64]> = BTreeMap::new();
    for (index, round) in scenario.rounds.iter().enumerate() {
        if let Some((point, nth)) = round.fault {
            sys.arm_fault(FaultPlan::new(point, nth));
        }
        let (mut t, mut inflight) = (Cycle::ZERO, None);
        'stream: for op in build_round_ops(scenario, index) {
            let writes = match op {
                EngineOp::Advance(n) => {
                    t += n;
                    continue;
                }
                EngineOp::Read(addr) => {
                    t = sys.read(t, addr).0;
                    continue;
                }
                EngineOp::Batch(lines) => lines,
                EngineOp::Writeback(addr, line) => vec![(addr, line)],
            };
            for (addr, data) in writes {
                match sys.try_persist_write(t, addr, &data) {
                    Ok(done) => t = done,
                    Err(SecurityError::PowerInterrupted { point }) => {
                        if point != InjectionPoint::WpqInsert {
                            inflight = Some((addr, data));
                            break 'stream;
                        }
                    }
                    Err(e) => return Err(e.to_string()),
                }
                committed.insert(addr, data);
                if sys.is_crashed() {
                    break 'stream;
                }
            }
        }
        sys.disarm_fault();
        if round.quiesce && !sys.is_crashed() {
            t = sys.quiesce(t);
        }
        if !sys.is_crashed() {
            sys.crash(t);
        }
        if let Some(nth) = round.nested {
            sys.arm_fault(FaultPlan::new(InjectionPoint::RecoveryReplay, nth));
        }
        if sys.recover().is_err() {
            sys.disarm_fault();
            sys.recover().map_err(|e| e.to_string())?;
        }
        sys.disarm_fault();
        sys.audit().map_err(|e| e.to_string())?;
        if let Some((addr, new)) = inflight {
            let old = committed.get(&addr).copied().unwrap_or([0; 64]);
            let got = sys.read(Cycle::ZERO, addr).1;
            if got != old && got != new {
                return Err(format!("round {index}: in-flight {addr:#x} is neither"));
            }
            committed.insert(addr, got);
        }
        for (&addr, want) in &committed {
            if sys.read(Cycle::ZERO, addr).1 != *want {
                return Err(format!("round {index}: committed {addr:#x} diverged"));
            }
        }
    }
    Ok(())
}

/// The dropped oracle's obligations are implied: over crash schedules cut
/// at all four pipeline points (with and without nested crashes and hot
/// lines) and over generated reach scenarios, every run the merged oracle
/// accepts also satisfies the old rule.
#[test]
fn merged_oracle_implies_the_golden_oracle_rule() {
    let mut scenarios: Vec<Scenario> = Vec::new();
    for point in STREAM_CUTS {
        for (seed, nth) in [(50373, 2), (11, 5), (12, 140)] {
            let hot = if nth > 128 { "+hot(3)" } else { "" };
            for text in [
                format!("seed={seed};keys=32;[t6@{point}#{nth}{hot};t3]"),
                format!("seed={seed};keys=16;[t4@{point}#{nth}{hot}+n#1;t2+q]"),
            ] {
                scenarios.push(text.parse().expect("scenario parses"));
            }
        }
    }
    let config = ScenarioConfig {
        tamper: false,
        ..ScenarioConfig::default()
    };
    scenarios.extend((0..8).map(|seed| Scenario::generate_reach(seed, &config)));
    let (mut accepted, mut fired) = (0, std::collections::BTreeSet::new());
    for scenario in &scenarios {
        for design in all_designs() {
            let obs = run_scheme(&design, scenario);
            if !obs.pass() {
                continue;
            }
            accepted += 1;
            fired.extend(
                obs.fired
                    .iter()
                    .filter_map(|f| Some(f.split_once('#')?.0.to_string())),
            );
            if let Err(e) = golden_rule(&design, scenario) {
                panic!("{scenario} on {}: accepted, but {e}", obs.scheme);
            }
        }
    }
    assert_eq!(accepted, scenarios.len() * 6, "every run passes");
    assert_eq!(fired.len(), STREAM_CUTS.len(), "cuts that fired: {fired:?}");
}
