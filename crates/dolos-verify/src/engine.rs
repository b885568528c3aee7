//! The engine: one scenario, every design, one shared oracle.
//!
//! [`run_scenario`] replays a scenario on each configured design through
//! the [`crate::driver`], each held to the same acknowledged-write model
//! ([`crate::oracle`]), so
//!
//! * **semantic conformance** is "zero divergences against the model", and
//! * **cross-scheme identity** reduces to every design acknowledging the
//!   same persist prefix — checked by comparing the fault-firing positions
//!   and commit counts of rounds cut at a [`CUT_POINTS`] point.

use dolos_core::{ControllerConfig, MiSuKind};

use crate::driver::{run_scheme, SchemeObservation};
use crate::scenario::{Scenario, CUT_POINTS};

/// The five schemes the differential family sweeps, in report order: the
/// non-secure reference, the eager-BMT baseline, then the three Mi-SU
/// design options.
pub fn verify_schemes() -> [ControllerConfig; 5] {
    [
        ControllerConfig::ideal(),
        ControllerConfig::baseline(),
        ControllerConfig::dolos(MiSuKind::Full),
        ControllerConfig::dolos(MiSuKind::Partial),
        ControllerConfig::dolos(MiSuKind::Post),
    ]
}

/// Every controller design, in report order: the differential schemes
/// plus the infeasible deferred-security point. The reach family and
/// `replay` run all six.
pub fn all_designs() -> [ControllerConfig; 6] {
    [
        ControllerConfig::ideal(),
        ControllerConfig::deferred(),
        ControllerConfig::baseline(),
        ControllerConfig::dolos(MiSuKind::Full),
        ControllerConfig::dolos(MiSuKind::Partial),
        ControllerConfig::dolos(MiSuKind::Post),
    ]
}

/// Verdict of one scenario across a set of designs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioVerdict {
    /// The scenario, rendered (replayable).
    pub scenario: String,
    /// Per-design observations, in the order the designs were given.
    pub observations: Vec<SchemeObservation>,
    /// Cross-scheme divergences (fault cuts or commit counts that differ
    /// between designs).
    pub cross_failures: Vec<String>,
}

impl ScenarioVerdict {
    /// Whether every design passed and all designs agreed.
    pub fn pass(&self) -> bool {
        self.cross_failures.is_empty() && self.observations.iter().all(|o| o.pass())
    }

    /// The first failure message, if any.
    pub fn first_failure(&self) -> Option<String> {
        for obs in &self.observations {
            if let Some(d) = obs.divergences.first() {
                return Some(format!("{}: {d}", obs.scheme));
            }
        }
        self.cross_failures.first().cloned()
    }
}

/// Runs one scenario through every design in `designs` and cross-checks
/// the outcomes against the first design's.
pub fn run_scenario(designs: &[ControllerConfig], scenario: &Scenario) -> ScenarioVerdict {
    let observations: Vec<SchemeObservation> = designs
        .iter()
        .map(|config| run_scheme(config, scenario))
        .collect();
    // Only rounds cut at a scheme-independent point (or not cut) stop every
    // design at the same persist call.
    let comparable: Vec<bool> = scenario
        .rounds
        .iter()
        .map(|r| r.fault.is_none_or(|(p, _)| CUT_POINTS.contains(&p)))
        .collect();
    let mut cross_failures = Vec::new();
    let reference = &observations[0];
    for obs in &observations[1..] {
        // A detected tamper ends the run before its round's state checks,
        // so commit totals are only comparable when both runs completed
        // the same rounds; the fired cut positions are always comparable
        // over the rounds both executed.
        let rounds = obs.fired.len().min(reference.fired.len());
        if (0..rounds).any(|i| comparable[i] && obs.fired[i] != reference.fired[i]) {
            cross_failures.push(format!(
                "{} cut at [{}] but {} cut at [{}]",
                reference.scheme,
                reference.fired[..rounds].join(","),
                obs.scheme,
                obs.fired[..rounds].join(",")
            ));
        }
        if comparable.iter().all(|&c| c)
            && obs.fired.len() == reference.fired.len()
            && !obs.tamper_detected
            && !reference.tamper_detected
            && obs.commits != reference.commits
        {
            cross_failures.push(format!(
                "{} acknowledged {} persists but {} acknowledged {}",
                reference.scheme, reference.commits, obs.scheme, obs.commits
            ));
        }
    }
    ScenarioVerdict {
        scenario: scenario.to_string(),
        observations,
        cross_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{build_round_ops, EngineOp};
    use crate::scenario::{Round, TamperSpec, HOT_WRITES};
    use crate::schedule::ScenarioConfig;
    use dolos_core::inject::InjectionPoint;
    use dolos_secmem::layout::MetaRegion;

    fn round(txns: usize, fault: Option<(InjectionPoint, u64)>) -> Round {
        Round {
            txns,
            fault,
            hot: None,
            quiesce: false,
            nested: None,
            tamper: None,
        }
    }

    #[test]
    fn clean_scenarios_pass_on_every_scheme() {
        let config = ScenarioConfig {
            tamper: false,
            ..ScenarioConfig::default()
        };
        for seed in 0..8 {
            for (designs, scenario) in [
                (&verify_schemes()[..], Scenario::generate(seed, &config)),
                (&all_designs()[..], Scenario::generate_reach(seed, &config)),
            ] {
                let verdict = run_scenario(designs, &scenario);
                assert!(
                    verdict.pass(),
                    "{}: {:?}",
                    verdict.scenario,
                    verdict.first_failure()
                );
                for obs in &verdict.observations {
                    assert!(obs.commits > 0, "{}", obs.scheme);
                    assert!(obs.lines_checked > 0, "{}", obs.scheme);
                }
            }
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let scenario = Scenario::generate_reach(5, &ScenarioConfig::default());
        assert_eq!(
            run_scenario(&all_designs(), &scenario),
            run_scenario(&all_designs(), &scenario)
        );
    }

    #[test]
    fn schemes_share_one_operation_stream() {
        let scenario = Scenario::generate(1, &ScenarioConfig::default());
        let a = build_round_ops(&scenario, 0);
        assert_eq!(a, build_round_ops(&scenario, 0));
        assert!(a.iter().any(|op| matches!(op, EngineOp::Batch(_))));
        // A hot line only prepends its writes: the transactions after it
        // are the same stream.
        let mut hot = scenario.clone();
        hot.rounds[0].hot = Some(3);
        let b = build_round_ops(&hot, 0);
        assert_eq!(b[2 * HOT_WRITES as usize..], a[..]);
        assert!(matches!(&b[0], EngineOp::Batch(l) if l.len() == 1 && l[0].0 == 3 * 64));
    }

    #[test]
    fn persist_start_cut_loses_the_interrupted_write() {
        // Pin the cut semantics: a fault at persist-start#0 means zero
        // commits in that round, wpq-insert#0 means exactly one.
        for (point, expect) in [
            (InjectionPoint::PersistStart, 0),
            (InjectionPoint::WpqInsert, 1),
        ] {
            let scenario = Scenario {
                seed: 77,
                keyspace: 16,
                banks: 1,
                rounds: vec![round(3, Some((point, 0)))],
            };
            let verdict = run_scenario(&all_designs(), &scenario);
            assert!(verdict.pass(), "{:?}", verdict.first_failure());
            for obs in &verdict.observations {
                assert_eq!(obs.commits, expect, "{} at {point}", obs.scheme);
                assert_eq!(obs.fired, vec![format!("{point}#0")]);
            }
        }
    }

    #[test]
    fn hot_rounds_overflow_on_every_secure_design() {
        let scenario: Scenario = "seed=4;keys=32;[t2+hot(9);t2]".parse().unwrap();
        let verdict = run_scenario(&all_designs(), &scenario);
        assert!(verdict.pass(), "{:?}", verdict.first_failure());
        for obs in &verdict.observations {
            let want = u64::from(obs.scheme != "ideal");
            assert_eq!(obs.overflow_rounds, want, "{}", obs.scheme);
        }
    }

    #[test]
    fn conformance_holds_on_both_bank_axes() {
        // The acknowledged-write oracle and the cross-scheme cut-position
        // identity are geometry-independent claims: they must hold whether
        // the WPQ is one queue or four shards. Same seeds, both axes.
        for banks in [1, 4] {
            let config = ScenarioConfig {
                tamper: false,
                banks,
                ..ScenarioConfig::default()
            };
            for seed in 0..6 {
                let scenario = Scenario::generate(seed, &config);
                assert_eq!(scenario.banks, banks);
                let verdict = run_scenario(&verify_schemes(), &scenario);
                assert!(
                    verdict.pass(),
                    "banks={banks} {}: {:?}",
                    verdict.scenario,
                    verdict.first_failure()
                );
                for obs in &verdict.observations {
                    assert!(obs.commits > 0, "banks={banks} {}", obs.scheme);
                }
            }
        }
    }

    #[test]
    fn bank_axis_preserves_commit_counts_per_seed() {
        // Banking changes *when* drains retire, never *which* persists are
        // acknowledged: with no mid-stream cut, a seed's commit total is
        // identical at banks=1 and banks=4 for every scheme.
        let base = ScenarioConfig {
            tamper: false,
            ..ScenarioConfig::default()
        };
        for seed in 0..4 {
            let single = run_scenario(&verify_schemes(), &Scenario::generate(seed, &base));
            let banked = run_scenario(
                &verify_schemes(),
                &Scenario::generate(seed, &ScenarioConfig { banks: 4, ..base }),
            );
            assert!(single.pass() && banked.pass(), "seed {seed}");
            for (a, b) in single.observations.iter().zip(&banked.observations) {
                assert_eq!(a.scheme, b.scheme);
                assert_eq!(a.commits, b.commits, "seed {seed} {}", a.scheme);
                assert_eq!(a.fired, b.fired, "seed {seed} {}", a.scheme);
            }
        }
    }

    /// Runs `scenario` on every design and checks that the Mi-SU designs
    /// detect its tamper while the others have nothing to corrupt.
    fn assert_detected_by_misu_designs_only(scenario: &Scenario) {
        let verdict = run_scenario(&all_designs(), scenario);
        assert!(verdict.pass(), "{:?}", verdict.first_failure());
        for obs in &verdict.observations {
            let misu = obs.scheme.starts_with("dolos-");
            assert_eq!(obs.tamper_detected, misu, "{scenario}: {obs:?}");
            if !misu {
                assert!(!obs.tamper_harmless && !obs.tamper_absorbed, "{obs:?}");
            }
        }
    }

    #[test]
    fn torn_bank_tamper_is_detected_by_every_misu_scheme() {
        // Round 0 crashes with a loaded queue, so every Mi-SU scheme dumps
        // a first-epoch image; round 1 crashes again and the tamper rewinds
        // bank 1's entire shard to that stale image. The victim slots fail
        // MAC/root verification on every dolos scheme; the schemes without
        // a dump region have nothing to tear and skip the tamper.
        let cut = round(6, Some((InjectionPoint::WpqInsert, 7)));
        let scenario = Scenario {
            seed: 3,
            keyspace: 16,
            banks: 4,
            rounds: vec![
                cut.clone(),
                Round {
                    tamper: Some(TamperSpec::TornBank { bank: 1, drop: 13 }),
                    ..cut
                },
            ],
        };
        assert_detected_by_misu_designs_only(&scenario);
    }

    #[test]
    fn dump_tamper_is_detected_by_every_misu_scheme() {
        // Cut at a WPQ insert so the queue is guaranteed non-empty at the
        // crash. Only the Mi-SU designs materialise a WpqDump region
        // (`crash()` replays the other designs' entries in place), so the
        // flip must be *detected* by every dolos-* scheme and *skipped* —
        // no resident line to corrupt — by the rest.
        let scenario = Scenario {
            seed: 3,
            keyspace: 16,
            banks: 1,
            rounds: vec![Round {
                tamper: Some(TamperSpec::FlipBit {
                    region: MetaRegion::WpqDump,
                    pick: 0,
                    bit: 9,
                }),
                ..round(4, Some((InjectionPoint::WpqInsert, 2)))
            }],
        };
        assert_detected_by_misu_designs_only(&scenario);
    }
}
