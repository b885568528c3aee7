//! Schedules: seeded generation of the two scenario families.
//!
//! [`Scenario::generate`] draws a differential scenario — cuts only at the
//! scheme-independent [`CUT_POINTS`], so every design stops at the same
//! persist call. [`Scenario::generate_reach`] decorates that same scenario
//! from an independent stream: cuts moved to any of the [`STREAM_CUTS`]
//! and hot lines that overflow a page. Both are pure functions of the seed
//! and the [`ScenarioConfig`], and confine tampering to the final round
//! because tamper rounds are terminal.

use dolos_secmem::layout::MetaRegion;
use dolos_sim::rng::XorShift;

use crate::scenario::{Round, Scenario, TamperSpec, CUT_POINTS, HOT_WRITES, MAX_KEYS, STREAM_CUTS};

/// Shape of generated scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Rounds per scenario.
    pub rounds: usize,
    /// Maximum transactions per round (at least 1 is always generated).
    pub txns_per_round: usize,
    /// Data keyspace in lines.
    pub keyspace: u64,
    /// Whether the final round may tamper with NVM while crashed.
    pub tamper: bool,
    /// NVM bank count the generated scenarios run with. At `1` (the
    /// default) generation is bit-identical to the pre-bank generator; at
    /// higher counts tamper rounds may also tear a single bank's dump.
    pub banks: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            rounds: 2,
            txns_per_round: 6,
            keyspace: 32,
            tamper: true,
            banks: 1,
        }
    }
}

impl Scenario {
    /// Generates a differential scenario from a seed: cuts only at
    /// [`CUT_POINTS`], no hot lines. Deterministic; tampering is confined
    /// to the final round because tamper rounds are terminal.
    pub fn generate(seed: u64, config: &ScenarioConfig) -> Self {
        let mut rng = XorShift::new(seed ^ 0xD1FF_5EED);
        let rounds = config.rounds.max(1);
        let mut out = Vec::with_capacity(rounds);
        for index in 0..rounds {
            let txns = 1 + rng.next_below(config.txns_per_round.max(1) as u64) as usize;
            // A transaction issues up to 2*batch+1 persist calls; aiming the
            // occurrence inside (and occasionally past) the stream exercises
            // both firing and non-firing cuts.
            let fault = if rng.chance(0.7) {
                let point = CUT_POINTS[rng.next_below(2) as usize];
                let nth = rng.next_below((txns as u64) * 8);
                Some((point, nth))
            } else {
                None
            };
            let quiesce = rng.chance(0.25);
            let nested = if rng.chance(0.3) {
                Some(rng.next_below(8))
            } else {
                None
            };
            let tamper = if config.tamper && index + 1 == rounds && rng.chance(0.6) {
                Some(if rng.chance(0.7) {
                    TamperSpec::FlipBit {
                        region: MetaRegion::ALL[rng.next_below(5) as usize],
                        pick: rng.next_u64(),
                        bit: rng.next_below(512) as u32,
                    }
                // Short-circuit keeps the banks=1 rng stream — and thus
                // every generated single-bank scenario — bit-identical.
                } else if config.banks > 1 && rng.chance(0.5) {
                    TamperSpec::TornBank {
                        bank: rng.next_below(config.banks as u64) as usize,
                        drop: 1 + rng.next_below(3) as usize,
                    }
                } else {
                    TamperSpec::TornDump {
                        drop: 1 + rng.next_below(3) as usize,
                    }
                })
            } else {
                None
            };
            out.push(Round {
                txns,
                fault,
                hot: None,
                quiesce,
                nested,
                tamper,
            });
        }
        Self {
            seed,
            keyspace: config.keyspace.clamp(1, MAX_KEYS),
            banks: config.banks.max(1),
            rounds: out,
        }
    }

    /// Generates a reach scenario: the differential scenario for `seed`,
    /// then, from an independent stream, each cut moved to any of the four
    /// [`STREAM_CUTS`] and about half the rounds given a hot line. A hot
    /// round's cut moves past the hot writes, so the overflow happens
    /// before the crash. The differential stream itself is untouched.
    pub fn generate_reach(seed: u64, config: &ScenarioConfig) -> Self {
        let mut scenario = Self::generate(seed, config);
        let mut rng = XorShift::new(seed ^ 0xC4A0_5EED);
        for round in &mut scenario.rounds {
            if rng.chance(0.5) {
                round.hot = Some(rng.next_below(scenario.keyspace));
            }
            if let Some((point, nth)) = &mut round.fault {
                *point = STREAM_CUTS[rng.next_below(4) as usize];
                *nth += round.hot.map_or(0, |_| HOT_WRITES);
            }
        }
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolos_core::inject::InjectionPoint;

    #[test]
    fn generation_is_deterministic() {
        for banks in [1, 4] {
            let config = ScenarioConfig {
                banks,
                ..ScenarioConfig::default()
            };
            for seed in 0..50 {
                assert_eq!(
                    Scenario::generate(seed, &config),
                    Scenario::generate(seed, &config)
                );
                assert_eq!(
                    Scenario::generate_reach(seed, &config),
                    Scenario::generate_reach(seed, &config)
                );
            }
            assert_ne!(
                Scenario::generate_reach(42, &config),
                Scenario::generate_reach(43, &config)
            );
        }
    }

    #[test]
    fn tamper_lands_only_on_the_final_round() {
        let config = ScenarioConfig {
            rounds: 5,
            ..ScenarioConfig::default()
        };
        let mut final_tampers = 0;
        for seed in 0..50 {
            for s in [
                Scenario::generate(seed, &config),
                Scenario::generate_reach(seed, &config),
            ] {
                let (last, early) = s.rounds.split_last().expect("rounds");
                for round in early {
                    assert!(round.tamper.is_none(), "seed {seed}: early tamper in {s}");
                }
                final_tampers += usize::from(last.tamper.is_some());
            }
        }
        assert!(final_tampers > 20, "{final_tampers} final-round tampers");
        let quiet = ScenarioConfig {
            tamper: false,
            ..config
        };
        for seed in 0..50 {
            let s = Scenario::generate_reach(seed, &quiet);
            assert!(s.rounds.iter().all(|r| r.tamper.is_none()), "{s}");
        }
    }

    #[test]
    fn display_is_compact_and_round_trips_the_shape() {
        let s = Scenario {
            seed: 7,
            keyspace: 32,
            banks: 1,
            rounds: vec![Round {
                txns: 9,
                fault: Some((InjectionPoint::WpqInsert, 3)),
                hot: None,
                quiesce: true,
                nested: Some(1),
                tamper: Some(TamperSpec::TornDump { drop: 2 }),
            }],
        };
        assert_eq!(
            s.to_string(),
            "seed=7;keys=32;[t9@wpq-insert#3+q+n#1+torn(2)]"
        );
        // Generated reach scenarios render without whitespace, one entry
        // per round, and parse back to the same shape.
        let config = ScenarioConfig {
            rounds: 3,
            ..ScenarioConfig::default()
        };
        for seed in 0..50 {
            let s = Scenario::generate_reach(seed, &config);
            let text = s.to_string();
            assert!(!text.contains(char::is_whitespace), "{text}");
            let rounds = text.split_once(";[").expect("round list").1;
            assert_eq!(rounds.split(';').count(), s.rounds.len(), "{text}");
            assert_eq!(text.parse::<Scenario>().ok(), Some(s), "{text}");
        }
    }
}
