//! Scenarios: seeded, replayable, shrinkable.
//!
//! A [`Scenario`] is the unit of every falsifier run: one deterministic
//! operation stream (transaction-shaped rounds from the
//! [`dolos_whisper::gen`] generator) plus the adversarial decorations —
//! a power-failure cut, a hot line, an optional nested recovery crash, an
//! optional post-crash tamper — that every configured design must survive.
//! Scenarios render to a compact string
//! (`seed=7;keys=32;[t4@wpq-insert#9+q;t2+flip(data,0,9)]`) that parses
//! back losslessly, so a campaign failure is replayable from the report
//! alone.
//!
//! A round cuts power at the nth occurrence of one of the four
//! [`STREAM_CUTS`]. Two of them are *scheme-independent*
//! ([`CUT_POINTS`]): [`InjectionPoint::PersistStart`] fires at the head of
//! every persist call and [`InjectionPoint::WpqInsert`] exactly once per
//! accepted persist, so every design stops at the same persist call.
//! `misu-protect` fires only in the Dolos designs and `masu-drain` counts
//! drained entries, so those cuts land at a different call per design.
//! The differential generator ([`Scenario::generate`], in
//! [`crate::schedule`]) uses only [`CUT_POINTS`];
//! [`Scenario::generate_reach`] also uses the other two and adds hot lines (`+hot(k)`: line `k` written [`HOT_WRITES`] times at the
//! head of the round, enough to overflow its minor counter).

use core::fmt;
use core::str::FromStr;

use dolos_core::inject::InjectionPoint;
use dolos_core::ControllerConfig;
use dolos_secmem::counters::MINOR_MAX;
use dolos_secmem::layout::MetaRegion;

use crate::shrink::Shrinkable;

/// Adversarial NVM corruption applied while the system is crashed (between
/// the ADR dump and the next boot — the window in which the threat model
/// gives the attacker the device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperSpec {
    /// Flip one bit of a resident line in a metadata region. `pick` selects
    /// among the region's resident lines (modulo their count at apply
    /// time); `bit` wraps within the 512-bit line.
    FlipBit {
        /// The region to corrupt.
        region: MetaRegion,
        /// Resident-line selector.
        pick: u64,
        /// Bit index within the chosen line.
        bit: u32,
    },
    /// Tear the ADR dump: restore the trailing `drop` lines of the WPQ dump
    /// region from the *previous* epoch's snapshot, modeling a reserve-power
    /// burst that did not finish.
    TornDump {
        /// Number of trailing dump lines that revert to the old epoch.
        drop: usize,
    },
    /// Tear the ADR dump of a single NVM bank: restore the trailing `drop`
    /// payload lines of that bank's WPQ shard (global slots
    /// `bank × per_bank .. (bank+1) × per_bank`) from the previous epoch's
    /// snapshot. Models one bank's reserve-power burst dying while the
    /// others complete — the failure mode banked drains introduce.
    TornBank {
        /// The bank whose dump burst is torn.
        bank: usize,
        /// Number of that bank's trailing dump lines reverting to the old
        /// epoch.
        drop: usize,
    },
}

impl fmt::Display for TamperSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamperSpec::FlipBit { region, pick, bit } => write!(f, "flip({region},{pick},{bit})"),
            TamperSpec::TornDump { drop } => write!(f, "torn({drop})"),
            TamperSpec::TornBank { bank, drop } => write!(f, "tornb({bank},{drop})"),
        }
    }
}

/// One crash round of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Transactions generated for the round's operation stream.
    pub txns: usize,
    /// Power failure at the nth occurrence of a stream cut; `None` crashes
    /// at the end of the stream.
    pub fault: Option<(InjectionPoint, u64)>,
    /// Hot line: this key is written [`HOT_WRITES`] times, each write
    /// drained before the next, ahead of the round's transactions.
    pub hot: Option<u64>,
    /// Drain the WPQ before crashing (the settled-state variant).
    pub quiesce: bool,
    /// Nested power failure at the nth recovery-replay step of this
    /// round's recovery; the boot is then retried once.
    pub nested: Option<u64>,
    /// NVM corruption applied while the machine is dark. Terminal: the
    /// round either ends in detection or must verify clean.
    pub tamper: Option<TamperSpec>,
}

/// A full scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Seed for operation streams and payloads.
    pub seed: u64,
    /// Data lines addressable by the generated transactions.
    pub keyspace: u64,
    /// NVM bank count every scheme runs with (power of two). `1` is the
    /// paper's single-queue model; the rendered form only carries the
    /// token when it differs, so single-bank scenario strings (and the
    /// campaign reports built from them) are unchanged.
    pub banks: usize,
    /// Crash rounds, executed in order against one system instance.
    pub rounds: Vec<Round>,
}

/// The two injection points whose occurrence index is the persist-call
/// index in *every* scheme (see the module docs).
pub const CUT_POINTS: [InjectionPoint; 2] =
    [InjectionPoint::PersistStart, InjectionPoint::WpqInsert];

/// Every injection point a round may cut its stream at, in pipeline order.
pub const STREAM_CUTS: [InjectionPoint; 4] = [
    InjectionPoint::PersistStart,
    InjectionPoint::MisuProtect,
    InjectionPoint::WpqInsert,
    InjectionPoint::MasuDrain,
];

/// Largest keyspace a scenario may address: every design runs on the
/// default protected region, and a line outside it cannot be persisted.
pub const MAX_KEYS: u64 = ControllerConfig::DEFAULT_REGION_BYTES / 64;

/// Writes a hot round issues to its hot line: one more than a minor
/// counter holds, so the line's page overflows at least once.
pub const HOT_WRITES: u64 = MINOR_MAX as u64 + 1;

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={};keys={}", self.seed, self.keyspace)?;
        if self.banks != 1 {
            write!(f, ";banks={}", self.banks)?;
        }
        f.write_str(";[")?;
        for (i, round) in self.rounds.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "t{}", round.txns)?;
            if let Some((point, nth)) = round.fault {
                write!(f, "@{point}#{nth}")?;
            }
            if let Some(key) = round.hot {
                write!(f, "+hot({key})")?;
            }
            if round.quiesce {
                f.write_str("+q")?;
            }
            if let Some(nth) = round.nested {
                write!(f, "+n#{nth}")?;
            }
            if let Some(tamper) = round.tamper {
                write!(f, "+{tamper}")?;
            }
        }
        f.write_str("]")
    }
}

/// Error parsing a rendered scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    reason: String,
}

impl ParseScenarioError {
    fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario parse error: {}", self.reason)
    }
}

impl std::error::Error for ParseScenarioError {}

fn parse_cut_point(name: &str) -> Result<InjectionPoint, ParseScenarioError> {
    STREAM_CUTS
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| ParseScenarioError::new(format!("not a stream cut: {name}")))
}

fn parse_region(name: &str) -> Result<MetaRegion, ParseScenarioError> {
    MetaRegion::ALL
        .into_iter()
        .find(|r| r.name() == name)
        .ok_or_else(|| ParseScenarioError::new(format!("unknown region: {name}")))
}

fn parse_num<T: FromStr>(text: &str, what: &str) -> Result<T, ParseScenarioError> {
    text.parse()
        .map_err(|_| ParseScenarioError::new(format!("bad {what}: {text:?}")))
}

/// The argument list of `name(...)`, if `token` is that call.
fn call<'a>(token: &'a str, name: &str) -> Option<&'a str> {
    token
        .strip_prefix(name)
        .and_then(|t| t.strip_prefix('('))
        .and_then(|t| t.strip_suffix(')'))
}

fn parse_round(text: &str) -> Result<Round, ParseScenarioError> {
    let mut tokens = text.split('+');
    let head = tokens
        .next()
        .ok_or_else(|| ParseScenarioError::new("empty round"))?;
    let head = head
        .strip_prefix('t')
        .ok_or_else(|| ParseScenarioError::new(format!("round must start with t<N>: {text:?}")))?;
    let (txns, fault) = match head.split_once('@') {
        Some((txns, cut)) => {
            let (point, nth) = cut
                .split_once('#')
                .ok_or_else(|| ParseScenarioError::new(format!("cut needs #nth: {cut:?}")))?;
            (
                parse_num(txns, "txns")?,
                Some((parse_cut_point(point)?, parse_num(nth, "occurrence")?)),
            )
        }
        None => (parse_num(head, "txns")?, None),
    };
    let mut round = Round {
        txns,
        fault,
        hot: None,
        quiesce: false,
        nested: None,
        tamper: None,
    };
    for token in tokens {
        if token == "q" {
            round.quiesce = true;
        } else if let Some(nth) = token.strip_prefix("n#") {
            round.nested = Some(parse_num(nth, "nested occurrence")?);
        } else if let Some(key) = call(token, "hot") {
            round.hot = Some(parse_num(key, "hot key")?);
        } else if let Some(args) = call(token, "flip") {
            let mut parts = args.split(',');
            let region = parse_region(parts.next().unwrap_or_default())?;
            let pick = parse_num(parts.next().unwrap_or_default(), "pick")?;
            let bit = parse_num(parts.next().unwrap_or_default(), "bit")?;
            if parts.next().is_some() {
                return Err(ParseScenarioError::new("flip takes three arguments"));
            }
            round.tamper = Some(TamperSpec::FlipBit { region, pick, bit });
        } else if let Some(args) = call(token, "tornb") {
            let (bank, drop) = args
                .split_once(',')
                .ok_or_else(|| ParseScenarioError::new("tornb takes two arguments"))?;
            round.tamper = Some(TamperSpec::TornBank {
                bank: parse_num(bank, "tornb bank")?,
                drop: parse_num(drop, "tornb drop count")?,
            });
        } else if let Some(drop) = call(token, "torn") {
            round.tamper = Some(TamperSpec::TornDump {
                drop: parse_num(drop, "torn drop count")?,
            });
        } else {
            return Err(ParseScenarioError::new(format!("unknown token: {token:?}")));
        }
    }
    Ok(round)
}

impl FromStr for Scenario {
    type Err = ParseScenarioError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let text = text.trim();
        let rest = text
            .strip_prefix("seed=")
            .ok_or_else(|| ParseScenarioError::new("expected seed=<N>"))?;
        let (seed, rest) = rest
            .split_once(";keys=")
            .ok_or_else(|| ParseScenarioError::new("expected ;keys=<N>"))?;
        let (head, rounds) = rest
            .split_once(";[")
            .ok_or_else(|| ParseScenarioError::new("expected ;[rounds]"))?;
        // Optional bank token between the keyspace and the round list; its
        // absence means the single-bank model.
        let (keys, banks) = match head.split_once(";banks=") {
            Some((keys, banks)) => (keys, parse_num::<usize>(banks, "banks")?),
            None => (head, 1),
        };
        // The bank model interleaves lines by the low address bits, so only
        // a power-of-two count can run.
        if !banks.is_power_of_two() {
            return Err(ParseScenarioError::new(format!(
                "banks must be a power of two: {banks}"
            )));
        }
        let keyspace = parse_num(keys, "keyspace")?;
        if keyspace > MAX_KEYS {
            return Err(ParseScenarioError::new(format!(
                "keyspace {keyspace} exceeds the protected region ({MAX_KEYS} lines)"
            )));
        }
        let rounds = rounds
            .strip_suffix(']')
            .ok_or_else(|| ParseScenarioError::new("unterminated round list"))?;
        let mut parsed = Vec::new();
        for part in rounds.split(';') {
            if part.is_empty() {
                continue;
            }
            parsed.push(parse_round(part)?);
        }
        if parsed.is_empty() {
            return Err(ParseScenarioError::new("scenario needs at least one round"));
        }
        Ok(Scenario {
            seed: parse_num(seed, "seed")?,
            keyspace,
            banks,
            rounds: parsed,
        })
    }
}

impl Shrinkable for Scenario {
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let mut push = |edit: &dyn Fn(&mut Self)| {
            let mut s = self.clone();
            edit(&mut s);
            out.push(s);
        };
        // Bank-dependent failures should first prove they need the banking:
        // collapsing to the single-queue model is the most aggressive
        // simplification of all.
        if self.banks > 1 {
            push(&|s| s.banks = 1);
        }
        if self.rounds.len() > 1 {
            for i in 0..self.rounds.len() {
                push(&|s| {
                    s.rounds.remove(i);
                });
            }
        }
        for (i, round) in self.rounds.iter().enumerate() {
            if round.txns > 1 {
                push(&|s| s.rounds[i].txns /= 2);
            }
            if round.nested.is_some() {
                push(&|s| s.rounds[i].nested = None);
            }
            if round.quiesce {
                push(&|s| s.rounds[i].quiesce = false);
            }
            if round.tamper.is_some() {
                push(&|s| s.rounds[i].tamper = None);
            }
            // A per-bank tear degrades to the whole-dump tear, then toward
            // bank 0 and fewer dropped lines.
            if let Some(TamperSpec::TornBank { bank, drop }) = round.tamper {
                push(&|s| s.rounds[i].tamper = Some(TamperSpec::TornDump { drop }));
                if bank > 0 {
                    push(&|s| s.rounds[i].tamper = Some(TamperSpec::TornBank { bank: 0, drop }));
                }
                if drop > 1 {
                    let drop = drop / 2;
                    push(&|s| s.rounds[i].tamper = Some(TamperSpec::TornBank { bank, drop }));
                }
            }
            if round.fault.is_some() {
                push(&|s| s.rounds[i].fault = None);
            }
            if let Some(key) = round.hot {
                push(&|s| s.rounds[i].hot = None);
                if key > 0 {
                    push(&|s| s.rounds[i].hot = Some(key / 2));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScenarioConfig;
    use dolos_sim::rng::XorShift;

    #[test]
    fn generation_is_deterministic() {
        let config = ScenarioConfig::default();
        assert_eq!(
            Scenario::generate(9, &config),
            Scenario::generate(9, &config)
        );
        assert_ne!(
            Scenario::generate(9, &config),
            Scenario::generate(10, &config)
        );
        assert_eq!(
            Scenario::generate_reach(9, &config),
            Scenario::generate_reach(9, &config)
        );
    }

    #[test]
    fn generated_faults_use_only_scheme_independent_cuts() {
        let config = ScenarioConfig {
            rounds: 4,
            ..ScenarioConfig::default()
        };
        for seed in 0..200 {
            let scenario = Scenario::generate(seed, &config);
            for round in &scenario.rounds {
                if let Some((point, _)) = round.fault {
                    assert!(CUT_POINTS.contains(&point), "{point:?}");
                }
                assert_eq!(round.hot, None);
            }
            // Tamper only on the final round.
            for round in &scenario.rounds[..scenario.rounds.len() - 1] {
                assert!(round.tamper.is_none());
            }
        }
    }

    #[test]
    fn reach_generation_decorates_the_differential_stream() {
        // Stripping the reach decorations gives back the differential
        // scenario exactly: the differential family's stream is untouched.
        let config = ScenarioConfig {
            rounds: 3,
            ..ScenarioConfig::default()
        };
        let (mut hot, mut moved) = (0, 0);
        for seed in 0..200 {
            let base = Scenario::generate(seed, &config);
            let mut reach = Scenario::generate_reach(seed, &config);
            for (round, b) in reach.rounds.iter_mut().zip(&base.rounds) {
                if let Some(key) = round.hot.take() {
                    assert!(key < reach.keyspace);
                    hot += 1;
                    if let Some((_, nth)) = &mut round.fault {
                        *nth -= HOT_WRITES;
                    }
                }
                if let (Some((p, _)), Some((q, _))) = (&mut round.fault, b.fault) {
                    moved += usize::from(!CUT_POINTS.contains(p));
                    *p = q;
                }
            }
            assert_eq!(reach, base, "seed {seed}");
        }
        assert!(hot > 100 && moved > 50, "hot {hot}, moved {moved}");
    }

    #[test]
    fn rendering_round_trips() {
        let config = ScenarioConfig {
            rounds: 3,
            ..ScenarioConfig::default()
        };
        for seed in 0..300 {
            for scenario in [
                Scenario::generate(seed, &config),
                Scenario::generate_reach(seed, &config),
            ] {
                let text = scenario.to_string();
                let parsed: Scenario = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
                assert_eq!(parsed, scenario, "{text}");
            }
        }
    }

    #[test]
    fn parser_rejects_non_stream_cuts_and_garbage() {
        for cut in STREAM_CUTS {
            let text = format!("seed=1;keys=8;[t4@{cut}#2]");
            assert!(text.parse::<Scenario>().is_ok(), "{text}");
        }
        assert!("seed=1;keys=8;[t4@recovery-replay#0]"
            .parse::<Scenario>()
            .is_err());
        assert!("seed=1;keys=8;[]".parse::<Scenario>().is_err());
        assert!("seed=x;keys=8;[t4]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[w4]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[t4+flip(data,1)]"
            .parse::<Scenario>()
            .is_err());
        assert!("seed=1;keys=8;[t4+hot(x)]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[t4+hot7]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[t4".parse::<Scenario>().is_err());
        // A keyspace past the protected region would make the engine panic.
        let edge = format!("seed=1;keys={MAX_KEYS};[t1]");
        assert!(edge.parse::<Scenario>().is_ok());
        let past = format!("seed=1;keys={};[t1]", MAX_KEYS + 1);
        assert!(past.parse::<Scenario>().is_err());
    }

    #[test]
    fn fixed_rendering_is_pinned() {
        let scenario = Scenario {
            seed: 7,
            keyspace: 32,
            banks: 1,
            rounds: vec![
                Round {
                    txns: 4,
                    fault: Some((InjectionPoint::WpqInsert, 9)),
                    hot: None,
                    quiesce: true,
                    nested: Some(1),
                    tamper: None,
                },
                Round {
                    txns: 2,
                    fault: Some((InjectionPoint::MasuDrain, 130)),
                    hot: Some(5),
                    quiesce: false,
                    nested: None,
                    tamper: Some(TamperSpec::FlipBit {
                        region: MetaRegion::Data,
                        pick: 0,
                        bit: 9,
                    }),
                },
            ],
        };
        let text = scenario.to_string();
        assert_eq!(
            text,
            "seed=7;keys=32;[t4@wpq-insert#9+q+n#1;t2@masu-drain#130+hot(5)+flip(data,0,9)]"
        );
        assert_eq!(text.parse::<Scenario>().ok(), Some(scenario));
    }

    #[test]
    fn banked_rendering_is_pinned_and_round_trips() {
        let scenario = Scenario {
            seed: 5,
            keyspace: 16,
            banks: 4,
            rounds: vec![Round {
                txns: 3,
                fault: Some((InjectionPoint::WpqInsert, 2)),
                hot: None,
                quiesce: false,
                nested: None,
                tamper: Some(TamperSpec::TornBank { bank: 2, drop: 1 }),
            }],
        };
        let text = scenario.to_string();
        assert_eq!(text, "seed=5;keys=16;banks=4;[t3@wpq-insert#2+tornb(2,1)]");
        assert_eq!(text.parse::<Scenario>().ok(), Some(scenario));
    }

    #[test]
    fn banked_generation_round_trips_and_single_bank_is_unchanged() {
        let banked = ScenarioConfig {
            rounds: 3,
            banks: 4,
            ..ScenarioConfig::default()
        };
        let mut torn_banks = 0;
        for seed in 0..300 {
            let scenario = Scenario::generate(seed, &banked);
            assert_eq!(scenario.banks, 4);
            let text = scenario.to_string();
            let parsed: Scenario = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, scenario, "{text}");
            if let Some(TamperSpec::TornBank { bank, .. }) =
                scenario.rounds.last().and_then(|r| r.tamper)
            {
                assert!(bank < 4, "{text}");
                torn_banks += 1;
            }
        }
        assert!(torn_banks > 0, "banked sweeps must schedule per-bank tears");
        // Single-bank generation never schedules the banked tamper class
        // and renders without the banks token, so pre-bank scenario strings
        // and campaign reports are byte-for-byte reproducible.
        let single = ScenarioConfig {
            rounds: 3,
            ..ScenarioConfig::default()
        };
        for seed in 0..300 {
            let scenario = Scenario::generate(seed, &single);
            assert_eq!(scenario.banks, 1);
            assert!(!scenario.to_string().contains("banks="));
            for round in &scenario.rounds {
                assert!(!matches!(round.tamper, Some(TamperSpec::TornBank { .. })));
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_bank_tokens() {
        assert!("seed=1;keys=8;banks=x;[t4]".parse::<Scenario>().is_err());
        // Counts the bank model cannot run are parse errors, not engine
        // panics.
        for bad in [0, 3, 5, 6, 12, 100] {
            let text = format!("seed=1;keys=8;banks={bad};[t4]");
            assert!(text.parse::<Scenario>().is_err(), "{text}");
        }
        for good in [1, 2, 4, 64] {
            let text = format!("seed=1;keys=8;banks={good};[t4]");
            assert_eq!(text.parse::<Scenario>().map(|s| s.banks), Ok(good));
        }
        assert!("seed=1;keys=8;[t4+tornb(1)]".parse::<Scenario>().is_err());
        assert!("seed=1;keys=8;[t4+tornb(a,1)]".parse::<Scenario>().is_err());
    }

    /// Seeded mutants of rendered scenarios (truncations at char
    /// boundaries, single-char flips including multi-byte chars, token
    /// splices) must parse to `Ok` or `Err`, never panic. Whatever parses
    /// must round-trip through `Display` and carry a bank count the engine
    /// can run. Half the sources are reach scenarios, so the hot-line
    /// token and every stream cut are mutated too.
    #[test]
    fn parse_never_panics_on_mutated_scenarios() {
        const FLIPS: [char; 16] = [
            'é', '€', '😀', '\u{0}', ';', '+', '#', '@', '(', ')', ',', '[', ']', '0', '3', '9',
        ];
        let texts: Vec<String> = (0..12)
            .map(|seed| {
                let config = ScenarioConfig {
                    rounds: 4,
                    banks: if seed % 2 == 0 { 4 } else { 1 },
                    ..ScenarioConfig::default()
                };
                if seed % 4 < 2 {
                    Scenario::generate(seed, &config).to_string()
                } else {
                    Scenario::generate_reach(seed, &config).to_string()
                }
            })
            .collect();
        assert!(texts.iter().any(|t| t.contains("+hot(")));
        let mut rng = XorShift::new(0x5CE7);
        let mut pick = |n: usize| rng.next_below(n as u64) as usize;
        let mut parsed_ok = 0;
        for round in 0..6000 {
            let text = &texts[round % texts.len()];
            let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
            let mutant = match round % 3 {
                0 => text[..boundaries[pick(boundaries.len())]].to_string(),
                1 => {
                    let at = boundaries[pick(boundaries.len())];
                    let old = text[at..].chars().next().map_or(0, char::len_utf8);
                    let flip = FLIPS[pick(FLIPS.len())];
                    format!("{}{flip}{}", &text[..at], &text[at + old..])
                }
                _ => {
                    // Splice a token of another scenario into this one.
                    let tokens: Vec<&str> = text.split_inclusive([';', '+', '[']).collect();
                    let donor = &texts[pick(texts.len())];
                    let donor: Vec<&str> = donor.split_inclusive([';', '+', '[']).collect();
                    let mut spliced = tokens.clone();
                    spliced.insert(pick(tokens.len() + 1), donor[pick(donor.len())]);
                    spliced.remove(pick(spliced.len()));
                    spliced.concat()
                }
            };
            let parsed = std::panic::catch_unwind(|| mutant.parse::<Scenario>())
                .unwrap_or_else(|_| panic!("parse panicked on mutant {round}: {mutant:?}"));
            if let Ok(scenario) = parsed {
                parsed_ok += 1;
                assert!(
                    scenario.banks.is_power_of_two(),
                    "mutant {round}: {mutant:?}"
                );
                assert_eq!(
                    scenario.to_string().parse::<Scenario>(),
                    Ok(scenario),
                    "mutant {round}: {mutant:?}"
                );
            }
        }
        // The mutants must reach the accepting paths too, or the round-trip
        // obligation is vacuous.
        assert!(parsed_ok > 300, "only {parsed_ok} mutants parsed");
    }

    #[test]
    fn shrink_collapses_banks_and_per_bank_tears_first() {
        let scenario = Scenario {
            seed: 1,
            keyspace: 8,
            banks: 4,
            rounds: vec![Round {
                txns: 2,
                fault: None,
                hot: None,
                quiesce: false,
                nested: None,
                tamper: Some(TamperSpec::TornBank { bank: 3, drop: 2 }),
            }],
        };
        let candidates = scenario.candidates();
        assert_eq!(candidates[0].banks, 1, "banks collapse first");
        assert!(candidates
            .iter()
            .any(|c| matches!(c.rounds[0].tamper, Some(TamperSpec::TornDump { drop: 2 }))));
        assert!(candidates.iter().any(|c| matches!(
            c.rounds[0].tamper,
            Some(TamperSpec::TornBank { bank: 0, drop: 2 })
        )));
        assert!(candidates.iter().any(|c| matches!(
            c.rounds[0].tamper,
            Some(TamperSpec::TornBank { bank: 3, drop: 1 })
        )));
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller() {
        let weight = |s: &Scenario| {
            s.rounds
                .iter()
                .map(|r| {
                    r.txns * 16
                        + usize::from(r.fault.is_some())
                        + usize::from(r.quiesce)
                        + usize::from(r.nested.is_some())
                        + usize::from(r.tamper.is_some())
                        + r.hot.map_or(0, |k| 1 + k as usize)
                })
                .sum::<usize>()
        };
        let config = ScenarioConfig::default();
        for scenario in [
            Scenario::generate(3, &config),
            Scenario::generate_reach(3, &config),
        ] {
            for candidate in scenario.candidates() {
                assert!(weight(&candidate) < weight(&scenario));
            }
        }
    }
}
