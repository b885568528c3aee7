//! Persist-trace capture and replay.
//!
//! Recording a workload once and replaying its memory-controller-visible
//! operation stream (compute gaps, fence-batched persists, reads) against
//! any controller configuration decouples *workload generation* from
//! *controller evaluation* — the trace-driven mode cycle-level simulators
//! like gem5 offer. Because every timing model in this workspace is
//! deterministic and payload-independent, a replay reproduces the original
//! run's cycle count exactly; the trace tests assert that.
//!
//! Traces serialize to a simple line-oriented text format:
//!
//! ```text
//! DOLOS-TRACE v1 region=67108864
//! W 420            # compute: 420 basic ops
//! P 4096,4160      # one fence batch: persist lines 0x1000 and 0x1040
//! R 4096           # read line 0x1000
//! ```

use std::fmt::Write as _;

use dolos_core::{ControllerConfig, SecureMemorySystem};
use dolos_sim::Cycle;

use crate::env::OP_COST;

/// One memory-controller-visible operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Compute for `ops` basic operations.
    Work(u64),
    /// A raw pipeline delay in cycles (cache-hierarchy latency).
    Delay(u64),
    /// One fence batch: all lines issue together, the fence waits for all.
    PersistBatch(Vec<u64>),
    /// A dirty-LLC eviction written back through the controller without
    /// blocking the core.
    Writeback(u64),
    /// A demand read of one line.
    Read(u64),
}

/// A recorded operation stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    region_bytes: u64,
    ops: Vec<TraceOp>,
}

/// Timing results of a trace replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Persist operations issued.
    pub persists: u64,
    /// WPQ retry events.
    pub retries: u64,
}

/// Error parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    reason: &'static str,
}

impl core::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseTraceError {}

impl Trace {
    /// Creates an empty trace over a protected region of `region_bytes`.
    pub fn new(region_bytes: u64) -> Self {
        Self {
            region_bytes,
            ops: Vec::new(),
        }
    }

    /// The protected-region size the trace was captured against.
    pub fn region_bytes(&self) -> u64 {
        self.region_bytes
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an operation (coalescing consecutive `Work`/`Delay` entries).
    pub fn push(&mut self, op: TraceOp) {
        match (&op, self.ops.last_mut()) {
            (TraceOp::Work(n), Some(TraceOp::Work(last))) => *last += n,
            (TraceOp::Delay(n), Some(TraceOp::Delay(last))) => *last += n,
            _ => self.ops.push(op),
        }
    }

    /// Iterates the operations.
    pub fn iter(&self) -> impl Iterator<Item = &TraceOp> {
        self.ops.iter()
    }

    /// Total persist (line) count in the trace.
    pub fn persist_lines(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::PersistBatch(lines) => lines.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Replays the trace against a controller configuration.
    ///
    /// Payloads are synthesized from the address (timing is payload
    /// independent throughout the model).
    pub fn replay(&self, mut config: ControllerConfig) -> ReplayResult {
        config.region_bytes = self.region_bytes;
        let mut sys = SecureMemorySystem::new(config);
        let mut now = Cycle::ZERO;
        for op in &self.ops {
            match op {
                TraceOp::Work(ops) => now += ops * OP_COST,
                TraceOp::Delay(cycles) => now += *cycles,
                TraceOp::Writeback(addr) => {
                    let mut payload = [0u8; 64];
                    payload[0..8].copy_from_slice(&addr.to_le_bytes());
                    // Background write-back: does not block the core.
                    let _ = sys.persist_write(now, *addr, &payload);
                }
                TraceOp::PersistBatch(lines) => {
                    let start = now;
                    let mut fence = now;
                    for &addr in lines {
                        let mut payload = [0u8; 64];
                        payload[0..8].copy_from_slice(&addr.to_le_bytes());
                        let done = sys.persist_write(start, addr, &payload);
                        fence = fence.max(done);
                    }
                    now = fence;
                }
                TraceOp::Read(addr) => {
                    let (done, _) = sys.read(now, *addr);
                    now = done;
                }
            }
        }
        ReplayResult {
            cycles: now.as_u64(),
            persists: sys.persists(),
            retries: sys.retries(),
        }
    }

    /// Serializes to the line-oriented text format.
    pub fn serialize(&self) -> String {
        let mut out = format!("DOLOS-TRACE v1 region={}\n", self.region_bytes);
        for op in &self.ops {
            match op {
                TraceOp::Work(n) => {
                    let _ = writeln!(out, "W {n}");
                }
                TraceOp::Delay(n) => {
                    let _ = writeln!(out, "D {n}");
                }
                TraceOp::Writeback(addr) => {
                    let _ = writeln!(out, "B {addr}");
                }
                TraceOp::PersistBatch(lines) => {
                    let list: Vec<String> = lines.iter().map(u64::to_string).collect();
                    let _ = writeln!(out, "P {}", list.join(","));
                }
                TraceOp::Read(addr) => {
                    let _ = writeln!(out, "R {addr}");
                }
            }
        }
        out
    }

    /// Parses the text format produced by [`Trace::serialize`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, ParseTraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(ParseTraceError {
            line: 1,
            reason: "empty input",
        })?;
        let region_bytes = header
            .strip_prefix("DOLOS-TRACE v1 region=")
            .and_then(|v| v.parse().ok())
            .ok_or(ParseTraceError {
                line: 1,
                reason: "bad header",
            })?;
        let mut trace = Trace::new(region_bytes);
        for (idx, line) in lines {
            let err = |reason| ParseTraceError {
                line: idx + 1,
                reason,
            };
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            // Split at the first char, not byte: outside input may open a
            // line with a multi-byte character.
            let mut chars = line.chars();
            let tag = chars.next();
            let rest = chars.as_str().trim();
            let op = match tag {
                Some('W') => TraceOp::Work(rest.parse().map_err(|_| err("bad work count"))?),
                Some('D') => TraceOp::Delay(rest.parse().map_err(|_| err("bad delay"))?),
                Some('B') => {
                    TraceOp::Writeback(rest.parse().map_err(|_| err("bad writeback address"))?)
                }
                Some('R') => TraceOp::Read(rest.parse().map_err(|_| err("bad read address"))?),
                Some('P') => {
                    let mut addrs = Vec::new();
                    for part in rest.split(',') {
                        addrs.push(
                            part.trim()
                                .parse()
                                .map_err(|_| err("bad persist address"))?,
                        );
                    }
                    TraceOp::PersistBatch(addrs)
                }
                _ => return Err(err("unknown op tag")),
            };
            trace.ops.push(op);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use crate::workloads::WorkloadKind;
    use crate::PmEnv;
    use dolos_core::MiSuKind;
    use dolos_sim::rng::XorShift;

    fn record_hashmap() -> (Trace, u64) {
        let mut config = ControllerConfig::dolos(MiSuKind::Partial);
        config.region_bytes = RunConfig::default().region_bytes;
        let mut env = PmEnv::new(config);
        env.start_recording();
        let mut w = WorkloadKind::Hashmap.build();
        w.setup(&mut env);
        let mut rng = XorShift::new(11);
        for _ in 0..20 {
            w.transaction(&mut env, 512, &mut rng);
        }
        let cycles = env.now().as_u64();
        (env.take_trace().expect("recording"), cycles)
    }

    #[test]
    fn replay_reproduces_recorded_cycles_exactly() {
        let (trace, original_cycles) = record_hashmap();
        let result = trace.replay(ControllerConfig::dolos(MiSuKind::Partial));
        assert_eq!(result.cycles, original_cycles);
        assert!(result.persists > 0);
    }

    #[test]
    fn replay_against_other_controllers_preserves_ordering() {
        let (trace, _) = record_hashmap();
        let ideal = trace.replay(ControllerConfig::ideal());
        let dolos = trace.replay(ControllerConfig::dolos(MiSuKind::Partial));
        let baseline = trace.replay(ControllerConfig::baseline());
        assert!(ideal.cycles <= dolos.cycles);
        assert!(dolos.cycles < baseline.cycles);
        assert_eq!(ideal.persists, baseline.persists);
    }

    #[test]
    fn serialization_round_trips() {
        let (trace, _) = record_hashmap();
        let text = trace.serialize();
        let parsed = Trace::parse(&text).expect("well-formed");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("DOLOS-TRACE v1 region=abc").is_err());
        assert!(Trace::parse("DOLOS-TRACE v1 region=64\nX 5").is_err());
        assert!(Trace::parse("DOLOS-TRACE v1 region=64\nP 1,zz").is_err());
    }

    #[test]
    fn parse_rejects_a_multi_byte_op_tag() {
        let err = Trace::parse("DOLOS-TRACE v1 region=4096\né 5\n").unwrap_err();
        assert_eq!((err.line, err.reason), (2, "unknown op tag"));
    }

    /// Seeded mutants of a recorded trace's text (truncations at char
    /// boundaries, single-char flips including multi-byte chars, token
    /// splices) must parse to `Ok` or `Err`, never panic; whatever parses
    /// must survive a serialize/parse round trip.
    #[test]
    fn parse_never_panics_on_mutated_traces() {
        const FLIPS: [char; 14] = [
            'é', '€', '😀', '\u{0}', 'W', 'P', 'R', ',', '#', '\n', ' ', '0', '9', '-',
        ];
        let (trace, _) = record_hashmap();
        let text = trace.serialize();
        let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let tokens: Vec<&str> = text.split_inclusive([' ', ',', '\n']).collect();
        let mut rng = XorShift::new(0x7ACE);
        let mut pick = |n: usize| rng.next_below(n as u64) as usize;
        for round in 0..3000 {
            let mutant = match round % 3 {
                0 => text[..boundaries[pick(boundaries.len())]].to_string(),
                1 => {
                    let at = boundaries[pick(boundaries.len())];
                    let old = text[at..].chars().next().map_or(0, char::len_utf8);
                    let flip = FLIPS[pick(FLIPS.len())];
                    format!("{}{flip}{}", &text[..at], &text[at + old..])
                }
                _ => {
                    let mut spliced = tokens.clone();
                    let token = tokens[pick(tokens.len())];
                    spliced.insert(pick(tokens.len() + 1), token);
                    spliced.remove(pick(spliced.len()));
                    spliced.concat()
                }
            };
            let parsed = std::panic::catch_unwind(|| Trace::parse(&mutant))
                .unwrap_or_else(|_| panic!("parse panicked on mutant {round}: {mutant:?}"));
            if let Ok(t) = parsed {
                assert_eq!(Trace::parse(&t.serialize()), Ok(t), "mutant {round}");
            }
        }
    }

    #[test]
    fn parse_tolerates_comments_and_blanks() {
        let text = "DOLOS-TRACE v1 region=4096\n\nW 10 # think\nP 0,64\nR 0\n";
        let t = Trace::parse(text).expect("well-formed");
        assert_eq!(t.len(), 3);
        assert_eq!(t.persist_lines(), 2);
    }

    #[test]
    fn push_coalesces_consecutive_work() {
        let mut t = Trace::new(64);
        t.push(TraceOp::Work(5));
        t.push(TraceOp::Work(7));
        t.push(TraceOp::Read(0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().next(), Some(&TraceOp::Work(12)));
    }
}
