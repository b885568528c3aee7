//! dolos-verify: the falsifier for the Dolos reproduction.
//!
//! It asks two questions of every controller design — the three Dolos
//! Mi-SU options, the eager-BMT `pre-wpq-secure` baseline, the deferred
//! comparison point and the insecure `ideal` reference — and asks them
//! adversarially: does each design keep its crash-consistency and
//! integrity promises, and do all the designs mean the same thing?
//!
//! * [`scenario`] — one seeded, replayable scenario grammar: transaction
//!   rounds cut by power failures at any pipeline point, hot lines that
//!   overflow a page's minor counters, nested crashes during recovery, and
//!   NVM tampering while the machine is dark;
//! * [`schedule`] — the seeded generators of the differential and reach
//!   scenario families;
//! * [`oracle`] — the acknowledged-write model (committed writes exact, a
//!   write cut mid-drain old-or-new);
//! * [`driver`] — replays a scenario on one design against the oracle and
//!   requires tampering to be detected or provably harmless;
//! * [`engine`] — runs a scenario on every design and cross-checks that
//!   designs cut at a scheme-independent point acknowledged the same
//!   persist prefix;
//! * [`mod@shrink`] — greedily minimizes a failing scenario to the
//!   smallest reproducer;
//! * [`campaign`] — sweeps the differential and reach families plus the
//!   WHISPER workload crash cells over [`dolos_sim::pool`], probes the
//!   metamorphic invariants (latency ordering, burst WPQ capacity), and
//!   renders one report whose JSON is byte-identical at any `--jobs`.
//!
//! Everything is deterministic: one seed replays the whole campaign. The
//! `dolos-verify` binary is the CLI entry point (`campaign`, `replay`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod driver;
pub mod engine;
pub mod oracle;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use campaign::{
    capacity_probe, run_metamorphic, run_verify, FailureCase, MetamorphicReport, MetamorphicRow,
    SchemeSummary, VerifyConfig, VerifyReport,
};
pub use driver::{build_round_ops, run_scheme, EngineOp, SchemeObservation};
pub use engine::{all_designs, run_scenario, verify_schemes, ScenarioVerdict};
pub use oracle::{AckOracle, Mismatch, RecoveredCheck};
pub use scenario::{Round, Scenario, TamperSpec, CUT_POINTS, HOT_WRITES, STREAM_CUTS};
pub use schedule::ScenarioConfig;
pub use shrink::{shrink_with, Shrinkable};
