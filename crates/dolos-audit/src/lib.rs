//! `dolos-audit`: a dependency-free static analyzer for the Dolos workspace.
//!
//! The simulator's headline guarantee is that every result — benchmark
//! cycle counts, chaos campaign verdicts, recovery replays — is a pure
//! function of its inputs, and the paper's security/performance arguments
//! are *structural*: key material stays inside the crypto engines, the
//! persist critical path allocates nothing, and every NVM write flows
//! through the WPQ. The type system cannot see the ways those guarantees
//! quietly erode; this crate enforces them at the source level.
//!
//! The analyzer runs in three phases:
//!
//! 1. **Per-file** — a hand-rolled comment- and string-aware lexer
//!    ([`lexer`]) feeds token-pattern lints ([`lints`]): nondeterminism,
//!    wall-clock, panic-path, unsafe-scope.
//! 2. **Workspace** — a dependency-free item parser ([`items`]) recovers
//!    `mod`/`impl`/`fn` structure from the same tokens; a conservative
//!    name-based call graph with reachability ([`graph`]) powers the
//!    interprocedural lints ([`interproc`]): secret-flow, hot-alloc, and
//!    the call-graph form of persistence-domain.
//! 3. **Suppression & budgets** — findings from both phases pass through
//!    in-source `audit:allow` suppressions, stale allows become findings,
//!    and per-crate panic ratchets are enforced.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p dolos-audit -- check [--json] [--root <path>]
//! cargo run -p dolos-audit -- list-lints
//! ```
//!
//! Intentional exceptions are annotated in place and must carry a reason:
//!
//! ```text
//! // audit:allow(<lint>) -- <why this site is exempt>
//! ```
//!
//! Suppressions that stop matching anything fail the audit, so the
//! exception list can only shrink alongside the code it describes. The
//! `--json` report (schema version 2) carries the full suppression
//! inventory so CI can diff the exception list across PRs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod graph;
pub mod interproc;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod walk;

use std::collections::BTreeMap;

use config::{Config, LINT_PANIC_PATH, LINT_SUPPRESSION};
use graph::{Graph, GraphFile};
use lints::{analyze_file, analyze_test_tree_file, try_suppress, SourceFile};
use report::{Finding, Report, SuppressedSite};

/// Audits a set of files under one policy.
pub fn audit_files(files: &[SourceFile], config: &Config) -> Report {
    audit_trees(files, &[], config)
}

/// Audits shipped `files` under every lint, and `test_files` (integration
/// tests, benches, examples and `perfbench/`, see
/// [`walk::collect_test_trees`]) under the unsafe-scope lint alone: no
/// `forbid(unsafe_code)` covers them, and the other lints target shipped
/// code.
pub fn audit_trees(files: &[SourceFile], test_files: &[SourceFile], config: &Config) -> Report {
    // Phase A: per-file lexing, local lints, suppression extraction.
    let mut analyses = Vec::with_capacity(files.len() + test_files.len());
    let mut graph_files = Vec::with_capacity(files.len());
    for file in files {
        let (analysis, tokens) = analyze_file(file, config);
        analyses.push(analysis);
        graph_files.push(GraphFile::new(&file.krate, &file.path, tokens));
    }
    for file in test_files {
        analyses.push(analyze_test_tree_file(file, config));
    }

    // Phase B: item graph + interprocedural lints.
    let graph = Graph::build(&graph_files, &config.crate_deps);
    let mut interproc_by_file: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    for finding in interproc::run(&graph_files, &graph, config) {
        interproc_by_file
            .entry(match files.iter().find(|f| f.path == finding.file) {
                Some(f) => f.path.as_str(),
                None => "",
            })
            .or_default()
            .push(finding);
    }

    // Phase C: suppressions, panic budgets, inventory.
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut panic_sites = 0usize;
    let mut sites_by_crate: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, file) in files.iter().chain(test_files).enumerate() {
        let analysis = &mut analyses[i];
        findings.append(&mut analysis.pre_findings);
        let raw = std::mem::take(&mut analysis.raw);
        let inter = interproc_by_file
            .remove(file.path.as_str())
            .unwrap_or_default();
        for finding in raw.into_iter().chain(inter) {
            if !try_suppress(&mut analysis.suppressions, &finding.lint, finding.line) {
                findings.push(finding);
            }
        }
        // Panic sites outside strict files are counted, not reported: the
        // ratchet compares each crate's total against its budget. A site
        // can still be excluded from the count with an explicit allow.
        if !analysis.strict {
            let count = analysis
                .panic_lines
                .iter()
                .filter(|(line, _)| {
                    !try_suppress(&mut analysis.suppressions, LINT_PANIC_PATH, *line)
                })
                .count();
            panic_sites += count;
            *sites_by_crate.entry(file.krate.as_str()).or_default() += count;
        }
        for s in &analysis.suppressions {
            if s.used {
                suppressed.push(SuppressedSite {
                    file: file.path.clone(),
                    line: s.line,
                    lint: s.lint.clone(),
                    reason: s.reason.clone(),
                });
            } else {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: s.line,
                    lint: LINT_SUPPRESSION.into(),
                    message: format!(
                        "audit:allow({}) matched no finding on this or the next \
                         line; delete the stale suppression",
                        s.lint
                    ),
                });
            }
        }
    }
    for (krate, count) in &sites_by_crate {
        let budget = config.panic_budget_for(krate);
        if *count > budget {
            findings.push(Finding {
                file: "(workspace)".into(),
                line: 0,
                lint: LINT_PANIC_PATH.into(),
                message: format!(
                    "{count} unsuppressed unwrap/expect/panic sites in `{krate}` \
                     exceed its ratchet budget of {budget}; remove sites or \
                     annotate them with `audit:allow(panic-path) -- <reason>` \
                     (budgets only ratchet down)"
                ),
            });
        }
    }
    findings.sort();
    suppressed.sort();
    Report {
        findings,
        files_scanned: analyses.len(),
        panic_sites,
        suppressed,
    }
}

/// Audits one source string under a synthetic path/crate (fixture helper).
pub fn audit_source(path: &str, krate: &str, text: &str, config: &Config) -> Report {
    audit_files(
        &[SourceFile {
            path: path.to_string(),
            krate: krate.to_string(),
            text: text.to_string(),
        }],
        config,
    )
}

/// Audits several `(path, krate, text)` sources together (fixture helper
/// for cross-file reachability cases).
pub fn audit_sources(sources: &[(&str, &str, &str)], config: &Config) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, krate, text)| SourceFile {
            path: path.to_string(),
            krate: krate.to_string(),
            text: text.to_string(),
        })
        .collect();
    audit_files(&files, config)
}

/// Runs the workspace audit rooted at `root` with the standard policy.
pub fn check_workspace(root: &std::path::Path) -> std::io::Result<Report> {
    let files = walk::collect_workspace(root)?;
    let test_files = walk::collect_test_trees(root)?;
    let mut config = Config::workspace();
    config.crate_deps = walk::crate_dependencies(root)?;
    Ok(audit_trees(&files, &test_files, &config))
}
