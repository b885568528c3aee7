//! Fixture tests: every lint pinned both firing and suppressed.
//!
//! These are the audit's own regression suite. Each lint gets (at least) a
//! pair of fixtures — one where it must fire, one where an `audit:allow`
//! with a reason silences it — plus hygiene cases for the suppression
//! grammar itself, cross-file cases for the call-graph lints, *graft*
//! tests that re-introduce real historical violations into the live
//! workspace sources, and a final test that the real workspace is clean.
//! That last test is what makes the audit self-enforcing: reverting one of
//! the determinism migrations, re-deriving `Debug` on a key-bearing type,
//! or deleting a suppression whose finding is still live flips
//! `cargo run -p dolos-audit -- check` (and this test) to red.

use std::collections::BTreeMap;

use dolos_audit::config::Config;
use dolos_audit::lints::SourceFile;
use dolos_audit::report::Report;
use dolos_audit::{audit_source, audit_sources, audit_trees, check_workspace, walk};

fn fixture_config() -> Config {
    Config {
        deterministic_crates: vec!["det".into()],
        clock_exempt_crates: vec!["bench".into()],
        strict_panic_files: vec!["src/strict.rs".into()],
        sanctioned_persistence_files: vec!["src/device.rs".into()],
        persistence_roots: vec!["Ctl::drain".into()],
        hot_path_roots: vec!["Ctl::advance".into()],
        unsafe_files: vec!["src/ffi.rs".into()],
        secret_types: vec!["Aes128".into(), "MacEngine".into()],
        sanctioned_debug_files: vec!["src/aes.rs".into()],
        panic_budgets: Vec::new(),
        crate_deps: BTreeMap::new(),
    }
}

fn lints_fired(path: &str, krate: &str, text: &str) -> Vec<String> {
    audit_source(path, krate, text, &fixture_config())
        .findings
        .into_iter()
        .map(|f| f.lint)
        .collect()
}

// --- nondeterminism -------------------------------------------------------

#[test]
fn nondeterminism_fires_on_hash_collections_in_deterministic_crates() {
    let src = "use std::collections::HashMap;\nfn f() { let m: HashSet<u64> = x(); }\n";
    let fired = lints_fired("src/a.rs", "det", src);
    assert_eq!(fired, vec!["nondeterminism", "nondeterminism"]);
}

#[test]
fn nondeterminism_is_silent_outside_deterministic_crates() {
    let src = "use std::collections::HashMap;\n";
    assert!(lints_fired("src/a.rs", "bench", src).is_empty());
}

#[test]
fn nondeterminism_ignores_comments_strings_and_tests() {
    let src = r#"
// A HashMap would be wrong here.
fn f() { let s = "HashMap"; }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
}
"#;
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

#[test]
fn nondeterminism_suppression_with_reason_holds() {
    let src = "// audit:allow(nondeterminism) -- insertion-order scan only, never iterated\n\
               use std::collections::HashMap;\n";
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

#[test]
fn trailing_same_line_suppression_holds() {
    let src =
        "use std::collections::HashMap; // audit:allow(nondeterminism) -- bounded, sorted on use\n";
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

// --- wall-clock -----------------------------------------------------------

#[test]
fn wall_clock_fires_outside_the_bench_crate() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(lints_fired("src/a.rs", "det", src), vec!["wall-clock"]);
    let src2 = "fn f() -> SystemTime { SystemTime::now() }\n";
    assert_eq!(
        lints_fired("src/a.rs", "other", src2),
        vec!["wall-clock", "wall-clock"]
    );
}

#[test]
fn wall_clock_is_allowed_in_bench_and_suppressible_elsewhere() {
    let src = "fn f() { let t = Instant::now(); }\n";
    assert!(lints_fired("src/a.rs", "bench", src).is_empty());
    let suppressed = "// audit:allow(wall-clock) -- progress logging only, not in results\n\
                      fn f() { let t = Instant::now(); }\n";
    assert!(lints_fired("src/a.rs", "det", suppressed).is_empty());
}

#[test]
fn wall_clock_does_not_match_identifier_substrings() {
    // `Instantiates` in prose and code must not trip the `Instant` rule.
    let src = "/// Instantiates the workload.\nfn instantiate_it() {}\n";
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

// --- panic-path -----------------------------------------------------------

#[test]
fn panic_path_fires_per_site_in_strict_files() {
    let src = "fn recover() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); unreachable!(); }\n";
    let fired = lints_fired("src/strict.rs", "det", src);
    assert_eq!(fired.len(), 4);
    assert!(fired.iter().all(|l| l == "panic-path"));
}

#[test]
fn panic_path_in_strict_files_is_suppressible_per_site() {
    let src = "// audit:allow(panic-path) -- invariant checked on the previous line\n\
               fn recover() { x.unwrap(); }\n";
    assert!(lints_fired("src/strict.rs", "det", src).is_empty());
}

#[test]
fn panic_budget_ratchets_per_crate() {
    let src = "fn f() { a.unwrap(); b.expect(\"m\"); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 2);
    // `det` has no budget entry in the fixture config (budget 0): the
    // per-crate workspace finding fires and names the crate.
    let budget = report
        .findings
        .iter()
        .find(|f| f.file == "(workspace)")
        .expect("budget finding");
    assert_eq!(budget.lint, "panic-path");
    assert!(budget.message.contains("ratchet"));
    assert!(budget.message.contains("`det`"));
}

#[test]
fn panic_budget_is_counted_per_crate_not_globally() {
    // Two crates with one site each against per-crate budgets of 1: clean.
    // The old global ratchet could not express this.
    let mut config = fixture_config();
    config.panic_budgets = vec![("det".into(), 1), ("other".into(), 1)];
    let report = audit_sources(
        &[
            ("src/a.rs", "det", "fn f() { a.unwrap(); }\n"),
            ("src/b.rs", "other", "fn g() { b.unwrap(); }\n"),
        ],
        &config,
    );
    assert!(report.is_clean(), "{}", report.to_text());
    assert_eq!(report.panic_sites, 2);
    // Concentrating both sites in one crate blows that crate's budget.
    let report = audit_sources(
        &[
            ("src/a.rs", "det", "fn f() { a.unwrap(); }\n"),
            ("src/b.rs", "det", "fn g() { b.unwrap(); }\n"),
        ],
        &config,
    );
    assert!(!report.is_clean());
}

#[test]
fn allowed_panic_sites_do_not_count_against_the_budget() {
    let src = "// audit:allow(panic-path) -- bounded arithmetic, cannot overflow\n\
               fn f() { a.unwrap(); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 0);
    assert!(report.is_clean());
}

#[test]
fn panic_sites_in_test_modules_are_free() {
    let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); panic!(\"boom\"); }\n}\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 0);
    assert!(report.is_clean());
}

#[test]
fn unwrap_like_identifiers_are_not_panic_sites() {
    let src = "fn f() { a.unwrap_or(0); b.unwrap_or_default(); expect(c); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.panic_sites, 0);
}

// --- unsafe-scope ---------------------------------------------------------

#[test]
fn unsafe_scope_fires_outside_sanctioned_files_tests_included() {
    let src = "fn f() { unsafe { g() } }\nunsafe fn g() {}\n\
               #[cfg(test)]\nmod tests {\n fn t() { unsafe { h() } }\n}\n";
    assert_eq!(
        lints_fired("src/a.rs", "other", src),
        vec!["unsafe-scope", "unsafe-scope", "unsafe-scope"]
    );
}

#[test]
fn unsafe_scope_is_silent_in_sanctioned_files_comments_and_strings() {
    let src = "fn f() { unsafe { g() } }\n";
    assert!(lints_fired("src/ffi.rs", "other", src).is_empty());
    let src = "#![deny(unsafe_code)]\n// unsafe is banned\nfn f() { let s = \"unsafe\"; }\n";
    assert!(lints_fired("src/a.rs", "other", src).is_empty());
}

#[test]
fn unsafe_scope_suppression_with_reason_holds() {
    let src = "// audit:allow(unsafe-scope) -- FFI shim reviewed separately\n\
               fn f() { unsafe { g() } }\n";
    assert!(lints_fired("src/a.rs", "other", src).is_empty());
}

#[test]
fn unsafe_scope_reads_integration_tests_benches_and_perfbench() {
    // Files outside `src/` run under this lint alone: the panic-path
    // `unwrap` below is neither a finding nor a counted site there.
    let test_file = |path: &str, text: &str| SourceFile {
        path: path.into(),
        krate: "other".into(),
        text: text.into(),
    };
    let report = audit_trees(
        &[],
        &[
            test_file("tests/it.rs", "#[test]\nfn t() { unsafe { g() } }\n"),
            test_file("benches/b.rs", "fn main() { let x = y().unwrap(); }\n"),
            test_file("perfbench/src/lib.rs", "unsafe fn g() {}\n"),
        ],
        &fixture_config(),
    );
    let fired: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.lint.as_str()))
        .collect();
    assert_eq!(
        fired,
        vec![
            ("perfbench/src/lib.rs", "unsafe-scope"),
            ("tests/it.rs", "unsafe-scope")
        ]
    );
    assert_eq!(report.panic_sites, 0);
    assert_eq!(report.files_scanned, 3);
}

// --- persistence-domain (call-graph form) ---------------------------------

#[test]
fn persistence_domain_fires_outside_the_persistence_reach() {
    let src = "fn f(nvm: &mut NvmDevice) { nvm.poke(a, &d); nvm.restore_lines(&v); }\n";
    let fired = lints_fired("src/a.rs", "det", src);
    assert_eq!(fired, vec!["persistence-domain", "persistence-domain"]);
}

#[test]
fn persistence_domain_allows_writes_reachable_from_a_root() {
    // `drain` (a configured persistence root) -> helper -> device write:
    // legal, even across files and without any sanctioned-file carve-out.
    let report = audit_sources(
        &[
            (
                "src/ctl.rs",
                "det",
                "impl Ctl { fn drain(&mut self) { flush(&mut self.nvm); } }\n",
            ),
            (
                "src/flush.rs",
                "det",
                "pub fn flush(nvm: &mut NvmDevice) { nvm.write_line(now, a, &d); }\n",
            ),
        ],
        &fixture_config(),
    );
    assert!(report.is_clean(), "{}", report.to_text());
}

#[test]
fn persistence_domain_fires_on_rogue_writes_next_to_legal_ones() {
    // Same device method, two callers: only the one outside the
    // drain-reachable region is a WPQ bypass.
    let report = audit_sources(
        &[
            (
                "src/ctl.rs",
                "det",
                "impl Ctl { fn drain(&mut self) { self.step(); }\n\
                 fn step(&mut self) { self.nvm.poke(a, b); } }\n",
            ),
            (
                "src/rogue.rs",
                "det",
                "fn rogue(nvm: &mut NvmDevice) { nvm.poke(a, b); }\n",
            ),
        ],
        &fixture_config(),
    );
    let fired: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "persistence-domain")
        .collect();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].file, "src/rogue.rs");
    assert!(fired[0].message.contains("`rogue`"));
}

#[test]
fn persistence_domain_is_silent_in_sanctioned_files_and_on_definitions() {
    let call = "fn f(nvm: &mut NvmDevice) { nvm.write_line(now, a, &d); }\n";
    assert!(lints_fired("src/device.rs", "det", call).is_empty());
    // A method *definition* is not a call: no `.` before the name.
    let def = "impl NvmDevice { pub fn write_line(&mut self) {} }\n";
    assert!(lints_fired("src/a.rs", "det", def).is_empty());
}

#[test]
fn persistence_domain_suppression_with_reason_holds() {
    let src = "// audit:allow(persistence-domain) -- fault injection bypasses ADR on purpose\n\
               fn f(nvm: &mut NvmDevice) { nvm.replay_snapshot(a, &s); }\n";
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

// --- secret-flow ----------------------------------------------------------

#[test]
fn secret_flow_fires_on_leaky_derive() {
    let src = "#[derive(Clone, Debug)]\npub struct Aes128 { round_keys: [u32; 44] }\n";
    assert_eq!(lints_fired("src/key.rs", "det", src), vec!["secret-flow"]);
}

#[test]
fn secret_flow_fires_on_format_of_secret_param() {
    let src = "fn dump(key: &Aes128) { println!(\"{:?}\", key); }\n";
    assert_eq!(lints_fired("src/a.rs", "det", src), vec!["secret-flow"]);
}

#[test]
fn secret_flow_allows_sanctioned_redacted_debug_impl() {
    let src = "impl core::fmt::Debug for MacEngine {\n\
               fn fmt(&self, f: &mut Formatter) -> Result { redacted(f) }\n}\n";
    // Sanctioned in src/aes.rs per the fixture config, a finding elsewhere.
    assert!(lints_fired("src/aes.rs", "det", src).is_empty());
    assert_eq!(lints_fired("src/b.rs", "det", src), vec!["secret-flow"]);
}

#[test]
fn secret_flow_crosses_files_interprocedurally() {
    // caller.rs passes a secret field to render(), which hands its
    // parameter to a format macro in another file: both ends are findings.
    let report = audit_sources(
        &[
            (
                "src/caller.rs",
                "det",
                "struct Unit { engine: MacEngine }\n\
                 impl Unit { fn go(&self) { render(&self.engine); } }\n",
            ),
            (
                "src/render.rs",
                "det",
                "pub fn render(e: &MacEngine) { println!(\"{:?}\", e); }\n",
            ),
        ],
        &fixture_config(),
    );
    let files: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.lint == "secret-flow")
        .map(|f| f.file.as_str())
        .collect();
    assert!(files.contains(&"src/caller.rs"), "{}", report.to_text());
    assert!(files.contains(&"src/render.rs"), "{}", report.to_text());
}

#[test]
fn secret_flow_suppression_with_reason_holds() {
    let src = "// audit:allow(secret-flow) -- key id only, not key material\n\
               fn dump(key: &Aes128) { println!(\"{:?}\", key); }\n";
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

// --- hot-alloc ------------------------------------------------------------

#[test]
fn hot_alloc_fires_with_the_call_path_from_the_root() {
    let src = "impl Ctl { fn advance(&mut self) { helper(); } }\n\
               fn helper() { let v = Vec::new(); }\n\
               fn cold() { let c = Vec::new(); }\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    let hot: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "hot-alloc")
        .collect();
    assert_eq!(hot.len(), 1, "{}", report.to_text());
    assert!(hot[0].message.contains("Ctl::advance -> helper"));
}

#[test]
fn hot_alloc_crosses_files() {
    let report = audit_sources(
        &[
            (
                "src/ctl.rs",
                "det",
                "impl Ctl { fn advance(&mut self) { pad(&mut self.buf); } }\n",
            ),
            (
                "src/pad.rs",
                "det",
                "pub fn pad(buf: &mut [u8]) { let v = vec![0u8; 64]; }\n",
            ),
        ],
        &fixture_config(),
    );
    let hot: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "hot-alloc")
        .collect();
    assert_eq!(hot.len(), 1, "{}", report.to_text());
    assert_eq!(hot[0].file, "src/pad.rs");
}

#[test]
fn hot_alloc_suppression_with_reason_holds() {
    let src = "impl Ctl { fn advance(&mut self) {\n\
               let v = Vec::new(); // audit:allow(hot-alloc) -- setup only, outside timed region\n\
               } }\n";
    assert!(lints_fired("src/a.rs", "det", src).is_empty());
}

// --- suppression hygiene --------------------------------------------------

#[test]
fn suppression_without_reason_is_a_finding() {
    let src = "// audit:allow(nondeterminism)\nuse std::collections::HashMap;\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    let lints: Vec<_> = report.findings.iter().map(|f| f.lint.as_str()).collect();
    // The bad allow is reported AND the underlying finding still fires.
    assert!(lints.contains(&"suppression"));
    assert!(lints.contains(&"nondeterminism"));
}

#[test]
fn suppression_of_unknown_lint_is_a_finding() {
    let src = "// audit:allow(made-up-lint) -- because\nfn f() {}\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.findings.len(), 1);
    assert!(report.findings[0].message.contains("unknown lint"));
}

#[test]
fn deleting_the_violation_strands_the_suppression() {
    // The allow outlives the HashMap it used to cover: the audit must go
    // red until the stale comment is deleted too.
    let src = "// audit:allow(nondeterminism) -- justified once upon a time\nfn f() {}\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].lint, "suppression");
    assert!(report.findings[0].message.contains("stale"));
}

#[test]
fn suppression_only_covers_adjacent_lines() {
    let src =
        "// audit:allow(nondeterminism) -- too far away\n\n\nuse std::collections::HashMap;\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    let lints: Vec<_> = report.findings.iter().map(|f| f.lint.as_str()).collect();
    assert!(lints.contains(&"nondeterminism"));
    assert!(lints.contains(&"suppression")); // and the allow counts as stale
}

#[test]
fn active_suppressions_appear_in_the_inventory() {
    let src = "// audit:allow(nondeterminism) -- bounded, sorted on use\n\
               use std::collections::HashMap;\n";
    let report = audit_source("src/a.rs", "det", src, &fixture_config());
    assert!(report.is_clean());
    assert_eq!(report.suppressed.len(), 1);
    let s = &report.suppressed[0];
    assert_eq!(s.lint, "nondeterminism");
    assert_eq!(s.reason, "bounded, sorted on use");
    assert!(report
        .to_json()
        .contains("\"reason\": \"bounded, sorted on use\""));
}

// --- graft tests: re-introduce real violations into the live sources ------

/// Loads the real workspace, applies one textual edit to one file, and
/// audits the result under the real policy. The anchor must exist — if the
/// source drifts, the assert points at this test instead of silently
/// auditing an unmodified tree.
fn grafted_workspace(path_suffix: &str, anchor: &str, replacement: &str) -> Report {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = walk::collect_workspace(&root).expect("workspace readable");
    let mut test_files = walk::collect_test_trees(&root).expect("workspace readable");
    let file = files
        .iter_mut()
        .chain(test_files.iter_mut())
        .find(|f| f.path.ends_with(path_suffix))
        .expect("graft target exists");
    assert!(
        file.text.contains(anchor),
        "graft anchor vanished from {path_suffix}; update this test"
    );
    file.text = file.text.replace(anchor, replacement);
    let mut config = Config::workspace();
    config.crate_deps = walk::crate_dependencies(&root).expect("manifests readable");
    audit_trees(&files, &test_files, &config)
}

#[test]
fn graft_rederiving_debug_on_aes128_fires_secret_flow() {
    let report = grafted_workspace(
        "dolos-crypto/src/aes.rs",
        "pub struct Aes128 {",
        "#[derive(Debug)]\npub struct Aes128 {",
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.lint == "secret-flow" && f.file.ends_with("aes.rs")),
        "{}",
        report.to_text()
    );
}

#[test]
fn graft_allocating_pad_path_fires_hot_alloc() {
    // Re-introduce a per-write allocation into the Ma-SU pad pipeline —
    // `ctr::pad_line` in dolos-crypto, reached from the hot root
    // `MajorSecurityUnit::pad_for`; the audit must name it and explain the
    // cross-crate path from that root.
    let report = grafted_workspace(
        "dolos-crypto/src/ctr.rs",
        "let blocks = key.encrypt_counter4(iv.to_base_words(), 0);",
        "let _scratch = iv.to_base_words().to_vec();\n    \
         let blocks = key.encrypt_counter4(iv.to_base_words(), 0);",
    );
    let hit = report
        .findings
        .iter()
        .find(|f| f.lint == "hot-alloc" && f.file.ends_with("ctr.rs"));
    let hit = hit.unwrap_or_else(|| panic!("expected hot-alloc:\n{}", report.to_text()));
    assert!(hit.message.contains("to_vec"), "{}", hit.message);
}

#[test]
fn graft_unsafe_outside_aesni_fires_unsafe_scope() {
    // An `unsafe` block next to the dispatch in aes.rs (rather than in
    // aesni.rs) must be flagged even though the crate would re-allow it.
    let report = grafted_workspace(
        "dolos-crypto/src/aes.rs",
        "pub fn is_hardware(&self) -> bool {",
        "pub fn is_hardware(&self) -> bool {\n        unsafe {}",
    );
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "unsafe-scope")
        .collect();
    assert_eq!(hits.len(), 1, "{}", report.to_text());
    assert!(hits[0].file.ends_with("dolos-crypto/src/aes.rs"));
}

#[test]
fn graft_unsafe_in_integration_test_and_perfbench_fires_unsafe_scope() {
    // Integration tests and the perfbench package sit outside every
    // `src/` tree the compiler's `forbid(unsafe_code)` covers; the audit
    // must still reach them.
    for (path, anchor) in [
        (
            "dolos-crypto/tests/aes_lockstep.rs",
            "fn cpu_has_aesni() -> bool {",
        ),
        ("perfbench/src/layers.rs", "use std::hint::black_box;"),
    ] {
        let report = grafted_workspace(path, anchor, &format!("{anchor}\nunsafe fn f() {{}}"));
        let hits: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.lint == "unsafe-scope")
            .collect();
        assert_eq!(hits.len(), 1, "{path}: {}", report.to_text());
        assert!(hits[0].file.ends_with(path), "{}", hits[0].file);
    }
}

#[test]
fn graft_panic_in_claim_queue_fires_strict_panic() {
    // The work-stealing claim queue is on the strict-panic list: a single
    // grafted panic in `claim` must surface as an individual finding, not
    // disappear into a crate budget.
    let report = grafted_workspace(
        "dolos-sim/src/queue.rs",
        "let block = block.max(1);",
        "if block == usize::MAX { panic!(\"bad block\"); }\n        let block = block.max(1);",
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.lint == "panic-path" && f.file.ends_with("queue.rs")),
        "{}",
        report.to_text()
    );
}

// --- the real workspace ---------------------------------------------------

#[test]
fn workspace_is_audit_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = check_workspace(&root).expect("workspace readable");
    assert!(
        report.is_clean(),
        "workspace audit must be clean:\n{}",
        report.to_text()
    );
    // The walker found the whole workspace, not a subdirectory.
    assert!(report.files_scanned > 50, "only {}", report.files_scanned);
    // Ratchet sanity: the recorded budgets match reality. If you removed
    // panic sites, lower the crate's entry in
    // `Config::workspace().panic_budgets` to match.
    let total: usize = Config::workspace()
        .panic_budgets
        .iter()
        .map(|(_, b)| *b)
        .sum();
    assert!(report.panic_sites <= total);
}
