//! `dolos-verify` — the falsifier CLI: crash consistency, tamper detection
//! and cross-scheme conformance across every controller design.
//!
//! ```text
//! dolos-verify campaign [--seed N] [--traces N] [--schedules N] [--rounds N]
//!                       [--txns N] [--keyspace N] [--no-tamper] [--banks N]
//!                       [--workload-txns N] [--jobs N] [--json PATH] [--quiet]
//! dolos-verify replay <scenario> [--scheme NAME]
//!
//! `campaign` sweeps `--traces` differential scenarios (five schemes),
//! `--schedules` reach scenarios and one crash cell per WHISPER workload at
//! `--workload-txns` transactions (all six designs; 0 skips either), and
//! checks the metamorphic invariants; the report (including the JSON) is
//! byte-for-byte identical at any `--jobs` value. `replay` re-runs one
//! rendered scenario (as printed in failure reports) on all six designs or
//! on a single named one.
//! ```
//!
//! Exit status is 0 when every obligation held, 1 otherwise, 2 on bad
//! arguments.

use std::process::ExitCode;

use dolos_core::ControllerConfig;
use dolos_verify::{all_designs, run_scenario, run_verify, Scenario, VerifyConfig};

fn usage() -> ! {
    eprintln!(
        "usage: dolos-verify campaign [--seed N] [--traces N] [--schedules N] [--rounds N] \
         [--txns N] [--keyspace N] [--no-tamper] [--banks N] [--workload-txns N] [--jobs N] \
         [--json PATH] [--quiet]\n\
         \x20      dolos-verify replay <scenario> [--scheme NAME]"
    );
    std::process::exit(2);
}

fn number<T: std::str::FromStr>(text: String) -> T {
    text.parse().unwrap_or_else(|_| usage())
}

fn campaign(args: &[String]) -> ExitCode {
    let mut config = VerifyConfig::default();
    let mut json_path: Option<String> = None;
    let mut quiet = false;

    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => config.seed = number(value(&mut i)),
            "--traces" => config.traces = number(value(&mut i)),
            "--schedules" => config.schedules = number(value(&mut i)),
            "--rounds" => config.rounds = number(value(&mut i)),
            "--txns" => config.txns_per_round = number(value(&mut i)),
            "--keyspace" => config.keyspace = number(value(&mut i)),
            "--no-tamper" => config.tamper = false,
            "--banks" => config.banks = number(value(&mut i)),
            "--workload-txns" => config.workload_txns = number(value(&mut i)),
            "--jobs" => config.jobs = number(value(&mut i)),
            "--json" => json_path = Some(value(&mut i)),
            "--quiet" => quiet = true,
            _ => usage(),
        }
        i += 1;
    }

    let report = run_verify(&config);

    if !quiet {
        println!("{}", report.table().render());
        if !report.reach.is_empty() {
            println!("{}", report.reach_table().render());
            let overflows: u64 = report.reach.iter().map(|s| s.overflow_rounds).sum();
            println!(
                "reach: {overflows} rounds and workload cells overflowed a page before the crash\n"
            );
        }
        println!("{}", report.metamorphic_table().render());
        for violation in &report.metamorphic.violations {
            println!("METAMORPHIC VIOLATION: {violation}");
        }
        for s in report.summaries() {
            if let Some(failure) = &s.first_failure {
                println!(
                    "FAIL {}: {}\n  minimal reproducer: {}",
                    s.scheme, failure.message, failure.scenario
                );
            }
        }
        for failure in &report.cross_failures {
            println!(
                "CROSS-SCHEME DIVERGENCE: {}\n  minimal reproducer: {}",
                failure.message, failure.scenario
            );
        }
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("dolos-verify: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        if !quiet {
            println!("report written to {path}");
        }
    }

    if report.all_pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn replay(args: &[String]) -> ExitCode {
    let (text, designs) = match args {
        [text] => (text, all_designs().to_vec()),
        [text, flag, name] if flag == "--scheme" => match ControllerConfig::named(name) {
            Some(config) => (text, vec![config]),
            None => {
                eprintln!("dolos-verify: unknown scheme {name:?}");
                return ExitCode::from(2);
            }
        },
        _ => usage(),
    };
    let scenario: Scenario = match text.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dolos-verify: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = run_scenario(&designs, &scenario);
    for obs in &verdict.observations {
        println!(
            "{}: commits={} reads={} lines={} overflow_rounds={} detected={} cuts=[{}]{}",
            obs.scheme,
            obs.commits,
            obs.reads_checked,
            obs.lines_checked,
            obs.overflow_rounds,
            obs.tamper_detected,
            obs.fired.join(","),
            if obs.pass() { "" } else { " DIVERGED" }
        );
        for divergence in &obs.divergences {
            println!("  DIVERGENCE: {divergence}");
        }
    }
    for failure in &verdict.cross_failures {
        println!("CROSS-SCHEME DIVERGENCE: {failure}");
    }
    println!(
        "{} {}",
        if verdict.pass() { "PASS" } else { "FAIL" },
        verdict.scenario
    );
    if verdict.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign") => campaign(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => usage(),
    }
}
