//! Per-layer attribution for the traced run. Every number here is measured
//! from outside the program: a span is the host time of one call into a
//! layer's public function, taken in this package's code.
//!
//! Layers, named by module: `whisper` (workloads, `PmEnv`, CPU caches,
//! trace capture), `ctrl` (controller front end, WPQ, banks, NVM), `misu`,
//! `masu` (with `dolos-secmem`), `crypto`, and `pool` (the sweep).

use std::hint::black_box;
use std::time::Instant;

use dolos_crypto::aes::Aes128;
use dolos_crypto::ctr::{pad_line, IvBuilder};
use dolos_crypto::mac::MacEngine;
use dolos_secmem::bmt::BonsaiMerkleTree;
use dolos_secmem::toc::TreeOfCounters;
use dolos_sim::stats::StatSet;

use crate::crash::{self, RecoverySpans};
use crate::measure::{median_secs, ns_per_call, percentile, Checks, Pass};
use crate::replay::{deferred_lazy, record_all, replay, schemes, CallSpans, Recorded};
use crate::report::{metric, Metric};
use crate::whisper::{self, TxnSpans};

/// Direct calls to the crypto and integrity-tree public functions.
pub fn micro() -> Vec<Metric> {
    const BATCHES: usize = 5;
    let key = Aes128::new(&[7; 16]);
    let block = [0x5A; 16];
    let iv = IvBuilder::new().address(0x4000).counter(17).build();
    let mac = MacEngine::new([9; 16]);
    let line = [0x11u8; 64];
    let aes = ns_per_call(BATCHES, 200_000, |_| {
        black_box(key.encrypt_block(black_box(&block)));
    });
    let pad = ns_per_call(BATCHES, 50_000, |_| {
        black_box(pad_line(black_box(&key), black_box(&iv)));
    });
    let tag = ns_per_call(BATCHES, 50_000, |_| {
        black_box(mac.tag(black_box(&line)));
    });
    // 4096 leaves: a 16 MiB protected region, the controller default.
    let mut bmt = BonsaiMerkleTree::new(4096, &mac);
    let bmt_update = ns_per_call(BATCHES, 20_000, |i| {
        bmt.update_leaf(&mac, i % 4096, black_box(&[i as u8; 64]));
    });
    bmt.update_leaf(&mac, 7, &[9; 64]);
    let bmt_verify = ns_per_call(BATCHES, 20_000, |_| {
        black_box(bmt.verify_leaf(&mac, 7, black_box(&[9; 64])));
    });
    let mut toc = TreeOfCounters::new(4096, &mac);
    let toc_update = ns_per_call(BATCHES, 20_000, |i| {
        // A bounded leaf set keeps the shadow region from growing.
        toc.update_leaf(&mac, i % 64, black_box(&[i as u8; 64]));
    });
    vec![
        metric("crypto.aes_block_ns", aes, "ns"),
        metric("crypto.pad_line_ns", pad, "ns"),
        metric("crypto.cbc_mac_line_ns", tag, "ns"),
        metric("secmem.bmt_update_leaf_ns", bmt_update, "ns"),
        metric("secmem.bmt_verify_leaf_ns", bmt_verify, "ns"),
        metric("secmem.toc_update_leaf_ns", toc_update, "ns"),
    ]
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Adds every statistic of `stats` into `into` (the simulated p99 persist
/// latency is summed too, and divided by the trace count when reported).
fn accumulate(into: &mut StatSet, stats: &StatSet) {
    for (name, value) in stats.iter() {
        into.add(name, value);
    }
}

/// Deterministic per-scheme counts from the controller's own statistics,
/// summed over the six traces.
fn counts(label: &str, sum: &StatSet, traces: usize) -> Vec<Metric> {
    let get = |name: &str| sum.get_or_zero(name);
    let rate = |prefix: &str| {
        let (hits, misses) = (
            get(&format!("{prefix}.hits")),
            get(&format!("{prefix}.misses")),
        );
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    };
    let persists = get("ctrl.persists");
    let mut out = vec![
        metric(
            format!("ctrl.retries.{label}"),
            get("ctrl.retries"),
            "count",
        ),
        metric(
            format!("wpq.coalesces.{label}"),
            get("wpq.coalesces"),
            "count",
        ),
        metric(
            format!("wpq.full_events.{label}"),
            get("wpq.full_events"),
            "count",
        ),
        metric(format!("nvm.writes.{label}"), get("nvm.writes"), "count"),
        metric(
            format!("sim.persist_p99.{label}"),
            get("ctrl.persist_latency_p99") / traces as f64,
            "cycles",
        ),
        metric(
            format!("sim.retries_per_kwr.{label}"),
            if persists == 0.0 {
                0.0
            } else {
                get("ctrl.retries") * 1000.0 / persists
            },
            "retries/kwr",
        ),
    ];
    if label.starts_with("dolos-") {
        out.push(metric(
            format!("misu.busy_rejections.{label}"),
            get("misu.busy_rejections"),
            "count",
        ));
    }
    if label != "ideal" {
        out.extend([
            metric(
                format!("masu.engine_ops.{label}"),
                get("masu.engine_ops"),
                "count",
            ),
            metric(
                format!("masu.overflows.{label}"),
                get("masu.overflows"),
                "count",
            ),
            metric(
                format!("ctr_cache.hit_rate.{label}"),
                rate("ctr_cache"),
                "ratio",
            ),
            metric(
                format!("mt_cache.hit_rate.{label}"),
                rate("mt_cache"),
                "ratio",
            ),
        ]);
    }
    out
}

/// The `secure-replay` attribution: records the traces (timed), replays
/// them through every scheme plus the lazy-tree Ma-SU reference with a span
/// around every controller call, and reads the deterministic counts.
///
/// Scheme differences split the controller's host time into layers:
/// `ideal` is the front end alone, `deferred` − `ideal` the Ma-SU, and
/// `dolos-*` − `deferred` the Mi-SU.
pub fn attribution(seed: u64) -> (Vec<Recorded>, Vec<Metric>) {
    let (record_s, recorded) = median_secs(3, || record_all(seed));
    let mut matrix = schemes();
    matrix.push(deferred_lazy());
    let mut per_call = Vec::new();
    let mut reads = Vec::new();
    let mut out = vec![metric("whisper.record_ms", record_s * 1000.0, "ms")];
    let mut deterministic = Vec::new();
    for scheme in &matrix {
        let mut spans = CallSpans::default();
        let mut sum = StatSet::new();
        for rec in &recorded {
            let r = replay(&rec.trace, &scheme.config, Some(&mut spans));
            accumulate(&mut sum, &r.stats);
        }
        per_call.push((scheme.label, mean(&spans.persist_ns)));
        reads.extend_from_slice(&spans.read_ns);
        if scheme.label != "deferred-lazy" {
            out.push(metric(
                format!("ctrl.persist_ns.{}.p50", scheme.label),
                percentile(&mut spans.persist_ns, 0.50),
                "ns",
            ));
            out.push(metric(
                format!("ctrl.persist_ns.{}.p99", scheme.label),
                percentile(&mut spans.persist_ns, 0.99),
                "ns",
            ));
            deterministic.extend(counts(scheme.label, &sum, recorded.len()));
        }
    }
    let ns = |label: &str| {
        per_call
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |p| p.1)
    };
    out.push(metric(
        "ctrl.read_ns.p50",
        percentile(&mut reads, 0.50),
        "ns",
    ));
    out.push(metric("frontend.ns_per_persist", ns("ideal"), "ns"));
    out.push(metric(
        "masu.ns_per_persist.eager",
        ns("deferred") - ns("ideal"),
        "ns",
    ));
    out.push(metric(
        "masu.ns_per_persist.lazy",
        ns("deferred-lazy") - ns("ideal"),
        "ns",
    ));
    for design in ["full", "partial", "post"] {
        out.push(metric(
            format!("misu.ns_per_persist.{design}"),
            ns(&format!("dolos-{design}")) - ns("deferred"),
            "ns",
        ));
    }
    out.extend(deterministic);
    (recorded, out)
}

/// `whisper.txn_us` percentiles from one traced pass's spans.
pub fn whisper_metrics(spans: &mut TxnSpans) -> Vec<Metric> {
    let mut us: Vec<f64> = spans.txn_ns.iter().map(|ns| ns / 1000.0).collect();
    vec![
        metric("whisper.txn_us.p50", percentile(&mut us, 0.50), "us"),
        metric("whisper.txn_us.p99", percentile(&mut us, 0.99), "us"),
    ]
}

/// Recovery-side metrics from traced crash-recover passes.
pub fn recovery_metrics(
    spans: &mut RecoverySpans,
    passes: &[Pass],
    checks: &Checks,
) -> Vec<Metric> {
    let mut recover_ms: Vec<f64> = spans.recover_ns.iter().map(|ns| ns / 1e6).collect();
    let mut audit_ms: Vec<f64> = spans.audit_ns.iter().map(|ns| ns / 1e6).collect();
    let rounds: u64 = passes.iter().map(|p| p.cells).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    vec![
        metric("recover.ms.p50", percentile(&mut recover_ms, 0.50), "ms"),
        metric("recover.ms.p99", percentile(&mut recover_ms, 0.99), "ms"),
        metric("audit.ms.p50", percentile(&mut audit_ms, 0.50), "ms"),
        metric(
            "readback_ns.p50",
            percentile(&mut spans.readback_ns, 0.50),
            "ns",
        ),
        metric("recover.rounds_per_s", rounds as f64 / wall, "1/s"),
        metric("recover.fail_ratio", checks.fail_ratio(), "ratio"),
    ]
}

/// `pool.utilization` (Σ cell wall ÷ (elapsed × jobs)) and `pool.skew`
/// (max ÷ mean cell wall) of sweep passes.
pub fn pool_metrics(passes: &[Pass], jobs: usize) -> Vec<Metric> {
    let busy_ms: f64 = passes.iter().flat_map(|p| &p.cell_ms).sum();
    let elapsed_ms: f64 = passes.iter().map(|p| p.wall_s * 1000.0).sum();
    let cells: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    let max = cells.iter().copied().fold(0.0, f64::max);
    vec![
        metric(
            "pool.utilization",
            busy_ms / (elapsed_ms * jobs as f64),
            "ratio",
        ),
        metric("pool.skew", max / mean(&cells), "ratio"),
    ]
}

/// Runs `pass` once and stamps its wall time.
pub fn once(pass: impl FnOnce() -> Pass) -> Pass {
    let t = Instant::now();
    let mut p = pass();
    p.wall_s = t.elapsed().as_secs_f64();
    p
}

/// One traced `whisper-ideal` pass, for the probe suite.
pub fn whisper_probe(seed: u64, checks: &mut Checks) -> Vec<Metric> {
    let reference = whisper::setup(seed, checks);
    let mut spans = TxnSpans::default();
    once(|| whisper::traced_pass(seed, &reference, checks, &mut spans));
    whisper_metrics(&mut spans)
}

/// One traced `crash-recover` pass, for the probe suite. Its round
/// failures are reported as `recover.fail_ratio`, not as failed checks of
/// the run that probes it.
pub fn recovery_probe(seed: u64) -> Vec<Metric> {
    let plan = crash::setup(seed);
    let mut spans = RecoverySpans::default();
    let mut rounds = Checks::default();
    let pass = once(|| crash::pass(&plan, &mut rounds, None, Some(&mut spans)));
    recovery_metrics(&mut spans, &[pass], &rounds)
}
