//! Benchmarks of full workload transactions (simulator throughput per
//! WHISPER benchmark), plus one end-to-end figure-shaped comparison.

use dolos_bench::microbench::Bench;

use dolos_core::{ControllerConfig, MiSuKind};
use dolos_sim::rng::XorShift;
use dolos_whisper::runner::{run_workload, RunConfig};
use dolos_whisper::workloads::WorkloadKind;
use dolos_whisper::PmEnv;

fn main() {
    let mut b = Bench::from_args("workloads");

    for kind in WorkloadKind::ALL {
        b.run(&format!("transaction/{}", kind.name()), || {
            let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
            let mut w = kind.build();
            w.setup(&mut env);
            let mut rng = XorShift::new(1);
            for _ in 0..8 {
                w.transaction(&mut env, 1024, &mut rng);
            }
            env.now()
        });
    }

    // One guarded end-to-end run per iteration: regenerates the Figure 12
    // hashmap cell and asserts the headline claim (Dolos wins) every time.
    let rc = RunConfig {
        transactions: 32,
        warmup: 8,
        ..RunConfig::default()
    };
    b.run("fig12_hashmap_cell", || {
        let base = run_workload(WorkloadKind::Hashmap, ControllerConfig::baseline(), &rc);
        let dolos = run_workload(
            WorkloadKind::Hashmap,
            ControllerConfig::dolos(MiSuKind::Partial),
            &rc,
        );
        assert!(dolos.speedup_vs(&base) > 1.0, "Dolos must win");
        dolos.cycles
    });

    {
        use dolos_whisper::cpu_cache::CpuCacheHierarchy;
        let mut caches = CpuCacheHierarchy::new();
        let mut i = 0u64;
        b.run("cpu_cache_access", || {
            i = (i + 1) % 4096;
            caches.access(i * 64, i.is_multiple_of(3))
        });
    }

    // The CPU-side image: one u64 store and load per call on a resident
    // 512-line working set, behind the ideal controller.
    {
        let mut env = PmEnv::new(ControllerConfig::ideal());
        let base = env.alloc(512 * 64);
        let mut i = 0u64;
        b.run("pmenv_write_read_u64", || {
            i = (i + 1) % 512;
            env.write_u64(base + i * 64 + 8, i);
            env.read_u64(base + i * 64 + 8)
        });
    }

    // Record a small trace once; measure replay throughput.
    let mut config = ControllerConfig::dolos(MiSuKind::Partial);
    config.region_bytes = 64 << 20;
    let mut env = PmEnv::new(config);
    env.start_recording();
    let mut w = WorkloadKind::Hashmap.build();
    w.setup(&mut env);
    let mut rng = XorShift::new(5);
    for _ in 0..20 {
        w.transaction(&mut env, 512, &mut rng);
    }
    let trace = env.take_trace().expect("recording");
    b.run("trace_replay_20txn", || {
        trace.replay(ControllerConfig::dolos(MiSuKind::Partial))
    });
}
