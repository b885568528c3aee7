//! Benchmarks of the secure memory controller: simulation throughput of the
//! persist path under each architecture, crash/recovery, and the NVM
//! device's line store underneath.

use dolos_bench::microbench::{bb, Bench};

use dolos_core::{ControllerConfig, MiSuKind, SecureMemorySystem};
use dolos_nvm::{LineAddr, NvmDevice};
use dolos_sim::Cycle;

fn persist_throughput(b: &mut Bench, name: &str, config: ControllerConfig) {
    b.run(name, || {
        let mut sys = SecureMemorySystem::new(config.clone());
        let mut t = Cycle::ZERO;
        for i in 0..64u64 {
            t = sys.persist_write(t, (i % 256) * 64, bb(&[i as u8; 64]));
        }
        sys.quiesce(t)
    });
}

fn main() {
    let mut b = Bench::from_args("controller");

    persist_throughput(&mut b, "persist64_ideal", ControllerConfig::ideal());
    persist_throughput(&mut b, "persist64_baseline", ControllerConfig::baseline());
    persist_throughput(
        &mut b,
        "persist64_dolos_full",
        ControllerConfig::dolos(MiSuKind::Full),
    );
    persist_throughput(
        &mut b,
        "persist64_dolos_partial",
        ControllerConfig::dolos(MiSuKind::Partial),
    );
    persist_throughput(
        &mut b,
        "persist64_dolos_post",
        ControllerConfig::dolos(MiSuKind::Post),
    );

    let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
    let mut t = Cycle::ZERO;
    for i in 0..64u64 {
        t = sys.persist_write(t, i * 64, &[i as u8; 64]);
    }
    let quiet = sys.quiesce(t);
    b.run("read_after_drain", || sys.read(quiet, bb(0x40)));

    // The device store: 4096 resident lines over 64 pages, visited with a
    // stride that changes page on every call.
    let mut nvm = NvmDevice::new();
    for i in 0..4096 {
        nvm.poke(LineAddr::from_index(i), &[i as u8; 64]);
    }
    let mut i = 0u64;
    b.run("nvm_write_line", || {
        i = (i + 97) % 4096;
        nvm.write_line(Cycle::ZERO, LineAddr::from_index(i), bb(&[7; 64]))
    });
    b.run("nvm_peek", || {
        i = (i + 97) % 4096;
        nvm.peek(LineAddr::from_index(bb(i)))
    });

    b.run("crash_and_recover_partial", || {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut t = Cycle::ZERO;
        for i in 0..32u64 {
            t = sys.persist_write(t, i * 64, &[i as u8; 64]);
        }
        sys.crash(t);
        sys.recover().expect("clean recovery")
    });
}
