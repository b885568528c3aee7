//! Randomized property tests over the core invariants: crypto round-trips,
//! counter-block serialization (and its lockstep with the bit-serial
//! original), multi-part MACs against the per-part reference chain,
//! WPQ-vs-model equivalence, and randomized crash-point durability.
//!
//! Driven by the workspace's own deterministic [`XorShift`] generator (fixed
//! seeds, no external crates) so every failure reproduces bit-for-bit.

use dolos::core::{ControllerConfig, MiSuKind, SecureMemorySystem};
use dolos::crypto::aes::Aes128;
use dolos::crypto::ctr::{generate_pad, xor_in_place, IvBuilder};
use dolos::crypto::mac::MacEngine;
use dolos::nvm::wpq::{InsertOutcome, WriteQueue};
use dolos::nvm::LineAddr;
use dolos::secmem::counters::CounterBlock;
use dolos::sim::rng::XorShift;
use dolos::sim::Cycle;

fn random_bytes<const N: usize>(rng: &mut XorShift) -> [u8; N] {
    let mut out = [0u8; N];
    for b in out.iter_mut() {
        *b = rng.next_below(256) as u8;
    }
    out
}

#[test]
fn ctr_encryption_round_trips() {
    let mut rng = XorShift::new(0xC7_01);
    for _ in 0..64 {
        let key: [u8; 16] = random_bytes(&mut rng);
        let addr = rng.next_below(1 << 30) & !63;
        let counter = rng.next_u64();
        let data: [u8; 32] = random_bytes(&mut rng);

        let aes = Aes128::new(&key);
        let iv = IvBuilder::new().address(addr).counter(counter).build();
        let pad = generate_pad(&aes, &iv, 32);
        let mut buf = data;
        xor_in_place(&mut buf, &pad);
        xor_in_place(&mut buf, &pad);
        assert_eq!(buf, data);
    }
}

/// Both AES backends (AES-NI when the CPU has it, and the portable
/// T-table path) against the byte-oriented reference: the FIPS-197
/// Appendix B and C.1 vectors, then seeded random keys and blocks.
#[test]
fn aes_backends_match_reference_and_fips197() {
    let kat_b = (
        [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ],
        [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ],
        [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ],
    );
    let kat_c1 = (
        core::array::from_fn(|i| i as u8),
        core::array::from_fn(|i| i as u8 * 0x11),
        [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ],
    );
    #[cfg(target_arch = "x86_64")]
    let cpu_aes = std::arch::is_x86_feature_detected!("aes");
    #[cfg(not(target_arch = "x86_64"))]
    let cpu_aes = false;
    if !cpu_aes {
        eprintln!("note: no AES-NI on this CPU; the hardware backend is not exercised");
    }
    let check = |key: &[u8; 16], pt: &[u8; 16], ct: &[u8; 16]| {
        let dispatched = Aes128::new(key);
        assert_eq!(dispatched.is_hardware(), cpu_aes, "dispatch rule");
        let portable = Aes128::new_portable(key);
        assert_eq!(dispatched.encrypt_block(pt), *ct, "dispatched backend");
        assert_eq!(portable.encrypt_block(pt), *ct, "portable backend");
        assert_eq!(portable.encrypt_block_reference(pt), *ct, "reference");
    };
    for (key, pt, ct) in [kat_b, kat_c1] {
        check(&key, &pt, &ct);
    }
    let mut rng = XorShift::new(0xAE5_0A11);
    for _ in 0..16 {
        let key: [u8; 16] = random_bytes(&mut rng);
        let reference = Aes128::new_portable(&key);
        for _ in 0..32 {
            let pt: [u8; 16] = random_bytes(&mut rng);
            check(&key, &pt, &reference.encrypt_block_reference(&pt));
        }
    }
}

#[test]
fn mac_detects_any_single_bit_flip() {
    let mut rng = XorShift::new(0x3A_C0);
    for _ in 0..64 {
        let key: [u8; 16] = random_bytes(&mut rng);
        let len = 1 + rng.next_below(127) as usize;
        let mut data = vec![0u8; len];
        for b in data.iter_mut() {
            *b = rng.next_below(256) as u8;
        }
        let bit = rng.next_below(u16::MAX as u64 + 1) as u16;

        let mac = MacEngine::new(key);
        let tag = mac.tag(&data);
        let mut tampered = data.clone();
        let pos = (bit as usize / 8) % tampered.len();
        tampered[pos] ^= 1 << (bit % 8);
        assert!(!mac.verify(&tampered, &tag));
        assert!(mac.verify(&data, &tag));
    }
}

#[test]
fn counter_block_serialization_round_trips() {
    let mut rng = XorShift::new(0x5E_11A);
    for _ in 0..64 {
        let mut block = CounterBlock::new();
        let increments = rng.next_below(40) as usize;
        for _ in 0..increments {
            let line = rng.next_below(64) as usize;
            let n = 1 + rng.next_below(199) as u16;
            for _ in 0..n {
                block.increment(line);
            }
        }
        let line = block.to_line();
        assert_eq!(CounterBlock::from_line(&line), block);
    }
}

#[test]
fn counter_values_never_repeat() {
    let mut rng = XorShift::new(0xF00D);
    for _ in 0..64 {
        let mut block = CounterBlock::new();
        let mut seen = std::collections::HashSet::new();
        let ops = 1 + rng.next_below(299) as usize;
        for _ in 0..ops {
            let line = rng.next_below(8) as usize;
            let packed = block.increment(line).counter().packed();
            // Uniqueness per line: (line, packed) pairs never recur.
            assert!(seen.insert((line, packed)), "counter reuse on line {line}");
        }
    }
}

/// The original bit-serial counter-block serializer: minor `i` at bit `7i`
/// of the 56-byte field after the 8-byte little-endian major.
fn reference_counter_line(major: u64, minors: &[u8; 64]) -> [u8; 64] {
    let mut out = [0u8; 64];
    out[0..8].copy_from_slice(&major.to_le_bytes());
    let mut bit = 0usize;
    for &m in minors {
        let byte = bit / 8;
        let off = bit % 8;
        let v = u16::from(m & 0x7F) << off;
        out[8 + byte] |= (v & 0xFF) as u8;
        if off > 1 {
            out[8 + byte + 1] |= (v >> 8) as u8;
        }
        bit += 7;
    }
    out
}

/// The original bit-serial deserializer, the inverse of
/// [`reference_counter_line`].
fn reference_counter_fields(line: &[u8; 64]) -> (u64, [u8; 64]) {
    let mut major = [0u8; 8];
    major.copy_from_slice(&line[0..8]);
    let mut minors = [0u8; 64];
    let mut bit = 0usize;
    for m in &mut minors {
        let byte = bit / 8;
        let off = bit % 8;
        let lo = u16::from(line[8 + byte]) >> off;
        let hi = if off > 1 && 8 + byte + 1 < 64 {
            u16::from(line[8 + byte + 1]) << (8 - off)
        } else {
            0
        };
        *m = ((lo | hi) & 0x7F) as u8;
        bit += 7;
    }
    (u64::from_le_bytes(major), minors)
}

/// The block's fields through its public accessors.
fn counter_fields(block: &CounterBlock) -> (u64, [u8; 64]) {
    let mut minors = [0u8; 64];
    for (i, m) in minors.iter_mut().enumerate() {
        *m = block.line_counter(i).minor;
    }
    (block.major(), minors)
}

/// The word-packed counter codec writes and reads exactly the bits of the
/// bit-serial original: on seeded random lines (every bit pattern is a
/// valid block) and on blocks driven through increments and minor
/// overflows.
#[test]
fn counter_codec_matches_bitwise_reference() {
    let mut rng = XorShift::new(0xC0DEC);
    for _ in 0..512 {
        let line: [u8; 64] = random_bytes(&mut rng);
        let block = CounterBlock::from_line(&line);
        assert_eq!(counter_fields(&block), reference_counter_fields(&line));
        assert_eq!(block.to_line(), line);
    }
    for round in 0..32 {
        let mut block = CounterBlock::new();
        // A few hot lines overflow their minors repeatedly; the rest stay
        // at arbitrary values.
        let hot = 1 + rng.next_below(3);
        for step in 0..1200 {
            let line = if rng.chance(0.8) {
                rng.next_below(hot)
            } else {
                rng.next_below(64)
            } as usize;
            block.increment(line);
            let (major, minors) = counter_fields(&block);
            let expected = reference_counter_line(major, &minors);
            let line = block.to_line();
            assert_eq!(line, expected, "round {round} step {step}");
            assert_eq!(CounterBlock::from_line(&line), block);
        }
        assert!(block.major() > 0, "round {round} never overflowed");
    }
}

/// The per-part CBC-MAC specification over the byte-oriented reference
/// cipher: the part-count block, then for each part its length block
/// `[len_le ‖ 0⁸]` and its 16-byte chunks (the last one zero-padded), one
/// cipher call per block.
fn reference_tag_parts(aes: &Aes128, parts: &[&[u8]]) -> [u8; 8] {
    let length_block = |n: usize| {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&(n as u64).to_le_bytes());
        block
    };
    let mut state = aes.encrypt_block_reference(&length_block(parts.len()));
    let mut absorb = |chunk: &[u8]| {
        for (s, c) in state.iter_mut().zip(chunk) {
            *s ^= c;
        }
        state = aes.encrypt_block_reference(&state);
    };
    for part in parts {
        absorb(&length_block(part.len()));
        part.chunks(16).for_each(&mut absorb);
    }
    let mut tag = [0u8; 8];
    tag.copy_from_slice(&state[..8]);
    tag
}

/// `tag_parts` and the `CbcMac` streamer (whole parts and scattered
/// feeds), which buffer several parts per cipher call, equal the per-part
/// reference chain on both AES backends.
#[test]
fn tag_parts_matches_per_part_reference() {
    let mut rng = XorShift::new(0x7A65);
    let data: Vec<u8> = (0..1000).map(|_| rng.next_below(256) as u8).collect();
    let mut cases: Vec<Vec<&[u8]>> = vec![
        vec![],
        vec![b""],
        vec![b"", b"", b""],
        // The `bmt::data_mac` shape: address, counter, ciphertext line.
        vec![&data[..8], &data[8..16], &data[16..80]],
        // An 8-child BMT parent: eight 8-byte child MACs.
        vec![&data[..8]; 8],
        // Parts longer than the absorb buffer, alone and between others.
        vec![&data[..300]],
        vec![&data[..5], &data[..1000], b"", &data[..17]],
    ];
    for _ in 0..64 {
        let count = rng.next_below(12) as usize;
        cases.push(
            (0..count)
                .map(|_| {
                    let start = rng.next_below(500) as usize;
                    &data[start..start + rng.next_below(90) as usize]
                })
                .collect(),
        );
    }
    for _ in 0..8 {
        let key: [u8; 16] = random_bytes(&mut rng);
        let reference = Aes128::new_portable(&key);
        for mac in [
            MacEngine::new(key),
            MacEngine::from_cipher(Aes128::new_portable(&key)),
        ] {
            for parts in &cases {
                let expected = reference_tag_parts(&reference, parts);
                assert_eq!(mac.tag_parts(parts), expected, "tag_parts {parts:?}");
                let mut whole = mac.streamer(parts.len());
                let mut scattered = mac.streamer(parts.len());
                let split = 1 + rng.next_below(40) as usize;
                for part in parts {
                    whole.part(part);
                    scattered.begin_part(part.len() as u64);
                    for chunk in part.chunks(split) {
                        scattered.update(chunk);
                    }
                    scattered.end_part();
                }
                assert_eq!(whole.finish(), expected, "streamer {parts:?}");
                assert_eq!(scattered.finish(), expected, "split {split} {parts:?}");
            }
        }
    }
}

#[test]
fn wpq_matches_fifo_model() {
    // Reference model: ordered map addr -> freshest value plus FIFO of
    // pending (addr, value) respecting coalescing on live entries.
    let mut rng = XorShift::new(0x0F1F0);
    for _ in 0..64 {
        let mut wpq = WriteQueue::new(4);
        let mut model: Vec<(u64, u8)> = Vec::new(); // live entries in order
        let ops = 1 + rng.next_below(119) as usize;
        for _ in 0..ops {
            let addr_idx = rng.next_below(12);
            let value = rng.next_below(256) as u8;
            if rng.chance(0.5) {
                if let Some(e) = wpq.fetch_oldest() {
                    wpq.clear(e.slot);
                    let pos = model
                        .iter()
                        .position(|&(a, _)| a == e.addr.line_index())
                        .expect("model has the entry");
                    let (_, v) = model.remove(pos);
                    assert_eq!(e.payload[0], v, "drain order/value mismatch");
                }
                continue;
            }
            let addr = LineAddr::from_index(addr_idx);
            let mut payload = [0u8; 64];
            payload[0] = value;
            match wpq.try_insert(addr, payload, None) {
                InsertOutcome::Inserted { .. } => model.push((addr_idx, value)),
                InsertOutcome::Coalesced { .. } => {
                    let entry = model
                        .iter_mut()
                        .find(|(a, _)| *a == addr_idx)
                        .expect("coalesce implies live entry");
                    entry.1 = value;
                }
                InsertOutcome::Full => {
                    assert_eq!(model.len(), 4, "Full only when model is full");
                }
            }
            // Tag array always returns the freshest value.
            if let Some(&(_, v)) = model.iter().rev().find(|(a, _)| *a == addr_idx) {
                assert_eq!(wpq.lookup(addr).expect("tag hit").payload[0], v);
            }
        }
        assert_eq!(wpq.len(), model.len());
    }
}

#[test]
fn fenced_writes_survive_crash_at_any_point() {
    let mut rng = XorShift::new(0xCAFE);
    for _ in 0..64 {
        let misu = MiSuKind::ALL[rng.next_below(3) as usize];
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(misu));
        let count = 1 + rng.next_below(39) as usize;
        let writes: Vec<(u64, u8)> = (0..count)
            .map(|_| (rng.next_below(32), rng.next_below(256) as u8))
            .collect();
        let crash_point = rng.next_below(count as u64) as usize;
        let mut t = Cycle::ZERO;
        let mut committed: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for (i, &(line, value)) in writes.iter().enumerate() {
            if i == crash_point {
                break;
            }
            t = sys.persist_write(t, line * 64, &[value; 64]);
            committed.insert(line, value);
        }
        sys.crash(t);
        sys.recover().expect("clean recovery");
        for (&line, &value) in &committed {
            let (_, data) = sys.read(Cycle::ZERO, line * 64);
            assert_eq!(data, [value; 64], "{misu} line {line} lost");
        }
    }
}

#[test]
fn reads_always_return_last_write() {
    let mut rng = XorShift::new(0x9EAD);
    for _ in 0..64 {
        let mut sys = SecureMemorySystem::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut t = Cycle::ZERO;
        let mut shadow: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        let ops = 1 + rng.next_below(59) as usize;
        for _ in 0..ops {
            let line = rng.next_below(16);
            let value = rng.next_below(256) as u8;
            t = sys.persist_write(t, line * 64, &[value; 64]);
            shadow.insert(line, value);
            let (t2, data) = sys.read(t, line * 64);
            t = t2;
            assert_eq!(data, [value; 64]);
        }
        for (&line, &value) in &shadow {
            let (t2, data) = sys.read(t, line * 64);
            t = t2;
            assert_eq!(data, [value; 64]);
        }
    }
}

/// Any workload, crashed after a random number of transactions, recovers
/// with every committed transaction intact.
#[test]
fn workloads_are_crash_consistent_at_random_points() {
    use dolos::whisper::workloads::WorkloadKind;
    use dolos::whisper::PmEnv;

    let mut rng = XorShift::new(0x000D_0105);
    for case in 0..12 {
        let kind = WorkloadKind::EXTENDED[case % WorkloadKind::EXTENDED.len()];
        let txns = 1 + rng.next_below(9) as usize;
        let seed = rng.next_u64();

        let mut env = PmEnv::new(ControllerConfig::dolos(MiSuKind::Partial));
        let mut workload = kind.build();
        workload.setup(&mut env);
        let mut wrng = XorShift::new(seed);
        for _ in 0..txns {
            workload.transaction(&mut env, 256, &mut wrng);
        }
        env.crash();
        env.recover().expect("clean recovery");
        workload.verify(&mut env);
    }
}

/// Recovery is a pure function of the crash state: two independently
/// constructed systems fed the identical write history produce identical
/// recovery reports and identical full statistics.
///
/// The two systems are built independently (not cloned) on purpose: every
/// internal `HashMap` then gets its own hasher seed, so any code path that
/// still iterates a hash map during recovery or audit — the bug class this
/// test pins — diverges between the two runs. The Ma-SU's metadata tables
/// are sorted structures and recovery replays the Anubis working set in
/// ascending page order precisely so this comparison holds.
#[test]
fn recovery_is_deterministic_across_independent_systems() {
    use dolos::core::UpdateScheme;

    for scheme in [UpdateScheme::EagerMerkle, UpdateScheme::LazyToc] {
        for misu in MiSuKind::ALL {
            let run = || {
                let config = ControllerConfig::dolos(misu).with_scheme(scheme);
                let mut sys = SecureMemorySystem::new(config);
                let mut rng = XorShift::new(0xDE7E_0401);
                let mut t = Cycle::ZERO;
                // Touch enough distinct pages to exercise counter-cache
                // evictions, shadow tracking, and Osiris-stale counters.
                for _ in 0..96 {
                    let line = rng.next_below(192);
                    let value = rng.next_below(256) as u8;
                    t = sys.persist_write(t, line * 64, &[value; 64]);
                }
                sys.crash(t);
                let report = sys.recover().expect("clean recovery");
                (report, sys.stats())
            };
            let (report_a, stats_a) = run();
            let (report_b, stats_b) = run();
            assert_eq!(report_a, report_b, "{misu}/{scheme:?} recovery diverged");
            assert_eq!(
                stats_a, stats_b,
                "{misu}/{scheme:?} post-recovery stats diverged"
            );
        }
    }
}

/// Traces replay to the exact cycle count of the live run for random
/// workloads and seeds.
#[test]
fn trace_replay_is_cycle_exact() {
    use dolos::whisper::workloads::WorkloadKind;
    use dolos::whisper::PmEnv;

    let mut rng = XorShift::new(0x7A_CE);
    for case in 0..6 {
        let kind = WorkloadKind::ALL[case % WorkloadKind::ALL.len()];
        let seed = rng.next_u64();

        let mut config = ControllerConfig::dolos(MiSuKind::Partial);
        config.region_bytes = 64 << 20;
        let mut env = PmEnv::new(config);
        env.start_recording();
        let mut workload = kind.build();
        workload.setup(&mut env);
        let mut wrng = XorShift::new(seed);
        for _ in 0..6 {
            workload.transaction(&mut env, 512, &mut wrng);
        }
        let live = env.now().as_u64();
        let trace = env.take_trace().expect("recording");
        let replayed = trace.replay(ControllerConfig::dolos(MiSuKind::Partial));
        assert_eq!(replayed.cycles, live);
    }
}
