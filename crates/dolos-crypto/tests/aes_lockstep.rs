//! Lockstep differential pins across the three AES implementations —
//! hardware (AES-NI), portable (T-table) and the byte-oriented reference —
//! and across the pad and MAC paths built on them.
//!
//! Every simulated pad byte, MAC tag and tree node flows through
//! [`Aes128`]; any divergence between backends would silently change
//! ciphertexts, MACs and therefore recovery/conformance behaviour depending
//! on the CPU the simulator runs on. These tests are the contract that lets
//! the rest of the workspace treat the cipher as *the* FIPS-197 function
//! whichever backend [`Aes128::new`] picks.
//!
//! On a CPU without AES-NI there is no hardware backend to pin: the
//! hardware cases then say so on stderr and check the fallback instead
//! (that [`Aes128::new`] chose the portable path), so they never pass
//! without checking something.

use dolos_crypto::aes::{bytes_from_words, words_from_bytes, Aes128, Block};
use dolos_crypto::ctr::{generate_pad, pad_into, pad_line, Iv, IvBuilder, MAX_PAD_BYTES};
use dolos_crypto::mac::{Mac64, MacEngine};
use dolos_sim::rng::XorShift;

fn random_bytes16(rng: &mut XorShift) -> [u8; 16] {
    let mut b = [0u8; 16];
    for chunk in b.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    b
}

/// Whether this CPU has AES-NI, detected independently of the crate.
fn cpu_has_aesni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The backends available for `key`: always the portable one, plus the
/// hardware one when the CPU has it (announced on stderr when it does not).
fn backends(key: &[u8; 16]) -> Vec<(&'static str, Aes128)> {
    let portable = Aes128::new_portable(key);
    assert!(!portable.is_hardware());
    let dispatched = Aes128::new(key);
    assert_eq!(dispatched.is_hardware(), cpu_has_aesni(), "dispatch rule");
    if dispatched.is_hardware() {
        vec![("hardware", dispatched), ("portable", portable)]
    } else {
        eprintln!("note: no AES-NI on this CPU; only the portable backend is pinned here");
        vec![("portable", portable)]
    }
}

const FIPS_B_KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];
const FIPS_B_PT: Block = [
    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
];
const FIPS_B_CT: Block = [
    0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32,
];
const FIPS_C1_CT: Block = [
    0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a,
];

/// Checks one known-answer vector on every backend and the reference,
/// through both the byte and the word entry points.
fn check_kat(key: &[u8; 16], pt: &Block, ct: &Block) {
    for (name, aes) in backends(key) {
        assert_eq!(aes.encrypt_block(pt), *ct, "{name} encrypt_block");
        let words = aes.encrypt_words(words_from_bytes(pt));
        assert_eq!(bytes_from_words(&words), *ct, "{name} encrypt_words");
        assert_eq!(aes.encrypt_block_reference(pt), *ct, "{name} reference");
    }
}

/// FIPS-197 Appendix B on every backend.
#[test]
fn fips197_appendix_b_on_every_backend() {
    check_kat(&FIPS_B_KEY, &FIPS_B_PT, &FIPS_B_CT);
}

/// FIPS-197 Appendix C.1 on every backend.
#[test]
fn fips197_appendix_c1_on_every_backend() {
    let key: [u8; 16] = core::array::from_fn(|i| i as u8);
    let pt: Block = core::array::from_fn(|i| (i as u8) * 0x11);
    check_kat(&key, &pt, &FIPS_C1_CT);
}

/// The hardware backend is present exactly when the CPU has AES-NI, and
/// agrees with the portable one on the FIPS-197 vector; without AES-NI
/// this checks that dispatch fell back to the portable path.
#[test]
fn hardware_backend_follows_the_cpu() {
    let dispatched = Aes128::new(&FIPS_B_KEY);
    if cpu_has_aesni() {
        assert!(dispatched.is_hardware(), "AES-NI present but not used");
        assert_eq!(dispatched.encrypt_block(&FIPS_B_PT), FIPS_B_CT);
    } else {
        eprintln!("note: no AES-NI on this CPU; checked the portable fallback instead");
        assert!(!dispatched.is_hardware());
    }
}

/// Keys compare by schedule only: the backend is not part of a key.
#[test]
fn key_equality_ignores_the_backend() {
    assert_eq!(Aes128::new(&FIPS_B_KEY), Aes128::new_portable(&FIPS_B_KEY));
    assert_ne!(Aes128::new(&FIPS_B_KEY), Aes128::new_portable(&[0; 16]));
}

/// Seeded random keys × random blocks: every backend == reference, bit
/// for bit. The four-block interleave is pinned by the pad tests below.
#[test]
fn backends_match_reference_on_random_keys_and_blocks() {
    let mut rng = XorShift::new(0x00d0_105a_e5f0_0d5e);
    for _ in 0..64 {
        let kb = random_bytes16(&mut rng);
        let blocks: Vec<Block> = (0..256).map(|_| random_bytes16(&mut rng)).collect();
        let reference = Aes128::new_portable(&kb);
        let expected: Vec<Block> = blocks
            .iter()
            .map(|b| reference.encrypt_block_reference(b))
            .collect();
        for (name, aes) in backends(&kb) {
            for (pt, ct) in blocks.iter().zip(&expected) {
                assert_eq!(aes.encrypt_block(pt), *ct, "{name} block");
            }
        }
    }
}

/// The IV block for `block_index`, rebuilt from the documented layout
/// (page ID low 40 bits LE ‖ page offset LE ‖ block index ‖ counter LE).
fn iv_block(iv: &Iv, block_index: u8) -> Block {
    let mut block = [0u8; 16];
    block[0..5].copy_from_slice(&iv.page_id().to_le_bytes()[0..5]);
    block[5..7].copy_from_slice(&iv.page_offset().to_le_bytes());
    block[7] = block_index;
    block[8..16].copy_from_slice(&iv.counter().to_le_bytes());
    block
}

/// A `len`-byte pad built with the reference cipher from the IV layout.
fn reference_pad(key: &Aes128, iv: &Iv, len: usize) -> Vec<u8> {
    (0..len.div_ceil(16))
        .flat_map(|i| key.encrypt_block_reference(&iv_block(iv, i as u8)))
        .take(len)
        .collect()
}

/// `pad_line` on every backend equals the reference pad across an address
/// × counter sweep covering page boundaries and counter bit edges.
#[test]
fn pad_line_matches_reference_on_every_backend() {
    let addresses = [0u64, 64, 4032, 4096, 4160, 1 << 20, (1 << 40) - 64];
    let counters = [0u64, 1, 255, 256, 65535, 1 << 32, u64::MAX];
    for (name, key) in backends(&[0x5a; 16]) {
        for &addr in &addresses {
            for &ctr in &counters {
                let iv = IvBuilder::new().address(addr).counter(ctr).build();
                assert_eq!(
                    pad_line(&key, &iv).to_vec(),
                    reference_pad(&key, &iv, 64),
                    "{name} addr {addr:#x} counter {ctr:#x}"
                );
            }
        }
    }
}

/// `pad_into` on every backend equals the reference pad for every length
/// class, including partial tail blocks and the 256-block maximum.
#[test]
fn pad_into_matches_reference_across_lengths_on_every_backend() {
    let iv = IvBuilder::new().address(8192).counter(99).build();
    for (name, key) in backends(&[0x33; 16]) {
        for len in [
            0usize,
            1,
            15,
            16,
            17,
            63,
            64,
            65,
            79,
            100,
            512,
            MAX_PAD_BYTES,
        ] {
            let mut buf = vec![0xAB; len];
            pad_into(&key, &iv, &mut buf);
            assert_eq!(buf, reference_pad(&key, &iv, len), "{name} len {len}");
            assert_eq!(
                generate_pad(&key, &iv, len),
                buf,
                "{name} generate len {len}"
            );
        }
    }
}

/// A maximum-length pad never repeats a 16-byte block: all 256 block
/// indices produce distinct pad material (a wrapped block index would make
/// blocks 256+ collide with blocks 0+; the guard caps the pad at exactly
/// the collision-free range).
#[test]
fn max_length_pad_blocks_are_pairwise_distinct() {
    let key = Aes128::new(&[0x77; 16]);
    let iv = IvBuilder::new().address(0x2040).counter(5).build();
    let pad = generate_pad(&key, &iv, MAX_PAD_BYTES);
    let mut blocks: Vec<&[u8]> = pad.chunks_exact(16).collect();
    assert_eq!(blocks.len(), 256);
    blocks.sort();
    blocks.dedup();
    assert_eq!(blocks.len(), 256, "pad material repeated within one IV");
}

/// CBC-MAC specification over the reference cipher: encrypt the first
/// length block, then XOR-encrypt each part's own length block (when
/// `part_lengths`) followed by its 16-byte chunks.
fn reference_cbc(key: &Aes128, first_len: u64, parts: &[&[u8]], part_lengths: bool) -> Mac64 {
    let mut state = [0u8; 16];
    state[0..8].copy_from_slice(&first_len.to_le_bytes());
    state = key.encrypt_block_reference(&state);
    for part in parts {
        if part_lengths {
            for (s, l) in state.iter_mut().zip((part.len() as u64).to_le_bytes()) {
                *s ^= l;
            }
            state = key.encrypt_block_reference(&state);
        }
        for chunk in part.chunks(16) {
            for (s, c) in state.iter_mut().zip(chunk) {
                *s ^= c;
            }
            state = key.encrypt_block_reference(&state);
        }
    }
    let mut tag = [0u8; 8];
    tag.copy_from_slice(&state[0..8]);
    tag
}

/// The MAC engines to pin: one per backend, from the same key.
fn mac_engines(key: &[u8; 16]) -> Vec<(&'static str, MacEngine)> {
    backends(key)
        .into_iter()
        .map(|(name, aes)| (name, MacEngine::from_cipher(aes)))
        .collect()
}

/// `tag` and `stream_tag` on every backend equal the reference CBC-MAC,
/// across lengths on both sides of the cached-prefix boundary and every
/// feed granularity.
#[test]
fn mac_tag_and_stream_tag_match_reference_on_every_backend() {
    let kb = [0x42; 16];
    let reference = Aes128::new_portable(&kb);
    for (name, mac) in mac_engines(&kb) {
        for len in [0usize, 1, 7, 8, 15, 16, 17, 63, 64, 65, 72, 128, 200] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let expected = reference_cbc(&reference, len as u64, &[&msg], false);
            assert_eq!(mac.tag(&msg), expected, "{name} tag len {len}");
            for split in [1usize, 5, 16, 17, 64] {
                let mut s = mac.stream_tag(len as u64);
                for chunk in msg.chunks(split) {
                    s.update(chunk);
                }
                s.end_part();
                assert_eq!(
                    s.finish(),
                    expected,
                    "{name} stream_tag len {len} split {split}"
                );
            }
        }
    }
}

/// `tag_parts` and `streamer` on every backend equal the reference
/// part-list CBC-MAC, with scattered sub-slice feeds.
#[test]
fn mac_parts_and_streamer_match_reference_on_every_backend() {
    let kb = [0x19; 16];
    let reference = Aes128::new_portable(&kb);
    let data: Vec<u8> = (0..=100u8).collect();
    let cases: [&[&[u8]]; 5] = [
        &[],
        &[b""],
        &[&data[..8]; 8],
        &[&data[..3], &data[..16], &data[..33]],
        &[&data, b"tail", &data[..64]],
    ];
    for (name, mac) in mac_engines(&kb) {
        for parts in cases {
            let expected = reference_cbc(&reference, parts.len() as u64, parts, true);
            assert_eq!(mac.tag_parts(parts), expected, "{name} tag_parts {parts:?}");
            for split in [1usize, 3, 16, 40] {
                let mut s = mac.streamer(parts.len());
                for part in parts {
                    s.begin_part(part.len() as u64);
                    for chunk in part.chunks(split) {
                        s.update(chunk);
                    }
                    s.end_part();
                }
                assert_eq!(s.finish(), expected, "{name} streamer split {split}");
            }
        }
    }
}
