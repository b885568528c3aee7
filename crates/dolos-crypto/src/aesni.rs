//! AES-NI backend of [`crate::aes::Aes128`] (x86-64 only).
//!
//! The workspace's only `unsafe` code: the crate denies `unsafe_code` and
//! re-allows it here, and dolos-audit's `unsafe-scope` lint rejects the
//! keyword anywhere else. The intrinsics are safe inside the
//! `#[target_feature(enable = "aes")]` functions and take no raw pointers.
//! The one obligation left, that the CPU has AES-NI, is carried by
//! [`AesNi`], a token only [`AesNi::detect`] constructs: every `unsafe`
//! call runs after runtime detection.
//!
//! Blocks cross into the target-feature functions as [`Lanes`], two `u64`s
//! in general registers: as an array, a block's stack round trip stalled
//! store forwarding, costing as much as the cipher.

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
    _mm_unpackhi_epi64, _mm_xor_si128,
};

use crate::aes::{Block, BLOCK_SIZE};

/// A block as its little-endian halves: bytes 0..8 and 8..16.
type Lanes = (u64, u64);

/// The key schedule's round keys, in byte order.
type Keys = [Block; 11];

/// Proof that the running CPU supports AES-NI.
#[derive(Clone, Copy)]
pub(crate) struct AesNi(());

impl AesNi {
    /// Returns the token iff the CPU reports the `aes` feature.
    pub(crate) fn detect() -> Option<Self> {
        std::arch::is_x86_feature_detected!("aes").then_some(AesNi(()))
    }

    #[inline]
    pub(crate) fn encrypt_block(self, rk: &Keys, block: &Block) -> Block {
        // SAFETY: `self` proves AES-NI was detected at runtime.
        unsafe { encrypt_block(rk, block) }
    }

    #[inline]
    pub(crate) fn encrypt_words(self, rk: &Keys, w: [u32; 4]) -> [u32; 4] {
        // SAFETY: `self` proves AES-NI was detected at runtime.
        to_words(unsafe { encrypt(rk, from_words(w)) })
    }

    #[inline]
    pub(crate) fn encrypt_counter4(self, rk: &Keys, base: [u32; 4], first: u32) -> [Block; 4] {
        // SAFETY: `self` proves AES-NI was detected at runtime.
        unsafe { encrypt_counter4(rk, from_words(base), first) }
    }

    #[inline]
    pub(crate) fn cbc_words(self, rk: &Keys, state: [u32; 4], message: &[u8]) -> [u32; 4] {
        // SAFETY: `self` proves AES-NI was detected at runtime.
        to_words(unsafe { cbc(rk, from_words(state), message) })
    }
}

#[inline]
fn from_bytes(b: &Block) -> Lanes {
    let [l0, l1, l2, l3, l4, l5, l6, l7, h0, h1, h2, h3, h4, h5, h6, h7] = *b;
    (
        u64::from_le_bytes([l0, l1, l2, l3, l4, l5, l6, l7]),
        u64::from_le_bytes([h0, h1, h2, h3, h4, h5, h6, h7]),
    )
}

#[inline]
fn to_bytes((lo, hi): Lanes) -> Block {
    let mut out = [0u8; BLOCK_SIZE];
    out[..8].copy_from_slice(&lo.to_le_bytes());
    out[8..].copy_from_slice(&hi.to_le_bytes());
    out
}

/// Word representation (`w[c]` = big-endian bytes `4c..4c+4`) to lanes.
#[inline]
fn from_words(w: [u32; 4]) -> Lanes {
    let pair = |a: u32, b: u32| u64::from(a.swap_bytes()) | u64::from(b.swap_bytes()) << 32;
    (pair(w[0], w[1]), pair(w[2], w[3]))
}

#[inline]
fn to_words((lo, hi): Lanes) -> [u32; 4] {
    [lo, lo >> 32, hi, hi >> 32].map(|h| (h as u32).swap_bytes())
}

#[inline]
#[target_feature(enable = "aes")]
fn load((lo, hi): Lanes) -> __m128i {
    _mm_set_epi64x(hi as i64, lo as i64)
}

#[inline]
#[target_feature(enable = "aes")]
fn store(x: __m128i) -> Lanes {
    let hi = _mm_unpackhi_epi64(x, x);
    (_mm_cvtsi128_si64(x) as u64, _mm_cvtsi128_si64(hi) as u64)
}

/// The ten AES rounds on one block.
#[inline]
#[target_feature(enable = "aes")]
fn rounds(rk: &Keys, x: __m128i) -> __m128i {
    let mut x = _mm_xor_si128(x, load(from_bytes(&rk[0])));
    for k in &rk[1..10] {
        x = _mm_aesenc_si128(x, load(from_bytes(k)));
    }
    _mm_aesenclast_si128(x, load(from_bytes(&rk[10])))
}

/// Four blocks, one round key at a time: the four `aesenc` chains are
/// independent, so they overlap in the pipeline instead of each waiting
/// out the instruction's latency.
#[inline]
#[target_feature(enable = "aes")]
fn rounds4(rk: &Keys, x: [__m128i; 4]) -> [__m128i; 4] {
    let k0 = load(from_bytes(&rk[0]));
    let mut x = x.map(|b| _mm_xor_si128(b, k0));
    for k in &rk[1..10] {
        let k = load(from_bytes(k));
        x = x.map(|b| _mm_aesenc_si128(b, k));
    }
    let k10 = load(from_bytes(&rk[10]));
    x.map(|b| _mm_aesenclast_si128(b, k10))
}

#[target_feature(enable = "aes")]
fn encrypt_block(rk: &Keys, block: &Block) -> Block {
    to_bytes(store(rounds(rk, load(from_bytes(block)))))
}

#[target_feature(enable = "aes")]
fn encrypt(rk: &Keys, block: Lanes) -> Lanes {
    store(rounds(rk, load(block)))
}

/// The blocks `base ^ (first + k)` in word 1 (lane bytes 4..8, big-endian),
/// built in registers and returned as pad bytes.
#[target_feature(enable = "aes")]
fn encrypt_counter4(rk: &Keys, base: Lanes, first: u32) -> [Block; 4] {
    let base = load(base);
    let step = |k: u32| load((u64::from((first + k).swap_bytes()) << 32, 0));
    let blocks = [0, 1, 2, 3].map(|k| _mm_xor_si128(base, step(k)));
    rounds4(rk, blocks).map(|x| to_bytes(store(x)))
}

/// `state = E(state ^ chunk)` per 16-byte chunk, the last one zero-padded;
/// the state stays in a register for the whole chain.
#[target_feature(enable = "aes")]
fn cbc(rk: &Keys, state: Lanes, message: &[u8]) -> Lanes {
    let mut x = load(state);
    let mut chunks = message.chunks_exact(BLOCK_SIZE);
    let mut absorb = |block: &Block| x = rounds(rk, _mm_xor_si128(x, load(from_bytes(block))));
    for chunk in &mut chunks {
        let mut block = [0u8; BLOCK_SIZE];
        block.copy_from_slice(chunk);
        absorb(&block);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut block = [0u8; BLOCK_SIZE];
        block[..tail.len()].copy_from_slice(tail);
        absorb(&block);
    }
    store(x)
}
