//! Counter-mode encryption pads with the paper's IV layout.
//!
//! Figure 2 of the paper defines the initialization vector as
//! `Page ID ‖ Page Offset ‖ Counter ‖ Padding`. Encrypting successive IVs
//! (one per 16-byte AES block within the cacheline) produces a one-time pad
//! that is XORed with the plaintext. Because the pad depends only on
//! (address, counter), it can be generated before the data arrives — the
//! property both the Ma-SU decryption-latency hiding and the Mi-SU
//! boot-time pre-generation rely on.

use crate::aes::{Aes128, BLOCK_SIZE};

/// Bytes per 4 KiB page (64 cachelines of 64 B).
const PAGE_SIZE: u64 = 4096;

/// The initialization vector for one cacheline encryption.
///
/// Split-counter schemes form the IV from the page ID, the cacheline's
/// offset within the page, and the (major, minor) encryption counter. The
/// Mi-SU reuses the same layout with a synthetic "address" equal to the WPQ
/// slot index and the persistent counter register as the counter.
///
/// # Examples
///
/// ```
/// use dolos_crypto::ctr::IvBuilder;
///
/// let iv = IvBuilder::new().address(0x1040).counter(3).build();
/// let same = IvBuilder::new().address(0x1040).counter(3).build();
/// let other = IvBuilder::new().address(0x1040).counter(4).build();
/// assert_eq!(iv, same);
/// assert_ne!(iv, other);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Iv {
    page_id: u64,
    page_offset: u16,
    counter: u64,
}

impl Iv {
    /// The page ID field.
    pub fn page_id(&self) -> u64 {
        self.page_id
    }

    /// The page-offset field (cacheline index within the page).
    pub fn page_offset(&self) -> u16 {
        self.page_offset
    }

    /// The counter field.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Serializes the IV into an AES block, with `block_index` occupying the
    /// padding field so each 16-byte slice of a cacheline gets a distinct IV.
    ///
    /// Layout (little-endian fields):
    ///
    /// ```text
    /// byte  0..5   page ID (low 40 bits; 4 KiB pages cover 2^52 B)
    /// byte  5..7   page offset (cacheline index within the page)
    /// byte  7      block index within the cacheline
    /// byte  8..16  counter, all 64 bits
    /// ```
    ///
    /// The counter field carries the full `u64`: a truncated counter would
    /// reuse a pad once the increment stream crosses the truncation
    /// boundary, which is exactly the one-time-pad violation counter-mode
    /// must never permit. The page-ID field is the one deliberately
    /// narrowed — its 40 bits still address 2^52 bytes of 4 KiB pages,
    /// far beyond any configuration the simulator models.
    ///
    /// The specification of [`Self::to_base_words`], which packs the same
    /// fields without the byte round trip.
    #[cfg(test)]
    fn to_block(self, block_index: u8) -> crate::aes::Block {
        let mut block = [0u8; BLOCK_SIZE];
        block[0..5].copy_from_slice(&self.page_id.to_le_bytes()[0..5]);
        block[5..7].copy_from_slice(&self.page_offset.to_le_bytes());
        block[7] = block_index;
        block[8..16].copy_from_slice(&self.counter.to_le_bytes());
        block
    }

    /// [`Self::to_block`] with block index 0 (the low byte of word 1), in
    /// the cipher's word representation, packed field by field: byte writes
    /// read back as words would stall store forwarding on every pad.
    fn to_base_words(self) -> [u32; 4] {
        let [o0, o1] = self.page_offset.to_le_bytes();
        [
            (self.page_id as u32).swap_bytes(),
            u32::from_be_bytes([(self.page_id >> 32) as u8, o0, o1, 0]),
            (self.counter as u32).swap_bytes(),
            ((self.counter >> 32) as u32).swap_bytes(),
        ]
    }
}

/// Builder for [`Iv`] values.
///
/// Either set the fields directly or derive page ID and offset from a byte
/// address with [`IvBuilder::address`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IvBuilder {
    page_id: u64,
    page_offset: u16,
    counter: u64,
}

impl IvBuilder {
    /// Creates a builder with all-zero fields.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives page ID and page offset from a byte address.
    pub fn address(mut self, addr: u64) -> Self {
        self.page_id = addr / PAGE_SIZE;
        self.page_offset = ((addr % PAGE_SIZE) / 64) as u16;
        self
    }

    /// Sets the page ID directly.
    pub fn page_id(mut self, id: u64) -> Self {
        self.page_id = id;
        self
    }

    /// Sets the page offset (cacheline index within the page) directly.
    pub fn page_offset(mut self, offset: u16) -> Self {
        self.page_offset = offset;
        self
    }

    /// Sets the counter field.
    pub fn counter(mut self, counter: u64) -> Self {
        self.counter = counter;
        self
    }

    /// Builds the IV.
    pub fn build(self) -> Iv {
        Iv {
            page_id: self.page_id,
            page_offset: self.page_offset,
            counter: self.counter,
        }
    }
}

/// Bytes per cacheline, the unit every hot-path pad covers.
pub const LINE_SIZE: usize = 64;

/// The largest pad a single IV can produce: the block-index field of the IV
/// is one byte, so indices 0..=255 are the only distinct per-block IVs.
/// Asking for more would wrap the index and *reuse pad material* — a
/// one-time-pad violation, the same bug class as counter truncation.
pub const MAX_PAD_BYTES: usize = 256 * BLOCK_SIZE;

/// Generates a 64-byte cacheline pad for the given IV without allocating.
///
/// This is the hot path: every simulated line encryption, decryption and
/// recovery probe funnels through here, so the pad is built directly in a
/// stack array (4 AES blocks) instead of a `Vec`. Byte-identical to
/// `generate_pad(key, iv, 64)`.
///
/// # Examples
///
/// ```
/// use dolos_crypto::{aes::Aes128, ctr::{generate_pad, pad_line, IvBuilder}};
///
/// let key = Aes128::new(&[1u8; 16]);
/// let iv = IvBuilder::new().address(0x1040).counter(7).build();
/// assert_eq!(pad_line(&key, &iv).to_vec(), generate_pad(&key, &iv, 64));
/// ```
pub fn pad_line(key: &Aes128, iv: &Iv) -> [u8; LINE_SIZE] {
    // The four blocks are independent (distinct block indices), so one
    // interleaved cipher pass covers the line instead of four serial chains.
    let blocks = key.encrypt_counter4(iv.to_base_words(), 0);
    let mut pad = [0u8; LINE_SIZE];
    for (chunk, block) in pad.chunks_exact_mut(BLOCK_SIZE).zip(blocks.iter()) {
        chunk.copy_from_slice(block);
    }
    pad
}

/// Fills `pad` with encryption pad bytes for the given IV.
///
/// The caller supplies the buffer, so steady-state users (e.g. the Mi-SU's
/// pre-generated pad slots) can regenerate in place with zero allocation.
/// `pad` may be any length up to [`MAX_PAD_BYTES`].
///
/// # Panics
///
/// Panics if `pad.len()` exceeds [`MAX_PAD_BYTES`]: the IV's block-index
/// field is a single byte, and silently wrapping it would reuse pad
/// material across 4 KiB boundaries. The check is kept in release builds
/// too (same convention as [`xor_in_place`]): pad reuse is a silent
/// security failure, not a recoverable condition.
pub fn pad_into(key: &Aes128, iv: &Iv, pad: &mut [u8]) {
    assert!(
        pad.len() <= MAX_PAD_BYTES,
        "pad length {} exceeds the {} bytes one IV can generate (block index is u8)",
        pad.len(),
        MAX_PAD_BYTES
    );
    let base = iv.to_base_words();
    // Four independent blocks per interleaved cipher pass (see `pad_line`);
    // a final partial pass keeps the leading bytes it needs. Block indices
    // stay ≤ 255 even there, as `MAX_PAD_BYTES` is a whole number of passes.
    for (pass, quad) in pad.chunks_mut(4 * BLOCK_SIZE).enumerate() {
        let blocks = key.encrypt_counter4(base, 4 * pass as u32);
        for (chunk, block) in quad.chunks_mut(BLOCK_SIZE).zip(blocks.iter()) {
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
    }
}

/// Generates a `len`-byte encryption pad for the given IV.
///
/// `len` is rounded up internally to a multiple of the AES block size but the
/// returned pad is exactly `len` bytes. Prefer [`pad_line`] (stack array) or
/// [`pad_into`] (caller-owned buffer) on hot paths; this convenience wrapper
/// allocates.
///
/// # Panics
///
/// Panics if `len` exceeds [`MAX_PAD_BYTES`]; see [`pad_into`].
///
/// # Examples
///
/// ```
/// use dolos_crypto::{aes::Aes128, ctr::{generate_pad, IvBuilder}};
///
/// let key = Aes128::new(&[1u8; 16]);
/// let iv = IvBuilder::new().address(0).counter(1).build();
/// let pad = generate_pad(&key, &iv, 64);
/// let other = generate_pad(&key, &IvBuilder::new().address(0).counter(2).build(), 64);
/// assert_ne!(pad, other); // counter bump changes the whole pad
/// ```
pub fn generate_pad(key: &Aes128, iv: &Iv, len: usize) -> Vec<u8> {
    let mut pad = vec![0u8; len];
    pad_into(key, iv, &mut pad);
    pad
}

/// XORs `data` in place with `pad`.
///
/// Applying the same pad twice restores the original data, so this single
/// function is both the encryption and the decryption primitive.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_in_place(data: &mut [u8], pad: &[u8]) {
    assert_eq!(data.len(), pad.len(), "pad length mismatch");
    for (d, p) in data.iter_mut().zip(pad.iter()) {
        *d ^= p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Aes128 {
        Aes128::new(&[0xA5; 16])
    }

    #[test]
    fn pad_is_deterministic_for_same_iv() {
        let iv = IvBuilder::new().address(4096).counter(9).build();
        assert_eq!(generate_pad(&key(), &iv, 64), generate_pad(&key(), &iv, 64));
    }

    #[test]
    fn pad_differs_per_block_within_line() {
        let iv = IvBuilder::new().address(0).counter(1).build();
        let pad = generate_pad(&key(), &iv, 64);
        assert_ne!(pad[0..16], pad[16..32]);
    }

    #[test]
    fn address_fields_decompose_correctly() {
        let iv = IvBuilder::new().address(2 * 4096 + 3 * 64).build();
        assert_eq!(iv.page_id(), 2);
        assert_eq!(iv.page_offset(), 3);
    }

    #[test]
    fn spatial_uniqueness_same_counter() {
        let a = generate_pad(&key(), &IvBuilder::new().address(0).counter(5).build(), 64);
        let b = generate_pad(&key(), &IvBuilder::new().address(64).counter(5).build(), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn temporal_uniqueness_same_address() {
        let a = generate_pad(&key(), &IvBuilder::new().address(64).counter(5).build(), 64);
        let b = generate_pad(&key(), &IvBuilder::new().address(64).counter(6).build(), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn xor_round_trips() {
        let iv = IvBuilder::new().address(128).counter(2).build();
        let pad = generate_pad(&key(), &iv, 64);
        let original: Vec<u8> = (0..64u8).collect();
        let mut data = original.clone();
        xor_in_place(&mut data, &pad);
        assert_ne!(data, original);
        xor_in_place(&mut data, &pad);
        assert_eq!(data, original);
    }

    #[test]
    fn odd_length_pads() {
        let iv = IvBuilder::new().counter(1).build();
        assert_eq!(generate_pad(&key(), &iv, 72).len(), 72);
        assert_eq!(generate_pad(&key(), &iv, 1).len(), 1);
        assert_eq!(generate_pad(&key(), &iv, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "pad length")]
    fn xor_length_mismatch_panics() {
        let mut d = [0u8; 4];
        xor_in_place(&mut d, &[0u8; 5]);
    }

    #[test]
    fn base_words_match_the_block_layout() {
        for (page_id, page_offset, counter) in [
            (0u64, 0u16, 0u64),
            (0x12_3456_789A, 0x3F, 0x0102_0304_0506_0708),
            (u64::MAX, u16::MAX, u64::MAX),
        ] {
            let iv = IvBuilder::new()
                .page_id(page_id)
                .page_offset(page_offset)
                .counter(counter)
                .build();
            assert_eq!(
                iv.to_base_words(),
                crate::aes::words_from_bytes(&iv.to_block(0))
            );
        }
    }

    #[test]
    fn pad_line_matches_generate_pad() {
        let iv = IvBuilder::new()
            .address(3 * 4096 + 7 * 64)
            .counter(42)
            .build();
        assert_eq!(
            pad_line(&key(), &iv).to_vec(),
            generate_pad(&key(), &iv, 64)
        );
    }

    #[test]
    fn pad_into_matches_generate_pad_including_partial_tail() {
        let iv = IvBuilder::new().address(4096).counter(11).build();
        for len in [0, 1, 15, 16, 17, 63, 64, 72, 4096] {
            let mut buf = vec![0xEE; len];
            pad_into(&key(), &iv, &mut buf);
            assert_eq!(buf, generate_pad(&key(), &iv, len), "len {len}");
        }
    }

    #[test]
    fn max_pad_is_exactly_one_page() {
        // 256 blocks of 16 bytes = one 4 KiB page; the last block uses
        // index 255 and no wraparound occurs.
        let iv = IvBuilder::new().counter(1).build();
        let pad = generate_pad(&key(), &iv, MAX_PAD_BYTES);
        assert_eq!(pad.len(), MAX_PAD_BYTES);
        // The final block differs from the first: distinct block indices.
        assert_ne!(pad[..16], pad[MAX_PAD_BYTES - 16..]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn pad_beyond_block_index_range_panics() {
        let iv = IvBuilder::new().counter(1).build();
        let _ = generate_pad(&key(), &iv, MAX_PAD_BYTES + 1);
    }
}
