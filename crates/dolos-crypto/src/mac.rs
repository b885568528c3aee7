//! Message authentication codes (AES-CBC-MAC, 64-bit tags).
//!
//! The paper associates an 8-byte MAC with each protected unit (WPQ entry,
//! BMT node, data line). We implement a length-prefixed AES-CBC-MAC and
//! truncate to 64 bits. Length prefixing closes the classic CBC-MAC
//! length-extension weakness for variable-length messages; all MACed objects
//! in this workspace additionally have fixed formats per call site.

use crate::aes::{Aes128, BLOCK_SIZE};

/// A 64-bit truncated MAC tag.
pub type Mac64 = [u8; 8];

/// The CBC state in the cipher's word representation (see
/// [`crate::aes::words_from_bytes`]). Chaining in this domain skips the
/// byte↔word packing on every cipher call; the packing is a bijection, so
/// tags stay byte-identical to the byte-domain formulation.
type StateWords = [u32; 4];

/// The length-prefix block (`n` little-endian in bytes 0..8, zeros after) in
/// the word representation.
#[inline]
fn len_words(n: u64) -> StateWords {
    let le = n.to_le_bytes();
    [
        u32::from_be_bytes([le[0], le[1], le[2], le[3]]),
        u32::from_be_bytes([le[4], le[5], le[6], le[7]]),
        0,
        0,
    ]
}

/// Truncates the final state to the 64-bit tag (state bytes 0..8).
#[inline]
fn truncate_tag(state: &StateWords) -> Mac64 {
    let mut tag = [0u8; 8];
    tag[0..4].copy_from_slice(&state[0].to_be_bytes());
    tag[4..8].copy_from_slice(&state[1].to_be_bytes());
    tag
}

/// A keyed MAC engine.
///
/// # Examples
///
/// ```
/// use dolos_crypto::mac::MacEngine;
///
/// let mac = MacEngine::new([0x42; 16]);
/// let tag = mac.tag(b"persist me");
/// assert!(mac.verify(b"persist me", &tag));
/// assert!(!mac.verify(b"persist mE", &tag));
/// ```
#[derive(Clone)]
pub struct MacEngine {
    key: Aes128,
    /// `enc_K(len_block(n))` for `n < INIT_CACHE`: the first cipher block of
    /// every tag depends only on the message length (or part count), and the
    /// hot call sites use a handful of small constants (64-byte lines,
    /// 8-child BMT nodes, 3-part data MACs). Caching the encrypted prefix
    /// saves one serial AES call per MAC — 20% of a line tag's cipher work.
    init: [StateWords; INIT_CACHE],
}

/// Cached initial states cover lengths/part counts `0..=64`: every
/// fixed-format MAC in the workspace (line tags, BMT parents, WPQ entries)
/// lands in this range, and larger values fall back to computing the prefix.
const INIT_CACHE: usize = 65;

/// [`MacEngine`] holds values derived from the key (the cached initial
/// states are themselves valid tags of empty part lists), so its `Debug` is
/// redacted down to the cipher's — same rationale as [`Aes128`]'s manual
/// implementation.
impl core::fmt::Debug for MacEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MacEngine")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

impl MacEngine {
    /// Creates an engine from a 16-byte key.
    pub fn new(key: [u8; 16]) -> Self {
        Self::from_cipher(Aes128::new(&key))
    }

    /// Creates an engine over an already expanded key, keeping its AES
    /// backend (e.g. a [`Aes128::new_portable`] key for lockstep tests).
    pub fn from_cipher(key: Aes128) -> Self {
        let mut init = [[0u32; 4]; INIT_CACHE];
        for (n, state) in init.iter_mut().enumerate() {
            *state = key.encrypt_words(len_words(n as u64));
        }
        Self { key, init }
    }

    /// The CBC state after absorbing the length-prefix block for `n`.
    #[inline]
    fn initial_state(&self, n: u64) -> StateWords {
        // `try_from`, not `as`: on a 32-bit target `n as usize` would wrap
        // a length of 2^32 to 0 and return the wrong cached state.
        if let Some(state) = usize::try_from(n).ok().and_then(|i| self.init.get(i)) {
            *state
        } else {
            self.key.encrypt_words(len_words(n))
        }
    }

    /// Computes the 64-bit tag of `message`.
    pub fn tag(&self, message: &[u8]) -> Mac64 {
        // Length prefix block (cached for small lengths).
        let state = self.initial_state(message.len() as u64);
        truncate_tag(&self.key.cbc_words(state, message))
    }

    /// Computes a tag over several segments without concatenating them.
    ///
    /// Equivalent to `tag` over the segments joined in order, with each
    /// segment's length folded in, so `(["ab", "c"])` and `(["a", "bc"])`
    /// produce different tags.
    pub fn tag_parts(&self, parts: &[&[u8]]) -> Mac64 {
        let mut chain = Absorber::new(&self.key, self.initial_state(parts.len() as u64));
        for part in parts {
            chain.length_block(part.len() as u64);
            chain.bytes(part);
            chain.pad();
        }
        truncate_tag(&chain.finish())
    }

    /// Verifies `message` against `expected` in constant shape (full compare).
    pub fn verify(&self, message: &[u8], expected: &Mac64) -> bool {
        self.tag(message) == *expected
    }

    /// Starts a streaming computation equivalent to [`Self::tag_parts`] over
    /// `part_count` parts.
    ///
    /// `tag_parts` folds the part count into the first cipher block, so a
    /// streaming caller must declare it up front. Feed each part with
    /// [`CbcMac::part`] (whole slice) or the
    /// [`CbcMac::begin_part`]/[`CbcMac::update`]/[`CbcMac::end_part`] triple
    /// (scattered bytes), then take the tag with [`CbcMac::finish`]. The
    /// result is byte-identical to `tag_parts` over the same byte
    /// sequences — hot paths use this to MAC table-sized part lists without
    /// first collecting them into a `Vec<&[u8]>` or concatenation buffers.
    pub fn streamer(&self, part_count: usize) -> CbcMac<'_> {
        CbcMac {
            chain: Absorber::new(&self.key, self.initial_state(part_count as u64)),
            in_part: false,
            parts_left: part_count,
            expected: 0,
            fed: 0,
        }
    }

    /// Starts a streaming computation equivalent to [`Self::tag`] over a
    /// message of exactly `message_len` bytes.
    ///
    /// `tag` folds the total length into its first cipher block, so a
    /// streaming caller must declare it up front; feeding a different
    /// number of bytes is a logic error and is asserted. The returned
    /// state is already "inside" the single implicit part: feed bytes with
    /// [`CbcMac::update`], then close with [`CbcMac::end_part`] and take
    /// the tag with [`CbcMac::finish`]. The result is byte-identical to
    /// `tag` over the same byte sequence — hot paths use this to MAC
    /// scattered fields without first concatenating them into a `Vec`.
    ///
    /// Unlike [`Self::streamer`]/[`Self::tag_parts`], no per-part length
    /// block is absorbed — the chaining exactly mirrors `tag`'s, so the
    /// two formulations stay interchangeable per call site, never mixed.
    pub fn stream_tag(&self, message_len: u64) -> CbcMac<'_> {
        CbcMac {
            chain: Absorber::new(&self.key, self.initial_state(message_len)),
            in_part: true,
            parts_left: 0,
            expected: message_len,
            fed: 0,
        }
    }
}

/// Bytes [`Absorber`] gathers before each cipher call. A whole data MAC
/// (3 × 16 length-block bytes + 16 + 16 + 64 padded part bytes = 144) and a
/// whole 8-child BMT parent (8 × (16 + 16) = 256) each fit, so both chain
/// through the cipher in a single call.
const ABSORB_BYTES: usize = 256;

/// A CBC chain that gathers whole blocks in a stack buffer and hands the
/// buffer to [`Aes128::cbc_words`] in one call when it fills or the tag is
/// taken.
///
/// A part goes in as its length block `[len_le ‖ 0⁸]` followed by its bytes
/// zero-padded to a block boundary. Chaining that buffer is the same
/// sequence of `state = E(state ^ block)` steps as absorbing the length
/// block and then the part with one cipher call each, so tags are
/// byte-identical; only the number of calls into the cipher drops.
#[derive(Debug)]
struct Absorber<'a> {
    key: &'a Aes128,
    state: StateWords,
    buf: [u8; ABSORB_BYTES],
    /// Filled bytes of `buf`; a block multiple whenever no part is open.
    len: usize,
}

impl<'a> Absorber<'a> {
    #[inline]
    fn new(key: &'a Aes128, state: StateWords) -> Self {
        Self {
            key,
            state,
            buf: [0u8; ABSORB_BYTES],
            len: 0,
        }
    }

    /// Appends the length block of an `n`-byte part. Must follow [`Self::pad`]
    /// (or nothing), so the block starts on a block boundary.
    #[inline]
    fn length_block(&mut self, n: u64) {
        if self.len == ABSORB_BYTES {
            self.flush();
        }
        let block = &mut self.buf[self.len..self.len + BLOCK_SIZE];
        block[..8].copy_from_slice(&n.to_le_bytes());
        block[8..].fill(0);
        self.len += BLOCK_SIZE;
    }

    /// Appends message bytes, chaining the buffer each time it fills.
    #[inline]
    fn bytes(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.len == ABSORB_BYTES {
                self.flush();
            }
            let take = (ABSORB_BYTES - self.len).min(bytes.len());
            self.buf[self.len..self.len + take].copy_from_slice(&bytes[..take]);
            self.len += take;
            bytes = &bytes[take..];
        }
    }

    /// Zero-pads the last block, closing a part.
    #[inline]
    fn pad(&mut self) {
        let end = self.len.next_multiple_of(BLOCK_SIZE);
        self.buf[self.len..end].fill(0);
        self.len = end;
    }

    /// Chains the buffered blocks into the state. Callers flush only at a
    /// block multiple (a full buffer, or after [`Self::pad`]), so
    /// `cbc_words` never pads a chunk mid-message.
    #[inline]
    fn flush(&mut self) {
        self.state = self.key.cbc_words(self.state, &self.buf[..self.len]);
        self.len = 0;
    }

    /// Chains what is left and returns the final state.
    #[inline]
    fn finish(mut self) -> StateWords {
        self.flush();
        self.state
    }
}

/// An incremental CBC-MAC over borrowed byte slices.
///
/// Created by [`MacEngine::streamer`]; produces tags byte-identical to
/// [`MacEngine::tag_parts`] without requiring the parts to be materialized
/// contiguously or collected into a slice-of-slices first. Each declared
/// part may itself be fed as several scattered sub-slices; it shares
/// `tag_parts`' buffered chain, so sub-slice boundaries never affect the
/// tag.
///
/// # Examples
///
/// ```
/// use dolos_crypto::mac::MacEngine;
///
/// let mac = MacEngine::new([7u8; 16]);
/// let mut s = mac.streamer(2);
/// s.part(b"first");
/// s.begin_part(6);
/// s.update(b"sec");
/// s.update(b"ond");
/// s.end_part();
/// assert_eq!(s.finish(), mac.tag_parts(&[b"first", b"second"]));
/// ```
#[derive(Debug)]
pub struct CbcMac<'a> {
    chain: Absorber<'a>,
    in_part: bool,
    parts_left: usize,
    /// Bytes promised to `begin_part` for the open part.
    expected: u64,
    /// Bytes actually fed via `update` for the open part.
    fed: u64,
}

impl CbcMac<'_> {
    /// Absorbs one whole part.
    pub fn part(&mut self, part: &[u8]) {
        self.begin_part(part.len() as u64);
        self.update(part);
        self.end_part();
    }

    /// Opens a part whose bytes will arrive via [`Self::update`].
    ///
    /// `part_len` must equal the total number of bytes fed before
    /// [`Self::end_part`]; it is folded into the MAC (the length block), so
    /// a mismatch is a logic error and is asserted.
    pub fn begin_part(&mut self, part_len: u64) {
        assert!(!self.in_part, "begin_part called inside an open part");
        assert!(self.parts_left > 0, "more parts fed than declared");
        self.parts_left -= 1;
        self.in_part = true;
        self.expected = part_len;
        self.fed = 0;
        self.chain.length_block(part_len);
    }

    /// Feeds part bytes; may be called any number of times per part.
    pub fn update(&mut self, bytes: &[u8]) {
        assert!(self.in_part, "update called outside a part");
        self.fed += bytes.len() as u64;
        self.chain.bytes(bytes);
    }

    /// Closes the current part, flushing any partial chunk.
    pub fn end_part(&mut self) {
        assert!(self.in_part, "end_part called outside a part");
        assert_eq!(
            self.fed, self.expected,
            "part length declared to begin_part does not match bytes fed"
        );
        self.chain.pad();
        self.in_part = false;
        self.fed = 0;
        self.expected = 0;
    }

    /// Returns the 64-bit tag. All declared parts must have been fed.
    pub fn finish(self) -> Mac64 {
        assert!(!self.in_part, "finish called inside an open part");
        assert_eq!(self.parts_left, 0, "fewer parts fed than declared");
        truncate_tag(&self.chain.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::words_from_bytes;

    fn engine() -> MacEngine {
        MacEngine::new([7u8; 16])
    }

    #[test]
    fn tag_is_deterministic() {
        let m = engine();
        assert_eq!(m.tag(b"hello"), m.tag(b"hello"));
    }

    #[test]
    fn tag_depends_on_message() {
        let m = engine();
        assert_ne!(m.tag(b"hello"), m.tag(b"hellp"));
    }

    #[test]
    fn tag_depends_on_key() {
        let a = MacEngine::new([1u8; 16]);
        let b = MacEngine::new([2u8; 16]);
        assert_ne!(a.tag(b"x"), b.tag(b"x"));
    }

    #[test]
    fn tag_depends_on_length() {
        let m = engine();
        // Same prefix, trailing zero byte vs. absent byte must differ.
        assert_ne!(m.tag(&[0u8; 16]), m.tag(&[0u8; 17]));
        assert_ne!(m.tag(b""), m.tag(&[0u8]));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let m = engine();
        let tag = m.tag(b"wpq entry");
        assert!(m.verify(b"wpq entry", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!m.verify(b"wpq entry", &bad));
    }

    #[test]
    fn tag_parts_is_boundary_sensitive() {
        let m = engine();
        let joined = m.tag_parts(&[b"ab", b"c"]);
        let rejoined = m.tag_parts(&[b"a", b"bc"]);
        assert_ne!(joined, rejoined);
        assert_eq!(m.tag_parts(&[b"ab", b"c"]), joined);
    }

    #[test]
    fn empty_message_tags() {
        let m = engine();
        let t = m.tag(b"");
        assert!(m.verify(b"", &t));
        assert_ne!(t, [0u8; 8]);
    }

    /// The byte-domain specification of `tag`, reimplemented over the public
    /// cipher API: length-prefix block, then XOR-encrypt each 16-byte chunk.
    /// Pins the word-domain chaining and the initial-state cache (lengths on
    /// both sides of the cache boundary) to the original formulation.
    fn tag_specification(key_bytes: [u8; 16], msg: &[u8]) -> Mac64 {
        let key = Aes128::new(&key_bytes);
        let mut state = [0u8; BLOCK_SIZE];
        state[0..8].copy_from_slice(&(msg.len() as u64).to_le_bytes());
        state = key.encrypt_block(&state);
        for chunk in msg.chunks(BLOCK_SIZE) {
            for (s, c) in state.iter_mut().zip(chunk.iter()) {
                *s ^= c;
            }
            state = key.encrypt_block(&state);
        }
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&state[0..8]);
        tag
    }

    #[test]
    fn tag_matches_byte_domain_specification() {
        let m = engine();
        for len in [0usize, 1, 7, 15, 16, 17, 63, 64, 65, 128, 200] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            assert_eq!(m.tag(&msg), tag_specification([7u8; 16], &msg), "len {len}");
        }
    }

    #[test]
    fn initial_state_past_the_cache_encrypts_the_length_block() {
        let m = engine();
        // Past the cache, and the length a 32-bit `usize` would wrap to 0.
        for n in [
            INIT_CACHE as u64,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
        ] {
            let mut block = [0u8; BLOCK_SIZE];
            block[..8].copy_from_slice(&n.to_le_bytes());
            let direct = words_from_bytes(&m.key.encrypt_block(&block));
            assert_eq!(m.initial_state(n), direct, "n {n}");
        }
        assert_ne!(m.initial_state(u64::from(u32::MAX) + 1), m.initial_state(0));
    }

    #[test]
    fn debug_output_redacts_derived_state() {
        // The cached initial states are key-derived (each is a valid tag of
        // an empty part list), so MacEngine's Debug must not print them.
        let printed = format!("{:?}", engine());
        assert!(printed.contains("redacted"), "got: {printed}");
        assert!(!printed.contains("init"), "got: {printed}");
    }

    #[test]
    fn streamer_matches_tag_parts_whole_slices() {
        let m = engine();
        let cases: &[&[&[u8]]] = &[
            &[],
            &[b""],
            &[b"a"],
            &[b"ab", b"c"],
            &[b"0123456789abcdef"],
            &[b"0123456789abcdef0", b"", b"xyz"],
            &[&[0u8; 8], &[1u8; 8], &[2u8; 8], &[3u8; 24]],
        ];
        for parts in cases {
            let mut s = m.streamer(parts.len());
            for p in *parts {
                s.part(p);
            }
            assert_eq!(s.finish(), m.tag_parts(parts), "parts {parts:?}");
        }
    }

    #[test]
    fn streamer_is_insensitive_to_update_granularity() {
        let m = engine();
        let data: Vec<u8> = (0..=100u8).collect();
        let expected = m.tag_parts(&[&data, b"tail"]);
        for split in [1usize, 3, 7, 16, 17, 64, 100] {
            let mut s = m.streamer(2);
            s.begin_part(data.len() as u64);
            for chunk in data.chunks(split) {
                s.update(chunk);
            }
            s.end_part();
            s.part(b"tail");
            assert_eq!(s.finish(), expected, "split {split}");
        }
    }

    #[test]
    fn stream_tag_matches_tag() {
        let m = engine();
        for len in [0usize, 1, 7, 15, 16, 17, 63, 64, 65, 128, 200] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let expected = m.tag(&msg);
            for split in [1usize, 3, 7, 16, 17, 64] {
                let mut s = m.stream_tag(len as u64);
                for chunk in msg.chunks(split) {
                    s.update(chunk);
                }
                s.end_part();
                assert_eq!(s.finish(), expected, "len {len} split {split}");
            }
            // Single-shot feed (a no-op update loop for the empty message).
            let mut s = m.stream_tag(len as u64);
            s.update(&msg);
            s.end_part();
            assert_eq!(s.finish(), expected, "len {len} whole");
        }
    }

    #[test]
    #[should_panic(expected = "does not match bytes fed")]
    fn stream_tag_rejects_length_mismatch() {
        let m = engine();
        let mut s = m.stream_tag(4);
        s.update(b"12345");
        s.end_part();
    }

    #[test]
    #[should_panic(expected = "does not match bytes fed")]
    fn streamer_rejects_length_mismatch() {
        let m = engine();
        let mut s = m.streamer(1);
        s.begin_part(5);
        s.update(b"only4");
        s.update(b"!");
        // 6 bytes fed against 5 declared.
        s.end_part();
    }

    #[test]
    #[should_panic(expected = "fewer parts fed than declared")]
    fn streamer_rejects_missing_parts() {
        let m = engine();
        let mut s = m.streamer(2);
        s.part(b"only one");
        let _ = s.finish();
    }
}
