//! SHA-256 implemented from scratch per FIPS 180-4.
//!
//! The paper (§VI) uses SHA-256 truncated to its first 20 bytes for all tree
//! and hash-chain operations; the truncation lives in [`crate::digest`].
//!
//! **What dispatches where.** There is one compression function, `compress`,
//! and every block of every digest goes through it. On x86-64 it asks
//! `is_x86_feature_detected!` (a cached atomic load) whether the CPU has the
//! SHA extensions plus the SSSE3 / SSE4.1 the kernel's `_mm_alignr_epi8` /
//! `_mm_extract_epi32` need, and if so runs the `sha256rnds2` / `sha256msg1` /
//! `sha256msg2` kernel in `sha_ni`; on every other CPU the scalar FIPS loop
//! in `compress_scalar` is the only path, and the tests use it as the
//! oracle the hardware kernel is compared against. There is no feature, no
//! environment variable and no configuration: the CPU decides.
//!
//! **Why the one-block path exists.** Almost every SHA-256 call in RITM has
//! a fixed, short shape: a dictionary node is 41 bytes, a hash-chain link 20,
//! a leaf at most 30. A message of at most [`ONE_BLOCK_MAX`] bytes fits one
//! padded block, so [`digest`] pads it on the stack and compresses once from
//! the initial state — no [`Sha256`] value, no buffer copy. A dictionary
//! update is tens of thousands of such hashes, which makes this path, not the
//! streaming hasher, the one whose constant the CA and the RA pay. The
//! dictionary node is the hottest of them, so `ritm_dictionary::tree::node_hash`
//! goes one step further: it writes `0x01 ‖ left ‖ right ‖ 0x80 ‖ 0… ‖ 328`
//! (the 41-byte message already padded) straight into a block and hands it
//! to [`digest_padded_block`] — no intermediate message buffer, no length
//! dispatch, no second copy into the padded block (a chain of dependent
//! node hashes: 79 → 66 ns each on a SHA-extension Xeon).

/// Output size of SHA-256 in bytes.
pub const OUTPUT_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Longest message, in bytes, that pads into a single block: 64 minus the
/// `0x80` marker and the 8-byte bit length.
pub const ONE_BLOCK_MAX: usize = BLOCK_LEN - 9;

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use ritm_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     ritm_crypto::hex::encode(h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut data = data.as_ref();
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<BLOCK_LEN>() {
            compress(&mut self.state, block);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; OUTPUT_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= BLOCK_LEN - 8 {
            // No room left for the length: it goes in a block of its own.
            compress(&mut self.state, &self.buf);
            self.buf = [0; BLOCK_LEN];
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        state_bytes(&self.state)
    }
}

/// One-shot SHA-256 of `data`: one compression when it fits one padded
/// block (see the module docs), the streaming hasher otherwise.
///
/// # Examples
///
/// ```
/// let d = ritm_crypto::sha256::digest(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn digest(data: impl AsRef<[u8]>) -> [u8; OUTPUT_LEN] {
    let data = data.as_ref();
    if data.len() <= ONE_BLOCK_MAX {
        return digest_one_block(data);
    }
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of a message of at most [`ONE_BLOCK_MAX`] bytes: pad on the
/// stack, compress once from `H0`.
fn digest_one_block(data: &[u8]) -> [u8; OUTPUT_LEN] {
    debug_assert!(data.len() <= ONE_BLOCK_MAX, "does not pad into one block");
    let mut block = [0u8; BLOCK_LEN];
    block[..data.len()].copy_from_slice(data);
    block[data.len()] = 0x80;
    block[BLOCK_LEN - 8..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    digest_padded_block(&block)
}

/// SHA-256 of a message the caller has already padded into exactly one
/// block (`message ‖ 0x80 ‖ 0… ‖ bit length`, FIPS 180-4 §5.1.1): one
/// compression from `H0`. Nothing checks the padding — a block that is not
/// a correctly padded message yields a value that is no message's digest.
///
/// # Examples
///
/// ```
/// use ritm_crypto::sha256::{digest, digest_padded_block, BLOCK_LEN};
/// let mut block = [0u8; BLOCK_LEN];
/// block[..3].copy_from_slice(b"abc");
/// block[3] = 0x80;
/// block[BLOCK_LEN - 1] = 24; // 3 bytes = 24 bits
/// assert_eq!(digest_padded_block(&block), digest(b"abc"));
/// ```
pub fn digest_padded_block(block: &[u8; BLOCK_LEN]) -> [u8; OUTPUT_LEN] {
    let mut state = H0;
    compress(&mut state, block);
    state_bytes(&state)
}

fn state_bytes(state: &[u32; 8]) -> [u8; OUTPUT_LEN] {
    let mut out = [0u8; OUTPUT_LEN];
    for (chunk, w) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// The compression function: the SHA-extension kernel where the CPU has
/// one, the scalar loop everywhere else.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    if !sha_ni::try_compress(state, block) {
        compress_scalar(state, block);
    }
}

fn message_word(block: &[u8; BLOCK_LEN], i: usize) -> u32 {
    u32::from_be_bytes([
        block[4 * i],
        block[4 * i + 1],
        block[4 * i + 2],
        block[4 * i + 3],
    ])
}

/// FIPS 180-4 §6.2.2 as written: the only path on CPUs without the SHA
/// extensions, and the oracle the hardware kernel is tested against.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = message_word(block, i);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The SHA-extension kernel (x86-64 only; elsewhere `try_compress` is a
/// constant `false`).
mod sha_ni {
    use super::BLOCK_LEN;

    /// Compresses `block` into `state` with the CPU's SHA instructions and
    /// returns `true`, or returns `false` with `state` untouched when the
    /// CPU lacks them.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn try_compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) -> bool {
        if !(std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: `kernel` requires exactly the CPU features detected above
        // (`sse2` is part of the x86-64 baseline), and has no other
        // precondition: it takes references and uses no pointer intrinsic.
        unsafe { kernel(state, block) };
        true
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn try_compress(_: &mut [u32; 8], _: &[u8; BLOCK_LEN]) -> bool {
        false
    }

    /// One block through `sha256rnds2`, four rounds per step. The state
    /// lives in two registers in the order the instruction wants —
    /// `abef = [f, e, b, a]` and `cdgh = [h, g, d, c]`, lane 0 first — and
    /// the message schedule in four, `m[j] = [w[4j], …, w[4j+3]]`, rotated
    /// through `sha256msg1` / `sha256msg2` as FIPS' `σ0` / `σ1` recurrences.
    /// Message words and `K` are built with `_mm_set_epi32` from safe
    /// loads, so nothing here dereferences a raw pointer.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    // `step!`'s literal bounds compile the last steps' schedule updates out,
    // but the liveness lint runs before they are folded.
    #[allow(unused_assignments)]
    fn kernel(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        use super::{message_word, K};
        use core::arch::x86_64::*;

        let quad = |w: [u32; 4]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
        let [a, b, c, d, e, f, g, h] = *state;
        let abef_in = quad([f, e, b, a]);
        let cdgh_in = quad([h, g, d, c]);
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);
        let [mut m0, mut m1, mut m2, mut m3] = [0usize, 1, 2, 3].map(|j| {
            quad([
                message_word(block, 4 * j),
                message_word(block, 4 * j + 1),
                message_word(block, 4 * j + 2),
                message_word(block, 4 * j + 3),
            ])
        });

        // Step i runs rounds 4i..4i+4 on `$cur`, finishes the schedule quad
        // one step ahead (σ1 half, into `$next`) and starts the one three
        // steps ahead (σ0 half, over `$prev`); the bounds are where
        // w[16..64] begins and ends. A macro, not a loop over `m[i % 4]`:
        // the compiler leaves that loop rolled and the quads in memory.
        macro_rules! step {
            ($i:literal, $prev:ident, $cur:ident, $next:ident) => {{
                let k = quad([K[4 * $i], K[4 * $i + 1], K[4 * $i + 2], K[4 * $i + 3]]);
                let wk = _mm_add_epi32($cur, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                if $i >= 3 && $i < 15 {
                    let w_minus_7 = _mm_alignr_epi8::<4>($cur, $prev);
                    $next = _mm_sha256msg2_epu32(_mm_add_epi32($next, w_minus_7), $cur);
                }
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
                if $i >= 1 && $i < 13 {
                    $prev = _mm_sha256msg1_epu32($prev, $cur);
                }
            }};
        }
        step!(0, m3, m0, m1);
        step!(1, m0, m1, m2);
        step!(2, m1, m2, m3);
        step!(3, m2, m3, m0);
        step!(4, m3, m0, m1);
        step!(5, m0, m1, m2);
        step!(6, m1, m2, m3);
        step!(7, m2, m3, m0);
        step!(8, m3, m0, m1);
        step!(9, m0, m1, m2);
        step!(10, m1, m2, m3);
        step!(11, m2, m3, m0);
        step!(12, m3, m0, m1);
        step!(13, m0, m1, m2);
        step!(14, m1, m2, m3);
        step!(15, m2, m3, m0);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn hexdigest(data: impl AsRef<[u8]>) -> String {
        hex::encode(digest(data))
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hexdigest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hexdigest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hexdigest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update([b'a'; 1000]);
        }
        assert_eq!(
            hex::encode(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 500, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding around the 56-byte and 64-byte boundaries.
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update([*b]);
            }
            assert_eq!(h.finalize(), digest(&data), "len {len}");
        }
    }

    /// The whole of SHA-256 on `compress_scalar` alone: pad into a `Vec`,
    /// compress block by block. Shares nothing with `digest`, `Sha256` or
    /// the hardware kernel but the round constants.
    fn scalar_digest(data: &[u8]) -> [u8; OUTPUT_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_LEN) {
            compress_scalar(&mut state, block.try_into().unwrap());
        }
        state_bytes(&state)
    }

    fn streamed(data: &[u8]) -> [u8; OUTPUT_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Calls both compression functions directly — no switch to flip, no
    /// dispatch in between. CI greps the line this prints, so a runner
    /// without the extensions is visible rather than silently green; there
    /// the scalar function is still pinned by the FIPS vectors in
    /// `digest_matches_the_scalar_only_digest`.
    #[test]
    fn hardware_compress_matches_scalar() {
        let mut probe = H0;
        if !sha_ni::try_compress(&mut probe, &[0; BLOCK_LEN]) {
            println!("sha extensions: absent (scalar path only)");
            return;
        }
        println!("sha extensions: detected");

        let mut rng = StdRng::seed_from_u64(0x5348_4132);
        let (mut hw_chain, mut scalar_chain) = (H0, H0);
        for i in 0..10_000 {
            let mut block = [0u8; BLOCK_LEN];
            rng.fill_bytes(&mut block);
            // An arbitrary state, not only ones reachable from `H0`.
            let fresh: [u32; 8] = core::array::from_fn(|_| rng.next_u32());
            let (mut got, mut expected) = (fresh, fresh);
            assert!(sha_ni::try_compress(&mut got, &block));
            compress_scalar(&mut expected, &block);
            assert_eq!(got, expected, "block {i}, fresh state");

            assert!(sha_ni::try_compress(&mut hw_chain, &block));
            compress_scalar(&mut scalar_chain, &block);
            assert_eq!(hw_chain, scalar_chain, "block {i}, chained state");
        }
    }

    #[test]
    fn digest_matches_the_scalar_only_digest() {
        let data: Vec<u8> = (0..=255u8).cycle().skip(7).take(1000).collect();
        for len in 0..=200 {
            let expected = scalar_digest(&data[..len]);
            assert_eq!(digest(&data[..len]), expected, "one-shot, len {len}");
            assert_eq!(streamed(&data[..len]), expected, "streamed, len {len}");
        }
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 500, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), scalar_digest(&data), "split at {split}");
        }
        for (message, expected) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(hex::encode(scalar_digest(message)), expected);
        }
        assert_eq!(
            hex::encode(scalar_digest(&vec![b'a'; 1_000_000])),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn one_block_entry_matches_the_streaming_hasher() {
        let data: Vec<u8> = (1..=ONE_BLOCK_MAX as u8).collect();
        for len in 0..=ONE_BLOCK_MAX {
            assert_eq!(
                digest_one_block(&data[..len]),
                streamed(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not pad into one block")]
    fn one_block_entry_rejects_a_message_that_needs_two() {
        digest_one_block(&[0u8; ONE_BLOCK_MAX + 1]);
    }
}
