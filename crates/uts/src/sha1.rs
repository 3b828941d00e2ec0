//! SHA-1 (RFC 3174), implemented from scratch.
//!
//! UTS builds its splittable random stream on SHA-1: the 20-byte digest
//! of a parent's state and a child index *is* the child's state. The
//! benchmark does not need SHA-1 to be cryptographically current — it
//! needs a fixed, high-quality, platform-independent mixing function so
//! that "for a set of parameters, the same tree will always be
//! generated no matter the underlying hardware or language" (paper
//! §II). This implementation is verified against the FIPS 180-1 / RFC
//! 3174 test vectors.
//!
//! The UTS hashes are fixed-length and fit one block, so
//! [`crate::RngState`] builds each pre-padded block itself and calls
//! [`digest_block`]; the incremental [`Sha1`] serves long inputs and is
//! the reference those paths are tested against. Both compress through
//! a [`Backend`]: portable scalar code, or the x86-64 SHA extensions
//! when the CPU reports them.

/// Length of a SHA-1 digest in bytes.
pub const DIGEST_LEN: usize = 20;

/// A SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

/// One 512-bit message block as 16 big-endian words.
pub type Block = [u32; 16];

/// The SHA-1 initial chaining state (FIPS 180-1 §7).
const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// The padding terminator (the `0x80` byte) as the first byte of a
/// big-endian message word.
pub(crate) const PAD_WORD: u32 = 0x8000_0000;

/// A SHA-1 compression implementation.
///
/// Every backend produces identical digests; they differ only in speed.
/// [`Backend::detect`] picks the fastest one the CPU supports, from the
/// CPU's feature flags alone (std caches the CPUID probe, so asking
/// again costs a load). The two constructors are public so tests can pin
/// each backend and compare them.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    /// True only when [`Backend::sha_ni`] saw the CPU report every
    /// feature `compress_sha_ni` enables. Private: the `unsafe` call in
    /// [`Backend::compress`] relies on it.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    sha_ni: bool,
}

impl Backend {
    /// The portable backend, available on every CPU.
    pub const SCALAR: Backend = Backend { sha_ni: false };

    /// The x86-64 SHA extensions backend, if this CPU has them.
    pub fn sha_ni() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
        {
            return Some(Backend { sha_ni: true });
        }
        None
    }

    /// The fastest backend this CPU supports.
    #[inline]
    pub fn detect() -> Backend {
        Self::sha_ni().unwrap_or(Self::SCALAR)
    }

    /// Compress one message block into the chaining `state`.
    #[inline]
    pub fn compress(self, state: &mut [u32; 5], block: &Block) {
        #[cfg(target_arch = "x86_64")]
        if self.sha_ni {
            // SAFETY: `sha_ni` is private and only `Backend::sha_ni` sets
            // it, after the CPU reported `sha`, `sse4.1` and `ssse3` —
            // every feature `compress_sha_ni` enables (`sse2` is part of
            // the x86-64 baseline).
            unsafe { compress_sha_ni(state, block) };
            return;
        }
        compress_scalar(state, block);
    }
}

/// SHA-1 of a message that fits in one block.
///
/// `block` must already be padded: the message words, then the `0x80`
/// terminator byte, zeros, and the message length in bits in words
/// 14–15.
#[doc(hidden)]
#[inline]
pub fn digest_block(backend: Backend, block: &Block) -> [u32; 5] {
    let mut state = H0;
    backend.compress(&mut state, block);
    state
}

/// Render chaining-state words as the big-endian digest bytes.
#[inline]
pub fn words_to_digest(words: &[u32; 5]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Incremental SHA-1 hasher for messages of any length.
///
/// It is the reference the fixed-layout single-block paths are tested
/// against, and it runs through the same [`Backend::compress`].
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// Bytes processed so far (for the length trailer).
    len: u64,
    /// Partial block buffer; `buf_len < 64` between calls.
    buf: [u8; 64],
    buf_len: usize,
    backend: Backend,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Start a new hash.
    pub fn new() -> Self {
        Self::new_on(Backend::detect())
    }

    /// Start a new hash on a chosen backend.
    #[doc(hidden)]
    pub fn new_on(backend: Backend) -> Self {
        Self {
            h: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
            backend,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress_bytes(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress_bytes(block.try_into().expect("64-byte split"));
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len * 8;
        // The 0x80 terminator and zero fill; the 8-byte length trailer
        // goes in this block if it still has room, else in one more.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress_bytes(&block);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress_bytes(&block);
        words_to_digest(&self.h)
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> Digest {
        let mut s = Sha1::new();
        s.update(data);
        s.finalize()
    }

    fn compress_bytes(&mut self, bytes: &[u8; 64]) {
        let mut block = [0u32; 16];
        for (word, chunk) in block.iter_mut().zip(bytes.chunks_exact(4)) {
            *word = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        self.backend.compress(&mut self.h, &block);
    }
}

/// The portable compression function: the 80 rounds as four 20-round
/// stages, each with its own boolean function and constant, so no round
/// branches on its stage.
fn compress_scalar(state: &mut [u32; 5], block: &Block) {
    let mut w = [0u32; 80];
    w[..16].copy_from_slice(block);
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    macro_rules! stage {
        ($rounds:expr, $k:expr, $f:expr) => {
            for &wi in &w[$rounds] {
                let t = a
                    .rotate_left(5)
                    .wrapping_add($f(b, c, d))
                    .wrapping_add(e)
                    .wrapping_add($k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = t;
            }
        };
    }
    stage!(0..20, 0x5A82_7999, |b: u32, c: u32, d: u32| d
        ^ (b & (c ^ d)));
    stage!(20..40, 0x6ED9_EBA1, |b: u32, c: u32, d: u32| b ^ c ^ d);
    stage!(40..60, 0x8F1B_BCDC, |b: u32, c: u32, d: u32| (b & c)
        | (d & (b | c)));
    stage!(60..80, 0xCA62_C1D6, |b: u32, c: u32, d: u32| b ^ c ^ d);
    for (h, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *h = h.wrapping_add(v);
    }
}

/// The compression function on the x86-64 SHA extensions: four rounds
/// per `sha1rnds4`, with `sha1msg1`/`sha1msg2` expanding the schedule.
///
/// # Safety
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`; only
/// [`Backend::compress`] calls it, on a backend [`Backend::sha_ni`]
/// built after checking exactly that.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
#[allow(unused_assignments)] // the last groups' schedule words
unsafe fn compress_sha_ni(state: &mut [u32; 5], block: &Block) {
    use std::arch::x86_64::*;

    // Lane 3 holds the first word of each group throughout (the layout
    // `sha1rnds4` works in).
    let words = |i: usize| {
        _mm_set_epi32(
            block[i] as i32,
            block[i + 1] as i32,
            block[i + 2] as i32,
            block[i + 3] as i32,
        )
    };
    let abcd_save = _mm_set_epi32(
        state[0] as i32,
        state[1] as i32,
        state[2] as i32,
        state[3] as i32,
    );
    let e_save = _mm_set_epi32(state[4] as i32, 0, 0, 0);
    let mut abcd = abcd_save;
    let (mut m0, mut m1, mut m2, mut m3) = (words(0), words(4), words(8), words(12));

    // Rounds 0-11: the schedule words come straight from the block.
    let mut e0 = _mm_add_epi32(e_save, m0);
    let mut e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    m0 = _mm_sha1msg1_epu32(m0, m1);

    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    // Rounds 12-79: four rounds on `$cur`, while the schedule advances
    // `$next` (finish), `$after` (xor) and `$prev` (start). The last few
    // groups compute schedule words nothing reads; the compiler drops
    // them.
    macro_rules! four_rounds {
        ($func:literal, $e:ident, $e_next:ident, $cur:ident, $next:ident, $after:ident, $prev:ident) => {
            $e = _mm_sha1nexte_epu32($e, $cur);
            $e_next = abcd;
            $next = _mm_sha1msg2_epu32($next, $cur);
            abcd = _mm_sha1rnds4_epu32(abcd, $e, $func);
            $prev = _mm_sha1msg1_epu32($prev, $cur);
            $after = _mm_xor_si128($after, $cur);
        };
    }
    four_rounds!(0, e1, e0, m3, m0, m1, m2); // 12-15
    four_rounds!(0, e0, e1, m0, m1, m2, m3); // 16-19
    four_rounds!(1, e1, e0, m1, m2, m3, m0); // 20-23
    four_rounds!(1, e0, e1, m2, m3, m0, m1);
    four_rounds!(1, e1, e0, m3, m0, m1, m2);
    four_rounds!(1, e0, e1, m0, m1, m2, m3);
    four_rounds!(1, e1, e0, m1, m2, m3, m0); // 36-39
    four_rounds!(2, e0, e1, m2, m3, m0, m1); // 40-43
    four_rounds!(2, e1, e0, m3, m0, m1, m2);
    four_rounds!(2, e0, e1, m0, m1, m2, m3);
    four_rounds!(2, e1, e0, m1, m2, m3, m0);
    four_rounds!(2, e0, e1, m2, m3, m0, m1); // 56-59
    four_rounds!(3, e1, e0, m3, m0, m1, m2); // 60-63
    four_rounds!(3, e0, e1, m0, m1, m2, m3);
    four_rounds!(3, e1, e0, m1, m2, m3, m0);
    four_rounds!(3, e0, e1, m2, m3, m0, m1);
    four_rounds!(3, e1, e0, m3, m0, m1, m2); // 76-79

    // Feed forward: E through `sha1nexte` (which also rotates it), ABCD
    // by a plain add.
    e0 = _mm_sha1nexte_epu32(e0, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
    state[0] = _mm_extract_epi32(abcd, 3) as u32;
    state[1] = _mm_extract_epi32(abcd, 2) as u32;
    state[2] = _mm_extract_epi32(abcd, 1) as u32;
    state[3] = _mm_extract_epi32(abcd, 0) as u32;
    state[4] = _mm_extract_epi32(e0, 3) as u32;
}

/// Render a digest as lowercase hex (for tests and debugging).
pub fn to_hex(d: &Digest) -> String {
    let mut s = String::with_capacity(DIGEST_LEN * 2);
    for b in d {
        use std::fmt::Write;
        write!(s, "{b:02x}").expect("writing to String cannot fail");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc3174_test_vectors() {
        // FIPS 180-1 appendix / RFC 3174 section 7.3 vectors.
        assert_eq!(
            to_hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            to_hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            to_hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut s = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            s.update(&chunk);
        }
        assert_eq!(
            to_hex(&s.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..255u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 128, 200, 255] {
            let mut s = Sha1::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finalize(), Sha1::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Exercise the padding logic at every interesting length.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xABu8; len];
            let mut s = Sha1::new();
            for byte in &data {
                s.update(std::slice::from_ref(byte));
            }
            assert_eq!(
                s.finalize(),
                Sha1::digest(&data),
                "byte-at-a-time mismatch at len {len}"
            );
        }
    }

    #[test]
    fn digests_differ_on_single_bit_flip() {
        let a = Sha1::digest(b"unbalanced tree search");
        let b = Sha1::digest(b"unbalanced tree searcI"); // last byte flipped
        assert_ne!(a, b);
        // Avalanche sanity: digests should differ in many bits.
        let differing: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(differing > 40, "only {differing} differing bits");
    }
}
