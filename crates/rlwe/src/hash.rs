//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The CCA-style KEM ([`crate::kem`]) needs a hash for its
//! Fujisaki–Okamoto re-encryption transform; the dependency policy of
//! this workspace (DESIGN.md) keeps external crates to `rand` and
//! `proptest`, so the primitive lives here. Verified
//! against the FIPS test vectors.
//!
//! Blocks are compressed by the x86-64 SHA extensions when CPUID
//! reports them, and by the portable round function otherwise; both
//! give the same digest (DESIGN.md §17.5).

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

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// Computes SHA-256 of `data`.
///
/// # Example
///
/// ```
/// let d = rlwe::hash::sha256(b"abc");
/// assert_eq!(d[0], 0xba);
/// assert_eq!(d[31], 0xad);
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Domain-separated hash: `SHA-256(domain || 0x00 || data)`.
pub fn sha256_tagged(domain: &[u8], data: &[u8]) -> Digest {
    let mut h = Sha256::tagged(domain);
    h.update(data);
    h.finalize()
}

/// A streaming SHA-256 hasher: absorb with [`Sha256::update`] (and
/// [`Sha256::update_u64_be`] for coefficient vectors), then
/// [`Sha256::finalize`]. Any split of the input into `update` calls
/// yields the one-shot [`sha256`] digest.
///
/// # Example
///
/// ```
/// use rlwe::hash::{sha256, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes of the current partial block.
    block: [u8; 64],
    filled: usize,
    /// Total bytes absorbed.
    len: u64,
    compressor: Compressor,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher on the fastest compressor the host supports.
    pub fn new() -> Sha256 {
        Sha256::with(Compressor::detect())
    }

    /// A hasher that has already absorbed `domain || 0x00`, the prefix
    /// of [`sha256_tagged`].
    pub fn tagged(domain: &[u8]) -> Sha256 {
        let mut h = Sha256::new();
        h.update(domain);
        h.update(&[0]);
        h
    }

    fn with(compressor: Compressor) -> Sha256 {
        Sha256 {
            state: H0,
            block: [0; 64],
            filled: 0,
            len: 0,
            compressor,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = (64 - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return;
            }
            self.compressor.blocks(&mut self.state, &self.block);
            self.filled = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            self.compressor.blocks(&mut self.state, &data[..whole]);
        }
        let rest = &data[whole..];
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// Absorbs each word as its 8 big-endian bytes — the encoding the
    /// protocol digests use for polynomial coefficients — without
    /// materialising the byte string.
    pub fn update_u64_be(&mut self, words: &[u64]) {
        let mut buf = [0u8; 512];
        for chunk in words.chunks(buf.len() / 8) {
            for (dst, w) in buf.chunks_exact_mut(8).zip(chunk) {
                dst.copy_from_slice(&w.to_be_bytes());
            }
            self.update(&buf[..chunk.len() * 8]);
        }
    }

    /// Pads, compresses the final block(s) and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        let mut tail = [0u8; 128];
        tail[..self.filled].copy_from_slice(&self.block[..self.filled]);
        tail[self.filled] = 0x80;
        let tail_len = if self.filled < 56 { 64 } else { 128 };
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        self.compressor.blocks(&mut self.state, &tail[..tail_len]);

        let mut out = [0u8; 32];
        for (dst, word) in out.chunks_exact_mut(4).zip(self.state) {
            dst.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The block compressors. `ShaNi` is only ever constructed after a
/// CPUID check ([`Compressor::detect`], [`Compressor::if_supported`]),
/// which is what makes [`Compressor::blocks`] sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Compressor {
    /// The portable FIPS 180-4 round function: the fallback and the
    /// reference the fast path is tested against.
    Portable,
    /// x86-64 SHA extensions (`sha256rnds2`/`sha256msg1`/`sha256msg2`).
    ShaNi,
}

impl Compressor {
    /// The fastest compressor the host supports.
    fn detect() -> Compressor {
        Compressor::if_supported(Compressor::ShaNi).unwrap_or(Compressor::Portable)
    }

    /// `Some(self)` when the host can run it.
    fn if_supported(self) -> Option<Compressor> {
        let ok = match self {
            Compressor::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Compressor::ShaNi => shani::supported(),
            #[cfg(not(target_arch = "x86_64"))]
            Compressor::ShaNi => false,
        };
        ok.then_some(self)
    }

    /// Compresses `blocks` (a multiple of 64 bytes) into `state`.
    fn blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(64));
        #[cfg(target_arch = "x86_64")]
        if self == Compressor::ShaNi {
            // SAFETY: `ShaNi` only exists once `shani::supported()`
            // returned true (see the type's doc), and `blocks` is a
            // whole number of blocks.
            unsafe { shani::compress_blocks(state, blocks) };
            return;
        }
        for block in blocks.chunks_exact(64) {
            compress(state, block.try_into().expect("exact chunk"));
        }
    }
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
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
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-NI compressor: four rounds per `sha256rnds2` pair, the
/// message schedule by `sha256msg1`/`sha256msg2`. State is kept in the
/// instructions' ABEF/CDGH register layout across all blocks of a call.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    pub(super) fn supported() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// `W[t..t+4]` from the previous sixteen schedule words.
    ///
    /// # Safety
    ///
    /// The host must support SHA and SSSE3 ([`supported`]).
    #[inline(always)]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let w_minus_7 = _mm_alignr_epi8(w3, w2, 4);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), w3)
    }

    /// # Safety
    ///
    /// The host must support SHA, SSSE3 and SSE4.1 ([`supported`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane (big-endian message words).
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 8 in-bounds u32s; unaligned loads.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 in-bounds bytes; unaligned loads.
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap);
            // Rounds 4i..4i+4 on schedule words `w`.
            macro_rules! rounds4 {
                ($i:expr, $w:expr) => {{
                    // SAFETY: `4 * i + 4 <= 64 = K.len()`.
                    let k = _mm_loadu_si128(K.as_ptr().add(4 * $i).cast());
                    let wk = _mm_add_epi32($w, k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                }};
            }
            // Sixteen more schedule words and their rounds, starting at
            // round group `i`; `w0` holds the oldest words.
            macro_rules! scheduled16 {
                ($i:expr) => {
                    w0 = schedule(w0, w1, w2, w3);
                    rounds4!($i, w0);
                    w1 = schedule(w1, w2, w3, w0);
                    rounds4!($i + 1, w1);
                    w2 = schedule(w2, w3, w0, w1);
                    rounds4!($i + 2, w2);
                    w3 = schedule(w3, w0, w1, w2);
                    rounds4!($i + 3, w3);
                };
            }
            rounds4!(0, w0);
            rounds4!(1, w1);
            rounds4!(2, w2);
            rounds4!(3, w3);
            scheduled16!(4);
            scheduled16!(8);
            scheduled16!(12);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the loads above.
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

/// Expands a 32-byte seed into `len` pseudo-random bytes by counter-mode
/// hashing (`SHA-256(seed || ctr)`), the XOF stand-in the KEM uses.
pub fn expand(seed: &Digest, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut ctr = 0u32;
    while out.len() < len {
        let mut buf = [0u8; 36];
        buf[..32].copy_from_slice(seed);
        buf[32..].copy_from_slice(&ctr.to_be_bytes());
        out.extend_from_slice(&sha256(&buf));
        ctr += 1;
    }
    out.truncate(len);
    out
}

/// Lowercase hex rendering of a digest.
pub fn hex(d: &Digest) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_boundaries() {
        // Lengths around the 55/56/64-byte padding edges must all work.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5Au8; len];
            let d1 = sha256(&data);
            let d2 = sha256(&data);
            assert_eq!(d1, d2);
            // Flip one byte → different digest.
            let mut other = data.clone();
            other[len / 2] ^= 1;
            assert_ne!(sha256(&other), d1, "len = {len}");
        }
    }

    /// Test hook, in the style of `ntt::merged`'s `run_half_as`: every
    /// compressor this host can run. Says so on stderr when the fast
    /// path had to be skipped, so a run without SHA-NI never passes it
    /// silently.
    fn compressors() -> Vec<Compressor> {
        let all = [Compressor::Portable, Compressor::ShaNi];
        let run: Vec<Compressor> = all.iter().filter_map(|c| c.if_supported()).collect();
        for c in all.iter().filter(|c| !run.contains(c)) {
            eprintln!("hash: {c:?} compressor skipped: not supported by this CPU");
        }
        run
    }

    fn sha256_as(c: Compressor, data: &[u8]) -> Digest {
        let mut h = Sha256::with(c);
        h.update(data);
        h.finalize()
    }

    /// FIPS 180-4 padding spelled out on a byte vector, independent of
    /// the streaming code, over the portable compressor.
    fn reference(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn compressors_agree_on_every_length_through_1024() {
        let data = pattern(1024);
        for c in compressors() {
            for len in 0..=1024 {
                assert_eq!(
                    sha256_as(c, &data[..len]),
                    reference(&data[..len]),
                    "{c:?}, len = {len}"
                );
            }
        }
    }

    #[test]
    fn compressors_match_fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
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
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (data, want) in vectors {
            assert_eq!(hex(&sha256(data)), want, "{} bytes", data.len());
        }
        for c in compressors() {
            for (data, want) in vectors {
                assert_eq!(
                    hex(&sha256_as(c, data)),
                    want,
                    "{c:?}, {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn streaming_split_at_every_offset_matches_one_shot() {
        let data = pattern(300);
        for c in compressors() {
            let whole = sha256_as(c, &data);
            for cut in 0..=data.len() {
                let mut h = Sha256::with(c);
                h.update(&data[..cut]);
                h.update(&data[cut..]);
                assert_eq!(h.finalize(), whole, "{c:?}, cut = {cut}");
            }
        }
    }

    #[test]
    fn word_updates_hash_big_endian_bytes() {
        let words: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        for take in [0usize, 1, 7, 64, 65, 200] {
            let mut h = Sha256::tagged(b"pk");
            h.update_u64_be(&words[..take]);
            assert_eq!(
                h.finalize(),
                sha256_tagged(b"pk", &bytes[..8 * take]),
                "{take}"
            );
        }
    }

    #[test]
    fn tagged_separates_domains() {
        assert_ne!(
            sha256_tagged(b"enc", b"data"),
            sha256_tagged(b"key", b"data")
        );
        // And differs from a naive concatenation collision.
        assert_ne!(sha256_tagged(b"ab", b"c"), sha256_tagged(b"a", b"bc"));
    }

    #[test]
    fn expand_is_deterministic_and_long() {
        let seed = sha256(b"seed");
        let a = expand(&seed, 100);
        let b = expand(&seed, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let c = expand(&seed, 33);
        assert_eq!(&a[..33], &c[..]);
        // Reasonably balanced bits.
        let ones: u32 = a.iter().map(|b| b.count_ones()).sum();
        assert!((300..500).contains(&ones), "{ones} ones in 800 bits");
    }
}
