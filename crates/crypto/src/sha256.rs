//! SHA-256 as specified in FIPS 180-4.
//!
//! Both an incremental hasher ([`Sha256`]) and a one-shot convenience
//! ([`Sha256::digest`]) are provided. The attribute-hashing step of the
//! Sealed Bottle mechanism (paper Eq. 2) and the profile-key derivation
//! (Eq. 3) are both instances of this function.
//!
//! **Midstate caching** serves the candidate-enumeration hot loop (see
//! `docs/CRYPTO.md`): [`Sha256`] is `Clone` with no heap state
//! (104 bytes), and the *midstate contract* holds: cloning a hasher
//! after absorbing a prefix and then absorbing a suffix yields exactly
//! the digest of the concatenation. A fixed per-profile prefix is
//! therefore absorbed once and each candidate pays only its final
//! compressions ([`Sha256::finalize_suffix`]).

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of a SHA-256 message block in bytes.
pub const BLOCK_LEN: usize = 64;

/// A SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

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

/// Incremental SHA-256 hasher.
///
/// Cloning is cheap (104 bytes, no heap) and a clone continues the hash
/// independently — this is the midstate mechanism used by the matching
/// loop's profile-key derivation.
///
/// # Example
///
/// ```
/// use msb_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// // Midstate: the clone and the original diverge from here.
/// let digest = h.clone().finalize();
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// assert_eq!(digest, Sha256::digest(b"hello "));
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
        Sha256 { state: H0, buf: [0; BLOCK_LEN], buf_len: 0, total_len: 0 }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Digest of the concatenation of several byte strings, without an
    /// intermediate allocation.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Self::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while input.len() >= BLOCK_LEN {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(&input[..BLOCK_LEN]);
            self.compress(&block);
            input = &input[BLOCK_LEN..];
        }
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit
        // length — built as whole blocks rather than byte-at-a-time.
        let used = self.buf_len;
        let mut block = self.buf;
        block[used] = 0x80;
        if used + 1 > 56 {
            for b in &mut block[used + 1..] {
                *b = 0;
            }
            self.compress(&block);
            block = [0u8; BLOCK_LEN];
        } else {
            for b in &mut block[used + 1..56] {
                *b = 0;
            }
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Midstate convenience: digest of (everything absorbed so far) ‖
    /// `suffix`, without consuming the hasher. Equivalent to cloning,
    /// updating with `suffix`, and finalizing the clone.
    pub fn finalize_suffix(&self, suffix: &[u8]) -> Digest {
        let mut h = self.clone();
        h.update(suffix);
        h.finalize()
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
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

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Formats a digest as lowercase hex, handy for test vectors and debugging.
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: Digest) -> String {
        to_hex(&d)
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hex(Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn nist_448_bit_exact_padding_boundary() {
        // 56 bytes: padding spills into a second block.
        let data = [0x55u8; 56];
        let mut h = Sha256::new();
        h.update(&data);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn finalize_padding_all_residues() {
        // The bulk-padding finalize must agree with the spec at every
        // buffer residue, including both spill cases (55, 56, 63).
        for len in 0..130usize {
            let data: Vec<u8> = (0..len as u8).collect();
            let mut h = Sha256::new();
            h.update(&data);
            let d = h.finalize();
            // Independent check against the two-block NIST property:
            // re-hash via single-byte updates.
            let mut h2 = Sha256::new();
            for b in &data {
                h2.update(core::slice::from_ref(b));
            }
            assert_eq!(d, h2.finalize(), "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_all_splits() {
        let data: Vec<u8> = (0..=255u8).cycle().take(500).collect();
        let oneshot = Sha256::digest(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 499, 500] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn midstate_clone_continues_independently() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for cut in [0usize, 1, 32, 63, 64, 65, 128, 299, 300] {
            let mut prefix = Sha256::new();
            prefix.update(&data[..cut]);
            // finalize_suffix leaves the midstate reusable.
            assert_eq!(prefix.finalize_suffix(&data[cut..]), Sha256::digest(&data), "cut {cut}");
            assert_eq!(prefix.finalize_suffix(b""), Sha256::digest(&data[..cut]), "cut {cut}");
            let mut fork = prefix.clone();
            fork.update(&data[cut..]);
            assert_eq!(fork.finalize(), Sha256::digest(&data), "cut {cut}");
        }
    }

    #[test]
    fn digest_parts_equals_concat() {
        let a = b"nec".as_slice();
        let b = b"essary".as_slice();
        assert_eq!(Sha256::digest_parts(&[a, b]), Sha256::digest(b"necessary"));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"alice"), Sha256::digest(b"bob"));
    }

    #[test]
    fn to_hex_zero_padded() {
        let mut d = [0u8; 32];
        d[0] = 0x0a;
        assert!(to_hex(&d).starts_with("0a00"));
    }
}
