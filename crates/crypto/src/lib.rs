//! From-scratch symmetric cryptography substrate for the Sealed Bottle
//! protocols.
//!
//! The paper (Zhang & Li, ICDCS'13) builds its entire private-matching
//! mechanism out of two symmetric primitives — SHA-256 and AES-256 — plus a
//! handful of derived constructions (HMAC for message authentication, HKDF
//! for session-key derivation). This crate implements all of them from the
//! FIPS specifications, with no external cryptography dependencies, and
//! validates them against the official NIST test vectors in the unit tests.
//!
//! # Modules
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, incremental and one-shot, with
//!   midstate cloning ([`sha256::Sha256::finalize_suffix`]).
//! * [`aes`] — FIPS 197 AES-128/AES-256 with two selectable backends
//!   ([`aes::CipherBackend`]): the S-box differential oracle (default)
//!   and a T-table backend with the equivalent-inverse-cipher decrypt
//!   schedule.
//! * [`modes`] — CTR and CBC (PKCS#7) modes of operation.
//! * [`hmac`] — RFC 2104 HMAC-SHA256 (ipad/opad kept as midstates).
//! * [`kdf`] — RFC 5869 HKDF-SHA256.
//! * [`ct`] — constant-time byte-string comparison.
//!
//! The speed/side-channel tradeoffs of the fast paths (T-tables,
//! midstate caching) are documented in `docs/CRYPTO.md` at the repo
//! root; every fast path is pinned to its reference implementation by
//! differential tests.
//!
//! # Example
//!
//! ```
//! use msb_crypto::sha256::Sha256;
//! use msb_crypto::modes::Ctr;
//! use msb_crypto::aes::Aes256;
//!
//! // Derive a 256-bit key from some secret material, then encrypt with it.
//! let key = Sha256::digest(b"shared secret material");
//! let cipher = Aes256::new(&key);
//! let nonce = [7u8; 16];
//! let mut buf = b"message in a sealed bottle".to_vec();
//! Ctr::new(&cipher, nonce).apply_keystream(&mut buf);
//! // CTR is an involution under the same key/nonce.
//! Ctr::new(&cipher, nonce).apply_keystream(&mut buf);
//! assert_eq!(&buf, b"message in a sealed bottle");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ct;
pub mod hmac;
pub mod kdf;
pub mod modes;
pub mod sha256;

/// Errors produced by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// A ciphertext was shorter than the minimum framing requires.
    CiphertextTooShort,
    /// CBC ciphertext length was not a multiple of the block size.
    NotBlockAligned,
    /// PKCS#7 padding was malformed on decryption.
    BadPadding,
    /// An authentication tag failed to verify.
    BadTag,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::CiphertextTooShort => write!(f, "ciphertext too short"),
            CryptoError::NotBlockAligned => {
                write!(f, "ciphertext length is not a multiple of the block size")
            }
            CryptoError::BadPadding => write!(f, "malformed PKCS#7 padding"),
            CryptoError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for CryptoError {}
