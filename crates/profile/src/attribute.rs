//! Attributes and attribute hashes (paper §II-A, Eq. 2).
//!
//! Every attribute has a *category* header and a *value* field
//! (`interest:basketball`). Equality for matching purposes is equality of
//! the SHA-256 hash of the normalized `category:value` string.

use crate::normalize::Normalizer;
use msb_bignum::BigUint;
use msb_crypto::sha256::Sha256;
use std::fmt;

/// A profile attribute: a category header plus a value.
///
/// # Example
///
/// ```
/// use msb_profile::attribute::Attribute;
///
/// let a = Attribute::new("Interest", "Computer Games");
/// let b = Attribute::new("interest", "computergame");
/// assert_eq!(a.hash(), b.hash()); // normalization makes them equal
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Attribute {
    category: String,
    value: String,
}

impl Attribute {
    /// Creates an attribute from raw user input.
    pub fn new(category: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute { category: category.into(), value: value.into() }
    }

    /// The raw category header.
    pub fn category(&self) -> &str {
        &self.category
    }

    /// The raw value field.
    pub fn value(&self) -> &str {
        &self.value
    }

    /// Canonical normalized form `category:value` using the default
    /// normalizer.
    pub fn canonical(&self) -> String {
        self.canonical_with(&Normalizer::default())
    }

    /// Canonical normalized form with a caller-supplied normalizer (both
    /// parties in a match must use the same one).
    pub fn canonical_with(&self, normalizer: &Normalizer) -> String {
        format!("{}:{}", normalizer.normalize(&self.category), normalizer.normalize(&self.value))
    }

    /// SHA-256 hash of the canonical form — the `h = H(a)` of Eq. 2.
    pub fn hash(&self) -> AttributeHash {
        AttributeHash(Sha256::digest(self.canonical().as_bytes()))
    }

    /// Hash of the canonical form bound to extra context bytes, used for
    /// the location-bound static attributes of §III-D-3:
    /// `H(attribute ‖ dynamic key)`.
    pub fn hash_bound(&self, context: &[u8]) -> AttributeHash {
        AttributeHash(Sha256::digest_parts(&[self.canonical().as_bytes(), b"|", context]))
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.category, self.value)
    }
}

/// A 256-bit attribute hash, ordered lexicographically (big-endian), which
/// is the sort order of profile vectors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttributeHash([u8; 32]);

impl AttributeHash {
    /// Wraps raw digest bytes (used when hashes arrive from solving the
    /// hint system rather than from hashing an attribute).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        AttributeHash(bytes)
    }

    /// The digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The hash as an integer for modular arithmetic — remainder-vector
    /// entries are `h mod p` over this value.
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_be_bytes(&self.0)
    }

    /// Recovers a hash from a field element produced by the hint-matrix
    /// solve. Returns `None` if the element does not fit in 256 bits
    /// (which proves the candidate assignment was wrong).
    pub fn from_biguint(v: &BigUint) -> Option<Self> {
        if v.bit_len() > 256 {
            return None;
        }
        let bytes = v.to_be_bytes_padded(32);
        let arr: [u8; 32] = bytes.try_into().expect("padded to 32 bytes");
        Some(AttributeHash(arr))
    }

    /// The remainder `h mod p` (Eq. 4).
    pub fn remainder(&self, p: u64) -> u64 {
        self.to_biguint().rem_u64(p)
    }
}

impl fmt::Debug for AttributeHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AttributeHash(")?;
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_equivalence() {
        let a = Attribute::new("Interest", "Basket-Ball");
        let b = Attribute::new("interest", "basketball");
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn category_matters() {
        let a = Attribute::new("interest", "go");
        let b = Attribute::new("hometown", "go");
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn separator_cannot_be_spoofed() {
        // "a:bc" vs "ab:c" must differ even though the concatenation of
        // normalized parts could collide without the separator.
        let a = Attribute::new("a", "bc");
        let b = Attribute::new("ab", "c");
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn bound_hash_differs_from_plain() {
        let a = Attribute::new("interest", "jazz");
        assert_ne!(a.hash(), a.hash_bound(b"epoch-1"));
        assert_ne!(a.hash_bound(b"epoch-1"), a.hash_bound(b"epoch-2"));
    }

    #[test]
    fn biguint_roundtrip() {
        let h = Attribute::new("interest", "jazz").hash();
        let v = h.to_biguint();
        assert_eq!(AttributeHash::from_biguint(&v), Some(h));
    }

    #[test]
    fn from_biguint_rejects_oversize() {
        let too_big = BigUint::one().shl_bits(256);
        assert_eq!(AttributeHash::from_biguint(&too_big), None);
    }

    #[test]
    fn remainder_matches_biguint_mod() {
        let h = Attribute::new("interest", "opera").hash();
        for p in [11u64, 23, 97] {
            assert_eq!(h.remainder(p), h.to_biguint().rem_u64(p));
        }
    }

    #[test]
    fn display_shows_raw_form() {
        let a = Attribute::new("Interest", "Computer Games");
        assert_eq!(a.to_string(), "Interest:Computer Games");
    }

    #[test]
    fn ordering_is_bytewise() {
        let mut h1 = [0u8; 32];
        let mut h2 = [0u8; 32];
        h1[0] = 1;
        h2[0] = 2;
        assert!(AttributeHash::from_bytes(h1) < AttributeHash::from_bytes(h2));
    }
}
