//! Profiles, profile vectors and profile keys (paper Eqs. 2–3).
//!
//! A [`Profile`] is a user's attribute set; its [`ProfileVector`] is the
//! sorted list of attribute hashes `H_k = [h¹, …, hᵐ]`; the
//! [`ProfileKey`] is `K = H(H_k)` — hashing the concatenated, sorted
//! hashes — used directly as an AES-256 key.

use crate::attribute::{Attribute, AttributeHash};
use msb_crypto::sha256::Sha256;
use std::collections::BTreeSet;
use std::fmt;

/// A user's profile: a de-duplicated set of attributes.
///
/// # Example
///
/// ```
/// use msb_profile::attribute::Attribute;
/// use msb_profile::profile::Profile;
///
/// let p = Profile::from_attributes(vec![
///     Attribute::new("sex", "male"),
///     Attribute::new("interest", "basketball"),
/// ]);
/// assert_eq!(p.len(), 2);
/// let key = p.vector().profile_key();
/// assert_eq!(key.as_bytes().len(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    attributes: BTreeSet<Attribute>,
    vector: ProfileVector,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a profile from attributes, de-duplicating and pre-computing
    /// the sorted hash vector (the paper notes hashes are "calculated once
    /// and used repetitively until the attributes are updated").
    pub fn from_attributes(attrs: impl IntoIterator<Item = Attribute>) -> Self {
        let attributes: BTreeSet<Attribute> = attrs.into_iter().collect();
        let vector = ProfileVector::from_hashes(attributes.iter().map(Attribute::hash));
        Profile { attributes, vector }
    }

    /// Adds one attribute, keeping the vector in sync.
    pub fn insert(&mut self, attr: Attribute) {
        if self.attributes.insert(attr) {
            self.rebuild();
        }
    }

    /// Removes an attribute, keeping the vector in sync.
    pub fn remove(&mut self, attr: &Attribute) -> bool {
        let removed = self.attributes.remove(attr);
        if removed {
            self.rebuild();
        }
        removed
    }

    fn rebuild(&mut self) {
        self.vector = ProfileVector::from_hashes(self.attributes.iter().map(Attribute::hash));
    }

    /// Number of attributes `m_k`.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Whether the profile contains an equivalent (normalized) attribute.
    pub fn contains(&self, attr: &Attribute) -> bool {
        let h = attr.hash();
        self.vector.hashes().binary_search(&h).is_ok()
    }

    /// Iterates over the attributes.
    pub fn iter(&self) -> impl Iterator<Item = &Attribute> {
        self.attributes.iter()
    }

    /// The sorted profile vector `H_k` (pre-computed).
    pub fn vector(&self) -> &ProfileVector {
        &self.vector
    }

    /// Shared attribute count with another profile — the evaluation's
    /// "similarity" ground truth (Fig. 6).
    pub fn shared_attributes(&self, other: &Profile) -> usize {
        let mine = self.vector.hashes();
        other.vector.hashes().iter().filter(|h| mine.binary_search(h).is_ok()).count()
    }
}

impl FromIterator<Attribute> for Profile {
    fn from_iter<T: IntoIterator<Item = Attribute>>(iter: T) -> Self {
        Self::from_attributes(iter)
    }
}

impl Extend<Attribute> for Profile {
    fn extend<T: IntoIterator<Item = Attribute>>(&mut self, iter: T) {
        let mut changed = false;
        for attr in iter {
            changed |= self.attributes.insert(attr);
        }
        if changed {
            self.rebuild();
        }
    }
}

/// A sorted vector of attribute hashes `H_k` (paper Eq. 2).
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct ProfileVector {
    hashes: Vec<AttributeHash>,
}

impl ProfileVector {
    /// Builds from hashes, sorting and de-duplicating.
    pub fn from_hashes(hashes: impl IntoIterator<Item = AttributeHash>) -> Self {
        let mut hashes: Vec<AttributeHash> = hashes.into_iter().collect();
        hashes.sort_unstable();
        hashes.dedup();
        ProfileVector { hashes }
    }

    /// The sorted hashes.
    pub fn hashes(&self) -> &[AttributeHash] {
        &self.hashes
    }

    /// Number of entries `m`.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The profile key `K = H(H_k)` (paper Eq. 3): SHA-256 over the
    /// concatenated sorted hashes.
    pub fn profile_key(&self) -> ProfileKey {
        ProfileKey::from_hashes(&self.hashes)
    }

    /// Remainders of every entry mod `p` (paper Eq. 4) in vector order.
    pub fn remainders(&self, p: u64) -> Vec<u64> {
        self.hashes.iter().map(|h| h.remainder(p)).collect()
    }
}

/// A 256-bit profile key — used directly as an AES-256 key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileKey([u8; 32]);

impl ProfileKey {
    /// `H(h¹ ‖ h² ‖ … ‖ hᵐ)` over sorted hashes.
    pub fn from_hashes(hashes: &[AttributeHash]) -> Self {
        Self::from_midstate(&Self::midstate(&[]), hashes)
    }

    /// A SHA-256 midstate that has absorbed `prefix`. The candidate
    /// enumeration shares the necessary-block prefix across consecutive
    /// assignments, so deriving keys via [`ProfileKey::from_midstate`]
    /// skips re-hashing it (32 bytes per attribute, i.e. one saved
    /// compression per two prefix hashes).
    pub fn midstate(prefix: &[AttributeHash]) -> Sha256 {
        let mut h = Sha256::new();
        for hash in prefix {
            h.update(hash.as_bytes());
        }
        h
    }

    /// Completes a key from a [`ProfileKey::midstate`] plus the
    /// remaining hashes. Equals `from_hashes(prefix ‖ suffix)` exactly
    /// (the midstate contract, pinned by differential tests).
    pub fn from_midstate(midstate: &Sha256, suffix: &[AttributeHash]) -> Self {
        let mut h = midstate.clone();
        for hash in suffix {
            h.update(hash.as_bytes());
        }
        ProfileKey(h.finalize())
    }

    /// The key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for ProfileKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material in full.
        write!(f, "ProfileKey({:02x}{:02x}…)", self.0[0], self.0[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(c: &str, v: &str) -> Attribute {
        Attribute::new(c, v)
    }

    #[test]
    fn vector_is_sorted_and_deduped() {
        let p = Profile::from_attributes(vec![
            attr("b", "2"),
            attr("a", "1"),
            attr("B", "2"), // duplicate after normalization
        ]);
        let v = p.vector();
        assert_eq!(v.len(), 2);
        assert!(v.hashes().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn key_independent_of_insertion_order() {
        let p1 = Profile::from_attributes(vec![attr("a", "1"), attr("b", "2"), attr("c", "3")]);
        let p2 = Profile::from_attributes(vec![attr("c", "3"), attr("a", "1"), attr("b", "2")]);
        assert_eq!(p1.vector().profile_key(), p2.vector().profile_key());
    }

    #[test]
    fn key_changes_with_any_attribute() {
        let p1 = Profile::from_attributes(vec![attr("a", "1"), attr("b", "2")]);
        let p2 = Profile::from_attributes(vec![attr("a", "1"), attr("b", "3")]);
        assert_ne!(p1.vector().profile_key(), p2.vector().profile_key());
    }

    #[test]
    fn empty_profile_has_key() {
        // Even an empty vector hashes to something (never used in matching
        // — requests require at least one attribute).
        let p = Profile::new();
        assert!(p.is_empty());
        assert_eq!(p.vector().profile_key().as_bytes(), &Sha256::digest(b""));
    }

    #[test]
    fn midstate_key_equals_from_hashes_at_all_splits() {
        let hashes: Vec<AttributeHash> = (0..7).map(|i| attr("t", &i.to_string()).hash()).collect();
        let expect = ProfileKey::from_hashes(&hashes);
        // Oracle: direct SHA-256 over the concatenation.
        let mut h = Sha256::new();
        for hash in &hashes {
            h.update(hash.as_bytes());
        }
        assert_eq!(expect.as_bytes(), &h.finalize());
        for cut in 0..=hashes.len() {
            let mid = ProfileKey::midstate(&hashes[..cut]);
            assert_eq!(ProfileKey::from_midstate(&mid, &hashes[cut..]), expect, "cut {cut}");
            // The midstate is reusable (not consumed).
            assert_eq!(ProfileKey::from_midstate(&mid, &hashes[cut..]), expect, "cut {cut} reuse");
        }
    }

    #[test]
    fn insert_remove_keep_vector_synced() {
        let mut p = Profile::new();
        p.insert(attr("a", "1"));
        p.insert(attr("b", "2"));
        let with_both = p.vector().profile_key();
        assert!(p.remove(&attr("b", "2")));
        assert!(!p.remove(&attr("b", "2")));
        p.insert(attr("b", "2"));
        assert_eq!(p.vector().profile_key(), with_both);
    }

    #[test]
    fn contains_uses_normalized_equality() {
        let p = Profile::from_attributes(vec![attr("interest", "Computer Games")]);
        assert!(p.contains(&attr("Interest", "computergame")));
        assert!(!p.contains(&attr("interest", "chess")));
    }

    #[test]
    fn shared_attributes_counts_intersection() {
        let p1 = Profile::from_attributes(vec![attr("a", "1"), attr("b", "2"), attr("c", "3")]);
        let p2 = Profile::from_attributes(vec![attr("b", "2"), attr("c", "3"), attr("d", "4")]);
        assert_eq!(p1.shared_attributes(&p2), 2);
        assert_eq!(p2.shared_attributes(&p1), 2);
        assert_eq!(p1.shared_attributes(&p1), 3);
    }

    #[test]
    fn extend_and_collect() {
        let mut p: Profile = vec![attr("a", "1")].into_iter().collect();
        p.extend(vec![attr("b", "2"), attr("c", "3")]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn remainders_in_range() {
        let p = Profile::from_attributes((0..10).map(|i| attr("t", &i.to_string())));
        for r in p.vector().remainders(11) {
            assert!(r < 11);
        }
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = Profile::from_attributes(vec![attr("a", "1")]).vector().profile_key();
        let s = format!("{k:?}");
        assert!(s.len() < 24, "debug form must be truncated: {s}");
    }
}
