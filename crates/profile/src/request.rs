//! Request profiles: the initiator's flexible search specification
//! (paper §II-A) and its sealed form.
//!
//! A request `A_t = (N_t, O_t)` has α necessary attributes — all required —
//! and β + γ optional attributes of which at least β must be owned. The
//! similarity threshold is θ = (α + β) / m_t; γ = 0 demands a perfect
//! match.

use crate::attribute::{Attribute, AttributeHash};
use crate::hint::{HintConstruction, HintMatrix};
use crate::profile::{Profile, ProfileKey};
use crate::remainder::RemainderVector;
use rand::Rng;
use std::collections::BTreeSet;

/// Errors building a request profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request contains no attributes at all.
    Empty,
    /// β exceeds the number of optional attributes.
    BetaTooLarge {
        /// Requested β.
        beta: usize,
        /// Available optional attributes.
        optional: usize,
    },
    /// An attribute appears in both the necessary and optional sets.
    Overlap(Attribute),
    /// The remainder modulus must exceed the request size (paper: a prime
    /// `p > m_t`).
    ModulusTooSmall {
        /// Provided modulus.
        p: u64,
        /// Request size m_t.
        mt: usize,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Empty => write!(f, "request has no attributes"),
            RequestError::BetaTooLarge { beta, optional } => {
                write!(f, "beta {beta} exceeds optional attribute count {optional}")
            }
            RequestError::Overlap(a) => {
                write!(f, "attribute {a} is both necessary and optional")
            }
            RequestError::ModulusTooSmall { p, mt } => {
                write!(f, "remainder modulus {p} must exceed request size {mt}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// The initiator's request: necessary and optional attribute sets plus the
/// minimum optional count β.
///
/// # Example
///
/// ```
/// use msb_profile::attribute::Attribute;
/// use msb_profile::request::RequestProfile;
///
/// let r = RequestProfile::new(
///     vec![Attribute::new("sex", "male")],
///     vec![Attribute::new("interest", "jazz"), Attribute::new("interest", "go")],
///     1,
/// )?;
/// assert_eq!(r.alpha(), 1);
/// assert_eq!(r.gamma(), 1);
/// assert!((r.theta() - 2.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), msb_profile::request::RequestError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestProfile {
    necessary: Vec<Attribute>,
    optional: Vec<Attribute>,
    beta: usize,
}

impl RequestProfile {
    /// Creates a fuzzy request. Duplicates within each set are removed; an
    /// attribute in both sets is an error.
    ///
    /// # Errors
    ///
    /// See [`RequestError`].
    pub fn new(
        necessary: Vec<Attribute>,
        optional: Vec<Attribute>,
        beta: usize,
    ) -> Result<Self, RequestError> {
        let necessary: Vec<Attribute> = dedup(necessary);
        let optional: Vec<Attribute> = dedup(optional);
        if necessary.is_empty() && optional.is_empty() {
            return Err(RequestError::Empty);
        }
        if beta > optional.len() {
            return Err(RequestError::BetaTooLarge { beta, optional: optional.len() });
        }
        let nec_hashes: BTreeSet<AttributeHash> = necessary.iter().map(Attribute::hash).collect();
        if let Some(dup) = optional.iter().find(|a| nec_hashes.contains(&a.hash())) {
            return Err(RequestError::Overlap(dup.clone()));
        }
        Ok(RequestProfile { necessary, optional, beta })
    }

    /// A perfect-match request: every attribute necessary, γ = 0.
    pub fn exact(attributes: Vec<Attribute>) -> Result<Self, RequestError> {
        Self::new(attributes, Vec::new(), 0)
    }

    /// A pure-threshold request (α = 0): at least `beta` of `attributes`.
    /// This is the paper's "cardinality exceeds threshold" mode (PPL2 with
    /// α = 0).
    pub fn threshold(attributes: Vec<Attribute>, beta: usize) -> Result<Self, RequestError> {
        Self::new(Vec::new(), attributes, beta)
    }

    /// α — necessary attribute count.
    pub fn alpha(&self) -> usize {
        self.necessary.len()
    }

    /// β — minimum optional matches.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// γ — tolerated optional misses.
    pub fn gamma(&self) -> usize {
        self.optional.len() - self.beta
    }

    /// m_t — total attribute count.
    pub fn len(&self) -> usize {
        self.necessary.len() + self.optional.len()
    }

    /// Whether the request is empty (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// θ = (α + β) / m_t.
    pub fn theta(&self) -> f64 {
        (self.alpha() + self.beta) as f64 / self.len() as f64
    }

    /// Necessary attributes.
    pub fn necessary(&self) -> &[Attribute] {
        &self.necessary
    }

    /// Optional attributes.
    pub fn optional(&self) -> &[Attribute] {
        &self.optional
    }

    /// Whether `profile` truly satisfies this request (ground truth, used
    /// by the evaluation and by tests — the protocols never see this).
    pub fn is_satisfied_by(&self, profile: &Profile) -> bool {
        self.necessary.iter().all(|a| profile.contains(a))
            && self.optional.iter().filter(|a| profile.contains(a)).count() >= self.beta
    }

    /// The hashed request vector (sorted blocks).
    pub fn vector(&self) -> RequestVector {
        RequestVector::from_request(self)
    }

    /// Convenience: vector + remainder vector + hint matrix + profile key
    /// in one call, using the default (Cauchy) hint construction.
    ///
    /// # Panics
    ///
    /// Panics if `p <= m_t` (the paper requires a prime `p > m_t`); use
    /// [`RequestProfile::try_seal`] for a fallible version.
    pub fn seal<R: Rng + ?Sized>(&self, p: u64, rng: &mut R) -> SealedRequest {
        self.try_seal(p, HintConstruction::Cauchy, rng).expect("modulus must exceed request size")
    }

    /// Fallible, construction-selectable version of
    /// [`RequestProfile::seal`].
    ///
    /// # Errors
    ///
    /// [`RequestError::ModulusTooSmall`] if `p <= m_t`.
    pub fn try_seal<R: Rng + ?Sized>(
        &self,
        p: u64,
        construction: HintConstruction,
        rng: &mut R,
    ) -> Result<SealedRequest, RequestError> {
        if p <= self.len() as u64 {
            return Err(RequestError::ModulusTooSmall { p, mt: self.len() });
        }
        let vector = self.vector();
        let remainder = vector.remainder_vector(p);
        let hint = vector.hint_matrix(construction, rng);
        let key = vector.profile_key();
        Ok(SealedRequest { vector, remainder, hint, key })
    }
}

fn dedup(attrs: Vec<Attribute>) -> Vec<Attribute> {
    let mut seen: BTreeSet<AttributeHash> = BTreeSet::new();
    attrs.into_iter().filter(|a| seen.insert(a.hash())).collect()
}

/// The hashed form of a request: sorted necessary block ‖ sorted optional
/// block. Order within each block is ascending hash order, the order the
/// order-consistency rule (Eq. 8) refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestVector {
    necessary: Vec<AttributeHash>,
    optional: Vec<AttributeHash>,
    beta: usize,
}

impl RequestVector {
    fn from_request(req: &RequestProfile) -> Self {
        let mut necessary: Vec<AttributeHash> = req.necessary.iter().map(Attribute::hash).collect();
        let mut optional: Vec<AttributeHash> = req.optional.iter().map(Attribute::hash).collect();
        necessary.sort_unstable();
        optional.sort_unstable();
        RequestVector { necessary, optional, beta: req.beta }
    }

    /// Builds directly from hash blocks (used by the location-privacy
    /// layer, whose "attributes" are lattice points).
    pub fn from_hashes(
        mut necessary: Vec<AttributeHash>,
        mut optional: Vec<AttributeHash>,
        beta: usize,
    ) -> Self {
        necessary.sort_unstable();
        necessary.dedup();
        optional.sort_unstable();
        optional.dedup();
        assert!(beta <= optional.len(), "beta exceeds optional count");
        RequestVector { necessary, optional, beta }
    }

    /// The sorted necessary block.
    pub fn necessary(&self) -> &[AttributeHash] {
        &self.necessary
    }

    /// The sorted optional block.
    pub fn optional(&self) -> &[AttributeHash] {
        &self.optional
    }

    /// β.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// γ.
    pub fn gamma(&self) -> usize {
        self.optional.len() - self.beta
    }

    /// m_t.
    pub fn len(&self) -> usize {
        self.necessary.len() + self.optional.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The concatenated full vector (necessary ‖ optional).
    pub fn full(&self) -> Vec<AttributeHash> {
        let mut v = self.necessary.clone();
        v.extend_from_slice(&self.optional);
        v
    }

    /// The request profile key `K_t = H(H_t)` (Eq. 3). **Never transmitted.**
    pub fn profile_key(&self) -> ProfileKey {
        ProfileKey::from_hashes(&self.full())
    }

    /// The remainder vector for modulus `p` (Eq. 4).
    pub fn remainder_vector(&self, p: u64) -> RemainderVector {
        RemainderVector::new(p, &self.necessary, &self.optional, self.beta)
    }

    /// The hint matrix, or `None` for perfect-match requests (γ = 0).
    pub fn hint_matrix<R: Rng + ?Sized>(
        &self,
        construction: HintConstruction,
        rng: &mut R,
    ) -> Option<HintMatrix> {
        if self.gamma() == 0 {
            return None;
        }
        Some(HintMatrix::generate(&self.optional, self.beta, construction, rng))
    }
}

/// Everything the initiator derives from a request: the private vector and
/// key, plus the public remainder vector and hint matrix.
#[derive(Debug, Clone)]
pub struct SealedRequest {
    /// The request vector — **private to the initiator**.
    pub vector: RequestVector,
    /// Public: the remainder vector.
    pub remainder: RemainderVector,
    /// Public: the hint matrix (fuzzy requests only).
    pub hint: Option<HintMatrix>,
    /// The profile key — private; used to encrypt the sealed message.
    pub key: ProfileKey,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attr(c: &str, v: &str) -> Attribute {
        Attribute::new(c, v)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn validation_errors() {
        assert_eq!(RequestProfile::new(vec![], vec![], 0), Err(RequestError::Empty));
        assert!(matches!(
            RequestProfile::new(vec![], vec![attr("a", "1")], 2),
            Err(RequestError::BetaTooLarge { .. })
        ));
        assert!(matches!(
            RequestProfile::new(vec![attr("a", "1")], vec![attr("A", "1")], 0),
            Err(RequestError::Overlap(_))
        ));
    }

    #[test]
    fn dedup_within_sets() {
        let r = RequestProfile::new(
            vec![attr("a", "1"), attr("A", "1")],
            vec![attr("b", "2"), attr("b", "2"), attr("c", "3")],
            1,
        )
        .unwrap();
        assert_eq!(r.alpha(), 1);
        assert_eq!(r.optional().len(), 2);
    }

    #[test]
    fn exact_request_has_gamma_zero() {
        let r = RequestProfile::exact(vec![attr("a", "1"), attr("b", "2")]).unwrap();
        assert_eq!(r.gamma(), 0);
        assert!((r.theta() - 1.0).abs() < 1e-12);
        let sealed = r.seal(11, &mut rng());
        assert!(sealed.hint.is_none());
    }

    #[test]
    fn threshold_request() {
        let r = RequestProfile::threshold(vec![attr("a", "1"), attr("b", "2"), attr("c", "3")], 2)
            .unwrap();
        assert_eq!(r.alpha(), 0);
        assert_eq!(r.beta(), 2);
        assert_eq!(r.gamma(), 1);
    }

    #[test]
    fn seal_rejects_small_modulus() {
        let r = RequestProfile::exact(vec![attr("a", "1"), attr("b", "2")]).unwrap();
        assert!(matches!(
            r.try_seal(2, HintConstruction::Cauchy, &mut rng()),
            Err(RequestError::ModulusTooSmall { .. })
        ));
    }

    #[test]
    fn is_satisfied_by_ground_truth() {
        let r = RequestProfile::new(
            vec![attr("prof", "engineer")],
            vec![attr("i", "jazz"), attr("i", "go"), attr("i", "tea")],
            2,
        )
        .unwrap();
        let yes = Profile::from_attributes(vec![
            attr("prof", "engineer"),
            attr("i", "jazz"),
            attr("i", "go"),
        ]);
        let missing_necessary =
            Profile::from_attributes(vec![attr("i", "jazz"), attr("i", "go"), attr("i", "tea")]);
        let too_few_optional =
            Profile::from_attributes(vec![attr("prof", "engineer"), attr("i", "jazz")]);
        assert!(r.is_satisfied_by(&yes));
        assert!(!r.is_satisfied_by(&missing_necessary));
        assert!(!r.is_satisfied_by(&too_few_optional));
    }

    #[test]
    fn vector_blocks_sorted() {
        let r = RequestProfile::new(
            vec![attr("z", "9"), attr("a", "1")],
            vec![attr("m", "5"), attr("b", "2"), attr("q", "7")],
            2,
        )
        .unwrap();
        let v = r.vector();
        assert!(v.necessary().windows(2).all(|w| w[0] < w[1]));
        assert!(v.optional().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(v.full().len(), 5);
    }

    #[test]
    fn key_stable_across_seals() {
        let r = RequestProfile::new(vec![attr("a", "1")], vec![attr("b", "2"), attr("c", "3")], 1)
            .unwrap();
        let s1 = r.seal(11, &mut rng());
        let s2 = r.seal(11, &mut StdRng::seed_from_u64(99));
        assert_eq!(s1.key, s2.key, "profile key depends only on attributes");
    }

    #[test]
    fn matching_profile_key_equality() {
        // The profile key of an exact request equals the profile key of a
        // profile holding exactly those attributes — the basic mechanism's
        // core identity.
        let attrs = vec![attr("a", "1"), attr("b", "2"), attr("c", "3")];
        let r = RequestProfile::exact(attrs.clone()).unwrap();
        let p = Profile::from_attributes(attrs);
        assert_eq!(r.vector().profile_key(), p.vector().profile_key());
    }

    #[test]
    fn from_hashes_validates_beta() {
        let hs: Vec<AttributeHash> = (0..3).map(|i| attr("x", &i.to_string()).hash()).collect();
        let v = RequestVector::from_hashes(vec![], hs.clone(), 3);
        assert_eq!(v.gamma(), 0);
    }
}
