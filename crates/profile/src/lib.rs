//! Profile machinery for the Sealed Bottle private-matching mechanism
//! (paper §II–III).
//!
//! A user's profile is a set of `category:value` attributes. This crate
//! implements everything between raw attribute strings and the symmetric
//! key material the protocols need:
//!
//! * [`normalize`] — the profile-normalization pipeline of §III-B
//!   (lowercasing, whitespace/punctuation stripping, accent folding,
//!   number-to-words, plural-to-singular, abbreviation expansion), so that
//!   attributes that users would consider equal hash identically.
//! * [`attribute`] — the [`attribute::Attribute`] type and its
//!   SHA-256 [`attribute::AttributeHash`] (Eq. 2).
//! * [`profile`] — sorted [`profile::ProfileVector`]s and
//!   the derived [`profile::ProfileKey`] (Eq. 3).
//! * [`request`] — the initiator's flexible request `A_t = (N_t, O_t)` with
//!   necessary/optional attributes and similarity threshold θ (§II-A).
//! * [`remainder`] — the remainder vector (Eq. 4, Theorem 1) and the
//!   candidate fast check.
//! * [`matching`] — candidate-profile-vector enumeration (Eqs. 5–8) and
//!   candidate-key derivation.
//! * [`hint`] — the hint matrix `M = [C, B]`, `C = [I | R]` (Eqs. 9–13),
//!   built over the Goldilocks-448 prime field so recovered attribute
//!   hashes are exact; for the common Cauchy shapes each unknown
//!   pattern's left inverse is built once and memoized, so a solve is
//!   two small fixed-width products.
//! * [`entropy`] — attribute/profile entropy and the ϕ-entropy privacy
//!   policies of Protocol 3 (Defs. 4–6).
//!
//! # Example: fuzzy match end to end
//!
//! ```
//! use msb_profile::attribute::Attribute;
//! use msb_profile::profile::Profile;
//! use msb_profile::request::RequestProfile;
//! use msb_profile::matching::{enumerate_candidate_keys, MatchConfig};
//!
//! let attr = |c: &str, v: &str| Attribute::new(c, v);
//! // The initiator wants an engineer who likes 2 of 3 listed interests.
//! let request = RequestProfile::new(
//!     vec![attr("profession", "engineer")],
//!     vec![attr("interest", "basketball"),
//!          attr("interest", "jazz"),
//!          attr("interest", "go")],
//!     2,
//! ).unwrap();
//! use rand::{rngs::StdRng, SeedableRng};
//! let bundle = request.seal(11, &mut StdRng::seed_from_u64(7));
//!
//! // A user owning the necessary attribute and 2 of the 3 optional ones
//! // recovers the request's profile key.
//! let user = Profile::from_attributes(vec![
//!     attr("profession", "engineer"),
//!     attr("interest", "basketball"),
//!     attr("interest", "jazz"),
//!     attr("hometown", "shanghai"),
//! ]);
//! let keys = enumerate_candidate_keys(
//!     user.vector(),
//!     &bundle.remainder,
//!     bundle.hint.as_ref(),
//!     &MatchConfig::default(),
//! );
//! assert!(keys.iter().any(|k| k.key == bundle.key));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod entropy;
pub mod hint;
pub mod matching;
pub mod normalize;
pub mod profile;
pub mod remainder;
pub mod request;
pub mod wire;

pub use attribute::{Attribute, AttributeHash};
pub use profile::{Profile, ProfileKey, ProfileVector};
pub use request::{RequestProfile, RequestVector, SealedRequest};
