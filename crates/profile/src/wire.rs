//! Canonical wire encodings for the profile-layer structures
//! ([`RemainderVector`], [`HintMatrix`]) on the shared [`msb_wire`]
//! engine. These are *body* encodings: the request package embeds them,
//! and `docs/WIRE.md` specifies the exact layouts.
//!
//! # Layouts
//!
//! Remainder vector (`14 + 4·m_t` bytes):
//!
//! ```text
//! u64 p | u16 alpha | u16 opt_len | u16 beta | u32 × alpha | u32 × opt_len
//! ```
//!
//! Hint matrix (`5 + 56·γ` bytes for Cauchy, plus `56·γ·β` for Random):
//!
//! ```text
//! u8 construction (1 = Cauchy, 2 = Random) | u16 gamma | u16 beta
//! | B: gamma × 56-byte field elements
//! | Random only: R, row-major gamma·beta × 56-byte field elements
//! ```
//!
//! Decoding is strict: remainders must lie below `p`, `p` must fit the
//! 32-bit entry width it implies, field elements must be canonical
//! (below the Goldilocks-448 modulus), and shape fields must be
//! internally consistent — every violation reports the offset of the
//! offending field.

use crate::hint::{HintConstruction, HintMatrix};
use crate::remainder::RemainderVector;
use msb_bignum::goldilocks::{Fe448, FE448_BYTES};
use msb_wire::{DecodeError, Reader, WireDecode, WireEncode, Writer};

/// Field-element width on the wire (Goldilocks-448 → 56 bytes).
pub const FIELD_BYTES: usize = FE448_BYTES;

/// Maximum hint dimension (γ and β each) the wire format accepts.
///
/// A decoded hint triggers derived work the wire bytes do not pay for:
/// the Cauchy construction needs `R`, γ·β field inversions, and each
/// solve an elimination. The receiver builds the Cauchy block once per
/// (γ, β) per process, and each pattern's left inverse once where all of
/// a shape's patterns fit, in a memo held under a fixed byte budget
/// (`hint.rs`); larger shapes solve by elimination, and a shape the memo
/// cannot keep costs a rebuild per use, never a lockout. The decoder
/// bounds both dimensions *before* reading elements or constructing
/// anything. 256 is ~2× the largest attribute count in the evaluation
/// dataset (129 keywords) and keeps the worst-case block build in the
/// tens of milliseconds; encoding asserts the same bound so an
/// encodable hint is always decodable.
pub const MAX_HINT_DIM: usize = 256;

impl WireEncode for RemainderVector {
    fn encoded_len(&self) -> usize {
        8 + 2 + 2 + 2 + 4 * self.len()
    }

    /// # Panics
    ///
    /// Panics when the vector is not wire-representable: `p` above
    /// `u32::MAX` (entries are 32-bit) or more than `u16::MAX` entries
    /// per block. [`RemainderVector::new`] with the paper's parameters
    /// (`p` a small prime, a handful of attributes) never gets close.
    fn encode_into(&self, w: &mut Writer) {
        assert!(self.p() <= u32::MAX as u64, "modulus too wide for 32-bit remainder entries");
        assert!(
            self.necessary().len() <= u16::MAX as usize
                && self.optional().len() <= u16::MAX as usize,
            "remainder block too long for u16 counts"
        );
        w.u64(self.p());
        w.u16(self.necessary().len() as u16);
        w.u16(self.optional().len() as u16);
        w.u16(self.beta() as u16);
        for &r in self.necessary() {
            w.u32(r as u32);
        }
        for &r in self.optional() {
            w.u32(r as u32);
        }
    }
}

impl WireDecode for RemainderVector {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let p_at = r.offset();
        let p = r.u64()?;
        if p < 2 {
            return Err(r.invalid(p_at, "modulus below 2"));
        }
        if p > u32::MAX as u64 {
            // Entries are 32-bit on the wire; a wider modulus could not
            // have produced a faithful encoding.
            return Err(r.invalid(p_at, "modulus too wide for 32-bit remainder entries"));
        }
        let shape_at = r.offset();
        let alpha = r.u16()? as usize;
        let opt_len = r.u16()? as usize;
        let beta = r.u16()? as usize;
        if alpha + opt_len == 0 {
            return Err(r.invalid(shape_at, "empty request vector"));
        }
        if beta > opt_len {
            return Err(r.invalid(shape_at, "beta exceeds optional count"));
        }
        let mut read_block = |n: usize| -> Result<Vec<u64>, DecodeError> {
            let mut block = Vec::with_capacity(n);
            for _ in 0..n {
                let at = r.offset();
                let v = r.u32()? as u64;
                if v >= p {
                    return Err(r.invalid(at, "remainder not below the modulus"));
                }
                block.push(v);
            }
            Ok(block)
        };
        let necessary = read_block(alpha)?;
        let optional = read_block(opt_len)?;
        // All `from_remainders` preconditions were checked above, so the
        // constructor cannot panic.
        Ok(RemainderVector::from_remainders(p, necessary, optional, beta))
    }
}

/// Reads one canonical Goldilocks-448 field element.
fn field_element(r: &mut Reader<'_>, what: &'static str) -> Result<Fe448, DecodeError> {
    let at = r.offset();
    let bytes = r.take(FIELD_BYTES)?.try_into().expect("took FIELD_BYTES bytes");
    Fe448::from_be_bytes(bytes).ok_or_else(|| r.invalid(at, what))
}

impl WireEncode for HintMatrix {
    fn encoded_len(&self) -> usize {
        let r_len = match self.construction() {
            HintConstruction::Cauchy => 0,
            HintConstruction::Random => FIELD_BYTES * self.gamma() * self.beta(),
        };
        1 + 2 + 2 + FIELD_BYTES * self.gamma() + r_len
    }

    /// # Panics
    ///
    /// Panics when γ or β exceed [`MAX_HINT_DIM`] (unreachable for any
    /// hint a realistic request can construct; the bound keeps every
    /// encodable hint decodable).
    fn encode_into(&self, w: &mut Writer) {
        assert!(
            self.gamma() <= MAX_HINT_DIM && self.beta() <= MAX_HINT_DIM,
            "hint dimensions exceed the wire limit"
        );
        let tag = match self.construction() {
            HintConstruction::Cauchy => 1,
            HintConstruction::Random => 2,
        };
        w.u8(tag);
        w.u16(self.gamma() as u16);
        w.u16(self.beta() as u16);
        for b in self.b() {
            w.bytes(&b.to_be_bytes());
        }
        if self.construction() == HintConstruction::Random {
            for e in self.r_block() {
                w.bytes(&e.to_be_bytes());
            }
        }
    }
}

/// Decodes a hint matrix whose (γ, β) must match an expected shape the
/// caller already knows (the request package's remainder vector). The
/// shape check runs immediately after reading the dimension fields —
/// before any element is read or any matrix is constructed — so a
/// frame claiming inconsistent or oversized dimensions is rejected in
/// O(1).
pub fn decode_hint_with_shape(
    r: &mut Reader<'_>,
    expected_gamma: usize,
    expected_beta: usize,
) -> Result<HintMatrix, DecodeError> {
    decode_hint(r, Some((expected_gamma, expected_beta)))
}

fn decode_hint(
    r: &mut Reader<'_>,
    expected: Option<(usize, usize)>,
) -> Result<HintMatrix, DecodeError> {
    let tag_at = r.offset();
    let construction = match r.u8()? {
        1 => HintConstruction::Cauchy,
        2 => HintConstruction::Random,
        _ => return Err(r.invalid(tag_at, "unknown hint construction")),
    };
    let dims_at = r.offset();
    let gamma = r.u16()? as usize;
    let beta = r.u16()? as usize;
    if gamma == 0 {
        return Err(r.invalid(dims_at, "hint with gamma = 0"));
    }
    // Bound the derived construction cost before trusting the claimed
    // dimensions any further (see [`MAX_HINT_DIM`]).
    if gamma > MAX_HINT_DIM || beta > MAX_HINT_DIM {
        return Err(r.invalid(dims_at, "hint dimension exceeds the wire limit"));
    }
    if let Some((eg, eb)) = expected {
        if gamma != eg || beta != eb {
            return Err(r.invalid(dims_at, "hint shape disagrees with remainder vector"));
        }
    }
    let mut read = |n: usize, what| -> Result<Vec<Fe448>, DecodeError> {
        (0..n).map(|_| field_element(r, what)).collect()
    };
    let b = read(gamma, "non-canonical field element in B")?;
    let r_block = match construction {
        HintConstruction::Cauchy => None,
        HintConstruction::Random => Some(read(gamma * beta, "non-canonical field element in R")?),
    };
    // `from_elements` preconditions (gamma > 0, R length, Cauchy
    // without R) all hold by construction here.
    Ok(HintMatrix::from_elements(beta, construction, r_block, b))
}

impl WireDecode for HintMatrix {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        decode_hint(r, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{Attribute, AttributeHash};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sorted_hashes(n: usize) -> Vec<AttributeHash> {
        let mut hs: Vec<AttributeHash> =
            (0..n).map(|i| Attribute::new("interest", format!("topic-{i}")).hash()).collect();
        hs.sort_unstable();
        hs
    }

    fn remainder(alpha: usize, opt: usize, beta: usize, p: u64) -> RemainderVector {
        let hashes = sorted_hashes(alpha + opt);
        RemainderVector::new(p, &hashes[..alpha], &hashes[alpha..], beta)
    }

    #[test]
    fn remainder_roundtrip() {
        for (alpha, opt, beta, p) in [(2, 3, 2, 11), (0, 4, 4, 23), (3, 0, 0, 97)] {
            let rv = remainder(alpha, opt, beta, p);
            let body = rv.encode_body();
            assert_eq!(body.len(), rv.encoded_len());
            assert_eq!(RemainderVector::decode_body(&body).unwrap(), rv);
        }
    }

    #[test]
    fn remainder_strictness() {
        let rv = remainder(1, 2, 1, 11);
        let body = rv.encode_body();

        // Remainder >= p.
        let mut bad = body.clone();
        let entry_at = 14; // first necessary entry
        bad[entry_at..entry_at + 4].copy_from_slice(&200u32.to_be_bytes());
        assert_eq!(
            RemainderVector::decode_body(&bad),
            Err(DecodeError::Invalid { offset: entry_at, what: "remainder not below the modulus" })
        );

        // beta > optional count.
        let mut bad = body.clone();
        bad[12..14].copy_from_slice(&9u16.to_be_bytes());
        assert!(matches!(
            RemainderVector::decode_body(&bad),
            Err(DecodeError::Invalid { offset: 8, .. })
        ));

        // Modulus wider than the 32-bit entry width.
        let mut bad = body.clone();
        bad[..8].copy_from_slice(&(u32::MAX as u64 + 1).to_be_bytes());
        assert!(matches!(
            RemainderVector::decode_body(&bad),
            Err(DecodeError::Invalid { offset: 0, what: w }) if w.contains("32-bit")
        ));

        // Trailing garbage.
        let mut bad = body.clone();
        bad.push(0);
        assert_eq!(
            RemainderVector::decode_body(&bad),
            Err(DecodeError::Trailing { offset: body.len() })
        );
    }

    #[test]
    fn hint_roundtrip_both_constructions() {
        let mut rng = StdRng::seed_from_u64(5);
        let opt = sorted_hashes(5); // beta = 3, gamma = 2
        for construction in [HintConstruction::Cauchy, HintConstruction::Random] {
            let hint = HintMatrix::generate(&opt, 3, construction, &mut rng);
            let body = hint.encode_body();
            assert_eq!(body.len(), hint.encoded_len());
            let decoded = HintMatrix::decode_body(&body).unwrap();
            assert_eq!(decoded, hint, "{construction:?}");
        }
    }

    #[test]
    fn hint_cauchy_is_much_smaller() {
        let mut rng = StdRng::seed_from_u64(5);
        let opt = sorted_hashes(6);
        let cauchy = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng);
        let random = HintMatrix::generate(&opt, 3, HintConstruction::Random, &mut rng);
        assert!(cauchy.encoded_len() < random.encoded_len());
        assert_eq!(
            random.encoded_len() - cauchy.encoded_len(),
            FIELD_BYTES * cauchy.gamma() * cauchy.beta()
        );
    }

    #[test]
    fn hint_rejects_non_canonical_field_elements() {
        let mut rng = StdRng::seed_from_u64(5);
        let opt = sorted_hashes(4);
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng);
        let mut body = hint.encode_body();
        // Saturate the first B element: >= the Goldilocks-448 modulus.
        for b in body.iter_mut().skip(5).take(FIELD_BYTES) {
            *b = 0xFF;
        }
        assert_eq!(
            HintMatrix::decode_body(&body),
            Err(DecodeError::Invalid { offset: 5, what: "non-canonical field element in B" })
        );
    }

    #[test]
    fn hint_rejects_bad_tag_and_gamma_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let opt = sorted_hashes(4);
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng);
        let mut body = hint.encode_body();
        body[0] = 7;
        assert_eq!(
            HintMatrix::decode_body(&body),
            Err(DecodeError::Invalid { offset: 0, what: "unknown hint construction" })
        );
        let bad = [1u8, 0, 0, 0, 3]; // tag Cauchy, gamma = 0, beta = 3
        assert_eq!(
            HintMatrix::decode_body(&bad),
            Err(DecodeError::Invalid { offset: 1, what: "hint with gamma = 0" })
        );
    }

    #[test]
    fn oversized_hint_dimensions_rejected_in_constant_time() {
        // A frame claiming γ = β = 0xFFFF must be rejected from the
        // 5-byte header alone — before the decoder reads elements or
        // builds any matrix (the construction would cost ~4·10⁹ field
        // inversions and a hundreds-of-GB allocation).
        let header = [1u8, 0xFF, 0xFF, 0xFF, 0xFF];
        let start = std::time::Instant::now();
        let err = HintMatrix::decode_body(&header).unwrap_err();
        assert!(start.elapsed().as_millis() < 100, "rejection must not do derived work");
        assert_eq!(
            err,
            DecodeError::Invalid { offset: 1, what: "hint dimension exceeds the wire limit" }
        );

        // Same guard on the shape-checked path, even when the expected
        // shape agrees with the oversized claim.
        let mut r = Reader::new(&header);
        let err = decode_hint_with_shape(&mut r, 0xFFFF, 0xFFFF).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Invalid { offset: 1, what: "hint dimension exceeds the wire limit" }
        );
    }

    #[test]
    fn shape_checked_decode_rejects_mismatch_before_elements() {
        let mut rng = StdRng::seed_from_u64(5);
        let opt = sorted_hashes(4); // beta = 3, gamma = 1
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng);
        let body = hint.encode_body();
        // Truncate everything after the 5-byte header: a mismatch must
        // be detected without needing the element bytes at all.
        let mut r = Reader::new(&body[..5]);
        let err = decode_hint_with_shape(&mut r, 2, 3).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Invalid { offset: 1, what: "hint shape disagrees with remainder vector" }
        );
        // The matching shape decodes fine from the full body.
        let mut r = Reader::new(&body);
        assert_eq!(decode_hint_with_shape(&mut r, 1, 3).unwrap(), hint);
    }

    #[test]
    fn truncation_never_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let opt = sorted_hashes(5);
        let hint = HintMatrix::generate(&opt, 2, HintConstruction::Random, &mut rng);
        let body = hint.encode_body();
        for cut in 0..body.len() {
            assert!(HintMatrix::decode_body(&body[..cut]).is_err(), "cut at {cut}");
        }
        let rv = remainder(2, 3, 2, 11);
        let body = rv.encode_body();
        for cut in 0..body.len() {
            assert!(RemainderVector::decode_body(&body[..cut]).is_err(), "cut at {cut}");
        }
    }
}
