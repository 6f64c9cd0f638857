//! The hint matrix (paper §III-C-2, Eqs. 9–13).
//!
//! For a fuzzy request with γ tolerated misses among β + γ optional
//! attributes, the initiator publishes `M = [C, B]` where
//! `C = [I_γ | R_{γ×β}]` and `B = C · h_opt`. A candidate who knows at
//! least β of the optional attribute hashes solves the restricted linear
//! system for the ≤ γ unknowns and recovers the *exact* missing hashes,
//! hence the full request vector and the profile key.
//!
//! ## Field choice and the uniqueness claim
//!
//! The paper uses "random nonzero integers" for `R` and asserts unique
//! solvability. We work over the Goldilocks-448 prime field (every SHA-256
//! output is a canonical element) and default to a **Cauchy** block for
//! `R`: every square submatrix of a Cauchy matrix is nonsingular, so the
//! restricted system is provably uniquely solvable for *every* pattern of
//! up to γ unknowns — the paper's claim, made unconditional. A
//! uniformly-random construction is retained for ablations.
//!
//! Because the Cauchy block is a public deterministic function of (γ, β),
//! it need not be transmitted: the wire format is just `B` (γ elements),
//! *smaller* than the paper's `32γ(γ+β) + 256γ`-bit estimate.
//!
//! ## Solving from per-pattern left inverses
//!
//! A candidate solves `C_U · x_U = B − C_K · x_K`, where `U` is the set of
//! unknown positions. For a Cauchy shape `C_U` depends only on (γ, β) and
//! on `U`, so the algebra is built once per pattern:
//! [`Matrix::left_inverse`] returns a left inverse `L_U` and consistency
//! rows `N_U`, and each solve is two small matrix–vector products in
//! fixed-width [`Fe448`] arithmetic: the system is consistent iff
//! `N_U · rhs = 0`, and then `x_U = L_U · rhs`. This returns exactly what
//! Gaussian elimination returns, without an inversion per solve.
//!
//! Cauchy blocks, one per (γ, β), and pattern tables live in one
//! process-wide memo under a fixed byte budget. An insert that would pass
//! the budget clears the memo first, so a hostile shape costs at most a
//! rebuild and never locks the common shapes out. A shape whose pattern
//! tables cannot all fit the budget at once, and every Random matrix,
//! whose `R` belongs to one request, solve each assignment by
//! [`Matrix::solve`] instead: a table the memo cannot keep costs more to
//! build than the one solve it serves. That elimination runs on the
//! unknown `R` columns alone; an unknown identity column only fixes its
//! own row's value.

use crate::attribute::AttributeHash;
use msb_bignum::goldilocks::Fe448;
use msb_bignum::linalg::{cauchy_matrix, Matrix};
use msb_bignum::{BigUint, PrimeField};
use rand::Rng;
use std::collections::HashMap;
use std::mem::{size_of, size_of_val};
use std::sync::{Arc, LazyLock, RwLock};

/// How the random block `R` of `C = [I | R]` is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HintConstruction {
    /// Deterministic Cauchy block: unconditionally solvable, not
    /// transmitted. The default.
    #[default]
    Cauchy,
    /// Uniformly random nonzero field elements — the paper's literal
    /// construction; solvability holds with overwhelming probability.
    Random,
}

/// The hint matrix `M = [C, B]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintMatrix {
    gamma: usize,
    beta: usize,
    construction: HintConstruction,
    /// `B = C · h_opt`, γ field elements.
    b: Vec<Fe448>,
    /// `R`, γ×β row-major; a Cauchy block is shared with the memo.
    r: Arc<[Fe448]>,
}

/// Byte budget of the memo. Patterns of the paper's γ = β = 3 take
/// ~25 KB; the largest wire shape's Cauchy block (256 × 256) fits on its
/// own.
const MEMO_BUDGET_BYTES: usize = 4 << 20;

/// What an entry costs beyond its elements and key: map slot and `Arc`
/// header.
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// Cauchy blocks, keyed `[γ, β]`, and Cauchy pattern tables, keyed
/// `[γ, β, unknown positions…]`, held under [`MEMO_BUDGET_BYTES`].
///
/// A pattern's table is γ×γ, row-major: the |U| rows of `L_U` over the
/// γ − |U| rows of `N_U`.
static MEMO: LazyLock<RwLock<Memo>> = LazyLock::new(RwLock::default);

#[derive(Default)]
struct Memo {
    bytes: usize,
    map: HashMap<Box<[usize]>, Arc<[Fe448]>>,
}

/// The memo's table under `key`, or on a miss the one `build` makes
/// (`None` if it declines), kept under the budget. No lock is held while
/// `build` runs, so two threads may build one table; they build equal
/// tables and the memo keeps one.
fn memoized(key: &[usize], build: impl FnOnce() -> Option<Vec<Fe448>>) -> Option<Arc<[Fe448]>> {
    if let Some(table) = MEMO.read().expect("memo writer panicked").map.get(key) {
        return Some(Arc::clone(table));
    }
    let table: Arc<[Fe448]> = build()?.into();
    let cost = ENTRY_OVERHEAD_BYTES + size_of_val(key) + size_of_val(&*table);
    if cost <= MEMO_BUDGET_BYTES {
        let mut memo = MEMO.write().expect("memo writer panicked");
        if !memo.map.contains_key(key) {
            if memo.bytes + cost > MEMO_BUDGET_BYTES {
                memo.map.clear();
                memo.bytes = 0;
            }
            memo.bytes += cost;
            memo.map.insert(key.into(), Arc::clone(&table));
        }
    }
    Some(table)
}

/// Whether every pattern table of a (γ, β) Cauchy shape fits the memo
/// budget at once: one γ×γ table for each of the Σ_{k=1..γ} C(γ+β, k)
/// patterns. Only such shapes build tables (the paper's γ = β = 3 has 41
/// patterns, (256, 0) has 2²⁵⁶ − 1); a miss on any other shape solves by
/// elimination.
fn memoizable(gamma: usize, beta: usize) -> bool {
    let table = ENTRY_OVERHEAD_BYTES
        + (2 + gamma) * size_of::<usize>()
        + gamma * gamma * size_of::<Fe448>();
    let (mut patterns, mut choose) = (0usize, 1usize);
    for k in 1..=gamma {
        // C(γ+β, k), exact; small, as the loop stops past the budget.
        choose = choose * (gamma + beta + 1 - k) / k;
        patterns += choose;
        if patterns.saturating_mul(table) > MEMO_BUDGET_BYTES {
            return false;
        }
    }
    true
}

/// The Cauchy block of (γ, β), built once per process (while the memo
/// keeps it).
fn cauchy_block(gamma: usize, beta: usize) -> Arc<[Fe448]> {
    let block = memoized(&[gamma, beta], || {
        let m = cauchy_matrix(&PrimeField::goldilocks448(), gamma, beta);
        let ij = (0..gamma).flat_map(|i| (0..beta).map(move |j| (i, j)));
        Some(ij.map(|(i, j)| fe(m.at(i, j))).collect())
    });
    block.expect("a block is always built")
}

/// A reduced Goldilocks-448 [`BigUint`] as an element.
fn fe(v: &BigUint) -> Fe448 {
    Fe448::from_biguint(v).expect("hint elements are canonical Goldilocks-448 values")
}

impl HintMatrix {
    /// Builds the hint matrix from the *sorted optional block* of the
    /// request vector (length β + γ).
    ///
    /// # Panics
    ///
    /// Panics if `beta > optional.len()` or `optional.is_empty()`, or if
    /// γ = 0 (a perfect-match request needs no hint matrix — the caller
    /// should skip construction, as the paper does).
    pub fn generate<R: Rng + ?Sized>(
        optional: &[AttributeHash],
        beta: usize,
        construction: HintConstruction,
        rng: &mut R,
    ) -> Self {
        assert!(!optional.is_empty(), "optional block must be nonempty");
        assert!(beta <= optional.len(), "beta exceeds optional count");
        let gamma = optional.len() - beta;
        assert!(gamma > 0, "perfect-match requests need no hint matrix");
        let r: Arc<[Fe448]> = match construction {
            HintConstruction::Cauchy => cauchy_block(gamma, beta),
            HintConstruction::Random => {
                // Drawn row-major through the oracle field, so seeded
                // requests keep their bytes.
                let field = PrimeField::goldilocks448();
                (0..gamma * beta).map(|_| fe(&field.random_nonzero(rng))).collect()
            }
        };
        let h: Vec<Fe448> = optional.iter().map(|h| Fe448::from_hash(h.as_bytes())).collect();
        // B = C · h = h_I + R · h_R.
        let b = (0..gamma)
            .map(|i| (0..beta).fold(h[i], |acc, j| acc.add(&r[i * beta + j].mul(&h[gamma + j]))))
            .collect();
        HintMatrix { gamma, beta, construction, b, r }
    }

    /// Reassembles a hint matrix from wire parts.
    ///
    /// For [`HintConstruction::Cauchy`] the `r_block` must be `None` (it
    /// is reconstructed deterministically); for
    /// [`HintConstruction::Random`] it must be the transmitted γ×β block.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches, a missing/superfluous `r_block`,
    /// or an element at or above the Goldilocks-448 modulus.
    pub fn from_parts(
        beta: usize,
        construction: HintConstruction,
        r_block: Option<Matrix>,
        b: Vec<BigUint>,
    ) -> Self {
        let r = r_block.map(|r| {
            assert_eq!(r.rows(), b.len(), "R row count mismatch");
            assert_eq!(r.cols(), beta, "R column count mismatch");
            (0..r.rows())
                .flat_map(|i| (0..beta).map(move |j| (i, j)))
                .map(|(i, j)| fe(r.at(i, j)))
                .collect()
        });
        Self::from_elements(beta, construction, r, b.iter().map(fe).collect())
    }

    /// [`HintMatrix::from_parts`] on decoded elements: `r` is `R`
    /// row-major, present exactly for the Random construction.
    pub(crate) fn from_elements(
        beta: usize,
        construction: HintConstruction,
        r: Option<Vec<Fe448>>,
        b: Vec<Fe448>,
    ) -> Self {
        let gamma = b.len();
        assert!(gamma > 0, "hint matrix requires gamma > 0");
        let r = match construction {
            HintConstruction::Cauchy => {
                assert!(r.is_none(), "Cauchy block is never transmitted");
                cauchy_block(gamma, beta)
            }
            HintConstruction::Random => {
                let r = r.expect("random construction requires the R block");
                assert_eq!(r.len(), gamma * beta, "R must be gamma x beta");
                r.into()
            }
        };
        HintMatrix { gamma, beta, construction, b, r }
    }

    /// Number of tolerated unknowns γ.
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// Number of required known optional attributes β.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// The construction used for the `R` block.
    pub fn construction(&self) -> HintConstruction {
        self.construction
    }

    /// The published vector `B`.
    pub fn b(&self) -> &[Fe448] {
        &self.b
    }

    /// The block `R` of `C = [I | R]`, γ×β row-major (public; rebuilt
    /// from (γ, β) for the Cauchy construction).
    pub(crate) fn r_block(&self) -> &[Fe448] {
        &self.r
    }

    /// The memo table of a Cauchy pattern with these (ascending) unknown
    /// positions: one elimination of `[C_U | I]`.
    fn pattern(&self, unknowns: &[usize]) -> Vec<Fe448> {
        let mut c_u = Matrix::zeros(self.gamma, unknowns.len());
        for (k, &j) in unknowns.iter().enumerate() {
            for i in 0..self.gamma {
                *c_u.at_mut(i, k) = if j < self.gamma {
                    BigUint::from(u64::from(i == j))
                } else {
                    self.r[i * self.beta + j - self.gamma].to_biguint()
                };
            }
        }
        let (l, n) = c_u
            .left_inverse(&PrimeField::goldilocks448())
            .expect("a Cauchy C_U of at most γ columns has full column rank");
        [l, n]
            .iter()
            .flat_map(|m| (0..m.rows()).flat_map(move |i| (0..m.cols()).map(move |j| m.at(i, j))))
            .map(fe)
            .collect()
    }

    /// `x_U` from `C_U · x_U = rhs` by [`Matrix::solve`], returning what
    /// elimination on all of `C_U` returns. An unknown identity column `i`
    /// has its one 1 in row `i`, so the elimination runs on the other rows
    /// and the unknown `R` columns alone, and `x_i` is read off row `i`.
    fn eliminate(&self, unknowns: &[usize], rhs: &[Fe448]) -> Option<Vec<Fe448>> {
        let (gamma, beta, r) = (self.gamma, self.beta, &self.r);
        let (ident, cols) = unknowns.split_at(unknowns.partition_point(|&j| j < gamma));
        let cols: Vec<usize> = cols.iter().map(|&j| j - gamma).collect();
        let rows: Vec<usize> = (0..gamma).filter(|i| ident.binary_search(i).is_err()).collect();
        let y: Vec<Fe448> = if rows.is_empty() {
            Vec::new() // every row is an unknown identity column's, so no R column is unknown
        } else {
            let a =
                rows.iter().map(|&i| cols.iter().map(|&k| r[i * beta + k].to_biguint()).collect());
            let a = Matrix::from_rows(a.collect());
            let b: Vec<BigUint> = rows.iter().map(|&i| rhs[i].to_biguint()).collect();
            a.solve(&PrimeField::goldilocks448(), &b).ok()?.iter().map(fe).collect()
        };
        // x_i = rhs_i − R_i,cols · y.
        let x = ident.iter().map(|&i| {
            cols.iter().zip(&y).fold(rhs[i], |acc, (&k, v)| acc.sub(&r[i * beta + k].mul(v)))
        });
        Some(x.chain(y.iter().copied()).collect())
    }

    /// Completes a partial optional-block assignment.
    ///
    /// `assignment[j]` is `Some(h)` when the candidate matched position
    /// `j` with one of their own attribute hashes, `None` when unknown.
    /// Returns the fully recovered optional block, or `None` when:
    ///
    /// * more than γ positions are unknown,
    /// * the restricted system is inconsistent (proves a wrong candidate
    ///   before any decryption is attempted),
    /// * a solved value does not fit in 256 bits (same implication).
    ///
    /// A fully-known assignment is *verified* against `B` instead of
    /// solved, which rejects collision-induced wrong assignments early.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != gamma + beta`.
    pub fn solve(&self, assignment: &[Option<AttributeHash>]) -> Option<Vec<AttributeHash>> {
        let (gamma, beta, r) = (self.gamma, self.beta, &self.r);
        assert_eq!(assignment.len(), gamma + beta, "assignment length mismatch");

        // The pattern's memo key: [γ, β, unknown positions…].
        let mut key = Vec::with_capacity(2 + gamma);
        key.extend([gamma, beta]);
        key.extend((0..assignment.len()).filter(|&j| assignment[j].is_none()));
        let unknowns = &key[2..];
        if unknowns.len() > gamma {
            return None;
        }

        // rhs = B − C_K · x_K; an identity column costs one subtraction.
        let mut rhs = self.b.clone();
        for (j, h) in assignment.iter().enumerate() {
            let Some(h) = h else { continue };
            let x = Fe448::from_hash(h.as_bytes());
            if j < gamma {
                rhs[j] = rhs[j].sub(&x);
            } else {
                for (i, v) in rhs.iter_mut().enumerate() {
                    *v = v.sub(&r[i * beta + j - gamma].mul(&x));
                }
            }
        }

        if unknowns.is_empty() {
            // Fully known: consistency check doubles as verification.
            return rhs
                .iter()
                .all(Fe448::is_zero)
                .then(|| assignment.iter().flatten().copied().collect());
        }

        let table = match self.construction {
            HintConstruction::Cauchy => {
                memoized(&key, || memoizable(gamma, beta).then(|| self.pattern(unknowns)))
            }
            HintConstruction::Random => None,
        };
        let solved: Vec<Fe448> = match table {
            Some(table) => {
                let dot = |row: &[Fe448]| {
                    row.iter().zip(&rhs).fold(Fe448::ZERO, |acc, (a, v)| acc.add(&a.mul(v)))
                };
                let (l, n) = table.split_at(unknowns.len() * gamma);
                if !n.chunks_exact(gamma).all(|row| dot(row).is_zero()) {
                    return None;
                }
                l.chunks_exact(gamma).map(dot).collect()
            }
            None => self.eliminate(unknowns, &rhs)?,
        };
        let mut solved = solved.iter();
        assignment
            .iter()
            .map(|slot| match slot {
                Some(h) => Some(*h),
                None => solved.next()?.to_hash().map(AttributeHash::from_bytes),
            })
            .collect()
    }

    /// Serialized size in bits of what actually crosses the wire: `B`
    /// (γ × 448 bits) plus the `R` block for the random construction
    /// (γ·β × 448 bits); the Cauchy block is reconstructed locally.
    pub fn wire_size_bits(&self) -> usize {
        let b_bits = self.gamma * 448;
        match self.construction {
            HintConstruction::Cauchy => b_bits + 16, // (γ, β) as u8 each
            HintConstruction::Random => b_bits + self.gamma * self.beta * 448 + 16,
        }
    }

    /// The paper's accounting of the hint-matrix size
    /// (`32γ(γ+β) + 256γ` bits), reported for Table III comparability.
    pub fn paper_size_bits(&self) -> usize {
        32 * self.gamma * (self.gamma + self.beta) + 256 * self.gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::wire::MAX_HINT_DIM;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hashes(n: usize) -> Vec<AttributeHash> {
        let mut hs: Vec<AttributeHash> =
            (0..n).map(|i| Attribute::new("interest", format!("topic-{i}")).hash()).collect();
        hs.sort_unstable();
        hs
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn recovers_single_unknown() {
        let opt = hashes(4); // beta=3, gamma=1
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng());
        for missing in 0..4 {
            let mut assignment: Vec<Option<AttributeHash>> =
                opt.iter().copied().map(Some).collect();
            assignment[missing] = None;
            let full = hint.solve(&assignment).expect("solvable");
            assert_eq!(full, opt, "missing position {missing}");
        }
    }

    #[test]
    fn recovers_every_unknown_pattern_up_to_gamma() {
        let opt = hashes(6); // beta=3, gamma=3
        for construction in [HintConstruction::Cauchy, HintConstruction::Random] {
            let hint = HintMatrix::generate(&opt, 3, construction, &mut rng());
            for mask in 0u32..(1 << 6) {
                let unknown_count = mask.count_ones() as usize;
                if unknown_count > 3 {
                    continue;
                }
                let assignment: Vec<Option<AttributeHash>> =
                    (0..6).map(|j| if mask >> j & 1 == 1 { None } else { Some(opt[j]) }).collect();
                let full = hint
                    .solve(&assignment)
                    .unwrap_or_else(|| panic!("{construction:?} mask {mask:06b}"));
                assert_eq!(full, opt);
            }
        }
    }

    #[test]
    fn too_many_unknowns_rejected() {
        let opt = hashes(4);
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng());
        let assignment = vec![None, None, Some(opt[2]), Some(opt[3])];
        assert_eq!(hint.solve(&assignment), None);
    }

    #[test]
    fn wrong_known_value_detected_when_fully_assigned() {
        let opt = hashes(4);
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng());
        let wrong = Attribute::new("interest", "imposter").hash();
        let mut assignment: Vec<Option<AttributeHash>> = opt.iter().copied().map(Some).collect();
        assignment[1] = Some(wrong);
        assert_eq!(hint.solve(&assignment), None, "verification must fail");
    }

    #[test]
    fn wrong_known_value_with_unknowns_yields_wrong_hash_or_none() {
        let opt = hashes(6); // beta=3, gamma=3
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng());
        let wrong = Attribute::new("interest", "imposter").hash();
        let mut assignment: Vec<Option<AttributeHash>> = opt.iter().copied().map(Some).collect();
        assignment[0] = Some(wrong);
        assignment[5] = None;
        match hint.solve(&assignment) {
            None => {} // solved value exceeded 256 bits — fine
            Some(full) => assert_ne!(full, opt, "must not silently recover the truth"),
        }
    }

    #[test]
    fn overdetermined_consistency_rejects_wrong_candidates() {
        // gamma=2 but only one unknown: the extra equation must act as a
        // verifier for the known values.
        let opt = hashes(5); // beta=3, gamma=2
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng());
        let wrong = Attribute::new("interest", "imposter").hash();
        let mut assignment: Vec<Option<AttributeHash>> = opt.iter().copied().map(Some).collect();
        assignment[2] = None; // one unknown, two equations
        assignment[3] = Some(wrong);
        assert_eq!(hint.solve(&assignment), None);
    }

    #[test]
    fn cauchy_needs_no_r_on_the_wire() {
        let opt = hashes(6);
        let cauchy = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng());
        let random = HintMatrix::generate(&opt, 3, HintConstruction::Random, &mut rng());
        assert!(cauchy.wire_size_bits() < random.wire_size_bits());
        assert_eq!(cauchy.paper_size_bits(), 32 * 3 * 6 + 256 * 3);
    }

    #[test]
    fn deterministic_cauchy_reconstructible() {
        // Two independently generated Cauchy hints over the same optional
        // block are identical — the receiver can rebuild C from (γ, β).
        let opt = hashes(5);
        let h1 = HintMatrix::generate(&opt, 2, HintConstruction::Cauchy, &mut rng());
        let h2 =
            HintMatrix::generate(&opt, 2, HintConstruction::Cauchy, &mut StdRng::seed_from_u64(7));
        assert_eq!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "perfect-match")]
    fn gamma_zero_panics() {
        let opt = hashes(3);
        let _ = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng());
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn wrong_assignment_length_panics() {
        let opt = hashes(4);
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng());
        let _ = hint.solve(&[None]);
    }

    #[test]
    fn memo_keeps_shapes_whose_patterns_all_fit() {
        assert!(memoizable(3, 3) && memoizable(6, 2) && memoizable(1, MAX_HINT_DIM));
        assert!(!memoizable(6, 6) && !memoizable(10, 10));
        assert!(!memoizable(MAX_HINT_DIM, 0) && !memoizable(MAX_HINT_DIM, MAX_HINT_DIM));
    }

    #[test]
    fn shape_flood_stays_in_budget_and_keeps_solving() {
        use msb_wire::{WireDecode, WireEncode};
        let mut rng = rng();
        let flood = (1..=24).flat_map(|g| (0..=24).map(move |b| (g, b)));
        for (gamma, beta) in flood.chain([(MAX_HINT_DIM, MAX_HINT_DIM)]) {
            let opt = hashes(gamma + beta);
            let sent = HintMatrix::generate(&opt, beta, HintConstruction::Cauchy, &mut rng);
            let hint = HintMatrix::decode_body(&sent.encode_body()).expect("hint decodes");
            let mut assignment: Vec<Option<AttributeHash>> =
                opt.iter().copied().map(Some).collect();
            assert_eq!(hint.solve(&assignment).as_ref(), Some(&opt), "({gamma}, {beta}) verify");
            assignment[gamma + beta - 1] = None;
            assert_eq!(hint.solve(&assignment).as_ref(), Some(&opt), "({gamma}, {beta}) solve");
            let bytes = MEMO.read().expect("memo writer panicked").bytes;
            assert!(bytes <= MEMO_BUDGET_BYTES, "({gamma}, {beta}) passed the budget");
        }
        // The paper's shape still solves after the flood.
        let opt = hashes(6);
        let hint = HintMatrix::generate(&opt, 3, HintConstruction::Cauchy, &mut rng);
        let assignment: Vec<Option<AttributeHash>> =
            (0..6).map(|j| (j < 3).then_some(opt[j])).collect();
        assert_eq!(hint.solve(&assignment), Some(opt));
    }
}
