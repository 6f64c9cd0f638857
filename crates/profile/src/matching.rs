//! Candidate-profile-vector enumeration (paper §III-C, Eqs. 5–8) and
//! candidate-key derivation.
//!
//! Given a request's remainder vector, a relay computes which of their own
//! attributes *could* occupy each request position (same remainder mod
//! `p`, Eq. 5), subject to:
//!
//! * every necessary position is matched (Eq. 6),
//! * at most γ optional positions are unknown (Eq. 7),
//! * matched positions use strictly increasing indices into the user's
//!   sorted profile vector within each sorted block (order consistency,
//!   Eq. 8), and no user attribute is used twice across blocks.
//!
//! Each surviving assignment, completed through the hint matrix, yields a
//! candidate profile key (the set the paper calls `{K¹_c … K^z_c}`).
//!
//! ## Strict vs. exhaustive enumeration
//!
//! The paper marks a position *unknown* only when **no** user attribute
//! has the right remainder. If a user happens to own a *colliding but
//! different* attribute at a position they do not truly satisfy, the
//! literal rule forces the wrong hash into every combination and the true
//! key is never generated — a false negative the paper does not address.
//! [`EnumerationMode::Exhaustive`] (the default) additionally explores the
//! unknown branch at matched positions, which provably restores the
//! no-false-negative guarantee at a small bounded cost;
//! [`EnumerationMode::Strict`] reproduces the paper's behaviour exactly
//! and is used by the evaluation harness where the paper's counts are
//! being reproduced.
//!
//! ## Work splitting and deterministic parallelism
//!
//! The backtracking search is expressed as a `SearchSpace` (the
//! read-only problem description) walked by a `Cursor` (one partial
//! assignment). Every enumeration — sequential or parallel — visits
//! completed assignments in one *canonical order*: positions are filled
//! left to right (necessary block, then optional block), candidate user
//! attributes are tried in ascending index order, and the `unknown`
//! branch of an optional position is tried last. The sequential API
//! walks the whole space from the root cursor.
//!
//! The [`parallel`] submodule splits the same space statically: it
//! collects, in canonical order, every cursor at some shallow depth `d`
//! (a *prefix* of the first `d` positions), and hands prefixes to
//! `std::thread::scope` workers round-robin. Because the subtrees below
//! two distinct prefixes are disjoint, and the concatenation of their
//! assignment streams *in prefix order* is exactly the canonical order,
//! merging per-prefix results by prefix index reproduces the sequential
//! output bit for bit — same candidate keys, same order, same
//! deduplication, same [`MatchStats`] counters, same `max_assignments`
//! truncation point — independent of thread count or scheduling. The
//! `max_assignments` cap is replayed exactly via a cheap counting pass
//! (structural enumeration only, no hint solves) that fixes each
//! prefix's budget before any expensive per-assignment work happens.

pub mod parallel;

use crate::attribute::AttributeHash;
use crate::hint::HintMatrix;
use crate::profile::{ProfileKey, ProfileVector};
use crate::remainder::RemainderVector;
use msb_crypto::sha256::Sha256;
use std::cell::RefCell;

/// Which positions may be declared unknown during enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnumerationMode {
    /// Unknown is always an option (within the γ budget). No false
    /// negatives, slightly more assignments to try. The default.
    #[default]
    Exhaustive,
    /// The paper's literal rule: unknown only where the candidate subset
    /// `H_k(r)` is empty.
    Strict,
}

/// Limits and mode for candidate enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchConfig {
    /// Enumeration mode (see [`EnumerationMode`]).
    pub mode: EnumerationMode,
    /// Upper bound on completed assignments to process; protects against
    /// pathological profiles (e.g. a dictionary attacker with thousands of
    /// attributes — exactly the asymmetry Protocol 2 exploits).
    pub max_assignments: usize,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig { mode: EnumerationMode::default(), max_assignments: 4096 }
    }
}

/// One structurally valid assignment of user attributes to request
/// positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateAssignment {
    /// User attribute index for each necessary position.
    pub necessary: Vec<usize>,
    /// User attribute index or unknown for each optional position.
    pub optional: Vec<Option<usize>>,
}

impl CandidateAssignment {
    /// Indices of the user's own attributes consumed by this assignment.
    pub fn used_indices(&self) -> Vec<usize> {
        let mut v: Vec<usize> =
            self.necessary.iter().copied().chain(self.optional.iter().flatten().copied()).collect();
        v.sort_unstable();
        v
    }

    /// Number of unknown optional positions.
    pub fn unknown_count(&self) -> usize {
        self.optional.iter().filter(|o| o.is_none()).count()
    }
}

/// A derived candidate profile key together with the evidence that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateKey {
    /// The candidate profile key `K_c = H(H'_c)`.
    pub key: ProfileKey,
    /// The recovered full request vector (necessary block then optional
    /// block) that hashed to `key`.
    pub recovered: Vec<AttributeHash>,
    /// Indices into the user's profile vector used as known values.
    pub used_indices: Vec<usize>,
}

/// Counters describing an enumeration run (feeds Table VI and Fig. 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Structurally valid assignments visited.
    pub assignments: usize,
    /// Linear-system solves performed (hint-matrix invocations).
    pub solves: usize,
    /// Distinct candidate keys produced.
    pub distinct_keys: usize,
    /// Whether the `max_assignments` cap cut enumeration short.
    pub truncated: bool,
}

/// Does at least one structurally valid assignment exist? This is the
/// relay's *fast check*: strictly cheaper than enumeration because it
/// stops at the first witness.
pub fn has_candidate_assignment(user: &ProfileVector, rv: &RemainderVector) -> bool {
    let mut found = false;
    visit_assignments(user, rv, EnumerationMode::Exhaustive, usize::MAX, &mut |_| {
        found = true;
        false // stop
    });
    found
}

/// Enumerates every structurally valid assignment (bounded by
/// `config.max_assignments`) and returns them.
pub fn enumerate_assignments(
    user: &ProfileVector,
    rv: &RemainderVector,
    config: &MatchConfig,
) -> Vec<CandidateAssignment> {
    let mut out = Vec::new();
    visit_assignments(user, rv, config.mode, config.max_assignments, &mut |a| {
        out.push(a.clone());
        true
    });
    out
}

/// Derives the candidate profile key set for `user` against a request
/// described by its remainder vector and (for fuzzy requests) hint matrix.
///
/// Keys are de-duplicated: assignments that recover the same full vector
/// produce one entry. See [`enumerate_candidate_keys_with_stats`] for the
/// instrumented variant.
pub fn enumerate_candidate_keys(
    user: &ProfileVector,
    rv: &RemainderVector,
    hint: Option<&HintMatrix>,
    config: &MatchConfig,
) -> Vec<CandidateKey> {
    enumerate_candidate_keys_with_stats(user, rv, hint, config).0
}

/// [`enumerate_candidate_keys`] plus run statistics.
pub fn enumerate_candidate_keys_with_stats(
    user: &ProfileVector,
    rv: &RemainderVector,
    hint: Option<&HintMatrix>,
    config: &MatchConfig,
) -> (Vec<CandidateKey>, MatchStats) {
    let mut stats = MatchStats::default();
    let mut keys: Vec<CandidateKey> = Vec::new();
    let user_hashes = user.hashes();

    visit_assignments(user, rv, config.mode, config.max_assignments, &mut |a| {
        stats.assignments += 1;
        if hint.is_some() {
            stats.solves += 1;
        }
        if let Some(ck) = complete_assignment(user_hashes, a, hint) {
            if !keys.iter().any(|k| k.key == ck.key) {
                keys.push(ck);
            }
        }
        true
    });

    stats.distinct_keys = keys.len();
    stats.truncated = stats.assignments >= config.max_assignments;
    (keys, stats)
}

/// Completes one structurally valid assignment into a candidate key:
/// fills the optional block through the hint matrix (or requires it fully
/// known when there is none) and hashes the recovered vector.
///
/// Shared by the sequential and parallel paths so both derive keys
/// through the same code.
pub(crate) fn complete_assignment(
    user_hashes: &[AttributeHash],
    a: &CandidateAssignment,
    hint: Option<&HintMatrix>,
) -> Option<CandidateKey> {
    // Build the optional-block partial assignment.
    let optional_partial: Vec<Option<AttributeHash>> =
        a.optional.iter().map(|slot| slot.map(|idx| user_hashes[idx])).collect();

    let optional_full: Vec<AttributeHash> = match hint {
        Some(h) => h.solve(&optional_partial),
        // No hint: only fully-known assignments can be completed.
        None => optional_partial.into_iter().collect(),
    }?;

    let necessary: Vec<AttributeHash> = a.necessary.iter().map(|&idx| user_hashes[idx]).collect();
    // Canonical order fills necessary positions outermost, so
    // consecutive assignments share the necessary-block prefix: reuse
    // its SHA-256 midstate instead of re-absorbing it per candidate.
    // Pure caching — `from_midstate(midstate(p), s) == from_hashes(p ‖ s)`
    // — so outputs are bit-identical at any thread count (each worker
    // thread has its own cache).
    let key = NECESSARY_MIDSTATE.with(|cell| {
        let mut cached = cell.borrow_mut();
        if cached.0 != necessary {
            cached.1 = ProfileKey::midstate(&necessary);
            cached.0.clear();
            cached.0.extend_from_slice(&necessary);
        }
        ProfileKey::from_midstate(&cached.1, &optional_full)
    });
    let mut recovered = necessary;
    recovered.extend(optional_full);
    debug_assert_eq!(key, ProfileKey::from_hashes(&recovered));
    Some(CandidateKey { key, recovered, used_indices: a.used_indices() })
}

thread_local! {
    /// Last-seen necessary-block prefix and its hash midstate (see
    /// [`complete_assignment`]). A fresh `Sha256` is the midstate of the
    /// empty prefix, so the initial entry is already consistent.
    static NECESSARY_MIDSTATE: RefCell<(Vec<AttributeHash>, Sha256)> =
        RefCell::new((Vec::new(), Sha256::new()));
}

/// Core backtracking enumerator. Calls `visit` for each completed
/// assignment; `visit` returning `false` aborts the walk. At most
/// `max_assignments` assignments are visited.
fn visit_assignments(
    user: &ProfileVector,
    rv: &RemainderVector,
    mode: EnumerationMode,
    max_assignments: usize,
    visit: &mut dyn FnMut(&CandidateAssignment) -> bool,
) {
    let space = SearchSpace::new(user, rv, mode);
    let mut remaining = max_assignments;
    let mut cur = space.root();
    space.visit_from(&mut cur, &mut remaining, &mut |c| visit(&c.assignment()));
}

/// Read-only description of one enumeration problem: the user's
/// remainders against a request's remainder vector, plus the mode limits.
/// All walks over the space — from the root or from a mid-depth prefix —
/// produce assignments in the same canonical order (see the module docs).
pub(crate) struct SearchSpace<'a> {
    user_rems: Vec<u64>,
    nec_rems: &'a [u64],
    opt_rems: &'a [u64],
    /// Strict mode: unknown allowed only where H_k(r) = ∅ globally.
    subset_empty: Vec<bool>,
    mode: EnumerationMode,
    gamma: usize,
    mk: usize,
}

/// One partial assignment: the first `filled()` positions of the search
/// space are decided. Cloneable so a shallow prefix can be handed to a
/// worker thread, which resumes the walk exactly where the prefix stops.
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    used: Vec<bool>,
    necessary: Vec<usize>,
    optional: Vec<Option<usize>>,
    /// Scan start for the next position (order consistency, Eq. 8).
    start: usize,
    unknowns: usize,
}

impl Cursor {
    fn filled(&self) -> usize {
        self.necessary.len() + self.optional.len()
    }

    /// Snapshot of the cursor as a completed/partial assignment.
    pub(crate) fn assignment(&self) -> CandidateAssignment {
        CandidateAssignment { necessary: self.necessary.clone(), optional: self.optional.clone() }
    }
}

impl<'a> SearchSpace<'a> {
    pub(crate) fn new(
        user: &ProfileVector,
        rv: &'a RemainderVector,
        mode: EnumerationMode,
    ) -> Self {
        let user_rems: Vec<u64> = user.remainders(rv.p());
        let subset_empty: Vec<bool> =
            rv.optional().iter().map(|&r| !user_rems.contains(&r)).collect();
        let mk = user_rems.len();
        SearchSpace {
            user_rems,
            nec_rems: rv.necessary(),
            opt_rems: rv.optional(),
            subset_empty,
            mode,
            gamma: rv.gamma(),
            mk,
        }
    }

    /// Total number of positions (α + β + γ); every completed assignment
    /// decides exactly this many.
    pub(crate) fn depth(&self) -> usize {
        self.nec_rems.len() + self.opt_rems.len()
    }

    /// The empty prefix.
    pub(crate) fn root(&self) -> Cursor {
        Cursor {
            used: vec![false; self.mk],
            necessary: Vec::with_capacity(self.nec_rems.len()),
            optional: Vec::with_capacity(self.opt_rems.len()),
            start: 0,
            unknowns: 0,
        }
    }

    /// Applies every legal move at the cursor's next position in canonical
    /// order — ascending user-attribute index, then (optional positions
    /// only) the unknown branch — invoking `f` on each extended cursor and
    /// undoing the move afterwards. Returns `false` as soon as `f` does.
    fn for_each_child(&self, cur: &mut Cursor, f: &mut dyn FnMut(&mut Cursor) -> bool) -> bool {
        let pos = cur.filled();
        debug_assert!(pos < self.depth());
        let scan_start = cur.start;
        let alpha = self.nec_rems.len();
        if pos < alpha {
            let want = self.nec_rems[pos];
            for x in scan_start..self.mk {
                if cur.used[x] || self.user_rems[x] != want {
                    continue;
                }
                cur.used[x] = true;
                cur.necessary.push(x);
                // The optional block restarts its index scan (Eq. 8 holds
                // per sorted block).
                cur.start = if pos + 1 == alpha { 0 } else { x + 1 };
                let go_on = f(cur);
                cur.necessary.pop();
                cur.used[x] = false;
                cur.start = scan_start;
                if !go_on {
                    return false;
                }
            }
        } else {
            let opos = pos - alpha;
            let want = self.opt_rems[opos];
            for x in scan_start..self.mk {
                if cur.used[x] || self.user_rems[x] != want {
                    continue;
                }
                cur.used[x] = true;
                cur.optional.push(Some(x));
                cur.start = x + 1;
                let go_on = f(cur);
                cur.optional.pop();
                cur.used[x] = false;
                cur.start = scan_start;
                if !go_on {
                    return false;
                }
            }
            let unknown_allowed = cur.unknowns < self.gamma
                && match self.mode {
                    EnumerationMode::Exhaustive => true,
                    EnumerationMode::Strict => self.subset_empty[opos],
                };
            if unknown_allowed {
                cur.optional.push(None);
                cur.unknowns += 1;
                // An unknown position does not consume an index: the next
                // position scans from the same start.
                let go_on = f(cur);
                cur.unknowns -= 1;
                cur.optional.pop();
                if !go_on {
                    return false;
                }
            }
        }
        true
    }

    /// Depth-first visit of every completed assignment reachable from
    /// `cur`, in canonical order. Each visit decrements `remaining`;
    /// returns `false` once the budget is exhausted or the visitor aborts.
    /// (Matching the historical cap semantics, the assignment that
    /// exhausts the budget is still visited.)
    pub(crate) fn visit_from(
        &self,
        cur: &mut Cursor,
        remaining: &mut usize,
        visit: &mut dyn FnMut(&Cursor) -> bool,
    ) -> bool {
        if cur.filled() == self.depth() {
            *remaining = remaining.saturating_sub(1);
            return visit(cur) && *remaining > 0;
        }
        self.for_each_child(cur, &mut |c| self.visit_from(c, remaining, visit))
    }

    /// Collects, in canonical order, every cursor with exactly the first
    /// `depth` positions decided. Returns `None` when more than `limit`
    /// prefixes exist (the caller falls back to a shallower depth).
    ///
    /// The set is *complete*: the subtrees below the returned prefixes
    /// partition all assignments of the space.
    pub(crate) fn prefixes_at_depth(&self, depth: usize, limit: usize) -> Option<Vec<Cursor>> {
        debug_assert!(depth <= self.depth());
        let mut out = Vec::new();
        let mut cur = self.root();
        if self.collect_prefixes(&mut cur, depth, limit, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn collect_prefixes(
        &self,
        cur: &mut Cursor,
        depth: usize,
        limit: usize,
        out: &mut Vec<Cursor>,
    ) -> bool {
        if cur.filled() == depth {
            if out.len() >= limit {
                return false;
            }
            out.push(cur.clone());
            return true;
        }
        self.for_each_child(cur, &mut |c| self.collect_prefixes(c, depth, limit, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::hint::{HintConstruction, HintMatrix};
    use crate::profile::Profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attr(i: usize) -> Attribute {
        Attribute::new("interest", format!("topic-{i}"))
    }

    fn sorted_hashes(attrs: &[Attribute]) -> Vec<AttributeHash> {
        let mut hs: Vec<AttributeHash> = attrs.iter().map(Attribute::hash).collect();
        hs.sort_unstable();
        hs
    }

    struct Fixture {
        rv: RemainderVector,
        hint: Option<HintMatrix>,
        key: ProfileKey,
    }

    /// Builds a request over attrs[0..alpha] necessary and
    /// attrs[alpha..alpha+opt] optional.
    fn fixture(alpha: usize, opt: usize, beta: usize, p: u64) -> (Vec<Attribute>, Fixture) {
        let attrs: Vec<Attribute> = (0..alpha + opt).map(attr).collect();
        let nec = sorted_hashes(&attrs[..alpha]);
        let optional = sorted_hashes(&attrs[alpha..]);
        let rv = RemainderVector::new(p, &nec, &optional, beta);
        let gamma = opt - beta;
        let hint = if gamma > 0 {
            Some(HintMatrix::generate(
                &optional,
                beta,
                HintConstruction::Cauchy,
                &mut StdRng::seed_from_u64(1),
            ))
        } else {
            None
        };
        let mut full = nec.clone();
        full.extend(optional);
        let key = ProfileKey::from_hashes(&full);
        (attrs, Fixture { rv, hint, key })
    }

    fn keys_for(profile: &Profile, fx: &Fixture, mode: EnumerationMode) -> Vec<CandidateKey> {
        let config = MatchConfig { mode, max_assignments: 10_000 };
        enumerate_candidate_keys(profile.vector(), &fx.rv, fx.hint.as_ref(), &config)
    }

    #[test]
    fn perfect_match_exact_request() {
        let (attrs, fx) = fixture(3, 0, 0, 11);
        let user = Profile::from_attributes(attrs);
        let keys = keys_for(&user, &fx, EnumerationMode::Strict);
        assert!(keys.iter().any(|k| k.key == fx.key));
    }

    #[test]
    fn fuzzy_match_with_missing_optional() {
        let (attrs, fx) = fixture(1, 4, 2, 11); // gamma = 2

        // User owns the necessary one + 2 of 4 optional + noise.
        let user = Profile::from_attributes(vec![
            attrs[0].clone(),
            attrs[1].clone(),
            attrs[2].clone(),
            Attribute::new("noise", "z"),
        ]);
        for mode in [EnumerationMode::Strict, EnumerationMode::Exhaustive] {
            let keys = keys_for(&user, &fx, mode);
            assert!(keys.iter().any(|k| k.key == fx.key), "true key missing in {mode:?}");
        }
    }

    #[test]
    fn below_threshold_user_never_gets_true_key() {
        let (attrs, fx) = fixture(1, 4, 3, 97); // needs 3 of 4 optional
                                                // Owns necessary + only 1 optional.
        let user = Profile::from_attributes(vec![attrs[0].clone(), attrs[1].clone()]);
        for mode in [EnumerationMode::Strict, EnumerationMode::Exhaustive] {
            let keys = keys_for(&user, &fx, mode);
            assert!(
                keys.iter().all(|k| k.key != fx.key),
                "below-threshold user must not recover the key in {mode:?}"
            );
        }
    }

    #[test]
    fn missing_necessary_blocks_match() {
        let (attrs, fx) = fixture(2, 3, 3, 97);
        // Owns all optional but only one of two necessary.
        let mut owned = attrs[2..].to_vec();
        owned.push(attrs[0].clone());
        let user = Profile::from_attributes(owned);
        let keys = keys_for(&user, &fx, EnumerationMode::Exhaustive);
        assert!(keys.iter().all(|k| k.key != fx.key));
    }

    #[test]
    fn unmatched_user_fast_check_consistency() {
        // fast_check true whenever enumeration finds >= 1 assignment.
        let (attrs, fx) = fixture(1, 3, 2, 11);
        for extra in 0..20 {
            let user = Profile::from_attributes(vec![
                Attribute::new("noise", format!("n{extra}")),
                attrs[0].clone(),
            ]);
            let assignments = enumerate_assignments(
                user.vector(),
                &fx.rv,
                &MatchConfig { mode: EnumerationMode::Exhaustive, max_assignments: 1000 },
            );
            assert_eq!(fx.rv.fast_check(user.vector()), !assignments.is_empty());
        }
    }

    #[test]
    fn exhaustive_fixes_collision_false_negative() {
        // Construct a user who truly satisfies the request but owns an
        // extra attribute whose remainder collides with an unowned
        // optional position. Strict mode can miss the true key; the
        // exhaustive mode must always find it.
        let p = 3u64; // tiny modulus makes collisions easy to find
        let (attrs, fx) = fixture(0, 4, 2, p); // gamma = 2

        // Owns optional[0], optional[1] (by hash order of the fixture's
        // optional block) plus colliding noise attributes.
        let optional = sorted_hashes(&attrs);
        let owned: Vec<Attribute> = attrs
            .iter()
            .filter(|a| {
                let h = a.hash();
                h == optional[0] || h == optional[1]
            })
            .cloned()
            .collect();
        let mut user_attrs = owned;
        for i in 0..30 {
            user_attrs.push(Attribute::new("noise", format!("c{i}")));
        }
        let user = Profile::from_attributes(user_attrs);
        let keys = keys_for(&user, &fx, EnumerationMode::Exhaustive);
        assert!(
            keys.iter().any(|k| k.key == fx.key),
            "exhaustive mode must never miss a true match"
        );
    }

    #[test]
    fn duplicate_keys_are_deduplicated() {
        let (attrs, fx) = fixture(0, 4, 2, 11); // gamma = 2
        let user = Profile::from_attributes(attrs); // owns everything
        let (keys, stats) = enumerate_candidate_keys_with_stats(
            user.vector(),
            &fx.rv,
            fx.hint.as_ref(),
            &MatchConfig { mode: EnumerationMode::Exhaustive, max_assignments: 10_000 },
        );
        // Many assignments (choosing which owned positions to "forget")
        // but they all recover the same vector.
        assert!(stats.assignments > 1);
        let matching: Vec<_> = keys.iter().filter(|k| k.key == fx.key).collect();
        assert_eq!(matching.len(), 1);
    }

    #[test]
    fn cap_truncates_enumeration() {
        let (attrs, fx) = fixture(0, 6, 3, 2); // p=2: collisions everywhere
        let mut user_attrs = attrs;
        for i in 0..10 {
            user_attrs.push(Attribute::new("noise", format!("x{i}")));
        }
        let user = Profile::from_attributes(user_attrs);
        let (_, stats) = enumerate_candidate_keys_with_stats(
            user.vector(),
            &fx.rv,
            fx.hint.as_ref(),
            &MatchConfig { mode: EnumerationMode::Exhaustive, max_assignments: 16 },
        );
        assert!(stats.truncated);
        assert_eq!(stats.assignments, 16);
    }

    #[test]
    fn order_consistency_is_enforced() {
        // Assignments must use strictly increasing user indices per block.
        let (attrs, fx) = fixture(0, 3, 3, 11);
        let user = Profile::from_attributes(attrs);
        let assignments = enumerate_assignments(
            user.vector(),
            &fx.rv,
            &MatchConfig { mode: EnumerationMode::Strict, max_assignments: 1000 },
        );
        for a in &assignments {
            let known: Vec<usize> = a.optional.iter().flatten().copied().collect();
            assert!(known.windows(2).all(|w| w[0] < w[1]), "{known:?}");
        }
    }

    #[test]
    fn no_attribute_reuse_across_blocks() {
        let (attrs, fx) = fixture(2, 2, 1, 2); // p=2 forces collisions
        let mut user_attrs = attrs;
        user_attrs.push(Attribute::new("noise", "q"));
        let user = Profile::from_attributes(user_attrs);
        let assignments = enumerate_assignments(
            user.vector(),
            &fx.rv,
            &MatchConfig { mode: EnumerationMode::Exhaustive, max_assignments: 10_000 },
        );
        for a in &assignments {
            let used = a.used_indices();
            let mut dedup = used.clone();
            dedup.dedup();
            assert_eq!(used, dedup, "attribute used twice: {a:?}");
        }
    }

    #[test]
    fn stats_count_solves() {
        let (attrs, fx) = fixture(1, 3, 2, 11);
        let user = Profile::from_attributes(attrs);
        let (_, stats) = enumerate_candidate_keys_with_stats(
            user.vector(),
            &fx.rv,
            fx.hint.as_ref(),
            &MatchConfig::default(),
        );
        assert!(stats.solves >= 1);
        assert_eq!(stats.solves, stats.assignments); // hint present for all
    }

    #[test]
    fn empty_user_profile_not_candidate() {
        let (_, fx) = fixture(1, 3, 2, 11);
        let user = Profile::new();
        assert!(!fx.rv.fast_check(user.vector()));
        assert!(keys_for(&user, &fx, EnumerationMode::Exhaustive).is_empty());
    }
}
