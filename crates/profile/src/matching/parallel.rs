//! Deterministic parallel candidate enumeration.
//!
//! Shards the canonical backtracking walk of `SearchSpace` across
//! `std::thread::scope` workers pulling from a shared work queue (a
//! single atomic claim counter — no rayon, the build environment has no
//! crates.io access):
//!
//! 1. **Split.** Collect every prefix cursor at the shallowest depth that
//!    yields at least `PREFIXES_PER_THREAD` prefixes per worker (or the
//!    full depth, whichever comes first). The prefix list is in canonical
//!    order and its subtrees partition the space.
//! 2. **Count.** Workers enumerate each prefix's subtree *structurally*
//!    (no hint solves, no hashing) to count its assignments, capped at
//!    the `max_assignments` budget. From the counts the main thread
//!    computes the exact per-prefix budget the sequential walk would
//!    consume before hitting the global cap.
//! 3. **Produce.** Workers re-walk exactly the budgeted assignments,
//!    performing the expensive per-assignment work (hint-matrix solve +
//!    SHA-256 key derivation).
//! 4. **Merge.** The main thread concatenates per-prefix results in
//!    prefix order — which *is* the sequential visit order — and applies
//!    the same first-occurrence key deduplication, so output, ordering
//!    and [`MatchStats`] are bit-identical to the sequential API for
//!    every thread count.
//!
//! Prefixes are claimed dynamically: every worker pulls the next
//! unclaimed prefix index from a shared atomic counter, so a worker
//! stuck in one huge subtree never idles its siblings — the skewed
//! subtree sizes of real profiles self-balance, unlike the static
//! round-robin partition this replaced. Which worker computes which
//! prefix is scheduling-dependent, but it *cannot* affect the output:
//! results are merged into slots indexed by prefix, not by worker, so
//! output, ordering and [`MatchStats`] stay bit-identical to the
//! sequential API for every thread count and every interleaving.

use super::{
    complete_assignment, enumerate_assignments, enumerate_candidate_keys_with_stats,
    CandidateAssignment, CandidateKey, MatchConfig, MatchStats, SearchSpace,
};
use crate::hint::HintMatrix;
use crate::profile::ProfileVector;
use crate::remainder::RemainderVector;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Target number of prefixes per worker; more prefixes smooth out skew
/// between subtrees at the cost of a deeper (still cheap) split pass.
const PREFIXES_PER_THREAD: usize = 8;

/// How many worker threads the responder path may use.
///
/// `Parallelism` is a plain copyable config value plumbed through
/// `ProtocolConfig`; `1` means the unchanged sequential code path. The
/// default reads the `MSB_THREADS` environment variable once per process
/// (absent/invalid → sequential), which is how the CI matrix runs the
/// whole test suite under different thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(usize);

impl Parallelism {
    /// The sequential path: no worker threads, byte-for-byte the
    /// historical behaviour.
    pub const SEQUENTIAL: Parallelism = Parallelism(1);

    /// A fixed thread count; `0` is clamped to `1`.
    pub fn new(threads: usize) -> Self {
        Parallelism(threads.max(1))
    }

    /// The configured thread count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.0
    }

    /// Whether this runs on the caller's thread only.
    pub fn is_sequential(&self) -> bool {
        self.0 == 1
    }

    /// Reads `MSB_THREADS` (cached after the first call). Absent, empty
    /// or unparsable values mean sequential.
    pub fn from_env() -> Self {
        static ENV_THREADS: OnceLock<usize> = OnceLock::new();
        let threads = *ENV_THREADS.get_or_init(|| {
            std::env::var("MSB_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1)
        });
        Parallelism(threads)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::from_env()
    }
}

/// Maps `f` over `0..n` across `threads` scoped workers pulling
/// indices from a shared work queue (one atomic claim counter),
/// returning results in index order. Each worker loops claiming the
/// next unclaimed index until the queue is exhausted, so skewed
/// per-index costs self-balance instead of serializing on the
/// unluckiest worker. With one worker (or `n <= 1`) it runs inline on
/// the caller's thread.
///
/// Panics in `f` propagate to the caller.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    // The work queue: claiming an index is one fetch_add. Relaxed
    // suffices — the only cross-thread handoff that must be ordered is
    // the results, and `scope`'s join synchronizes those.
    let next = &AtomicUsize::new(0);
    // Per-worker claim counts and busy time go to the opt-in global
    // registry. Which worker claims which index is scheduling-dependent
    // (and busy time is wall clock), so these series are explicitly
    // outside the determinism contract — they must never feed the
    // deterministic sinks or the output merge (results are slotted by
    // index, not worker).
    let observe = msb_telemetry::global::enabled();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut claims = 0u64;
                    let started = observe.then(std::time::Instant::now);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        claims += 1;
                        out.push((i, f(i)));
                    }
                    if let Some(t0) = started {
                        let busy_us = t0.elapsed().as_micros() as u64;
                        msb_telemetry::global::with(|m| {
                            m.incr("match.worker.claims", w as u32, claims);
                            m.incr("match.worker.busy_us", w as u32, busy_us);
                        });
                    }
                    out
                })
            })
            .collect();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for handle in handles {
            for (i, v) in handle.join().expect("enumeration worker panicked") {
                slots[i] = Some(v);
            }
        }
        slots.into_iter().map(|s| s.expect("the claim counter covers every index")).collect()
    })
}

/// Picks the split depth: the shallowest prefix set with at least
/// `threads * PREFIXES_PER_THREAD` entries, falling back to the deepest
/// set that stays under the size limit (the set at every depth is
/// complete, so any depth is correct — deeper only balances better).
fn split_prefixes(space: &SearchSpace<'_>, threads: usize) -> Vec<super::Cursor> {
    let target = threads.saturating_mul(PREFIXES_PER_THREAD);
    let limit = target.saturating_mul(64).max(4096);
    let mut current = vec![space.root()];
    for depth in 1..=space.depth() {
        match space.prefixes_at_depth(depth, limit) {
            Some(next) => {
                // An empty complete prefix set means no assignment
                // survives this depth: the whole space is empty.
                let done = next.is_empty() || next.len() >= target;
                current = next;
                if done {
                    break;
                }
            }
            // Too many prefixes at this depth; the previous (complete)
            // set already bounds memory and is correct.
            None => break,
        }
    }
    current
}

/// Per-prefix budgets replaying the sequential `max_assignments` cap:
/// the sequential walk consumes prefixes in order, so the first `cap`
/// assignments of the concatenated streams are exactly its visit set.
fn budgets_for(counts: &[usize], cap: usize) -> Vec<usize> {
    let mut budgets = vec![0usize; counts.len()];
    let mut left = cap;
    for (b, &c) in budgets.iter_mut().zip(counts) {
        *b = c.min(left);
        left -= *b;
    }
    budgets
}

/// Structural assignment counts per prefix (pass 2 of the module docs).
///
/// Prefixes are counted in canonical-order chunks with a running budget:
/// once the cumulative count reaches `cap`, every later prefix's
/// sequential budget is provably zero (the cap is consumed in prefix
/// order), so its subtree is never walked and its count is left at zero
/// — `budgets_for` yields the same budgets either way. Within a chunk,
/// each count is capped at the budget left when the chunk started, which
/// bounds the pass at roughly one chunk of overshoot instead of
/// `prefixes × cap` structural visits on truncation-heavy spaces.
fn count_pass(
    space: &SearchSpace<'_>,
    prefixes: &[super::Cursor],
    cap: usize,
    threads: usize,
) -> Vec<usize> {
    let chunk = threads.saturating_mul(PREFIXES_PER_THREAD).max(1);
    let mut counts = vec![0usize; prefixes.len()];
    let mut left = cap;
    let mut start = 0usize;
    while start < prefixes.len() && left > 0 {
        let end = (start + chunk).min(prefixes.len());
        let chunk_counts = par_map(end - start, threads, |j| {
            let mut n = 0usize;
            let mut remaining = left;
            let mut cur = prefixes[start + j].clone();
            space.visit_from(&mut cur, &mut remaining, &mut |_| {
                n += 1;
                true
            });
            n
        });
        for (j, c) in chunk_counts.into_iter().enumerate() {
            counts[start + j] = c;
            left = left.saturating_sub(c);
        }
        start = end;
    }
    counts
}

/// The shared split/count/budget/produce scaffolding behind both
/// parallel entry points: shards the space, replays the sequential cap,
/// and maps `f` over exactly the budgeted assignments of each prefix.
/// Results come back grouped by prefix, in canonical order. `None` means
/// the space didn't split (degenerate or empty) and the caller should
/// run the sequential path.
fn shard_walk<T, F>(
    space: &SearchSpace<'_>,
    cap: usize,
    threads: usize,
    f: F,
) -> Option<Vec<Vec<T>>>
where
    T: Send,
    F: Fn(&super::Cursor) -> T + Sync,
{
    let prefixes = split_prefixes(space, threads);
    if prefixes.len() <= 1 {
        return None;
    }
    let counts = count_pass(space, &prefixes, cap, threads);
    let budgets = budgets_for(&counts, cap);
    Some(par_map(prefixes.len(), threads, |i| {
        let budget = budgets[i];
        let mut out = Vec::with_capacity(budget);
        if budget == 0 {
            return out;
        }
        let mut remaining = budget;
        let mut cur = prefixes[i].clone();
        space.visit_from(&mut cur, &mut remaining, &mut |c| {
            out.push(f(c));
            true
        });
        out
    }))
}

/// Parallel [`super::enumerate_candidate_keys_with_stats`]: identical
/// output (keys, order, stats, truncation) for every thread count; see
/// the module docs for the argument.
pub fn enumerate_candidate_keys_with_stats_par(
    user: &ProfileVector,
    rv: &RemainderVector,
    hint: Option<&HintMatrix>,
    config: &MatchConfig,
    parallelism: Parallelism,
) -> (Vec<CandidateKey>, MatchStats) {
    if parallelism.is_sequential() {
        return enumerate_candidate_keys_with_stats(user, rv, hint, config);
    }
    // The sequential walk visits the assignment that exhausts a zero/one
    // budget before stopping; mirror that by never budgeting below 1.
    let cap = config.max_assignments.max(1);
    let space = SearchSpace::new(user, rv, config.mode);
    let user_hashes = user.hashes();
    let Some(produced) = shard_walk(&space, cap, parallelism.threads(), |c| {
        complete_assignment(user_hashes, &c.assignment(), hint)
    }) else {
        return enumerate_candidate_keys_with_stats(user, rv, hint, config);
    };

    // Deterministic merge in prefix order == sequential visit order.
    let mut stats = MatchStats::default();
    let mut keys: Vec<CandidateKey> = Vec::new();
    for branch in produced {
        for item in branch {
            stats.assignments += 1;
            if hint.is_some() {
                stats.solves += 1;
            }
            if let Some(ck) = item {
                if !keys.iter().any(|k| k.key == ck.key) {
                    keys.push(ck);
                }
            }
        }
    }
    stats.distinct_keys = keys.len();
    stats.truncated = stats.assignments >= config.max_assignments;
    (keys, stats)
}

/// Parallel [`super::enumerate_assignments`]: identical list for every
/// thread count.
pub fn enumerate_assignments_par(
    user: &ProfileVector,
    rv: &RemainderVector,
    config: &MatchConfig,
    parallelism: Parallelism,
) -> Vec<CandidateAssignment> {
    if parallelism.is_sequential() {
        return enumerate_assignments(user, rv, config);
    }
    let cap = config.max_assignments.max(1);
    let space = SearchSpace::new(user, rv, config.mode);
    match shard_walk(&space, cap, parallelism.threads(), |c| c.assignment()) {
        Some(produced) => produced.into_iter().flatten().collect(),
        None => enumerate_assignments(user, rv, config),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{enumerate_candidate_keys_with_stats, EnumerationMode};
    use super::*;
    use crate::attribute::Attribute;
    use crate::hint::{HintConstruction, HintMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attrs(prefix: &str, n: usize) -> Vec<Attribute> {
        (0..n).map(|i| Attribute::new(prefix, format!("{prefix}-{i}"))).collect()
    }

    fn sorted_hashes(attrs: &[Attribute]) -> Vec<crate::attribute::AttributeHash> {
        let mut hs: Vec<_> = attrs.iter().map(Attribute::hash).collect();
        hs.sort_unstable();
        hs
    }

    /// A collision-heavy workload: small modulus, noisy profile.
    fn workload(
        p: u64,
        alpha: usize,
        opt: usize,
        beta: usize,
        noise: usize,
    ) -> (ProfileVector, RemainderVector, Option<HintMatrix>) {
        let request_attrs = attrs("req", alpha + opt);
        let nec = sorted_hashes(&request_attrs[..alpha]);
        let optional = sorted_hashes(&request_attrs[alpha..]);
        let rv = RemainderVector::new(p, &nec, &optional, beta);
        let hint = (opt > beta).then(|| {
            HintMatrix::generate(
                &optional,
                beta,
                HintConstruction::Cauchy,
                &mut StdRng::seed_from_u64(5),
            )
        });
        let mut owned = request_attrs;
        owned.extend(attrs("noise", noise));
        let profile = crate::profile::Profile::from_attributes(owned);
        (profile.vector().clone(), rv, hint)
    }

    #[test]
    fn parallelism_defaults_and_clamping() {
        assert!(Parallelism::SEQUENTIAL.is_sequential());
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(6).threads(), 6);
        assert!(!Parallelism::new(2).is_sequential());
    }

    #[test]
    fn par_map_orders_and_covers() {
        for threads in [1usize, 2, 3, 8, 33] {
            let out = par_map(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn identical_to_sequential_across_thread_counts() {
        for (p, alpha, opt, beta, noise) in
            [(2u64, 0usize, 4usize, 2usize, 8usize), (3, 1, 3, 2, 6), (11, 2, 4, 2, 10)]
        {
            let (user, rv, hint) = workload(p, alpha, opt, beta, noise);
            for mode in [EnumerationMode::Strict, EnumerationMode::Exhaustive] {
                let config = MatchConfig { mode, max_assignments: 10_000 };
                let (seq_keys, seq_stats) =
                    enumerate_candidate_keys_with_stats(&user, &rv, hint.as_ref(), &config);
                let seq_assignments = enumerate_assignments(&user, &rv, &config);
                for threads in [2usize, 4, 8] {
                    let (par_keys, par_stats) = enumerate_candidate_keys_with_stats_par(
                        &user,
                        &rv,
                        hint.as_ref(),
                        &config,
                        Parallelism::new(threads),
                    );
                    assert_eq!(par_keys, seq_keys, "keys p={p} mode={mode:?} t={threads}");
                    assert_eq!(par_stats, seq_stats, "stats p={p} mode={mode:?} t={threads}");
                    let par_assignments =
                        enumerate_assignments_par(&user, &rv, &config, Parallelism::new(threads));
                    assert_eq!(par_assignments, seq_assignments);
                }
            }
        }
    }

    #[test]
    fn truncation_point_is_replayed_exactly() {
        // p = 2 makes every attribute collide with every position: huge
        // space, so the cap binds. The parallel path must stop at the
        // same assignment the sequential walk stops at.
        let (user, rv, hint) = workload(2, 0, 6, 3, 12);
        for cap in [1usize, 7, 16, 100, 1000] {
            let config = MatchConfig { mode: EnumerationMode::Exhaustive, max_assignments: cap };
            let (seq_keys, seq_stats) =
                enumerate_candidate_keys_with_stats(&user, &rv, hint.as_ref(), &config);
            for threads in [2usize, 4] {
                let (par_keys, par_stats) = enumerate_candidate_keys_with_stats_par(
                    &user,
                    &rv,
                    hint.as_ref(),
                    &config,
                    Parallelism::new(threads),
                );
                assert_eq!(par_stats, seq_stats, "cap={cap} t={threads}");
                assert_eq!(par_keys, seq_keys, "cap={cap} t={threads}");
            }
        }
    }

    #[test]
    fn empty_space_yields_empty_everywhere() {
        // A user owning nothing relevant at a collision-free modulus.
        let request_attrs = attrs("req", 3);
        let optional = sorted_hashes(&request_attrs);
        let rv = RemainderVector::new(97, &[], &optional, 3);
        let profile = crate::profile::Profile::from_attributes(attrs("other", 4));
        let user = profile.vector().clone();
        let config = MatchConfig::default();
        for threads in [2usize, 4] {
            let (keys, stats) = enumerate_candidate_keys_with_stats_par(
                &user,
                &rv,
                None,
                &config,
                Parallelism::new(threads),
            );
            let (seq_keys, seq_stats) =
                enumerate_candidate_keys_with_stats(&user, &rv, None, &config);
            assert_eq!(keys, seq_keys);
            assert_eq!(stats, seq_stats);
            assert_eq!(stats.assignments, 0);
        }
    }
}
