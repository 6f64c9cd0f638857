//! Protocols 1, 2 and 3 (paper §III-E).
//!
//! All three share the same skeleton — seal a random `x` under the
//! request profile key, broadcast, collect acknowledgements carrying `y` —
//! and differ in what a candidate can verify and how much they reveal:
//!
//! * **Protocol 1** includes a public confirmation tag in the bottle, so
//!   a candidate *knows* when they matched (and learns the profile
//!   intersection). Vulnerable to dictionary profiling of the request
//!   when the attribute space is small.
//! * **Protocol 2** omits the confirmation: candidates cannot tell which
//!   of their candidate keys (if any) worked and must gamble an
//!   acknowledgement per candidate key. The initiator unmasks malicious
//!   repliers by response time and reply-set cardinality.
//! * **Protocol 3** additionally caps the entropy of the attribute set a
//!   responder is willing to gamble (`S(⋃ A_c) ≤ ϕ`), protecting
//!   candidates against a dictionary-wielding *initiator*.

use crate::channel::{GroupChannel, Role, SecureChannel};
use crate::package::{Reply, RequestPackage, KIND_P1, KIND_P2, KIND_P3};
use msb_crypto::aes::{Aes256, CipherBackend};
use msb_crypto::modes::Ctr;
use msb_profile::attribute::{Attribute, AttributeHash};
use msb_profile::entropy::{select_within_budget, EntropyModel};
use msb_profile::hint::HintConstruction;
use msb_profile::matching::parallel::enumerate_candidate_keys_with_stats_par;
use msb_profile::matching::{MatchConfig, MatchStats};
use msb_profile::profile::{Profile, ProfileKey, ProfileVector};
use msb_profile::request::{RequestProfile, RequestVector};
use rand::Rng;
use std::collections::HashMap;

pub use msb_profile::matching::parallel::Parallelism;

/// Public confirmation tag sealed into Protocol-1 bottles.
pub const CONFIRMATION: [u8; 16] = *b"MSB/CONFIRM/v1.0";
/// Public acknowledgement tag inside replies.
pub const ACK_TAG: [u8; 8] = *b"MSB/ACK1";

/// Which of the paper's three protocols to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Confirmation in the bottle; responder-verifiable.
    P1,
    /// No confirmation; initiator filters replies.
    P2,
    /// Protocol 2 plus ϕ-entropy candidate selection.
    P3,
}

impl ProtocolKind {
    pub(crate) fn wire(&self) -> u8 {
        match self {
            ProtocolKind::P1 => KIND_P1,
            ProtocolKind::P2 => KIND_P2,
            ProtocolKind::P3 => KIND_P3,
        }
    }

    pub(crate) fn from_wire(v: u8) -> Option<Self> {
        match v {
            KIND_P1 => Some(ProtocolKind::P1),
            KIND_P2 => Some(ProtocolKind::P2),
            KIND_P3 => Some(ProtocolKind::P3),
            _ => None,
        }
    }
}

/// Tunable parameters shared by both sides.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Protocol variant.
    pub kind: ProtocolKind,
    /// Remainder modulus (a small prime `> m_t`; the paper uses 11/23).
    pub p: u64,
    /// Flood TTL for the request package.
    pub ttl: u8,
    /// Request validity window in microseconds.
    pub validity_us: u64,
    /// Replies arriving later than this after sending are treated as
    /// malicious (Protocol 2/3 step 3).
    pub reply_window_us: u64,
    /// Replies with more acknowledgements than this are treated as
    /// malicious (Protocol 2/3 step 3).
    pub max_reply_set: usize,
    /// Candidate enumeration parameters.
    pub match_config: MatchConfig,
    /// Hint-matrix construction.
    pub hint_construction: HintConstruction,
    /// Worker threads for the responder's candidate enumeration and
    /// (Protocol 1) key trials. The parallel path is bit-identical to the
    /// sequential one; the default honours `MSB_THREADS`.
    pub parallelism: Parallelism,
    /// AES backend for sealing/opening bottles and acknowledgements.
    /// Both backends produce identical wire bytes; the S-box oracle is
    /// the default, `MSB_AES_BACKEND=table` opts into T-tables (see
    /// `docs/CRYPTO.md` for when that is safe).
    pub cipher_backend: CipherBackend,
}

impl ProtocolConfig {
    /// Sensible defaults: 8-hop TTL, 60 s validity, 10 s reply window,
    /// reply sets capped at 8.
    pub fn new(kind: ProtocolKind, p: u64) -> Self {
        ProtocolConfig {
            kind,
            p,
            ttl: 8,
            validity_us: 60_000_000,
            reply_window_us: 10_000_000,
            max_reply_set: 8,
            match_config: MatchConfig::default(),
            hint_construction: HintConstruction::Cauchy,
            parallelism: Parallelism::default(),
            cipher_backend: CipherBackend::from_env(),
        }
    }
}

/// Seals the protocol message under the profile key.
pub(crate) fn seal_message<R: Rng + ?Sized>(
    key: &ProfileKey,
    kind: ProtocolKind,
    x: &[u8; 32],
    backend: CipherBackend,
    rng: &mut R,
) -> ([u8; 16], Vec<u8>) {
    let mut nonce = [0u8; 16];
    rng.fill(&mut nonce);
    let mut pt = Vec::with_capacity(48);
    if kind == ProtocolKind::P1 {
        pt.extend_from_slice(&CONFIRMATION);
    }
    pt.extend_from_slice(x);
    let cipher = Aes256::with_backend(key.as_bytes(), backend);
    Ctr::new(&cipher, nonce).apply_keystream(&mut pt);
    (nonce, pt)
}

/// Attempts to open a sealed message with a pre-scheduled cipher: the
/// key-trial loops expand each candidate's key schedule exactly once and
/// reuse it across every trial block of the ciphertext.
///
/// Protocol 1: `Some(x)` only when the confirmation verifies. Protocols
/// 2/3: always yields the decrypted candidate `x` (there is nothing to
/// verify — by design).
pub(crate) fn open_message_with(
    cipher: &Aes256,
    kind: ProtocolKind,
    nonce: &[u8; 16],
    ciphertext: &[u8],
) -> Option<[u8; 32]> {
    let expected_len = match kind {
        ProtocolKind::P1 => 48,
        ProtocolKind::P2 | ProtocolKind::P3 => 32,
    };
    if ciphertext.len() != expected_len {
        return None;
    }
    let mut pt = ciphertext.to_vec();
    Ctr::new(cipher, *nonce).apply_keystream(&mut pt);
    match kind {
        ProtocolKind::P1 => {
            if !msb_crypto::ct::eq(&pt[..16], &CONFIRMATION) {
                return None;
            }
            Some(pt[16..48].try_into().expect("length checked"))
        }
        ProtocolKind::P2 | ProtocolKind::P3 => Some(pt[..32].try_into().expect("length checked")),
    }
}

/// [`open_message_with`] for a candidate [`ProfileKey`], expanding the
/// schedule on the given backend.
pub(crate) fn open_message(
    key: &ProfileKey,
    kind: ProtocolKind,
    nonce: &[u8; 16],
    ciphertext: &[u8],
    backend: CipherBackend,
) -> Option<[u8; 32]> {
    open_message_with(&Aes256::with_backend(key.as_bytes(), backend), kind, nonce, ciphertext)
}

/// Builds one acknowledgement `nonce ‖ E_{x}(ack ‖ y)`.
pub(crate) fn make_ack<R: Rng + ?Sized>(
    x: &[u8; 32],
    y: &[u8; 32],
    backend: CipherBackend,
    rng: &mut R,
) -> Vec<u8> {
    let mut nonce = [0u8; 16];
    rng.fill(&mut nonce);
    let mut pt = Vec::with_capacity(40);
    pt.extend_from_slice(&ACK_TAG);
    pt.extend_from_slice(y);
    let cipher = Aes256::with_backend(x, backend);
    Ctr::new(&cipher, nonce).apply_keystream(&mut pt);
    let mut out = Vec::with_capacity(56);
    out.extend_from_slice(&nonce);
    out.extend_from_slice(&pt);
    out
}

/// Opens an acknowledgement with the true `x`; `Some(y)` iff the ack tag
/// verifies — i.e. the responder really decrypted the bottle.
pub(crate) fn open_ack(x: &[u8; 32], ack: &[u8], backend: CipherBackend) -> Option<[u8; 32]> {
    if ack.len() != 56 {
        return None;
    }
    let nonce: [u8; 16] = ack[..16].try_into().expect("length checked");
    let mut pt = ack[16..].to_vec();
    let cipher = Aes256::with_backend(x, backend);
    Ctr::new(&cipher, nonce).apply_keystream(&mut pt);
    if !msb_crypto::ct::eq(&pt[..8], &ACK_TAG) {
        return None;
    }
    Some(pt[8..40].try_into().expect("length checked"))
}

/// A validated match on the initiator's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmedMatch {
    /// The responder's node id.
    pub responder: u32,
    /// The responder's channel secret.
    pub y: [u8; 32],
    /// When the reply arrived (simulation time).
    pub received_at_us: u64,
    /// Size of the responder's acknowledgement set (1 for honest P1).
    pub reply_set_size: usize,
}

/// Why replies were rejected (Protocol 2/3 step 3 bookkeeping).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectLog {
    /// Replies outside the response-time window.
    pub late: usize,
    /// Replies whose acknowledgement set exceeded the cardinality cap.
    pub oversized: usize,
    /// Replies answering a different request id.
    pub wrong_request: usize,
    /// Replies with no acknowledgement decrypting under `x`.
    pub no_valid_ack: usize,
    /// Additional replies from an already-confirmed responder.
    pub duplicate: usize,
}

/// The initiator's protocol state.
#[derive(Debug, Clone)]
pub struct Initiator {
    config: ProtocolConfig,
    x: [u8; 32],
    request_id: [u8; 32],
    sent_at_us: u64,
    matches: Vec<ConfirmedMatch>,
    rejects: RejectLog,
}

impl Initiator {
    /// Creates the protocol state and the broadcastable package for a
    /// request profile.
    ///
    /// # Panics
    ///
    /// Panics if `config.p <= m_t` (the paper requires `p > m_t`).
    pub fn create<R: Rng + ?Sized>(
        request: &RequestProfile,
        initiator_id: u32,
        config: &ProtocolConfig,
        now_us: u64,
        rng: &mut R,
    ) -> (Self, RequestPackage) {
        Self::create_from_vector(&request.vector(), initiator_id, config, now_us, rng)
    }

    /// Like [`Initiator::create`] but from a pre-hashed request vector
    /// (used by the vicinity search, whose attributes are lattice
    /// points).
    ///
    /// # Panics
    ///
    /// Panics if `config.p <= m_t`.
    pub fn create_from_vector<R: Rng + ?Sized>(
        vector: &RequestVector,
        initiator_id: u32,
        config: &ProtocolConfig,
        now_us: u64,
        rng: &mut R,
    ) -> (Self, RequestPackage) {
        assert!(config.p > vector.len() as u64, "remainder modulus must exceed the request size");
        let key = vector.profile_key();
        let mut x = [0u8; 32];
        rng.fill(&mut x);
        let (nonce, ciphertext) = seal_message(&key, config.kind, &x, config.cipher_backend, rng);
        let package = RequestPackage {
            kind: config.kind.wire(),
            initiator: initiator_id,
            ttl: config.ttl,
            expires_us: now_us + config.validity_us,
            remainder: vector.remainder_vector(config.p),
            hint: vector.hint_matrix(config.hint_construction, rng),
            nonce,
            ciphertext,
        };
        let state = Initiator {
            config: config.clone(),
            x,
            request_id: package.request_id(),
            sent_at_us: now_us,
            matches: Vec::new(),
            rejects: RejectLog::default(),
        };
        (state, package)
    }

    /// The secret `x` (needed to later address the group channel).
    pub fn x(&self) -> &[u8; 32] {
        &self.x
    }

    /// The request id replies must reference.
    pub fn request_id(&self) -> [u8; 32] {
        self.request_id
    }

    /// Confirmed matches so far.
    pub fn matches(&self) -> &[ConfirmedMatch] {
        &self.matches
    }

    /// Reply rejection counters.
    pub fn reject_log(&self) -> &RejectLog {
        &self.rejects
    }

    /// Validates a reply (Protocol 2/3 step 3: response-time window,
    /// reply-set cardinality, then acknowledgement decryption) and
    /// returns the newly confirmed matches.
    pub fn process_reply(&mut self, reply: &Reply, now_us: u64) -> Vec<ConfirmedMatch> {
        if reply.request_id != self.request_id {
            self.rejects.wrong_request += 1;
            return Vec::new();
        }
        if now_us.saturating_sub(self.sent_at_us) > self.config.reply_window_us {
            self.rejects.late += 1;
            return Vec::new();
        }
        if reply.acks.len() > self.config.max_reply_set {
            self.rejects.oversized += 1;
            return Vec::new();
        }
        if self.matches.iter().any(|m| m.responder == reply.responder) {
            self.rejects.duplicate += 1;
            return Vec::new();
        }
        for ack in &reply.acks {
            if let Some(y) = open_ack(&self.x, ack, self.config.cipher_backend) {
                let m = ConfirmedMatch {
                    responder: reply.responder,
                    y,
                    received_at_us: now_us,
                    reply_set_size: reply.acks.len(),
                };
                self.matches.push(m);
                return vec![m];
            }
        }
        self.rejects.no_valid_ack += 1;
        Vec::new()
    }

    /// Pairwise secure channel with a confirmed match (initiator role).
    pub fn pair_channel(&self, with: &ConfirmedMatch) -> SecureChannel {
        SecureChannel::pairwise(&self.x, &with.y, Role::Initiator)
    }

    /// Group channel keyed by `x` for the whole matched community
    /// (paper §III-F).
    pub fn group_channel(&self) -> GroupChannel {
        GroupChannel::from_x(&self.x)
    }
}

/// One gambled candidate on the responder's side: the decrypted `x`
/// candidate plus the fresh `y` that was acknowledged under it.
#[derive(Debug, Clone)]
pub struct SessionSecret {
    /// The candidate `x` recovered with one candidate profile key.
    pub x: [u8; 32],
    /// The responder's channel secret `y` (shared across the reply).
    pub y: [u8; 32],
    /// The recovered request vector behind this candidate — for a true
    /// match this *is* `H_t`, i.e. the profile intersection knowledge the
    /// paper's PPL2 grants a matching user.
    pub recovered: Vec<AttributeHash>,
}

impl SessionSecret {
    /// The responder-side channel for this candidate. For Protocols 2/3
    /// the responder tries each candidate's channel until one of the
    /// initiator's messages authenticates.
    pub fn channel(&self) -> SecureChannel {
        SecureChannel::pairwise(&self.x, &self.y, Role::Responder)
    }

    /// The group channel this candidate would belong to.
    pub fn group_channel(&self) -> GroupChannel {
        GroupChannel::from_x(&self.x)
    }
}

/// Outcome of a responder processing one request package.
#[derive(Debug, Clone)]
pub enum ResponderOutcome {
    /// The request had expired; dropped without processing.
    Expired,
    /// Failed the remainder fast check (or yielded no candidate keys):
    /// forward-only, learn nothing — the paper's non-candidate path.
    NotCandidate,
    /// Protocol 1 only: candidate keys existed but none opened the bottle
    /// (remainder collisions). Indistinguishable from `NotCandidate` to
    /// everyone else; kept separate for instrumentation.
    NoVerifiedMatch,
    /// A reply is warranted.
    Reply {
        /// The acknowledgement set to send back.
        reply: Reply,
        /// The candidate session secrets (one per acknowledgement).
        sessions: Vec<SessionSecret>,
        /// Whether the responder *verified* the match (Protocol 1 only).
        verified: bool,
        /// Enumeration statistics (drives the evaluation figures).
        stats: MatchStats,
    },
}

/// The responder (relay/candidate/matching user) logic.
#[derive(Debug, Clone)]
pub struct Responder {
    id: u32,
    vector: ProfileVector,
    attrs_by_hash: HashMap<AttributeHash, Attribute>,
    config: ProtocolConfig,
    entropy: Option<(EntropyModel, f64)>,
}

impl Responder {
    /// Creates a responder for a user profile.
    pub fn new(id: u32, profile: Profile, config: &ProtocolConfig) -> Self {
        let attrs_by_hash = profile.iter().map(|a| (a.hash(), a.clone())).collect();
        Responder {
            id,
            vector: profile.vector().clone(),
            attrs_by_hash,
            config: config.clone(),
            entropy: None,
        }
    }

    /// Creates a responder from a raw hash vector (vicinity search:
    /// lattice-point "attributes" have no textual form).
    pub fn from_vector(id: u32, vector: ProfileVector, config: &ProtocolConfig) -> Self {
        Responder {
            id,
            vector,
            attrs_by_hash: HashMap::new(),
            config: config.clone(),
            entropy: None,
        }
    }

    /// Attaches the ϕ-entropy budget used by Protocol 3. Without one,
    /// Protocol 3 behaves like Protocol 2 (infinite budget).
    pub fn with_entropy_budget(mut self, model: EntropyModel, phi: f64) -> Self {
        self.entropy = Some((model, phi));
        self
    }

    /// The responder's node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Processes a request package.
    pub fn handle<R: Rng + ?Sized>(
        &self,
        package: &RequestPackage,
        now_us: u64,
        rng: &mut R,
    ) -> ResponderOutcome {
        if package.expires_us <= now_us {
            return ResponderOutcome::Expired;
        }
        let Some(kind) = ProtocolKind::from_wire(package.kind) else {
            return ResponderOutcome::NotCandidate;
        };
        // Fast check: a few modulo comparisons exclude most users.
        if !package.remainder.fast_check(&self.vector) {
            return ResponderOutcome::NotCandidate;
        }
        let (keys, stats) = enumerate_candidate_keys_with_stats_par(
            &self.vector,
            &package.remainder,
            package.hint.as_ref(),
            &self.config.match_config,
            self.config.parallelism,
        );
        if keys.is_empty() {
            return ResponderOutcome::NotCandidate;
        }

        let mut y = [0u8; 32];
        rng.fill(&mut y);

        match kind {
            ProtocolKind::P1 => {
                // Try each candidate key against the bottle; across worker
                // threads for large key sets (dictionary-size responders),
                // always keeping the sequential result: the first
                // verifying key in canonical key order.
                let threads = self.config.parallelism.threads();
                let backend = self.config.cipher_backend;
                let hit: Option<(usize, [u8; 32])> = if threads == 1 || keys.len() < 2 * threads {
                    keys.iter().enumerate().find_map(|(i, key)| {
                        // One schedule expansion per candidate, reused
                        // across all trial blocks of the bottle.
                        let cipher = Aes256::with_backend(key.key.as_bytes(), backend);
                        open_message_with(&cipher, kind, &package.nonce, &package.ciphertext)
                            .map(|x| (i, x))
                    })
                } else {
                    // One thread scope over the whole key range. Workers
                    // scan round-robin in increasing index order and
                    // publish the smallest verifying index found; peers
                    // stop once their next index can no longer beat it.
                    // The global minimum hit index is the sequential
                    // loop's early exit, so the result is deterministic
                    // — first verifying key in canonical order — while a
                    // no-match dictionary responder pays exactly one
                    // spawn per worker.
                    use std::sync::atomic::{AtomicUsize, Ordering};
                    let best = AtomicUsize::new(usize::MAX);
                    let keys_ref = &keys;
                    let best_ref = &best;
                    std::thread::scope(|s| {
                        let handles: Vec<_> = (0..threads)
                            .map(|w| {
                                s.spawn(move || {
                                    let mut i = w;
                                    while i < keys_ref.len() && i < best_ref.load(Ordering::Relaxed)
                                    {
                                        let cipher = Aes256::with_backend(
                                            keys_ref[i].key.as_bytes(),
                                            backend,
                                        );
                                        if let Some(x) = open_message_with(
                                            &cipher,
                                            kind,
                                            &package.nonce,
                                            &package.ciphertext,
                                        ) {
                                            best_ref.fetch_min(i, Ordering::Relaxed);
                                            return Some((i, x));
                                        }
                                        i += threads;
                                    }
                                    None
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .filter_map(|h| h.join().expect("P1 trial worker panicked"))
                            .min_by_key(|&(i, _)| i)
                    })
                };
                if let Some((i, x)) = hit {
                    let ack = make_ack(&x, &y, backend, rng);
                    let reply = Reply {
                        request_id: package.request_id(),
                        responder: self.id,
                        acks: vec![ack],
                    };
                    let sessions =
                        vec![SessionSecret { x, y, recovered: keys[i].recovered.clone() }];
                    return ResponderOutcome::Reply { reply, sessions, verified: true, stats };
                }
                ResponderOutcome::NoVerifiedMatch
            }
            ProtocolKind::P2 | ProtocolKind::P3 => {
                // Protocol 3: keep only candidates within the entropy
                // budget.
                let selected: Vec<&msb_profile::matching::CandidateKey> =
                    if kind == ProtocolKind::P3 {
                        if let Some((model, phi)) = &self.entropy {
                            let sets: Vec<Vec<Attribute>> =
                                keys.iter().map(|k| self.gambled_attributes(k)).collect();
                            let chosen = select_within_budget(model, &sets, *phi);
                            chosen.into_iter().map(|i| &keys[i]).collect()
                        } else {
                            keys.iter().collect()
                        }
                    } else {
                        keys.iter().collect()
                    };
                if selected.is_empty() {
                    return ResponderOutcome::NotCandidate;
                }
                let mut acks = Vec::with_capacity(selected.len());
                let mut sessions = Vec::with_capacity(selected.len());
                let backend = self.config.cipher_backend;
                for key in selected {
                    let cipher = Aes256::with_backend(key.key.as_bytes(), backend);
                    let x = open_message_with(&cipher, kind, &package.nonce, &package.ciphertext)
                        .expect("P2/P3 decryption is unconditional");
                    acks.push(make_ack(&x, &y, backend, rng));
                    sessions.push(SessionSecret { x, y, recovered: key.recovered.clone() });
                }
                let reply = Reply { request_id: package.request_id(), responder: self.id, acks };
                ResponderOutcome::Reply { reply, sessions, verified: false, stats }
            }
        }
    }

    /// The attributes a candidate key would gamble: the user's own
    /// attributes used as known values in the assignment.
    fn gambled_attributes(&self, key: &msb_profile::matching::CandidateKey) -> Vec<Attribute> {
        key.used_indices
            .iter()
            .filter_map(|&i| {
                let h = self.vector.hashes().get(i)?;
                self.attrs_by_hash.get(h).cloned()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attr(c: &str, v: &str) -> Attribute {
        Attribute::new(c, v)
    }

    fn request() -> RequestProfile {
        RequestProfile::new(
            vec![attr("profession", "engineer")],
            vec![attr("i", "jazz"), attr("i", "go"), attr("i", "tea")],
            2,
        )
        .unwrap()
    }

    fn matching_profile() -> Profile {
        Profile::from_attributes(vec![
            attr("profession", "engineer"),
            attr("i", "jazz"),
            attr("i", "go"),
            attr("hometown", "unrelated"),
        ])
    }

    fn unmatching_profile() -> Profile {
        Profile::from_attributes(vec![attr("hobby", "x"), attr("hobby", "y")])
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    fn run(kind: ProtocolKind, profile: Profile) -> (Initiator, ResponderOutcome) {
        let mut r = rng();
        let config = ProtocolConfig::new(kind, 11);
        let (initiator, pkg) = Initiator::create(&request(), 0, &config, 0, &mut r);
        let responder = Responder::new(1, profile, &config);
        let outcome = responder.handle(&pkg, 1_000, &mut r);
        (initiator, outcome)
    }

    #[test]
    fn p1_matching_roundtrip() {
        let (mut initiator, outcome) = run(ProtocolKind::P1, matching_profile());
        let ResponderOutcome::Reply { reply, sessions, verified, .. } = outcome else {
            panic!("expected reply, got {outcome:?}");
        };
        assert!(verified, "P1 responder verifies the match");
        assert_eq!(reply.acks.len(), 1);
        let confirmed = initiator.process_reply(&reply, 2_000);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].responder, 1);
        assert_eq!(confirmed[0].y, sessions[0].y);
        // Shared secret agreement.
        assert_eq!(initiator.x(), &sessions[0].x);
    }

    #[test]
    fn p2_matching_roundtrip() {
        let (mut initiator, outcome) = run(ProtocolKind::P2, matching_profile());
        let ResponderOutcome::Reply { reply, verified, .. } = outcome else {
            panic!("expected reply");
        };
        assert!(!verified, "P2 responder cannot verify");
        let confirmed = initiator.process_reply(&reply, 2_000);
        assert_eq!(confirmed.len(), 1, "one ack must decrypt under x");
    }

    #[test]
    fn p3_with_budget_roundtrip() {
        let mut r = rng();
        let config = ProtocolConfig::new(ProtocolKind::P3, 11);
        let (mut initiator, pkg) = Initiator::create(&request(), 0, &config, 0, &mut r);
        // Generous budget: everything selected.
        let model = EntropyModel::from_counts([
            ("profession", "engineer", 10u64),
            ("profession", "doctor", 10),
            ("i", "jazz", 5),
            ("i", "go", 5),
            ("i", "tea", 5),
            ("hometown", "unrelated", 1),
        ]);
        let responder =
            Responder::new(1, matching_profile(), &config).with_entropy_budget(model, 100.0);
        let outcome = responder.handle(&pkg, 1_000, &mut r);
        let ResponderOutcome::Reply { reply, .. } = outcome else {
            panic!("expected reply");
        };
        assert_eq!(initiator.process_reply(&reply, 2_000).len(), 1);
    }

    #[test]
    fn p3_zero_budget_blocks_reply() {
        let mut r = rng();
        let config = ProtocolConfig::new(ProtocolKind::P3, 11);
        let (_, pkg) = Initiator::create(&request(), 0, &config, 0, &mut r);
        let model = EntropyModel::from_counts([
            ("profession", "engineer", 1u64),
            ("profession", "doctor", 1),
        ]);
        let responder =
            Responder::new(1, matching_profile(), &config).with_entropy_budget(model, 0.0);
        let outcome = responder.handle(&pkg, 1_000, &mut r);
        assert!(
            matches!(outcome, ResponderOutcome::NotCandidate),
            "zero budget must suppress the gamble"
        );
    }

    #[test]
    fn unmatching_user_is_not_candidate_or_fails() {
        let (_, outcome) = run(ProtocolKind::P1, unmatching_profile());
        assert!(
            matches!(outcome, ResponderOutcome::NotCandidate | ResponderOutcome::NoVerifiedMatch),
            "{outcome:?}"
        );
    }

    #[test]
    fn below_threshold_candidate_cannot_forge_valid_ack() {
        // A user owning only 1 of 3 optional attributes may, via
        // collisions, still produce candidate keys — but none decrypts to
        // the initiator's x, so P2 replies (if any) are rejected.
        let mut r = rng();
        let config = ProtocolConfig::new(ProtocolKind::P2, 11);
        let (mut initiator, pkg) = Initiator::create(&request(), 0, &config, 0, &mut r);
        let weak =
            Profile::from_attributes(vec![attr("profession", "engineer"), attr("i", "jazz")]);
        let responder = Responder::new(2, weak, &config);
        match responder.handle(&pkg, 1_000, &mut r) {
            ResponderOutcome::NotCandidate | ResponderOutcome::NoVerifiedMatch => {}
            ResponderOutcome::Reply { reply, .. } => {
                assert!(initiator.process_reply(&reply, 2_000).is_empty());
                assert_eq!(initiator.reject_log().no_valid_ack, 1);
            }
            ResponderOutcome::Expired => panic!("not expired"),
        }
    }

    #[test]
    fn expired_request_dropped() {
        let mut r = rng();
        let config = ProtocolConfig::new(ProtocolKind::P1, 11);
        let (_, pkg) = Initiator::create(&request(), 0, &config, 0, &mut r);
        let responder = Responder::new(1, matching_profile(), &config);
        let outcome = responder.handle(&pkg, pkg.expires_us, &mut r);
        assert!(matches!(outcome, ResponderOutcome::Expired));
    }

    #[test]
    fn late_reply_rejected() {
        let (mut initiator, outcome) = run(ProtocolKind::P2, matching_profile());
        let ResponderOutcome::Reply { reply, .. } = outcome else {
            panic!("expected reply");
        };
        let confirmed = initiator.process_reply(&reply, 20_000_000); // past 10s window
        assert!(confirmed.is_empty());
        assert_eq!(initiator.reject_log().late, 1);
    }

    #[test]
    fn oversized_reply_set_rejected() {
        let (mut initiator, outcome) = run(ProtocolKind::P2, matching_profile());
        let ResponderOutcome::Reply { mut reply, .. } = outcome else {
            panic!("expected reply");
        };
        // A dictionary attacker pads the ack set with guesses.
        while reply.acks.len() <= 8 {
            reply.acks.push(vec![0u8; 56]);
        }
        assert!(initiator.process_reply(&reply, 2_000).is_empty());
        assert_eq!(initiator.reject_log().oversized, 1);
    }

    #[test]
    fn wrong_request_id_rejected() {
        let (mut initiator, outcome) = run(ProtocolKind::P1, matching_profile());
        let ResponderOutcome::Reply { mut reply, .. } = outcome else {
            panic!("expected reply");
        };
        reply.request_id[0] ^= 1;
        assert!(initiator.process_reply(&reply, 2_000).is_empty());
        assert_eq!(initiator.reject_log().wrong_request, 1);
    }

    #[test]
    fn duplicate_responder_rejected() {
        let (mut initiator, outcome) = run(ProtocolKind::P1, matching_profile());
        let ResponderOutcome::Reply { reply, .. } = outcome else {
            panic!("expected reply");
        };
        assert_eq!(initiator.process_reply(&reply, 2_000).len(), 1);
        assert!(initiator.process_reply(&reply, 2_500).is_empty());
        assert_eq!(initiator.reject_log().duplicate, 1);
    }

    #[test]
    fn forged_ack_without_x_rejected() {
        // A cheater who never decrypted the bottle cannot produce a valid
        // ack (verifiability, §IV-A3).
        let (mut initiator, _) = run(ProtocolKind::P2, matching_profile());
        // A different seed than the protocol run: the forger cannot know x.
        let mut r = StdRng::seed_from_u64(0xbad);
        let mut fake_x = [0u8; 32];
        r.fill(&mut fake_x);
        let mut fake_y = [0u8; 32];
        r.fill(&mut fake_y);
        let reply = Reply {
            request_id: initiator.request_id(),
            responder: 9,
            acks: vec![make_ack(&fake_x, &fake_y, CipherBackend::default(), &mut r)],
        };
        assert!(initiator.process_reply(&reply, 2_000).is_empty());
        assert_eq!(initiator.reject_log().no_valid_ack, 1);
    }

    #[test]
    fn channel_established_end_to_end() {
        let (mut initiator, outcome) = run(ProtocolKind::P1, matching_profile());
        let ResponderOutcome::Reply { reply, sessions, .. } = outcome else {
            panic!("expected reply");
        };
        let confirmed = initiator.process_reply(&reply, 2_000)[0];
        let mut ich = initiator.pair_channel(&confirmed);
        let mut rch = sessions[0].channel();
        let ct = ich.seal(b"hello, sealed world");
        assert_eq!(rch.open(&ct).unwrap(), b"hello, sealed world");
        let ct2 = rch.seal(b"hello back");
        assert_eq!(ich.open(&ct2).unwrap(), b"hello back");
    }

    #[test]
    fn perfect_match_request_works() {
        let mut r = rng();
        let config = ProtocolConfig::new(ProtocolKind::P1, 11);
        let req = RequestProfile::exact(vec![attr("a", "1"), attr("b", "2")]).unwrap();
        let (mut initiator, pkg) = Initiator::create(&req, 0, &config, 0, &mut r);
        assert!(pkg.hint.is_none());
        let exact_owner = Profile::from_attributes(vec![attr("a", "1"), attr("b", "2")]);
        let responder = Responder::new(3, exact_owner, &config);
        let ResponderOutcome::Reply { reply, .. } = responder.handle(&pkg, 100, &mut r) else {
            panic!("perfect owner must match");
        };
        assert_eq!(initiator.process_reply(&reply, 200).len(), 1);
    }

    #[test]
    fn superset_profile_still_matches_exact_request() {
        // The paper's "flexible search": a user owning MORE than the
        // requested attributes still matches an exact request for a
        // subset of their profile.
        let mut r = rng();
        let config = ProtocolConfig::new(ProtocolKind::P1, 11);
        let req = RequestProfile::exact(vec![attr("a", "1"), attr("b", "2")]).unwrap();
        let (mut initiator, pkg) = Initiator::create(&req, 0, &config, 0, &mut r);
        let superset = Profile::from_attributes(vec![
            attr("a", "1"),
            attr("b", "2"),
            attr("c", "3"),
            attr("d", "4"),
        ]);
        let responder = Responder::new(4, superset, &config);
        let ResponderOutcome::Reply { reply, .. } = responder.handle(&pkg, 100, &mut r) else {
            panic!("superset owner must match");
        };
        assert_eq!(initiator.process_reply(&reply, 200).len(), 1);
    }
}
