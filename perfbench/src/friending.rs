//! `friending`: Protocol 1 handshakes with fuzzy requests at Table VII's
//! typical parameters (mt = 6, β = γ = 3, p = 11, n = 100 neighbours
//! drawn from a Weibo-calibrated population, one planted matcher per
//! neighbourhood). One handshake is the initiator's `create`, the
//! request's encode, every neighbour's decode + `handle` + reply encode,
//! then each reply's decode + `process_reply` — the whole exchange on
//! one thread, so the timed phase is all crypto, matching, hint solving
//! and codec, and never touches `msb-net` or `msb-server`.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use msb_core::package::{Reply, RequestPackage};
use msb_core::protocol::{
    Initiator, Parallelism, ProtocolConfig, ProtocolKind, Responder, ResponderOutcome,
};
use msb_crypto::aes::CipherBackend;
use msb_dataset::{WeiboConfig, WeiboDataset};
use msb_profile::matching::parallel::enumerate_candidate_keys_with_stats_par;
use msb_profile::{Attribute, Profile, RequestProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{latency_summary, median, print_layer_table, sub_seed, Args, Report, Span};

/// Request size mt (all optional: a threshold request).
const REQUEST_ATTRS: usize = 6;
/// Attributes a responder must share, β (so γ = mt − β = 3).
const BETA: usize = 3;
/// Remainder modulus.
const P: u64 = 11;
/// Responders per neighbourhood, n.
const NEIGHBOURS: usize = 100;
/// Distinct neighbourhoods, each with its own request and planted
/// matcher: fewer than a run makes handshakes, so a run visits every
/// one and its p99 is the cost of dozens of distinct neighbourhoods,
/// not of one or two.
const NEIGHBOURHOODS: usize = 4096;
/// Weibo-calibrated population: every user is a phone the
/// neighbourhoods draw from, so a seed's mix of phones (a phone's
/// matching cost grows steeply with its tag count) is the population's
/// rather than that of a small sample, and varies little between seeds.
const POPULATION: usize = 20_000;
/// Set-ups per untraced run, each followed by an equal slice of the
/// timed phase; `setup_s` is their median.
const SETUPS: usize = 5;
/// Simulated instants of the exchange (µs): the request is sent at 0,
/// handled at 100 and answered at 200, well inside the reply window.
const SENT_US: u64 = 0;
const HANDLED_US: u64 = 100;
const ANSWERED_US: u64 = 200;

/// The protocol configuration, with every environment-dependent field
/// pinned: sequential matching and the S-box AES backend.
fn config() -> ProtocolConfig {
    let mut config = ProtocolConfig::new(ProtocolKind::P1, P);
    config.parallelism = Parallelism::SEQUENTIAL;
    config.cipher_backend = CipherBackend::Sbox;
    config
}

/// The phones in radio range of the initiators, each with its
/// responder built once, as the app would.
struct Phones {
    profiles: Vec<Profile>,
    /// `responders[i]` has id `i + 1` and profile `profiles[i]`.
    responders: Vec<Responder>,
}

/// One initiator's surroundings: the request it sends and the phones
/// that hear it: `NEIGHBOURS - 1` users' phones and one planted matcher.
struct Neighbourhood {
    request: RequestProfile,
    /// Indices into [`Phones`], the planted matcher among them.
    members: Vec<usize>,
    /// Index of the planted matcher.
    planted: usize,
}

fn tag(t: u64) -> Attribute {
    Attribute::new("tag", format!("t{t}"))
}

/// Builds the phones and neighbourhoods from the seed: every Weibo user
/// is a phone with its tag profile; a request is six tags of a user
/// owning at least six; its planted matcher is another user's profile
/// plus β or β + 1 of the request's tags.
fn build(seed: u64, config: &ProtocolConfig) -> (Phones, Vec<Neighbourhood>) {
    let data = WeiboDataset::generate(
        &WeiboConfig { users: POPULATION, ..WeiboConfig::default() },
        sub_seed(seed, 1),
    );
    let users = data.users();
    let requesters: Vec<usize> =
        (0..users.len()).filter(|&i| users[i].tags.len() >= REQUEST_ATTRS).collect();
    assert!(!requesters.is_empty(), "population has users with {REQUEST_ATTRS}+ tags");
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let mut profiles: Vec<Profile> =
        users.iter().map(|u| Profile::from_attributes(u.tag_attributes())).collect();
    let hoods = (0..NEIGHBOURHOODS)
        .map(|_| {
            let who = requesters[rng.gen_range(0..requesters.len())];
            let mut tags = users[who].tags.clone();
            for i in 0..REQUEST_ATTRS {
                let j = rng.gen_range(i..tags.len());
                tags.swap(i, j);
            }
            let wanted: Vec<Attribute> = tags[..REQUEST_ATTRS].iter().map(|&t| tag(t)).collect();
            let request = RequestProfile::threshold(wanted.clone(), BETA).expect("valid request");
            let mut attrs = users[rng.gen_range(0..users.len())].tag_attributes();
            attrs.extend(wanted[..BETA + rng.gen_range(0..=1)].iter().cloned());
            let planted = profiles.len();
            profiles.push(Profile::from_attributes(attrs));
            let mut members = BTreeSet::new();
            while members.len() < NEIGHBOURS - 1 {
                members.insert(rng.gen_range(0..POPULATION));
            }
            let mut members: Vec<usize> = members.into_iter().collect();
            members.insert(rng.gen_range(0..NEIGHBOURS), planted);
            Neighbourhood { request, members, planted }
        })
        .collect();
    let responders = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| Responder::new(i as u32 + 1, p.clone(), config))
        .collect();
    (Phones { profiles, responders }, hoods)
}

/// Checks one finished handshake: the planted matcher is confirmed and
/// every confirmed responder is a neighbour that really satisfies the
/// request.
fn verify(phones: &Phones, nb: &Neighbourhood, initiator: &Initiator) -> Result<(), String> {
    let confirmed: Vec<usize> =
        initiator.matches().iter().map(|m| m.responder as usize - 1).collect();
    if !confirmed.contains(&nb.planted) {
        return Err(format!("planted matcher {} not confirmed (got {confirmed:?})", nb.planted));
    }
    for i in confirmed {
        if !nb.members.contains(&i) || !nb.request.is_satisfied_by(&phones.profiles[i]) {
            return Err(format!("phone {i} confirmed without satisfying the request"));
        }
    }
    Ok(())
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    create: Span,
    encode: Span,
    decode: Span,
    handle: Span,
    process_reply: Span,
    handshake: Span,
    bytes: u64,
    // Probes re-run outside the handshake spans on the same inputs.
    fast_check: Span,
    candidates: u64,
    enumerate: Span,
    assignments: u64,
    solves: u64,
    keys: u64,
    /// `handle` time of candidate calls minus their fast check and
    /// enumeration: the AES schedule and CTR work of the key trials.
    key_trial: Duration,
    /// Candidate calls that replied.
    replied: u64,
    matrix_gen: Span,
    key_gen: Span,
    remainder_gen: Span,
    hint_gen: Span,
    hint_solve: Span,
}

/// Runs `f`, adding its wall time to the span `pick` selects when
/// tracing.
fn timed<T>(
    layers: &mut Option<&mut Layers>,
    pick: fn(&mut Layers) -> &mut Span,
    f: impl FnOnce() -> T,
) -> T {
    match layers.as_deref_mut() {
        Some(l) => pick(l).time(f),
        None => f(),
    }
}

/// One handshake: the initiator's request to every neighbour and the
/// replies back; returns its outcome check. With `layers`, every layer
/// call is timed, and the probes run after the handshake on its inputs.
fn handshake(
    phones: &Phones,
    nb: &Neighbourhood,
    config: &ProtocolConfig,
    rng: &mut StdRng,
    mut layers: Option<&mut Layers>,
) -> Result<(), String> {
    let start = layers.is_some().then(Instant::now);
    let (mut initiator, package) = timed(
        &mut layers,
        |l| &mut l.create,
        || Initiator::create(&nb.request, 0, config, SENT_US, rng),
    );
    let frame = timed(&mut layers, |l| &mut l.encode, || package.encode());
    let mut replies: Vec<Vec<u8>> = Vec::new();
    // Traced only: (phone, `handle` time, replied) of every call.
    let mut handled: Vec<(usize, Duration, bool)> = Vec::new();
    for &i in &nb.members {
        let package = timed(&mut layers, |l| &mut l.decode, || RequestPackage::decode(&frame))
            .map_err(|e| e.to_string())?;
        let called = start.map(|_| Instant::now());
        let outcome = phones.responders[i].handle(&package, HANDLED_US, rng);
        if let (Some(l), Some(called)) = (layers.as_deref_mut(), called) {
            let took = called.elapsed();
            l.handle.total += took;
            l.handle.calls += 1;
            handled.push((i, took, matches!(outcome, ResponderOutcome::Reply { .. })));
        }
        if let ResponderOutcome::Reply { reply, .. } = outcome {
            replies.push(timed(&mut layers, |l| &mut l.encode, || reply.encode()));
        }
    }
    for bytes in &replies {
        let reply = timed(&mut layers, |l| &mut l.decode, || Reply::decode(bytes))
            .map_err(|e| e.to_string())?;
        timed(
            &mut layers,
            |l| &mut l.process_reply,
            || initiator.process_reply(&reply, ANSWERED_US),
        );
    }
    let outcome = verify(phones, nb, &initiator);
    if let (Some(l), Some(start)) = (layers, start) {
        l.handshake.total += start.elapsed();
        l.handshake.calls += 1;
        l.bytes += (frame.len() + replies.iter().map(Vec::len).sum::<usize>()) as u64;
        probe(phones, nb, &package, handled, config, rng, l)?;
    }
    outcome
}

/// The traced run's probes, re-run outside the handshake spans: the
/// responder split of `handle` on the handshake's own package, and the
/// paper's Table VI split of `create` on its request.
fn probe(
    phones: &Phones,
    nb: &Neighbourhood,
    package: &RequestPackage,
    handled: Vec<(usize, Duration, bool)>,
    config: &ProtocolConfig,
    rng: &mut StdRng,
    l: &mut Layers,
) -> Result<(), String> {
    for (i, took, replied) in handled {
        let vector = phones.profiles[i].vector();
        let t = Instant::now();
        let passes = package.remainder.fast_check(vector);
        let fast_check = t.elapsed();
        l.fast_check.total += fast_check;
        l.fast_check.calls += 1;
        if !passes {
            continue;
        }
        l.candidates += 1;
        let t = Instant::now();
        let (keys, stats) = enumerate_candidate_keys_with_stats_par(
            vector,
            &package.remainder,
            package.hint.as_ref(),
            &config.match_config,
            config.parallelism,
        );
        let enumerate = t.elapsed();
        l.enumerate.total += enumerate;
        l.enumerate.calls += 1;
        l.assignments += stats.assignments as u64;
        l.solves += stats.solves as u64;
        l.keys += keys.len() as u64;
        l.key_trial += took.saturating_sub(fast_check + enumerate);
        l.replied += u64::from(replied);
    }
    let vector = l.matrix_gen.time(|| nb.request.vector());
    l.key_gen.time(|| vector.profile_key());
    l.remainder_gen.time(|| vector.remainder_vector(P));
    let hint = l
        .hint_gen
        .time(|| vector.hint_matrix(config.hint_construction, rng))
        .expect("γ > 0 requests carry a hint matrix");
    let optional = vector.optional();
    let assignment: Vec<Option<_>> =
        optional.iter().enumerate().map(|(i, h)| (i < BETA).then_some(*h)).collect();
    let solved = l.hint_solve.time(|| hint.solve(&assignment));
    if solved.as_deref() != Some(optional) {
        return Err("hint solve did not recover the request".into());
    }
    Ok(())
}

/// Counts one handshake's outcome into the report.
fn settle(report: &mut Report, outcome: Result<(), String>) {
    report.attempted += 1;
    if let Err(e) = outcome {
        report.failed += 1;
        if report.errors.len() < 8 {
            report.errors.push(e);
        }
    }
}

pub fn run(args: &Args) -> Report {
    let config = config();
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 3));

    if !args.trace {
        // The closed loop, one handshake after another, runs in SETUPS
        // equal slices, each on a fresh set-up from the same seed. Host
        // speed drifts over seconds, so set-ups spread over the run give
        // a steadier median than set-ups bunched before it.
        let slice = budget / SETUPS as u32;
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut latencies = Vec::new();
        let mut elapsed = 0.0;
        for _ in 0..SETUPS {
            let start = Instant::now();
            let (phones, hoods) = build(args.seed, &config);
            setup_s.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            while start.elapsed() < slice {
                let nb = &hoods[latencies.len() % NEIGHBOURHOODS];
                let t = Instant::now();
                let outcome = handshake(&phones, nb, &config, &mut rng, None);
                latencies.push(t.elapsed().as_secs_f64());
                settle(&mut report, outcome);
            }
            elapsed += start.elapsed().as_secs_f64();
        }
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("throughput_per_s", latencies.len() as f64 / elapsed, "1/s");
        let p50 = latency_summary("friending handshake latency", &mut latencies);
        report.metric("latency_p50_ms", p50, "ms");
        return report;
    }

    let (phones, hoods) = build(args.seed, &config);
    // Each handshake runs twice on the same inputs and random stream,
    // untraced and traced, so host drift cannot bias the overhead; the
    // order alternates, so neither side always meets warm caches.
    let mut l = Layers::default();
    let mut untraced_s = 0.0;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        let nb = &hoods[i % NEIGHBOURHOODS];
        let mut replay = rng.clone();
        for traced in [i % 2 == 1, i % 2 == 0] {
            let outcome = if traced {
                handshake(&phones, nb, &config, &mut replay, Some(&mut l))
            } else {
                let t = Instant::now();
                let outcome = handshake(&phones, nb, &config, &mut rng, None);
                untraced_s += t.elapsed().as_secs_f64();
                outcome
            };
            settle(&mut report, outcome);
        }
        i += 1;
    }
    let traced_s = l.handshake.secs();
    print_layer_table(
        "friending (per handshake, summed)",
        traced_s,
        &[
            ("core.create", l.create.secs()),
            ("wire.encode", l.encode.secs()),
            ("wire.decode", l.decode.secs()),
            ("core.handle", l.handle.secs()),
            ("core.process_reply", l.process_reply.secs()),
        ],
    );
    print_layer_table(
        "friending core.handle split (probes re-run on the same packages)",
        l.handle.secs(),
        &[
            ("profile.fast_check (every call)", l.fast_check.secs()),
            ("profile.enumerate (candidates)", l.enumerate.secs()),
            ("crypto.key_trial (candidates)", l.key_trial.as_secs_f64()),
        ],
    );
    println!("candidate calls: {} of {} handle calls", l.candidates, l.handle.calls);
    print_layer_table(
        "friending core.create split (Table VI probes on the same requests)",
        l.create.secs(),
        &[
            ("profile.matrix_gen", l.matrix_gen.secs()),
            ("profile.key_gen", l.key_gen.secs()),
            ("profile.remainder_gen", l.remainder_gen.secs()),
            ("profile.hint_gen", l.hint_gen.secs()),
        ],
    );
    let overhead = traced_s / untraced_s;
    println!("tracing overhead: {overhead:.4} (traced / untraced handshake wall time)");

    let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
    report.metric("core.create_us", l.create.mean_us(), "us");
    report.metric("core.handle_us", l.handle.mean_us(), "us");
    report.metric("core.handle_calls", l.handle.calls as f64, "count");
    report.metric("core.candidate_ratio", per(l.candidates, l.handle.calls), "ratio");
    report.metric("core.process_reply_us", l.process_reply.mean_us(), "us");
    report.metric("profile.fast_check_us", l.fast_check.mean_us(), "us");
    report.metric("profile.enumerate_us", l.enumerate.mean_us(), "us");
    report.metric("profile.assignments", per(l.assignments, l.candidates), "count");
    report.metric("profile.solves", per(l.solves, l.candidates), "count");
    report.metric("profile.keys", per(l.keys, l.candidates), "count");
    report.metric("profile.matrix_gen_us", l.matrix_gen.mean_us(), "us");
    report.metric("profile.key_gen_us", l.key_gen.mean_us(), "us");
    report.metric("profile.remainder_gen_us", l.remainder_gen.mean_us(), "us");
    report.metric("profile.hint_gen_us", l.hint_gen.mean_us(), "us");
    report.metric("profile.hint_solve_us", l.hint_solve.mean_us(), "us");
    report.metric(
        "crypto.key_trial_us",
        l.key_trial.as_secs_f64() * 1e6 / l.candidates.max(1) as f64,
        "us",
    );
    report.metric("crypto.keys_per_match", per(l.keys, l.replied), "count");
    report.metric("wire.encode_us", l.encode.mean_us(), "us");
    report.metric("wire.decode_us", l.decode.mean_us(), "us");
    report.metric("wire.bytes_per_handshake", per(l.bytes, l.handshake.calls), "B");
    report.metric("trace.overhead_ratio", overhead, "ratio");
    report
}
