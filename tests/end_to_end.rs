//! Integration tests spanning the whole stack: protocols over the MANET
//! simulator, mobility, packet loss, multi-hop vicinity search.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sealed_bottle::core::protocol::{Parallelism, ResponderOutcome};
use sealed_bottle::net::mobility::{Bounds, RandomWaypoint};
use sealed_bottle::prelude::*;

fn attr(c: &str, v: &str) -> Attribute {
    Attribute::new(c, v)
}

fn request() -> RequestProfile {
    RequestProfile::new(
        vec![attr("guild", "cartographers")],
        vec![attr("i", "maps"), attr("i", "ink"), attr("i", "paper")],
        2,
    )
    .unwrap()
}

fn matching_profile() -> Profile {
    Profile::from_attributes(vec![
        attr("guild", "cartographers"),
        attr("i", "maps"),
        attr("i", "ink"),
    ])
}

fn noise(i: usize) -> Profile {
    Profile::from_attributes(vec![attr("noise", &format!("a{i}")), attr("noise", &format!("b{i}"))])
}

/// A 5-hop line: request floods out, reply routes back, channel works.
#[test]
fn five_hop_friending_all_protocols() {
    for kind in [ProtocolKind::P1, ProtocolKind::P2, ProtocolKind::P3] {
        let config = ProtocolConfig::new(kind, 11);
        let mut sim = Simulator::new(SimConfig::default(), 7);
        sim.add_node((0.0, 0.0), FriendingApp::initiator(noise(0), request(), config.clone()));
        for i in 1..5 {
            sim.add_node(
                (i as f64 * 45.0, 0.0),
                FriendingApp::participant(noise(i), config.clone()),
            );
        }
        sim.add_node(
            (5.0 * 45.0, 0.0),
            FriendingApp::participant(matching_profile(), config.clone()),
        );
        sim.start();
        sim.run();
        let app = sim.app(NodeId::new(0));
        assert_eq!(app.matches().len(), 1, "{kind:?}: {:?}", app.events);
        assert_eq!(app.matches()[0].responder, 5);

        // End-to-end secure channel across the confirmed match.
        let m = app.matches()[0];
        let mut ich = app.initiator_state().unwrap().pair_channel(&m);
        let target = sim.app(NodeId::new(5));
        let session = target
            .sessions()
            .iter()
            .find(|s| {
                // P2/P3 responders may hold several candidate sessions;
                // find the one whose channel authenticates.
                let mut ch = s.channel();
                let mut probe = app.initiator_state().unwrap().pair_channel(&m);
                ch.open(&probe.seal(b"probe")).is_ok()
            })
            .expect("one session must authenticate");
        let mut rch = session.channel();
        let frame = ich.seal(b"found you across five hops");
        assert_eq!(rch.open(&frame).unwrap(), b"found you across five hops");
    }
}

/// Lossy links: flooding is redundant, but the reply unicast is
/// all-or-nothing per hop — so individual rounds may fail. Across ten
/// deterministic seeds the majority must succeed, and losses must
/// actually occur.
#[test]
fn dense_mesh_with_packet_loss() {
    let mut successes = 0usize;
    let mut total_lost = 0u64;
    for seed in 0..10 {
        let config = ProtocolConfig::new(ProtocolKind::P1, 11);
        let sim_config = SimConfig { loss_rate: 0.05, ..SimConfig::default() };
        let mut sim = Simulator::new(sim_config, seed);
        sim.add_node((0.0, 0.0), FriendingApp::initiator(noise(0), request(), config.clone()));
        // A dense 5×5 grid, 30 m spacing: many redundant paths.
        for i in 0..25 {
            let pos = ((i % 5) as f64 * 30.0, (i / 5) as f64 * 30.0 + 30.0);
            sim.add_node(pos, FriendingApp::participant(noise(i + 1), config.clone()));
        }
        sim.add_node((60.0, 180.0), FriendingApp::participant(matching_profile(), config.clone()));
        sim.start();
        sim.run();
        successes += sim.app(NodeId::new(0)).matches().len();
        total_lost += sim.metrics().lost;
    }
    assert!(successes >= 6, "flood redundancy should usually win: {successes}/10");
    assert!(total_lost > 0, "loss must actually have occurred");
}

/// Mobility: users walk between two request rounds; the second round
/// reaches a node that was previously out of range.
#[test]
fn mobility_changes_reachability() {
    let config = ProtocolConfig::new(ProtocolKind::P1, 11);
    let mut sim = Simulator::new(SimConfig::default(), 3);
    sim.add_node((0.0, 0.0), FriendingApp::initiator(noise(0), request(), config.clone()));
    // The matching user starts unreachable (500 m away, no relays).
    let target =
        sim.add_node((500.0, 0.0), FriendingApp::participant(matching_profile(), config.clone()));
    sim.start();
    sim.run();
    assert!(sim.app(NodeId::new(0)).matches().is_empty(), "initially partitioned");

    // They walk into range; a fresh request round succeeds. (A new app
    // would normally re-flood; we inject the package directly to model
    // the second round.)
    sim.set_position(target, (40.0, 0.0));
    let mut rng = StdRng::seed_from_u64(1);
    let (mut initiator2, package) =
        Initiator::create(&request(), 0, &config, sim.now_us(), &mut rng);
    let responder = Responder::new(1, matching_profile(), &config);
    let outcome = responder.handle(&package, sim.now_us() + 1_000, &mut rng);
    let ResponderOutcome::Reply { reply, .. } = outcome else {
        panic!("in range now, must match");
    };
    assert_eq!(initiator2.process_reply(&reply, sim.now_us() + 2_000).len(), 1);
}

/// The random-waypoint model keeps a 30-node swarm connected enough for
/// friending to succeed from a random snapshot.
#[test]
fn random_waypoint_snapshot_friending() {
    let mut mobility =
        RandomWaypoint::new(30, Bounds { width: 150.0, height: 150.0 }, 1.0, 2.0, 1.0, 8);
    mobility.advance(60.0); // let the swarm mix

    let config = ProtocolConfig::new(ProtocolKind::P2, 11);
    let mut sim = Simulator::new(SimConfig::default(), 44);
    let positions = mobility.positions();
    sim.add_node(positions[0], FriendingApp::initiator(noise(0), request(), config.clone()));
    for (i, &pos) in positions.iter().enumerate().skip(1).take(28) {
        sim.add_node(pos, FriendingApp::participant(noise(i), config.clone()));
    }
    sim.add_node(positions[29], FriendingApp::participant(matching_profile(), config.clone()));
    sim.start();
    sim.run();
    // The snapshot may or may not be connected; verify consistency:
    // a match is confirmed iff initiator and target are in the same
    // component.
    let components = sim.connected_components();
    let same_component =
        components.iter().any(|c| c.contains(&NodeId::new(0)) && c.contains(&NodeId::new(29)));
    let matched = !sim.app(NodeId::new(0)).matches().is_empty();
    assert_eq!(matched, same_component, "match iff reachable");
}

/// Vicinity search across the simulator: only the physically nearby
/// peer is confirmed even though all peers hear the flood.
#[test]
fn vicinity_search_over_network() {
    let lattice = LatticeConfig::new((0.0, 0.0), 10.0);
    let config = ProtocolConfig::new(ProtocolKind::P2, 37);
    let mut rng = StdRng::seed_from_u64(21);
    let (mut searcher, package, _region) =
        create_vicinity_request(&lattice, (0.0, 0.0), 20.0, 9.0 / 19.0, 0, &config, 0, &mut rng);

    // Peer A is physically near (10 m), peer B far (300 m) — but note
    // both *hear* the request (radio reaches further than vicinity).
    let (near, _) = vicinity_responder(&lattice, (10.0, 0.0), 20.0, 1, &config);
    let (far, _) = vicinity_responder(&lattice, (300.0, 0.0), 20.0, 2, &config);
    for (responder, should_match) in [(near, true), (far, false)] {
        match responder.handle(&package, 1_000, &mut rng) {
            ResponderOutcome::Reply { reply, .. } => {
                let ok = !searcher.process_reply(&reply, 2_000).is_empty();
                assert_eq!(ok, should_match);
            }
            _ => assert!(!should_match),
        }
    }
    assert_eq!(searcher.matches().len(), 1);
}

/// Differential: a multi-threaded responder run over a chunk of requests
/// produces the same match decisions and byte-identical wire replies as
/// the single-threaded run — for all three protocols.
#[test]
fn batched_parallel_responder_matches_sequential_run() {
    for kind in [ProtocolKind::P1, ProtocolKind::P2, ProtocolKind::P3] {
        let mut seq_config = ProtocolConfig::new(kind, 11);
        seq_config.parallelism = Parallelism::SEQUENTIAL;
        let mut par_config = ProtocolConfig::new(kind, 11);
        par_config.parallelism = Parallelism::new(4);

        // A chunk of requests from distinct initiators: half match the
        // responder's profile, half don't.
        let mut pkg_rng = StdRng::seed_from_u64(31);
        let mut initiators = Vec::new();
        let mut packages = Vec::new();
        for i in 0..6usize {
            let req = if i % 2 == 0 {
                request()
            } else {
                RequestProfile::new(
                    vec![attr("guild", &format!("other-{i}"))],
                    vec![attr("i", "maps"), attr("i", "ink"), attr("i", "paper")],
                    2,
                )
                .unwrap()
            };
            let (ini, pkg) = Initiator::create(&req, 10 + i as u32, &seq_config, 0, &mut pkg_rng);
            initiators.push(ini);
            packages.push(pkg);
        }

        let seq_responder = Responder::new(1, matching_profile(), &seq_config);
        let par_responder = Responder::new(1, matching_profile(), &par_config);
        let mut seq_rng = StdRng::seed_from_u64(77);
        let mut par_rng = StdRng::seed_from_u64(77);
        let seq: Vec<ResponderOutcome> =
            packages.iter().map(|p| seq_responder.handle(p, 1_000, &mut seq_rng)).collect();
        let par: Vec<ResponderOutcome> =
            packages.iter().map(|p| par_responder.handle(p, 1_000, &mut par_rng)).collect();

        assert_eq!(seq.len(), par.len());
        let mut replies = 0usize;
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            match (a, b) {
                (
                    ResponderOutcome::Reply { reply: ra, sessions: sa, verified: va, stats: ta },
                    ResponderOutcome::Reply { reply: rb, sessions: sb, verified: vb, stats: tb },
                ) => {
                    replies += 1;
                    assert_eq!(ra.encode(), rb.encode(), "{kind:?}: wire bytes differ at {i}");
                    assert_eq!(va, vb, "{kind:?}: verified flag differs at {i}");
                    assert_eq!(ta, tb, "{kind:?}: enumeration stats differ at {i}");
                    assert_eq!(sa.len(), sb.len());
                    for (x, y) in sa.iter().zip(sb) {
                        assert_eq!(x.x, y.x);
                        assert_eq!(x.y, y.y);
                        assert_eq!(x.recovered, y.recovered);
                    }
                }
                (ResponderOutcome::NotCandidate, ResponderOutcome::NotCandidate)
                | (ResponderOutcome::NoVerifiedMatch, ResponderOutcome::NoVerifiedMatch)
                | (ResponderOutcome::Expired, ResponderOutcome::Expired) => {}
                _ => panic!("{kind:?}: outcome shape differs at {i}: {a:?} vs {b:?}"),
            }
        }
        assert!(replies >= 3, "{kind:?}: the matching requests must draw replies");

        // Identical match decisions at every initiator.
        for (i, ini) in initiators.into_iter().enumerate() {
            if let (
                ResponderOutcome::Reply { reply: ra, .. },
                ResponderOutcome::Reply { reply: rb, .. },
            ) = (&seq[i], &par[i])
            {
                let mut seq_ini = ini.clone();
                let mut par_ini = ini;
                let confirmed_seq = seq_ini.process_reply(ra, 2_000);
                let confirmed_par = par_ini.process_reply(rb, 2_000);
                assert_eq!(confirmed_seq, confirmed_par, "{kind:?}: decision differs at {i}");
            }
        }
    }
}

/// The full pipeline on dataset-generated profiles: a requester built
/// from a real user's tags finds exactly the users sharing enough tags.
#[test]
fn dataset_driven_matching_agrees_with_ground_truth() {
    use sealed_bottle::dataset::{WeiboConfig, WeiboDataset};

    let data = WeiboDataset::generate(&WeiboConfig { users: 300, ..WeiboConfig::default() }, 55);
    let mut rng = StdRng::seed_from_u64(4);
    let users = data.users();
    let initiator_user = users.iter().find(|u| u.tags.len() == 6).expect("a 6-tag user");
    let beta = 3usize;

    let request = RequestProfile::threshold(initiator_user.tag_attributes(), beta).unwrap();
    let config = ProtocolConfig::new(ProtocolKind::P1, 11);
    let (mut initiator, package) = Initiator::create(&request, 0, &config, 0, &mut rng);

    let mut confirmed = 0usize;
    let mut expected = 0usize;
    for user in users.iter().filter(|u| u.id != initiator_user.id) {
        let profile = user.profile();
        if request.is_satisfied_by(&profile) {
            expected += 1;
        }
        let responder = Responder::new(user.id + 1, profile, &config);
        if let ResponderOutcome::Reply { reply, .. } = responder.handle(&package, 100, &mut rng) {
            confirmed += initiator.process_reply(&reply, 200).len();
        }
    }
    assert_eq!(confirmed, expected, "protocol must agree with ground truth");
}
